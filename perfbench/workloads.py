"""Workloads of the end-to-end benchmark: operations, output checks, goldens.

Every operation calls the `heavytail-ph` click entry in-process
(`cli.main`), so interpreter start and imports are paid once, in set-up.
Each CLI command writes into its own directory under the run's work
directory; the checks read those files back.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist
from time import perf_counter

import click
import numpy as np

from heavytail_ph import cli, phmodel, queueing, simqueue, targets

# The service model of the validate workload: the order-104 Pareto(3.1)
# hybrid at the default fit points (`fit --target pareto --shape 3.1
# --no-optimize`). It is stored, not refitted, so that a change to the fit
# layers cannot change this workload's input.
MODEL_FILE = Path(__file__).resolve().parent / "data" / \
    "pareto31_hybrid_k4_n100.json"
MODEL_SHA256 = \
    "db15d55f5b69f0fc3912489d26ab9f08ea7b7463f14fbe98998f4b3a787c9696"

QUEUE_LAM = 0.5
# Lognormal(1, 2) has mean e^3, so this rate gives rho = 0.5.
LOGNORMAL_LAM = 0.5 * math.exp(-3.0)
LOGNORMAL = targets.TargetDistribution(kind="lognormal",
                                       params={"mu": 1.0, "sigma": 2.0})

# Simulation size per operation. Ten replications give the 95% half-width
# nine degrees of freedom; at HALFWIDTHS = 4 an unchanged program fails a
# mean check with probability about 3e-5 (Student t, nine d.o.f.).
REPLICATIONS = 10
MODEL_JOBS = 40_000
TARGET_JOBS = 10_000
HALFWIDTHS = 4.0
# Service draws against the exact CCDF at these CCDF levels; a count may
# miss its binomial expectation by at most DRAW_Z standard deviations.
DRAW_LEVELS = (0.5, 0.1, 0.01, 0.001)
DRAW_Z = 6.0

# Acceptance tolerances of the two fits (criteria 2 and 3 of
# tests/test_acceptance.py).
FIT_TOLERANCES = {
    "pareto": {"mae": 1e-5, "mean_rel": 1e-2, "cv_rel": 2e-2},
    "weibull": {"mae": 1.04e-2, "cv_rel": 5e-2},
}


@dataclass
class OpResult:
    """One operation: its timings, outcome and golden outputs."""

    seconds: dict = field(default_factory=dict)   # command -> wall seconds
    values: dict = field(default_factory=dict)    # other measured values
    attempted: int = 0
    problems: list = field(default_factory=list)  # (command, message)
    golden: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len({cmd for cmd, _ in self.problems})


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def invoke(argv, tracer=None, patches=(), speed=None, pool=False):
    """Run one CLI command in-process; returns (exit code, wall seconds).

    The command's standard output is discarded; its files are the output
    that the checks read. Tracing and the draw capture are in place only
    while the command runs. With a `hostspeed.HostSpeed`, the command is
    also timed against the reference loop, run on the simulation pool's
    CPUs if `pool` is true.
    """
    if speed is not None:
        return speed.measure(pool, lambda: invoke(argv, tracer, patches))
    sink = io.StringIO()
    with contextlib.ExitStack() as stack:
        for obj, name, value in patches:
            stack.enter_context(_patched(obj, name, value))
        if tracer is not None:
            tracer.install()
            stack.callback(tracer.uninstall)
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                cli.main(list(argv), prog_name="heavytail-ph",
                         standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code = exc.exit_code
        except Exception:  # a crash is a failed operation, not a lost run
            traceback.print_exc()
            code = 1
        return code, perf_counter() - t0


@contextlib.contextmanager
def _patched(obj, name, value):
    original = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, original)


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


# -- fit workloads ----------------------------------------------------------

class FitWorkload:
    """One `fit` command per operation."""

    kind = "fit"
    speed = None   # a hostspeed.HostSpeed, set by the runner

    def __init__(self, family: str, target_args, extra_args=()):
        self.family = family
        self.args = ["fit", "--target", family, *target_args, *extra_args]
        self.first_golden = None

    def setup(self) -> None:
        """Nothing to load: the inputs are the command-line arguments."""

    def prepare_checks(self) -> None:
        """The checks need no reference values beyond the report."""

    def run_op(self, index: int, out: Path, seed: int, tracer=None):
        res = OpResult(attempted=1)
        code, res.seconds["fit"] = invoke(
            [*self.args, "--seed", str(seed), "--out", str(out)], tracer,
            speed=self.speed)
        if code != 0:
            res.problems.append(("fit", f"exit code {code}"))
            return res
        try:
            self._check(out, res)
        except (OSError, ValueError, KeyError) as exc:
            res.problems.append(("fit", f"unreadable output: {exc}"))
        return res

    def _check(self, out: Path, res: OpResult) -> None:
        rep = _read_json(out / "report.json")
        tol = FIT_TOLERANCES[self.family]
        errors = {
            "mae": rep["mae"],
            "mean_rel": abs(rep["mean_approx"] - rep["mean_real"])
            / rep["mean_real"],
            "cv_rel": abs(rep["cv_approx"] - rep["cv_real"]) / rep["cv_real"],
        }
        for name, limit in tol.items():
            if not errors[name] <= limit:
                res.problems.append(
                    ("fit", f"{name} {errors[name]:.3e} above {limit:.3e}"))
        model = phmodel.PhaseTypeModel.load(out / "model.json")
        issues = phmodel.validate(model)
        if issues:
            res.problems.append(("fit", "saved model invalid: " + issues[0]))
        res.values["fit_mae"] = rep["mae"]
        res.golden = {"mae": rep["mae"], "mean": rep["mean_approx"],
                      "cv": rep["cv_approx"], "he_points": rep["he_points"],
                      "model_sha256": sha256_file(out / "model.json")}
        # The fit is deterministic: every operation of a run must agree.
        if self.first_golden is None:
            self.first_golden = res.golden
        elif res.golden != self.first_golden:
            res.problems.append(("fit", "output differs from the first "
                                        "operation of this run"))


# -- validate workload ------------------------------------------------------

class DrawCapture:
    """Counts service draws above fixed points, from inside `run_mg1`.

    `wrap` decorates a `service_draw(rng, count)` callable; replications
    call it from pool threads, so the counts are updated under a lock.
    """

    def __init__(self, xs, ccdf_values):
        self.xs = np.asarray(xs, dtype=float)
        self.expected = np.asarray(ccdf_values, dtype=float)
        self.above = np.zeros(self.xs.size, dtype=np.int64)
        self.total = 0
        self._lock = threading.Lock()

    def wrap(self, draw):
        def capture(rng, count):
            s = np.asarray(draw(rng, count), dtype=float)
            above = (s[:, None] > self.xs).sum(axis=0)
            with self._lock:
                self.above += above
                self.total += s.size
            return s
        return capture

    def problems(self, expected_total: int) -> list[str]:
        out = []
        if self.total != expected_total:
            out.append(f"{self.total} service draws, expected "
                       f"{expected_total}")
        for x, p, k in zip(self.xs, self.expected, self.above):
            mean = self.total * p
            sd = math.sqrt(self.total * p * (1.0 - p))
            if abs(k - mean) > DRAW_Z * sd + 1.0:
                out.append(f"{k} draws above {x:.4g}, expected "
                           f"{mean:.1f} +- {DRAW_Z * sd:.1f}")
        return out


class ValidateWorkload:
    """Analytic queue plus two simulations of one stored service model."""

    kind = "validate"
    speed = None   # a hostspeed.HostSpeed, set by the runner

    def __init__(self, model_jobs=MODEL_JOBS, target_jobs=TARGET_JOBS,
                 replications=REPLICATIONS):
        self.model_jobs = model_jobs
        self.target_jobs = target_jobs
        self.replications = replications
        self.model = None

    def setup(self) -> None:
        digest = sha256_file(MODEL_FILE)
        if digest != MODEL_SHA256:
            raise RuntimeError(f"{MODEL_FILE.name}: SHA-256 {digest}, "
                               f"expected {MODEL_SHA256}")
        self.model = phmodel.PhaseTypeModel.load(MODEL_FILE)

    def prepare_checks(self) -> None:
        self.ref_ew = queueing.waiting_time_mean(QUEUE_LAM, self.model)
        # Fixed points: the Pareto(3.1) quantiles the model approximates.
        self.model_xs = [p ** (-1.0 / 3.1) - 1.0 for p in DRAW_LEVELS]
        self.model_ccdf = phmodel.ccdf(self.model, np.array(self.model_xs))
        self.target_xs = [math.exp(1.0 + 2.0 * NormalDist().inv_cdf(1.0 - p))
                          for p in DRAW_LEVELS]
        self.target_ccdf = [targets.ccdf(LOGNORMAL, x) for x in self.target_xs]

    def run_op(self, index: int, out: Path, seed: int, tracer=None):
        res = OpResult(attempted=3)
        # Replication r of a simulation uses seed sim_seed + r.
        sim_seed = seed * 100_000 + index * 100
        self._queue(out / "queue", tracer, res)
        self._simulate_model(out / "sim_model", sim_seed, tracer, res)
        self._simulate_target(out / "sim_target", sim_seed, tracer, res)
        return res

    def _queue(self, out: Path, tracer, res: OpResult) -> None:
        code, res.seconds["queue"] = invoke(
            ["queue", "--model", str(MODEL_FILE), "--lam", str(QUEUE_LAM),
             "--wait-grid", "0:20:100", "--qlen-max", "50",
             "--out", str(out)], tracer, speed=self.speed)
        if code != 0:
            res.problems.append(("queue", f"exit code {code}"))
            return
        try:
            metrics = _read_json(out / "metrics.json")
            p_n0 = float(_read_csv(out / "queue_length.csv")[0][1])
            first_wait = _read_csv(out / "wait_ccdf.csv")[0]
        except (OSError, ValueError, KeyError, IndexError) as exc:
            res.problems.append(("queue", f"unreadable output: {exc}"))
            return
        rho = metrics["rho"]
        if float(first_wait[0]) != 0.0:
            res.problems.append(("queue", "wait grid does not start at 0"))
        checks = [("P(N=0)", p_n0, 1.0 - rho, 1e-9),
                  ("P(W>0)", float(first_wait[1]), rho, 1e-9),
                  ("E_W", metrics["E_W"], self.ref_ew, 1e-8 * self.ref_ew)]
        for name, got, want, tol in checks:
            if not abs(got - want) <= tol:
                res.problems.append(("queue", f"{name} {got!r} differs from "
                                              f"{want!r} by more than {tol}"))
        res.golden.update({"E_W": metrics["E_W"], "E_N": metrics["E_N"],
                           "P_N0": p_n0})

    def _simulate(self, out: Path, source_args, lam, jobs, seed, capture,
                  service_factory: str, tracer):
        factory = getattr(simqueue, service_factory)
        patch = (simqueue, service_factory,
                 lambda source: capture.wrap(factory(source)))
        return invoke(
            ["simulate", *source_args, "--lam", repr(lam),
             "--jobs", str(jobs), "--warmup", str(jobs // 10),
             "--replications", str(self.replications), "--seed", str(seed),
             "--out", str(out)], tracer, patches=[patch], speed=self.speed,
            pool=True)

    def _simulate_model(self, out, seed, tracer, res: OpResult) -> None:
        capture = DrawCapture(self.model_xs, self.model_ccdf)
        code, res.seconds["simulate_model"] = self._simulate(
            out, ["--model", str(MODEL_FILE)], QUEUE_LAM, self.model_jobs,
            seed, capture, "model_service", tracer)
        est = self._sim_check("simulate_model", out, code, capture,
                              self.model_jobs, res)
        if est is None:
            return
        mean, half = est["E_W"]["mean"], est["E_W"]["halfwidth95"]
        if not abs(mean - self.ref_ew) <= HALFWIDTHS * half:
            res.problems.append(
                ("simulate_model", f"E_W {mean:.5f} +- {half:.5f} misses the "
                                   f"analytic {self.ref_ew:.5f} by more than "
                                   f"{HALFWIDTHS:g} half-widths"))
        res.golden.update({f"sim_model_{k}": [est[k]["mean"],
                                              est[k]["halfwidth95"]]
                           for k in ("E_W", "E_N", "rho")})

    def _simulate_target(self, out, seed, tracer, res: OpResult) -> None:
        capture = DrawCapture(self.target_xs, self.target_ccdf)
        code, res.seconds["simulate_target"] = self._simulate(
            out, ["--target", "lognormal", "--mu", "1", "--sigma", "2"],
            LOGNORMAL_LAM, self.target_jobs, seed, capture, "target_service",
            tracer)
        est = self._sim_check("simulate_target", out, code, capture,
                              self.target_jobs, res)
        if est is None:
            return
        mean, half = est["rho"]["mean"], est["rho"]["halfwidth95"]
        if not abs(mean - 0.5) <= HALFWIDTHS * half:
            res.problems.append(
                ("simulate_target", f"rho {mean:.4f} +- {half:.4f} misses 0.5 "
                                    f"by more than {HALFWIDTHS:g} half-widths"))
        res.golden.update({f"sim_target_{k}": [est[k]["mean"],
                                               est[k]["halfwidth95"]]
                           for k in ("rho", "E_W")})

    def _sim_check(self, command, out, code, capture, jobs, res):
        """Common simulate checks; returns the estimates, or None."""
        res.values[f"{command}_jobs"] = jobs * self.replications
        if code != 0:
            res.problems.append((command, f"exit code {code}"))
            return None
        for msg in capture.problems(jobs * self.replications):
            res.problems.append((command, msg))
        try:
            doc = _read_json(out / "sim_metrics.json")
        except (OSError, ValueError) as exc:
            res.problems.append((command, f"unreadable output: {exc}"))
            return None
        if doc["unstable"]:
            res.problems.append((command, "simulated queue reported unstable"))
        return doc["estimates"]


# -- registry -----------------------------------------------------------------

# A fit-pareto operation stops the default fit after this many Adam steps.
# Each step does the same work as in the full fit (167 steps, 11-17 s), so
# the layer mix is unchanged; the shorter operation gives a run about 25
# samples instead of 3. The acceptance tolerances still hold after 20
# steps (MAE 1.5e-6, relative CV error 7.1e-3).
PARETO_MAX_ITERS = 20


def make(name: str, tiny: bool = False):
    """The named workload; `tiny` shrinks it for the smoke test."""
    fit_extra = ["--max-iters", "2"] if tiny else []
    if name == "fit-pareto":
        extra = fit_extra or ["--max-iters", str(PARETO_MAX_ITERS)]
        return FitWorkload("pareto", ["--shape", "3.1"], extra)
    if name == "fit-weibull":
        return FitWorkload("weibull", ["--scale", "5", "--shape", "0.2"],
                           fit_extra)
    if name == "validate":
        if tiny:
            return ValidateWorkload(model_jobs=2_000, target_jobs=500,
                                    replications=2)
        return ValidateWorkload()
    raise ValueError(f"unknown workload {name!r}")
