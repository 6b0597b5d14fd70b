"""Acceptance gate: one test per acceptance criterion.

Each test exercises the full advertised configuration at its stated
tolerance and runtime budget and emits a single PASS/FAIL line (visible
with `pytest -s` or on failure). Supporting module-level tests live in
the other test files; this file is the go/no-go check.
"""

import csv
import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from heavytail_ph import bph, cli, fitting, hefit, hybrid, phmodel, queueing
from heavytail_ph import simqueue
from heavytail_ph import targets as targets_mod
from heavytail_ph.optimizer import (AdamConfig, EvalGrid, LossEvaluator,
                                    LossWeights, optimize, pow2_points)
from heavytail_ph.phmodel import PhaseTypeModel
from heavytail_ph.simqueue import SimConfig

from conftest import cdf_increments, random_stable_ph


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- 1: analytic M/Pareto/1 metrics ---------------------------------------

def test_criterion_1_pareto_queue_metrics(pareto):
    t0 = time.monotonic()
    m1 = targets_mod.numeric_moment(pareto, 1, (0.0, 1e6))
    m2 = targets_mod.numeric_moment(pareto, 2, (0.0, 1e6))
    got = queueing.pk_metrics(0.5, m1, m2).to_dict()
    expected = {"rho": 0.238095, "E_S": 0.476190, "E_W": 0.284091,
                "E_T": 0.760281, "E_N": 0.380141, "E_Nq": 0.142045}
    elapsed = time.monotonic() - t0
    rel = {k: abs(got[k] - v) / v for k, v in expected.items()}
    worst = max(rel, key=rel.get)
    ok = max(rel.values()) <= 1e-3 and elapsed < 1.0
    report("1", ok,
           f"worst metric {worst} rel err {rel[worst]:.2e} "
           f"(tol 1e-3), {elapsed:.2f}s (budget 1s)")


# -- 2: Pareto hybrid fit quality via the CLI ------------------------------

def test_criterion_2_pareto_cli_fit(tmp_path):
    t0 = time.monotonic()
    result = CliRunner().invoke(cli.main, [
        "fit", "--target", "pareto", "--shape", "3.1",
        "--method", "bph_he", "--k", "4", "--bph-order", "100",
        "--out", str(tmp_path)], catch_exceptions=False)
    elapsed = time.monotonic() - t0
    assert result.exit_code == 0, result.output
    rep = json.loads((tmp_path / "report.json").read_text())
    mean_rel = abs(rep["mean_approx"] - rep["mean_real"]) / rep["mean_real"]
    cv_rel = abs(rep["cv_approx"] - rep["cv_real"]) / rep["cv_real"]
    ok = (rep["mae"] <= 1e-5 and mean_rel <= 0.01 and cv_rel <= 0.02
          and elapsed < 300.0)
    report("2", ok,
           f"MAE={rep['mae']:.2e} (tol 1e-5), mean rel={mean_rel:.2e} "
           f"(tol 1e-2), CV rel={cv_rel:.2e} (tol 2e-2), "
           f"{elapsed:.1f}s (budget 300s)")


# -- 3: hybrid fit breadth across targets ----------------------------------

def test_criterion_3_fit_breadth(burr, lognormal, weibull):
    # Fit configurations (k and, for Burr, the grid span) are free
    # parameters of the pipeline; the tolerances are the stated ceilings.
    cases = [
        ("burr", burr, 8, fitting.default_grid(burr, span=(0.0, 1e6)),
         1.2e-4),
        ("lognormal", lognormal, 6, None, 1.9e-3),
        ("weibull", weibull, 4, None, 1.04e-2),
    ]
    t0 = time.monotonic()
    lines, ok = [], True
    for name, dist, k, grid, mae_tol in cases:
        out = fitting.fit_bph_he(dist, k=k, n=100, grid=grid)
        rep = out.report
        cv_rel = abs(rep.cv_approx - rep.cv_real) / rep.cv_real
        case_ok = rep.mae <= mae_tol and cv_rel <= 0.05
        ok &= case_ok
        lines.append(f"{name}: MAE={rep.mae:.2e} (tol {mae_tol:.2e}), "
                     f"CV rel={cv_rel:.2e} (tol 5e-2)")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 900.0
    report("3", ok, "; ".join(lines) + f"; {elapsed:.1f}s (budget 900s)")


# -- 4: method ordering on Pareto ------------------------------------------

def test_criterion_4_method_ordering(tmp_path):
    result = CliRunner().invoke(cli.main, [
        "compare", "--target", "pareto", "--shape", "3.1",
        "--k", "4", "--bph-order", "100", "--methods", "bph,he,bph_he",
        "--out", str(tmp_path)], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    with open(tmp_path / "compare.csv", newline="") as fh:
        mae = {row["method"]: float(row["mae"])
               for row in csv.DictReader(fh)}
    ok = mae["bph_he"] < mae["bph"] and mae["bph_he"] < mae["he"]
    report("4", ok,
           f"MAE bph_he={mae['bph_he']:.2e} < bph={mae['bph']:.2e} "
           f"and < he={mae['he']:.2e}")


# -- 5: structural invariant suite -----------------------------------------

def test_criterion_5_structural_invariants(pareto):
    t0 = time.monotonic()
    checks = {}

    # BPH weights from the CCDF equal the CDF increments.
    a = cdf_increments(lambda x: 1.0 - targets_mod.ccdf(pareto, x), 100)
    b = bph.build_from_ccdf([targets_mod.ccdf(pareto, x)
                             for x in bph.grid_points(100)])
    checks["bph cdf/ccdf"] = (float(np.max(np.abs(a - b.weights))), 1e-12)

    # HE interpolation exactness at the fit points.
    Fbar = lambda x: targets_mod.ccdf(pareto, x)
    pts = pow2_points(7, *fitting.tail_window(pareto))
    he = hefit.fit_complete(pts, targets_mod.ccdf(pareto, pts))
    he_err = max(abs(hefit.he_ccdf(he, x) - Fbar(x)) / Fbar(x) for x in pts)
    checks["he interpolation"] = (he_err, 1e-10)

    # Hybrid closed-form vs matrix-form CCDF.
    points = [8.67, 13.09, 24.5, 45.3, 94.1, 213.8, 591.2, 1375.1]
    hy = hybrid.build_hybrid(
        points, targets_mod.ccdf(pareto, points),
        targets_mod.ccdf(pareto, bph.grid_points(100)))
    xs = np.linspace(0.0, 50.0, 200)
    checks["hybrid closed/matrix"] = (
        float(np.max(np.abs(hybrid.hybrid_ccdf(hy, xs)
                            - phmodel.ccdf(hy.assembled, xs)))), 1e-10)

    # Assembled initial vector is normalized.
    checks["alpha normalization"] = (
        abs(float(hy.assembled.alpha.sum()) - 1.0), 1e-9)

    # scale_to_mean is exact.
    scaled = phmodel.scale_to_mean(hy.assembled, 2.5)
    checks["scale_to_mean"] = (abs(phmodel.mean(scaled) - 2.5) / 2.5, 1e-12)

    elapsed = time.monotonic() - t0
    ok = all(err <= tol for err, tol in checks.values()) and elapsed < 30.0
    detail = "; ".join(f"{name} err={err:.2e} (tol {tol:.0e})"
                       for name, (err, tol) in checks.items())
    report("5", ok, detail + f"; {elapsed:.1f}s (budget 30s)")


# -- 6: queueing oracle suite ----------------------------------------------

def test_criterion_6_queueing_oracles(pareto):
    t0 = time.monotonic()
    checks = {}

    # M/M/1 closed form.
    lam, mu = 0.5, 2.0
    exp_service = PhaseTypeModel(alpha=[1.0], A=[[-mu]])
    m = queueing.mph1_metrics(lam, exp_service)
    rho = lam / mu
    mm1 = {"rho": rho, "E_S": 1 / mu, "E_W": rho / (mu - lam),
           "E_T": 1 / (mu - lam), "E_N": rho / (1 - rho),
           "E_Nq": rho * rho / (1 - rho)}
    checks["M/M/1"] = (max(abs(getattr(m, k) - v) for k, v in mm1.items()),
                       1e-8)

    # M/D/1 closed form through the moment formula.
    md1 = queueing.pk_metrics(0.8, 1.0, 1.0)
    checks["M/D/1"] = (abs(md1.E_W - 0.8 / (2 * 0.2)), 1e-8)

    # QBD queue length vs the geometric law.
    probs = queueing.queue_length_dist(lam, exp_service, 40)
    geo = (1 - rho) * rho ** np.arange(41)
    checks["QBD geometric"] = (float(np.max(np.abs(probs - geo))), 1e-10)

    # Wait-CCDF mean vs the P-K mean for random stable PH services.
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(5):
        service = random_stable_ph(rng, int(rng.integers(2, 6)))
        lam_i = float(rng.uniform(0.3, 0.9)) / phmodel.mean(service)
        pk = queueing.mph1_metrics(lam_i, service)
        wm = queueing.waiting_time_mean(lam_i, service)
        worst = max(worst, abs(wm - pk.E_W) / pk.E_W)
    checks["wait mean vs P-K"] = (worst, 1e-8)

    # Simulated M/Pareto/1 covers the analytic E_W.
    cfg = SimConfig(lam=0.5, jobs=2_000_000, warmup=100_000, seed=0,
                    replications=10)
    res = simqueue.run_mg1(cfg, simqueue.target_service(pareto))
    est, half = res.estimates["E_W"]
    sim_ok = abs(est - 0.284091) <= 3 * half

    elapsed = time.monotonic() - t0
    ok = (all(err <= tol for err, tol in checks.values()) and sim_ok
          and elapsed < 300.0)
    detail = "; ".join(f"{name} err={err:.2e} (tol {tol:.0e})"
                       for name, (err, tol) in checks.items())
    detail += (f"; sim E_W={est:.6f}+-{half:.6f} covers 0.284091 within "
               f"3 half-widths: {sim_ok}; {elapsed:.1f}s (budget 300s)")
    report("6", ok, detail)


# -- 7: optimizer descent from a poor initialization -----------------------

def test_criterion_7_optimizer_descent(pareto):
    t0 = time.monotonic()
    grid = fitting.default_grid(pareto, m=256)
    # Deliberately poor window: all points bunched at the low end of the
    # tail instead of spanning it.
    init = pow2_points(8, 2.0, 40.0)
    weights = LossWeights()
    adam = AdamConfig(max_iters=300, patience=60)
    pts, trace = optimize(pareto, 100, grid, weights, adam, init)
    final = LossEvaluator(pareto, 100, grid, weights)(pts).total
    initial = trace[0].total
    envelope = np.minimum.accumulate([b.total for b in trace])
    monotone = bool(np.all(np.diff(envelope) <= 0))
    elapsed = time.monotonic() - t0
    ok = final <= 0.5 * initial and monotone and elapsed < 300.0
    report("7", ok,
           f"loss {initial:.3e} -> {final:.3e} "
           f"(ratio {final / initial:.2e}, tol 0.5), best-seen envelope "
           f"monotone: {monotone}, {elapsed:.1f}s (budget 300s)")
