"""Command-line interface: fit, eval, compare, queue, simulate.

Every command writes its outputs into --out (default: current directory)
together with a manifest recording every option, the resolved target, tool
version, seed, file digests, and wall-clock duration, sufficient to
reproduce the run.
"""

import csv
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import astuple
from pathlib import Path

import click
import numpy as np

from . import __version__, bph, fitting, phmodel, queueing, simqueue
from . import targets as targets_mod
from .errors import (ConfigError, InvalidModelError, NonConvergenceError,
                     UnstableQueueError)
from .optimizer import AdamConfig, LossWeights, pow2_points

EXIT_CONFIG = 2
EXIT_FIT_FAILURE = 3
EXIT_NON_CONVERGENCE = 4

# The exit code of each error that ends a command (click.BadParameter too).
_EXIT_CODES = {click.UsageError: EXIT_CONFIG, UnstableQueueError: EXIT_CONFIG,
               ConfigError: EXIT_CONFIG, InvalidModelError: EXIT_FIT_FAILURE,
               NonConvergenceError: EXIT_NON_CONVERGENCE}
_PREFIXES = {EXIT_FIT_FAILURE: "fit failed: ",
             EXIT_NON_CONVERGENCE: "numerical non-convergence: "}


# -- shared helpers -------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """The running command's outputs; writes the manifest on completion.

    The manifest's config holds every option of the command by parameter
    name, in declaration order, then the values in resolved (such as the
    resolved target); --out is the output directory and --seed has its own
    key. inputs holds the digest of each file that a path option names.
    """

    def __init__(self, **resolved):
        ctx = click.get_current_context()
        config = {p.name: ctx.params[p.name] for p in ctx.command.params}
        self.subcommand = ctx.command.name
        self.out = Path(config.pop("out"))
        self.out.mkdir(parents=True, exist_ok=True)
        self.seed = config.pop("seed", None)
        self.config = {**config, **resolved}
        self.inputs = {path: _sha256(Path(path))
                       for p in ctx.command.params
                       if isinstance(p.type, click.Path)
                       and (path := ctx.params[p.name])}
        self.outputs: dict[str, str] = {}
        self.started = time.monotonic()

    def write_json(self, name: str, doc) -> Path:
        path = self.out / name
        with open(path, "w") as fh:
            json.dump(_finite(doc), fh, indent=2, allow_nan=False)
            fh.write("\n")
        self.outputs[str(path)] = _sha256(path)
        return path

    def write_csv(self, name: str, header, rows) -> Path:
        path = self.out / name
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        self.outputs[str(path)] = _sha256(path)
        return path

    def finish(self) -> None:
        manifest = {
            "format": 2,
            "subcommand": self.subcommand,
            "config": self.config,
            "version": __version__,
            "seed": self.seed,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "duration_s": round(time.monotonic() - self.started, 6),
        }
        with open(self.out / "manifest.json", "w") as fh:
            json.dump(_finite(manifest), fh, indent=2, allow_nan=False)
            fh.write("\n")


def _finite(doc):
    """doc with each NaN or infinity as None, which JSON writes as null."""
    return json.loads(json.dumps(doc), parse_constant=lambda _: None)


def _load_model(path) -> phmodel.PhaseTypeModel:
    """The model at path; one that cannot be read, fails phmodel.validate,
    is defective (alpha sums below 1) or has a phase that alpha reaches
    but that never reaches absorption is a configuration error."""
    try:
        model = phmodel.PhaseTypeModel.load(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"unreadable model: {exc}")
    issues = phmodel.validate(model)
    if not model.is_proper:
        issues.append(f"alpha sums to {float(model.alpha.sum()):.12g}, not 1")
    if not issues and (trapped := _trapped(model)):
        issues.append(f"phases {trapped} never reach absorption")
    if issues:
        raise click.UsageError("invalid model: " + "; ".join(issues))
    return model


def _trapped(model) -> list[int]:
    """The phases that alpha reaches and from which no jumps lead to a
    phase with an exit, so that a chain there is never absorbed."""
    moves = model.A > 0  # the jumps between the phases of a valid model
    reach = np.array([model.alpha > 0, model.exit_rates > 0])
    for _ in range(model.order):  # a path visits each phase at most once
        grown = reach | [reach[0] @ moves, moves @ reach[1]]
        if np.array_equal(grown, reach):
            break
        reach = grown
    return np.flatnonzero(reach[0] & ~reach[1]).tolist()


def _parse_window(text):
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 2 or not np.isfinite(parts).all():
        raise click.BadParameter("window must be 'x_min,x_max', both finite")
    return tuple(parts)


def _parse_range(text):
    """(x0, x1, steps) of 'x0:x1:steps', with x0, x1 finite and >= 0."""
    try:
        x0, x1, steps = text.split(":")
        x0, x1, steps = float(x0), float(x1), int(steps)
    except ValueError:
        steps = 0
    if not (steps >= 1 and 0 <= x0 < math.inf and 0 <= x1 < math.inf):
        raise click.BadParameter(f"range {text!r} must be 'x0:x1:steps' "
                                 "with finite x0, x1 >= 0 and steps >= 1")
    return x0, x1, steps


_POSITIVE = click.FloatRange(0, min_open=True)


def _finite_option(ctx, param, value):
    """Option callback: click's float ranges let NaN and inf through."""
    if value is not None and not math.isfinite(value):
        raise click.BadParameter(f"{value} is not finite")
    return value


_TARGET_OPTIONS = [
    click.option("--target", "target_kind",
                 type=click.Choice(list(targets_mod.ANALYTIC_KINDS)),
                 help="Analytic target family."),
    click.option("--target-json", type=click.Path(exists=True, dir_okay=False),
                 help="Target specification as a JSON document."),
    click.option("--target-csv", type=click.Path(exists=True, dir_okay=False),
                 help="Tabulated target from a two-column (x, ccdf) CSV."),
    click.option("--shape", type=float, help="Pareto/Weibull shape."),
    click.option("--c", type=float, help="Burr parameter c."),
    click.option("--d", type=float, help="Burr parameter d."),
    click.option("--mu", type=float, help="Lognormal mu."),
    click.option("--sigma", type=float, help="Lognormal sigma."),
    click.option("--scale", type=float, help="Weibull scale."),
    click.option("--window", default=None,
                 help="Reference window 'x_min,x_max' (default 0,1e6)."),
]


def _resolve_target(target_kind, target_json, target_csv, window, **values):
    """The target of the target options; a bad target is a usage error."""
    window_t = _parse_window(window) if window else targets_mod.DEFAULT_WINDOW
    given = [bool(target_kind), bool(target_json), bool(target_csv)]
    if sum(given) != 1:
        raise click.UsageError(
            "specify exactly one of --target, --target-json, --target-csv")
    names = targets_mod.PARAM_NAMES.get(target_kind, ())
    params = {k: values[k] for k in names}
    missing = [k for k, v in params.items() if v is None]
    if missing:
        raise click.UsageError(
            f"--target {target_kind} requires --" + ", --".join(missing))
    try:
        if target_json:
            return targets_mod.TargetDistribution.from_json(target_json)
        if target_csv:
            return targets_mod.TargetDistribution.from_csv(target_csv,
                                                           window=window_t)
        return targets_mod.TargetDistribution(kind=target_kind, params=params,
                                              window=window_t)
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise click.UsageError(f"invalid target: {exc}")


_FIT_OPTIONS = [
    click.option("--k", type=int, default=fitting.DEFAULT_K, show_default=True,
                 help="Number of exponential tail terms."),
    click.option("--bph-order", "n", type=click.IntRange(1),
                 default=bph.DEFAULT_ORDER, show_default=True,
                 help="Order of the Bernstein-PH body."),
    click.option("--grid-size", type=int, default=fitting.DEFAULT_GRID_SIZE,
                 show_default=True, help="Evaluation-grid size."),
    click.option("--grid-window", default=None,
                 help="Evaluation-grid span 'x0,x1' (default derived)."),
    click.option("--tail-window", default=None,
                 help="HE fit-point span 'x0,x1' (default derived)."),
    click.option("--weights", show_default=True,
                 default=",".join(map(str, astuple(LossWeights()))),
                 help="Loss weights 'w_mae,w_lambda,w_p'."),
    click.option("--lr", type=_POSITIVE, show_default=True,
                 default=AdamConfig().learning_rate,
                 callback=_finite_option),
    click.option("--max-iters", type=int, default=AdamConfig().max_iters,
                 show_default=True,
                 help="Adam steps; 0 scores the start points only."),
    click.option("--no-adjust-mean", "adjust_mean", is_flag=True,
                 flag_value=False, default=True,
                 help="Skip the final rescale to the window-numeric mean."),
]


def _options(opts):
    """A decorator that applies the click options opts, first on top."""
    return lambda fn: functools.reduce(lambda f, o: o(f), reversed(opts), fn)


target_options = _options(_TARGET_OPTIONS)
fit_options = _options(_FIT_OPTIONS)


def _fitter(target, methods, k, n, grid_size, grid_window, tail_window,
            weights, lr, max_iters, adjust_mean):
    """fit(method), which fits target by one of methods with the fit
    options; each bad option value is a usage error here, up front."""
    # The hybrid's tail needs 2k >= 2 fit points; the complete HE fit
    # spreads 2k-1 points over the tail window, which needs two of them.
    if ("bph_he" in methods and k < 1) or ("he" in methods and k < 2):
        raise click.UsageError(f"--k {k} is too small: bph_he needs k >= 1, "
                               "he needs k >= 2")
    span = _parse_window(grid_window) if grid_window else None
    try:
        w = [float(v) for v in weights.split(",")]
        if len(w) != 3 or not np.isfinite(w).all():
            raise ValueError("--weights needs three finite numbers 'a,b,c'")
        loss_weights = LossWeights(*w)
        adam = AdamConfig(learning_rate=lr, max_iters=max_iters)
        grid = fitting.default_grid(target, m=grid_size, span=span)
    except ValueError as exc:
        raise click.UsageError(f"invalid fit settings: {exc}")
    # None defers fit-point placement to the library defaults.
    tail = _parse_window(tail_window) if tail_window else None
    if tail and not 0.0 < tail[0] < tail[1]:
        raise click.UsageError("--tail-window needs 0 < x0 < x1")

    def fit(method):
        if method == "bph":
            return fitting.fit_bph(target, n=n, grid=grid,
                                   adjust_mean=adjust_mean)
        if method == "he":
            points = pow2_points(2 * k - 1, *tail) if tail else None
            return fitting.fit_he(target, k=k, grid=grid, points=points,
                                  adjust_mean=adjust_mean)
        init = pow2_points(2 * k, *tail) if tail else None
        return fitting.fit_bph_he(target, k=k, n=n, grid=grid,
                                  weights=loss_weights, adam=adam,
                                  init_points=init, adjust_mean=adjust_mean)
    return fit


# -- commands -------------------------------------------------------------

class _Main(click.Group):
    """The command group: an error listed in _EXIT_CODES ends a command
    with one line on stderr and that error's exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(_EXIT_CODES) as exc:
            code = next(c for cls, c in _EXIT_CODES.items()
                        if isinstance(exc, cls))
            text = (exc.format_message() if isinstance(exc, click.UsageError)
                    else str(exc))
            click.echo(_PREFIXES.get(code, "") + text, err=True)
            sys.exit(code)


@click.group(cls=_Main)
@click.version_option(__version__)
def main():
    """Fit heavy-tailed distributions with phase-type models and validate
    them analytically and by simulation in an M/PH/1 queue."""


@main.command("fit")
@target_options
@click.option("--method", type=click.Choice(list(fitting.FIT_METHODS)),
              default="bph_he", show_default=True)
@fit_options
@click.option("--seed", type=int, default=0, show_default=True,
              help="Recorded in the manifest; no fit is random.")
@click.option("--trace-csv", is_flag=True,
              help="Also dump the optimizer loss trace as CSV.")
@click.option("--out", default=".", show_default=True,
              help="Output directory.")
def cmd_fit(method, k, n, grid_size, grid_window, tail_window, weights, lr,
            max_iters, adjust_mean, seed, trace_csv, out, **target_args):
    """Fit a model and write model.json plus a fit report."""
    target = _resolve_target(**target_args)
    fit = _fitter(target, [method], k, n, grid_size, grid_window,
                  tail_window, weights, lr, max_iters, adjust_mean)
    run = Run(target=target.to_dict())
    outcome = fit(method)
    outcome.model.save(run.out / "model.json")
    run.outputs[str(run.out / "model.json")] = _sha256(run.out / "model.json")
    run.write_json("report.json", outcome.report.to_dict())
    if trace_csv and outcome.trace:
        run.write_csv("loss_trace.csv",
                      ["iteration", "total", "mae", "pen_lambda", "pen_p"],
                      [(i, b.total, b.mae, b.pen_lambda, b.pen_p)
                       for i, b in enumerate(outcome.trace)])
    run.finish()
    click.echo(json.dumps(outcome.report.to_dict(), indent=2))


@main.command("eval")
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--grid", "grid_spec", default="0:10:200", show_default=True,
              help="Evaluation grid 'x0:x1:steps'.")
@click.option("--log-grid", is_flag=True, help="Log-spaced grid.")
@click.option("--out", default=".", show_default=True)
def cmd_eval(model_path, grid_spec, log_grid, out):
    """Tabulate (x, ccdf, cdf, pdf) for a saved model (and its target)."""
    model = _load_model(model_path)
    x0, x1, steps = _parse_range(grid_spec)
    if log_grid and x0 <= 0:
        raise click.UsageError("log grid requires x0 > 0")
    xs = (np.geomspace if log_grid else np.linspace)(x0, x1, steps)

    doc = model.meta.get("source_target")
    try:
        target = (None if doc is None
                  else targets_mod.TargetDistribution.from_dict(doc))
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise click.UsageError(f"invalid source_target: {exc}")

    run = Run()
    m_ccdf, m_pdf = phmodel.ccdf_pdf(model, xs)
    header = ["x", "ccdf", "cdf", "pdf"]
    cols = [xs, m_ccdf, 1.0 - m_ccdf, m_pdf]
    if target is not None:
        header += ["target_ccdf", "target_cdf", "target_pdf"]
        t_ccdf = targets_mod.ccdf(target, xs)
        t_pdf = targets_mod.pdf(target, xs)
        cols += [t_ccdf, 1.0 - t_ccdf, t_pdf]
    rows = [[f"{v:.12g}" for v in row] for row in zip(*cols)]
    run.write_csv("eval.csv", header, rows)
    run.finish()
    click.echo(str(run.out / "eval.csv"))


@main.command("compare")
@target_options
@fit_options
@click.option("--methods", default="bph,he,bph_he", show_default=True)
@click.option("--out", default=".", show_default=True)
def cmd_compare(k, n, grid_size, grid_window, tail_window, weights, lr,
                max_iters, adjust_mean, methods, out, **target_args):
    """Fit several methods on one target and tabulate their statistics."""
    target = _resolve_target(**target_args)
    method_list = [m.strip() for m in methods.split(",") if m.strip()]
    if not method_list or not set(method_list) <= set(fitting.FIT_METHODS):
        raise click.UsageError("--methods must name one or more of "
                               + ", ".join(fitting.FIT_METHODS))
    fit = _fitter(target, method_list, k, n, grid_size, grid_window,
                  tail_window, weights, lr, max_iters, adjust_mean)

    run = Run(target=target.to_dict())
    rows = []
    header = ["method", "mae", "mean_real", "mean_approx", "cv_real",
              "cv_approx"]
    for name in method_list:
        try:
            rep = fit(name).report
            rows.append([name, f"{rep.mae:.6e}", f"{rep.mean_real:.6f}",
                         f"{rep.mean_approx:.6f}", f"{rep.cv_real:.6f}",
                         f"{rep.cv_approx:.6f}"])
        except (InvalidModelError, NonConvergenceError, ValueError) as exc:
            rows.append([name, "FAILED", str(exc), "", "", ""])
    run.write_csv("compare.csv", header, rows)
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    for row in [header] + rows:
        click.echo("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    run.finish()


@main.command("queue")
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--lam", "--lambda", "lam", type=_POSITIVE, default=0.5,
              show_default=True, callback=_finite_option,
              help="Poisson arrival rate.")
@click.option("--adjust-mean", type=_POSITIVE, default=None,
              callback=_finite_option,
              help="Rescale the service model to this mean first.")
@click.option("--wait-grid", default=None, help="Waiting-time grid 'x0:x1:steps'.")
@click.option("--qlen-max", type=click.IntRange(0), default=None,
              help="Tabulate P(N=n) up to this n.")
@click.option("--out", default=".", show_default=True)
def cmd_queue(model_path, lam, adjust_mean, wait_grid, qlen_max, out):
    """Analytic M/PH/1 metrics (and optional distribution curves)."""
    model = _load_model(model_path)
    xs = np.linspace(*_parse_range(wait_grid)) if wait_grid else None
    run = Run()
    if adjust_mean is not None:
        model = phmodel.scale_to_mean(model, adjust_mean)
    metrics = queueing.mph1_metrics(lam, model)
    run.write_json("metrics.json", metrics.to_dict())
    if xs is not None:
        vals = queueing.waiting_time_ccdf(lam, model, xs)
        run.write_csv("wait_ccdf.csv", ["x", "ccdf"],
                      [(f"{x:.12g}", f"{v:.12g}") for x, v in zip(xs, vals)])
    if qlen_max is not None:
        probs = queueing.queue_length_dist(lam, model, qlen_max)
        run.write_csv("queue_length.csv", ["n", "probability"],
                      [(i, f"{p:.12g}") for i, p in enumerate(probs)])
    run.finish()
    click.echo(json.dumps(metrics.to_dict(), indent=2))


@main.command("simulate")
@target_options
@click.option("--model", "model_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Simulate a saved PH model instead of a target.")
@click.option("--lam", "--lambda", "lam", type=_POSITIVE, default=0.5,
              show_default=True, callback=_finite_option)
@click.option("--jobs", type=int, default=2_000_000, show_default=True)
@click.option("--warmup", type=int, default=100_000, show_default=True)
@click.option("--replications", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--wait-grid", default=None, help="'x0:x1:steps'.")
@click.option("--qlen-max", type=click.IntRange(0), default=50,
              show_default=True)
@click.option("--curves", is_flag=True, help="Also write empirical curves.")
@click.option("--out", default=".", show_default=True)
def cmd_simulate(model_path, lam, jobs, warmup, replications, seed, wait_grid,
                 qlen_max, curves, out, **target_args):
    """Simulate the M/G/1 queue as an independent oracle."""
    grid = tuple(np.linspace(*_parse_range(wait_grid))) if wait_grid else ()
    try:
        config = simqueue.SimConfig(lam=lam, jobs=jobs, warmup=warmup,
                                    seed=seed, replications=replications,
                                    wait_grid=grid, qlen_max=qlen_max)
    except ValueError as exc:
        raise click.UsageError(f"invalid simulation settings: {exc}")
    target = None
    if model_path:
        if any(v is not None for v in target_args.values()):
            raise click.UsageError("--model takes no target option")
        service = simqueue.model_service(_load_model(model_path))
    else:
        target = _resolve_target(**target_args)
        service = simqueue.target_service(target)
    run = Run(target=target and target.to_dict())
    result = simqueue.run_mg1(config, service)
    doc = result.to_dict()
    run.write_json("sim_metrics.json", doc)
    if curves:
        run.write_csv("sim_wait_ccdf.csv", ["x", "ccdf"],
                      [(f"{x:.12g}", f"{v:.12g}")
                       for x, v in zip(result.wait_grid, result.wait_ccdf)])
        run.write_csv("sim_queue_length.csv", ["n", "probability"],
                      [(i, f"{p:.12g}") for i, p in enumerate(result.qlen_pmf)])
    run.finish()
    click.echo(json.dumps(doc["estimates"], indent=2))


if __name__ == "__main__":
    main()
