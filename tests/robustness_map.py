"""The robustness map: the default `fit_bph_he` on 28 parameter sets.

Each row is one default hybrid fit, in process: its outcome (`fit`, or the
name of the error that ended it), the error's message, the grid MAE, the
relative CV error |cv_approx - cv_real| / cv_real, the Adam steps taken,
how many of them took central differences (an unbuildable candidate) and
the wall time. Shapes <= 2 of Pareto, and Burr with c*d <= 2, have an
infinite variance: their CV is that of the window-truncated target and
means little. `tests/test_robustness_map.py` pins four of the rows.

    PYTHONPATH=src python tests/robustness_map.py
"""

from __future__ import annotations

import contextlib
import sys
import time
import warnings

from heavytail_ph import fitting, optimizer
from heavytail_ph.targets import TargetDistribution

SETS = [
    *(("pareto", {"shape": a})
      for a in (0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 3.1, 5.0, 12.0)),
    *(("burr", {"c": c, "d": d})
      for c, d in ((2.0, 1.0), (2.0, 0.3), (0.5, 1.0), (1.0, 0.5),
                   (3.0, 2.0))),
    *(("lognormal", {"mu": mu, "sigma": s})
      for mu, s in ((1.0, 1.5), (1.0, 2.0), (1.0, 2.5), (1.0, 3.0),
                    (0.0, 1.2), (1.0, 0.5), (1.0, 1.0))),
    *(("weibull", {"scale": c, "shape": k})
      for c, k in ((5.0, 0.2), (1.0, 0.3), (1.0, 0.5), (1.0, 0.15),
                   (1.0, 0.7), (1.0, 0.9))),
]


def label(kind: str, params: dict) -> str:
    return f"{kind}({', '.join(f'{v:g}' for v in params.values())})"


@contextlib.contextmanager
def _counted(record: dict):
    """Count Adam and central-difference steps, and keep the points the
    optimizer returns (in target time), while fits run."""
    optimize, central = fitting.optimize, optimizer._central_differences

    def counted_optimize(*args, scale=1.0, **kwargs):
        points, trace = optimize(*args, scale=scale, **kwargs)
        record["adam_steps"] = len(trace) - 1
        record["points"] = [float(scale * x) for x in points]
        return points, trace

    def counted_central(*args):
        record["cd_steps"] += 1
        return central(*args)

    fitting.optimize = counted_optimize
    optimizer._central_differences = counted_central
    try:
        yield
    finally:
        fitting.optimize = optimize
        optimizer._central_differences = central


def map_row(kind: str, params: dict) -> dict:
    """The map's row of the default hybrid fit of one target."""
    target = TargetDistribution(kind=kind, params=params)
    row = {"outcome": "fit", "message": "", "mae": None, "cv_err": None,
           "adam_steps": 0, "cd_steps": 0, "points": []}
    t0 = time.perf_counter()
    with _counted(row), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "residual CCDF clamped")
        try:
            rep = fitting.fit_bph_he(target).report
        except ValueError as exc:
            row["outcome"], row["message"] = type(exc).__name__, str(exc)
        else:
            row["mae"] = rep.mae
            row["cv_err"] = abs(rep.cv_approx - rep.cv_real) / rep.cv_real
    row["seconds"] = time.perf_counter() - t0
    return row


def main() -> int:
    print(f"{'target':22} {'outcome':18} {'MAE':>9} {'CV err':>9} "
          f"{'steps':>5} {'cd':>4} {'s':>6}  message")
    fits = 0
    for kind, params in SETS:
        r = map_row(kind, params)
        fits += r["outcome"] == "fit"
        mae = "" if r["mae"] is None else f"{r['mae']:.2e}"
        cv = "" if r["cv_err"] is None else f"{r['cv_err']:.2e}"
        print(f"{label(kind, params):22} {r['outcome']:18} {mae:>9} {cv:>9} "
              f"{r['adam_steps']:>5} {r['cd_steps']:>4} "
              f"{r['seconds']:>6.2f}  {r['message']}")
    print(f"{fits} of {len(SETS)} fit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
