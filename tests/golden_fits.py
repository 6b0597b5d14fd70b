"""Golden outputs of the twelve default fits, and the tolerance they hold to.

For each acceptance target (Pareto 3.1, Burr(2,1), Lognormal(1,2),
Weibull(5,0.2)) and each method (`bph_he`, `bph`, `he`), the default fit's
report (MAE, mean, CV, HE points) and its saved model: the order, the raw
moments m1-m3 and the CCDF at the target's quantiles 0.5, 1e-1, ..., 1e-6.
m3 always comes from the dense solves of `phmodel.moment`. The CCDF is the
closed form of a model with `phmodel.bernstein_structure` (n, c): a phase j
< n is absorbed after rates c(j+1), ..., cn, so the body is the Bernstein
sum over the cumulated body weights at c*x, and each later phase is one
exponential term. (Uniformization, `phmodel.ccdf`, takes about 6 s on the
Weibull HE model, whose rates span six decades.)

`tests/test_golden_fits.py` refits in process and compares with
tests/data/golden_fits.json. Run with no argument, this script refits and
prints each fit's largest relative move from the file, the number a change
called rounding states; it exits 1 when a move exceeds the tolerance. A
change that moves a fit on purpose regenerates the file and states the
difference and its reason:

    PYTHONPATH=src python tests/golden_fits.py
    PYTHONPATH=src python tests/golden_fits.py --write

For the `bph_he` fits the tolerance is in effect a bit-exactness check on
`fitting.body_scale`, whose last bits the optimizer's path follows. Scaling
it by 1 + 2.9e-16 moved burr/bph_he by 2.0e-7 relative, and by 1 + 1e-14
moved lognormal/bph_he by 1.2e-6, weibull/bph_he by 2.7e-3 and
pareto/bph_he by 1.1e-2; so a change in how a target inverts its CCDF can
move a `bph_he` fit past the tolerance.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from heavytail_ph import fitting, phmodel, targets
from heavytail_ph._backend import bernstein_he_ccdf

GOLDEN_FILE = Path(__file__).resolve().parent / "data" / "golden_fits.json"

TARGETS = {
    "pareto": ("pareto", {"shape": 3.1}),
    "burr": ("burr", {"c": 2.0, "d": 1.0}),
    "lognormal": ("lognormal", {"mu": 1.0, "sigma": 2.0}),
    "weibull": ("weibull", {"scale": 5.0, "shape": 0.2}),
}
METHODS = ("bph_he", "bph", "he")
CCDF_LEVELS = (0.5, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

# Values agree when within REL_TOL relative, or within ABS_TOL for values
# near 0. Past changes called rounding moved a fit by at most 4.5e-11
# relative (reading every fit's target values through the array CCDF).
REL_TOL = 1e-9
ABS_TOL = 1e-18


def golden_fit(name: str, method: str) -> dict:
    """The golden record of one default fit."""
    kind, params = TARGETS[name]
    target = targets.TargetDistribution(kind=kind, params=params)
    outcome = fitting.FIT_METHODS[method](target)
    model, report = outcome.model, outcome.report
    xs = targets.ccdf_inverse(target, np.array(CCDF_LEVELS))
    return {"mae": report.mae, "mean": report.mean_approx,
            "cv": report.cv_approx, "he_points": list(report.he_points),
            "order": model.order,
            "moments": [phmodel.moment(model, k) for k in (1, 2, 3)],
            "ccdf_at_quantiles": structured_ccdf(model, xs).tolist()}


def structured_ccdf(model: phmodel.PhaseTypeModel, xs) -> np.ndarray:
    """CCDF of a model with `bernstein_structure`, in closed form."""
    n, c = phmodel.bernstein_structure(model.A)
    tail_rates = -np.diag(model.A)[n:]
    return bernstein_he_ccdf(np.cumsum(model.alpha[:n]), model.alpha[n:],
                             tail_rates / c, c * np.asarray(xs))


def golden_fits() -> dict:
    """Golden records of all twelve fits, keyed "<target>/<method>"."""
    return {f"{name}/{method}": golden_fit(name, method)
            for name in TARGETS for method in METHODS}


def differences(got: dict, want: dict) -> list[str]:
    """Every value of `got` that misses `want` by more than the tolerance."""
    out = []
    for key, record in want.items():
        for field, expected in record.items():
            actual = got[key][field]
            if isinstance(expected, int):
                if actual != expected:
                    out.append(f"{key} {field}: {actual} != {expected}")
                continue
            a, e = np.atleast_1d(actual), np.atleast_1d(expected)
            if a.shape != e.shape:
                out.append(f"{key} {field}: shape {a.shape} != {e.shape}")
                continue
            for i, (x, y) in enumerate(zip(a.tolist(), e.tolist())):
                if not math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                    out.append(f"{key} {field}[{i}]: {x!r} != {y!r} "
                               f"(off by {abs(x - y):.2e})")
    return out


def largest_moves(got: dict, want: dict) -> dict:
    """Per fit, the largest relative move of a value of `got` from `want`:
    0 where both are 0, inf where only `want` is 0 or the shapes differ."""
    moves = {}
    for key, record in want.items():
        worst = 0.0
        for field, expected in record.items():
            a, e = np.atleast_1d(got[key][field]), np.atleast_1d(expected)
            if a.shape != e.shape:
                worst = math.inf
                continue
            for x, y in zip(a.tolist(), e.tolist()):
                move = abs(x - y) / abs(y) if y else (0.0 if x == y
                                                     else math.inf)
                worst = max(worst, move)
        moves[key] = worst
    return moves


def main(argv) -> int:
    if argv == ["--write"]:
        GOLDEN_FILE.parent.mkdir(exist_ok=True)
        GOLDEN_FILE.write_text(json.dumps(golden_fits(), indent=1) + "\n")
        print(f"wrote {GOLDEN_FILE}")
        return 0
    if argv:
        print(__doc__)
        return 2
    want = json.loads(GOLDEN_FILE.read_text())
    got = golden_fits()
    for key, move in largest_moves(got, want).items():
        print(f"{key:20} {move:.2e}")
    misses = differences(got, want)
    print("\n".join(misses) if misses else
          f"all values within {REL_TOL:g} relative")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
