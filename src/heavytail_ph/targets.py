"""Heavy-tailed target distributions and their reference statistics.

A target is what the fitting pipeline tries to approximate: one of a few
analytic families (Burr, Pareto, Lognormal, Weibull) or a tabulated CCDF.
Reference moments are computed by windowed numerical quadrature, because
several of these targets have divergent or extremely tail-sensitive raw
moments; the window makes "the mean of the target" a well-defined quantity
that fitted models can be compared against.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .constants import QUAD_REL_TOL
from .errors import NonConvergenceError

ANALYTIC_KINDS = ("burr", "pareto", "lognormal", "weibull")
KINDS = ANALYTIC_KINDS + ("tabulated",)

# Parameter names each analytic kind requires, in canonical order.
PARAM_NAMES = {
    "burr": ("c", "d"),
    "pareto": ("shape",),
    "lognormal": ("mu", "sigma"),
    "weibull": ("scale", "shape"),
}

DEFAULT_WINDOW = (0.0, 1e6)


@dataclass(frozen=True)
class TargetDistribution:
    """Immutable target distribution with a fitting/reference window."""

    kind: str
    params: dict = field(default_factory=dict)
    window: tuple = DEFAULT_WINDOW
    table: tuple | None = None  # (x ascending, ccdf in (0,1] nonincreasing)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown target kind {self.kind!r}")
        x_min, x_max = self.window
        if not (0 <= x_min < x_max):
            raise ValueError(f"invalid window {self.window}")
        if self.kind == "tabulated":
            if self.table is None:
                raise ValueError("tabulated target requires a table")
            xs = np.asarray(self.table[0], dtype=float)
            cc = np.asarray(self.table[1], dtype=float)
            if xs.ndim != 1 or xs.shape != cc.shape or xs.size < 2:
                raise ValueError("table must hold two equal-length columns")
            if np.any(np.diff(xs) <= 0):
                raise ValueError("table abscissae must be strictly increasing")
            if np.any(cc <= 0) or np.any(cc > 1):
                raise ValueError("table CCDF values must lie in (0, 1]")
            if np.any(np.diff(cc) > 0):
                raise ValueError("table CCDF values must be nonincreasing")
            # The power-law continuation beyond the table must fall to 0.
            if cc[-1] == cc[-2] or xs[-2] <= 0:
                raise ValueError(
                    "table must end falling: the last two CCDF values must "
                    "differ and the next-to-last x must be positive")
            object.__setattr__(self, "table", (xs, cc))
        else:
            if self.kind != "tabulated" and self.table is not None:
                raise ValueError("only tabulated targets carry a table")
            missing = [p for p in PARAM_NAMES[self.kind] if p not in self.params]
            if missing:
                raise ValueError(f"{self.kind} target missing params {missing}")
            for name in PARAM_NAMES[self.kind]:
                if not self.params[name] > 0:
                    raise ValueError(f"parameter {name} must be positive")

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        doc = {"kind": self.kind, "params": dict(self.params),
               "window": list(self.window)}
        if self.table is not None:
            doc["table"] = {"x": self.table[0].tolist(),
                            "ccdf": self.table[1].tolist()}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "TargetDistribution":
        table = None
        if "table" in doc:
            table = (doc["table"]["x"], doc["table"]["ccdf"])
        return cls(kind=doc["kind"], params=dict(doc.get("params", {})),
                   window=tuple(doc.get("window", DEFAULT_WINDOW)), table=table)

    @classmethod
    def from_json(cls, path) -> "TargetDistribution":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def from_csv(cls, path, window=DEFAULT_WINDOW) -> "TargetDistribution":
        """Load a tabulated target from a two-column (x, ccdf) CSV with header."""
        xs, cc = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader, None)  # header
            for row in reader:
                if not row:
                    continue
                xs.append(float(row[0]))
                cc.append(float(row[1]))
        return cls(kind="tabulated", window=tuple(window), table=(xs, cc))


# -- pointwise evaluation -------------------------------------------------

def ccdf(dist: TargetDistribution, x: float) -> float:
    """Complementary CDF of the target at x >= 0."""
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    kind, p = dist.kind, dist.params
    if kind == "pareto":
        return (1.0 + x) ** -p["shape"]
    if kind == "burr":
        return (1.0 + x ** p["c"]) ** -p["d"]
    if kind == "weibull":
        return math.exp(-((x / p["scale"]) ** p["shape"]))
    if kind == "lognormal":
        if x == 0.0:
            return 1.0
        z = (math.log(x) - p["mu"]) / p["sigma"]
        return 0.5 * math.erfc(z / math.sqrt(2.0))
    return _tabulated_ccdf(dist, x)


def cdf(dist: TargetDistribution, x: float) -> float:
    return 1.0 - ccdf(dist, x)


def pdf(dist: TargetDistribution, x: float) -> float:
    """Density of the target at x >= 0 (tabulated: central difference)."""
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    kind, p = dist.kind, dist.params
    if kind == "pareto":
        a = p["shape"]
        return a * (1.0 + x) ** -(a + 1.0)
    if kind == "burr":
        c, d = p["c"], p["d"]
        if x == 0.0:
            return math.inf if c < 1 else (float(d) if c == 1 else 0.0)
        return c * d * x ** (c - 1.0) / (1.0 + x ** c) ** (d + 1.0)
    if kind == "weibull":
        scale, shape = p["scale"], p["shape"]
        if x == 0.0:
            return math.inf if shape < 1 else (1.0 / scale if shape == 1 else 0.0)
        t = (x / scale) ** shape
        return shape / x * t * math.exp(-t)
    if kind == "lognormal":
        if x == 0.0:
            return 0.0
        z = (math.log(x) - p["mu"]) / p["sigma"]
        return math.exp(-0.5 * z * z) / (x * p["sigma"] * math.sqrt(2.0 * math.pi))
    # Tabulated: differentiate the interpolated CDF.
    h = max(1e-6 * x, 1e-9)
    lo = max(x - h, 0.0)
    return max((ccdf(dist, lo) - ccdf(dist, x + h)) / (x + h - lo), 0.0)


def _tabulated_ccdf(dist: TargetDistribution, x: float) -> float:
    xs, cc = dist.table
    if x < xs[0]:
        # Flat before the first point; exactly 1 at the origin.
        return 1.0 if x == 0.0 else float(cc[0])
    if x > xs[-1]:
        # Power-law continuation from the slope of the last two points.
        slope = (math.log(cc[-1]) - math.log(cc[-2])) / \
                (math.log(xs[-1]) - math.log(xs[-2]))
        return float(cc[-1] * (x / xs[-1]) ** slope)
    # Interior: linear interpolation of log(ccdf) in x.
    return float(np.exp(np.interp(x, xs, np.log(cc))))


def ccdf_inverse(dist: TargetDistribution, u: float) -> float:
    """Solve ccdf(x) = u for x, by bracketing bisection with Newton polish.

    Requires a continuous, strictly decreasing CCDF on the relevant range.
    """
    if not (0.0 < u < 1.0):
        raise ValueError(f"u must be in (0, 1), got {u}")
    lo, hi = 0.0, 1.0
    for _ in range(2200):
        if ccdf(dist, hi) <= u:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise NonConvergenceError(f"failed to bracket ccdf inverse at u={u}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ccdf(dist, mid) > u:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(hi, 1.0):
            break
    x = 0.5 * (lo + hi)
    # Newton polish where the density is informative.
    for _ in range(8):
        fx = ccdf(dist, x) - u
        dfx = -pdf(dist, x)
        if dfx == 0.0 or not math.isfinite(dfx):
            break
        step = fx / dfx
        x_new = x - step
        if not (lo <= x_new <= hi):
            break
        x = x_new
        if abs(step) <= 1e-12 * max(x, 1e-300):
            break
    return x


# -- reference statistics -------------------------------------------------

def numeric_moment(dist: TargetDistribution, order: int, window=None) -> float:
    """k-th moment over the window, as k * integral of x^(k-1) * ccdf(x).

    Adaptive quadrature with relative tolerance 1e-9, split into geometric
    segments so that wide windows (up to 1e6 and beyond) are resolved.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    x_min, x_max = window if window is not None else dist.window
    if not (0 <= x_min < x_max):
        raise ValueError(f"invalid window ({x_min}, {x_max})")

    breaks = [x_min]
    b = max(x_min, 1.0)
    while b < x_max:
        breaks.append(b)
        b *= 4.0
    breaks.append(x_max)
    breaks = sorted(set(breaks))

    integrand = (lambda x: ccdf(dist, x)) if order == 1 \
        else (lambda x: x * ccdf(dist, x))
    pieces = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        for a, b in zip(breaks[:-1], breaks[1:]):
            try:
                val, _ = integrate.quad(integrand, a, b,
                                        epsrel=QUAD_REL_TOL, epsabs=1e-300,
                                        limit=200)
            except integrate.IntegrationWarning as exc:
                raise NonConvergenceError(
                    f"quadrature failed on [{a}, {b}]: {exc}") from exc
            pieces.append(val)
    return order * math.fsum(pieces)


def numeric_stats(dist: TargetDistribution, window=None):
    """(mean, second moment, CV) of the target over the window."""
    m1 = numeric_moment(dist, 1, window)
    m2 = numeric_moment(dist, 2, window)
    var = m2 - m1 * m1
    if var < 0:
        if var < -1e-9 * m2:
            raise NonConvergenceError(f"negative variance {var} from quadrature")
        var = 0.0
    return m1, m2, math.sqrt(var) / m1
