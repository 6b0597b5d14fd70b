"""Heavy-tailed target distributions and their reference statistics.

A target is what the fitting pipeline tries to approximate: one of a few
analytic families (Burr, Pareto, Lognormal, Weibull) or a tabulated CCDF.
Reference moments are computed by windowed numerical quadrature, because
several of these targets have divergent or extremely tail-sensitive raw
moments; the window, finite by construction, makes "the mean of the
target" a well-defined quantity that fitted models can be compared against.
The quadrature compares 20- and 40-point Gauss-Legendre rules on unit-width
segments of log x, halving those that differ by more than MOMENT_REL_TOL of
the whole integral (see numeric_moment); it reads the CCDF through
ccdf_array, while the scalar ccdf serves the per-draw bisection of
ccdf_inverse.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .constants import MOMENT_ABS_TOL, MOMENT_REL_TOL
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

# Moment quadrature: lowest log x of a window starting at 0, the most
# times a segment is halved, and the most segments pending at once (or the
# starting count, when a long table makes that larger).
_LOG_X_FLOOR = -40.0
_MAX_HALVINGS = 30
_MAX_PENDING = 4096


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
        if not (0 <= x_min < x_max < math.inf):
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
                value = self.params[name]
                if name == "mu":  # Lognormal's log-scale: any real value
                    if not math.isfinite(value):
                        raise ValueError("parameter mu must be finite")
                elif not value > 0:
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
        c, d = p["c"], p["d"]
        x = float(x)  # a numpy float64 power overflows to inf, not raising
        try:
            return (1.0 + x ** c) ** -d
        except OverflowError:  # x ** c beyond the largest float
            return math.exp(-d * c * math.log(x))
    if kind == "weibull":
        return math.exp(-((x / p["scale"]) ** p["shape"]))
    if kind == "lognormal":
        if x == 0.0:
            return 1.0
        z = (math.log(x) - p["mu"]) / p["sigma"]
        return 0.5 * math.erfc(z / math.sqrt(2.0))
    return _tabulated_ccdf(dist, x)


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
        x = float(x)  # as in ccdf
        try:
            return c * d * x ** (c - 1.0) / (1.0 + x ** c) ** (d + 1.0)
        except OverflowError:  # x ** c or its power beyond the largest float
            return c * d * math.exp(-(c * d + 1.0) * math.log(x))
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
        return float(_table_tail(dist, x))
    # Interior: linear interpolation of log(ccdf) in x.
    return float(np.exp(np.interp(x, xs, np.log(cc))))


def _table_tail(dist: TargetDistribution, x):
    """The CCDF past a table's last row, at a float or an array of x: the
    power law through the last two rows."""
    xs, cc = dist.table
    slope = (math.log(cc[-1]) - math.log(cc[-2])) / \
            (math.log(xs[-1]) - math.log(xs[-2]))
    return cc[-1] * (x / xs[-1]) ** slope


def ccdf_array(dist: TargetDistribution, xs) -> np.ndarray:
    """ccdf elementwise on an array of x >= 0, by the same closed forms."""
    x = np.asarray(xs, dtype=float)
    kind, p = dist.kind, dist.params
    if kind == "pareto":
        return (1.0 + x) ** -p["shape"]
    if kind == "burr":
        c, d = p["c"], p["d"]
        with np.errstate(over="ignore"):
            xc = x ** c
        out = (1.0 + xc) ** -d
        big = np.isinf(xc)  # where the scalar's x ** c overflows
        out[big] = np.exp(-d * c * np.log(x[big]))
        return out
    if kind == "weibull":
        return np.exp(-((x / p["scale"]) ** p["shape"]))
    if kind == "lognormal":
        # math.log and math.erfc: the scalar ccdf's rounding, value by value.
        mu, sigma, root2 = p["mu"], p["sigma"], math.sqrt(2.0)
        vals = [0.5 * math.erfc((math.log(v) - mu) / sigma / root2)
                if v else 1.0 for v in x.ravel().tolist()]
        return np.array(vals).reshape(x.shape)
    tx, cc = dist.table
    out = np.exp(np.interp(x, tx, np.log(cc)))  # flat below tx[0]
    out[x == 0.0] = 1.0
    tail = x > tx[-1]
    out[tail] = _table_tail(dist, x[tail])
    return out


def ccdf_inverse(dist: TargetDistribution, u: float) -> float:
    """Solve ccdf(x) = u for x, by bracketing bisection with Newton polish.

    Requires a continuous, strictly decreasing CCDF on the relevant range.
    """
    if not (0.0 < u < 1.0):
        raise ValueError(f"u must be in (0, 1), got {u}")
    lo, hi = 0.0, 1.0
    while ccdf(dist, hi) > u:  # ends by hi = inf, where every ccdf is 0
        lo, hi = hi, hi * 2.0
    if hi == math.inf:
        raise NonConvergenceError(
            f"ccdf stays above u={u} up to the largest float")
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

@cache
def _gauss_legendre():
    """Nodes of the 20- and 40-point Gauss-Legendre rules on [-1, 1], side by
    side, and the weights of each."""
    from numpy.polynomial.legendre import leggauss
    t20, w20 = leggauss(20)
    t40, w40 = leggauss(40)
    rules = np.concatenate([t20, t40]), w20, w40
    for a in rules:
        a.flags.writeable = False
    return rules


def numeric_moment(dist: TargetDistribution, order: int, window=None) -> float:
    """k-th moment over the window, as k * integral of x^(k-1) * ccdf(x).

    The integral is taken in u = log x, as k * integral of x^k * ccdf(x) du,
    on unit-width segments of [log x_min, log x_max]; a tabulated target
    adds the log of each table abscissa as a break, where its interpolant
    has a kink. With x_min = 0 the segments start at u = -40 (or 40 below
    log x_max), and the piece below adds x^k * ccdf(x) at that point, since
    the CCDF is flat there to within e^-40. Every segment is integrated by
    the 20- and 40-point Gauss-Legendre rules, with the CCDF of all pending
    segments' nodes in one array call; a segment is kept at its 40-point
    value when the two differ by at most MOMENT_REL_TOL (1e-14) times the
    whole integral, or by MOMENT_ABS_TOL (1e-300) when that is smaller, and
    halved otherwise. The tolerance is relative to the whole integral, not
    to each segment, so segments where the CCDF underflows converge too, and
    its floor lets an integral that is itself subnormal converge.
    NonConvergenceError is raised when the integral is not finite, after 30
    halvings, or when more segments are pending than 4096 or the starting
    count.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    x_min, x_max = window if window is not None else dist.window
    if not (0 <= x_min < x_max < math.inf):
        raise ValueError(f"invalid window ({x_min}, {x_max})")

    u_hi = math.log(x_max)
    if x_min > 0:
        u_lo, head = math.log(x_min), 0.0
    else:
        u_lo = min(_LOG_X_FLOOR, u_hi + _LOG_X_FLOOR)
        x_lo = math.exp(u_lo)
        head = x_lo ** order * ccdf(dist, x_lo)
    breaks = np.arange(math.floor(u_lo) + 1.0, u_hi)
    if dist.kind == "tabulated":
        xs = dist.table[0]
        breaks = np.concatenate([breaks, np.log(xs[xs > 0])])
    edges = np.unique(np.concatenate([[u_lo, u_hi], breaks]))
    edges = edges[(edges >= u_lo) & (edges <= u_hi)]

    nodes, w20, w40 = _gauss_legendre()
    lo, hi = edges[:-1], edges[1:]
    max_pending = max(_MAX_PENDING, lo.size)
    kept = []
    for _ in range(_MAX_HALVINGS + 1):
        half = 0.5 * (hi - lo)
        x = np.exp((lo + half)[:, None] + half[:, None] * nodes)
        with np.errstate(over="ignore"):
            # x * (x * F), not x^2 * F: x^2 overflows past 1.3e154, which
            # makes NaN where F has underflowed to 0; x * F stays finite.
            f = x * ccdf_array(dist, x)
            if order == 2:
                f *= x
            i20 = half * (f[:, :w20.size] @ w20)
            i40 = half * (f[:, w20.size:] @ w40)
        try:
            total = math.fsum(kept) + math.fsum(i40)
        except OverflowError:
            total = math.inf
        if not (math.isfinite(total) and np.isfinite(i20).all()):
            raise NonConvergenceError(
                f"moment integrand is not finite on [{x_min}, {x_max}]")
        tol = max(MOMENT_REL_TOL * abs(total), MOMENT_ABS_TOL)
        ok = np.abs(i40 - i20) <= tol
        kept.extend(i40[ok].tolist())
        if ok.all():
            return order * math.fsum(kept) + head
        lo, hi = lo[~ok], hi[~ok]
        if 2 * lo.size > max_pending:
            raise NonConvergenceError(
                f"moment quadrature did not converge on [{x_min}, {x_max}]: "
                f"{2 * lo.size} segments pending")
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    raise NonConvergenceError(
        f"moment quadrature did not converge on [{x_min}, {x_max}] after "
        f"{_MAX_HALVINGS} halvings")


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
