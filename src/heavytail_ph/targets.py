"""Heavy-tailed target distributions and their reference statistics.

A target is what the fitting pipeline tries to approximate: one of a few
analytic families (Burr, Pareto, Lognormal, Weibull) or a tabulated CCDF.
Reference moments are computed by windowed numerical quadrature, because
several of these targets have divergent or extremely tail-sensitive raw
moments; the window, finite by construction, makes "the mean of the
target" a well-defined quantity that fitted models can be compared against.
The quadrature compares 20- and 40-point Gauss-Legendre rules on unit-width
segments of log x, halving those that differ by more than MOMENT_REL_TOL of
the whole integral (see numeric_moment).

ccdf, pdf and ccdf_inverse take a float, returning a float, or an array,
returning an array. Every kind evaluates through numpy, the Lognormal
CCDF with the C library's erfc value by value. A table's CCDF is
log-linear in x between its rows and a power law past the last, so its
density and inverse are closed forms too. Pareto, Weibull, Burr and
tabulated targets invert in closed form. The Lognormal starts at one,
exp(mu - sigma Phi^-1(u)), which Newton steps kept inside a bracket
confirm over the whole array of draws at once, in one step for nearly
every draw.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from ._backend import as_grid
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

# Reference moments: largest gap between the 20- and 40-point
# Gauss-Legendre values of a segment, relative to the whole integral, and
# the absolute floor of that gap for integrals that underflow.
MOMENT_REL_TOL = 1e-14
MOMENT_ABS_TOL = 1e-300

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
            if not np.all(xs >= 0):  # NaN is refused too
                raise ValueError("table abscissae must be nonnegative")
            if not np.all((cc > 0) & (cc <= 1)):
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
            if self.table is not None:
                raise ValueError("only tabulated targets carry a table")
            missing = [p for p in PARAM_NAMES[self.kind] if p not in self.params]
            if missing:
                raise ValueError(f"{self.kind} target missing params {missing}")
            for name in PARAM_NAMES[self.kind]:
                value = self.params[name]
                if name == "mu":  # Lognormal's log-scale: any real value
                    if not math.isfinite(value):
                        raise ValueError("parameter mu must be finite")
                elif not (math.isfinite(value) and value > 0):
                    raise ValueError(
                        f"parameter {name} must be finite and positive")

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


# -- evaluation -----------------------------------------------------------

_ROOT2 = math.sqrt(2.0)
_ROOT_2PI = math.sqrt(2.0 * math.pi)


def ccdf(dist: TargetDistribution, x):
    """Complementary CDF of the target at x >= 0 (ValueError below): a
    float for a float x, an array of x's shape for an array.

    A float evaluates as an array of one value, and each value takes the
    same path whatever array holds it (the Lognormal erfc, which numpy
    lacks, and the tabulated power tail by the C library, value by value),
    so each value of an array call equals the float call.
    """
    p = dist.params
    xs, scalar = as_grid(x)
    if dist.kind == "lognormal":
        with np.errstate(divide="ignore"):  # log 0 = -inf, erfc(-inf) = 2
            z = (np.log(xs) - p["mu"]) / p["sigma"] / _ROOT2
        out = 0.5 * np.fromiter(map(math.erfc, z.ravel().tolist()), float,
                                z.size).reshape(z.shape)
    elif dist.kind == "pareto":
        out = (1.0 + xs) ** -p["shape"]
    elif dist.kind == "burr":
        c, d = p["c"], p["d"]
        with np.errstate(over="ignore"):
            xc = xs ** c
        out = (1.0 + xc) ** -d
        big = np.isinf(xc)  # x ** c beyond the largest float: the log form
        out[big] = np.exp(-d * c * np.log(xs[big]))
    elif dist.kind == "weibull":
        out = np.exp(-((xs / p["scale"]) ** p["shape"]))
    else:
        out = _tabulated_ccdf(dist, xs)
    return float(out[0]) if scalar else out


def pdf(dist: TargetDistribution, x):
    """Density of the target at x >= 0, a float or an array as for ccdf. A
    table's is -b F(x) on a row segment of slope b in log ccdf (at a row,
    the one that starts there), and -slope F(x) / x at and past the last."""
    p = dist.params
    xs, scalar = as_grid(x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if dist.kind == "lognormal":
            sigma = p["sigma"]
            z = (np.log(xs) - p["mu"]) / sigma
            out = np.exp(-0.5 * z * z) / (xs * sigma * _ROOT_2PI)
            out[xs == 0.0] = 0.0
        elif dist.kind == "pareto":
            a = p["shape"]
            out = a * (1.0 + xs) ** -(a + 1.0)
        elif dist.kind == "burr":
            c, d = p["c"], p["d"]
            den = (1.0 + xs ** c) ** (d + 1.0)
            out = c * d * xs ** (c - 1.0) / den
            big = np.isinf(den)  # a power beyond the largest float
            out[big] = c * d * np.exp(-(c * d + 1.0) * np.log(xs[big]))
            out[xs == 0.0] = math.inf if c < 1 else (d if c == 1 else 0.0)
        elif dist.kind == "weibull":
            scale, shape = p["scale"], p["shape"]
            t = (xs / scale) ** shape
            out = shape / xs * t * np.exp(-t)
            out[xs == 0.0] = (math.inf if shape < 1
                              else (1.0 / scale if shape == 1 else 0.0))
        else:
            tx, cc = dist.table
            f, log_cc = _tabulated_ccdf(dist, xs), np.log(cc)
            # -b on each row segment (+0.0 where flat); the +0.0 appended
            # serves index -1, before the first row, and the tail, set below.
            rate = np.append((log_cc[:-1] - log_cc[1:]) / np.diff(tx), 0.0)
            out = rate[np.searchsorted(tx, xs, side="right") - 1] * f
            tail = xs >= tx[-1]
            out[tail] = -_tail_slope(dist.table) * f[tail] / xs[tail]
    return float(out[0]) if scalar else out


def _tabulated_ccdf(dist: TargetDistribution, x: np.ndarray) -> np.ndarray:
    """Linear interpolation of log(ccdf) in x between the rows, flat before
    the first (and 1 at the origin), and past the last the power law
    through the last two rows."""
    tx, cc = dist.table
    out = np.exp(np.interp(x, tx, np.log(cc)))
    out[x < tx[0]] = cc[0]
    out[x == 0.0] = 1.0
    tail = x > tx[-1]
    slope = _tail_slope(dist.table)
    # Value by value, by the C library's pow, which gives a value the same
    # bits whatever array holds it, so a float call equals its value in an
    # array call. numpy does not promise that of its vector power (which
    # differs from pow in the last bit on about 5% of points).
    out[tail] = [cc[-1] * (v / tx[-1]) ** slope for v in x[tail].tolist()]
    return out


def _tail_slope(table) -> float:
    """Slope in log-log of the power law through a table's last two rows."""
    tx, cc = table
    return ((math.log(cc[-1]) - math.log(cc[-2]))
            / (math.log(tx[-1]) - math.log(tx[-2])))


def ccdf_inverse(dist: TargetDistribution, u):
    """x with ccdf(x) = u, for a float u in (0, 1) or an array of them, as
    for ccdf.

    Pareto, Weibull, Burr and tabulated targets invert in closed form; a
    table by its interpolant read backwards, past the last row by the power
    law through the last two rows solved for x, and at or above the first
    row's CCDF, where its CCDF falls from 1 at 0 straight to that value, at
    the least positive float. The Lognormal starts at a closed form
    (_closed_form_start), which Newton steps kept inside a bracket confirm
    over the whole array at once (_safeguarded_newton). Each value of an
    array call equals the float call. NonConvergenceError is raised when an
    x lies beyond the largest float.
    """
    us = np.asarray(u, dtype=float).ravel()
    if not np.all((us > 0.0) & (us < 1.0)):
        raise ValueError(f"u must be in (0, 1), got {u}")
    if dist.kind == "lognormal":
        x = _safeguarded_newton(dist, us, _closed_form_start(dist, us))
    else:
        p = dist.params
        t = -np.log(us)
        with np.errstate(over="ignore"):
            if dist.kind == "pareto":
                x = np.expm1(t / p["shape"])
            elif dist.kind == "weibull":
                x = p["scale"] * t ** (1.0 / p["shape"])
            elif dist.kind == "burr":
                c, t = p["c"], t / p["d"]
                x = np.expm1(t) ** (1.0 / c)
                # Where e^t overflows, e^-t is below rounding: x = e^(t/c).
                big = np.isinf(x)
                x[big] = np.exp(t[big] / c)
            else:
                tx, cc = dist.table
                x = np.interp(-t, np.log(cc[::-1]), tx[::-1])
                tail = us < cc[-1]
                x[tail] = tx[-1] * np.exp((-t[tail] - math.log(cc[-1]))
                                          / _tail_slope(dist.table))
                x[us >= cc[0]] = math.ulp(0.0)
        if not np.all(np.isfinite(x)):
            raise NonConvergenceError(
                f"ccdf stays above u={us[~np.isfinite(x)][0]} up to the "
                "largest float")
    return float(x[0]) if np.ndim(u) == 0 else x.reshape(np.shape(u))


def _closed_form_start(dist: TargetDistribution, u: np.ndarray) -> np.ndarray:
    """The Lognormal's closed-form inverse at each value of a 1-d array u,
    to rounding, or inf where it overflows: exp(mu - sigma Phi^-1(u)), with
    Phi^-1 the C inverse of statistics.NormalDist (Wichura's AS241) mapped
    value by value over u itself, not 1 - u, so that the far tail keeps its
    precision.
    """
    # Imported here: statistics costs a fresh `import heavytail_ph.cli`
    # 2.4 ms, and only Lognormal draws use it.
    from statistics import NormalDist
    z = np.fromiter(map(NormalDist().inv_cdf, u.tolist()), float, u.size)
    with np.errstate(over="ignore"):
        return np.exp(dist.params["mu"] - dist.params["sigma"] * z)


def _safeguarded_newton(dist: TargetDistribution, u: np.ndarray,
                        x0: np.ndarray) -> np.ndarray:
    """Solve ccdf(x) = u at each value of a 1-d array u, by Newton steps
    from x0 kept inside a bracket (the rtsafe scheme). Only the Lognormal's
    draws take it; every other kind inverts in closed form.

    Each value takes the steps it would take alone: its bracket [lo, hi]
    doubles from [0, 1] until ccdf(hi) <= u (NonConvergenceError once hi
    overflows), and x starts at x0 clipped into it. Every value still
    doubling has the same hi, 2^k, so each level evaluates ccdf(2^k) once,
    as a float, which equals its value in an array call. Each step
    evaluates the CCDF and the density at x, moves lo or hi to x by the
    sign of ccdf(x) - u, and takes the Newton step where it lands strictly
    inside the bracket, the bracket's midpoint otherwise. A value stops
    after a Newton step of at most 1e-12 x (taken wherever it lands: below
    half an ulp of x it leaves x on the end just moved), after a midpoint
    step that leaves a width of at most 1e-13 * hi, or after 200 steps.
    From a closed-form x0 nearly every value stops after its first step.
    Each step evaluates by one array call at the values still moving.
    Requires a continuous, strictly decreasing CCDF on the relevant range.
    """
    hi = np.ones_like(u)
    live, top = np.arange(u.size), 1.0
    while True:
        live = live[ccdf(dist, top) > u[live]]
        if not live.size:
            break
        top *= 2.0
        if math.isinf(top):
            raise NonConvergenceError(
                f"ccdf stays above u={u[live][0]} up to the largest float")
        hi[live] = top

    # The values still moving, compacted: a, b, xl and ul hold their
    # brackets, iterates and levels, and each x is stored when it is done.
    x = np.empty_like(u)
    a = np.where(hi > 1.0, 0.5 * hi, 0.0)
    live, b, ul = np.arange(u.size), hi, u
    xl = np.clip(x0, a, b)
    for _ in range(200):
        f = ccdf(dist, xl) - ul
        a, b = np.where(f > 0.0, xl, a), np.where(f < 0.0, xl, b)
        # A density of 0 or subnormal gives an infinite step: the midpoint.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = f / pdf(dist, xl)
            xn = xl + step
        small = np.abs(step) <= 1e-12 * xl
        newton = small | ((a < xn) & (xn < b))
        xl = np.where(newton, xn, 0.5 * (a + b))
        done = np.where(newton, small, b - a <= 1e-13 * b)
        x[live[done]] = xl[done]
        live, a, b, xl, ul = (live[~done], a[~done], b[~done], xl[~done],
                              ul[~done])
        if not live.size:
            break
    x[live] = xl
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


def numeric_moment(dist: TargetDistribution, order: int) -> float:
    """k-th moment over dist.window, as k * integral of x^(k-1) * ccdf(x).

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
    x_min, x_max = dist.window
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
            f = x * ccdf(dist, x)
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


def numeric_stats(dist: TargetDistribution):
    """(mean, second moment, CV) of the target over its window."""
    m1 = numeric_moment(dist, 1)
    m2 = numeric_moment(dist, 2)
    var = m2 - m1 * m1
    if var < 0:
        if var < -1e-9 * m2:
            raise NonConvergenceError(f"negative variance {var} from quadrature")
        var = 0.0
    return m1, m2, math.sqrt(var) / m1
