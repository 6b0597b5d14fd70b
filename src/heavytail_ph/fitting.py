"""High-level fitting pipelines: BPH-only, HE-only, and the hybrid.

Ties the construction modules together with sensible defaults: the HE fit
points start from the power-of-two initialization spread over a
tail window derived from the target (median out to the 1e-10 CCDF level,
capped at the window edge), and the evaluation grid spans the same range.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bph as bph_mod
from . import hefit, phmodel
from . import targets as targets_mod
from .errors import ConfigError
from .hybrid import HybridModel, assemble, build_hybrid, hybrid_ccdf
from .optimizer import (AdamConfig, EvalGrid, LossWeights, optimize,
                        pow2_points)
from .phmodel import PhaseTypeModel

DEFAULT_K = 4
DEFAULT_GRID_SIZE = 512
# CCDF level down to which the HE tail points (and the evaluation grid)
# reach by default; beyond it the mixture extrapolates exponentially.
TAIL_CCDF_LEVEL = 1e-10
# The Bernstein body resolves the target only out to x = scale * ln(n).
# The scale is chosen so that point sits where the CCDF has decayed to
# this level, normalizing every target to the same body/tail geometry.
BODY_EDGE_CCDF_LEVEL = 5e-3


@dataclass(frozen=True)
class FitReport:
    method: str
    mae: float
    mean_real: float
    mean_approx: float
    cv_real: float
    cv_approx: float
    grid_span: tuple
    he_points: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {**asdict(self), "grid_span": list(self.grid_span)}


@dataclass(frozen=True)
class FitOutcome:
    model: PhaseTypeModel
    report: FitReport
    hybrid: HybridModel | None = None
    trace: list = field(default_factory=list)


def tail_window(target: targets_mod.TargetDistribution
                ) -> tuple[float, float]:
    """HE fit-point span: median to the TAIL_CCDF_LEVEL quantile."""
    x_min, x_max = target.window
    lo = targets_mod.ccdf_inverse(target, 0.5)
    if targets_mod.ccdf(target, x_max) >= TAIL_CCDF_LEVEL:
        hi = x_max
    else:
        hi = targets_mod.ccdf_inverse(target, TAIL_CCDF_LEVEL)
    hi = min(hi, x_max)
    if lo <= 0 or lo >= hi:
        lo = hi * 1e-4
    return lo, hi


def default_grid(target: targets_mod.TargetDistribution,
                 m: int = DEFAULT_GRID_SIZE,
                 span: tuple | None = None) -> EvalGrid:
    if span is None:
        _, hi = tail_window(target)
        span = (target.window[0], hi)
    return EvalGrid.uniform(span[0], span[1], m)


def body_scale(target: targets_mod.TargetDistribution,
               n: int = bph_mod.DEFAULT_ORDER) -> float:
    """Time scale s placing the body edge s*ln(n) at the BODY_EDGE level.

    The Bernstein body resolves its input only out to ln(n) in model time;
    fitting the time-scaled target F(s*t) and dividing the generator by s
    afterwards lets the body span the bulk of any target's mass, however
    slowly its CCDF decays.
    """
    edge = targets_mod.ccdf_inverse(target, BODY_EDGE_CCDF_LEVEL)
    return edge / math.log(max(n, 2))


def _apply_mean_adjust(model, m_real: float, adjust: bool):
    """Optionally rescale the model to the window-numeric target mean m_real.

    Returns the (possibly rescaled) model and the time-compression ratio
    applied to evaluation arguments (1.0 when no adjustment is made). The
    rescaling, A times the ratio as in `phmodel.scale_to_mean`, leaves the
    coefficient of variation unchanged.
    """
    if not adjust:
        return model, 1.0
    ratio = phmodel.mean(model) / m_real
    return PhaseTypeModel(alpha=model.alpha, A=model.A * ratio,
                          meta=dict(model.meta)), ratio


def grid_mae(target, y_hat, grid: EvalGrid) -> float:
    """MAE of the model CCDF values y_hat on the grid against the target."""
    y = targets_mod.ccdf(target, grid.points)
    return float(np.mean(np.abs(y - y_hat)))


def _report(target, stats, method, model, y_hat, grid,
            he_points=()) -> FitReport:
    """Fit report from the model CCDF y_hat on the grid; `stats` is the
    target's numeric_stats over its window."""
    m1, _, cv_real = stats
    # phmodel.cv's expression, on the moments taken once.
    m1_hat, m2_hat = phmodel.moment(model, 1), phmodel.moment(model, 2)
    cv_hat = math.sqrt(max(m2_hat - m1_hat * m1_hat, 0.0)) / m1_hat
    return FitReport(method=method, mae=grid_mae(target, y_hat, grid),
                     mean_real=m1, mean_approx=m1_hat,
                     cv_real=cv_real, cv_approx=cv_hat,
                     grid_span=(float(grid.points[0]), float(grid.points[-1])),
                     he_points=[float(x) for x in he_points])


def _hybrid_outcome(target, method, n, s, points, grid, adjust_mean, meta,
                    trace=()) -> FitOutcome:
    """Build the hybrid at the scaled-time `points` from the target CCDF
    read as `LossEvaluator` reads it (so it is the hybrid the optimizer
    scored), assemble it with its generator divided by s, adjust the mean
    and report. `meta` holds the method's own keys."""
    hy = build_hybrid(points, targets_mod.ccdf(target, s * points),
                      targets_mod.ccdf(target, s * bph_mod.grid_points(n)))
    model = assemble(hy.weights, hy.he, s,
                     {"kind": method, "order_bph": n, "terms_he": hy.he.k,
                      **meta, "body_scale": s,
                      "source_target": target.to_dict()})
    stats = targets_mod.numeric_stats(target)
    model, ratio = _apply_mean_adjust(model, stats[0], adjust_mean)
    report = _report(target, stats, method, model,
                     hybrid_ccdf(hy, grid.points * (ratio / s)), grid,
                     he_points=s * points)
    return FitOutcome(model=model, report=report, hybrid=hy,
                      trace=list(trace))


def fit_bph(target, n: int = bph_mod.DEFAULT_ORDER,
            grid: EvalGrid | None = None,
            adjust_mean: bool = True) -> FitOutcome:
    """BPH-only fit: the hybrid with no tail terms."""
    grid = grid or default_grid(target)
    s = body_scale(target, n)
    return _hybrid_outcome(target, "bph", n, s, np.empty(0), grid,
                           adjust_mean, meta={})


def fit_he(target, k: int = DEFAULT_K, points=None,
           grid: EvalGrid | None = None,
           adjust_mean: bool = True) -> FitOutcome:
    grid = grid or default_grid(target)
    if points is None:
        points = pow2_points(2 * k - 1, *tail_window(target))
    he = hefit.fit_complete(points, targets_mod.ccdf(target, points))
    model = assemble(np.empty(0), he, 1.0,
                     {"kind": "he", "terms_he": he.k,
                      "source_target": target.to_dict()})
    stats = targets_mod.numeric_stats(target)
    model, ratio = _apply_mean_adjust(model, stats[0], adjust_mean)
    report = _report(target, stats, "he", model,
                     hefit.he_ccdf(he, grid.points * ratio), grid,
                     he_points=points)
    return FitOutcome(model=model, report=report)


def fit_bph_he(target, k: int = DEFAULT_K, n: int = bph_mod.DEFAULT_ORDER,
               grid: EvalGrid | None = None,
               weights: LossWeights | None = None,
               adam: AdamConfig | None = None,
               init_points=None, adjust_mean: bool = True) -> FitOutcome:
    grid = grid or default_grid(target)
    weights = weights or LossWeights()
    adam = adam or AdamConfig()
    s = body_scale(target, n)
    if init_points is None:
        # Start the HE points at the body edge and spread them to the top
        # of the evaluation grid: the power-of-two layout then covers the
        # tail roughly one octave per point, which keeps the in-pair and
        # between-pair interpolation errors small and mutually cancelling.
        lo = s * math.log(max(n, 2))
        hi = float(grid.points[-1])
        if not lo < hi:
            raise ConfigError(
                f"the target CCDF stays above {BODY_EDGE_CCDF_LEVEL:g} up to "
                f"the grid top {hi:g}; set --tail-window")
        init_points = pow2_points(2 * k, lo, hi)
    # The optimizer and hybrid construction work in scaled time t = x / s,
    # where the fixed body generator is effective; `assemble` divides the
    # generator by s to return to target time.
    points = np.asarray(init_points, dtype=float) / s
    tgrid = EvalGrid(points=grid.points / s)
    # The candidates build silently: only the returned model's build warns
    # of a clamped residual.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "residual CCDF clamped")
        points, trace = optimize(target, n, tgrid, weights, adam, points,
                                 scale=s)
    return _hybrid_outcome(target, "bph_he", n, s, points, grid,
                           adjust_mean,
                           meta={"he_points": [float(s * x) for x in points],
                                 "k": k, "n": n},
                           trace=trace)


FIT_METHODS = {"bph": fit_bph, "he": fit_he, "bph_he": fit_bph_he}
