"""Selection of the HE fit points by penalized-MAE gradient descent.

The objective compares target and model CCDFs on an evenly spaced grid and
adds hinge/indicator penalties for invalid mixture parameters, so the
optimizer can traverse infeasible point configurations. Gradients are
central finite differences over log-points (which also keeps every
candidate point positive); updates follow Adam.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import targets as targets_mod
from ._backend import basis_he_ccdf, bernstein_basis
from .bph import grid_points
from .constants import RESIDUAL_NEG_TOL
from .errors import InvalidModelError
from .hefit import fit_defective_raw
from .hybrid import build_hybrid

log = logging.getLogger(__name__)

# Raw-mixture CCDF values are clipped here so the loss stays finite even
# for wildly invalid candidates (e.g. negative rates).
_RAW_CCDF_CLIP = 1e6
_FD_STEP = 1e-4


@dataclass(frozen=True)
class LossWeights:
    w_mae: float = 0.8
    w_lambda: float = 0.1
    w_p: float = 0.1

    def __post_init__(self):
        if min(self.w_mae, self.w_lambda, self.w_p) < 0:
            raise ValueError("loss weights must be nonnegative")
        total = self.w_mae + self.w_lambda + self.w_p
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"loss weights must sum to 1, got {total}")


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    max_iters: int = 500
    patience: int = 50
    min_improvement: float = 1e-9

    def __post_init__(self):
        if min(self.learning_rate, self.epsilon, self.max_iters,
               self.patience) <= 0:
            raise ValueError("Adam parameters must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")


@dataclass(frozen=True)
class EvalGrid:
    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float).ravel()
        if pts.size < 2 or np.any(np.diff(pts) <= 0):
            raise ValueError("grid needs >= 2 strictly increasing points")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, x_min: float, x_max: float, m: int = 512) -> "EvalGrid":
        return cls(points=np.linspace(x_min, x_max, m))


class LossBreakdown(NamedTuple):
    total: float
    mae: float
    pen_lambda: float
    pen_p: float


def pow2_points(count: int, x_min: float, x_max: float) -> np.ndarray:
    """Power-of-two fit points 2^(i-1), i = 1..count, remapped linearly to
    [x_min, x_max]: 2k of them start the hybrid's tail, 2k-1 the complete
    HE fit."""
    if count < 2:
        raise ValueError("need at least 2 fit points")
    if not x_min < x_max:
        raise ValueError("x_min must be below x_max")
    raw = 2.0 ** np.arange(count, dtype=float)  # 1, 2, 4, ..., 2^(count-1)
    return x_min + (raw - raw[0]) * (x_max - x_min) / (raw[-1] - raw[0])


class LossEvaluator:
    """Callable loss with the target CCDF and the Bernstein basis cached on
    the evaluation grid, so each model CCDF there is one matrix-vector
    product plus the HE terms."""

    def __init__(self, target, k: int, n: int, grid: EvalGrid,
                 weights: LossWeights):
        if isinstance(target, targets_mod.TargetDistribution):
            self.Fbar = lambda x: targets_mod.ccdf(target, x)
        else:
            self.Fbar = target
        self.k = k
        self.n = n
        self.grid = grid
        self.weights = weights
        self.y = np.array([self.Fbar(z) for z in grid.points])
        self._nodes = grid_points(n)
        self._y_nodes = np.array([self.Fbar(z) for z in self._nodes])
        self._basis = bernstein_basis(n, grid.points)
        # Whether the most recent __call__ produced a buildable hybrid.
        self.last_build_ok = False

    def __call__(self, points) -> LossBreakdown:
        w = self.weights
        try:
            hy = build_hybrid(self.Fbar, self.k, self.n, points)
        except (InvalidModelError, ValueError):
            self.last_build_ok = False
            return self._raw_loss(points)
        self.last_build_ok = True
        mae = self._mae(hy.bph.node_values, hy.he.p, hy.he.lam)
        # A successful build implies valid p and lambda: zero penalties.
        return LossBreakdown(w.w_mae * mae, mae, 0.0, 0.0)

    def _raw_loss(self, points) -> LossBreakdown:
        fx = np.array([float(self.Fbar(x)) for x in points])
        p, lam = fit_defective_raw(points, fx)
        bad_lam = np.isnan(lam) | (lam < 0)
        pen_lambda = float(np.count_nonzero(bad_lam)) / self.k
        with np.errstate(invalid="ignore"):
            low = np.maximum(0.0, -p)
            high = np.maximum(0.0, p - 1.0)
        pen_p = float(np.nansum(np.minimum(low + high, _RAW_CCDF_CLIP)))
        pen_p += float(np.count_nonzero(np.isnan(p)))
        if pen_lambda == 0.0 and pen_p == 0.0:
            # Parameters are in range, so the build failed on the residual
            # (dips beyond tolerance or total weight >= 1). Score the
            # dip-clamped hybrid -- which matches the strict hybrid exactly
            # at the feasibility boundary -- and penalize the dips, so the
            # descent is steered back into the buildable region instead of
            # being rewarded for fitting the whole CCDF with the tail alone.
            pen_p += max(0.0, float(math.fsum(p)) - 1.0)
            mae, dips = self._clamped_hybrid_score(points, fx, p, lam)
            pen_p += dips
        else:
            y_hat = self._raw_mixture(p, lam)
            mae = float(np.mean(np.abs(self.y - y_hat)))
        w = self.weights
        total = w.w_mae * mae + w.w_lambda * pen_lambda + w.w_p * pen_p
        return LossBreakdown(total, mae, pen_lambda, pen_p)

    def _clamped_hybrid_score(self, points, fx, p, lam):
        """MAE of the dip-clamped hybrid and the total dip beyond tolerance.

        The residual is clamped at 0 on the BPH nodes and forced
        nondecreasing toward x = 0 (the clamped analogue of zeroing negative
        body weights); the returned dip term sums residual excursions below
        -RESIDUAL_NEG_TOL over the same check points a strict build uses.
        """
        check = np.concatenate([self._nodes, points])
        y_check = np.concatenate([self._y_nodes, fx])
        res = y_check - np.exp(-np.multiply.outer(check, lam)) @ p
        dips = float(np.sum(np.maximum(0.0, -res - RESIDUAL_NEG_TOL)))
        # Node order is descending in x, so ascending residual values:
        # a running maximum reproduces the clamped cumulative weights.
        node_vals = np.maximum.accumulate(
            np.maximum(res[:self._nodes.size], 0.0))
        return self._mae(node_vals, p, lam), dips

    def _mae(self, node_vals, p, lam) -> float:
        """Grid MAE of the hybrid CCDF with these node values and HE terms."""
        y_hat = basis_he_ccdf(self._basis, node_vals, p, lam, self.grid.points)
        return float(np.mean(np.abs(self.y - y_hat)))

    def _raw_mixture(self, p: np.ndarray, lam: np.ndarray) -> np.ndarray:
        ok = np.isfinite(p) & np.isfinite(lam)
        if not np.any(ok):
            return np.zeros_like(self.grid.points)
        expo = np.clip(-np.outer(self.grid.points, lam[ok]), -745.0, 700.0)
        vals = np.exp(expo) @ p[ok]
        return np.clip(vals, -_RAW_CCDF_CLIP, _RAW_CCDF_CLIP)


def loss(points, target, k: int, n: int, grid: EvalGrid,
         weights: LossWeights) -> LossBreakdown:
    return LossEvaluator(target, k, n, grid, weights)(points)


def optimize(target, k: int, n: int, grid: EvalGrid, weights: LossWeights,
             adam: AdamConfig, init) -> tuple[np.ndarray, list[LossBreakdown]]:
    """Adam descent over log fit-points; returns best-seen points and trace."""
    init = np.asarray(init, dtype=float)
    if init.size != 2 * k:
        raise ValueError(f"need {2 * k} initial points, got {init.size}")
    if np.any(init <= 0):
        raise ValueError("initial points must be positive")
    evaluator = LossEvaluator(target, k, n, grid, weights)

    u = np.log(init)
    m = np.zeros_like(u)
    v = np.zeros_like(u)
    trace = []
    cur = evaluator(np.exp(u))
    trace.append(cur)
    best_loss, best_points = cur.total, np.exp(u)
    # Track the best *buildable* candidate separately: the raw penalty path
    # can report a deceptively low loss for points that cannot actually be
    # assembled into a hybrid, and those must not win the final selection.
    if evaluator.last_build_ok:
        best_valid_loss, best_valid_points = cur.total, np.exp(u)
    else:
        best_valid_loss, best_valid_points = math.inf, None
    stall = 0

    for t in range(1, adam.max_iters + 1):
        u = _repel_collisions(u)
        grad = np.empty_like(u)
        for j in range(u.size):
            bump = np.zeros_like(u)
            bump[j] = _FD_STEP
            up = evaluator(np.exp(u + bump)).total
            down = evaluator(np.exp(u - bump)).total
            grad[j] = (up - down) / (2.0 * _FD_STEP)

        m = adam.beta1 * m + (1.0 - adam.beta1) * grad
        v = adam.beta2 * v + (1.0 - adam.beta2) * grad * grad
        m_hat = m / (1.0 - adam.beta1 ** t)
        v_hat = v / (1.0 - adam.beta2 ** t)
        u = u - adam.learning_rate * m_hat / (np.sqrt(v_hat) + adam.epsilon)

        cur = evaluator(np.exp(u))
        trace.append(cur)
        if evaluator.last_build_ok and cur.total < best_valid_loss:
            best_valid_loss, best_valid_points = cur.total, np.exp(u)
        if cur.total < best_loss - adam.min_improvement:
            best_loss, best_points = cur.total, np.exp(u)
            stall = 0
        else:
            if cur.total < best_loss:
                best_loss, best_points = cur.total, np.exp(u)
            stall += 1
            if stall >= adam.patience:
                break
    if best_valid_points is not None:
        return best_valid_points, trace
    return best_points, trace


def _repel_collisions(u: np.ndarray) -> np.ndarray:
    """Nudge apart log-points that collapsed within 1e-9 relative."""
    u = u.copy()
    order = np.argsort(u)
    for a, b in zip(order[:-1], order[1:]):
        if abs(u[b] - u[a]) <= 1e-9 * max(abs(u[a]), abs(u[b]), 1.0):
            jitter = 1e-6 * max(abs(u[b]), 1.0)
            u[b] += jitter
            log.info("repelled colliding fit points at u=%.6f (+%.2e)",
                     u[a], jitter)
    return u
