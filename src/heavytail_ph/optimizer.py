"""Selection of the HE fit points by penalized-MAE gradient descent.

The objective compares target and model CCDFs on an evenly spaced grid and
adds hinge/indicator penalties for invalid mixture parameters, so the
optimizer can traverse infeasible point configurations. The descent runs
over log-points, which keeps every candidate point positive, and updates
follow Adam (Kingma & Ba, ICLR 2015). At a buildable candidate the gradient
is exact: the HE parameters solve the interpolation conditions, so the
implicit function theorem gives their derivative in the fit points from
the interpolation Jacobian, and the loss is linear in the HE terms and in
the clamped residual at the BPH nodes. At an unbuildable candidate it is a
central finite difference of the penalized loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import targets as targets_mod
from ._backend import basis_he_ccdf, bernstein_basis
from .bph import grid_points
from .errors import InvalidModelError
from .hefit import fit_defective_raw
from .hybrid import RESIDUAL_NEG_TOL, build_hybrid

# Raw-mixture CCDF values are clipped here so the loss stays finite even
# for wildly invalid candidates (e.g. negative rates).
_RAW_CCDF_CLIP = 1e6
_FD_STEP = 1e-4

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults),
# and the least loss decrease that resets the patience count.
_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8
_MIN_IMPROVEMENT = 1e-9


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
    max_iters: int = 500
    patience: int = 50

    def __post_init__(self):
        if min(self.learning_rate, self.patience) <= 0 or self.max_iters < 0:
            raise ValueError("need lr and patience > 0, max_iters >= 0")


@dataclass(frozen=True)
class EvalGrid:
    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float).ravel()
        if pts.size < 2 or np.any(np.diff(pts) <= 0):
            raise ValueError("grid needs >= 2 strictly increasing points")
        if pts[0] < 0:
            raise ValueError(f"grid starts below 0, at {pts[0]}")
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
    product plus the HE terms.

    The loss works in scaled time t = x / scale: the target it fits is
    F-bar(scale * t), read by one `targets.ccdf` call on the grid,
    one on the BPH nodes and one per candidate at its 2k fit points, which
    the HE solve, the residual check and the penalties all use. After a
    buildable candidate, `gradient` gives the exact gradient of its loss
    in log fit-points from the same build: the HE solve's `TailFit` and
    the grid exponentials e^{-lam t} of the call, so it evaluates the
    target CCDF nowhere.
    """

    def __init__(self, target: targets_mod.TargetDistribution, n: int,
                 grid: EvalGrid, weights: LossWeights, scale: float = 1.0):
        self.target = target
        self.scale = scale
        self.grid = grid
        self.weights = weights
        self.y = targets_mod.ccdf(target, scale * grid.points)
        self._nodes = grid_points(n)
        self._y_nodes = targets_mod.ccdf(target, scale * self._nodes)
        self._basis = bernstein_basis(n, grid.points)
        # (points, hybrid, grid CCDF, grid exponentials) of the most recent
        # call, if buildable.
        self._last = None

    @property
    def last_build_ok(self) -> bool:
        """Whether the most recent call produced a buildable hybrid."""
        return self._last is not None

    def __call__(self, points) -> LossBreakdown:
        w = self.weights
        points = np.asarray(points, dtype=float)
        fx = targets_mod.ccdf(self.target, self.scale * points)
        try:
            hy = build_hybrid(points, fx, self._y_nodes)
        except (InvalidModelError, ValueError):
            self._last = None
            return self._raw_loss(points, fx)
        expo = np.exp(-np.outer(self.grid.points, hy.he.lam))
        y_hat = basis_he_ccdf(self._basis, hy.node_values, hy.he.p, expo)
        self._last = (points, hy, y_hat, expo)
        mae = float(np.mean(np.abs(self.y - y_hat)))
        # A successful build implies valid p and lambda: zero penalties.
        return LossBreakdown(w.w_mae * mae, mae, 0.0, 0.0)

    def gradient(self) -> np.ndarray | None:
        """Gradient of the last loss in the log of each fit point, in the
        caller's point order; None when the last candidate was unbuildable.

        With theta = (log p, log lam) and R the interpolation residual of
        `hefit.interpolation_system`, R(theta, x) = 0 at the solve, so
        d theta / dx = -J^-1 diag(dR/dx), where J = dR/d theta and
        dR_j/dx_j = (f(x_j) - sum_i lam_i p_i e^{-lam_i x_j}) / F-bar(x_j).
        The loss sees theta through the HE terms on the grid and through
        the BPH node values: the residual at the nodes, clamped at 0 and
        cumulated over nonnegative weights, whose derivative vanishes
        wherever the clamp or a zero weight is active.
        """
        if self._last is None:
            return None
        points, hy, y_hat, expo = self._last
        p, lam = hy.he.p, hy.he.lam
        x, fx, jac = hy.he.tail_fit  # x in descending order
        dens = self.scale * targets_mod.pdf(self.target, self.scale * x)
        dr_dx = (dens - np.exp(-np.multiply.outer(x, lam)) @ (lam * p)) / fx

        he_nodes = _he_terms_jacobian(
            self._nodes, np.exp(-np.multiply.outer(self._nodes, lam)), p, lam)
        res = self._y_nodes - he_nodes[:, :p.size].sum(axis=1)
        d_clamped = np.where((res > 0.0)[:, None], -he_nodes, 0.0)
        d_weights = np.diff(d_clamped, axis=0, prepend=0.0)
        d_weights[hy.weights <= 0.0] = 0.0
        d_nodes = np.cumsum(d_weights, axis=0)

        g = (self.weights.w_mae / y_hat.size) * np.sign(y_hat - self.y)
        d_theta = ((g @ self._basis) @ d_nodes
                   + g @ _he_terms_jacobian(self.grid.points, expo, p, lam))
        d_x = -dr_dx * np.linalg.solve(jac.T, d_theta)
        grad = np.empty_like(d_x)
        grad[np.argsort(points)[::-1]] = x * d_x  # d/d log x = x d/dx
        return grad

    def _raw_loss(self, points, fx) -> LossBreakdown:
        p, lam = fit_defective_raw(points, fx)
        bad_lam = np.isnan(lam) | (lam < 0)
        pen_lambda = float(np.count_nonzero(bad_lam)) / lam.size
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
        y_hat = basis_he_ccdf(self._basis, node_vals, p,
                              np.exp(-np.outer(self.grid.points, lam)))
        return float(np.mean(np.abs(self.y - y_hat)))

    def _raw_mixture(self, p: np.ndarray, lam: np.ndarray) -> np.ndarray:
        ok = np.isfinite(p) & np.isfinite(lam)
        if not np.any(ok):
            return np.zeros_like(self.grid.points)
        expo = np.clip(-np.outer(self.grid.points, lam[ok]), -745.0, 700.0)
        vals = np.exp(expo) @ p[ok]
        return np.clip(vals, -_RAW_CCDF_CLIP, _RAW_CCDF_CLIP)


def _he_terms_jacobian(ts, expo, p, lam) -> np.ndarray:
    """Derivatives of sum_i p_i e^{-lam_i t} in (log p, log lam), one row
    per t, from the exponentials expo = e^{-lam t}: the log p columns are
    the terms p_i e^{-lam_i t} themselves, the log lam columns
    -t lam_i p_i e^{-lam_i t}."""
    terms = p * expo
    return np.concatenate([terms, -terms * np.multiply.outer(ts, lam)],
                          axis=1)


def optimize(target, n: int, grid: EvalGrid, weights: LossWeights,
             adam: AdamConfig, init, scale: float = 1.0
             ) -> tuple[np.ndarray, list[LossBreakdown]]:
    """Adam descent over the 2k log fit-points in scaled time, from the 2k
    points `init` (see LossEvaluator); returns the best-seen points and the
    trace: the start's loss, then each step's (max_iters = 0: the start)."""
    init = np.asarray(init, dtype=float)
    if init.size < 2 or init.size % 2:
        raise ValueError("need an even number (2k >= 2) of initial points, "
                         f"got {init.size}")
    if np.any(init <= 0):
        raise ValueError("initial points must be positive")
    evaluator = LossEvaluator(target, n, grid, weights, scale)

    u = np.log(init)
    m = np.zeros_like(u)
    v = np.zeros_like(u)
    trace = []
    best_loss, best_points = math.inf, None
    # Track the best *buildable* candidate separately: the raw penalty path
    # can report a deceptively low loss for points that cannot actually be
    # assembled into a hybrid, and those must not win the final selection.
    best_valid_loss, best_valid_points = math.inf, None
    stall = 0

    # Step 0 scores the start; each later step moves first.
    for t in range(adam.max_iters + 1):
        if t:
            grad = evaluator.gradient()
            if grad is None:
                grad = _central_differences(evaluator, u)
            m = _BETA1 * m + (1.0 - _BETA1) * grad
            v = _BETA2 * v + (1.0 - _BETA2) * grad * grad
            m_hat = m / (1.0 - _BETA1 ** t)
            v_hat = v / (1.0 - _BETA2 ** t)
            u = u - adam.learning_rate * m_hat / (np.sqrt(v_hat) + _EPSILON)

        cur = evaluator(np.exp(u))
        trace.append(cur)
        if evaluator.last_build_ok and cur.total < best_valid_loss:
            best_valid_loss, best_valid_points = cur.total, np.exp(u)
        if cur.total < best_loss - _MIN_IMPROVEMENT:
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


def _central_differences(evaluator: LossEvaluator, u: np.ndarray) -> np.ndarray:
    """Central differences of the penalized loss over log-points."""
    grad = np.empty_like(u)
    for j in range(u.size):
        bump = np.zeros_like(u)
        bump[j] = _FD_STEP
        up = evaluator(np.exp(u + bump)).total
        down = evaluator(np.exp(u - bump)).total
        grad[j] = (up - down) / (2.0 * _FD_STEP)
    return grad

