"""Recursive hyperexponential fitting of CCDF values at prescribed points.

Two variants, each given the fit points and the target CCDF values there:
the defective fit interpolates at 2k points and leaves the total weight
below 1, for use as the tail component of a hybrid model; the complete
fit is the same fit at 2k-1 points plus the point x = 0 with value 1, the
normalization Fbar(0) = 1.

A forward pass fits the terms from the farthest points inward; each
exponential term is solved from two points of the residual CCDF (target
minus the terms fixed so far). Badly placed points make the recursion
produce negative residuals or out-of-range parameters, which is reported as
InvalidModelError. A damped Newton solve of all the interpolation
conditions sum_i p_i exp(-lam_i x_j) = Fbar(x_j) (the recursive-fit
conditions of Feldmann & Whitt, Perf. Eval. 31, 1998) then makes the
mixture pass through the target at every point. A defective fit keeps the
record of that solve (`TailFit`), from which the fit-point optimizer takes
its gradient. `hybrid.assemble` lays a mixture out as a phase-type model:
a complete fit alone, a defective one under a Bernstein body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidModelError

# Worst relative deviation from the target at the fit points that counts as
# interpolation. Newton from the forward pass reaches it in under ten
# iterations on the default fits; one still short after the cap has stalled.
_INTERP_TOL = 1e-12
_NEWTON_MAX_ITERS = 50
# Step fractions tried by each damped Newton iteration, largest first.
_HALVINGS = tuple(0.5 ** i for i in range(10))


class TailFit(NamedTuple):
    """Record of a defective fit's interpolation solve: the fit points in
    descending order, the target CCDF there, and the Jacobian of
    `interpolation_system` at the returned (p, lam)."""

    points: np.ndarray
    values: np.ndarray
    jacobian: np.ndarray


@dataclass(frozen=True)
class HyperExp:
    """Mixture of exponentials: CCDF(x) = sum_i p[i] * exp(-lam[i] * x).

    `tail_fit` holds the interpolation solve of `fit_defective`; it is None
    for the complete fit (whose weights sum to 1), for the empty tail of a
    BPH-only hybrid and for mixtures built by hand.
    """

    p: np.ndarray
    lam: np.ndarray
    tail_fit: TailFit | None = None

    def __post_init__(self):
        p = np.array(self.p, dtype=float).ravel()
        lam = np.array(self.lam, dtype=float).ravel()
        if p.size != lam.size:
            raise ValueError("p and lam must have equal length")
        p.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "lam", lam)

    @property
    def k(self) -> int:
        return self.p.size


def canonical_points(points, fx) -> tuple[np.ndarray, np.ndarray]:
    """Fit points and the CCDF values there, both in descending order of
    the points; the points must be positive and pairwise distinct."""
    pts, fx = np.asarray(points, dtype=float), np.asarray(fx, dtype=float)
    if pts.shape != fx.shape or pts.ndim != 1:
        raise ValueError(f"{pts.size} fit points but {fx.size} CCDF values")
    order = np.argsort(pts)[::-1]
    pts, fx = pts[order], fx[order]
    if np.any(pts <= 0):
        raise ValueError("fit points must be strictly positive")
    # Points that coincide (e.g. more default points than floats tell
    # apart) leave no feasible fit.
    if np.any(np.diff(pts) == 0):
        raise InvalidModelError("fit points must be pairwise distinct")
    return pts, fx


def _residual(f_x: float, x: float, p, lam) -> float:
    # Compensated summation: the subtraction of near-equal exponential tails
    # is the dominant numerical hazard of the recursion.
    terms = [f_x]
    terms += [-pj * math.exp(-lj * x) for pj, lj in zip(p, lam)]
    return math.fsum(terms)


def fit_defective_raw(points, fx):
    """Forward pass of the defective recursion, without validity checks.

    Term i is solved through the residual CCDF (fx minus the terms before
    it) at the (2i+1)-th and (2i+2)-th largest points. Returns (p, lam) as
    float arrays, possibly with out-of-range values: the optimizer's penalty
    terms need the raw parameters of infeasible candidates. NaNs appear
    where the recursion loses meaning (nonpositive residuals) and are
    treated as violations by the caller.
    """
    order = np.argsort(points)[::-1]
    pts, fx = np.asarray(points, dtype=float)[order], np.asarray(fx)[order]
    p: list = []
    lam: list = []
    for i in range(pts.size // 2):
        x_far, x_near = pts[2 * i], pts[2 * i + 1]
        r_far = _residual(fx[2 * i], x_far, p, lam)
        r_near = _residual(fx[2 * i + 1], x_near, p, lam)
        if r_far <= 0 or r_near <= 0 or x_far == x_near:
            p_i, lam_i = math.nan, math.nan
        else:
            lam_i = math.log(r_near / r_far) / (x_far - x_near)
            arg = lam_i * x_near
            p_i = r_near * math.exp(arg) if arg < 700 else math.inf
        p.append(p_i)
        lam.append(lam_i)
    return np.array(p), np.array(lam)


def _check_stages(p: np.ndarray, lam: np.ndarray) -> None:
    """Raise at the first stage of a forward pass with an invalid term."""
    for stage, (p_i, lam_i) in enumerate(zip(p, lam), start=1):
        if math.isnan(lam_i):
            problem = "nonpositive residual"
        elif lam_i <= 0:
            problem = f"nonpositive rate {lam_i:.3e}"
        # p_i may equal 1 exactly (k = 1 complete fit: the whole mass).
        elif not 0.0 < p_i <= 1.0:
            problem = f"weight {p_i:.3e} outside (0,1]"
        else:
            continue
        raise InvalidModelError(f"{problem} at stage {stage}")


def interpolation_system(pts, fx, p, lam):
    """Interpolation residual at the fit points and its Jacobian.

    Row j is (sum_i p_i e^{-lam_i x_j} - Fbar(x_j)) / Fbar(x_j); the
    columns are its derivatives in log p_i, p_i e^{-lam_i x_j} / Fbar(x_j),
    then in log lam_i, -x_j lam_i p_i e^{-lam_i x_j} / Fbar(x_j).
    """
    xl = np.multiply.outer(pts, lam)
    terms = p * np.exp(-xl) / fx[:, None]
    jac = np.concatenate([terms, -terms * xl], axis=1)
    return terms.sum(axis=1) - 1.0, jac


def _newton(pts, fx, p, lam):
    """Solve the interpolation conditions by Newton in (log p, log lam),
    from the forward pass, whose pairs are contaminated by the terms solved
    after them. Each log-step is scaled to at most 1 in every component and
    then halved until the residual norm falls. Returns (p, lam) and the
    Jacobian there.
    """
    k = p.size
    r, jac = interpolation_system(pts, fx, p, lam)
    norm = np.linalg.norm(r)
    for _ in range(_NEWTON_MAX_ITERS):
        if np.max(np.abs(r)) <= _INTERP_TOL:
            return p, lam, jac
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            break
        step /= max(1.0, float(np.max(np.abs(step))))
        for t in _HALVINGS:
            p_t, lam_t = p * np.exp(t * step[:k]), lam * np.exp(t * step[k:])
            r_t, jac_t = interpolation_system(pts, fx, p_t, lam_t)
            norm_t = np.linalg.norm(r_t)
            if norm_t < norm:
                break
        else:
            break
        p, lam, r, jac, norm = p_t, lam_t, r_t, jac_t, norm_t
    raise InvalidModelError(
        "interpolation solve did not converge for these points")


def _fit(pts, fx):
    """Forward pass, stage check and Newton solve: (p, lam) of the mixture
    through the values fx at the descending points pts, and the Jacobian
    there."""
    p, lam = fit_defective_raw(pts, fx)
    _check_stages(p, lam)
    return _newton(pts, fx, p, lam)


def fit_complete(points, fx) -> HyperExp:
    """Fit a proper k-term mixture through the CCDF values fx at 2k-1
    points: the defective fit through them and x = 0, where the CCDF is 1."""
    pts, fx = canonical_points(points, fx)
    if pts.size % 2 == 0:
        raise ValueError("complete fit needs an odd number of points (2k-1)")
    p, lam, _ = _fit(np.append(pts, 0.0), np.append(fx, 1.0))
    return HyperExp(p=p, lam=lam)


def fit_defective(points, fx) -> HyperExp:
    """Fit a defective mixture (total weight < 1) through fx at 2k points.

    The returned mixture keeps its `TailFit`: the points in descending
    order, fx there, and the interpolation Jacobian at the solution.
    """
    pts, fx = canonical_points(points, fx)
    if pts.size % 2 != 0:
        raise ValueError("defective fit needs an even number of points (2k)")
    p, lam, jac = _fit(pts, fx)
    total = math.fsum(p)
    if total >= 1.0:
        raise InvalidModelError(
            f"defective fit weights sum to {total:.6f} >= 1")
    return HyperExp(p=p, lam=lam, tail_fit=TailFit(pts, fx, jac))


def he_ccdf(he: HyperExp, x) -> float | np.ndarray:
    """Mixture CCDF: sum_i p[i] exp(-lam[i] x), at a scalar or an array.

    Every point's terms are summed along the last axis, for a scalar as for
    an array, so each array value equals the scalar result at that point
    exactly.
    """
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0):
        raise ValueError("x must be nonnegative")
    vals = (np.exp(-np.multiply.outer(xs, he.lam)) * he.p).sum(axis=-1)
    return float(vals) if xs.ndim == 0 else vals

