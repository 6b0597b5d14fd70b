"""Recursive hyperexponential fitting of a CCDF at prescribed points.

Two variants: the complete fit interpolates at 2k-1 points and closes with
the normalization constraint; the defective fit uses 2k points and leaves
the total weight below 1, for use as the tail component of a hybrid model.

Fitting proceeds from the farthest points inward; each exponential term is
solved from two points of the residual CCDF (target minus the terms fixed
so far). Badly placed points make the recursion produce negative residuals
or out-of-range parameters, which is reported as InvalidModelError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModelError


@dataclass(frozen=True)
class HyperExp:
    """Mixture of exponentials: CCDF(x) = sum_i p[i] * exp(-lam[i] * x)."""

    p: np.ndarray
    lam: np.ndarray
    defective: bool = False

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

    @property
    def total_weight(self) -> float:
        return float(self.p.sum())


def canonical_points(points, expected_len: int) -> np.ndarray:
    """Sort fit points descending and validate positivity/distinctness."""
    pts = np.sort(np.asarray(points, dtype=float))[::-1]
    if pts.size != expected_len:
        raise ValueError(f"expected {expected_len} fit points, got {pts.size}")
    if np.any(pts <= 0):
        raise ValueError("fit points must be strictly positive")
    if np.any(np.diff(pts) == 0):
        raise ValueError("fit points must be pairwise distinct")
    return pts


def _residual(f_x: float, x: float, p: list, lam: list) -> float:
    # Compensated summation: the subtraction of near-equal exponential tails
    # is the dominant numerical hazard of the recursion.
    terms = [f_x]
    terms += [-pj * math.exp(-lj * x) for pj, lj in zip(p, lam)]
    return math.fsum(terms)


def _solve_pair(pts: np.ndarray, fx: list, i: int, p: list, lam: list):
    """Solve term i (stage i + 1) through the residual at its two points,
    pts[2i] > pts[2i + 1]."""
    stage = i + 1
    x_far, x_near = pts[2 * i], pts[2 * i + 1]
    r_far = _residual(fx[2 * i], x_far, p, lam)
    r_near = _residual(fx[2 * i + 1], x_near, p, lam)
    if r_far <= 0 or r_near <= 0:
        raise InvalidModelError(
            f"nonpositive residual at stage {stage}: "
            f"r({x_far:g})={r_far:.3e}, r({x_near:g})={r_near:.3e}",
            stage=stage)
    lam_i = math.log(r_near / r_far) / (x_far - x_near)
    p_i = r_near * math.exp(lam_i * x_near)
    _check_pair(p_i, lam_i, stage)
    return p_i, lam_i


def _check_pair(p_i: float, lam_i: float, stage: int) -> None:
    if lam_i <= 0:
        raise InvalidModelError(f"nonpositive rate {lam_i:.3e} at stage {stage}",
                                stage=stage)
    if not (0.0 < p_i < 1.0):
        raise InvalidModelError(f"weight {p_i:.3e} outside (0,1) at stage {stage}",
                                stage=stage)


def _solve_closing(x_last: float, f_last: float, p: list, lam: list, k: int):
    """Closing term of the complete fit: weight from normalization, rate
    from the last point."""
    p_k = 1.0 - math.fsum(p)
    r_last = _residual(f_last, x_last, p, lam)
    if r_last <= 0:
        raise InvalidModelError(
            f"nonpositive residual {r_last:.3e} at the closing point", stage=k)
    # p_k may equal 1 exactly (k = 1: the whole mass closes the fit).
    if not (0.0 < p_k <= 1.0):
        raise InvalidModelError(f"closing weight {p_k:.3e} outside (0,1]",
                                stage=k)
    ratio = r_last / p_k
    if ratio >= 1.0:
        raise InvalidModelError(
            f"closing rate would be nonpositive (residual {r_last:.3e} >= "
            f"weight {p_k:.3e} at x={x_last:g})", stage=k)
    return p_k, -math.log(ratio) / x_last


def _interp_error(pts: np.ndarray, fx: list, p: list, lam: list) -> float:
    """Worst relative deviation of the mixture from the target at the fit
    points."""
    worst = 0.0
    for x, f_x in zip(pts, fx):
        r = _residual(f_x, float(x), p, lam)
        worst = max(worst, abs(r) / max(f_x, 1e-300))
    return worst


def _refine(pts: np.ndarray, fx: list, p: list, lam: list,
            closing: bool) -> None:
    """Gauss-Seidel sweeps until the mixture interpolates at every point.

    The single forward pass leaves each pair's points contaminated by the
    terms determined after it; re-solving every pair against the residual
    of all the *other* terms removes that contamination. The contamination
    is small for sensible points, so a handful of sweeps reach rounding
    level; non-convergence is reported like any other invalid fit.
    """
    k = len(p)
    if k <= 1:
        return
    for _ in range(200):
        if _interp_error(pts, fx, p, lam) <= 1e-12:
            return
        for i in range(k):
            p_rest = p[:i] + p[i + 1:]
            lam_rest = lam[:i] + lam[i + 1:]
            if closing and i == k - 1:
                p[i], lam[i] = _solve_closing(pts[-1], fx[-1], p_rest,
                                              lam_rest, k)
            else:
                p[i], lam[i] = _solve_pair(pts, fx, i, p_rest, lam_rest)
    if _interp_error(pts, fx, p, lam) > 1e-10:
        raise InvalidModelError(
            "interpolation refinement did not converge for these points",
            stage=k)


def fit_complete(Fbar, points) -> HyperExp:
    """Fit a proper k-term mixture interpolating Fbar at 2k-1 points."""
    pts = canonical_points(points, len(points))
    if pts.size % 2 == 0:
        raise ValueError("complete fit needs an odd number of points (2k-1)")
    k = (pts.size + 1) // 2
    fx = [float(Fbar(x)) for x in pts]
    p: list = []
    lam: list = []
    for i in range(k - 1):
        p_i, lam_i = _solve_pair(pts, fx, i, p, lam)
        p.append(p_i)
        lam.append(lam_i)
    p_k, lam_k = _solve_closing(pts[-1], fx[-1], p, lam, k)
    p.append(p_k)
    lam.append(lam_k)
    _refine(pts, fx, p, lam, closing=True)
    return HyperExp(p=np.array(p), lam=np.array(lam), defective=False)


def fit_defective(Fbar, points) -> HyperExp:
    """Fit a defective mixture (total weight < 1) interpolating at 2k points."""
    pts = canonical_points(points, len(points))
    if pts.size % 2 != 0:
        raise ValueError("defective fit needs an even number of points (2k)")
    k = pts.size // 2
    fx = [float(Fbar(x)) for x in pts]
    p: list = []
    lam: list = []
    for i in range(k):
        p_i, lam_i = _solve_pair(pts, fx, i, p, lam)
        p.append(p_i)
        lam.append(lam_i)
    _refine(pts, fx, p, lam, closing=False)
    total = math.fsum(p)
    if total >= 1.0:
        raise InvalidModelError(
            f"defective fit weights sum to {total:.6f} >= 1", stage=k)
    return HyperExp(p=np.array(p), lam=np.array(lam), defective=True)


def fit_defective_raw(Fbar, points):
    """Defective-fit recursion without validity checks.

    Returns (p, lam) as float arrays, possibly with out-of-range values;
    used by the optimizer's penalty terms, which need the raw parameters of
    infeasible candidates. NaNs appear where the recursion loses meaning
    (nonpositive residuals) and are treated as violations by the caller.
    """
    pts = np.sort(np.asarray(points, dtype=float))[::-1]
    k = pts.size // 2
    fx = [float(Fbar(x)) for x in pts]
    p: list = []
    lam: list = []
    for i in range(k):
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


def he_ccdf(he: HyperExp, x) -> float | np.ndarray:
    """Mixture CCDF: sum_i p[i] exp(-lam[i] x).

    On an array each value is one dot product of that point's exponential
    terms with p, so it equals the scalar result at that point exactly; a
    single matrix-vector product would sum in a different order.
    """
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0):
        raise ValueError("x must be nonnegative")
    terms = np.exp(-np.multiply.outer(xs, he.lam))
    if xs.ndim == 0:
        return float(terms @ he.p)
    return np.array([row @ he.p for row in terms.reshape(xs.size, he.k)]
                    ).reshape(xs.shape)


def to_phase_type(he: HyperExp, meta=None):
    """Proper HE as a diagonal-generator phase-type model."""
    from .phmodel import PhaseTypeModel
    if he.defective:
        raise ValueError("defective HE components are serialized only inside "
                         "hybrid models")
    return PhaseTypeModel(alpha=he.p, A=np.diag(-he.lam),
                          meta={"kind": "he", "terms_he": he.k, **(meta or {})})
