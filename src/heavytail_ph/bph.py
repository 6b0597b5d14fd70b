"""Bernstein phase-type approximation of a CDF or CCDF.

The initial probabilities are read off the target function at the points
log(n/i); the generator is a fixed bidiagonal matrix with rates 1..n that
does not depend on the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._backend import bernstein_he_ccdf
from .constants import PROB_NOISE_TOL, PROPER_SUM_TOL, WEIGHT_NEG_TOL
from .phmodel import PhaseTypeModel

DEFAULT_ORDER = 100


@dataclass(frozen=True)
class BphComponent:
    """Order-n Bernstein-PH component: just the initial probabilities."""

    order: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float).ravel()
        if self.order < 1 or w.size != self.order:
            raise ValueError("weights length must equal the order")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def node_values(self) -> np.ndarray:
        """Function values at log(n/i), i = 1..n (cumulative weights)."""
        return np.cumsum(self.weights)


def grid_points(n: int) -> np.ndarray:
    """The evaluation points log(n/i), i = 1..n (descending, last is 0)."""
    i = np.arange(1, n + 1, dtype=float)
    return np.log(n / i)


def build_from_cdf(F, n: int) -> BphComponent:
    """Weights [F(inf)-F(log n), F(log n)-F(log(n/2)), ..., F(log(n/(n-1)))-F(0)].

    The i=0 division by zero in the underlying polynomial is resolved as the
    limit F(inf); callers pass an evaluator whose value at +inf is taken as
    the limit of F along the window (evaluated at a large argument).
    """
    pts = grid_points(n)
    f_inf = float(F(math.inf))
    vals = np.array([float(F(x)) for x in pts])
    upper = np.concatenate(([f_inf], vals[:-1]))
    return _component_from_diffs(n, upper - vals)


def build_from_ccdf(values, at_inf: float) -> BphComponent:
    """CCDF twin of build_from_cdf, from the values at grid_points(n) and
    the value at +inf; accepts defective functions (value < 1 at 0)."""
    vals = np.asarray(values, dtype=float)
    lower = np.concatenate(([float(at_inf)], vals[:-1]))
    return _component_from_diffs(vals.size, vals - lower)


def _component_from_diffs(n: int, diffs: np.ndarray) -> BphComponent:
    bad = diffs < -WEIGHT_NEG_TOL
    if np.any(bad):
        idx = int(np.argmin(diffs))
        raise ValueError(
            f"negative BPH weight {diffs[idx]:.3e} at index {idx}: "
            "input evaluator is not monotone")
    return BphComponent(order=n, weights=np.maximum(diffs, 0.0))


def generator(n: int) -> np.ndarray:
    """The fixed n x n bidiagonal sub-generator with rates 1..n."""
    if n < 1:
        raise ValueError("order must be >= 1")
    rates = np.arange(1, n + 1, dtype=float)
    A = np.diag(-rates)
    A[np.arange(n - 1), np.arange(1, n)] = rates[:-1]
    return A


def to_phase_type(component: BphComponent, meta=None) -> PhaseTypeModel:
    """Assemble a proper BPH model (defective components go via the hybrid)."""
    total = component.total_mass
    if abs(total - 1.0) > PROPER_SUM_TOL:
        raise ValueError(
            f"component is defective (weights sum to {total:.12f}); "
            "combine it through the hybrid module instead")
    weights = component.weights.copy()
    # Fold sub-tolerance residual into the largest weight.
    weights[np.argmax(weights)] += 1.0 - total
    return PhaseTypeModel(alpha=weights, A=generator(component.order),
                          meta={"kind": "bph", "order_bph": component.order,
                                **(meta or {})})


def bernstein_ccdf(component: BphComponent, xs) -> np.ndarray:
    """Direct closed-form CCDF of the component (no matrix exponential)."""
    return bernstein_he_ccdf(component.node_values, np.empty(0), np.empty(0),
                             np.asarray(xs, dtype=float))
