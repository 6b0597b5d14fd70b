"""Bernstein phase-type body: initial probabilities from a CCDF.

The initial probabilities are the increments of the target CCDF at the
points log(n/i); the generator is a fixed bidiagonal matrix with rates 1..n
that does not depend on the target. A BPH-only model is the hybrid with no
tail terms (see `hybrid.build_hybrid`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import WEIGHT_NEG_TOL

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
    def node_values(self) -> np.ndarray:
        """Function values at log(n/i), i = 1..n (cumulative weights)."""
        return np.cumsum(self.weights)


def grid_points(n: int) -> np.ndarray:
    """The evaluation points log(n/i), i = 1..n (descending, last is 0)."""
    i = np.arange(1, n + 1, dtype=float)
    return np.log(n / i)


def build_from_ccdf(values) -> BphComponent:
    """Weights from the CCDF values at grid_points(n), which must not fall
    from x = log n down to 0: [G(log n), G(log(n/2)) - G(log n), ...,
    G(0) - G(log(n/(n-1)))]. The first weight takes G(+inf) = 0, and G(0)
    may be below 1 (a defective body)."""
    vals = np.asarray(values, dtype=float)
    diffs = vals - np.concatenate(([0.0], vals[:-1]))
    if np.any(diffs < -WEIGHT_NEG_TOL):
        idx = int(np.argmin(diffs))
        raise ValueError(
            f"negative BPH weight {diffs[idx]:.3e} at index {idx}: "
            "input evaluator is not monotone")
    return BphComponent(order=vals.size, weights=np.maximum(diffs, 0.0))


def generator(n: int) -> np.ndarray:
    """The fixed n x n bidiagonal sub-generator with rates 1..n."""
    if n < 1:
        raise ValueError("order must be >= 1")
    rates = np.arange(1, n + 1, dtype=float)
    A = np.diag(-rates)
    A[np.arange(n - 1), np.arange(1, n)] = rates[:-1]
    return A
