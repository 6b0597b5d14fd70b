"""Bernstein phase-type body: initial probabilities from a CCDF.

The initial probabilities (the body weights) are the increments of the
target CCDF at the points log(n/i); the generator is a fixed bidiagonal
matrix with rates 1..n that does not depend on the target. A BPH-only
model is the hybrid with no tail terms, laid out by `hybrid.assemble`.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidModelError

DEFAULT_ORDER = 100

# Negative BPH weights beyond this signal a non-monotone input evaluator.
WEIGHT_NEG_TOL = 1e-9


def grid_points(n: int) -> np.ndarray:
    """The evaluation points log(n/i), i = 1..n (descending, last is 0)."""
    i = np.arange(1, n + 1, dtype=float)
    return np.log(n / i)


def build_from_ccdf(values) -> np.ndarray:
    """Read-only weights from the CCDF values at grid_points(n), which must
    not fall from x = log n down to 0: [G(log n), G(log(n/2)) - G(log n),
    ..., G(0) - G(log(n/(n-1)))]. The first weight takes G(+inf) = 0, and
    G(0) may be below 1 (a defective body). No values (n < 1) raise
    ValueError; a falling value raises InvalidModelError."""
    vals = np.asarray(values, dtype=float)
    if vals.size < 1:
        raise ValueError("order must be >= 1")
    diffs = vals - np.concatenate(([0.0], vals[:-1]))
    if np.any(diffs < -WEIGHT_NEG_TOL):
        idx = int(np.argmin(diffs))
        raise InvalidModelError(
            f"negative BPH weight {diffs[idx]:.3e} at index {idx}: "
            "input evaluator is not monotone")
    weights = np.maximum(diffs, 0.0)
    weights.setflags(write=False)
    return weights


def generator(n: int) -> np.ndarray:
    """The fixed n x n bidiagonal sub-generator with rates 1..n."""
    if n < 1:
        raise ValueError("order must be >= 1")
    rates = np.arange(1, n + 1, dtype=float)
    A = np.diag(-rates)
    A[np.arange(n - 1), np.arange(1, n)] = rates[:-1]
    return A
