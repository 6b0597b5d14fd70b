"""The hot kernels: the Bernstein+HE mixture CCDF and the Lindley recursion.

Both are plain numpy, as is `as_grid`, the float-or-array argument of the
distribution functions; BACKEND_NAME names this single implementation.
"""

import math
from functools import cache

import numpy as np

BACKEND_NAME = "python"


def as_grid(x) -> tuple[np.ndarray, bool]:
    """x >= 0 as a float array of at least one dimension, and whether x was
    a scalar (whose result is then a float)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs < 0):
        raise ValueError("x must be nonnegative")
    return xs, np.ndim(x) == 0


@cache
def _log_binomials(n: int) -> np.ndarray:
    """log C(n, i) for i = 1..n: one rounding of each exact integer."""
    row = np.array([math.log(math.comb(n, i)) for i in range(1, n + 1)])
    row.flags.writeable = False
    return row


def bernstein_basis(n: int, xs) -> np.ndarray:
    """Bernstein basis on a grid: one row per x, one column per i = 1..n.

    Entry (x, i) is C(n,i) * e^{-ix} * (1-e^{-x})^{n-i}, assembled in log
    space to stay finite for large n; at x = 0 only the i = n function is
    nonzero. The row for x dotted with the node values is the Bernstein
    sum at x.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    i = np.arange(1, n + 1, dtype=float)
    log_binom = _log_binomials(n)
    basis = np.zeros((xs.size, n))
    pos = xs > 0.0
    x = xs[pos, None]
    basis[pos] = np.exp(log_binom - i * x + (n - i) * np.log1p(-np.exp(-x)))
    basis[~pos, n - 1] = 1.0
    return basis


def basis_he_ccdf(basis, node_vals, p, expo):
    """Mixture CCDF on the grid `basis` was built for, given the HE
    exponentials expo = e^{-lam x} there (see bernstein_he_ccdf)."""
    out = basis @ node_vals
    if p.size:
        out += expo @ p
    return out


def bernstein_he_ccdf(node_vals, p, lam, xs):
    """Closed-form mixture CCDF on a grid.

    node_vals[i-1] holds the approximated function's value at log(n/i),
    i = 1..n; the result at each x is

        sum_i node_vals[i-1] * C(n,i) * e^{-ix} * (1-e^{-x})^{n-i}
        + sum_j p[j] * e^{-lam[j] x}
    """
    node_vals = np.asarray(node_vals, dtype=float)
    xs = np.asarray(xs, dtype=float)
    out = basis_he_ccdf(bernstein_basis(node_vals.size, xs), node_vals,
                        np.asarray(p, dtype=float),
                        np.exp(-np.outer(xs, np.asarray(lam, dtype=float))))
    return out.reshape(xs.shape)


def lindley_waits(increments):
    """FIFO waiting times from per-job increments S_j - I_{j+1}.

    Returns W with W[0] = 0 and W[j+1] = max(0, W[j] + increments[j]),
    computed via the running-minimum identity on cumulative sums.
    """
    increments = np.asarray(increments, dtype=float)
    w = np.empty(increments.size + 1, dtype=float)
    w[0] = 0.0
    if increments.size:
        c = np.cumsum(increments)
        floor = np.minimum(np.minimum.accumulate(c), 0.0)
        w[1:] = c - floor
    return w
