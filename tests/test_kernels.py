"""Kernels: the Bernstein+HE mixture CCDF against a literal evaluation of
its defining sum. The Lindley kernel's oracle, a naive loop, is in
test_simqueue.py.
"""

import math

import numpy as np
import pytest

from heavytail_ph import _backend


def naive_bernstein_he(node_vals, p, lam, x):
    # Literal evaluation of the defining sum, as the oracle.
    n = len(node_vals)
    total = 0.0
    for i in range(1, n + 1):
        total += (node_vals[i - 1] * math.comb(n, i)
                  * math.exp(-i * x) * (1.0 - math.exp(-x)) ** (n - i))
    for pj, lj in zip(p, lam):
        total += pj * math.exp(-lj * x)
    return total


def test_python_kernel_matches_naive_sum():
    rng = np.random.default_rng(0)
    node_vals = np.sort(rng.random(12))
    p = np.array([0.05, 0.02])
    lam = np.array([0.3, 3.0])
    xs = np.array([0.0, 0.4, 1.3, 6.0])
    got = _backend.bernstein_he_ccdf(node_vals, p, lam, xs)
    expect = [naive_bernstein_he(node_vals, p, lam, x) for x in xs]
    assert got == pytest.approx(expect, rel=1e-12)


def test_python_kernel_large_order_stable():
    # Log-space assembly must stay finite for orders where the raw
    # binomial coefficients overflow doubles (n >= 1030).
    n = 1200
    node_vals = 1.0 - np.exp(-np.linspace(5.0, 0.0, n))
    xs = np.array([0.1, 1.0, 5.0])
    vals = _backend.bernstein_he_ccdf(node_vals, np.empty(0), np.empty(0), xs)
    assert np.all(np.isfinite(vals))
    assert np.all(vals >= 0.0)


@pytest.mark.parametrize("n", [1, 2, 10, 100, 400])
def test_log_binomials_match_gammaln(n):
    # [ORACLE] scipy's log-gamma; the exact integers round once.
    from scipy.special import gammaln
    i = np.arange(1, n + 1, dtype=float)
    expect = gammaln(n + 1.0) - gammaln(i + 1.0) - gammaln(n - i + 1.0)
    np.testing.assert_allclose(_backend._log_binomials(n), expect,
                               rtol=0.0, atol=1e-12)


def test_backend_exports():
    assert callable(_backend.bernstein_he_ccdf)
    assert callable(_backend.lindley_waits)
    assert _backend.BACKEND_NAME == "python"
