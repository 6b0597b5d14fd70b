"""Bernstein-PH body: weights from node values, fixed generator, CCDF.

Oracles: the exponential target (whose Bernstein approximant of any order
is exact at the nodes and converges uniformly), weights taken as CDF
increments, the matrix-exponential evaluation of the assembled model, and
hand-built small orders. A BPH-only model is the hybrid with no tail
terms, so its CCDF and assembly go through `hybrid`.
"""

import math

import numpy as np
import pytest

from heavytail_ph import bph, fitting, hybrid, phmodel
from heavytail_ph import targets as targets_mod

from conftest import cdf_increments


def ccdf_weights(Fbar, n):
    # build_from_ccdf takes the values at the nodes.
    return bph.build_from_ccdf([Fbar(x) for x in bph.grid_points(n)])


def test_grid_points_values():
    # [TRIVIAL] log(n/i) for i = 1..n, descending, last exactly 0.
    pts = bph.grid_points(4)
    assert pts == pytest.approx([math.log(4), math.log(2), math.log(4 / 3), 0.0])
    assert np.all(np.diff(pts) < 0)


def test_generator_structure():
    A = bph.generator(3)
    assert np.array_equal(np.diag(A), [-1.0, -2.0, -3.0])
    assert A[0, 1] == 1.0 and A[1, 2] == 2.0
    assert np.all(A[np.tril_indices(3, -1)] == 0)
    # Rows sum to 0 except the absorbing last row.
    assert A[:2].sum(axis=1) == pytest.approx([0.0, 0.0], abs=0)
    assert A[2].sum() == -3.0


def test_weights_are_cdf_increments(pareto):
    n = 20
    F = lambda x: 1.0 - targets_mod.ccdf(pareto, x)
    weights = ccdf_weights(lambda x: targets_mod.ccdf(pareto, x), n)
    pts = bph.grid_points(n)
    # [DERIVED] first weight is F(inf) - F(log n); the rest are increments.
    assert weights[0] == pytest.approx(1.0 - F(pts[0]), rel=1e-12)
    assert weights[5] == pytest.approx(F(pts[4]) - F(pts[5]), rel=1e-10)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_cdf_and_ccdf_builders_agree(pareto):
    F = lambda x: 1.0 - targets_mod.ccdf(pareto, x)
    Fbar = lambda x: targets_mod.ccdf(pareto, x)
    a = cdf_increments(F, 50)
    b = ccdf_weights(Fbar, 50)
    assert a == pytest.approx(b, abs=1e-15)


def test_non_monotone_input_rejected():
    with pytest.raises(ValueError, match="not monotone"):
        ccdf_weights(lambda x: math.sin(10.0 * x), 30)
    # Node values run from x = log n down to 0, so a CCDF's must not fall.
    with pytest.raises(ValueError, match="not monotone"):
        bph.build_from_ccdf([0.2, 0.5, 0.4])


def test_empty_input_rejected():
    # Order 0 has no body: refused here rather than laid out as a 0 x 0
    # model that fails later.
    with pytest.raises(ValueError, match="order"):
        bph.build_from_ccdf([])


def test_weights_are_read_only():
    weights = bph.build_from_ccdf([0.1, 0.4, 1.0])
    assert weights == pytest.approx([0.1, 0.3, 0.6])
    with pytest.raises(ValueError):
        weights[0] = 0.5


def test_bernstein_ccdf_matches_matrix_form(pareto):
    # [DERIVED] closed-form Bernstein sum vs uniformized matrix exponential
    # of the assembled (alpha, A) of the hybrid with no tail: same
    # distribution, two evaluators.
    hy = hybrid.build_hybrid(
        [], [], targets_mod.ccdf(pareto, bph.grid_points(40)))
    xs = np.linspace(0.0, 6.0, 30)
    closed = hybrid.hybrid_ccdf(hy, xs)
    matrix = phmodel.ccdf(hybrid.assemble(hy.weights, hy.he, 1.0, {}), xs)
    assert closed == pytest.approx(matrix, abs=1e-12)


def test_exponential_exact_at_nodes():
    # [DERIVED] at the nodes log(n/i) the Bernstein operator reproduces
    # e^{-x} exactly in the limit; at finite n the node values fed in are
    # exact, so the cumulative weights must equal e^{-node}.
    n = 25
    weights = ccdf_weights(lambda x: math.exp(-x), n)
    assert np.cumsum(weights) == pytest.approx(np.exp(-bph.grid_points(n)),
                                               rel=1e-12)


def test_approximation_improves_with_order():
    # [DERIVED] uniform error of the Bernstein approximant decreases in n.
    Fbar = lambda x: 1.0 / (1.0 + x)
    xs = np.linspace(0.0, 3.0, 100)
    exact = 1.0 / (1.0 + xs)
    errs = []
    for n in (10, 40, 160):
        hy = hybrid.build_hybrid([], [],
                                 [Fbar(x) for x in bph.grid_points(n)])
        errs.append(np.max(np.abs(hybrid.hybrid_ccdf(hy, xs) - exact)))
    assert errs[0] > errs[1] > errs[2]


def test_fit_bph_model_is_proper(pareto):
    # The weights telescope to the CCDF at 0, which is 1: the BPH-only fit
    # is a proper model with no residual to fold in.
    model = fitting.fit_bph(pareto, n=100).model
    assert model.is_proper
    assert float(model.alpha.sum()) == pytest.approx(1.0, abs=1e-15)
    assert model.meta["kind"] == "bph"
