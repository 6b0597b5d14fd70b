"""Hybrid body/tail assembly: residual handling, block generator, CCDF.

Oracles: the matrix-exponential evaluation of the assembled model (the
closed-form CCDF must agree with it), structural checks on the block
generator, and the interpolation property inherited from the HE tail.
"""

import math
import warnings

import numpy as np
import pytest

from heavytail_ph import bph, fitting, hefit, hybrid, phmodel
from heavytail_ph import targets as targets_mod
from heavytail_ph._backend import bernstein_he_ccdf
from heavytail_ph.errors import InvalidModelError
from heavytail_ph.hefit import HyperExp
from heavytail_ph.hybrid import RESIDUAL_NEG_TOL
from heavytail_ph.optimizer import AdamConfig, pow2_points
from heavytail_ph.phmodel import PROB_NOISE_TOL


def build(Fbar, n, points):
    """The hybrid through Fbar at the points and the n BPH nodes."""
    return hybrid.build_hybrid(points, [Fbar(x) for x in points],
                               [Fbar(x) for x in bph.grid_points(n)])


def assembled(hy):
    """The hybrid laid out as a phase-type model in its own time."""
    return hybrid.assemble(hy.weights, hy.he, 1.0, {})


@pytest.fixture(scope="module")
def pareto_hybrid():
    dist = targets_mod.TargetDistribution(kind="pareto", params={"shape": 3.1})
    Fbar = lambda x: targets_mod.ccdf(dist, x)
    # A known-buildable point layout (from an optimized Pareto run).
    points = [8.67, 13.09, 24.5, 45.3, 94.1, 213.8, 591.2, 1375.1]
    return dist, Fbar, build(Fbar, 100, points)


def test_block_generator_structure(pareto_hybrid):
    _, _, hy = pareto_hybrid
    n, k = hy.weights.size, hy.he.k
    A = assembled(hy).A
    assert A.shape == (n + k, n + k)
    assert np.array_equal(A[:n, :n], bph.generator(n))
    assert np.array_equal(A[n:, n:], np.diag(-hy.he.lam))
    # No transitions between the body and tail blocks.
    assert np.all(A[:n, n:] == 0) and np.all(A[n:, :n] == 0)


def test_alpha_is_weights_then_tail(pareto_hybrid):
    _, _, hy = pareto_hybrid
    n, alpha = hy.weights.size, assembled(hy).alpha
    assert np.array_equal(alpha[:n], hy.weights)
    assert np.array_equal(alpha[n:], hy.he.p)
    assert alpha.sum() == pytest.approx(1.0, abs=1e-9)


def test_closed_form_matches_matrix(pareto_hybrid):
    # [DERIVED] two independent evaluators of the same distribution.
    _, _, hy = pareto_hybrid
    xs = np.linspace(0.0, 30.0, 50)
    closed = hybrid.hybrid_ccdf(hy, xs)
    matrix = phmodel.ccdf(assembled(hy), xs)
    assert closed == pytest.approx(matrix, abs=1e-10)


def test_assemble_divides_the_generator_by_the_scale(pareto_hybrid):
    _, _, hy = pareto_hybrid
    model = hybrid.assemble(hy.weights, hy.he, 4.0, {"tag": "x"})
    assert np.array_equal(model.A, assembled(hy).A / 4.0)
    assert model.meta == {"tag": "x"}


def test_he_only_layout_matches_mixture():
    # [DERIVED] an empty body lays a complete mixture out alone, as a
    # diagonal generator with the same CCDF.
    he = HyperExp(p=np.array([0.25, 0.75]), lam=np.array([0.3, 3.0]))
    model = hybrid.assemble(np.empty(0), he, 1.0, {})
    assert np.array_equal(model.A, np.diag(-he.lam))
    xs = np.linspace(0.0, 10.0, 20)
    assert phmodel.ccdf(model, xs) == pytest.approx(hefit.he_ccdf(he, xs),
                                                    abs=1e-12)


def test_tail_interpolates_target(pareto_hybrid):
    _, Fbar, hy = pareto_hybrid
    # Far beyond the body range the hybrid equals the HE tail, which
    # interpolates the target at the fit points.
    for x in (213.8, 591.2, 1375.1):
        assert hybrid.hybrid_ccdf(hy, x) == pytest.approx(Fbar(x), rel=1e-9)


def test_ccdf_at_zero_is_one(pareto_hybrid):
    _, _, hy = pareto_hybrid
    assert hybrid.hybrid_ccdf(hy, 0.0) == pytest.approx(1.0, abs=1e-9)


def test_k_zero_degenerates_to_bph(pareto_hybrid):
    dist, Fbar, _ = pareto_hybrid
    hy = build(Fbar, 50, [])
    assert hy.he.k == 0
    weights = bph.build_from_ccdf([Fbar(x) for x in bph.grid_points(50)])
    assert hy.weights == pytest.approx(weights, abs=1e-15)
    xs = np.linspace(0.0, 4.0, 10)
    assert hybrid.hybrid_ccdf(hy, xs) == pytest.approx(
        bernstein_he_ccdf(np.cumsum(weights), np.empty(0), np.empty(0), xs),
        abs=1e-15)


def test_overshooting_tail_rejected():
    # An HE tail that exceeds the target CCDF at a check point makes the
    # residual negative beyond tolerance and must be rejected.
    dist = targets_mod.TargetDistribution(kind="pareto", params={"shape": 3.1})
    Fbar = lambda x: targets_mod.ccdf(dist, x)
    # Points deep in the body: the exponential chords overshoot between them.
    with pytest.raises((InvalidModelError, ValueError)):
        build(Fbar, 100, [0.05, 0.1, 0.2, 0.4])


def test_residual_ccdf_clamps_small_dips():
    he = HyperExp(p=np.array([0.5]), lam=np.array([1.0]))
    # Fbar slightly below the HE tail at one point: within tolerance.
    Fbar = lambda x: 0.5 * np.exp(-x) - 1e-8 if np.isfinite(x) else 0.0
    with pytest.warns(UserWarning, match="clamped"):
        gbar = hybrid.residual_ccdf(he, [1.0], [Fbar(1.0)], [], [])
    assert gbar[0] == 0.0


def test_residual_ccdf_rejects_overshoot_at_a_fit_point():
    # The fit points are checked as well as the nodes: an overshoot seen
    # only at a fit point still fails the build.
    he = HyperExp(p=np.array([0.5]), lam=np.array([1.0]))
    Fbar = lambda x: 0.5 * math.exp(-x) + (1e-3 if x < 2.0 else -1e-5)
    nodes = [1.0, 0.0]
    at_nodes = [Fbar(x) for x in nodes]
    assert hybrid.residual_ccdf(he, nodes, at_nodes, [],
                                []) == pytest.approx([1e-3, 1e-3])
    with pytest.raises(InvalidModelError, match="overshoots"):
        hybrid.residual_ccdf(he, nodes, at_nodes, [3.0], [Fbar(3.0)])


def reference_build(Fbar, k, n, points):
    """(BPH weights, HE) of the hybrid built through per-point closures."""
    he = hefit.fit_defective(points, [float(Fbar(x)) for x in points])

    def gbar(x):
        val = float(Fbar(x)) - hefit.he_ccdf(he, float(x)) \
            if np.isfinite(x) else float(Fbar(x))
        return max(val, 0.0)

    check = np.concatenate([bph.grid_points(n), points])
    worst = min(float(Fbar(x)) - hefit.he_ccdf(he, float(x)) for x in check)
    if worst < -RESIDUAL_NEG_TOL:
        raise InvalidModelError("overshoot")
    vals = np.array([gbar(x) for x in bph.grid_points(n)])
    lower = np.concatenate(([gbar(math.inf)], vals[:-1]))
    return np.maximum(vals - lower, 0.0), he, worst


def test_array_build_equals_per_point_reference():
    # [DERIVED] on random point sets the array-native build reproduces the
    # per-point closure build exactly, or fails where it fails. The
    # default Pareto layout in the fit's scaled time sits on the
    # feasibility edge, so small jitters give clean builds, clamped
    # builds and overshoots.
    dist = targets_mod.TargetDistribution(kind="pareto", params={"shape": 3.1})
    s = fitting.body_scale(dist, 100)
    Fbar = lambda t: targets_mod.ccdf(dist, s * t)
    top = float(fitting.default_grid(dist).points[-1])
    base = pow2_points(8, s * math.log(100), top) / s
    rng = np.random.default_rng(7)
    built = clamped = overshoot = 0
    for _ in range(30):
        points = base * np.exp(rng.uniform(-3e-4, 3e-4, base.size))
        try:
            weights, he, worst = reference_build(Fbar, 4, 100, points)
        except InvalidModelError:
            with pytest.raises(InvalidModelError):
                build(Fbar, 100, points)
            overshoot += 1
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            hy = build(Fbar, 100, points)
        assert np.array_equal(hy.weights, weights)
        assert np.array_equal(hy.he.p, he.p)
        assert np.array_equal(hy.he.lam, he.lam)
        built += 1
        clamped += worst < -PROB_NOISE_TOL
    assert built >= 10 and clamped >= 1 and overshoot >= 1


def test_fit_assembles_the_dense_generator_once(pareto, monkeypatch):
    # The optimizer scores candidates through the closed-form CCDF; only
    # the final model of a fit is assembled into (alpha, A).
    calls = []
    generator = bph.generator
    monkeypatch.setattr(bph, "generator",
                        lambda n: calls.append(n) or generator(n))
    out = fitting.fit_bph_he(pareto, adam=AdamConfig(max_iters=20))
    assert len(out.trace) == 21
    assert calls == [100]
