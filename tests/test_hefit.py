"""Hyperexponential fitting: interpolation recursion and its refinement.

Oracles: exact recovery of a known finite mixture from points on its own
CCDF, and interpolation exactness (the defining property of the fit) on
heavy-tailed targets.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail_ph import hefit
from heavytail_ph import targets as targets_mod
from heavytail_ph.errors import InvalidModelError
from heavytail_ph.hefit import HyperExp


def mixture_ccdf(p, lam):
    return lambda x: float(np.exp(-np.asarray(lam) * x) @ np.asarray(p))


# -- point canonicalization ------------------------------------------------

def test_points_sorted_descending():
    pts = hefit.canonical_points([1.0, 4.0, 2.0], 3)
    assert list(pts) == [4.0, 2.0, 1.0]


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        hefit.canonical_points([1.0, 1.0, 2.0], 3)


def test_nonpositive_points_rejected():
    with pytest.raises(ValueError):
        hefit.canonical_points([0.0, 1.0, 2.0], 3)


# -- complete fit ----------------------------------------------------------

def test_recovers_known_mixture_complete():
    # [DERIVED] fitting points on an exact 2-term mixture CCDF recovers it.
    p_true, lam_true = [0.3, 0.7], [0.2, 2.0]
    he = hefit.fit_complete(mixture_ccdf(p_true, lam_true),
                            [8.0, 5.0, 1.0])
    order = np.argsort(he.lam)
    assert he.lam[order] == pytest.approx(lam_true, rel=1e-9)
    assert he.p[order] == pytest.approx(p_true, rel=1e-9)
    assert not he.defective
    assert he.total_weight == pytest.approx(1.0, abs=1e-12)


def test_single_term_complete():
    he = hefit.fit_complete(lambda x: math.exp(-0.5 * x), [2.0])
    assert he.p == pytest.approx([1.0])
    assert he.lam == pytest.approx([0.5], rel=1e-12)


def test_complete_needs_odd_count():
    with pytest.raises(ValueError):
        hefit.fit_complete(lambda x: math.exp(-x), [1.0, 2.0])


def test_interpolation_exact_at_points(pareto):
    # The defining property: the mixture passes through the target CCDF
    # at every fit point (after refinement, to rounding).
    Fbar = lambda x: targets_mod.ccdf(pareto, x)
    pts = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    he = hefit.fit_complete(Fbar, pts)
    for x in pts:
        assert hefit.he_ccdf(he, x) == pytest.approx(Fbar(x), rel=1e-10)


# -- defective fit ---------------------------------------------------------

def test_recovers_known_mixture_defective():
    # [DERIVED] defective fit of a sub-probability mixture recovers it.
    p_true, lam_true = [0.2, 0.4], [0.1, 1.5]
    he = hefit.fit_defective(mixture_ccdf(p_true, lam_true),
                             [20.0, 12.0, 2.0, 1.0])
    order = np.argsort(he.lam)
    assert he.lam[order] == pytest.approx(lam_true, rel=1e-8)
    assert he.p[order] == pytest.approx(p_true, rel=1e-8)
    assert he.defective
    assert he.total_weight < 1.0


def test_defective_needs_even_count():
    with pytest.raises(ValueError):
        hefit.fit_defective(lambda x: math.exp(-x), [1.0, 2.0, 3.0])


def test_defective_interpolates(lognormal):
    Fbar = lambda x: targets_mod.ccdf(lognormal, x)
    pts = [5.0, 9.0, 20.0, 45.0, 110.0, 300.0]
    he = hefit.fit_defective(Fbar, pts)
    for x in pts:
        assert hefit.he_ccdf(he, x) == pytest.approx(Fbar(x), rel=1e-10)
    assert he.total_weight < 1.0


def test_bad_points_raise_invalid_model():
    # Points on a CCDF that decays faster than exponential between them
    # force a negative residual or out-of-range weight.
    Fbar = lambda x: math.exp(-x * x)
    with pytest.raises(InvalidModelError):
        hefit.fit_defective(Fbar, [0.5, 1.0, 3.0, 6.0])


def test_raw_fit_reports_nans_instead_of_raising():
    Fbar = lambda x: math.exp(-x * x)
    p, lam = hefit.fit_defective_raw(Fbar, [0.5, 1.0, 3.0, 6.0])
    assert p.size == lam.size == 2
    assert np.any(~np.isfinite(p)) or np.any(lam < 0) or np.any(p > 1)


@given(scale=st.floats(min_value=1.5, max_value=4.0),
       spread=st.floats(min_value=1.8, max_value=2.6))
@settings(max_examples=25, deadline=None)
def test_geometric_points_interpolate_pareto(scale, spread):
    # Property: geometric point layouts in the tail (roughly one octave
    # per point, starting past the bulk) admit a valid defective fit that
    # interpolates. Denser or lower layouts legitimately fail: the target
    # is then locally steeper than any single exponential chord.
    dist = targets_mod.TargetDistribution(kind="pareto", params={"shape": 3.1})
    Fbar = lambda x: targets_mod.ccdf(dist, x)
    pts = scale * spread ** np.arange(6)
    he = hefit.fit_defective(Fbar, pts)
    for x in pts:
        assert hefit.he_ccdf(he, x) == pytest.approx(Fbar(x), rel=1e-10)


# -- evaluation and conversion --------------------------------------------

def test_he_ccdf_vectorized():
    he = HyperExp(p=np.array([0.5, 0.5]), lam=np.array([1.0, 2.0]))
    xs = np.array([0.0, 1.0])
    vals = hefit.he_ccdf(he, xs)
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == pytest.approx(0.5 * math.exp(-1) + 0.5 * math.exp(-2))


@given(seed=st.integers(0, 10_000), k=st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_he_ccdf_array_equals_scalar_exactly(seed, k):
    # The array path must give the scalar result at every point, bit for
    # bit: the hybrid residual evaluates the tail on arrays, and an ulp
    # there is amplified by the finite-difference gradient.
    rng = np.random.default_rng(seed)
    he = HyperExp(p=rng.random(k) / max(k, 1),
                  lam=10.0 ** rng.uniform(-4.0, 1.0, k))
    xs = np.concatenate([[0.0], 10.0 ** rng.uniform(-3.0, 4.0, 200)])
    vals = hefit.he_ccdf(he, xs)
    assert vals.shape == xs.shape
    for j in range(xs.size):
        assert vals[j] == hefit.he_ccdf(he, float(xs[j]))
    assert np.array_equal(hefit.he_ccdf(he, xs[1:].reshape(20, 10)),
                          vals[1:].reshape(20, 10))


def test_to_phase_type_matches_mixture():
    from heavytail_ph import phmodel
    he = HyperExp(p=np.array([0.25, 0.75]), lam=np.array([0.3, 3.0]))
    model = hefit.to_phase_type(he)
    xs = np.linspace(0.0, 10.0, 20)
    assert phmodel.ccdf(model, xs) == pytest.approx(hefit.he_ccdf(he, xs),
                                                    abs=1e-12)


def test_defective_mixture_not_serializable_alone():
    he = HyperExp(p=np.array([0.5]), lam=np.array([1.0]), defective=True)
    with pytest.raises(ValueError):
        hefit.to_phase_type(he)
