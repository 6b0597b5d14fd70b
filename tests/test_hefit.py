"""Hyperexponential fitting: the forward recursion and the Newton solve
of the interpolation conditions.

Oracles: exact recovery of a known finite mixture from points on its own
CCDF, interpolation exactness (the defining property of the fit) on
heavy-tailed targets, a test-local copy of the Gauss-Seidel refinement the
Newton solve replaced, and central differences for its Jacobian.
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


def at(Fbar, points):
    """(points, Fbar at each point): the arguments of a fit."""
    return points, [Fbar(x) for x in points]


# -- point canonicalization ------------------------------------------------

def test_points_sorted_descending():
    pts, fx = hefit.canonical_points([1.0, 4.0, 2.0], [0.5, 0.1, 0.3])
    assert list(pts) == [4.0, 2.0, 1.0]
    assert list(fx) == [0.1, 0.3, 0.5]


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        hefit.canonical_points([1.0, 1.0, 2.0], [0.5, 0.5, 0.3])


def test_value_count_must_match_points():
    with pytest.raises(ValueError):
        hefit.canonical_points([1.0, 2.0], [0.5])


def test_nonpositive_points_rejected():
    with pytest.raises(ValueError):
        hefit.canonical_points([0.0, 1.0, 2.0], [1.0, 0.5, 0.3])


# -- complete fit ----------------------------------------------------------

def test_recovers_known_mixture_complete():
    # [DERIVED] fitting points on an exact 2-term mixture CCDF recovers it.
    p_true, lam_true = [0.3, 0.7], [0.2, 2.0]
    he = hefit.fit_complete(*at(mixture_ccdf(p_true, lam_true),
                                [8.0, 5.0, 1.0]))
    order = np.argsort(he.lam)
    assert he.lam[order] == pytest.approx(lam_true, rel=1e-9)
    assert he.p[order] == pytest.approx(p_true, rel=1e-9)
    assert not he.defective
    assert he.p.sum() == pytest.approx(1.0, abs=1e-12)


def test_single_term_complete():
    he = hefit.fit_complete([2.0], [math.exp(-0.5 * 2.0)])
    assert he.p == pytest.approx([1.0])
    assert he.lam == pytest.approx([0.5], rel=1e-12)


def test_complete_needs_odd_count():
    with pytest.raises(ValueError):
        hefit.fit_complete(*at(lambda x: math.exp(-x), [1.0, 2.0]))


def test_interpolation_exact_at_points(pareto):
    # The defining property: the mixture passes through the target CCDF
    # at every fit point (after refinement, to rounding).
    Fbar = lambda x: targets_mod.ccdf(pareto, x)
    pts = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    he = hefit.fit_complete(pts, targets_mod.ccdf(pareto, pts))
    for x in pts:
        assert hefit.he_ccdf(he, x) == pytest.approx(Fbar(x), rel=1e-10)


# -- defective fit ---------------------------------------------------------

def test_recovers_known_mixture_defective():
    # [DERIVED] defective fit of a sub-probability mixture recovers it.
    p_true, lam_true = [0.2, 0.4], [0.1, 1.5]
    he = hefit.fit_defective(*at(mixture_ccdf(p_true, lam_true),
                                 [20.0, 12.0, 2.0, 1.0]))
    order = np.argsort(he.lam)
    assert he.lam[order] == pytest.approx(lam_true, rel=1e-8)
    assert he.p[order] == pytest.approx(p_true, rel=1e-8)
    assert he.defective
    assert he.p.sum() < 1.0


def test_defective_needs_even_count():
    with pytest.raises(ValueError):
        hefit.fit_defective(*at(lambda x: math.exp(-x), [1.0, 2.0, 3.0]))


def test_defective_interpolates(lognormal):
    Fbar = lambda x: targets_mod.ccdf(lognormal, x)
    pts = [5.0, 9.0, 20.0, 45.0, 110.0, 300.0]
    he = hefit.fit_defective(pts, targets_mod.ccdf(lognormal, pts))
    for x in pts:
        assert hefit.he_ccdf(he, x) == pytest.approx(Fbar(x), rel=1e-10)
    assert he.p.sum() < 1.0


def test_bad_points_raise_invalid_model():
    # Points on a CCDF that decays faster than exponential between them
    # force a negative residual or out-of-range weight.
    Fbar = lambda x: math.exp(-x * x)
    with pytest.raises(InvalidModelError):
        hefit.fit_defective(*at(Fbar, [0.5, 1.0, 3.0, 6.0]))


def test_raw_fit_reports_nans_instead_of_raising():
    Fbar = lambda x: math.exp(-x * x)
    pts = [0.5, 1.0, 3.0, 6.0]
    p, lam = hefit.fit_defective_raw(pts, [Fbar(x) for x in pts])
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
    he = hefit.fit_defective(pts, targets_mod.ccdf(dist, pts))
    for x in pts:
        assert hefit.he_ccdf(he, x) == pytest.approx(Fbar(x), rel=1e-10)


# -- Newton solve against the Gauss-Seidel oracle --------------------------
#
# A test-local copy of the refinement the Newton solve replaced: after the
# forward pass, sweep over the terms and re-solve each pair (and, in the
# complete fit, the closing term) against the residual of all the others,
# until the mixture interpolates to 1e-12 (1e-10 after 200 sweeps).

def _gs_residual(f_x, x, p, lam):
    return math.fsum([f_x] + [-pj * math.exp(-lj * x)
                              for pj, lj in zip(p, lam)])


def _gs_pair(pts, fx, i, p, lam):
    x_far, x_near = pts[2 * i], pts[2 * i + 1]
    r_far = _gs_residual(fx[2 * i], x_far, p, lam)
    r_near = _gs_residual(fx[2 * i + 1], x_near, p, lam)
    if r_far <= 0 or r_near <= 0:
        raise InvalidModelError("nonpositive residual")
    lam_i = math.log(r_near / r_far) / (x_far - x_near)
    p_i = r_near * math.exp(lam_i * x_near)
    if lam_i <= 0 or not 0.0 < p_i < 1.0:
        raise InvalidModelError("term out of range")
    return p_i, lam_i


def _gs_closing(x_last, f_last, p, lam):
    p_k = 1.0 - math.fsum(p)
    ratio = _gs_residual(f_last, x_last, p, lam) / p_k
    if not (0.0 < p_k <= 1.0 and 0.0 < ratio < 1.0):
        raise InvalidModelError("closing term out of range")
    return p_k, -math.log(ratio) / x_last


def gauss_seidel_fit(Fbar, points, complete):
    """(p, lam, sweeps) of the forward pass refined by Gauss-Seidel."""
    pts = np.sort(np.asarray(points, dtype=float))[::-1]
    fx = [float(Fbar(x)) for x in pts]
    k = (pts.size + 1) // 2 if complete else pts.size // 2
    p, lam = [], []
    for i in range(k - 1 if complete else k):
        p_i, lam_i = _gs_pair(pts, fx, i, p, lam)
        p.append(p_i)
        lam.append(lam_i)
    if complete:
        p_k, lam_k = _gs_closing(pts[-1], fx[-1], p, lam)
        p.append(p_k)
        lam.append(lam_k)

    def interp_error():
        return max(abs(_gs_residual(f, x, p, lam)) / f
                   for x, f in zip(pts, fx))

    sweeps = 0
    while k > 1 and interp_error() > 1e-12 and sweeps < 200:
        for i in range(k):
            rest = (p[:i] + p[i + 1:], lam[:i] + lam[i + 1:])
            if complete and i == k - 1:
                p[i], lam[i] = _gs_closing(pts[-1], fx[-1], *rest)
            else:
                p[i], lam[i] = _gs_pair(pts, fx, i, *rest)
        sweeps += 1
    if interp_error() > 1e-10:
        raise InvalidModelError("Gauss-Seidel did not converge")
    return np.array(p), np.array(lam), sweeps


def assert_matches_oracle(Fbar, pts, complete):
    """Newton agrees with Gauss-Seidel to 1e-10 relative and interpolates
    to 1e-12; returns the oracle's sweep count, or None when the oracle
    finds the points infeasible."""
    try:
        p_gs, lam_gs, sweeps = gauss_seidel_fit(Fbar, pts, complete)
    except InvalidModelError:
        return None
    fit = hefit.fit_complete if complete else hefit.fit_defective
    he = fit(*at(Fbar, pts))
    assert he.p == pytest.approx(p_gs, rel=1e-10)
    assert he.lam == pytest.approx(lam_gs, rel=1e-10)
    for x in pts:
        assert hefit.he_ccdf(he, x) == pytest.approx(Fbar(x), rel=1e-12)
    return sweeps


@pytest.mark.parametrize("complete", [False, True],
                         ids=["defective", "complete"])
def test_newton_matches_gauss_seidel_oracle(all_targets, complete):
    # [DERIVED] both solve the same 2k interpolation conditions from the
    # same forward pass, so on point sets where the sweeps converge the
    # two solutions coincide to rounding.
    rng = np.random.default_rng(20261018)
    feasible = refined = 0
    for i in range(60):
        name = ("pareto", "burr", "lognormal", "weibull")[i % 4]
        Fbar = lambda x, d=all_targets[name]: targets_mod.ccdf(d, x)
        k = 2 + i % 3
        count = 2 * k - 1 if complete else 2 * k
        ratios = np.concatenate([[1.0], rng.uniform(1.6, 3.0, count - 1)])
        pts = rng.uniform(1.0, 5.0) * np.cumprod(ratios)
        sweeps = assert_matches_oracle(Fbar, pts, complete)
        if sweeps is not None:
            feasible += 1
            refined += sweeps > 0
    assert feasible >= 30 and refined >= 30


def test_newton_matches_oracle_on_weibull_default_start(weibull):
    # The default scaled-time start of the Weibull(5, 0.2) hybrid, where
    # the forward pass is far from interpolating: Gauss-Seidel needs over
    # a hundred sweeps, Newton a handful of iterations.
    from heavytail_ph import fitting
    from heavytail_ph.optimizer import pow2_points
    s = fitting.body_scale(weibull, 100)
    top = float(fitting.default_grid(weibull).points[-1])
    pts = pow2_points(8, s * math.log(100), top) / s
    Fbar = lambda t: targets_mod.ccdf(weibull, s * t)
    assert assert_matches_oracle(Fbar, pts, complete=False) > 100


def test_interpolation_system_jacobian_matches_differences():
    # [DERIVED] central differences of the residual in log p and log lam.
    rng = np.random.default_rng(7)
    pts = np.sort(rng.uniform(0.5, 20.0, 6))[::-1]
    fx = np.exp(-0.3 * pts) + 0.1 * np.exp(-0.05 * pts)
    theta = np.log(np.concatenate([rng.uniform(0.05, 0.3, 3),
                                   rng.uniform(0.02, 1.0, 3)]))
    residual = lambda th: hefit.interpolation_system(
        pts, fx, np.exp(th[:3]), np.exp(th[3:]))[0]
    _, jac = hefit.interpolation_system(pts, fx, np.exp(theta[:3]),
                                        np.exp(theta[3:]))
    h = 1e-6
    for i in range(6):
        e = np.zeros(6)
        e[i] = h
        col = (residual(theta + e) - residual(theta - e)) / (2 * h)
        assert jac[:, i] == pytest.approx(col, rel=1e-6, abs=1e-9)


# -- evaluation and conversion --------------------------------------------

def test_he_ccdf_vectorized():
    he = HyperExp(p=np.array([0.5, 0.5]), lam=np.array([1.0, 2.0]))
    xs = np.array([0.0, 1.0])
    vals = hefit.he_ccdf(he, xs)
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == pytest.approx(0.5 * math.exp(-1) + 0.5 * math.exp(-2))


@given(seed=st.integers(0, 10_000), k=st.integers(0, 12))
@settings(max_examples=40, deadline=None)
def test_he_ccdf_of_an_array_equals_scalar_exactly(seed, k):
    # The array path must give the scalar result at every point, bit for
    # bit: hybrid builds evaluate the tail on arrays and must equal the
    # per-point reference. k >= 8 covers numpy's unrolled pairwise sum.
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
