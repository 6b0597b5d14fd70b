"""Target distributions: closed forms, tabulated interpolation, moments.

Oracles: hand-evaluated closed forms for the analytic kinds, scipy
quadrature cross-checks for the numeric moments, the exact integral of a
table's interpolant, and known exact moments (unit exponential, Pareto)
for the windowed statistics.
"""

import json
import math
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heavytail_ph import targets
from heavytail_ph.errors import NonConvergenceError
from heavytail_ph.targets import TargetDistribution


# -- construction and validation ------------------------------------------

def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        TargetDistribution(kind="cauchy", params={})


def test_missing_param_rejected():
    with pytest.raises(ValueError):
        TargetDistribution(kind="burr", params={"c": 2.0})


def test_nonpositive_param_rejected():
    with pytest.raises(ValueError):
        TargetDistribution(kind="pareto", params={"shape": -1.0})


def test_bad_window_rejected():
    with pytest.raises(ValueError):
        TargetDistribution(kind="pareto", params={"shape": 3.1},
                           window=(5.0, 1.0))
    with pytest.raises(ValueError):
        TargetDistribution(kind="pareto", params={"shape": 3.1},
                           window=(0.0, math.inf))


def test_table_must_decrease():
    with pytest.raises(ValueError):
        TargetDistribution(kind="tabulated", params={},
                           table=((1.0, 2.0), (0.5, 0.6)))


def test_table_with_a_negative_abscissa_rejected():
    # x is nonnegative: the CCDF is 1 at 0 and the first row's value from
    # 0+ on. With a row at x = -1 the interpolant would read 0.67 at 0+,
    # below the first row's 0.9, and levels between would have no x.
    with pytest.raises(ValueError, match="must be nonnegative"):
        TargetDistribution(kind="tabulated", params={},
                           table=((-1.0, 1.0, 2.0), (0.9, 0.5, 0.1)))


def test_table_with_a_nan_rejected():
    # NaN passes every order check, since each comparison with it is false:
    # a table must name it as out of range.
    for table, message in [(((0.0, math.nan, 2.0), (1.0, 0.5, 0.1)),
                             "must be nonnegative"),
                            (((0.0, 1.0, 2.0), (1.0, math.nan, 0.1)),
                             "must lie in")]:
        with pytest.raises(ValueError, match=message):
            TargetDistribution(kind="tabulated", params={}, table=table)


# -- closed-form values ---------------------------------------------------

def test_ccdf_at_origin_is_one(all_targets):
    # [TRIVIAL] no mass at zero for any analytic kind.
    for dist in all_targets.values():
        assert targets.ccdf(dist, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_pareto_ccdf_value(pareto):
    # [DERIVED] (1+x)^-3.1 at x=1 evaluated by hand.
    assert targets.ccdf(pareto, 1.0) == pytest.approx(2.0 ** -3.1, rel=1e-14)


def test_burr_ccdf_value(burr):
    # [DERIVED] 1/(1+x^c)^d at x=1, c=2, d=1.
    assert targets.ccdf(burr, 1.0) == pytest.approx(0.5, rel=1e-14)


def test_burr_pdf_value(burr):
    # [DERIVED] c d x^{c-1} / (1+x^c)^{d+1} at x=1.
    assert targets.pdf(burr, 1.0) == pytest.approx(0.5, rel=1e-13)


def test_weibull_ccdf_at_scale(weibull):
    # [DERIVED] exp(-(x/scale)^shape) = e^-1 at x=scale.
    assert targets.ccdf(weibull, 5.0) == pytest.approx(math.exp(-1.0),
                                                       rel=1e-14)


def test_lognormal_median(lognormal):
    # [DERIVED] CCDF at the median e^mu equals 1/2 for any sigma.
    assert targets.ccdf(lognormal, math.e) == pytest.approx(0.5, rel=1e-12)


def test_lognormal_ccdf_limits():
    # [DERIVED] erfc(z) rounds to 2 at and below z = -6 and to 0 from
    # z = 28 up, where z = (log x - mu) / (sigma sqrt 2): the CCDF is
    # exactly 1 and 0 there, also at x = 0 and x = inf. NaN stays NaN, and
    # a 2-d array keeps its shape.
    dist = TargetDistribution(kind="lognormal",
                              params={"mu": 0.0, "sigma": 1.0})
    z = np.array([[-6.0, -6.5, -27.0, -30.0], [28.0, 30.0, 100.0, 300.0]])
    got = targets.ccdf(dist, np.exp(z * math.sqrt(2.0)))
    assert got.tolist() == [[1.0] * 4, [0.0] * 4]
    assert targets.ccdf(dist, np.array([0.0, np.inf])).tolist() == [1.0, 0.0]
    assert math.isnan(targets.ccdf(dist, math.nan))


def test_negative_x_rejected(pareto):
    for op in (targets.ccdf, targets.pdf):
        with pytest.raises(ValueError):
            op(pareto, -0.5)


# -- structural properties -------------------------------------------------

@given(x=st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_complement_identity(x):
    dist = TargetDistribution(kind="pareto", params={"shape": 3.1})
    cdf = 1.0 - targets.ccdf(dist, x)
    assert abs(cdf + targets.ccdf(dist, x) - 1.0) <= 1e-14


def test_ccdf_nonincreasing(all_targets):
    xs = np.geomspace(1e-3, 1e5, 200)
    for dist in all_targets.values():
        vals = [targets.ccdf(dist, x) for x in xs]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


def test_pdf_integrates_to_cdf(pareto, weibull):
    from scipy.integrate import quad
    for dist, upper in ((pareto, 3.0), (weibull, 2.0)):
        total, _ = quad(lambda x: targets.pdf(dist, x), 0.0, upper, limit=200)
        assert total == pytest.approx(1.0 - targets.ccdf(dist, upper),
                                      abs=1e-6)


def test_ccdf_inverse_roundtrip(all_targets):
    for dist in all_targets.values():
        for level in (0.5, 1e-2, 1e-6, 1e-10):
            x = targets.ccdf_inverse(dist, level)
            assert targets.ccdf(dist, x) == pytest.approx(level, rel=1e-8)


def bisect_oracle(ccdf, pdf, u):
    """x with ccdf(x) = u for float functions ccdf and pdf, one value at a
    time: the bracket doubles from [0, 1], is halved to a width of
    1e-13 * max(hi, 1) (at most 200 times), and up to 8 Newton steps that
    stay inside it polish the midpoint. An oracle for the closed-form
    inverses, on the float CCDF and density alone."""
    lo, hi = 0.0, 1.0
    while ccdf(hi) > u:
        lo, hi = hi, hi * 2.0
    if hi == math.inf:
        raise NonConvergenceError(f"ccdf stays above u={u}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ccdf(mid) > u:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(hi, 1.0):
            break
    x = 0.5 * (lo + hi)
    for _ in range(8):
        fx = ccdf(x) - u
        dfx = -pdf(x)
        if dfx == 0.0 or not math.isfinite(dfx):
            break
        step = fx / dfx
        x_new = x - step
        if not (lo <= x_new <= hi):
            break
        x = x_new
        if abs(step) <= 1e-12 * max(x, 1e-300):
            break
    return x


def float_functions(dist):
    """The target's CCDF and density on floats."""
    return (lambda x: targets.ccdf(dist, x), lambda x: targets.pdf(dist, x))


_CLOSED_FORM_TARGETS = [
    TargetDistribution(kind="pareto", params={"shape": 3.1}),
    TargetDistribution(kind="pareto", params={"shape": 0.4}),
    TargetDistribution(kind="burr", params={"c": 2.0, "d": 1.0}),
    TargetDistribution(kind="burr", params={"c": 0.5, "d": 1.0}),
    TargetDistribution(kind="burr", params={"c": 2.0, "d": 0.05}),
    TargetDistribution(kind="weibull", params={"scale": 5.0, "shape": 0.2}),
    TargetDistribution(kind="weibull", params={"scale": 0.3, "shape": 3.0}),
]
_COARSE_TABLE = ((0.5, 2.0, 10.0, 40.0), (0.9, 0.4, 0.05, 0.004))
_SOLVED_TARGETS = [
    TargetDistribution(kind="lognormal", params={"mu": 1.0, "sigma": 2.0}),
    TargetDistribution(kind="lognormal", params={"mu": -2.0, "sigma": 0.2}),
    TargetDistribution(kind="lognormal", params={"mu": 3.0, "sigma": 3.0}),
    TargetDistribution(kind="tabulated", params={}, table=_COARSE_TABLE),
]


def _ids(dist):
    return "-".join([dist.kind, *map(str, dist.params.values())])


@pytest.mark.parametrize("dist", _CLOSED_FORM_TARGETS, ids=_ids)
def test_closed_form_inverse_matches_bisection(dist):
    # [ORACLE] the bisection with Newton polish, one value at a time. An
    # array of u gives the float results, value by value.
    us = np.geomspace(1e-12, 0.5, 60)
    xs = targets.ccdf_inverse(dist, us)
    ref = [bisect_oracle(*float_functions(dist), u) for u in us.tolist()]
    np.testing.assert_allclose(xs, ref, rtol=1e-10, atol=0.0)
    assert xs.tolist() == [targets.ccdf_inverse(dist, u) for u in us.tolist()]


def _table_inverse(table, u):
    """x where the table's log-linear interpolant, or past its last row the
    power law through its last two rows, equals u (u below the first row's
    CCDF): the interpolation of x against log ccdf, read backwards."""
    tx, cc = (np.asarray(c, dtype=float) for c in table)
    slope = math.log(cc[-1] / cc[-2]) / math.log(tx[-1] / tx[-2])
    return np.where(u < cc[-1], tx[-1] * (u / cc[-1]) ** (1.0 / slope),
                    np.interp(np.log(u), np.log(cc[::-1]), tx[::-1]))


@pytest.mark.parametrize("dist", _SOLVED_TARGETS, ids=_ids)
def test_array_bisection_matches_one_value_at_a_time(dist):
    # [ORACLE] independent of the solver's path:
    # - Lognormal, u <= 0.5: the exact inverse exp(mu - sigma Phi^-1(u)), to
    #   2e-14 relative. The solver's start is that inverse, and its last
    #   Newton step moves it to the root of the computed CCDF: 8e-15 away
    #   for Lognormal(1, 2), 1.2e-14 for Lognormal(3, 3) at u = 1e-12.
    # - Lognormal, u > 0.5: near u = 1 the CCDF is 1 - O(1e-12) and rounds,
    #   which moves its exact inverse by up to 2e-5 relative here, so the check
    #   is the residual: |ccdf(x) - u| <= 2^-50. That allows for the CCDF's
    #   step between adjacent floats x, up to x pdf(x) 2^-52 = 2^-51 for
    #   Lognormal(-2, 0.2), and for its rounding, 2^-54 near 1.
    # - Table: the closed-form inverse of its interpolant, also at and next
    #   to its rows, to 1e-14 relative. Above u = 0.9 there is no solution
    #   (the CCDF jumps from 1 at 0 to 0.9): x must be a point within 1e-13
    #   of 0.
    # An array of u gives the float results, value by value (checked on
    # every 8th u), and a 2-d array the same values.
    tail = np.geomspace(1e-12, 0.5, 200)
    us = np.concatenate([tail, 1.0 - tail])
    xs = targets.ccdf_inverse(dist, us)
    if dist.kind == "lognormal":
        mu, sigma = dist.params["mu"], dist.params["sigma"]
        ref = [math.exp(mu - sigma * NormalDist().inv_cdf(u))
               for u in tail.tolist()]
        np.testing.assert_allclose(xs[:200], ref, rtol=2e-14, atol=0.0)
        assert np.abs(targets.ccdf(dist, xs[200:]) - us[200:]).max() <= 2**-50
    else:
        rows = np.asarray(dist.table[1][1:])
        levels = np.concatenate([us[us < 0.9], rows,
                                 np.nextafter(rows, 0.0),
                                 np.nextafter(rows, 1.0)])
        np.testing.assert_allclose(targets.ccdf_inverse(dist, levels),
                                   _table_inverse(dist.table, levels),
                                   rtol=1e-14, atol=0.0)
        assert np.all((xs[us > 0.9] > 0.0) & (xs[us > 0.9] <= 1e-13))
    assert xs[::8].tolist() == [targets.ccdf_inverse(dist, u)
                                for u in us[::8].tolist()]
    assert np.array_equal(targets.ccdf_inverse(dist, us.reshape(20, 20)),
                          xs.reshape(20, 20))


def test_table_level_without_a_solution_takes_no_solver_step(monkeypatch):
    # At or above the first row's CCDF (0.9) the table's CCDF has no
    # solution but x -> 0+: such a level gets the least positive float,
    # with no CCDF evaluation, alone or in an array.
    dist = TargetDistribution(kind="tabulated", params={}, table=_COARSE_TABLE)
    calls = []
    ccdf = targets.ccdf
    monkeypatch.setattr(targets, "ccdf",
                        lambda d, x: calls.append(np.size(x)) or ccdf(d, x))
    assert targets.ccdf_inverse(dist, 0.95) == math.ulp(0.0)
    assert targets.ccdf_inverse(dist, 0.9) == math.ulp(0.0)
    xs = targets.ccdf_inverse(dist, np.array([0.99, 0.5, 0.9]))
    assert xs[[0, 2]].tolist() == [math.ulp(0.0)] * 2
    assert calls == []


def test_lognormal_inverse_takes_the_array_path(monkeypatch):
    # 10,000 draws cost one CCDF call per bracket level (14 here) and one
    # array call for the Newton step that confirms every draw's closed-form
    # start. Every draw still doubling its bracket has the same upper end,
    # so each level is one float call. The CCDF values evaluated count the
    # work: 1.0014 per draw here, 5.3 from the bracket's midpoint, 8.7 with
    # a value per draw at each level, 47.8 for a bisection to 1e-13
    # relative.
    dist = TargetDistribution(kind="lognormal",
                              params={"mu": 1.0, "sigma": 2.0})
    calls = []
    ccdf = targets.ccdf
    monkeypatch.setattr(targets, "ccdf",
                        lambda d, x: calls.append(np.shape(x)) or ccdf(d, x))
    us = np.random.default_rng(0).random(10_000)
    xs = targets.ccdf_inverse(dist, us)
    levels = 1 + math.ceil(math.log2(xs.max()))  # 1, 2, ..., 2^13
    assert calls[:levels] == [()] * levels
    assert calls[levels:] == [us.shape]
    sizes = [math.prod(shape) for shape in calls]
    assert sum(sizes) <= 1.01 * us.size


def test_table_inverse_starts_at_the_interpolant(monkeypatch):
    # A table's draw is the inverse of its interpolant, in closed form:
    # 10,000 uniform draws on the coarse table evaluate no CCDF and no
    # density, and take no solver step.
    dist = TargetDistribution(kind="tabulated", params={}, table=_COARSE_TABLE)
    calls = []
    for name in ("ccdf", "pdf", "_tabulated_ccdf", "_safeguarded_newton"):
        fn = getattr(targets, name)
        monkeypatch.setattr(targets, name, lambda *a, fn=fn, name=name:
                            calls.append(name) or fn(*a))
    us = np.random.default_rng(0).random(10_000)
    xs = targets.ccdf_inverse(dist, us)
    assert calls == []
    below = us < 0.9
    np.testing.assert_allclose(xs[below], _table_inverse(dist.table,
                                                         us[below]),
                               rtol=1e-14, atol=0.0)


def test_solved_draws_are_pinned():
    # [REGRESSION] 20 draws of a Lognormal and of a table at a fixed seed,
    # exact to the bit: the Lognormal's as recorded when the solver started
    # at the closed-form inverse, the table's as recorded when its draws
    # became the closed form alone. The two table draws at u >= 0.9 are the
    # least positive float.
    lognormal = TargetDistribution(kind="lognormal",
                                   params={"mu": 1.0, "sigma": 2.0})
    table = TargetDistribution(kind="tabulated", params={},
                               table=_COARSE_TABLE)
    assert targets.ccdf_inverse(
        lognormal, np.random.default_rng(41).random(20)).tolist() == [
        0.0931990180283933, 0.6286960839773533, 26.877588105372176,
        0.412854705084791, 0.34475422121628985, 5.88151073545919,
        2.5671460109755673, 1.616646067175393, 6.24189887257837,
        1.4616164743741016, 0.7860852214197008, 0.3102293042854566,
        6.276522861241773, 3.882067852637537, 1.6877079495488663,
        0.05268653815285052, 0.14657664008245497, 62.507207845943675,
        0.6407601210809589, 20.271117134328083]
    assert targets.ccdf_inverse(
        table, np.random.default_rng(43).random(20)).tolist() == [
        1.0954112482049392, 11.579180736756083, 20.865923582596146,
        0.6293527695051746, 1.290067268407649, 4.218576787062212,
        0.8328302020687259, 3.6030536447953576, 1.9098487775557818,
        1.777898797314163, 5e-324, 0.5167194531327761, 3.39102328987327,
        3.3923867009785287, 1.9009660294080746, 39.77141403908923,
        2.9939976740677468, 5e-324, 0.6315754286805106, 1.4616517584447166]


@pytest.mark.filterwarnings("error")
def test_subnormal_density_gives_a_midpoint_step():
    # [ORACLE] exp(mu - sigma Phi^-1(u)). Started at x = 0.5, where z = 38
    # and the density of Lognormal(-4.5, 0.1) is subnormal (1e-314), every
    # draw's Newton step overflows, without a warning, and the midpoint is
    # taken instead.
    dist = TargetDistribution(kind="lognormal",
                              params={"mu": -4.5, "sigma": 0.1})
    us = np.geomspace(1e-12, 0.5, 50)
    ref = [math.exp(-4.5 - 0.1 * NormalDist().inv_cdf(u))
           for u in us.tolist()]
    xs = targets._safeguarded_newton(dist, us, np.full(us.shape, 0.5))
    np.testing.assert_allclose(xs, ref, rtol=1e-12, atol=0.0)


@pytest.mark.filterwarnings("error")
def test_unreachable_level_in_an_array_raises():
    # [DERIVED] past x = 2 this table falls as x^-4.8e-7, to 0.29990 at the
    # largest float: u = 0.1 lies beyond it, u = 0.5 and 0.29995 (at x
    # about 2e150) do not. The doubling bracket overflows without a warning.
    dist = TargetDistribution(kind="tabulated", params={},
                              table=((0.0, 1.0, 2.0), (1.0, 0.3, 0.2999999)))
    assert 1e150 < targets.ccdf_inverse(dist, 0.29995) < 4e150
    with pytest.raises(NonConvergenceError, match="u=0.1 "):
        targets.ccdf_inverse(dist, np.array([0.5, 0.1, 0.29995]))


@pytest.mark.parametrize("kind, params", [
    ("weibull", {"scale": 5.0, "shape": 0.2}),
    ("burr", {"c": 0.5, "d": 1.0}),
    ("lognormal", {"mu": 0.0, "sigma": 10.0}),
], ids=["weibull-5-0.2", "burr-0.5-1", "lognormal-0-10"])
def test_inverse_near_one_is_exact(kind, params):
    # [DERIVED] at u = 1 - 1e-12, x is about 5e-60 for this Weibull, 1e-24
    # for this Burr and 2.8e-31 for this Lognormal (2.3e-21 at 1 - 1e-6).
    # A solver that stops at an absolute width of 1e-13 below x = 1 returns
    # about 2.8e-14, where this Weibull's CCDF is 0.9986 and this
    # Lognormal's is 1 - 9.1e-4.
    dist = TargetDistribution(kind=kind, params=params)
    for u in (1.0 - 1e-12, 1.0 - 1e-6):
        x = targets.ccdf_inverse(dist, u)
        assert abs(targets.ccdf(dist, x) - u) <= 2**-50


def test_burr_inverse_past_the_exponential_overflow():
    # [DERIVED] Burr(2, 0.01) at u = 1e-4: x = (u^-100 - 1)^(1/2), about
    # 1e200, though u^-100 = 1e400 overflows a float.
    dist = TargetDistribution(kind="burr", params={"c": 2.0, "d": 0.01})
    x = targets.ccdf_inverse(dist, 1e-4)
    assert x == pytest.approx(1e200, rel=1e-12)
    assert targets.ccdf(dist, x) == pytest.approx(1e-4, rel=1e-12)


def test_inverse_beyond_the_largest_float_raises():
    # [DERIVED] Pareto(1e-3) at u = 1e-10 lies at x = e^23026, past 1.8e308.
    dist = TargetDistribution(kind="pareto", params={"shape": 1e-3})
    with pytest.raises(NonConvergenceError):
        targets.ccdf_inverse(dist, 1e-10)
    with pytest.raises(NonConvergenceError):
        targets.ccdf_inverse(dist, np.array([0.5, 1e-10]))


def test_inverse_rejects_u_outside_the_unit_interval(all_targets):
    for dist in all_targets.values():
        for u in (0.0, 1.0, -0.5, math.nan, np.array([0.5, 1.0])):
            with pytest.raises(ValueError):
                targets.ccdf_inverse(dist, u)


# -- numeric moments -------------------------------------------------------

def test_pareto_windowed_mean(pareto):
    # [DERIVED] exact mean of (1+x)^-3.1 is 1/2.1; the 1e6 window
    # truncation error is far below 1e-4 relative.
    m1 = targets.numeric_moment(pareto, 1)
    assert m1 == pytest.approx(1.0 / 2.1, rel=1e-4)


def test_unit_exponential_tabulated_mean():
    # [TRIVIAL] tabulated e^-x has mean 1 (integral of the CCDF).
    xs = np.linspace(0.01, 50.0, 400)
    dist = TargetDistribution(kind="tabulated", params={},
                              table=(tuple(xs), tuple(np.exp(-xs))),
                              window=(0.0, 50.0))
    m1 = targets.numeric_moment(dist, 1)
    assert m1 == pytest.approx(1.0, rel=1e-3)


def test_burr_mean_approaches_half_pi(burr):
    # [DERIVED] Burr(2,1) mean is Gamma(1.5)Gamma(0.5) = pi/2 on [0, inf);
    # the truncated value converges from below as the window grows.
    m_small = targets.numeric_moment(replace(burr, window=(0.0, 1e3)), 1)
    m_large = targets.numeric_moment(burr, 1)
    assert m_small < m_large < math.pi / 2
    assert m_large == pytest.approx(math.pi / 2, rel=2e-3)


def test_numeric_stats_cv(pareto):
    # [DERIVED] Pareto(3.1): m2 = 2/(2.1*1.1), cv from exact moments.
    m1, m2, cv = targets.numeric_stats(pareto)
    m1_exact = 1.0 / 2.1
    m2_exact = 2.0 / (2.1 * 1.1)
    assert m1 == pytest.approx(m1_exact, rel=1e-6)
    assert m2 == pytest.approx(m2_exact, rel=1e-6)
    assert cv == pytest.approx(
        math.sqrt(m2_exact - m1_exact ** 2) / m1_exact, rel=1e-5)


def test_moment_order_validated(pareto):
    with pytest.raises(ValueError):
        targets.numeric_moment(pareto, 3)


# Oracles for the Gauss-Legendre moments: scipy's adaptive quadrature for
# the analytic families, and the exact integral of a table's interpolant.

def quad_moment(dist, order, window):
    """order * integral of x^(order-1) * ccdf over the window, by quad on
    doubling segments from 1e-3, each to 1e-13 relative or 1e-300 absolute.
    The absolute floor, like numeric_moment's MOMENT_ABS_TOL, lets a segment
    converge where the CCDF is subnormal: 1e-13 of a subnormal integral is
    below the rounding of its own terms, and quad then warns of roundoff."""
    from scipy.integrate import quad
    x_min, x_max = window
    breaks = [x_min]
    b = max(x_min, 1e-3)
    while b < x_max:
        breaks.append(b)
        b *= 2.0
    breaks = sorted(set(breaks + [x_max]))
    pieces = [quad(lambda x: x ** (order - 1) * targets.ccdf(dist, x), a, b,
                   epsrel=1e-13, epsabs=1e-300, limit=500)[0]
              for a, b in zip(breaks[:-1], breaks[1:])]
    return order * math.fsum(pieces)


def exact_tabulated_moment(dist, order, window):
    """Closed-form moment of a table's CCDF: flat cc[0] below the first
    abscissa, exp(A + s*x) between abscissae, cc[-1] * (x/xs[-1])^slope
    beyond the last."""
    xs, cc = dist.table
    x_min, x_max = window
    logc = np.log(cc)
    pieces = []
    a, b = x_min, min(x_max, xs[0])
    if b > a:
        pieces.append(cc[0] * (b ** order - a ** order))
    for j in range(xs.size - 1):
        a, b = max(x_min, xs[j]), min(x_max, xs[j + 1])
        if b <= a:
            continue
        s = (logc[j + 1] - logc[j]) / (xs[j + 1] - xs[j])
        ea, h = math.exp(logc[j] + s * (a - xs[j])), b - a
        if s == 0.0:
            pieces.append(ea * (b ** order - a ** order))
        elif order == 1:
            pieces.append(ea * math.expm1(s * h) / s)
        else:
            pieces.append(2.0 * ea * (math.expm1(s * h) * (b / s - 1.0 / s ** 2)
                                      + h / s))
    a, b = max(x_min, xs[-1]), x_max
    if b > a:
        slope = (logc[-1] - logc[-2]) / (math.log(xs[-1]) - math.log(xs[-2]))
        e = order + slope
        pieces.append(order * cc[-1] * xs[-1] ** -slope
                      * (b ** e - a ** e) / e)
    return math.fsum(pieces)


_PARAM_RANGES = {
    "pareto": {"shape": (0.3, 6.0)},
    "burr": {"c": (0.3, 5.0), "d": (0.3, 5.0)},
    "lognormal": {"mu": (0.05, 3.0), "sigma": (0.2, 3.0)},
    "weibull": {"scale": (0.05, 20.0), "shape": (0.15, 4.0)},
}


@st.composite
def windowed_targets(draw):
    kind = draw(st.sampled_from(targets.ANALYTIC_KINDS))
    params = {name: draw(st.floats(lo, hi))
              for name, (lo, hi) in _PARAM_RANGES[kind].items()}
    x_min = draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
    x_max = max(x_min, 1e-3) * math.exp(draw(st.floats(0.5, 14.0)))
    return TargetDistribution(kind=kind, params=params, window=(x_min, x_max))


@given(dist=windowed_targets())
@settings(max_examples=40, deadline=None)
def test_moments_match_quad(dist):
    # [ORACLE] scipy quad. Windows that start where the CCDF is below
    # 1e-100 are skipped: there the moment is set by the rounding of the
    # window's own end points.
    assume(targets.ccdf(dist, dist.window[0]) > 1e-100)
    for order in (1, 2):
        got = targets.numeric_moment(dist, order)
        assert got == pytest.approx(quad_moment(dist, order, dist.window),
                                    rel=1e-12)


def test_moments_past_the_ccdf_underflow():
    # [DERIVED] Pareto(3.1) on (0, 1e200): m1 = 1/2.1, m2 = 2/(2.1 * 1.1),
    # though x^2 overflows and the CCDF underflows in the window's top half.
    dist = TargetDistribution(kind="pareto", params={"shape": 3.1},
                              window=(0.0, 1e200))
    assert targets.numeric_moment(dist, 1) == pytest.approx(1 / 2.1,
                                                            rel=1e-12)
    assert targets.numeric_moment(dist, 2) == pytest.approx(2 / (2.1 * 1.1),
                                                            rel=1e-12)


def _windowed_moment(kind, p, a, b, k):
    """k * integral of x^(k-1) * ccdf over (a, b), in closed form: for the
    unit exponential 1 - e^-x, and for the lognormal
    [x^k * ccdf]_a^b + integral of x^k * pdf."""
    if kind == "weibull":
        return k * (math.exp(-a) * (a + 1.0) ** (k - 1)
                    - math.exp(-b) * (b + 1.0) ** (k - 1))
    mu, s = p["mu"], p["sigma"]
    q = lambda z: 0.5 * math.erfc(z / math.sqrt(2.0))  # noqa: E731
    za, zb = (math.log(a) - mu) / s, (math.log(b) - mu) / s
    return (b ** k * q(zb) - a ** k * q(za)
            + math.exp(k * mu + 0.5 * (k * s) ** 2)
            * (q(za - k * s) - q(zb - k * s)))


@pytest.mark.parametrize("kind, params, window", [
    ("weibull", {"scale": 1.0, "shape": 1.0}, (730.0, 740.0)),
    ("lognormal", {"mu": 0.1, "sigma": 0.5}, (2e8, 2.05e8)),
], ids=["weibull-730-740", "lognormal-2e8"])
def test_subnormal_moments_converge(kind, params, window):
    # [DERIVED] windows where the CCDF is subnormal, and so are both
    # Weibull moments and the Lognormal m1. A subnormal near 1e-316 holds
    # about 7 digits.
    dist = TargetDistribution(kind=kind, params=params, window=window)
    assert targets.ccdf(dist, window[0]) < 2.3e-308
    for order in (1, 2):
        assert targets.numeric_moment(dist, order) == pytest.approx(
            _windowed_moment(kind, params, *window, order), rel=1e-5)


@pytest.mark.parametrize("dist, message", [
    (TargetDistribution(kind="pareto", params={"shape": 1.3},
                        window=(0.0, 1e270)), "segments pending"),
    (TargetDistribution(kind="pareto", params={"shape": 0.5},
                        window=(0.0, 1e300)), "not finite"),
    (TargetDistribution(kind="tabulated", params={}, window=(0.0, 1e308),
                        table=((1e153, 1e154), (1.0, 0.01))), "not finite"),
], ids=["integrand-hidden-by-underflow", "integrand-overflows",
        "sum-overflows"])
def test_unresolvable_second_moment_raises(dist, message):
    # x^2 * ccdf(x) = x^0.7 still grows where Pareto(1.3)'s CCDF underflows,
    # so halving never ends; the bound on pending segments stops it after
    # about ten levels, where 30 would take seconds and hundreds of MB. For
    # Pareto(0.5) the integrand exceeds the largest float; the table holds
    # it at 1e306 over 354 unit segments of log x, each finite, their sum
    # not.
    with pytest.raises(NonConvergenceError, match=message):
        targets.numeric_moment(dist, 2)


def test_acceptance_target_stats_match_quad(all_targets):
    # [ORACLE] scipy quad on the default window (0, 1e6): m1, m2 and CV.
    for dist in all_targets.values():
        m1, m2, cv = targets.numeric_stats(dist)
        q1 = quad_moment(dist, 1, dist.window)
        q2 = quad_moment(dist, 2, dist.window)
        assert m1 == pytest.approx(q1, rel=1e-12)
        assert m2 == pytest.approx(q2, rel=1e-12)
        assert cv == pytest.approx(math.sqrt(q2 - q1 * q1) / q1, rel=1e-12)


_EXP_XS = np.linspace(0.01, 50.0, 400)


@pytest.mark.parametrize("table, windows", [
    (_COARSE_TABLE, [(0.0, 1e4), (0.3, 30.0), (1.0, 1e6)]),
    ((tuple(_EXP_XS), tuple(np.exp(-_EXP_XS))),
     [(0.0, 50.0), (0.3, 30.0), (1.0, 1e5)]),
], ids=["coarse-4-rows", "exp-400-rows"])
def test_tabulated_moments_are_exact(table, windows):
    # [DERIVED] the piecewise log-linear interpolant and its power-law
    # continuation integrate in closed form.
    dist = TargetDistribution(kind="tabulated", params={}, table=table)
    for window in windows:
        for order in (1, 2):
            got = targets.numeric_moment(replace(dist, window=window), order)
            assert got == pytest.approx(
                exact_tabulated_moment(dist, order, window), rel=1e-12)


def test_array_calls_equal_float_calls(all_targets):
    # Each value of an array ccdf or pdf call equals the float call, bit for
    # bit, for every kind, and the result keeps the array's shape.
    tabulated = TargetDistribution(kind="tabulated", params={},
                                   table=_COARSE_TABLE)
    rng = np.random.default_rng(0)
    xs = np.concatenate([[0.0], np.exp(rng.uniform(-12.0, 10.0, 500)),
                         [1e160, 1e300]])
    for dist in [*all_targets.values(), tabulated]:
        for fn in (targets.ccdf, targets.pdf):
            vals = fn(dist, xs)
            floats = [fn(dist, x) for x in xs.tolist()]
            assert all(type(v) is float for v in floats)
            assert np.array_equal(vals, floats)
            assert np.array_equal(fn(dist, xs[:500].reshape(50, 10)),
                                  vals[:500].reshape(50, 10))


@pytest.mark.filterwarnings("error")
def test_burr_past_the_power_overflow():
    # x ** 2 overflows a float above about 1.34e154, and (1 + x ** 2) ** 1.01
    # in the density above about 1e153; Burr(2, 0.01) still has CCDF about
    # 1e-3 there, and it falls as x^-0.02 (the log form). A numpy float64
    # takes the same path as a float, without an overflow warning.
    dist = TargetDistribution(kind="burr", params={"c": 2.0, "d": 0.01})
    xs = [1e153, 1e154, 2e154, 1e160, 1e200, 1e250, 1e300, 1.7e308]
    scalar = np.array([targets.ccdf(dist, x) for x in xs])
    for x in xs:
        assert targets.ccdf(dist, np.float64(x)) == targets.ccdf(dist, x)
        assert targets.pdf(dist, np.float64(x)) == targets.pdf(dist, x)
    np.testing.assert_allclose(targets.ccdf(dist, np.array(xs)),
                               scalar, rtol=1e-14, atol=0.0)
    assert np.all(scalar > 0.0)
    assert np.all(np.diff(scalar) < 0.0)
    np.testing.assert_allclose(scalar, np.array(xs) ** -0.02, rtol=1e-12)
    # The density agrees with a central difference of the CCDF.
    for x in xs[:-1]:
        h = 1e-6 * x
        slope = (targets.ccdf(dist, x - h) - targets.ccdf(dist, x + h)) / (2 * h)
        assert targets.pdf(dist, x) == pytest.approx(slope, rel=1e-5)


# -- tabulated interpolation ----------------------------------------------

def test_tabulated_log_linear_midpoint():
    # [DERIVED] log-linear between (1, 1e-1) and (3, 1e-3) gives 1e-2 at 2.
    dist = TargetDistribution(kind="tabulated", params={},
                              table=((1.0, 3.0), (1e-1, 1e-3)))
    assert targets.ccdf(dist, 2.0) == pytest.approx(1e-2, rel=1e-12)


def test_tabulated_flat_head_and_power_tail():
    dist = TargetDistribution(kind="tabulated", params={},
                              table=((1.0, 10.0), (0.5, 0.05)))
    # Flat extension below the first abscissa, value 1 at 0.
    assert targets.ccdf(dist, 0.0) == pytest.approx(1.0)
    assert targets.ccdf(dist, 0.5) == pytest.approx(0.5)
    # Power-law extension: slope -1 in log-log from the last two points.
    assert targets.ccdf(dist, 100.0) == pytest.approx(0.005, rel=1e-10)


_FLAT_TABLE = ((1.0, 2.0, 3.0, 4.0), (0.5, 0.3, 0.3, 0.1))


@pytest.mark.parametrize("c", [1.0, 1e-6])
@pytest.mark.parametrize("table", [_COARSE_TABLE, _FLAT_TABLE],
                         ids=["coarse", "flat-interior"])
def test_tabulated_density_is_the_slope_of_its_ccdf(table, c):
    # [ORACLE] a central difference of the interpolated CCDF, h = 1e-7 x,
    # away from the rows, to 1e-6 relative, with x scaled by c: the density
    # has no absolute constant. It is exactly +0.0 before the first row and
    # on a flat segment, and each float call equals its array value.
    tx = np.asarray(table[0]) * c
    dist = TargetDistribution(kind="tabulated", params={},
                              table=(tx, table[1]))
    xs = np.geomspace(tx[0], 10.0 * tx[-1], 2000)
    xs = xs[np.abs(xs[:, None] / tx - 1.0).min(axis=1) > 1e-5]
    h = 1e-7 * xs
    slope = (targets._tabulated_ccdf(dist, xs - h)
             - targets._tabulated_ccdf(dist, xs + h)) / (2.0 * h)
    got = targets.pdf(dist, xs)
    flat = slope == 0.0
    np.testing.assert_allclose(got[~flat], slope[~flat], rtol=1e-6, atol=0.0)
    zeros = np.concatenate([got[flat], targets.pdf(dist, np.geomspace(
        1e-3 * tx[0], tx[0], 50, endpoint=False))])
    assert np.all((zeros == 0.0) & ~np.signbit(zeros))
    assert flat.any() == (table is _FLAT_TABLE)
    assert got.tolist() == [targets.pdf(dist, x) for x in xs.tolist()]


def test_flat_interior_segment_inverse():
    # [ORACLE] the interpolant read backwards, on both sides of the flat
    # segment from x = 2 to 3 at CCDF 0.3, to 1e-14 relative; at 0.3 itself
    # any x of the segment solves it.
    dist = TargetDistribution(kind="tabulated", params={}, table=_FLAT_TABLE)
    us = np.concatenate([np.geomspace(1e-6, 0.3, 100, endpoint=False),
                         np.geomspace(0.3, 0.5, 101)[1:-1]])
    np.testing.assert_allclose(targets.ccdf_inverse(dist, us),
                               _table_inverse(dist.table, us),
                               rtol=1e-14, atol=0.0)
    assert 2.0 <= targets.ccdf_inverse(dist, 0.3) <= 3.0


def test_tables_ending_flat_are_rejected():
    # Beyond the table the CCDF continues as a power law through the last
    # two points. Equal last values make it flat (mass 0.3 at infinity),
    # and a next-to-last abscissa of 0 has no log-log slope: neither CCDF
    # falls to 0, so neither is a target.
    for xs, cc in [((0.0, 1.0, 2.0), (1.0, 0.3, 0.3)),
                   ((0.0, 2.0), (1.0, 0.3))]:
        with pytest.raises(ValueError, match="must end falling"):
            TargetDistribution(kind="tabulated", params={}, table=(xs, cc))
        # The same table ending one step lower is a target, and its CCDF
        # falls below any level.
        dist = TargetDistribution(kind="tabulated", params={},
                                  table=(xs + (4.0,), cc + (0.1,)))
        x = targets.ccdf_inverse(dist, 0.005)
        assert targets.ccdf(dist, x) == pytest.approx(0.005, rel=1e-8)


# -- serialization ---------------------------------------------------------

def test_json_roundtrip(tmp_path, lognormal):
    path = tmp_path / "target.json"
    path.write_text(json.dumps(lognormal.to_dict()))
    back = TargetDistribution.from_json(path)
    assert back == lognormal


def test_csv_load(tmp_path):
    path = tmp_path / "tail.csv"
    path.write_text("x,ccdf\n1.0,0.5\n2.0,0.25\n4.0,0.125\n")
    dist = TargetDistribution.from_csv(path)
    assert dist.kind == "tabulated"
    assert targets.ccdf(dist, 2.0) == pytest.approx(0.25, rel=1e-12)
