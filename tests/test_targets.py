"""Target distributions: closed forms, tabulated interpolation, moments.

Oracles: hand-evaluated closed forms for the analytic kinds, scipy
quadrature cross-checks for the numeric moments, and known exact moments
(unit exponential, Pareto) for the windowed statistics.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail_ph import targets
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


def test_table_must_decrease():
    with pytest.raises(ValueError):
        TargetDistribution(kind="tabulated", params={},
                           table=((1.0, 2.0), (0.5, 0.6)))


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


def test_negative_x_rejected(pareto):
    for op in (targets.ccdf, targets.cdf, targets.pdf):
        with pytest.raises(ValueError):
            op(pareto, -0.5)


# -- structural properties -------------------------------------------------

@given(x=st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_complement_identity(x):
    dist = TargetDistribution(kind="pareto", params={"shape": 3.1})
    assert abs(targets.cdf(dist, x) + targets.ccdf(dist, x) - 1.0) <= 1e-14


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
        assert total == pytest.approx(targets.cdf(dist, upper), abs=1e-6)


def test_ccdf_inverse_roundtrip(all_targets):
    for dist in all_targets.values():
        for level in (0.5, 1e-2, 1e-6, 1e-10):
            x = targets.ccdf_inverse(dist, level)
            assert targets.ccdf(dist, x) == pytest.approx(level, rel=1e-8)


# -- numeric moments -------------------------------------------------------

def test_pareto_windowed_mean(pareto):
    # [DERIVED] exact mean of (1+x)^-3.1 is 1/2.1; the 1e6 window
    # truncation error is far below 1e-4 relative.
    m1 = targets.numeric_moment(pareto, 1, (0.0, 1e6))
    assert m1 == pytest.approx(1.0 / 2.1, rel=1e-4)


def test_unit_exponential_tabulated_mean():
    # [TRIVIAL] tabulated e^-x has mean 1 (integral of the CCDF).
    xs = np.linspace(0.01, 50.0, 400)
    dist = TargetDistribution(kind="tabulated", params={},
                              table=(tuple(xs), tuple(np.exp(-xs))),
                              window=(0.0, 50.0))
    m1 = targets.numeric_moment(dist, 1, (0.0, 50.0))
    assert m1 == pytest.approx(1.0, rel=1e-3)


def test_burr_mean_approaches_half_pi(burr):
    # [DERIVED] Burr(2,1) mean is Gamma(1.5)Gamma(0.5) = pi/2 on [0, inf);
    # the truncated value converges from below as the window grows.
    m_small = targets.numeric_moment(burr, 1, (0.0, 1e3))
    m_large = targets.numeric_moment(burr, 1, (0.0, 1e6))
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
        targets.numeric_moment(pareto, 3, (0.0, 10.0))


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
