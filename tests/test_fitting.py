"""End-to-end fitting pipelines: BPH-only, HE-only, hybrid.

Oracles: the reports' own cross-validation fields (window-numeric target
statistics vs model moments computed through linear solves), plus direct
CCDF comparisons on independent grids. Heavier full-default runs live in
test_acceptance.py; here small orders keep things fast.
"""

import warnings

import numpy as np
import pytest

from heavytail_ph import fitting, phmodel
from heavytail_ph import targets as targets_mod
from heavytail_ph.errors import ConfigError
from heavytail_ph.optimizer import AdamConfig, EvalGrid, LossEvaluator


def test_tail_window_spans_median_to_tail(pareto):
    lo, hi = fitting.tail_window(pareto)
    assert targets_mod.ccdf(pareto, lo) == pytest.approx(0.5, rel=1e-8)
    assert targets_mod.ccdf(pareto, hi) == pytest.approx(1e-10, rel=1e-6)


def test_tail_window_capped_by_target_window():
    dist = targets_mod.TargetDistribution(kind="lognormal",
                                          params={"mu": 1.0, "sigma": 2.0},
                                          window=(0.0, 500.0))
    _, hi = fitting.tail_window(dist)
    assert hi == 500.0


def test_body_scale_places_edge(pareto):
    # [DERIVED] the body edge s*ln(n) must sit at the configured CCDF level.
    s = fitting.body_scale(pareto, 100)
    edge = s * np.log(100)
    assert targets_mod.ccdf(pareto, edge) == pytest.approx(
        fitting.BODY_EDGE_CCDF_LEVEL, rel=1e-8)


def test_body_edge_above_the_grid_top_is_a_config_error():
    # [DERIVED] Pareto(0.3) reaches the body-edge level 5e-3 at
    # x = 200^(1/0.3) - 1, about 4.6e7, above the default grid top 1e6, so
    # the default HE points have no span to start from.
    dist = targets_mod.TargetDistribution(kind="pareto", params={"shape": 0.3})
    with pytest.raises(ConfigError, match="stays above 0.005 up to the grid "
                       r"top 1e\+06"):
        fitting.fit_bph_he(dist)
    assert fitting.fit_bph_he(dist, init_points=[1e3, 1e4],
                              adam=AdamConfig(max_iters=0)).hybrid.he.k == 1


def test_only_the_returned_model_warns_of_a_clamped_residual():
    # Thirty Adam steps on Weibull(1, 0.5) clamp the residual of 24
    # candidates within tolerance, and that of the returned model. The
    # candidates build silently: only the returned model's build may warn.
    dist = targets_mod.TargetDistribution(kind="weibull",
                                          params={"scale": 1.0, "shape": 0.5})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fitting.fit_bph_he(dist, adam=AdamConfig(max_iters=30))
    clamps = [w for w in caught if "residual CCDF clamped" in str(w.message)]
    assert len(clamps) <= 1


def test_fit_bph_report_consistent(pareto):
    out = fitting.fit_bph(pareto, n=60)
    rep = out.report
    assert rep.method == "bph"
    # Mean adjustment pins the model mean to the window-numeric mean.
    assert rep.mean_approx == pytest.approx(rep.mean_real, rel=1e-10)
    assert phmodel.mean(out.model) == pytest.approx(rep.mean_real, rel=1e-10)
    assert out.model.is_proper
    assert rep.mae < 5e-4


def test_fit_bph_report_ccdf_matches_model(pareto):
    # The report's closed-form evaluator and the saved model must be the
    # same distribution.
    out = fitting.fit_bph(pareto, n=40)
    xs = np.linspace(0.0, 5.0, 9)
    y_model = phmodel.ccdf(out.model, xs)
    y_target = np.array([targets_mod.ccdf(pareto, x) for x in xs])
    # Pointwise error in the body is dominated by the Bernstein operator's
    # O(1/sqrt(n)) smoothing; at n=40 it stays within a percent.
    assert np.max(np.abs(y_model - y_target)) < 2e-2


def test_fit_he_interpolates_and_is_proper(pareto):
    out = fitting.fit_he(pareto, k=4, adjust_mean=False)
    assert out.model.is_proper
    rep = out.report
    assert len(rep.he_points) == 7
    for x in rep.he_points:
        assert phmodel.ccdf(out.model, x) == pytest.approx(
            targets_mod.ccdf(pareto, x), rel=1e-8)


def test_fit_he_mean_adjustment(pareto):
    adj = fitting.fit_he(pareto, k=4)
    assert phmodel.mean(adj.model) == pytest.approx(adj.report.mean_real,
                                                    rel=1e-10)


def test_fit_bph_he_small_run(pareto):
    out = fitting.fit_bph_he(pareto, k=2, n=40,
                             adam=AdamConfig(max_iters=40, patience=15))
    rep = out.report
    assert out.model.is_proper
    assert out.model.order == 42
    assert rep.mean_approx == pytest.approx(rep.mean_real, rel=1e-10)
    assert rep.mae < 1e-3
    assert len(out.trace) >= 1
    assert len(rep.he_points) == 4
    # Recorded tail points are in target time (ascending, in the tail).
    assert all(a < b for a, b in zip(rep.he_points, rep.he_points[1:]))


def test_fit_bph_he_no_optimizer_uses_init(pareto):
    init = [8.67, 13.09, 24.5, 45.3, 94.1, 213.8, 591.2, 1375.1]
    s = fitting.body_scale(pareto, 100)
    out = fitting.fit_bph_he(pareto, k=4, n=100, init_points=init,
                             adam=AdamConfig(max_iters=0))
    # Points pass through untouched (up to the internal scale and log
    # round trips), and the trace holds the start's loss alone.
    assert len(out.trace) == 1
    assert out.report.he_points == pytest.approx(init, rel=1e-12)
    assert out.model.is_proper


def test_fit_bph_he_cv_close(pareto):
    out = fitting.fit_bph_he(pareto, k=4, n=100,
                             adam=AdamConfig(max_iters=80, patience=25))
    rep = out.report
    assert rep.cv_approx == pytest.approx(rep.cv_real, rel=0.05)


@pytest.mark.parametrize("method, kwargs, keys", [
    ("bph", {"n": 20}, ["kind", "order_bph", "terms_he", "body_scale",
                        "source_target"]),
    ("he", {"k": 2}, ["kind", "terms_he", "source_target"]),
    ("bph_he", {"k": 1, "n": 20, "adam": AdamConfig(max_iters=0)},
     ["kind", "order_bph", "terms_he", "he_points", "k", "n", "body_scale",
      "source_target"]),
], ids=["bph", "he", "bph_he"])
def test_model_meta_keys(pareto, method, kwargs, keys):
    # `hybrid.assemble` writes meta as given: each method fixes its keys
    # and their order, which the saved model's bytes follow.
    meta = fitting.FIT_METHODS[method](pareto, **kwargs).model.meta
    assert list(meta) == keys
    assert meta["kind"] == method
    assert meta["terms_he"] == kwargs.get("k", 0)
    assert meta["source_target"] == pareto.to_dict()
    if "order_bph" in meta:
        assert meta["order_bph"] == 20


def test_adjust_mean_can_be_disabled(pareto):
    out = fitting.fit_bph(pareto, n=60, adjust_mean=False)
    # Without adjustment the BPH mean carries the body's approximation
    # bias and does not coincide with the numeric mean exactly.
    assert out.report.mean_approx != pytest.approx(out.report.mean_real,
                                                   rel=1e-10)


def test_default_grid_span(pareto):
    grid = fitting.default_grid(pareto)
    assert grid.points[0] == 0.0
    assert targets_mod.ccdf(pareto, grid.points[-1]) == pytest.approx(
        1e-10, rel=1e-6)
    custom = fitting.default_grid(pareto, m=64, span=(0.0, 10.0))
    assert custom.points.size == 64
    assert custom.points[-1] == 10.0


@pytest.mark.parametrize("name", ["pareto", "burr", "lognormal", "weibull"])
def test_fit_returns_the_hybrid_the_optimizer_scored(all_targets, name,
                                                     monkeypatch):
    # The final build reads the target CCDF at the fit points and the BPH
    # nodes as the loss does, so the default fit returns, bit for bit, the
    # hybrid that LossEvaluator builds and scores at the returned points.
    runs = []
    optimize = fitting.optimize

    def recorded(*args, **kwargs):
        runs.append((args, kwargs, optimize(*args, **kwargs)))
        return runs[-1][2]

    monkeypatch.setattr(fitting, "optimize", recorded)
    out = fitting.fit_bph_he(all_targets[name])
    (args, kwargs, (points, _)), = runs
    target, n, tgrid, weights = args[:4]
    ev = LossEvaluator(target, n, tgrid, weights, **kwargs)
    ev(points)
    assert ev.last_build_ok
    scored = ev._last[1]
    assert np.array_equal(out.hybrid.weights, scored.weights)
    assert np.array_equal(out.hybrid.he.p, scored.he.p)
    assert np.array_equal(out.hybrid.he.lam, scored.he.lam)
