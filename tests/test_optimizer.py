"""Fit-point optimizer: loss composition, penalties, Adam descent.

Oracles: hand-computed loss values for feasible candidates (where the
loss is just the weighted grid MAE), penalty structure on deliberately
invalid candidates, central differences for the exact gradient on
perturbed default starts, and descent behaviour on the Pareto target.
"""

import math

import numpy as np
import pytest

from types import SimpleNamespace

from heavytail_ph import bph, fitting, hefit, optimizer
from heavytail_ph import targets as targets_mod
from heavytail_ph.hybrid import build_hybrid, hybrid_ccdf
from heavytail_ph.optimizer import (AdamConfig, EvalGrid, LossEvaluator,
                                    LossWeights, optimize, pow2_points)

GOOD_POINTS = [8.67, 13.09, 24.5, 45.3, 94.1, 213.8, 591.2, 1375.1]


def build(Fbar, n, points):
    """The hybrid through Fbar at the points and the n BPH nodes."""
    return build_hybrid(points, [Fbar(x) for x in points],
                        [Fbar(x) for x in bph.grid_points(n)])


@pytest.fixture(scope="module")
def grid():
    return EvalGrid.uniform(0.0, 1683.0, 256)


# -- configuration validation ---------------------------------------------

def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        LossWeights(0.5, 0.2, 0.2)


def test_weights_must_be_nonnegative():
    with pytest.raises(ValueError):
        LossWeights(1.2, -0.1, -0.1)


def test_adam_config_validated():
    with pytest.raises(ValueError):
        AdamConfig(learning_rate=0.0)


def test_grid_must_increase():
    with pytest.raises(ValueError):
        EvalGrid(points=[1.0, 1.0, 2.0])


def test_default_points_pow2_shape():
    # [DERIVED] the raw sequence 1, 2, ..., 2^(count-1) remapped linearly:
    # consecutive gaps double.
    pts = pow2_points(4, 0.0, 7.0)
    assert pts == pytest.approx([0.0, 1.0, 3.0, 7.0])
    gaps = np.diff(pts)
    assert gaps[1:] == pytest.approx(2.0 * gaps[:-1])


# -- loss on feasible and infeasible candidates ---------------------------

def test_feasible_loss_is_weighted_mae(pareto, grid):
    # [DERIVED] for a buildable candidate the loss is w_mae * grid MAE
    # of the hybrid CCDF, with zero penalties; recompute it directly.
    w = LossWeights()
    b = LossEvaluator(pareto, 100, grid, w)(GOOD_POINTS)
    assert b.pen_lambda == 0.0 and b.pen_p == 0.0
    Fbar = lambda x: targets_mod.ccdf(pareto, x)
    hy = build(Fbar, 100, GOOD_POINTS)
    y = np.array([Fbar(x) for x in grid.points])
    mae = float(np.mean(np.abs(y - hybrid_ccdf(hy, grid.points))))
    assert b.mae == pytest.approx(mae, rel=1e-12)
    assert b.total == pytest.approx(w.w_mae * mae, rel=1e-12)


def test_basis_loss_equals_hybrid_ccdf_mae_exactly(pareto, grid):
    # [DERIVED] the precomputed Bernstein basis gives bit for bit the MAE
    # that the kernel behind hybrid_ccdf gives, on the feasible branch and
    # on the dip-clamped branch of the loss. Both read the target CCDF as
    # the loss does, by its array form.
    Fbar = lambda xs: targets_mod.ccdf(pareto, xs)
    y = Fbar(grid.points)
    ev = LossEvaluator(pareto, 100, grid, LossWeights())

    b = ev(GOOD_POINTS)
    assert ev.last_build_ok
    hy = build_hybrid(GOOD_POINTS, Fbar(GOOD_POINTS),
                      Fbar(bph.grid_points(100)))
    assert b.mae == float(np.mean(np.abs(y - hybrid_ccdf(hy, grid.points))))

    pts = pow2_points(8, 4.6, 1683.0)
    b = ev(pts)
    assert not ev.last_build_ok and b.pen_lambda == 0.0
    p, lam = hefit.fit_defective_raw(pts, Fbar(pts))
    check = np.concatenate([bph.grid_points(100), pts])
    res = Fbar(check) - np.exp(-np.multiply.outer(check, lam)) @ p
    node_vals = np.maximum.accumulate(np.maximum(res[:100], 0.0))
    clamped = SimpleNamespace(bph=SimpleNamespace(node_values=node_vals),
                              he=SimpleNamespace(p=p, lam=lam))
    assert b.mae == float(np.mean(np.abs(
        y - hybrid_ccdf(clamped, grid.points))))


def test_invalid_candidate_penalized(pareto, grid):
    # Points forcing a negative recursion residual produce NaN parameters,
    # which must surface as positive penalties, not exceptions.
    b = LossEvaluator(pareto, 100, grid, LossWeights())(
        [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
    assert b.total > 0.0
    assert b.pen_lambda > 0.0 or b.pen_p > 0.0
    assert math.isfinite(b.total)


def test_unbuildable_in_range_candidate_gets_dip_penalty(pareto, grid):
    # The raw pow2 default on Pareto has in-range parameters but its tail
    # overshoots the target between points: the clamped-hybrid path must
    # report a positive penalty so the descent is pushed toward
    # feasibility.
    pts = pow2_points(8, 4.6, 1683.0)
    ev = LossEvaluator(pareto, 100, grid, LossWeights())
    b = ev(pts)
    assert not ev.last_build_ok
    assert b.pen_p > 0.0
    assert math.isfinite(b.total)


def test_loss_continuous_at_feasibility_boundary(pareto, grid):
    # Nudging a feasible candidate across the buildability edge must not
    # produce a loss jump orders of magnitude in size (the clamped-hybrid
    # scoring agrees with the strict hybrid at the boundary).
    ev = LossEvaluator(pareto, 100, grid, LossWeights())
    good = ev(GOOD_POINTS)
    assert ev.last_build_ok
    # Scale all points down until the build first fails.
    for shrink in np.linspace(1.0, 0.5, 60):
        pts = np.asarray(GOOD_POINTS) * shrink
        b = ev(pts)
        if not ev.last_build_ok:
            assert b.total < 10.0 * max(good.total, 1e-6) + 1.0
            break
    else:
        pytest.fail("never crossed the feasibility boundary")


# -- descent behaviour -----------------------------------------------------

def test_optimize_improves_and_returns_buildable(pareto):
    grid = EvalGrid.uniform(0.0, 1683.0, 128)
    w = LossWeights()
    adam = AdamConfig(max_iters=60, patience=20)
    init = np.asarray(GOOD_POINTS) * 1.35  # feasible but suboptimal
    pts, trace = optimize(pareto, 100, grid, w, adam, init)
    assert len(trace) >= 2
    ev = LossEvaluator(pareto, 100, grid, w)
    final = ev(pts)
    assert ev.last_build_ok  # returned points must be buildable
    assert final.total <= trace[0].total + 1e-15


def test_feasible_steps_build_one_hybrid_each(pareto, grid, monkeypatch):
    # A buildable point's gradient comes from the hybrid that scored it,
    # so a descent that stays feasible builds once per trace entry.
    builds = []

    def counted(*args, **kwargs):
        builds.append(args[0])
        return build_hybrid(*args, **kwargs)

    monkeypatch.setattr(optimizer, "build_hybrid", counted)
    init = np.asarray(GOOD_POINTS) * 1.35
    _, trace = optimize(pareto, 100, grid, LossWeights(),
                        AdamConfig(max_iters=10), init)
    assert len(trace) == 11
    assert len(builds) == len(trace)


@pytest.mark.parametrize("name", ["pareto", "burr", "lognormal", "weibull"])
def test_gradient_matches_central_differences(all_targets, name):
    # [DERIVED] on a buildable candidate the loss is smooth away from the
    # kinks of |.| and of the residual clamp, so the implicit-function
    # gradient equals central differences over log-points. The default
    # start puts its first point on the BPH node ln(n), a clamp kink; 20
    # seeded perturbations (sigma 0.05 in log-points) move it off.
    target = all_targets[name]
    s = fitting.body_scale(target)
    tgrid = EvalGrid(points=fitting.default_grid(target).points / s)
    ev = LossEvaluator(target, 100, tgrid, LossWeights(), scale=s)
    start = np.log(pow2_points(8, math.log(100), float(tgrid.points[-1])))
    rng = np.random.default_rng(2024)
    h = 1e-6
    checked = 0
    for _ in range(20):
        u = start + rng.normal(0.0, 0.05, start.size)
        ev(np.exp(u))
        grad = ev.gradient()
        if grad is None:
            continue
        fd = np.empty_like(u)
        for j in range(u.size):
            bump = np.zeros_like(u)
            bump[j] = h
            fd[j] = (ev(np.exp(u + bump)).total
                     - ev(np.exp(u - bump)).total) / (2.0 * h)
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))
        checked += 1
    assert checked >= 5


def _refreshed_gradient(ev: LossEvaluator, points) -> np.ndarray:
    """The gradient by the formula that evaluates F-bar at the fit points
    and the interpolation Jacobian afresh, after the call `ev(points)`."""
    points = np.asarray(points, dtype=float)
    _, hy, y_hat, _ = ev._last
    p, lam = hy.he.p, hy.he.lam
    order = np.argsort(points)[::-1]
    x = points[order]
    fx = targets_mod.ccdf(ev.target, ev.scale * x)
    _, jac = hefit.interpolation_system(x, fx, p, lam)
    dens = ev.scale * targets_mod.pdf(ev.target, ev.scale * x)
    dr_dx = (dens - np.exp(-np.multiply.outer(x, lam)) @ (lam * p)) / fx

    def terms_jacobian(ts):
        return hefit.interpolation_system(ts, np.ones(len(ts)), p, lam)[1]

    nodes = bph.grid_points(hy.bph.order)
    he_nodes = terms_jacobian(nodes)
    res = (targets_mod.ccdf(ev.target, ev.scale * nodes)
           - he_nodes[:, :p.size].sum(1))
    d_clamped = np.where((res > 0.0)[:, None], -he_nodes, 0.0)
    d_weights = np.diff(d_clamped, axis=0, prepend=0.0)
    d_weights[hy.bph.weights <= 0.0] = 0.0
    d_nodes = np.cumsum(d_weights, axis=0)
    g = (ev.weights.w_mae / y_hat.size) * np.sign(y_hat - ev.y)
    d_theta = ((g @ ev._basis) @ d_nodes + g @ terms_jacobian(ev.grid.points))
    d_x = -dr_dx * np.linalg.solve(jac.T, d_theta)
    grad = np.empty_like(d_x)
    grad[order] = x * d_x
    return grad


@pytest.mark.filterwarnings("ignore:residual CCDF clamped")
@pytest.mark.parametrize("name", ["pareto", "burr", "lognormal", "weibull"])
def test_gradient_reuses_the_build(all_targets, name, monkeypatch):
    # The gradient takes F-bar at the fit points and the interpolation
    # Jacobian from the HE solve of the call it follows, so it evaluates the
    # target CCDF nowhere, and it equals the formula that evaluates both
    # afresh.
    target = all_targets[name]
    s = fitting.body_scale(target)
    tgrid = EvalGrid(points=fitting.default_grid(target).points / s)
    ev = LossEvaluator(target, 100, tgrid, LossWeights(), scale=s)
    calls = []
    real = targets_mod.ccdf
    monkeypatch.setattr(targets_mod, "ccdf",
                        lambda *args: calls.append(args) or real(*args))
    start = np.log(pow2_points(8, math.log(100), float(tgrid.points[-1])))
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(20):
        points = np.exp(start + rng.normal(0.0, 0.05, start.size))
        ev(points)
        before = len(calls)
        grad = ev.gradient()
        if grad is None:
            continue
        assert len(calls) == before
        ref = _refreshed_gradient(ev, points)
        assert np.max(np.abs(grad - ref)) <= 1e-12 * np.max(np.abs(ref))
        checked += 1
    assert checked >= 5


def test_gradient_is_none_after_an_unbuildable_candidate(pareto, grid):
    ev = LossEvaluator(pareto, 100, grid, LossWeights())
    ev(GOOD_POINTS)
    assert ev.gradient() is not None
    ev(pow2_points(8, 4.6, 1683.0))
    assert not ev.last_build_ok and ev.gradient() is None


def test_optimize_rejects_bad_init(pareto, grid):
    with pytest.raises(ValueError):
        optimize(pareto, 100, grid, LossWeights(), AdamConfig(),
                 [1.0, 2.0, 4.0])  # odd count
    with pytest.raises(ValueError):
        optimize(pareto, 100, grid, LossWeights(), AdamConfig(),
                 [-1.0, 2.0])  # nonpositive


def test_repel_collisions_separates_points():
    u = np.log(np.array([1.0, 1.0, 2.0]))
    out = optimizer._repel_collisions(u)
    assert np.unique(out).size == 3
