"""Simulation oracle: Lindley recursion, estimators, samplers.

Oracles: a literal event-by-event Lindley loop for the waiting times,
closed-form M/M/1 results for the end-to-end estimates, and analytic
target/model moments for the samplers.
"""

import math

import numpy as np
import pytest

from heavytail_ph import phmodel, queueing, simqueue
from heavytail_ph import targets as targets_mod
from heavytail_ph._backend import lindley_waits
from heavytail_ph.phmodel import PhaseTypeModel
from heavytail_ph.simqueue import SimConfig


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(lam=0.0)
    with pytest.raises(ValueError):
        SimConfig(lam=0.5, jobs=100, warmup=100)
    with pytest.raises(ValueError):
        SimConfig(lam=0.5, replications=0)


def test_lindley_matches_naive_loop():
    # [DERIVED] the vectorized running-minimum identity vs the textbook
    # recursion W[j+1] = max(0, W[j] + S_j - I_{j+1}).
    rng = np.random.default_rng(0)
    inc = rng.normal(0.0, 1.0, size=500)
    got = lindley_waits(inc)
    w = 0.0
    expect = [0.0]
    for d in inc:
        w = max(0.0, w + d)
        expect.append(w)
    assert got == pytest.approx(expect, abs=1e-12)


def test_mm1_simulation_matches_theory():
    # [DERIVED] closed-form M/M/1 metrics as the oracle for the whole
    # estimator chain (waits, sojourn, PASTA queue length).
    lam, mu = 0.5, 1.0
    config = SimConfig(lam=lam, jobs=120_000, warmup=10_000, seed=1,
                       replications=4)
    service = lambda rng, count: rng.exponential(1.0 / mu, size=count)
    res = simqueue.run_mg1(config, service)
    exact = queueing.mph1_metrics(lam, PhaseTypeModel(alpha=[1.0], A=[[-mu]]))
    for name, truth in (("E_W", exact.E_W), ("E_T", exact.E_T),
                        ("E_N", exact.E_N), ("E_Nq", exact.E_Nq),
                        ("rho", exact.rho)):
        est, half = res.estimates[name]
        assert abs(est - truth) < max(4 * half, 0.03), name
    assert not res.unstable


def test_simulation_deterministic():
    config = SimConfig(lam=0.5, jobs=5_000, warmup=500, seed=7,
                       replications=2)
    service = lambda rng, count: rng.exponential(1.0, size=count)
    a = simqueue.run_mg1(config, service)
    b = simqueue.run_mg1(config, service)
    assert a.estimates == b.estimates
    assert np.array_equal(a.wait_ccdf, b.wait_ccdf)


def test_replication_order_independent(monkeypatch):
    # Forcing single-threaded execution must not change the results.
    config = SimConfig(lam=0.5, jobs=5_000, warmup=500, seed=7,
                       replications=3)
    service = lambda rng, count: rng.exponential(1.0, size=count)
    parallel = simqueue.run_mg1(config, service)
    monkeypatch.setenv("HEAVYTAIL_PH_THREADS", "1")
    serial = simqueue.run_mg1(config, service)
    assert parallel.estimates == serial.estimates


def test_wait_ccdf_estimates_distribution():
    # [DERIVED] M/M/1 wait CCDF: rho * exp(-(mu - lam) x).
    lam, mu = 0.5, 1.0
    grid = (0.5, 1.0, 2.0, 4.0)
    config = SimConfig(lam=lam, jobs=150_000, warmup=10_000, seed=3,
                       replications=4, wait_grid=grid)
    service = lambda rng, count: rng.exponential(1.0 / mu, size=count)
    res = simqueue.run_mg1(config, service)
    exact = lam / mu * np.exp(-(mu - lam) * np.asarray(grid))
    assert res.wait_ccdf == pytest.approx(exact, abs=0.01)


def test_qlen_pmf_sums_to_one():
    config = SimConfig(lam=0.3, jobs=20_000, warmup=1_000, seed=5,
                       replications=2, qlen_max=30)
    service = lambda rng, count: rng.exponential(1.0, size=count)
    res = simqueue.run_mg1(config, service)
    assert float(res.qlen_pmf.sum()) == pytest.approx(1.0, abs=1e-12)


# -- samplers --------------------------------------------------------------

def test_pareto_sampler_moments(pareto):
    # [DERIVED] inverse-transform Pareto draws: mean 1/2.1.
    rng = np.random.default_rng(11)
    draws = simqueue.draw_target(pareto, rng, 400_000)
    assert draws.min() >= 0.0
    assert draws.mean() == pytest.approx(1.0 / 2.1, rel=0.02)


def test_weibull_sampler_moments(weibull):
    # [DERIVED] Weibull(scale=5, shape=0.2) mean = 5 * Gamma(6) = 600.
    rng = np.random.default_rng(13)
    draws = simqueue.draw_target(weibull, rng, 2_000_000)
    assert draws.mean() == pytest.approx(5 * math.gamma(6.0), rel=0.2)


def test_generic_sampler_inverts_ccdf(burr, lognormal):
    # Burr draws invert the CCDF in closed form, Lognormal draws by
    # bisection; spot-check the empirical CCDF against the analytic one.
    for dist in (burr, lognormal):
        rng = np.random.default_rng(17)
        draws = simqueue.draw_target(dist, rng, 4_000)
        for x in (0.5, 1.0, 3.0):
            emp = float((draws > x).mean())
            assert emp == pytest.approx(targets_mod.ccdf(dist, x), abs=0.03)


def test_model_service_sampler():
    model = PhaseTypeModel(alpha=[1.0], A=[[-2.0]])
    service = simqueue.model_service(model)
    rng = np.random.default_rng(19)
    draws = service(rng, 100_000)
    assert draws.mean() == pytest.approx(0.5, rel=0.02)
