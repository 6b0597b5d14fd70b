"""Simulation oracle: Lindley recursion, estimators, samplers.

Oracles: a literal event-by-event Lindley loop for the waiting times,
closed-form M/M/1 results for the end-to-end estimates, and analytic
target/model moments for the samplers.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from heavytail_ph import phmodel, queueing, simqueue
from heavytail_ph import targets as targets_mod
from heavytail_ph._backend import lindley_waits
from heavytail_ph.phmodel import PhaseTypeModel
from heavytail_ph.simqueue import SimConfig

STORED_HYBRID = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
                 / "pareto31_hybrid_k4_n100.json")


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


# [REGRESSION] the CLI's samplers in run_mg1, 2 replications x 5,000 jobs,
# as recorded before the start phases took a guide table and the Lognormal
# bracket one CCDF value per level: each estimate (mean and half-width),
# the wait CCDF at grid indices 5, 20 and 50, and the queue-length pmf at
# 0, 1 and 5.
_PINNED_RUNS = {
    "stored-hybrid": ({
        "E_W": (0.23412089761944, 0.019657461965305115),
        "E_T": (0.6880363303212538, 0.023447520713475348),
        "E_N": (0.3453333333333333, 0.027003948231440738),
        "E_Nq": (0.12, 0.013937521667840394),
        "rho": (0.22533333333333333, 0.01306642656360036)},
        [0.06288888888888888, 0.012777777777777777, 0.0016666666666667052],
        [0.7746666666666666, 0.15744444444444444, 0.003666666666666667]),
    "lognormal": ({
        "E_W": (267.7075524458314, 52.72593866332582),
        "E_T": (286.8803992569579, 52.78628993267106),
        "E_N": (6.993888888888889, 1.2737588161749744),
        "E_Nq": (6.5215555555555556, 1.256119140314115),
        "rho": (0.4723333333333333, 0.017639675860860498)},
        [0.3811111111111111, 0.2891111111111111, 0.21366666666666667],
        [0.5276666666666667, 0.11299999999999999, 0.020222222222222225]),
}


def test_replication_order_independent(monkeypatch):
    # Running the replications on one thread or two, or on every usable
    # CPU, must not change the results, with an exponential lambda and
    # with the CLI's two samplers: the stored hybrid's one-step draws and
    # the Lognormal(1, 2) solver, which holds the GIL. The CLI's samplers
    # also give the pinned values, to 1e-12 relative (the Lognormal CCDF
    # is the platform's math.erfc).
    lognormal = targets_mod.TargetDistribution(
        kind="lognormal", params={"mu": 1.0, "sigma": 2.0})
    runs = [
        ("exponential", 0.5, 3,
         lambda rng, count: rng.exponential(1.0, size=count)),
        ("stored-hybrid", 0.5, 2,
         simqueue.model_service(PhaseTypeModel.load(STORED_HYBRID))),
        ("lognormal", 0.5 * math.exp(-3.0), 2,  # rho = 0.5
         simqueue.target_service(lognormal)),
    ]
    for name, lam, replications, service in runs:
        config = SimConfig(lam=lam, jobs=5_000, warmup=500, seed=7,
                           replications=replications)
        results = []
        for threads in ("0", "2", "1"):
            monkeypatch.setenv("HEAVYTAIL_PH_THREADS", threads)
            results.append(simqueue.run_mg1(config, service))
        got = results[0]
        for other in results[1:]:
            assert other.estimates == got.estimates, name
            assert np.array_equal(other.wait_ccdf, got.wait_ccdf), name
            assert np.array_equal(other.qlen_pmf, got.qlen_pmf), name
        if name in _PINNED_RUNS:
            estimates, wait, qlen = _PINNED_RUNS[name]
            for metric, pair in estimates.items():
                assert got.estimates[metric] == pytest.approx(
                    pair, rel=1e-12, abs=0.0), (name, metric)
            assert got.wait_ccdf[[5, 20, 50]] == pytest.approx(
                wait, rel=1e-12, abs=0.0), name
            assert got.qlen_pmf[[0, 1, 5]] == pytest.approx(
                qlen, rel=1e-12, abs=0.0), name


def test_pool_size_follows_the_affinity_mask(monkeypatch):
    # The pool counts the CPUs the process may run on, not the machine's:
    # under a one-CPU mask it has one thread whatever the cap. Where the
    # platform has no affinity call, it counts the machine's.
    monkeypatch.delenv("HEAVYTAIL_PH_THREADS", raising=False)
    monkeypatch.setattr(simqueue.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(simqueue.os, "sched_getaffinity", lambda pid: {3},
                        raising=False)
    assert simqueue._max_workers() == 1
    monkeypatch.setenv("HEAVYTAIL_PH_THREADS", "2")
    assert simqueue._max_workers() == 1
    monkeypatch.delattr(simqueue.os, "sched_getaffinity")
    assert simqueue._max_workers() == 2
    monkeypatch.setenv("HEAVYTAIL_PH_THREADS", "0")
    assert simqueue._max_workers() == 8


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
