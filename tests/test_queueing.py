"""Analytic queueing: Pollaczek-Khinchine metrics, wait CCDF, QBD.

Oracles: closed-form M/M/1 and M/D/1 results, the geometric M/M/1
queue-length law, Erlang services with hand-computable moments, and
internal consistency between the distribution-level and mean-level
formulas.
"""

import math

import numpy as np
import pytest

from heavytail_ph import phmodel, queueing
from heavytail_ph.errors import UnstableQueueError
from heavytail_ph.phmodel import PhaseTypeModel

from conftest import random_stable_ph


def exponential_model(rate):
    return PhaseTypeModel(alpha=[1.0], A=[[-rate]])


# -- scalar metrics --------------------------------------------------------

def test_mm1_metrics_closed_form():
    # [DERIVED] M/M/1 with lam=0.5, mu=2: rho=1/4, E_W=rho/(mu-lam)=1/6.
    lam, mu = 0.5, 2.0
    m = queueing.mph1_metrics(lam, exponential_model(mu))
    rho = lam / mu
    assert m.rho == pytest.approx(rho, abs=1e-12)
    assert m.E_S == pytest.approx(1.0 / mu, abs=1e-12)
    assert m.E_W == pytest.approx(rho / (mu - lam), abs=1e-12)
    assert m.E_T == pytest.approx(1.0 / (mu - lam), abs=1e-12)
    assert m.E_N == pytest.approx(rho / (1 - rho), abs=1e-12)
    assert m.E_Nq == pytest.approx(rho * rho / (1 - rho), abs=1e-12)


def test_md1_metrics_closed_form():
    # [DERIVED] M/D/1 via deterministic moments m1=d, m2=d^2:
    # E_W = lam d^2 / (2 (1 - lam d)).
    lam, d = 0.8, 1.0
    m = queueing.pk_metrics(lam, d, d * d)
    assert m.E_W == pytest.approx(lam * d * d / (2 * (1 - lam * d)),
                                  abs=1e-12)
    assert m.E_N == pytest.approx(lam * (m.E_W + d), abs=1e-12)


def test_erlang_service_metrics():
    # [DERIVED] Erlang(2, 2): m1=1, m2=1.5; E_W = lam*m2/(2(1-lam)).
    A = [[-2.0, 2.0], [0.0, -2.0]]
    service = PhaseTypeModel(alpha=[1.0, 0.0], A=A)
    m = queueing.mph1_metrics(0.5, service)
    assert m.E_W == pytest.approx(0.5 * 1.5 / (2 * 0.5), abs=1e-12)


def test_unstable_queue_rejected():
    with pytest.raises(UnstableQueueError):
        queueing.mph1_metrics(2.0, exponential_model(1.0))
    with pytest.raises(UnstableQueueError):
        queueing.pk_metrics(1.0, 1.0, 2.0)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        queueing.pk_metrics(-1.0, 1.0, 1.0)


# -- waiting-time distribution --------------------------------------------

def test_mm1_wait_ccdf_closed_form():
    # [DERIVED] M/M/1: P(W > x) = rho * exp(-(mu - lam) x).
    lam, mu = 0.5, 2.0
    service = exponential_model(mu)
    xs = np.linspace(0.0, 8.0, 30)
    exact = (lam / mu) * np.exp(-(mu - lam) * xs)
    got = queueing.waiting_time_ccdf(lam, service, xs)
    assert got == pytest.approx(exact, abs=1e-11)


def test_wait_ccdf_at_zero_is_rho():
    rng = np.random.default_rng(2)
    service = random_stable_ph(rng, 4)
    lam = 0.4 / phmodel.mean(service)
    assert queueing.waiting_time_ccdf(lam, service, 0.0) == pytest.approx(
        0.4, abs=1e-12)


def test_wait_mean_matches_pk():
    # [DERIVED] closed-form integral of the wait CCDF equals the P-K mean.
    rng = np.random.default_rng(4)
    for _ in range(3):
        service = random_stable_ph(rng, 3)
        lam = 0.6 / phmodel.mean(service)
        pk = queueing.mph1_metrics(lam, service)
        assert queueing.waiting_time_mean(lam, service) == pytest.approx(
            pk.E_W, rel=1e-10)


def test_wait_ccdf_quadrature_mean():
    # [DERIVED] numerically integrate the wait CCDF itself as a second,
    # independent check of the distribution-level representation.
    from scipy.integrate import quad
    service = exponential_model(1.5)
    lam = 0.6
    val, _ = quad(lambda x: queueing.waiting_time_ccdf(lam, service, x),
                  0.0, np.inf, limit=200)
    assert val == pytest.approx(queueing.mph1_metrics(lam, service).E_W,
                                rel=1e-7)


# -- queue-length distribution --------------------------------------------

def test_mm1_queue_length_geometric():
    # [DERIVED] M/M/1: P(N = n) = (1 - rho) rho^n.
    lam, mu = 0.5, 2.0
    rho = lam / mu
    probs = queueing.queue_length_dist(lam, exponential_model(mu), 20)
    exact = (1 - rho) * rho ** np.arange(21)
    assert probs == pytest.approx(exact, abs=1e-11)


def test_queue_length_sums_to_one():
    rng = np.random.default_rng(6)
    service = random_stable_ph(rng, 3)
    lam = 0.5 / phmodel.mean(service)
    probs = queueing.queue_length_dist(lam, service, 200)
    tail = queueing.queue_length_tail_mass(lam, service, 201)
    assert float(probs.sum()) + tail == pytest.approx(1.0, abs=1e-10)
    assert np.all(probs >= 0)


def test_queue_length_mean_matches_little():
    # [DERIVED] E[N] from the matrix-geometric sum vs Little's law.
    rng = np.random.default_rng(8)
    service = random_stable_ph(rng, 4)
    lam = 0.7 / phmodel.mean(service)
    pk = queueing.mph1_metrics(lam, service)
    assert queueing.queue_length_mean(lam, service) == pytest.approx(
        pk.E_N, rel=1e-9)


def test_queue_length_rejects_negative_nmax():
    with pytest.raises(ValueError):
        queueing.queue_length_dist(0.5, exponential_model(2.0), -1)


def _fixed_point_queue_length(lam, service, n_max):
    """P(N = n) with R from the fixed-point iteration the closed form replaced.

    R <- -(A0 + R^2 A2) A1^{-1}, from R = 0, until a sweep moves no entry
    by 1e-13.
    """
    n = service.order
    a = service.alpha / service.alpha.sum()
    A0 = lam * np.eye(n)
    A1 = service.A - lam * np.eye(n)
    A2 = np.outer(-service.A @ np.ones(n), a)
    R = np.zeros((n, n))
    for _ in range(100_000):
        R_new = np.linalg.solve(A1.T, -(A0 + R @ R @ A2).T).T
        done = np.max(np.abs(R_new - R)) < 1e-13
        R = R_new
        if done:
            break
    else:
        pytest.fail("fixed-point iteration on R did not converge")
    pi1 = -lam * np.linalg.solve((A1 + R @ A2).T, a)
    norm = 1.0 + pi1 @ np.linalg.inv(np.eye(n) - R) @ np.ones(n)
    probs = [1.0]
    vec = pi1
    for _ in range(n_max):
        probs.append(vec.sum())
        vec = vec @ R
    return np.array(probs) / norm


def test_closed_form_rate_matrix_matches_fixed_point():
    # [DERIVED] the closed-form R solves lam I + R (A - lam I) + R^2 s a = 0,
    # the queue-length law agrees with R from the fixed-point iteration,
    # and P(N = 0) = 1 - rho.
    rng = np.random.default_rng(12)
    for order in range(2, 9):
        service = random_stable_ph(rng, order)
        rho = rng.uniform(0.3, 0.9)
        lam = rho / phmodel.mean(service)
        A = service.A
        a = service.alpha / service.alpha.sum()
        s = -A @ np.ones(order)
        _, _, R = queueing._qbd_solution(lam, service)
        residual = (lam * np.eye(order) + R @ (A - lam * np.eye(order))
                    + R @ R @ np.outer(s, a))
        assert np.max(np.abs(residual)) <= 1e-12
        probs = queueing.queue_length_dist(lam, service, 50)
        assert probs == pytest.approx(
            _fixed_point_queue_length(lam, service, 50), abs=1e-10)
        assert probs[0] == pytest.approx(1.0 - rho, abs=1e-12)
