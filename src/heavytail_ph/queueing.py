"""Analytic M/G/1 and M/PH/1 performance evaluation.

Scalar metrics come from the Pollaczek-Khinchine mean formula plus
Little's law. The waiting-time distribution uses the phase-type
representation of the stationary FIFO wait (atom 1-rho at zero, PH tail);
the queue-length distribution solves the quasi-birth-death process whose
level is the number of jobs in the system. Both distribution-level results
are cross-checked against the simulation oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import phmodel
from ._backend import as_grid
from .errors import UnstableQueueError
from .phmodel import PhaseTypeModel


@dataclass(frozen=True)
class QueueMetrics:
    rho: float
    E_S: float
    E_W: float
    E_T: float
    E_N: float
    E_Nq: float

    def to_dict(self) -> dict:
        return asdict(self)


def pk_metrics(lam: float, m1: float, m2: float) -> QueueMetrics:
    """Full metric set from the first two service moments (M/G/1)."""
    if lam <= 0 or m1 <= 0 or m2 <= 0:
        raise ValueError("lambda and the service moments must be positive")
    rho = lam * m1
    if rho >= 1:
        raise UnstableQueueError(rho)
    e_w = lam * m2 / (2.0 * (1.0 - rho))
    e_t = e_w + m1
    return QueueMetrics(rho=rho, E_S=m1, E_W=e_w, E_T=e_t,
                        E_N=lam * e_t, E_Nq=lam * e_w)


def mph1_metrics(lam: float, service: PhaseTypeModel) -> QueueMetrics:
    return pk_metrics(lam, phmodel.moment(service, 1), phmodel.moment(service, 2))


def _waiting_time_generator(lam: float, service: PhaseTypeModel):
    """(rho, beta, M) of the stationary-wait PH representation.

    beta = a (-A)^{-1} / m1 is the equilibrium phase vector; the wait CCDF
    is rho * beta * e^{x M} * 1 with M = A + s * rho * beta, s = -A 1.
    """
    m1 = phmodel.moment(service, 1)
    rho = lam * m1
    if rho >= 1:
        raise UnstableQueueError(rho)
    A = service.A
    beta = np.linalg.solve(-A.T, service.alpha) / m1
    s = -A @ np.ones(service.order)
    M = A + np.outer(s, rho * beta)
    return rho, beta, M


def waiting_time_ccdf(lam: float, service: PhaseTypeModel, x) -> float | np.ndarray:
    """P(W > x) in the stationary M/PH/1 queue; equals rho at x = 0."""
    xs, scalar = as_grid(x)
    rho, beta, M = _waiting_time_generator(lam, service)
    vals = phmodel.expm_action(rho * beta, M, xs).sum(axis=1)
    vals[vals < 0] = 0.0
    return float(vals[0]) if scalar else vals


def waiting_time_mean(lam: float, service: PhaseTypeModel) -> float:
    """E[W] as the integral of the waiting-time CCDF (closed form)."""
    rho, beta, M = _waiting_time_generator(lam, service)
    return float(rho * beta @ np.linalg.solve(-M, np.ones(service.order)))


def _qbd_solution(lam: float, service: PhaseTypeModel):
    """Stationary vectors of the M/PH/1 QBD: (pi0, pi1, R).

    R solves lam I + R (A - lam I) + R^2 s a = 0. Every service completion
    restarts the phase from a, so the first passage one level down is
    G = 1 a and R = lam (lam I - A - lam 1 a)^{-1} in closed form; the
    levels are then pi_n = (1 - rho) a R^n (Neuts 1981).
    """
    m1 = phmodel.moment(service, 1)
    rho = lam * m1
    if rho >= 1:
        raise UnstableQueueError(rho)
    n = service.order
    a = service.alpha / service.alpha.sum()
    R = lam * np.linalg.inv(lam * np.eye(n) - service.A
                            - lam * np.outer(np.ones(n), a))
    return 1.0 - rho, (1.0 - rho) * (a @ R), R


def queue_length_dist(lam: float, service: PhaseTypeModel,
                      n_max: int) -> np.ndarray:
    """P(N = n) for n = 0..n_max (N = jobs in system, matrix-geometric)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    pi0, pi1, R = _qbd_solution(lam, service)
    ones = np.ones(service.order)
    probs = np.empty(n_max + 1)
    probs[0] = pi0
    vec = pi1
    for n in range(1, n_max + 1):
        probs[n] = float(vec @ ones)
        vec = vec @ R
    return probs

