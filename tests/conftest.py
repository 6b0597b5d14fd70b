"""Shared fixtures: canonical targets and small reference models."""

import math

import numpy as np
import pytest

from heavytail_ph.targets import TargetDistribution


@pytest.fixture(scope="session")
def pareto():
    return TargetDistribution(kind="pareto", params={"shape": 3.1})


@pytest.fixture(scope="session")
def burr():
    return TargetDistribution(kind="burr", params={"c": 2.0, "d": 1.0})


@pytest.fixture(scope="session")
def lognormal():
    return TargetDistribution(kind="lognormal", params={"mu": 1.0, "sigma": 2.0})


@pytest.fixture(scope="session")
def weibull():
    return TargetDistribution(kind="weibull", params={"scale": 5.0, "shape": 0.2})


@pytest.fixture(scope="session")
def all_targets(pareto, burr, lognormal, weibull):
    return {"pareto": pareto, "burr": burr,
            "lognormal": lognormal, "weibull": weibull}


def random_stable_ph(rng, order):
    """A random valid proper phase-type model of the given order."""
    from heavytail_ph.phmodel import PhaseTypeModel
    alpha = rng.dirichlet(np.ones(order))
    off = rng.random((order, order)) * rng.random()
    np.fill_diagonal(off, 0.0)
    exit_rates = rng.random(order) + 0.1
    A = off.copy()
    np.fill_diagonal(A, -(off.sum(axis=1) + exit_rates))
    return PhaseTypeModel(alpha=alpha, A=A)


def cdf_increments(F, n):
    """Reference BPH weights from a CDF: [F(inf) - F(log n),
    F(log n) - F(log(n/2)), ..., F(log(n/(n-1))) - F(0)], each increment
    taken on the CDF rather than the CCDF."""
    pts = np.log(n / np.arange(1, n + 1, dtype=float))
    vals = np.array([float(F(x)) for x in pts])
    upper = np.concatenate(([float(F(math.inf))], vals[:-1]))
    return upper - vals
