"""Discrete-event M/G/1 FIFO simulation oracle.

Waiting times come from the Lindley recursion (no event calendar needed
for FIFO M/G/1); queue lengths are sampled at arrival instants, which see
time averages under Poisson arrivals. Replications use derived seeds
(seed + index) and are merged in index order, so results are deterministic
regardless of how the replications are scheduled.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import targets as targets_mod
from ._backend import lindley_waits
from .errors import ConfigError
from .phmodel import PhaseTypeModel, sample_with_rng

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class SimConfig:
    lam: float
    jobs: int = 2_000_000
    warmup: int = 100_000
    seed: int = 0
    replications: int = 10
    wait_grid: tuple = ()
    qlen_max: int = 50

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("arrival rate must be positive")
        if not self.jobs > self.warmup >= 0:
            raise ValueError("need jobs > warmup >= 0")
        if self.replications < 1:
            raise ValueError("need at least one replication")


@dataclass(frozen=True)
class SimResult:
    estimates: dict  # metric -> (point estimate, 95% CI half-width)
    wait_grid: np.ndarray
    wait_ccdf: np.ndarray
    qlen_pmf: np.ndarray
    unstable: bool

    def to_dict(self) -> dict:
        return {"estimates": {k: {"mean": v[0], "halfwidth95": v[1]}
                              for k, v in self.estimates.items()},
                "unstable": self.unstable}


def _max_workers() -> int:
    """The pool size: the count of CPUs the process may run on (of the
    machine's, where the platform has no affinity call), capped by
    HEAVYTAIL_PH_THREADS unless that is 0 or unset; any value but a
    nonnegative integer is refused."""
    text = os.environ.get("HEAVYTAIL_PH_THREADS") or "0"
    if not text.isdecimal():
        raise ConfigError("HEAVYTAIL_PH_THREADS must be a nonnegative "
                          f"integer, not {text!r}")
    cap = int(text)
    if hasattr(os, "sched_getaffinity"):
        auto = len(os.sched_getaffinity(0))
    else:
        auto = os.cpu_count() or 1
    return min(cap, auto) if cap > 0 else auto


def run_mg1(config: SimConfig, service_draw) -> SimResult:
    """Simulate the queue; `service_draw(rng, count)` supplies service times."""
    wait_grid = np.asarray(config.wait_grid, dtype=float)
    if wait_grid.size == 0:
        wait_grid = np.linspace(0.0, 10.0 / config.lam, 101)

    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        reps = list(pool.map(
            lambda r: _one_replication(config, service_draw, r, wait_grid),
            range(config.replications)))

    metrics = {}
    names = ("E_W", "E_T", "E_N", "E_Nq", "rho")
    for name in names:
        vals = np.array([rep[name] for rep in reps])
        point = float(vals.mean())
        if config.replications >= 2:
            half = _Z95 * _spread(vals) / math.sqrt(vals.size)
        else:
            half = math.nan
        metrics[name] = (point, half)

    wait_ccdf = np.mean([rep["wait_ccdf"] for rep in reps], axis=0)
    qlen = np.mean([rep["qlen_pmf"] for rep in reps], axis=0)
    unstable = any(rep["rho"] >= 1.0 for rep in reps)
    return SimResult(estimates=metrics, wait_grid=wait_grid,
                     wait_ccdf=wait_ccdf, qlen_pmf=qlen, unstable=unstable)


def _spread(vals: np.ndarray) -> float:
    """Sample standard deviation; where its squares overflow (means near
    1e154 and beyond), that of the values scaled by their largest
    magnitude, times that magnitude."""
    with np.errstate(over="ignore"):
        sd = float(vals.std(ddof=1))
    if math.isinf(sd):  # any inf or NaN among vals gives NaN instead
        top = float(np.max(np.abs(vals)))
        sd = top * float((vals / top).std(ddof=1))
    return sd


def _one_replication(config: SimConfig, service_draw, index: int,
                     wait_grid: np.ndarray) -> dict:
    rng = np.random.default_rng(config.seed + index)
    inter = rng.exponential(1.0 / config.lam, size=config.jobs)
    services = np.asarray(service_draw(rng, config.jobs), dtype=float)
    arrivals = np.cumsum(inter)
    waits = lindley_waits(services[:-1] - inter[1:])
    departures = arrivals + waits + services
    # System size seen by each arrival (PASTA): earlier jobs still present.
    seen = np.arange(config.jobs) - np.searchsorted(departures, arrivals)

    w = waits[config.warmup:]
    s = services[config.warmup:]
    n_seen = seen[config.warmup:]
    sorted_w = np.sort(w)
    wait_ccdf = 1.0 - np.searchsorted(sorted_w, wait_grid, side="right") / w.size
    pmf = np.bincount(np.minimum(n_seen, config.qlen_max),
                      minlength=config.qlen_max + 1) / n_seen.size
    return {
        "E_W": float(w.mean()),
        "E_T": float((w + s).mean()),
        "E_N": float(n_seen.mean()),
        "E_Nq": float(np.maximum(n_seen - 1, 0).mean()),
        "rho": float((w > 0).mean()),
        "wait_ccdf": wait_ccdf,
        "qlen_pmf": pmf,
    }


# -- service-time samplers ------------------------------------------------

def draw_target(dist: targets_mod.TargetDistribution, rng: np.random.Generator,
                count: int) -> np.ndarray:
    """Inverse-transform draws from a target distribution."""
    return targets_mod.ccdf_inverse(dist, rng.random(count))


def target_service(dist: targets_mod.TargetDistribution):
    """Service-draw callable for run_mg1."""
    return lambda rng, count: draw_target(dist, rng, count)


def model_service(model: PhaseTypeModel):
    """Service-draw callable sampling a phase-type model through
    `phmodel.sample_with_rng`: one Beta or exponential draw per service
    time for the package's fitted models, the chain walk for any other."""
    return lambda rng, count: sample_with_rng(model, rng, count)
