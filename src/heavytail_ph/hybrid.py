"""Hybrid body/tail model: Bernstein-PH body over a defective HE tail.

The defective HE mixture pins the tail at the fit points; whatever CCDF
mass it leaves over (the residual) is approximated by a Bernstein-PH body.
The assembled model is an order n+k phase-type distribution whose
generator is block diagonal: the fixed BPH bidiagonal block and the HE
diagonal block, with no transitions between the two.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import bph as bph_mod
from ._backend import bernstein_he_ccdf
from .constants import PROB_NOISE_TOL, RESIDUAL_NEG_TOL
from .errors import InvalidModelError
from .hefit import HyperExp, fit_defective, he_ccdf
from .phmodel import PhaseTypeModel


@dataclass(frozen=True)
class HybridModel:
    bph: bph_mod.BphComponent
    he: HyperExp
    assembled: PhaseTypeModel


def residual_ccdf(Fbar, he: HyperExp, nodes, points,
                  at_nodes=None) -> np.ndarray:
    """Residual G-bar(x) = Fbar(x) - HE(x) at the BPH nodes, clamped at 0.

    The residual is checked on the nodes and the HE fit points: it raises
    when it dips below -1e-6 there (the HE component overshoots the
    target); dips within tolerance are clamped with a warning. `at_nodes`,
    when given, holds Fbar at the nodes, so only the points are evaluated.
    """
    nodes = np.asarray(nodes, dtype=float)
    if at_nodes is None:
        at_nodes = [float(Fbar(x)) for x in nodes]
    xs = np.concatenate([nodes, np.asarray(points, dtype=float)])
    fx = np.concatenate([at_nodes, [float(Fbar(x)) for x in points]])
    vals = fx - he_ccdf(he, xs)
    worst = float(vals.min()) if vals.size else 0.0
    if worst < -RESIDUAL_NEG_TOL:
        raise InvalidModelError(
            f"HE tail overshoots the target: residual reaches {worst:.3e}")
    if worst < -PROB_NOISE_TOL:
        warnings.warn(f"residual CCDF clamped at 0 (worst dip {worst:.3e})",
                      stacklevel=2)
    return np.maximum(vals[:nodes.size], 0.0)


def build_hybrid(Fbar, k: int, n: int, points, meta=None,
                 at_nodes=None) -> HybridModel:
    """Fit the defective HE at `points` (2k of them), then the BPH residual.

    With k = 0 (empty points) the hybrid is the BPH-only model. The target
    must fall to 0 at +inf, as every `TargetDistribution` does.
    `at_nodes` optionally holds Fbar at `bph.grid_points(n)`.
    """
    if k == 0:
        he = HyperExp(p=np.empty(0), lam=np.empty(0), defective=True)
    else:
        he = fit_defective(Fbar, points)
    node_vals = residual_ccdf(Fbar, he, bph_mod.grid_points(n), points,
                              at_nodes)
    component = bph_mod.build_from_ccdf(node_vals)
    assembled = _assemble(component, he, meta)
    return HybridModel(bph=component, he=he, assembled=assembled)


def _assemble(component: bph_mod.BphComponent, he: HyperExp,
              meta=None) -> PhaseTypeModel:
    n, k = component.order, he.k
    alpha = np.concatenate([component.weights, he.p])
    A = np.zeros((n + k, n + k))
    A[:n, :n] = bph_mod.generator(n)
    if k:
        A[n:, n:] = np.diag(-he.lam)
    return PhaseTypeModel(alpha=alpha, A=A,
                          meta={"kind": "bph_he", "order_bph": n, "terms_he": k,
                                **(meta or {})})


def hybrid_ccdf(hybrid: HybridModel, x) -> float | np.ndarray:
    """Closed-form CCDF: Bernstein sum over the residual plus the HE terms."""
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0):
        raise ValueError("x must be nonnegative")
    vals = bernstein_he_ccdf(hybrid.bph.node_values, hybrid.he.p,
                             hybrid.he.lam, np.atleast_1d(xs))
    return float(vals[0]) if np.ndim(x) == 0 else vals
