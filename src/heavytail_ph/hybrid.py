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
from functools import cached_property

import numpy as np

from . import bph as bph_mod
from ._backend import as_grid, bernstein_he_ccdf
from .constants import PROB_NOISE_TOL, RESIDUAL_NEG_TOL
from .errors import InvalidModelError
from .hefit import HyperExp, fit_defective, he_ccdf
from .phmodel import PhaseTypeModel


@dataclass(frozen=True)
class HybridModel:
    """A BPH body and a defective HE tail; `meta` goes to the assembled
    model.

    The dense order n+k (alpha, A) is assembled on first use of
    `assembled`: a fit's optimizer scores each candidate through the
    closed-form CCDF, so only the final model needs the matrix.
    """

    bph: bph_mod.BphComponent
    he: HyperExp
    meta: dict | None = None

    @cached_property
    def assembled(self) -> PhaseTypeModel:
        return _assemble(self.bph, self.he, self.meta)


def residual_ccdf(he: HyperExp, nodes, at_nodes, points,
                  at_points) -> np.ndarray:
    """Residual G-bar(x) = Fbar(x) - HE(x) at the BPH nodes, clamped at 0,
    from Fbar's values at the nodes (at_nodes) and fit points (at_points).

    The residual is checked on the nodes and the HE fit points: it raises
    when it dips below -1e-6 there (the HE component overshoots the
    target); dips within tolerance are clamped with a warning.
    """
    vals = (np.concatenate([at_nodes, at_points])
            - he_ccdf(he, np.concatenate([nodes, points])))
    worst = float(vals.min()) if vals.size else 0.0
    if worst < -RESIDUAL_NEG_TOL:
        raise InvalidModelError(
            f"HE tail overshoots the target: residual reaches {worst:.3e}")
    if worst < -PROB_NOISE_TOL:
        warnings.warn(f"residual CCDF clamped at 0 (worst dip {worst:.3e})",
                      stacklevel=2)
    return np.maximum(vals[:len(nodes)], 0.0)


def build_hybrid(points, at_points, at_nodes, meta=None) -> HybridModel:
    """Fit the defective HE through the target CCDF values at_points at the
    2k `points`, then the BPH body to the residual at the n nodes
    `bph.grid_points(n)`, where the target's values are at_nodes.

    With no points (k = 0) the hybrid is the BPH-only model. The target
    must fall to 0 at +inf, as every `TargetDistribution` does.
    """
    if len(points):
        he = fit_defective(points, at_points)
    else:
        he = HyperExp(p=np.empty(0), lam=np.empty(0), defective=True)
    node_vals = residual_ccdf(he, bph_mod.grid_points(len(at_nodes)),
                              at_nodes, points, at_points)
    return HybridModel(bph=bph_mod.build_from_ccdf(node_vals), he=he,
                       meta=meta)


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
    xs, scalar = as_grid(x)
    vals = bernstein_he_ccdf(hybrid.bph.node_values, hybrid.he.p,
                             hybrid.he.lam, xs)
    return float(vals[0]) if scalar else vals
