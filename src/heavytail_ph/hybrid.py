"""Hybrid body/tail model: Bernstein-PH body over a defective HE tail.

The defective HE mixture pins the tail at the fit points; whatever CCDF
mass it leaves over (the residual) is approximated by a Bernstein-PH body.
`assemble` lays out every fitted model, the hybrid and its one-block
cases (BPH-only, HE-only), as an order n+k phase-type distribution whose
generator is block diagonal: the fixed BPH bidiagonal block and the HE
diagonal block, with no transitions between the two.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import bph as bph_mod
from ._backend import as_grid, bernstein_he_ccdf
from .errors import InvalidModelError
from .hefit import HyperExp, fit_defective, he_ccdf
from .phmodel import PROB_NOISE_TOL, PhaseTypeModel

# Residual CCDF may dip this far below zero before the hybrid build fails.
RESIDUAL_NEG_TOL = 1e-6


@dataclass(frozen=True)
class HybridModel:
    """Body weights at the n BPH nodes and a defective HE tail.

    A fit's optimizer scores each candidate through the closed-form CCDF
    (`hybrid_ccdf`); only the final model is laid out by `assemble`.
    """

    weights: np.ndarray
    he: HyperExp

    @property
    def node_values(self) -> np.ndarray:
        """Residual values at log(n/i), i = 1..n (cumulative weights)."""
        return np.cumsum(self.weights)


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


def build_hybrid(points, at_points, at_nodes) -> HybridModel:
    """Fit the defective HE through the target CCDF values at_points at the
    2k `points`, then the BPH body to the residual at the n nodes
    `bph.grid_points(n)`, where the target's values are at_nodes.

    With no points (k = 0) the hybrid is the BPH-only model. The target
    must fall to 0 at +inf, as every `TargetDistribution` does.
    """
    if len(points):
        he = fit_defective(points, at_points)
    else:
        he = HyperExp(p=np.empty(0), lam=np.empty(0))
    node_vals = residual_ccdf(he, bph_mod.grid_points(len(at_nodes)),
                              at_nodes, points, at_points)
    return HybridModel(weights=bph_mod.build_from_ccdf(node_vals), he=he)


def assemble(weights, he: HyperExp, scale: float,
             meta: dict) -> PhaseTypeModel:
    """The phase-type model of the n body weights and the k HE terms:
    alpha is the weights then the HE weights; A is bph.generator(n) (when
    n > 0) then diag(-lam) (when k > 0), all divided by `scale`, which
    takes a model fitted in scaled time t = x / scale back to x."""
    n, k = len(weights), he.k
    A = np.zeros((n + k, n + k))
    if n:
        A[:n, :n] = bph_mod.generator(n)
    if k:
        A[n:, n:] = np.diag(-he.lam)
    return PhaseTypeModel(alpha=np.concatenate([weights, he.p]),
                          A=A / scale, meta=meta)


def hybrid_ccdf(hybrid: HybridModel, x) -> float | np.ndarray:
    """Closed-form CCDF: Bernstein sum over the residual plus the HE terms."""
    xs, scalar = as_grid(x)
    vals = bernstein_he_ccdf(hybrid.node_values, hybrid.he.p,
                             hybrid.he.lam, xs)
    return float(vals[0]) if scalar else vals
