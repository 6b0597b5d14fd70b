"""Shared numerical tolerance constants.

All tolerances used for model validation and evaluation live here so that
the whole pipeline agrees on what "zero" means.
"""

# Probability vectors: entries may carry this much negative noise before
# being treated as structurally invalid (they are clamped to 0 below it).
PROB_NOISE_TOL = 1e-12

# A model is "proper" when its initial probabilities sum to 1 within this.
PROPER_SUM_TOL = 1e-9

# Truncation threshold for the Poisson tail in uniformization.
UNIFORMIZATION_TAIL = 1e-13

# CCDF values below this are reported as exactly 0 (underflow guard).
CCDF_UNDERFLOW = 1e-300

# Negative BPH weights beyond this signal a non-monotone input evaluator.
WEIGHT_NEG_TOL = 1e-9

# Residual CCDF may dip this far below zero before the hybrid build fails.
RESIDUAL_NEG_TOL = 1e-6

# Reference moments: largest gap between the 20- and 40-point
# Gauss-Legendre values of a segment, relative to the whole integral, and
# the absolute floor of that gap for integrals that underflow.
MOMENT_REL_TOL = 1e-14
MOMENT_ABS_TOL = 1e-300
