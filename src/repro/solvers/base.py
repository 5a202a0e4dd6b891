"""Shared state, invariants and result types for the SMO-family solvers.

Conventions (Section 2.1.1 of the paper, matching LibSVM):

- Labels are strictly ``+1`` / ``-1``.
- The optimality indicator is ``f_i = sum_j alpha_j y_j K(x_i, x_j) - y_i``
  (Eq. 3), initialised to ``-y_i`` at ``alpha = 0``.  It equals
  ``y_i * G_i`` for LibSVM's gradient ``G``.
- ``I_up``  (the paper's ``I_u``): instances whose ``y_i alpha_i`` can
  increase — free SVs plus ``{y=+1, alpha=0}`` plus ``{y=-1, alpha=C}``.
- ``I_low`` (the paper's ``I_l``): instances whose ``y_i alpha_i`` can
  decrease — free SVs plus ``{y=+1, alpha=C}`` plus ``{y=-1, alpha=0}``.
- Optimality: ``max_{I_low} f - min_{I_up} f <= eps`` (Eqs. 9/10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "SolverResult",
    "upper_mask",
    "lower_mask",
    "optimality_gap",
    "bias_from_f",
    "dual_objective",
    "validate_binary_problem",
    "resolve_penalty_vector",
    "TAU",
]

# Guard for non-positive curvature eta, as in LibSVM's TAU.
TAU = 1e-12


def validate_binary_problem(y: np.ndarray, penalty: float) -> np.ndarray:
    """Check labels/penalty for a binary problem; returns float64 labels."""
    labels = np.asarray(y, dtype=np.float64).ravel()
    if labels.size < 2:
        raise ValidationError("need at least two training instances")
    unique = np.unique(labels)
    if not np.all(np.isin(unique, (-1.0, 1.0))):
        raise ValidationError(f"labels must be +1/-1, got values {unique[:10]}")
    if unique.size < 2:
        raise ValidationError("training data contains a single class")
    if penalty <= 0:
        raise ValidationError(f"penalty C must be positive, got {penalty}")
    return labels


def resolve_penalty_vector(
    penalty: float, n: int, penalty_vector: "np.ndarray | None"
) -> np.ndarray:
    """Per-instance box bounds: a constant C, or class-weighted C_i.

    LibSVM's ``-wi`` option scales C per class; the solvers only ever see
    the resulting per-instance vector (all masks and clipping broadcast
    over it, so the unweighted case is the constant vector).
    """
    if penalty_vector is None:
        return np.full(n, float(penalty))
    vec = np.asarray(penalty_vector, dtype=np.float64).ravel()
    if vec.shape != (n,):
        raise ValidationError(f"penalty vector shape {vec.shape} != ({n},)")
    if np.any(vec <= 0):
        raise ValidationError("per-instance penalties must be positive")
    return vec


def upper_mask(y: np.ndarray, alpha: np.ndarray, penalty) -> np.ndarray:
    """Membership mask of ``I_up`` (y_i alpha_i can increase)."""
    return ((y > 0) & (alpha < penalty)) | ((y < 0) & (alpha > 0))


def lower_mask(y: np.ndarray, alpha: np.ndarray, penalty) -> np.ndarray:
    """Membership mask of ``I_low`` (y_i alpha_i can decrease)."""
    return ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < penalty))


def optimality_gap(
    f: np.ndarray, y: np.ndarray, alpha: np.ndarray, penalty
) -> float:
    """``max_{I_low} f - min_{I_up} f``; <= 0 means optimal already."""
    up = upper_mask(y, alpha, penalty)
    low = lower_mask(y, alpha, penalty)
    if not up.any() or not low.any():
        return 0.0
    return float(f[low].max() - f[up].min())


def bias_from_f(
    f: np.ndarray, y: np.ndarray, alpha: np.ndarray, penalty
) -> float:
    """Hyperplane bias from the converged indicators.

    At optimality ``-f_i`` equals the bias at every free support vector;
    with tolerance, LibSVM averages the two bound estimates:
    ``b = -(min_{I_up} f + max_{I_low} f) / 2``.
    """
    up = upper_mask(y, alpha, penalty)
    low = lower_mask(y, alpha, penalty)
    if not up.any() or not low.any():
        return 0.0
    return float(-(f[up].min() + f[low].max()) / 2.0)


def dual_objective(alpha: np.ndarray, y: np.ndarray, f: np.ndarray) -> float:
    """Dual objective value from the maintained indicators.

    Using ``sum_j alpha_j y_j K_ij = f_i + y_i`` (Eq. 3):
    ``obj = sum(alpha) - 0.5 * sum_i alpha_i y_i (f_i + y_i)``.
    """
    return float(alpha.sum() - 0.5 * np.dot(alpha * y, f + y))


@dataclass
class SolverResult:
    """Outcome of one binary SVM training run."""

    alpha: np.ndarray
    bias: float
    converged: bool
    iterations: int
    rounds: int = 0
    objective: float = 0.0
    final_gap: float = float("inf")
    kernel_rows_computed: int = 0
    buffer_hit_rate: float = 0.0
    diagnostics: dict = field(default_factory=dict)
    f: Optional[np.ndarray] = None
    # Per-round solver telemetry (delta trajectory, violator counts, buffer
    # activity); populated only when the solver was asked to record it.
    round_trace: Optional[list[dict]] = None

    @property
    def support_indices(self) -> np.ndarray:
        """Indices (into the binary problem) with non-zero weight."""
        return np.flatnonzero(self.alpha > 0)

    @property
    def n_support(self) -> int:
        """Number of support vectors found."""
        return int(np.count_nonzero(self.alpha > 0))
