# The classic SMO solver as it stood before shrinking joined its loop, kept
# verbatim as the bitwise reference for tests/test_classic_reference.py.
"""Classic SMO with second-order working-set selection (Algorithm 1).

This is the solver inside LibSVM and the paper's GPU baseline: every
iteration selects the two-element working set ``(u, l)`` via Eqs. (4)/(5),
updates their weights via Eqs. (6)/(7) and refreshes all optimality
indicators via Eq. (8), until Eq. (9) holds.

Each iteration computes (or fetches from the kernel buffer) two kernel
rows — the access pattern whose "lots of small read/write operations" the
paper identifies as the GPU baseline's bottleneck.  The engine charges
reflect exactly that: per-iteration reductions and two single-row kernel
launches.
"""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np

from repro.exceptions import ConvergenceWarning, ValidationError
from repro.kernels.cache import KernelBuffer
from repro.kernels.rows import KernelRowComputer
from repro.solvers.base import (
    TAU,
    SolverResult,
    bias_from_f,
    dual_objective,
    lower_mask,
    optimality_gap,
    resolve_penalty_vector,
    upper_mask,
    validate_binary_problem,
)

__all__ = ["ClassicSMOSolver"]


class ClassicSMOSolver:
    """Two-element working-set SMO (LibSVM-equivalent)."""

    def __init__(
        self,
        *,
        penalty: float,
        epsilon: float = 1e-3,
        max_iterations: Optional[int] = None,
        buffer: Optional[KernelBuffer] = None,
    ) -> None:
        if epsilon <= 0:
            raise ValidationError(f"epsilon must be positive, got {epsilon}")
        self.penalty = float(penalty)
        self.epsilon = float(epsilon)
        self.max_iterations = max_iterations
        self.buffer = buffer

    def solve(
        self,
        rows: KernelRowComputer,
        y: np.ndarray,
        *,
        alpha0: Optional[np.ndarray] = None,
        penalty_vector: Optional[np.ndarray] = None,
    ) -> SolverResult:
        """Train one binary SVM; ``rows`` supplies kernel rows on demand.

        ``penalty_vector`` optionally gives per-instance box bounds
        (class-weighted C, LibSVM's ``-wi``).
        """
        labels = validate_binary_problem(y, self.penalty)
        n = rows.n
        if labels.size != n:
            raise ValidationError(f"{labels.size} labels for {n} instances")
        engine = rows.engine
        penalty = resolve_penalty_vector(self.penalty, n, penalty_vector)
        max_iter = (
            self.max_iterations
            if self.max_iterations is not None
            else max(10_000, 100 * n)
        )

        alpha = (
            np.zeros(n) if alpha0 is None else np.asarray(alpha0, dtype=np.float64).copy()
        )
        if alpha.shape != (n,):
            raise ValidationError(f"alpha0 shape {alpha.shape} != ({n},)")
        # f_i = -y_i at alpha = 0 (Algorithm 1 line 2); warm starts recompute.
        if alpha0 is None:
            f = -labels.copy()
        else:
            f = self._recompute_f(rows, labels, alpha)
        diagonal = rows.diagonal()
        rows_computed = 0

        iteration = 0
        converged = False
        f_up = f_low = 0.0
        while iteration < max_iter:
            up = upper_mask(labels, alpha, penalty)
            low = lower_mask(labels, alpha, penalty)
            engine.elementwise(
                "selection", n, flops_per_element=4, arrays_read=2,
                memory="cached",
            )
            u, f_up = engine.reduce_extremum(
                f, up, mode="min", category="selection"
            )
            low_idx, f_low = engine.reduce_extremum(
                f, low, mode="max", category="selection"
            )
            if u < 0 or low_idx < 0 or f_low - f_up <= self.epsilon:
                converged = True
                break

            k_u = self._kernel_row(rows, u)
            rows_computed += 1

            # Second-order choice of l (Eq. 5): among I_low with f_i > f_u,
            # maximise (f_u - f_i)^2 / eta_i.
            eta = diagonal[u] + diagonal - 2.0 * k_u
            np.maximum(eta, TAU, out=eta)
            diff = f - f_up
            gain = np.where(low & (diff > 0), (diff * diff) / eta, -np.inf)
            engine.elementwise(
                "selection", n, flops_per_element=6, arrays_read=3,
                memory="cached",
            )
            l, _ = engine.reduce_extremum(
                gain, None, mode="max", category="selection"
            )
            if l < 0 or not np.isfinite(gain[l]):
                converged = True
                break

            k_l = self._kernel_row(rows, l)
            rows_computed += 1

            # Two-variable update (Eqs. 6/7) with box clipping.
            eta_ul = max(diagonal[u] + diagonal[l] - 2.0 * k_u[l], TAU)
            lam = (f[l] - f_up) / eta_ul
            bound_u = (penalty[u] - alpha[u]) if labels[u] > 0 else alpha[u]
            bound_l = alpha[l] if labels[l] > 0 else (penalty[l] - alpha[l])
            lam = min(lam, bound_u, bound_l)
            engine.elementwise("subproblem", 2, flops_per_element=8)
            if lam <= 0:
                # Numerically stuck pair; treat as converged at this gap.
                break
            delta_u = labels[u] * lam
            delta_l = -labels[l] * lam
            alpha[u] += delta_u
            alpha[l] += delta_l

            # Indicator refresh (Eq. 8) over all instances.
            f += delta_u * labels[u] * k_u + delta_l * labels[l] * k_l
            engine.elementwise(
                "f_update", n, flops_per_element=4, arrays_read=3,
                memory="cached",
            )
            iteration += 1

        if not converged:
            warnings.warn(
                f"SMO hit the iteration cap ({max_iter}) with gap "
                f"{f_low - f_up:.3g} > eps {self.epsilon:.3g}",
                ConvergenceWarning,
                stacklevel=2,
            )

        gap = optimality_gap(f, labels, alpha, penalty)
        return SolverResult(
            alpha=alpha,
            bias=bias_from_f(f, labels, alpha, penalty),
            converged=converged,
            iterations=iteration,
            rounds=iteration,
            objective=dual_objective(alpha, labels, f),
            final_gap=gap,
            kernel_rows_computed=rows_computed,
            buffer_hit_rate=self.buffer.stats.hit_rate if self.buffer else 0.0,
            f=f,
        )

    # ------------------------------------------------------------------
    def _kernel_row(self, rows: KernelRowComputer, index: int) -> np.ndarray:
        # Whether cached or freshly computed, the consuming kernels stream
        # the row out of device memory once.
        rows.engine.charge(
            "kernel_values", bytes_read=rows.n * 8, launches=0
        )
        if self.buffer is not None:
            return self.buffer.fetch(
                [index],
                lambda ids: rows.rows(ids, category="kernel_values"),
            )[0]
        return rows.rows([index], category="kernel_values")[0]

    def _recompute_f(
        self, rows: KernelRowComputer, labels: np.ndarray, alpha: np.ndarray
    ) -> np.ndarray:
        """Full indicator recomputation for warm starts (batched)."""
        support = np.flatnonzero(alpha > 0)
        f = -labels.copy()
        if support.size:
            k_block = rows.rows(support, category="kernel_values")
            f += (alpha[support] * labels[support]) @ k_block
        return f
