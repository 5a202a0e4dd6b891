"""Classic SMO with LibSVM's shrinking heuristic.

LibSVM (which the paper benchmarks with its defaults, i.e. shrinking ON)
periodically removes from the *active set* the bound instances that the
optimality indicators say cannot be selected again:

- ``i`` in ``I_up`` only (``alpha=0, y=+1`` or ``alpha=C, y=-1``) is
  inactive once ``f_i >= max_{I_low} f`` — pairing it with any partner
  yields no progress;
- ``i`` in ``I_low`` only (``alpha=C, y=+1`` or ``alpha=0, y=-1``) is
  inactive once ``f_i <= min_{I_up} f``.

Free support vectors are never shrunk.  Iterations then run on the active
set only: kernel rows are computed against active columns (the big
saving), and selection/updates touch ``|active|`` entries.  When the
active set converges, the full indicator vector is reconstructed from the
support vectors (LibSVM's expensive ``reconstruct_gradient``), everything
is unshrunk, and optimisation continues until the *global* optimality
condition (Eq. 9) holds — so the final classifier is identical to the
unshrunk solver's.
"""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np

from repro.exceptions import ConvergenceWarning, ValidationError
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

__all__ = ["ShrinkingSMOSolver"]


class ShrinkingSMOSolver:
    """Two-element working-set SMO with active-set shrinking."""

    def __init__(
        self,
        *,
        penalty: float,
        epsilon: float = 1e-3,
        max_iterations: Optional[int] = None,
        shrink_interval: Optional[int] = None,
        cache_bytes: Optional[int] = None,
    ) -> None:
        if epsilon <= 0:
            raise ValidationError(f"epsilon must be positive, got {epsilon}")
        self.penalty = float(penalty)
        self.epsilon = float(epsilon)
        self.max_iterations = max_iterations
        self.shrink_interval = shrink_interval
        self.cache_bytes = cache_bytes

    def solve(
        self,
        rows: KernelRowComputer,
        y: np.ndarray,
        *,
        penalty_vector: Optional[np.ndarray] = None,
    ) -> SolverResult:
        """Train one binary SVM with shrinking; same optimum as without."""
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
        interval = (
            self.shrink_interval
            if self.shrink_interval is not None
            else min(n, 1000)
        )

        alpha = np.zeros(n)
        f = -labels.copy()  # maintained on the active set only
        diagonal = rows.diagonal()
        active = np.arange(n, dtype=np.int64)
        row_cache: dict[int, np.ndarray] = {}  # active-width rows
        rows_computed = 0
        shrink_events = 0
        reconstructions = 0

        iteration = 0
        converged = False
        since_shrink = 0
        while iteration < max_iter:
            y_a = labels[active]
            a_a = alpha[active]
            f_a = f[active]
            c_a = penalty[active]
            up = upper_mask(y_a, a_a, c_a)
            low = lower_mask(y_a, a_a, c_a)
            engine.elementwise(
                "selection",
                active.size,
                flops_per_element=4,
                arrays_read=2,
                memory="cached",
            )
            u_local, f_up = engine.reduce_extremum(
                f_a, up, mode="min", category="selection"
            )
            l_local, f_low = engine.reduce_extremum(
                f_a, low, mode="max", category="selection"
            )
            if u_local < 0 or l_local < 0 or f_low - f_up <= self.epsilon:
                # Active set optimal: reconstruct, unshrink, re-check global.
                if active.size == n:
                    converged = True
                    break
                f = self._reconstruct(rows, labels, alpha, f, active)
                reconstructions += 1
                active = np.arange(n, dtype=np.int64)
                row_cache.clear()
                since_shrink = 0
                continue

            k_u = self._row(rows, row_cache, int(active[u_local]), active)
            rows_computed += 1

            diag_a = diagonal[active]
            eta = diag_a[u_local] + diag_a - 2.0 * k_u
            np.maximum(eta, TAU, out=eta)
            diff = f_a - f_up
            gain = np.where(low & (diff > 0), (diff * diff) / eta, -np.inf)
            engine.elementwise(
                "selection",
                active.size,
                flops_per_element=6,
                arrays_read=3,
                memory="cached",
            )
            l_local, _ = engine.reduce_extremum(
                gain, None, mode="max", category="selection"
            )
            if l_local < 0 or not np.isfinite(gain[l_local]):
                if active.size == n:
                    converged = True
                    break
                f = self._reconstruct(rows, labels, alpha, f, active)
                reconstructions += 1
                active = np.arange(n, dtype=np.int64)
                row_cache.clear()
                since_shrink = 0
                continue

            k_l = self._row(rows, row_cache, int(active[l_local]), active)
            rows_computed += 1

            eta_ul = max(
                diag_a[u_local] + diag_a[l_local] - 2.0 * k_u[l_local], TAU
            )
            lam = (f_a[l_local] - f_up) / eta_ul
            y_u, y_l = y_a[u_local], y_a[l_local]
            bound_u = (c_a[u_local] - a_a[u_local]) if y_u > 0 else a_a[u_local]
            bound_l = a_a[l_local] if y_l > 0 else (c_a[l_local] - a_a[l_local])
            lam = min(lam, bound_u, bound_l)
            engine.elementwise("subproblem", 2, flops_per_element=8)
            if lam <= 0:
                break
            delta_u = y_u * lam
            delta_l = -y_l * lam
            alpha[active[u_local]] += delta_u
            alpha[active[l_local]] += delta_l

            f[active] = f_a + delta_u * y_u * k_u + delta_l * y_l * k_l
            engine.elementwise(
                "f_update",
                active.size,
                flops_per_element=4,
                arrays_read=3,
                memory="cached",
            )
            iteration += 1
            since_shrink += 1

            if since_shrink >= interval and active.size > 2:
                new_active = self._shrunk_active(
                    labels, alpha, f, active, penalty
                )
                engine.elementwise(
                    "selection",
                    active.size,
                    flops_per_element=4,
                    arrays_read=3,
                    memory="cached",
                )
                if new_active.size != active.size and new_active.size >= 2:
                    active = new_active
                    row_cache.clear()  # row widths changed
                    shrink_events += 1
                since_shrink = 0

        if not converged:
            warnings.warn(
                f"shrinking SMO hit the iteration cap ({max_iter})",
                ConvergenceWarning,
                stacklevel=2,
            )
            if active.size != n:
                f = self._reconstruct(rows, labels, alpha, f, active)

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
            diagnostics={
                "shrink_events": shrink_events,
                "reconstructions": reconstructions,
            },
            f=f,
        )

    # ------------------------------------------------------------------
    def _row(
        self,
        rows: KernelRowComputer,
        cache: dict[int, np.ndarray],
        global_id: int,
        active: np.ndarray,
    ) -> np.ndarray:
        """Kernel values of one instance against the active columns."""
        cached = cache.get(global_id)
        if cached is not None:
            rows.engine.charge(
                "kernel_values",
                bytes_read=cached.size * 8,
                launches=0,
            )
            return cached
        if active.size == rows.n:
            row = rows.rows([global_id], category="kernel_values")[0]
        else:
            from repro.sparse import ops as mops

            row = rows.block(
                mops.take_rows(rows.data, np.asarray([global_id])),
                column_indices=active,
                category="kernel_values",
            )[0]
        # FIFO-bounded cache (dict preserves insertion order); mirrors the
        # memory budget LibSVM's kernel cache would get.
        if self.cache_bytes is not None:
            budget_rows = max(2, int(self.cache_bytes) // max(row.size * 8, 1))
            while len(cache) >= budget_rows:
                cache.pop(next(iter(cache)))
        cache[global_id] = row
        return row

    def _shrunk_active(
        self,
        labels: np.ndarray,
        alpha: np.ndarray,
        f: np.ndarray,
        active: np.ndarray,
        penalty: np.ndarray,
    ) -> np.ndarray:
        """Drop bound instances that can no longer be selected."""
        y_a = labels[active]
        a_a = alpha[active]
        f_a = f[active]
        up = upper_mask(y_a, a_a, penalty[active])
        low = lower_mask(y_a, a_a, penalty[active])
        if not up.any() or not low.any():
            return active
        f_up = f_a[up].min()
        f_low = f_a[low].max()
        up_only = up & ~low
        low_only = low & ~up
        inactive = (up_only & (f_a >= f_low)) | (low_only & (f_a <= f_up))
        keep = ~inactive
        if keep.sum() < 2:
            return active
        return active[keep]

    def _reconstruct(
        self,
        rows: KernelRowComputer,
        labels: np.ndarray,
        alpha: np.ndarray,
        f: np.ndarray,
        active: np.ndarray,
    ) -> np.ndarray:
        """Recompute all indicators from the support vectors.

        The inactive entries have drifted (their updates were skipped);
        LibSVM calls this ``reconstruct_gradient`` and it is the price of
        shrinking — a batched kernel computation over the support vectors.
        """
        support = np.flatnonzero(alpha > 0)
        full = -labels.copy()
        if support.size:
            block = rows.rows(support, category="kernel_values")
            full += (alpha[support] * labels[support]) @ block
        full[active] = f[active]  # active entries are exact already
        return full
