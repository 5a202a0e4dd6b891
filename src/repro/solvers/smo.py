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

``shrinking=True`` adds LibSVM's shrinking heuristic (its default,
``-h 1``).  The loop always works on an *active set*; every
``shrink_interval`` iterations it drops the bound instances the
indicators say cannot be selected again:

- ``i`` in ``I_up`` only (``alpha=0, y=+1`` or ``alpha=C, y=-1``) is
  inactive once ``f_i >= max_{I_low} f`` — pairing it with any partner
  yields no progress;
- ``i`` in ``I_low`` only (``alpha=C, y=+1`` or ``alpha=0, y=-1``) is
  inactive once ``f_i <= min_{I_up} f``.

Free support vectors are never shrunk.  Selection, updates and kernel
rows then cover the active instances only.  When the active set is
optimal, the full indicator vector is rebuilt from the support vectors
(LibSVM's ``reconstruct_gradient``), everything is unshrunk, and the loop
continues until the *global* condition (Eq. 9) holds — so the classifier
is the unshrunk solver's.  With shrinking off the active set is every
instance and the loop runs on the full arrays.
"""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np

from repro.exceptions import ConvergenceWarning, ValidationError
from repro.gpusim.engine import FLOAT_BYTES
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
from repro.solvers.warm_start import reconstruct_gradient

__all__ = ["ClassicSMOSolver"]


class ClassicSMOSolver:
    """Two-element working-set SMO (LibSVM-equivalent).

    ``cache_bytes`` sizes an LRU kernel-row buffer (LibSVM's cache
    policy); ``None`` or 0 computes every row it fetches.
    ``shrink_interval`` defaults to ``min(n, 1000)`` iterations.
    """

    def __init__(
        self,
        *,
        penalty: float,
        epsilon: float = 1e-3,
        max_iterations: Optional[int] = None,
        shrinking: bool = False,
        shrink_interval: Optional[int] = None,
        cache_bytes: Optional[int] = None,
    ) -> None:
        if epsilon <= 0:
            raise ValidationError(f"epsilon must be positive, got {epsilon}")
        self.penalty = float(penalty)
        self.epsilon = float(epsilon)
        self.max_iterations = max_iterations
        self.shrinking = shrinking
        self.shrink_interval = shrink_interval
        self.cache_bytes = cache_bytes

    def buffer_nbytes(self, width: int) -> int:
        """Footprint of the kernel buffer for rows ``width`` long (0: none).

        ``cache_bytes`` buys whole rows: at least two, at most ``width``.
        """
        if not self.cache_bytes:
            return 0
        rows = max(2, int(self.cache_bytes) // (width * FLOAT_BYTES))
        return min(rows, width) * width * FLOAT_BYTES

    def solve(
        self,
        rows: KernelRowComputer,
        y: np.ndarray,
        *,
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
        interval = (
            self.shrink_interval
            if self.shrink_interval is not None
            else min(n, 1000)
        )

        alpha = np.zeros(n)
        f = -labels.copy()  # f_i = -y_i at alpha = 0 (Algorithm 1 line 2)
        diagonal = rows.diagonal()
        kernel_rows = _ActiveRows(self, rows)
        # ``active`` is None while every instance is active; the loop's
        # arrays are then the full ones.  After a shrink they are gathered
        # copies, and the full ``alpha`` is written back on the next change.
        active: Optional[np.ndarray] = None
        y_a, alpha_a, f_a, c_a, diag_a = labels, alpha, f, penalty, diagonal
        shrink_events = reconstructions = 0

        iteration = since_shrink = 0
        converged = False
        f_up = f_low = 0.0
        while iteration < max_iter:
            width = y_a.size
            up = upper_mask(y_a, alpha_a, c_a)
            low = lower_mask(y_a, alpha_a, c_a)
            engine.elementwise(
                "selection", width, flops_per_element=4, arrays_read=2,
                memory="cached",
            )
            u, f_up = engine.reduce_extremum(
                f_a, up, mode="min", category="selection"
            )
            l, f_low = engine.reduce_extremum(
                f_a, low, mode="max", category="selection"
            )
            optimal = u < 0 or l < 0 or f_low - f_up <= self.epsilon
            if not optimal:
                k_u = kernel_rows.fetch(u)
                # Second-order choice of l (Eq. 5): among I_low with
                # f_i > f_u, maximise (f_u - f_i)^2 / eta_i.
                eta = diag_a[u] + diag_a - 2.0 * k_u
                np.maximum(eta, TAU, out=eta)
                diff = f_a - f_up
                gain = np.where(low & (diff > 0), (diff * diff) / eta, -np.inf)
                engine.elementwise(
                    "selection", width, flops_per_element=6, arrays_read=3,
                    memory="cached",
                )
                l, _ = engine.reduce_extremum(
                    gain, None, mode="max", category="selection"
                )
                optimal = l < 0 or not np.isfinite(gain[l])
            if optimal:
                if active is None:
                    converged = True
                    break
                # Optimal on the active set only: unshrink, re-check globally.
                f = _unshrink(rows, labels, alpha, active, alpha_a, f_a)
                active = None
                y_a, alpha_a, f_a, c_a, diag_a = labels, alpha, f, penalty, diagonal
                kernel_rows.restrict(None)
                reconstructions += 1
                since_shrink = 0
                continue

            k_l = kernel_rows.fetch(l)

            # Two-variable update (Eqs. 6/7) with box clipping.
            eta_ul = max(diag_a[u] + diag_a[l] - 2.0 * k_u[l], TAU)
            lam = (f_a[l] - f_up) / eta_ul
            bound_u = (c_a[u] - alpha_a[u]) if y_a[u] > 0 else alpha_a[u]
            bound_l = alpha_a[l] if y_a[l] > 0 else (c_a[l] - alpha_a[l])
            lam = min(lam, bound_u, bound_l)
            engine.elementwise("subproblem", 2, flops_per_element=8)
            if lam <= 0:
                # Numerically stuck pair; treat as converged at this gap.
                break
            delta_u = y_a[u] * lam
            delta_l = -y_a[l] * lam
            alpha_a[u] += delta_u
            alpha_a[l] += delta_l

            # Indicator refresh (Eq. 8) over the active instances.
            f_a += delta_u * y_a[u] * k_u + delta_l * y_a[l] * k_l
            engine.elementwise(
                "f_update", width, flops_per_element=4, arrays_read=3,
                memory="cached",
            )
            iteration += 1
            since_shrink += 1

            if self.shrinking and since_shrink >= interval and width > 2:
                since_shrink = 0
                keep = _still_selectable(y_a, alpha_a, f_a, c_a)
                engine.elementwise(
                    "selection", width, flops_per_element=4, arrays_read=3,
                    memory="cached",
                )
                if keep is not None:
                    if active is None:
                        active = np.flatnonzero(keep)
                    else:
                        alpha[active] = alpha_a
                        active = active[keep]
                    y_a, alpha_a, f_a, c_a, diag_a = (
                        y_a[keep], alpha_a[keep], f_a[keep], c_a[keep], diag_a[keep]
                    )
                    kernel_rows.restrict(active)
                    shrink_events += 1

        if not converged:
            warnings.warn(
                f"SMO hit the iteration cap ({max_iter}) with gap "
                f"{f_low - f_up:.3g} > eps {self.epsilon:.3g}",
                ConvergenceWarning,
                stacklevel=2,
            )
        if active is not None:
            f = _unshrink(rows, labels, alpha, active, alpha_a, f_a)

        gap = optimality_gap(f, labels, alpha, penalty)
        return SolverResult(
            alpha=alpha,
            bias=bias_from_f(f, labels, alpha, penalty),
            converged=converged,
            iterations=iteration,
            rounds=iteration,
            objective=dual_objective(alpha, labels, f),
            final_gap=gap,
            kernel_rows_computed=kernel_rows.computed,
            buffer_hit_rate=kernel_rows.hit_rate,
            diagnostics={
                "shrink_events": shrink_events,
                "reconstructions": reconstructions,
                "row_fetches": kernel_rows.fetches,
            },
            f=f,
        )


class _ActiveRows:
    """Kernel rows against the active columns, through one LRU buffer.

    Rows are keyed by their position in the active set; the buffer is
    rebuilt, at the new width, whenever the active set changes.
    """

    def __init__(self, solver: ClassicSMOSolver, rows: KernelRowComputer) -> None:
        self._solver = solver
        self._rows = rows
        self.fetches = 0
        self.computed = 0
        self.restrict(None)

    def restrict(self, columns: Optional[np.ndarray]) -> None:
        """Serve rows against ``columns`` (None: every instance)."""
        self._columns = columns
        self._width = self._rows.n if columns is None else columns.size
        nbytes = self._solver.buffer_nbytes(self._width)
        self._buffer = None
        if nbytes:
            capacity = nbytes // (self._width * FLOAT_BYTES)
            self._buffer = KernelBuffer(capacity, self._width, policy="lru")

    @property
    def hit_rate(self) -> float:
        """Fraction of fetches served from a buffer (0.0 without one)."""
        if self._buffer is None or not self.fetches:
            return 0.0
        return (self.fetches - self.computed) / self.fetches

    def fetch(self, position: int) -> np.ndarray:
        """The kernel row of the active instance at ``position``."""
        # Whether cached or freshly computed, the consuming kernels stream
        # the row out of device memory once.
        self._rows.engine.charge(
            "kernel_values", bytes_read=self._width * FLOAT_BYTES, launches=0
        )
        self.fetches += 1
        if self._buffer is None:
            return self._compute([position])[0]
        return self._buffer.fetch([position], self._compute)[0]

    def _compute(self, positions: object) -> np.ndarray:
        self.computed += len(positions)
        if self._columns is None:
            return self._rows.rows(positions, category="kernel_values")
        return self._rows.rows(
            self._columns[positions],
            columns=self._columns,
            category="kernel_values",
        )


def _still_selectable(
    labels: np.ndarray, alpha: np.ndarray, f: np.ndarray, penalty: np.ndarray
) -> Optional[np.ndarray]:
    """Mask of the active instances to keep, or None when none drops.

    A shrink that would leave fewer than two instances is skipped.
    """
    up = upper_mask(labels, alpha, penalty)
    low = lower_mask(labels, alpha, penalty)
    if not up.any() or not low.any():
        return None
    keep = ~(
        (up & ~low & (f >= f[low].max())) | (low & ~up & (f <= f[up].min()))
    )
    if keep.all() or np.count_nonzero(keep) < 2:
        return None
    return keep


def _unshrink(
    rows: KernelRowComputer,
    labels: np.ndarray,
    alpha: np.ndarray,
    active: np.ndarray,
    alpha_active: np.ndarray,
    f_active: np.ndarray,
) -> np.ndarray:
    """Write the active weights back and rebuild every indicator.

    The inactive indicators drifted while their updates were skipped;
    rebuilding them from the support vectors — one batched kernel product
    — is the price of shrinking.  The active ones are exact already.
    """
    alpha[active] = alpha_active
    f = reconstruct_gradient(rows, labels, alpha, category="kernel_values")
    f[active] = f_active
    return f
