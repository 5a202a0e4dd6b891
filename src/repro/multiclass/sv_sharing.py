"""Support-vector sharing across binary SVMs (Section 3.3.3).

"Without support vector sharing, the same training instance may be stored
in (k - 1) binary SVMs as a support vector.  Our support vector sharing
technique reduces the GPU memory consumption by up to a factor of
(k - 1)."

The pool stores every distinct support vector once and gives each binary
SVM a view (pool positions + signed coefficients).  At prediction time the
kernel block between the test batch and the *pool* is computed once; every
SVM's decision values are then cheap weighted sums over its slice of that
block — this is both the memory saving and the kernel-value sharing of the
paper's prediction phase.  The sums are an elementwise multiply and a
per-row segment sum, not BLAS gemv (whose bits depend on the batch shape).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.gpusim.engine import FLOAT_BYTES, Engine
from repro.kernels.functions import KernelFunction
from repro.kernels.rows import KernelRowComputer
from repro.sparse import ops as mops
from repro.sparse.csr import segment_sums

__all__ = ["SupportVectorPool", "PooledSVM"]


@dataclass(frozen=True)
class PooledSVM:
    """One binary SVM's view into the shared pool."""

    s: int
    t: int
    pool_positions: np.ndarray  # positions into the pool's row order
    coefficients: np.ndarray  # alpha_i * y_i, aligned with pool_positions
    bias: float


class SupportVectorPool:
    """Deduplicated support vectors of all binary SVMs of one model."""

    def __init__(
        self,
        pool_data: mops.MatrixLike,
        pool_global_indices: np.ndarray,
        svms: list[PooledSVM],
    ) -> None:
        self.pool_data = pool_data
        self.pool_global_indices = np.asarray(pool_global_indices, dtype=np.int64)
        self.svms = svms
        if mops.n_rows(pool_data) != self.pool_global_indices.size:
            raise ValidationError("pool data and index arrays disagree")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        train_data: mops.MatrixLike,
        per_svm: list[tuple[int, int, np.ndarray, np.ndarray, float]],
    ) -> "SupportVectorPool":
        """Build the pool from per-SVM support lists.

        ``per_svm`` entries are ``(s, t, global_sv_indices, coefficients,
        bias)`` where coefficients are ``alpha_i * y_i`` of the binary
        problem, aligned with the global indices.
        """
        all_indices = (
            np.concatenate([entry[2] for entry in per_svm])
            if per_svm
            else np.empty(0, dtype=np.int64)
        )
        unique = np.unique(all_indices)
        position_of = {int(g): pos for pos, g in enumerate(unique)}
        svms = []
        for s, t, indices, coefficients, bias in per_svm:
            if indices.size != coefficients.size:
                raise ValidationError(
                    f"SVM ({s},{t}): {indices.size} SVs but "
                    f"{coefficients.size} coefficients"
                )
            positions = np.asarray(
                [position_of[int(g)] for g in indices], dtype=np.int64
            )
            svms.append(
                PooledSVM(
                    s=s,
                    t=t,
                    pool_positions=positions,
                    coefficients=np.asarray(coefficients, dtype=np.float64),
                    bias=float(bias),
                )
            )
        pool_data = mops.take_rows(train_data, unique) if unique.size else None
        if pool_data is None:
            raise ValidationError("model has no support vectors")
        return cls(pool_data, unique, svms)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_pool(self) -> int:
        """Distinct support vectors stored."""
        return int(self.pool_global_indices.size)

    @property
    def n_references(self) -> int:
        """Total SV references across SVMs (what unshared storage holds)."""
        return int(sum(svm.pool_positions.size for svm in self.svms))

    @property
    def sharing_factor(self) -> float:
        """References per stored vector; up to (k - 1) per the paper."""
        return self.n_references / self.n_pool if self.n_pool else 0.0

    @property
    def pool_nbytes(self) -> int:
        """Device bytes the deduplicated pool occupies."""
        return mops.matrix_nbytes(self.pool_data)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    @cached_property
    def _groups(self) -> list[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
        """Runs of consecutive SVMs whose gathered columns fit in ``n_pool``,
        so that a group's gather is never larger than the kernel block."""
        bounds, width = [0], 0
        for index, svm in enumerate(self.svms):
            if width + svm.pool_positions.size > self.n_pool:
                bounds.append(index)
                width = 0
            width += svm.pool_positions.size
        bounds.append(len(self.svms))
        return [self._group(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]

    def _group(self, first: int, end: int) -> tuple:
        """``(svm slice, pool positions, coefficients, segment offsets)``."""
        members = self.svms[first:end]
        return (
            slice(first, end),
            np.concatenate([svm.pool_positions for svm in members]),
            np.concatenate([svm.coefficients for svm in members]),
            np.cumsum([0] + [svm.pool_positions.size for svm in members]),
        )

    def decision_values_from_block(
        self,
        engine: Engine,
        block: np.ndarray,
        *,
        category: str = "decision_values",
    ) -> np.ndarray:
        """Decision values from a precomputed test-vs-pool kernel block.

        ``block`` must be the full ``(m, n_pool)`` kernel matrix between
        the test batch and the shared pool (what :class:`InferenceSession`
        keeps resident in its tile cache); each SVM's decision values are
        the cheap weighted sums over its slice.  Row ``i`` of the result
        depends only on row ``i`` of ``block``.
        """
        if block.shape[1] != self.n_pool:
            raise ValidationError(
                f"block has {block.shape[1]} columns; pool holds {self.n_pool}"
            )
        return self._decision_sums(
            engine,
            self._groups,
            lambda positions: np.take(block, positions, axis=1),
            block.shape[0],
            category,
        )

    def decision_values(
        self,
        engine: Engine,
        kernel: KernelFunction,
        test_data: mops.MatrixLike,
        *,
        shared: bool = True,
        category: str = "decision_values",
        computer: Optional[KernelRowComputer] = None,
    ) -> np.ndarray:
        """Decision values of every test instance under every binary SVM.

        Returns an ``(m, n_svms)`` array ordered like ``self.svms``.

        ``shared=True`` (GMP-SVM) computes the test-vs-pool kernel block
        once; ``shared=False`` (the GPU baseline) recomputes the block of
        each SVM's own support vectors separately, as Phase (iii)(1) does.
        ``computer`` optionally supplies a prebuilt pool-side
        :class:`KernelRowComputer` (with its norms already resident) so a
        sealed serving session skips the per-call pool preparation.
        """
        if computer is None:
            computer = KernelRowComputer(
                engine, kernel, self.pool_data, category=category
            )
        m = mops.n_rows(test_data)
        norms_test = (
            KernelFunction.compute_norms(engine, test_data, category=category)
            if kernel.needs_norms
            else None
        )
        if shared:
            block = computer.block(
                test_data, norms_other=norms_test, category=category
            )
            return self.decision_values_from_block(
                engine, block, category=category
            )

        return self._decision_sums(
            engine,
            [self._group(j, j + 1) for j in range(len(self.svms))],
            lambda positions: computer.block(
                test_data,
                norms_other=norms_test,
                column_indices=positions,
                category=category,
            ),
            m,
            category,
        )

    def _decision_sums(
        self,
        engine: Engine,
        groups: list[tuple],
        columns_of: Callable[[np.ndarray], np.ndarray],
        m: int,
        category: str,
    ) -> np.ndarray:
        """``sum_i alpha_i y_i K(x, sv_i) + b`` for every SVM, group by group.

        ``columns_of(positions)`` returns a group's kernel columns side by
        side, as a fresh array this overwrites.  An exact elementwise
        float64 multiply into a C-ordered array, then a per-row segment sum
        (``np.add.reduceat``): every value is a pure function of one test
        row and one SVM's columns, whatever the batch, the segment's offset
        or its neighbours.  The simulated device still pays one launch per
        SVM, in SVM order.
        """
        out = np.empty((m, len(self.svms)))
        for members, positions, coefficients, offsets in groups:
            products = np.asarray(columns_of(positions), np.float64, order="C")
            np.multiply(products, coefficients, out=products)
            out[:, members] = segment_sums(products, offsets, axis=1)
            del products  # before the next group's gather, not after it
            for size in np.diff(offsets).tolist():
                engine.charge(
                    category,
                    flops=2 * m * size,
                    bytes_read=m * size * FLOAT_BYTES,
                    bytes_written=m * FLOAT_BYTES,
                    launches=1,
                )
        out += [svm.bias for svm in self.svms]
        return out
