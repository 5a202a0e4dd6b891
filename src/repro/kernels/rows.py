"""Batched kernel-row computation against a fixed training set.

The paper's key binary-level optimisation precomputes all kernel values for
the q new violating instances as *one* batched product ("computing those
kernel values is essentially matrix multiplication between the q instances
and the rest of the training instances").  :class:`KernelRowComputer` owns
the dataset-side state (row norms, diagonal) and exposes exactly that
batched operation, charged to the engine under the ``kernel_values``
category so Figure 11's breakdown falls out of the clock.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backends.reference import HostOperand
from repro.exceptions import ValidationError
from repro.gpusim.engine import FLOAT_BYTES, Engine
from repro.kernels.functions import KernelFunction
from repro.sparse import ops as mops

__all__ = ["KernelRowComputer"]


class KernelRowComputer:
    """Computes rows/blocks of the kernel matrix of one dataset."""

    def __init__(
        self,
        engine: Engine,
        kernel: KernelFunction,
        data: mops.MatrixLike,
        *,
        category: str = "kernel_values",
    ) -> None:
        self.engine = engine
        self.kernel = kernel
        self.data = data
        # The dataset as the ``b`` side of its products; :meth:`rows` and
        # :meth:`warm` keep its column tiles resident.
        self.operand = HostOperand(data)
        self.category = category
        self._norms: Optional[np.ndarray] = None
        self._diagonal: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        """Number of instances (kernel-matrix side length)."""
        return mops.n_rows(self.data)

    @property
    def row_nbytes(self) -> int:
        """Device bytes one kernel row occupies (buffer sizing)."""
        return self.n * FLOAT_BYTES

    # ------------------------------------------------------------------
    # Dataset-side cached quantities
    # ------------------------------------------------------------------
    def norms(self) -> Optional[np.ndarray]:
        """Squared row norms, computed once (None for norm-free kernels)."""
        if not self.kernel.needs_norms:
            return None
        if self._norms is None:
            self._norms = KernelFunction.compute_norms(
                self.engine, self.data, category=self.category
            )
        return self._norms

    def warm(self) -> None:
        """Make the dataset side resident: row norms and GEMM column tiles."""
        self.norms()
        self.operand.keep_tiles()

    def diagonal(self) -> np.ndarray:
        """``K(x_i, x_i)`` for every instance (the eta terms of Eq. 5)."""
        if self._diagonal is None:
            norms = self.norms()
            if norms is None:
                norms = self.engine.backend.row_norms_sq(self.data)
                self.engine.elementwise(
                    self.category,
                    mops.matrix_nbytes(self.data) // FLOAT_BYTES,
                    flops_per_element=2,
                    arrays_read=1,
                    arrays_written=0,
                )
            self._diagonal = self.kernel.diagonal(
                self.engine, norms, category=self.category
            )
        return self._diagonal

    # ------------------------------------------------------------------
    # Row / block computation
    # ------------------------------------------------------------------
    def rows(
        self,
        indices: object,
        *,
        columns: Optional[np.ndarray] = None,
        category: Optional[str] = None,
    ) -> np.ndarray:
        """Kernel-matrix rows for the given instance indices, one batch.

        Returns a ``(len(indices), n)`` dense array, or only the given
        ``columns`` of those rows (a shrunk solver's active set).
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValidationError(f"indices must be 1-D, got shape {idx.shape}")
        cat = category if category is not None else self.category
        norms = self.norms()
        data = self.operand.keep_tiles()
        norms_b = norms
        if columns is not None:
            data = self.operand.take_rows(columns)
            norms_b = None if norms is None else norms[columns]
        return self.kernel.pairwise(
            self.engine,
            self.operand.take_rows(idx),
            data,
            category=cat,
            norms_a=None if norms is None else norms[idx],
            norms_b=norms_b,
        )

    def block(
        self,
        other: mops.MatrixLike,
        *,
        norms_other: Optional[np.ndarray] = None,
        column_indices: Optional[np.ndarray] = None,
        category: Optional[str] = None,
    ) -> np.ndarray:
        """Kernel block ``K(other_i, data_j)`` (e.g. test-vs-SV-pool).

        ``column_indices`` restricts the data side to a subset of instances
        (used by the class-pair sharing layer).
        """
        cat = category if category is not None else self.category
        norms = self.norms()
        data = self.operand
        if column_indices is not None:
            col_idx = np.asarray(column_indices, dtype=np.int64)
            data = self.operand.take_rows(col_idx)
            if norms is not None:
                norms = norms[col_idx]
        if self.kernel.needs_norms and norms_other is None:
            norms_other = KernelFunction.compute_norms(self.engine, other, category=cat)
        return self.kernel.pairwise(
            self.engine,
            other,
            data,
            category=cat,
            norms_a=norms_other,
            norms_b=norms,
        )
