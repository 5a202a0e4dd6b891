"""The ``numpy64`` reference backend: float64, bitwise-stable.

Every primitive delegates to the float64 reference implementation
(:mod:`repro.backends.reference` and :mod:`repro.sparse.ops`), and both
cost scales are exactly 1.0, so the simulated timeline is that of the
unscaled cost model.  This is the default backend everywhere.
"""

from __future__ import annotations

import numpy as np

from repro.backends import reference
from repro.backends.base import ComputeBackend
from repro.sparse import ops as mops

__all__ = ["Numpy64Backend"]


class Numpy64Backend(ComputeBackend):
    """Float64 NumPy backend; the bitwise-parity reference."""

    name = "numpy64"
    dtype = np.float64
    flop_time_scale = 1.0
    dram_byte_scale = 1.0

    def matmul_transpose(self, a: object, b: object) -> np.ndarray:
        return reference.matmul_transpose(a, b)

    def row_norms_sq(self, matrix: object) -> np.ndarray:
        return mops.row_norms_sq(matrix)

    def gaussian_elimination_batch(
        self,
        matrices: np.ndarray,
        rhs: np.ndarray,
        *,
        pivot_tolerance: float = 1e-12,
        on_singular: str = "raise",
    ):
        return reference.gaussian_elimination_batch(
            matrices,
            rhs,
            pivot_tolerance=pivot_tolerance,
            on_singular=on_singular,
        )

    def reduce_sum(self, values: np.ndarray) -> float:
        return float(values.sum())
