"""The ``numpy32`` mixed-precision fast path.

Storage-bound work runs in float32, accumulation-bound work stays
float64 — the trade "Recipe for Fast Large-scale SVM Training" shows
dominates large-scale SVM throughput:

- **float32**: cross products (a single SGEMM per block — no padded
  tiling, since this backend is delta-gated rather than bitwise-gated)
  and squared row norms.  Kernel transforms downstream (exp/tanh/power)
  inherit float32 from the dots, so kernel rows are float32 end to end.
- **float64**: the decision-value weighted sums (float32 kernel blocks
  are widened before the multiply by the float64 coefficients), the
  coupling elimination (tiny ill-conditioned systems; narrowed storage,
  never the solve) and all reductions.

Sparse (CSR) operands take the float64 reference product and narrow the
result: a CSR feature space at most ``DENSE_HOST_MAX_COLS`` wide runs as
the densified, row/column-tiled float64 GEMM, a wider one as the per-row
CSR loop.  Neither is precision-bound enough on the host for a float32
re-implementation to pay for its parity risk.

Accuracy is enforced by the delta gates of the conformance suite and the
``BENCH_backends`` SLOs: probability L-infinity delta <= 1e-3 against
``numpy64`` and argmax agreement >= 99.9%.  The cost-model scales (0.5x
FLOP time, 0.5x DRAM/PCIe bytes) model the 2x float32 throughput and
half-width traffic of the simulated device.
"""

from __future__ import annotations

import numpy as np

from repro.backends import reference
from repro.backends.base import ComputeBackend
from repro.exceptions import ValidationError
from repro.sparse import ops as mops
from repro.sparse.csr import CSRMatrix

__all__ = ["Numpy32Backend"]


class Numpy32Backend(ComputeBackend):
    """Float32 storage / float64 accumulation NumPy backend."""

    name = "numpy32"
    dtype = np.float32
    flop_time_scale = 0.5
    dram_byte_scale = 0.5

    def matmul_transpose(self, a: object, b: object) -> np.ndarray:
        a, b = reference.host_operand(a), reference.host_operand(b)
        if isinstance(a.source, CSRMatrix) or isinstance(b.source, CSRMatrix):
            return reference.matmul_transpose(a, b).astype(np.float32)
        if a.shape[1] != b.shape[1]:
            raise ValidationError(f"column mismatch: {a.shape} vs {b.shape}")
        a32 = a.dense().astype(np.float32, copy=False)
        b32 = b.dense().astype(np.float32, copy=False)
        return a32 @ b32.T

    def row_norms_sq(self, matrix: object) -> np.ndarray:
        if isinstance(matrix, CSRMatrix):
            return mops.row_norms_sq(matrix).astype(np.float32)
        m32 = np.asarray(matrix, dtype=np.float32)
        return np.einsum("ij,ij->i", m32, m32)

    def gaussian_elimination_batch(
        self,
        matrices: np.ndarray,
        rhs: np.ndarray,
        *,
        pivot_tolerance: float = 1e-12,
        on_singular: str = "raise",
    ):
        # Float64 accumulation by contract (the reference routine widens
        # its inputs); float32 Q matrices narrow only the inputs.
        return reference.gaussian_elimination_batch(
            matrices,
            rhs,
            pivot_tolerance=pivot_tolerance,
            on_singular=on_singular,
        )

    def reduce_sum(self, values: np.ndarray) -> float:
        return float(np.asarray(values).sum(dtype=np.float64))
