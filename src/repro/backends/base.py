"""The compute-backend contract.

A :class:`ComputeBackend` owns the numeric primitives every layer of the
pipeline is built on — the batched kernel-row products (``a @ b.T`` plus
the squared row norms the Gaussian expansion needs), the batched Gaussian
elimination of the coupling stage, and the reduction primitives of the
solvers.  The simulated :class:`~repro.gpusim.engine.Engine` dispatches
its numeric work to whichever backend it was built with, so swapping a
backend changes the arithmetic (and the cost model's precision width)
without touching solver, serving or distributed code.

Two backends ship in-tree:

- ``"numpy64"`` — the float64 reference path (row-pure tiled products,
  batched partial-pivot elimination), held to **bitwise** parity across
  every execution path (fused or not, sharded, served).
- ``"numpy32"`` — the float32/mixed-precision fast path: kernel rows,
  cross products and row norms in float32, accumulation (decision-value
  sums, coupling, elimination, reductions) in float64.  It is held to
  accuracy-*delta* gates (probability L-infinity, argmax agreement)
  rather than bitwise parity; see DESIGN.md §16.

Entry points select a backend by name through
:func:`repro.backends.resolve_backend`; tests substitute fake backends by
passing a :class:`ComputeBackend` instance instead of a name.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Union

import numpy as np

__all__ = ["ComputeBackend"]


class ComputeBackend(ABC):
    """Numeric primitives one precision/implementation regime provides.

    Subclasses set :attr:`name` (what entry points select it by and saved
    models record), :attr:`dtype` (the working element type of kernel rows
    and cross products) and the two cost-model scales the simulator
    applies to every charge:

    - :attr:`flop_time_scale` — multiplier on the FLOP term of the cost
      model (a float32 pipe runs ~2x the float64 peak, so 0.5);
    - :attr:`dram_byte_scale` — multiplier on DRAM/PCIe byte traffic
      (half-width elements move half the bytes, so 0.5).

    The reference backend keeps both at exactly 1.0, so its simulated
    timeline is the unscaled cost model.
    """

    name: str = "abstract"
    dtype: type = np.float64
    flop_time_scale: float = 1.0
    dram_byte_scale: float = 1.0

    # -- kernel-row evaluation ------------------------------------------
    @abstractmethod
    def matmul_transpose(self, a: object, b: object) -> np.ndarray:
        """Cross product ``a @ b.T`` for dense, CSR or prepared operands.

        The engine passes :class:`~repro.backends.reference.HostOperand`
        wrappers (see :func:`~repro.backends.reference.host_operand`).

        This is the single product batched kernel-row evaluation is built
        on (the paper computes it with cuSPARSE/cuBLAS); the kernel
        transforms (exp/tanh/power) then run in the dtype this returns.
        """

    @abstractmethod
    def row_norms_sq(self, matrix: object) -> np.ndarray:
        """Squared Euclidean row norms, in the backend's working dtype."""

    # -- batched elimination --------------------------------------------
    @abstractmethod
    def gaussian_elimination_batch(
        self,
        matrices: np.ndarray,
        rhs: np.ndarray,
        *,
        pivot_tolerance: float = 1e-12,
        on_singular: str = "raise",
    ) -> Union[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Solve a ``(m, n, n)`` stack of linear systems (coupling Eq. 15).

        Accumulation stays float64 on every in-tree backend — the coupling
        systems are tiny and ill-conditioned near-degenerate ``r``, so the
        mixed-precision contract narrows storage, never the solve.
        """

    # -- reduction primitives -------------------------------------------
    @abstractmethod
    def reduce_sum(self, values: np.ndarray) -> float:
        """Sum-reduce a vector (float64 accumulation on every backend)."""

    def reduce_sum_rows(self, values: np.ndarray) -> np.ndarray:
        """:meth:`reduce_sum` of each row of an ``(m, n)`` stack.

        NumPy sums each row of a C-contiguous stack along the same pairwise
        tree as that row alone, so the sums equal the per-row
        ``reduce_sum`` bit for bit; a zero-padded wider row would not.
        """
        return np.ascontiguousarray(values).sum(axis=1, dtype=np.float64)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r} dtype={np.dtype(self.dtype).name}>"
