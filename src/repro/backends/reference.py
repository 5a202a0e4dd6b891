"""The float64 reference numerics.

The row/column-tiled ``matmul_transpose`` every kernel value comes from,
the :class:`HostOperand` form its operands are prepared in, and the
batched Gaussian elimination of the coupling stage.  Bitwise stability
of every parity suite (training, serving, distributed) rests on the
tiling contract documented below; the simulated clock depends only on
the operands' source matrices, never on how the host multiplies them.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.exceptions import SolverError, ValidationError
from repro.sparse import ops as mops
from repro.sparse.csr import CSRMatrix

__all__ = [
    "MATMUL_TILE_ROWS",
    "MATMUL_MIN_TILE_ROWS",
    "MATMUL_TILE_COLS",
    "DENSE_HOST_MAX_COLS",
    "HostOperand",
    "host_operand",
    "row_tile",
    "matmul_transpose",
    "gaussian_elimination",
    "gaussian_elimination_batch",
]

# Row-pure tiles for the dense-dense product.  BLAS derives its internal
# blocking — and with it the per-element accumulation order — from the
# operand shapes, so the same row can come out bitwise-different depending
# on how many rows it is batched with (a lone row even dispatches to a
# different GEMV path), and the same *column* can come out different
# depending on which other columns ride along.  Every product therefore
# runs as ``(row_tile(rows), k) @ (k, MATMUL_TILE_COLS)`` calls on
# contiguous zero-padded tiles: full 256-row chunks in 256-row tiles, a
# partial chunk in the smallest power-of-two tile that holds it, 8 to 256
# rows.  This assumes every row tile from 8 to 256 computes a row
# bitwise-identically: true of OpenBLAS's Haswell GEMM kernels, and pinned
# by ``tests/test_matmul_tiles.py``, which names the tile and ``k`` that
# break it; tiles under 8 rows break it, hence the floor.  Each output
# element is then a pure function of ``(a_row, b_row)``, independent of
# batch composition on *either* axis.  Only kernel values rely on it:
# training rows (the interleaved trainer fuses concurrent SVMs' row demand
# into union batches) and prediction blocks (fused dispatches stack
# requests).
# The decision sums over a block are a per-row segment sum
# (``repro.multiclass.sv_sharing``).
#
# A CSR operand whose feature space is at most ``DENSE_HOST_MAX_COLS``
# wide is densified (an exact copy) and takes the same tiled GEMM, so it
# inherits the invariant.  The rule reads only the column count, never
# the density: every operand drawn from one feature space then takes the
# same product, whichever rows a batch holds.  Wider CSR operands keep
# the per-row CSR loop and segment reductions, which are row-pure by
# construction.  The simulated clock charges the operands as given
# (``repro.gpusim.engine``), so the host product never moves it.
MATMUL_TILE_ROWS = 256
MATMUL_MIN_TILE_ROWS = 8
MATMUL_TILE_COLS = 256
# Chosen from ``benchmarks/bench_dense_host.py``; news20's 2560 columns at
# 3% density stay on the CSR path.
DENSE_HOST_MAX_COLS = 256


def row_tile(rows: int) -> int:
    """The row tile :func:`matmul_transpose` runs a ``rows``-row chunk in."""
    tile = 1 << max(rows - 1, 0).bit_length()
    return min(MATMUL_TILE_ROWS, max(MATMUL_MIN_TILE_ROWS, tile))


class HostOperand:
    """One side of ``a @ b.T``, in the form the host multiplies fastest.

    ``source`` is the matrix as given (dense or CSR); the cost model
    charges it.  ``tiled`` says whether the operand takes the tiled GEMM:
    a dense source does, and so does a CSR source at most
    :data:`DENSE_HOST_MAX_COLS` columns wide, densified on demand.  As the
    ``b`` side, an operand is multiplied through its transposed column
    tiles: built per product by default, or built once and kept by
    :meth:`keep_tiles` for an operand multiplied against many times (a
    training set, a class's CSR column block, a serving pool).
    """

    __slots__ = ("source", "tiled", "_column_tiles")

    def __init__(self, source: object) -> None:
        self.source = source
        self.tiled = (
            not isinstance(source, CSRMatrix)
            or source.shape[1] <= DENSE_HOST_MAX_COLS
        )
        self._column_tiles: Optional[list] = None

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the source matrix."""
        return self.source.shape

    @property
    def dtype(self) -> np.dtype:
        """Element type of the dense form."""
        if isinstance(self.source, CSRMatrix):
            return np.dtype(np.float64)
        return np.asarray(self.source).dtype

    def dense(self) -> np.ndarray:
        """The source as a dense array (an exact copy when it is CSR)."""
        if isinstance(self.source, CSRMatrix):
            return self.source.toarray()
        return np.asarray(self.source)

    def take_rows(self, indices: np.ndarray) -> "HostOperand":
        """The operand of the given rows of the source."""
        return HostOperand(mops.take_rows(self.source, indices))

    def keep_tiles(self) -> "HostOperand":
        """Build the column tiles once and keep them resident; returns self."""
        if self.tiled and self._column_tiles is None:
            self._column_tiles = self.column_tiles()
        return self

    def column_tiles(self) -> list:
        """``(start, width, (k, MATMUL_TILE_COLS) block)`` per column tile.

        Every tile is materialised as its own contiguous zero-padded
        operand: a strided transpose view and a padded copy can dispatch
        to different GEMM paths, which would break element purity between
        full and partial tiles.
        """
        if self._column_tiles is not None:
            return self._column_tiles
        dense = self.dense()
        rows, k = dense.shape
        tiles = []
        for start in range(0, rows, MATMUL_TILE_COLS):
            width = min(MATMUL_TILE_COLS, rows - start)
            block = np.zeros((k, MATMUL_TILE_COLS), dtype=dense.dtype)
            block[:, :width] = dense[start : start + width].T
            tiles.append((start, width, block))
        return tiles


def host_operand(matrix: object) -> HostOperand:
    """``matrix`` as a :class:`HostOperand` (prepared operands pass through)."""
    return matrix if isinstance(matrix, HostOperand) else HostOperand(matrix)


def matmul_transpose(a: object, b: object) -> np.ndarray:
    """Dense ``a @ b.T`` for dense, CSR or prepared (:class:`HostOperand`) operands.

    This is the single product the whole kernel machinery is built on
    (the paper computes it with cuSPARSE/cuBLAS).  Output rows are
    bitwise-independent of how the ``a`` batch is composed (see
    :data:`MATMUL_TILE_ROWS`).
    """
    a, b = host_operand(a), host_operand(b)
    if a.shape[1] != b.shape[1]:
        raise ValidationError(f"column mismatch: {a.shape} vs {b.shape}")
    if a.tiled and b.tiled:
        return _tiled_product(a.dense(), b)
    if not (a.tiled or b.tiled):
        return a.source.matmul_transpose(b.source)
    if a.tiled:
        return b.source.dot_dense(np.ascontiguousarray(a.dense().T)).T
    return a.source.dot_dense(np.ascontiguousarray(b.dense().T))


def _tiled_product(dense_a: np.ndarray, b: HostOperand) -> np.ndarray:
    """``dense_a @ b.T`` in row-pure row tiles against ``b``'s column tiles."""
    m, k = dense_a.shape
    dtype = np.result_type(dense_a, b.dtype)
    out = np.empty((m, b.shape[0]), dtype=dtype)
    col_tiles = b.column_tiles()
    for r_start in range(0, m, MATMUL_TILE_ROWS):
        chunk = dense_a[r_start : r_start + MATMUL_TILE_ROWS]
        rows = chunk.shape[0]
        tile_r = row_tile(rows)
        if rows < tile_r or not chunk.flags.c_contiguous:
            padded = np.zeros((tile_r, k), dtype=dtype)
            padded[:rows] = chunk
            chunk = padded
        for c_start, cols, block in col_tiles:
            out[r_start : r_start + rows, c_start : c_start + cols] = (
                chunk @ block
            )[:rows, :cols]
    return out


def gaussian_elimination(
    matrix: np.ndarray,
    rhs: np.ndarray,
    *,
    pivot_tolerance: float = 1e-12,
) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by Gaussian elimination with partial pivoting.

    Raises :class:`~repro.exceptions.SolverError` when a pivot falls below
    ``pivot_tolerance`` times the matrix scale (numerically singular) —
    callers regularise and retry, as the paper does ("a small value is
    added to Q when its inversion does not exist").

    Implemented as a batch of one (see :func:`gaussian_elimination_batch`),
    so scalar and batched solves of the same system agree exactly.
    """
    a = np.asarray(matrix, dtype=np.float64)
    b = np.asarray(rhs, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if b.shape not in ((n,), (n, 1)):
        raise ValidationError(f"rhs shape {b.shape} incompatible with {a.shape}")
    x = gaussian_elimination_batch(
        a[None, :, :], b.reshape(1, n), pivot_tolerance=pivot_tolerance
    )
    return x[0]


def gaussian_elimination_batch(
    matrices: np.ndarray,
    rhs: np.ndarray,
    *,
    pivot_tolerance: float = 1e-12,
    on_singular: str = "raise",
) -> Union[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Solve ``matrices[i] @ x[i] = rhs[i]`` for a whole ``(m, n, n)`` stack.

    One pass of partial-pivot elimination runs over the batch: each of the
    ``n`` column steps performs its pivot search, row swap and rank-1 update
    for *all* ``m`` systems at once, so the Python-level loop is O(n)
    instead of O(m * n).  ``rhs`` has shape ``(m, n)``, or ``(n,)`` to share
    one right-hand side across the batch.

    ``on_singular`` selects what happens when a system's pivot falls below
    ``pivot_tolerance`` times that system's scale:

    - ``"raise"`` (default) — raise :class:`~repro.exceptions.SolverError`
      naming the first offending batch index, matching the scalar contract;
    - ``"mask"`` — keep going, return ``(x, singular)`` where ``singular``
      is a boolean ``(m,)`` mask and flagged rows of ``x`` are NaN; callers
      ridge-regularise and retry just those systems.
    """
    if on_singular not in ("raise", "mask"):
        raise ValidationError(
            f"on_singular must be 'raise' or 'mask', got {on_singular!r}"
        )
    a = np.array(matrices, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValidationError(f"matrices must be (m, n, n), got shape {a.shape}")
    m, n = a.shape[0], a.shape[1]
    b = np.array(rhs, dtype=np.float64)
    if b.shape == (n,):
        b = np.broadcast_to(b, (m, n)).copy()
    if b.shape != (m, n):
        raise ValidationError(f"rhs shape {b.shape} incompatible with {a.shape}")
    if m == 0:
        x = np.empty((0, n))
        return (x, np.zeros(0, dtype=bool)) if on_singular == "mask" else x

    batch = np.arange(m)
    scale = np.maximum(np.abs(a).reshape(m, -1).max(axis=1), 1.0)
    singular = np.zeros(m, dtype=bool)

    # Forward elimination, one column step across the whole batch.
    for col in range(n):
        pivot_rows = col + np.argmax(np.abs(a[:, col:, col]), axis=1)
        pivots = a[batch, pivot_rows, col]
        bad = np.abs(pivots) < pivot_tolerance * scale
        if bad.any():
            if on_singular == "raise":
                first = int(np.flatnonzero(bad)[0])
                raise SolverError(
                    f"singular matrix: pivot {pivots[first]:.3e} at column "
                    f"{col}" + (f" (batch index {first})" if m > 1 else "")
                )
            singular |= bad
        swap = pivot_rows != col
        if swap.any():
            who = np.flatnonzero(swap)
            rows = pivot_rows[who]
            a[who, col], a[who, rows] = a[who, rows], a[who, col].copy()
            b[who, col], b[who, rows] = b[who, rows], b[who, col].copy()
        # Give flagged systems a harmless pivot so the rest of the batch can
        # proceed; their results are overwritten with NaN below.
        if singular.any():
            a[singular, col, col] = scale[singular]
        factors = a[:, col + 1 :, col] / a[:, col, None, col]
        a[:, col + 1 :, col:] -= factors[:, :, None] * a[:, None, col, col:]
        b[:, col + 1 :] -= factors * b[:, None, col]

    # Back substitution.
    x = np.zeros((m, n))
    for row in range(n - 1, -1, -1):
        residual = b[:, row] - (a[:, row, row + 1 :] * x[:, row + 1 :]).sum(axis=1)
        x[:, row] = residual / a[:, row, row]
    if on_singular == "mask":
        x[singular] = np.nan
        return x, singular
    return x
