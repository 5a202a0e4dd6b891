"""The float64 reference numerics (the pre-registry implementations).

These are the exact routines that used to live in
``repro.sparse.ops.matmul_transpose`` and
``repro.probability.linalg.gaussian_elimination[_batch]``, moved here —
not rewritten — when the backend registry was introduced.  Bitwise
stability of every existing parity suite (training, serving, distributed)
rests on this code not changing.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.exceptions import SolverError, ValidationError
from repro.sparse.csr import CSRMatrix

__all__ = [
    "MATMUL_TILE_ROWS",
    "MATMUL_MIN_TILE_ROWS",
    "MATMUL_TILE_COLS",
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
# requests; a partitioned shard's sub-pool columns sit at other offsets).
# The decision sums over a block are a per-row segment sum
# (``repro.multiclass.sv_sharing``).  The CSR code paths are per-row loops
# / segment reductions and carry the invariant for free.
MATMUL_TILE_ROWS = 256
MATMUL_MIN_TILE_ROWS = 8
MATMUL_TILE_COLS = 256


def row_tile(rows: int) -> int:
    """The row tile :func:`matmul_transpose` runs a ``rows``-row chunk in."""
    tile = 1 << max(rows - 1, 0).bit_length()
    return min(MATMUL_TILE_ROWS, max(MATMUL_MIN_TILE_ROWS, tile))


def matmul_transpose(a: object, b: object) -> np.ndarray:
    """Dense ``a @ b.T`` for any combination of dense/CSR operands.

    This is the single product the whole kernel machinery is built on
    (the paper computes it with cuSPARSE/cuBLAS).  Output rows are
    bitwise-independent of how the ``a`` batch is composed (see
    :data:`MATMUL_TILE_ROWS`).
    """
    if a.shape[1] != b.shape[1]:
        raise ValidationError(f"column mismatch: {a.shape} vs {b.shape}")
    a_sparse = isinstance(a, CSRMatrix)
    b_sparse = isinstance(b, CSRMatrix)
    if a_sparse and b_sparse:
        return a.matmul_transpose(b)
    if a_sparse:
        return a.dot_dense(np.ascontiguousarray(np.asarray(b).T))
    if b_sparse:
        return b.dot_dense(np.ascontiguousarray(np.asarray(a).T)).T
    dense_a = np.asarray(a)
    dense_b = np.asarray(b)
    tile_c = MATMUL_TILE_COLS
    m, k = dense_a.shape
    n = dense_b.shape[0]
    dtype = np.result_type(dense_a, dense_b)
    out = np.empty((m, n), dtype=dtype)
    # Materialise every column tile as a contiguous (k, tile_c) operand up
    # front: a strided transpose view and a padded copy can dispatch to
    # different GEMM paths, which would break element purity between full
    # and partial tiles.
    col_tiles = []
    for c_start in range(0, n, tile_c):
        cols = min(tile_c, n - c_start)
        block = np.zeros((k, tile_c), dtype=dtype)
        block[:, :cols] = dense_b[c_start : c_start + cols].T
        col_tiles.append((c_start, cols, block))
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
