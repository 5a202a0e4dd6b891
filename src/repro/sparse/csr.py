"""A compressed-sparse-row matrix implemented from scratch on NumPy arrays.

This is the storage format the paper uses for training data (Section 5:
"We also use CSR format to represent the training data for handling large
but sparse datasets").  Only the operations the SVM machinery needs are
implemented, but each is implemented carefully: row gather, sparse-times-
dense products, ``A @ B.T`` products between two CSR matrices (the batched
kernel-row computation), squared row norms (for the Gaussian kernel), and
stacking.

Invariants maintained by every constructor and method:

- ``indptr`` has length ``n_rows + 1``, starts at 0, is non-decreasing and
  ends at ``nnz``.
- ``indices[indptr[i]:indptr[i + 1]]`` is strictly increasing (canonical
  form: sorted, no duplicate columns).
- ``data`` is float64 and contains no explicit zeros after ``prune``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import SparseFormatError

__all__ = ["CSRMatrix", "DOT_DENSE_MAX_BYTES"]

# Byte budget of one ``CSRMatrix.dot_dense`` intermediate (see there).
DOT_DENSE_MAX_BYTES = 32 << 20


def _as_index_array(values: object) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise SparseFormatError(f"index array must be 1-D, got shape {arr.shape}")
    return arr


def _as_data_array(values: object) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise SparseFormatError(f"data array must be 1-D, got shape {arr.shape}")
    return arr


class CSRMatrix:
    """A 2-D sparse matrix in canonical compressed-sparse-row form."""

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(
        self,
        data: object,
        indices: object,
        indptr: object,
        shape: tuple[int, int],
        *,
        check: bool = True,
    ) -> None:
        self.data = _as_data_array(data)
        self.indices = _as_index_array(indices)
        self.indptr = _as_index_array(indptr)
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if n_rows < 0 or n_cols < 0:
            raise SparseFormatError(f"shape must be non-negative, got {shape}")
        self.shape = (n_rows, n_cols)
        if check:
            self._validate()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, array: object, *, tolerance: float = 0.0) -> "CSRMatrix":
        """Build a CSR matrix from a dense 2-D array.

        Entries with ``abs(value) <= tolerance`` are treated as zeros.
        """
        dense = np.asarray(array, dtype=np.float64)
        if dense.ndim != 2:
            raise SparseFormatError(f"expected a 2-D array, got shape {dense.shape}")
        mask = np.abs(dense) > tolerance
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.cumsum(mask.sum(axis=1), out=indptr[1:])
        rows, cols = np.nonzero(mask)
        del rows  # ordering of np.nonzero is already row-major
        return cls(dense[mask], cols, indptr, dense.shape, check=False)

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[tuple[object, object]],
        n_cols: int,
    ) -> "CSRMatrix":
        """Build from a sequence of ``(column_indices, values)`` pairs.

        Columns within a row may arrive unsorted; they are canonicalised.
        Duplicate columns within a row are rejected.
        """
        index_chunks: list[np.ndarray] = []
        data_chunks: list[np.ndarray] = []
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        for i, (cols, vals) in enumerate(rows):
            col_arr = _as_index_array(cols)
            val_arr = _as_data_array(vals)
            if col_arr.shape != val_arr.shape:
                raise SparseFormatError(
                    f"row {i}: {col_arr.size} indices but {val_arr.size} values"
                )
            order = np.argsort(col_arr, kind="stable")
            col_arr = col_arr[order]
            val_arr = val_arr[order]
            if col_arr.size and np.any(np.diff(col_arr) == 0):
                raise SparseFormatError(f"row {i}: duplicate column index")
            index_chunks.append(col_arr)
            data_chunks.append(val_arr)
            indptr[i + 1] = indptr[i] + col_arr.size
        data = np.concatenate(data_chunks) if data_chunks else np.empty(0)
        indices = (
            np.concatenate(index_chunks)
            if index_chunks
            else np.empty(0, dtype=np.int64)
        )
        return cls(data, indices, indptr, (len(rows), int(n_cols)))

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "CSRMatrix":
        """An all-zero matrix of the given shape."""
        indptr = np.zeros(int(shape[0]) + 1, dtype=np.int64)
        return cls(np.empty(0), np.empty(0, dtype=np.int64), indptr, shape, check=False)

    @classmethod
    def vstack(cls, matrices: Iterable["CSRMatrix"]) -> "CSRMatrix":
        """Stack CSR matrices vertically; all must share the column count."""
        mats = list(matrices)
        if not mats:
            raise SparseFormatError("vstack requires at least one matrix")
        width = mats[0].shape[1]
        for m in mats:
            if m.shape[1] != width:
                raise SparseFormatError(
                    f"vstack: column mismatch ({m.shape[1]} != {width})"
                )
        data = np.concatenate([m.data for m in mats])
        indices = np.concatenate([m.indices for m in mats])
        row_counts = [m.indptr[1:] - m.indptr[:-1] for m in mats]
        indptr = np.zeros(sum(m.shape[0] for m in mats) + 1, dtype=np.int64)
        np.cumsum(np.concatenate(row_counts), out=indptr[1:])
        total_rows = indptr.size - 1
        return cls(data, indices, indptr, (total_rows, width), check=False)

    # ------------------------------------------------------------------
    # Validation / canonical form
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        n_rows, n_cols = self.shape
        if self.indptr.size != n_rows + 1:
            raise SparseFormatError(
                f"indptr has {self.indptr.size} entries, expected {n_rows + 1}"
            )
        if n_rows >= 0 and (self.indptr.size == 0 or self.indptr[0] != 0):
            raise SparseFormatError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        if self.indptr[-1] != self.data.size:
            raise SparseFormatError(
                f"indptr ends at {self.indptr[-1]} but data has {self.data.size} entries"
            )
        if self.indices.size != self.data.size:
            raise SparseFormatError(
                f"{self.indices.size} indices but {self.data.size} data entries"
            )
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= n_cols:
                raise SparseFormatError(
                    f"column index out of range [0, {n_cols})"
                )
            for i in range(n_rows):
                row = self.indices[self.indptr[i] : self.indptr[i + 1]]
                if row.size > 1 and np.any(np.diff(row) <= 0):
                    raise SparseFormatError(
                        f"row {i}: column indices must be strictly increasing"
                    )

    def prune(self, *, tolerance: float = 0.0) -> "CSRMatrix":
        """Return a copy with explicit (near-)zero entries removed."""
        keep = np.abs(self.data) > tolerance
        row_ids = self._row_ids()[keep]
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_ids, minlength=self.shape[0]), out=indptr[1:])
        return CSRMatrix(
            self.data[keep], self.indices[keep], indptr, self.shape, check=False
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.data.size)

    @property
    def n_rows(self) -> int:
        """Row count."""
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        """Column count."""
        return self.shape[1]

    @property
    def density(self) -> float:
        """Fraction of cells that are stored (0 for an empty matrix)."""
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    @property
    def nbytes(self) -> int:
        """Bytes consumed by the three backing arrays."""
        return int(self.data.nbytes + self.indices.nbytes + self.indptr.nbytes)

    def copy(self) -> "CSRMatrix":
        """A deep copy (independent backing arrays)."""
        return CSRMatrix(
            self.data.copy(),
            self.indices.copy(),
            self.indptr.copy(),
            self.shape,
            check=False,
        )

    def _row_ids(self) -> np.ndarray:
        """Row id of each stored entry (length ``nnz``)."""
        return np.repeat(
            np.arange(self.shape[0], dtype=np.int64),
            np.diff(self.indptr),
        )

    # ------------------------------------------------------------------
    # Element / row access
    # ------------------------------------------------------------------
    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(column_indices, values)`` views of row ``i``."""
        i = self._check_row(i)
        start, stop = self.indptr[i], self.indptr[i + 1]
        return self.indices[start:stop], self.data[start:stop]

    def row_dense(self, i: int) -> np.ndarray:
        """Row ``i`` as a dense 1-D array."""
        cols, vals = self.row(i)
        out = np.zeros(self.shape[1])
        out[cols] = vals
        return out

    def _check_row(self, i: int) -> int:
        i = int(i)
        if i < 0:
            i += self.shape[0]
        if not 0 <= i < self.shape[0]:
            raise IndexError(f"row {i} out of range for {self.shape[0]} rows")
        return i

    def take_rows(self, row_indices: object) -> "CSRMatrix":
        """Gather a subset of rows (in the given order) into a new matrix.

        Negative indices wrap, as in :meth:`row`.  One offset gather: each
        output entry's source position is its row's start plus its offset
        within the row, so the copy is exact.
        """
        idx = _as_index_array(row_indices)
        n_rows = self.shape[0]
        bad = (idx < -n_rows) | (idx >= n_rows)
        if bad.any():
            self._check_row(idx[np.argmax(bad)])  # raises the IndexError
        idx = np.where(idx < 0, idx + n_rows, idx)
        starts = self.indptr[idx]
        counts = self.indptr[idx + 1] - starts
        indptr = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        positions = np.repeat(starts - indptr[:-1], counts)
        positions += np.arange(indptr[-1], dtype=np.int64)
        return CSRMatrix(
            self.data[positions],
            self.indices[positions],
            indptr,
            (idx.size, self.shape[1]),
            check=False,
        )

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def toarray(self) -> np.ndarray:
        """Densify into an ``(n_rows, n_cols)`` float64 array."""
        out = np.zeros(self.shape)
        if self.nnz:
            out[self._row_ids(), self.indices] = self.data
        return out

    def dot_vec(self, vector: object) -> np.ndarray:
        """``self @ vector`` for a dense 1-D vector of length ``n_cols``."""
        vec = np.asarray(vector, dtype=np.float64)
        if vec.shape != (self.shape[1],):
            raise SparseFormatError(
                f"vector of shape {vec.shape} incompatible with {self.shape}"
            )
        products = self.data * vec[self.indices]
        return segment_sums(products, self.indptr)

    def dot_dense(
        self,
        dense: object,
        *,
        chunk_rows: int = 4096,
        max_bytes: int = DOT_DENSE_MAX_BYTES,
    ) -> np.ndarray:
        """``self @ dense`` for a dense ``(n_cols, m)`` matrix, chunked.

        Chunks of ``chunk_rows`` CSR rows, each split into column chunks
        whose ``nnz_chunk x columns`` intermediate stays within
        ``max_bytes`` (at least one column per chunk) — what a real SpMM
        kernel does with its tiling.  Output columns are independent, so
        the chunking does not change a bit of the result.
        """
        mat = np.asarray(dense, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != self.shape[1]:
            raise SparseFormatError(
                f"matrix of shape {mat.shape} incompatible with {self.shape}"
            )
        m = mat.shape[1]
        out = np.empty((self.shape[0], m))
        for start in range(0, self.shape[0], chunk_rows):
            stop = min(start + chunk_rows, self.shape[0])
            lo, hi = self.indptr[start], self.indptr[stop]
            values = self.data[lo:hi, None]
            columns = self.indices[lo:hi]
            segments = self.indptr[start : stop + 1] - lo
            step = max(1, max_bytes // max(1, (hi - lo) * 8))
            for c_start in range(0, m, step):
                c_stop = min(c_start + step, m)
                gathered = mat[columns, c_start:c_stop]
                gathered *= values
                out[start:stop, c_start:c_stop] = segment_sums(gathered, segments)
        return out

    def matmul_transpose(self, other: "CSRMatrix") -> np.ndarray:
        """Dense result of ``self @ other.T`` for two CSR matrices.

        This is the batched kernel-row product: ``self`` holds the (few)
        working-set rows, ``other`` holds the full training set.  The
        algorithm scatters each row of ``self`` into a dense workspace and
        runs a sparse mat-vec of ``other`` against it — the standard
        row-by-row SpGEMM-to-dense scheme.
        """
        if self.shape[1] != other.shape[1]:
            raise SparseFormatError(
                f"column mismatch: {self.shape} vs {other.shape}"
            )
        out = np.empty((self.shape[0], other.shape[0]))
        workspace = np.zeros(self.shape[1])
        for i in range(self.shape[0]):
            cols, vals = self.row(i)
            workspace[cols] = vals
            products = other.data * workspace[other.indices]
            out[i] = segment_sums(products, other.indptr)
            workspace[cols] = 0.0
        return out

    def row_norms_sq(self) -> np.ndarray:
        """Squared Euclidean norm of every row (for the Gaussian kernel)."""
        return segment_sums(self.data * self.data, self.indptr)

    def scale_rows(self, factors: object) -> "CSRMatrix":
        """Return a copy with row ``i`` multiplied by ``factors[i]``."""
        fac = np.asarray(factors, dtype=np.float64)
        if fac.shape != (self.shape[0],):
            raise SparseFormatError(
                f"expected {self.shape[0]} factors, got shape {fac.shape}"
            )
        data = self.data * fac[self._row_ids()]
        return CSRMatrix(data, self.indices.copy(), self.indptr.copy(), self.shape, check=False)

    # ------------------------------------------------------------------
    # Comparison / repr
    # ------------------------------------------------------------------
    def allclose(self, other: "CSRMatrix", *, rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Structural and numeric equality up to tolerance."""
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.allclose(self.data, other.data, rtol=rtol, atol=atol)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.4f})"
        )


def segment_sums(values: np.ndarray, indptr: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sum ``values`` along ``axis`` over the segments delimited by ``indptr``.

    ``np.add.reduceat`` mishandles empty segments (it copies the next
    element instead of producing 0), so it reduces only at non-empty
    starts: empty segments have zero width, so consecutive non-empty starts
    bracket exactly one segment each, and the empty ones stay 0.
    """
    shape = list(values.shape)
    shape[axis] = indptr.size - 1
    out = np.zeros(shape)
    starts = indptr[:-1]
    non_empty = indptr[1:] > starts
    if values.size == 0 or not np.any(non_empty):
        return out
    where = (slice(None),) * axis + (non_empty,)
    out[where] = np.add.reduceat(values, starts[non_empty], axis=axis)
    return out
