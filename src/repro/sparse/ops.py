"""Dispatch helpers over the two supported matrix types.

The library accepts training/test data either as a dense ``numpy.ndarray``
or as a :class:`~repro.sparse.csr.CSRMatrix`.  Solvers and kernel machinery
call through these free functions so they never need to branch on the type
themselves.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.exceptions import ValidationError
from repro.sparse.csr import CSRMatrix

MatrixLike = Union[np.ndarray, CSRMatrix]

__all__ = [
    "MatrixLike",
    "as_supported_matrix",
    "is_sparse",
    "matrix_nbytes",
    "n_cols",
    "n_rows",
    "row_norms_sq",
    "take_rows",
    "to_dense",
]


def as_supported_matrix(data: object) -> MatrixLike:
    """Coerce user input to a supported matrix type.

    Dense inputs become 2-D float64 arrays; CSR inputs pass through.
    Anything with NaN/inf is rejected up front — SMO's argmin/argmax
    selection silently misbehaves on NaN otherwise.
    """
    if isinstance(data, CSRMatrix):
        if not np.all(np.isfinite(data.data)):
            raise ValidationError("input matrix contains NaN or infinity")
        return data
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("input matrix contains NaN or infinity")
    return arr


def is_sparse(matrix: MatrixLike) -> bool:
    """Whether the matrix is stored in CSR form."""
    return isinstance(matrix, CSRMatrix)


def n_rows(matrix: MatrixLike) -> int:
    """Row count of either matrix type."""
    return matrix.shape[0]


def n_cols(matrix: MatrixLike) -> int:
    """Column count of either matrix type."""
    return matrix.shape[1]


def matrix_nbytes(matrix: MatrixLike) -> int:
    """Storage footprint in bytes (CSR counts its three arrays)."""
    return int(matrix.nbytes)


def take_rows(matrix: MatrixLike, row_indices: object) -> MatrixLike:
    """Gather rows in the given order; preserves the storage format."""
    if isinstance(matrix, CSRMatrix):
        return matrix.take_rows(row_indices)
    idx = np.asarray(row_indices, dtype=np.int64)
    return matrix[idx]


def to_dense(matrix: MatrixLike) -> np.ndarray:
    """Materialise either matrix type as a dense float64 array."""
    if isinstance(matrix, CSRMatrix):
        return matrix.toarray()
    return np.asarray(matrix, dtype=np.float64)


def row_norms_sq(matrix: MatrixLike) -> np.ndarray:
    """Squared Euclidean norms of all rows."""
    if isinstance(matrix, CSRMatrix):
        return matrix.row_norms_sq()
    return np.einsum("ij,ij->i", matrix, matrix)
