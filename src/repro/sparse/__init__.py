"""From-scratch CSR sparse-matrix substrate.

The paper stores training data in CSR format (following GTSVM / Cotter et
al.) and computes batched kernel rows with cuSPARSE SpMM.  This package
provides the equivalent substrate: a :class:`CSRMatrix` type backed by plain
NumPy arrays, the matrix products the kernel machinery needs, and LibSVM
text-format I/O.
"""

from repro.sparse.csr import CSRMatrix
from repro.sparse.io import dump_libsvm, load_libsvm
from repro.sparse.ops import (
    as_supported_matrix,
    matrix_nbytes,
    n_cols,
    n_rows,
    row_norms_sq,
    take_rows,
    to_dense,
)

__all__ = [
    "CSRMatrix",
    "as_supported_matrix",
    "dump_libsvm",
    "load_libsvm",
    "matrix_nbytes",
    "n_cols",
    "n_rows",
    "row_norms_sq",
    "take_rows",
    "to_dense",
]
