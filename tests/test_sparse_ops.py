"""Unit tests for the dense/CSR dispatch helpers."""

import numpy as np
import pytest

from repro.backends import matmul_transpose
from repro.exceptions import ValidationError
from repro.sparse import (
    CSRMatrix,
    as_supported_matrix,
    matrix_nbytes,
    n_cols,
    n_rows,
    row_norms_sq,
    take_rows,
    to_dense,
)
from repro.sparse.ops import is_sparse


class TestCoercion:
    def test_dense_passthrough(self, rng):
        arr = rng.normal(size=(3, 4))
        out = as_supported_matrix(arr)
        assert isinstance(out, np.ndarray) and out.shape == (3, 4)

    def test_1d_promoted_to_row(self):
        out = as_supported_matrix([1.0, 2.0, 3.0])
        assert out.shape == (1, 3)

    def test_csr_passthrough(self, csr_matrix):
        assert as_supported_matrix(csr_matrix) is csr_matrix

    def test_rejects_3d(self, rng):
        with pytest.raises(ValidationError):
            as_supported_matrix(rng.normal(size=(2, 2, 2)))

    def test_rejects_nan_dense(self):
        with pytest.raises(ValidationError, match="NaN"):
            as_supported_matrix(np.array([[1.0, np.nan]]))

    def test_rejects_inf_csr(self):
        csr = CSRMatrix([np.inf], [0], [0, 1], (1, 2))
        with pytest.raises(ValidationError, match="NaN"):
            as_supported_matrix(csr)


class TestDispatch:
    def test_shape_helpers(self, csr_matrix, dense_matrix):
        assert n_rows(csr_matrix) == n_rows(dense_matrix) == 12
        assert n_cols(csr_matrix) == n_cols(dense_matrix) == 7
        assert is_sparse(csr_matrix) and not is_sparse(dense_matrix)

    def test_nbytes(self, csr_matrix, dense_matrix):
        assert matrix_nbytes(dense_matrix) == dense_matrix.nbytes
        assert matrix_nbytes(csr_matrix) == csr_matrix.nbytes

    def test_take_rows_preserves_format(self, csr_matrix, dense_matrix):
        assert isinstance(take_rows(csr_matrix, [0, 2]), CSRMatrix)
        assert isinstance(take_rows(dense_matrix, [0, 2]), np.ndarray)

    def test_to_dense(self, csr_matrix, dense_matrix):
        assert np.array_equal(to_dense(csr_matrix), dense_matrix)
        assert np.array_equal(to_dense(dense_matrix), dense_matrix)

    def test_row_norms_agree(self, csr_matrix, dense_matrix):
        assert np.allclose(row_norms_sq(csr_matrix), row_norms_sq(dense_matrix))


class TestMatmulTranspose:
    @pytest.mark.parametrize("a_sparse", [False, True])
    @pytest.mark.parametrize("b_sparse", [False, True])
    def test_all_combinations(self, rng, a_sparse, b_sparse):
        a_dense = rng.normal(size=(5, 8)) * (rng.random((5, 8)) < 0.6)
        b_dense = rng.normal(size=(7, 8)) * (rng.random((7, 8)) < 0.6)
        a = CSRMatrix.from_dense(a_dense) if a_sparse else a_dense
        b = CSRMatrix.from_dense(b_dense) if b_sparse else b_dense
        result = matmul_transpose(a, b)
        assert isinstance(result, np.ndarray)
        assert np.allclose(result, a_dense @ b_dense.T)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError):
            matmul_transpose(rng.normal(size=(2, 3)), rng.normal(size=(2, 4)))
