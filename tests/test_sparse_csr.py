"""Unit tests for the from-scratch CSR matrix."""

import tracemalloc

import numpy as np
import pytest

from repro.exceptions import SparseFormatError
from repro.sparse import CSRMatrix


class TestConstruction:
    def test_from_dense_roundtrip(self, dense_matrix):
        csr = CSRMatrix.from_dense(dense_matrix)
        assert np.array_equal(csr.toarray(), dense_matrix)

    def test_from_dense_counts_only_nonzeros(self, dense_matrix):
        csr = CSRMatrix.from_dense(dense_matrix)
        assert csr.nnz == np.count_nonzero(dense_matrix)

    def test_from_dense_tolerance_drops_small_values(self):
        dense = np.array([[1.0, 1e-9], [0.0, 2.0]])
        csr = CSRMatrix.from_dense(dense, tolerance=1e-6)
        assert csr.nnz == 2

    def test_from_dense_rejects_1d(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix.from_dense(np.ones(4))

    def test_from_rows_sorts_columns(self):
        csr = CSRMatrix.from_rows([(np.array([3, 1]), np.array([30.0, 10.0]))], 5)
        cols, vals = csr.row(0)
        assert cols.tolist() == [1, 3]
        assert vals.tolist() == [10.0, 30.0]

    def test_from_rows_rejects_duplicate_columns(self):
        with pytest.raises(SparseFormatError, match="duplicate"):
            CSRMatrix.from_rows([(np.array([2, 2]), np.array([1.0, 2.0]))], 5)

    def test_from_rows_rejects_length_mismatch(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix.from_rows([(np.array([1, 2]), np.array([1.0]))], 5)

    def test_from_rows_empty_rows(self):
        csr = CSRMatrix.from_rows(
            [(np.array([], dtype=np.int64), np.array([])), (np.array([0]), np.array([5.0]))],
            3,
        )
        assert csr.nnz == 1
        assert csr.row_dense(0).tolist() == [0.0, 0.0, 0.0]
        assert csr.row_dense(1).tolist() == [5.0, 0.0, 0.0]

    def test_empty_matrix(self):
        csr = CSRMatrix.empty((4, 3))
        assert csr.nnz == 0
        assert np.array_equal(csr.toarray(), np.zeros((4, 3)))

    def test_zero_row_matrix(self):
        csr = CSRMatrix.empty((0, 3))
        assert csr.toarray().shape == (0, 3)

    def test_vstack(self, rng):
        a = CSRMatrix.from_dense(rng.normal(size=(3, 4)))
        b = CSRMatrix.from_dense(rng.normal(size=(2, 4)))
        stacked = CSRMatrix.vstack([a, b])
        assert np.allclose(
            stacked.toarray(), np.vstack([a.toarray(), b.toarray()])
        )

    def test_vstack_rejects_width_mismatch(self):
        a = CSRMatrix.empty((1, 3))
        b = CSRMatrix.empty((1, 4))
        with pytest.raises(SparseFormatError, match="column mismatch"):
            CSRMatrix.vstack([a, b])

    def test_vstack_requires_input(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix.vstack([])


class TestValidation:
    def test_bad_indptr_length(self):
        with pytest.raises(SparseFormatError, match="indptr"):
            CSRMatrix([1.0], [0], [0, 1, 1], (1, 2))

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(SparseFormatError, match="start at 0"):
            CSRMatrix([1.0], [0], [1, 1], (1, 2))

    def test_indptr_must_be_monotone(self):
        with pytest.raises(SparseFormatError, match="non-decreasing"):
            CSRMatrix([1.0, 2.0], [0, 1], [0, 2, 1], (2, 2))

    def test_column_out_of_range(self):
        with pytest.raises(SparseFormatError, match="out of range"):
            CSRMatrix([1.0], [5], [0, 1], (1, 2))

    def test_unsorted_columns_rejected(self):
        with pytest.raises(SparseFormatError, match="strictly increasing"):
            CSRMatrix([1.0, 2.0], [1, 0], [0, 2], (1, 3))

    def test_data_index_length_mismatch(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix([1.0, 2.0], [0], [0, 2], (1, 3))


class TestAccess:
    def test_row_negative_index(self, csr_matrix, dense_matrix):
        assert np.array_equal(csr_matrix.row_dense(-1), dense_matrix[-1])

    def test_row_out_of_range(self, csr_matrix):
        with pytest.raises(IndexError):
            csr_matrix.row(99)

    def test_take_rows_order_and_repeats(self, csr_matrix, dense_matrix):
        sub = csr_matrix.take_rows([3, 0, 3])
        assert np.array_equal(sub.toarray(), dense_matrix[[3, 0, 3]])

    def test_take_rows_empty_selection(self, csr_matrix):
        sub = csr_matrix.take_rows(np.array([], dtype=np.int64))
        assert sub.shape == (0, csr_matrix.shape[1])

    @staticmethod
    def _take_rows_by_loop(matrix, indices):
        """The gather one row at a time: the reference the offset gather
        must reproduce bit for bit."""
        data, cols, indptr = [], [], [0]
        for i in indices:
            i = int(i) + (matrix.shape[0] if i < 0 else 0)
            start, stop = matrix.indptr[i], matrix.indptr[i + 1]
            data.extend(matrix.data[start:stop].tolist())
            cols.extend(matrix.indices[start:stop].tolist())
            indptr.append(indptr[-1] + int(stop - start))
        return (
            np.asarray(data, dtype=np.float64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(indptr, dtype=np.int64),
        )

    @pytest.mark.parametrize(
        "indices", [[3, 0, 3], [-1, -12, 5], [2, 2, 2, 2], [], list(range(12))[::-1]]
    )
    def test_take_rows_matches_a_per_row_loop_bitwise(self, rng, indices):
        dense = rng.normal(size=(12, 9)) * (rng.random((12, 9)) < 0.4)
        dense[4] = 0.0  # an empty row
        matrix = CSRMatrix.from_dense(dense)
        sub = matrix.take_rows(np.asarray(indices, dtype=np.int64))
        data, cols, indptr = self._take_rows_by_loop(matrix, indices)
        assert sub.shape == (len(indices), 9)
        assert sub.data.tobytes() == data.tobytes()
        assert sub.indices.tobytes() == cols.tobytes()
        assert sub.indptr.tobytes() == indptr.tobytes()

    @pytest.mark.parametrize("bad, reported", [(12, 12), (-13, -1), (99, 99)])
    def test_take_rows_out_of_range_names_the_row(self, csr_matrix, bad, reported):
        with pytest.raises(IndexError) as caught:
            csr_matrix.take_rows([0, bad, 1])
        assert str(caught.value) == f"row {reported} out of range for 12 rows"

    def test_take_rows_rejects_2d_indices(self, csr_matrix):
        with pytest.raises(SparseFormatError, match="1-D"):
            csr_matrix.take_rows(np.zeros((2, 2), dtype=np.int64))

    def test_density_and_nbytes(self, csr_matrix):
        assert 0 < csr_matrix.density < 1
        assert csr_matrix.nbytes > 0

    def test_copy_is_independent(self, csr_matrix):
        clone = csr_matrix.copy()
        clone.data[0] = 1e9
        assert csr_matrix.data[0] != 1e9


class TestLinearAlgebra:
    def test_dot_vec(self, csr_matrix, dense_matrix, rng):
        v = rng.normal(size=dense_matrix.shape[1])
        assert np.allclose(csr_matrix.dot_vec(v), dense_matrix @ v)

    def test_dot_vec_shape_check(self, csr_matrix):
        with pytest.raises(SparseFormatError):
            csr_matrix.dot_vec(np.ones(3))

    def test_dot_dense(self, csr_matrix, dense_matrix, rng):
        b = rng.normal(size=(dense_matrix.shape[1], 5))
        assert np.allclose(csr_matrix.dot_dense(b), dense_matrix @ b)

    def test_dot_dense_chunked(self, rng):
        dense = rng.normal(size=(50, 6))
        dense[rng.random((50, 6)) < 0.5] = 0.0
        csr = CSRMatrix.from_dense(dense)
        b = rng.normal(size=(6, 4))
        assert np.allclose(csr.dot_dense(b, chunk_rows=7), dense @ b)

    def test_dot_dense_column_chunks_are_bitwise(self, rng):
        dense = rng.normal(size=(40, 300)) * (rng.random((40, 300)) < 0.2)
        csr = CSRMatrix.from_dense(dense)
        b = rng.normal(size=(300, 70))
        whole = csr.dot_dense(b)
        for budget in (8, 1000, 50_000):
            assert csr.dot_dense(b, max_bytes=budget).tobytes() == whole.tobytes()

    def test_dot_dense_bounds_its_intermediate(self, rng):
        """Peak allocation follows ``max_bytes``, not ``nnz x m``."""
        dense = rng.normal(size=(64, 600)) * (rng.random((64, 600)) < 0.25)
        csr = CSRMatrix.from_dense(dense)  # ~9.6k stored values
        b = rng.normal(size=(600, 400))
        out_bytes = 64 * 400 * 8
        unbounded = csr.nnz * 400 * 8  # ~31 MB in one gather
        budget = 64 * 1024
        tracemalloc.start()
        try:
            csr.dot_dense(b, max_bytes=budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out_bytes + 4 * budget < unbounded / 10

    def test_dot_dense_shape_check(self, csr_matrix):
        with pytest.raises(SparseFormatError):
            csr_matrix.dot_dense(np.ones((3, 2)))

    def test_matmul_transpose(self, rng):
        a_dense = rng.normal(size=(4, 9)) * (rng.random((4, 9)) < 0.5)
        b_dense = rng.normal(size=(6, 9)) * (rng.random((6, 9)) < 0.5)
        a = CSRMatrix.from_dense(a_dense)
        b = CSRMatrix.from_dense(b_dense)
        assert np.allclose(a.matmul_transpose(b), a_dense @ b_dense.T)

    def test_matmul_transpose_with_empty_rows(self):
        a = CSRMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
        b = CSRMatrix.from_dense(np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 0.0]]))
        expected = a.toarray() @ b.toarray().T
        assert np.allclose(a.matmul_transpose(b), expected)

    def test_matmul_transpose_dim_check(self, csr_matrix):
        other = CSRMatrix.empty((2, csr_matrix.shape[1] + 1))
        with pytest.raises(SparseFormatError):
            csr_matrix.matmul_transpose(other)

    def test_row_norms_sq(self, csr_matrix, dense_matrix):
        assert np.allclose(csr_matrix.row_norms_sq(), (dense_matrix**2).sum(axis=1))

    def test_row_norms_with_trailing_empty_rows(self):
        dense = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
        csr = CSRMatrix.from_dense(dense)
        assert np.allclose(csr.row_norms_sq(), [5.0, 0.0, 0.0])

    def test_scale_rows(self, csr_matrix, dense_matrix):
        factors = np.arange(1, dense_matrix.shape[0] + 1, dtype=np.float64)
        scaled = csr_matrix.scale_rows(factors)
        assert np.allclose(scaled.toarray(), dense_matrix * factors[:, None])

    def test_scale_rows_shape_check(self, csr_matrix):
        with pytest.raises(SparseFormatError):
            csr_matrix.scale_rows(np.ones(2))

    def test_prune_removes_explicit_zeros(self):
        csr = CSRMatrix([1.0, 0.0, 2.0], [0, 1, 2], [0, 2, 3], (2, 3))
        pruned = csr.prune()
        assert pruned.nnz == 2
        assert np.array_equal(pruned.toarray(), csr.toarray())

    def test_allclose(self, csr_matrix):
        assert csr_matrix.allclose(csr_matrix.copy())
        other = csr_matrix.copy()
        other.data[0] += 1.0
        assert not csr_matrix.allclose(other)
