"""Unit tests for batched kernel-row computation."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.kernels import GaussianKernel, KernelRowComputer, LinearKernel
from repro.sparse import CSRMatrix


@pytest.fixture
def computer(gpu_engine, rng):
    x = rng.normal(size=(20, 6))
    return KernelRowComputer(gpu_engine, GaussianKernel(gamma=0.4), x), x


class TestRows:
    def test_rows_match_full_matrix(self, computer):
        comp, x = computer
        full = comp.kernel.pairwise(comp.engine, x, x, category="k")
        rows = comp.rows([3, 7, 11])
        assert np.allclose(rows, full[[3, 7, 11]])

    def test_rows_against_column_subset(self, computer):
        comp, _ = computer
        cols = np.array([0, 3, 4, 11, 19])
        rows = comp.rows([3, 7], columns=cols)
        assert np.allclose(rows, comp.rows([3, 7])[:, cols])

    def test_rows_rejects_2d_indices(self, computer):
        comp, _ = computer
        with pytest.raises(ValidationError):
            comp.rows(np.array([[1, 2]]))

    def test_row_nbytes(self, computer):
        comp, x = computer
        assert comp.row_nbytes == x.shape[0] * 8

    def test_rows_charge_kernel_category(self, computer):
        comp, _ = computer
        before = comp.engine.clock.category_seconds("kernel_values")
        comp.rows([0, 1])
        assert comp.engine.clock.category_seconds("kernel_values") > before

    def test_rows_custom_category(self, computer):
        comp, _ = computer
        comp.rows([0], category="special")
        assert comp.engine.clock.category_seconds("special") > 0


class TestDiagonal:
    def test_gaussian_diagonal(self, computer):
        comp, _ = computer
        assert np.allclose(comp.diagonal(), 1.0)

    def test_diagonal_cached(self, computer):
        comp, _ = computer
        first = comp.diagonal()
        assert comp.diagonal() is first

    def test_linear_diagonal_without_norm_kernel(self, gpu_engine, rng):
        x = rng.normal(size=(5, 3))
        comp = KernelRowComputer(gpu_engine, LinearKernel(), x)
        assert comp.norms() is None
        assert np.allclose(comp.diagonal(), (x * x).sum(axis=1))


class TestBlock:
    def test_block_against_other_matrix(self, computer, rng):
        comp, x = computer
        test = rng.normal(size=(4, 6))
        block = comp.block(test)
        expected = comp.kernel.pairwise(comp.engine, test, x, category="k")
        assert np.allclose(block, expected)

    def test_block_with_column_subset(self, computer, rng):
        comp, x = computer
        test = rng.normal(size=(3, 6))
        cols = np.array([2, 5, 9])
        block = comp.block(test, column_indices=cols)
        full = comp.block(test)
        assert np.allclose(block, full[:, cols])

    def test_block_sparse_data(self, gpu_engine, rng):
        dense = rng.normal(size=(10, 5)) * (rng.random((10, 5)) < 0.5)
        comp = KernelRowComputer(gpu_engine, GaussianKernel(0.5), CSRMatrix.from_dense(dense))
        test = rng.normal(size=(2, 5))
        dense_comp = KernelRowComputer(gpu_engine, GaussianKernel(0.5), dense)
        assert np.allclose(comp.block(test), dense_comp.block(test))
