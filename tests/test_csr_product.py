"""The blocked CSR x CSR^T product against the one-row-at-a-time loop.

``CSRMatrix.matmul_transpose`` multiplies rows of ``self`` in blocks
under ``MATMUL_BLOCK_BYTES``.  Every kernel value of a wide CSR feature
space comes from it, and the parity suites rely on each output row being
a pure function of its two operand rows, so it must match the per-row
scheme below to the bit, whatever the block size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import CSRMatrix
from repro.sparse import csr as csr_module
from repro.sparse.csr import segment_sums


def reference_product(a: CSRMatrix, b: CSRMatrix) -> np.ndarray:
    """``a @ b.T`` one row of ``a`` at a time (scatter, gather, segment sum)."""
    out = np.empty((a.shape[0], b.shape[0]))
    workspace = np.zeros(a.shape[1])
    for i in range(a.shape[0]):
        cols, vals = a.row(i)
        workspace[cols] = vals
        products = b.data * workspace[b.indices]
        out[i] = segment_sums(products, b.indptr)
        workspace[cols] = 0.0
    return out


def random_csr(rng, n_rows, n_cols, density, empty_share, max_exponent):
    """Rows of random width, some empty, values over many binades.

    Explicit signed zeros are kept: the product must agree on them too.
    """
    indptr = [0]
    indices, data = [], []
    for _ in range(n_rows):
        width = 0 if rng.random() < empty_share else rng.binomial(n_cols, density)
        cols = np.sort(rng.choice(n_cols, size=width, replace=False))
        values = rng.uniform(1.0, 2.0, width) * np.exp2(
            rng.integers(-max_exponent, max_exponent + 1, width)
        )
        values *= rng.choice([-1.0, 1.0], width)
        values[rng.random(width) < 0.05] = rng.choice([0.0, -0.0])
        indices.append(cols)
        data.append(values)
        indptr.append(indptr[-1] + width)
    return CSRMatrix(
        np.concatenate(data) if data else [],
        np.concatenate(indices) if indices else [],
        indptr,
        (n_rows, n_cols),
    )


def assert_bitwise(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def rows_per_block_budget(a: CSRMatrix, b: CSRMatrix, rows: int) -> int:
    """A block budget that holds exactly ``rows`` rows of ``a``."""
    return rows * 8 * (a.shape[1] + b.nnz)


@given(
    m=st.integers(0, 40),
    n=st.integers(0, 30),
    n_cols=st.sampled_from([1, 7, 300, 2560, 8000]),
    density=st.sampled_from([0.0, 0.01, 0.1, 0.6]),
    empty_share=st.sampled_from([0.0, 0.3, 1.0]),
    max_exponent=st.sampled_from([0, 30, 300]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=150, deadline=None)
def test_blocked_product_matches_per_row_loop(
    m, n, n_cols, density, empty_share, max_exponent, seed
):
    rng = np.random.default_rng(seed)
    a = random_csr(rng, m, n_cols, density, empty_share, max_exponent)
    b = random_csr(rng, n, n_cols, density, rng.choice([0.0, 0.5, 1.0]), max_exponent)
    assert_bitwise(a.matmul_transpose(b), reference_product(a, b))


@given(
    m=st.integers(1, 30),
    step=st.integers(1, 31),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_result_does_not_depend_on_the_block_size(m, step, seed):
    """One row per block, several (straddling the row count) or all rows."""
    rng = np.random.default_rng(seed)
    a = random_csr(rng, m, 500, 0.05, 0.2, 40)
    b = random_csr(rng, 25, 500, 0.05, 0.2, 40)
    expected = reference_product(a, b)
    for rows in (1, step, m):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                csr_module, "MATMUL_BLOCK_BYTES", rows_per_block_budget(a, b, rows)
            )
            assert_bitwise(a.matmul_transpose(b), expected)


def test_rows_wider_than_the_budget_take_one_row_per_block():
    rng = np.random.default_rng(3)
    n_cols = csr_module.MATMUL_BLOCK_BYTES // 8 + 1
    a = random_csr(rng, 4, n_cols, 0.001, 0.25, 20)
    b = random_csr(rng, 6, n_cols, 0.001, 0.0, 20)
    assert_bitwise(a.matmul_transpose(b), reference_product(a, b))


@pytest.mark.parametrize("m, n", [(0, 5), (5, 0), (0, 0)])
def test_empty_operands(m, n):
    a = random_csr(np.random.default_rng(0), m, 50, 0.2, 0.0, 3)
    b = random_csr(np.random.default_rng(1), n, 50, 0.2, 0.0, 3)
    assert_bitwise(a.matmul_transpose(b), np.zeros((m, n)))


def test_all_empty_segments_give_zeros():
    a = random_csr(np.random.default_rng(0), 6, 50, 0.2, 0.0, 3)
    b = CSRMatrix.empty((4, 50))
    assert b.nnz == 0
    assert_bitwise(a.matmul_transpose(b), np.zeros((6, 4)))
