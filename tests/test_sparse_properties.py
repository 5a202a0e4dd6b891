"""Property-based tests for the CSR substrate (hypothesis)."""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.backends import matmul_transpose
from repro.sparse import CSRMatrix, dump_libsvm, load_libsvm

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
)


def dense_matrices(max_rows=8, max_cols=8):
    shapes = st.tuples(
        st.integers(1, max_rows), st.integers(1, max_cols)
    )
    return shapes.flatmap(lambda s: arrays(np.float64, s, elements=finite))


def sparsify(array, keep=0.5):
    """Deterministically zero out a fraction of the entries."""
    mask = (np.abs(array) % 1.0) < keep
    return np.where(mask, array, 0.0)


@given(dense_matrices())
@settings(max_examples=60, deadline=None)
def test_dense_roundtrip(dense):
    dense = sparsify(dense)
    assert np.array_equal(CSRMatrix.from_dense(dense).toarray(), dense)


@given(dense_matrices())
@settings(max_examples=60, deadline=None)
def test_row_norms_match_dense(dense):
    dense = sparsify(dense)
    csr = CSRMatrix.from_dense(dense)
    assert np.allclose(csr.row_norms_sq(), (dense * dense).sum(axis=1))


@given(dense_matrices(), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_matmul_transpose_matches_dense(dense, other_rows):
    dense = sparsify(dense)
    rng = np.random.default_rng(0)
    other = sparsify(rng.normal(size=(other_rows, dense.shape[1])))
    a = CSRMatrix.from_dense(dense)
    b = CSRMatrix.from_dense(other)
    expected = dense @ other.T
    assert np.allclose(a.matmul_transpose(b), expected, atol=1e-8)
    assert np.allclose(matmul_transpose(a, other), expected, atol=1e-8)
    assert np.allclose(matmul_transpose(dense, b), expected, atol=1e-8)


@given(dense_matrices())
@settings(max_examples=40, deadline=None)
def test_dot_vec_linear_in_argument(dense):
    dense = sparsify(dense)
    csr = CSRMatrix.from_dense(dense)
    rng = np.random.default_rng(1)
    u = rng.normal(size=dense.shape[1])
    v = rng.normal(size=dense.shape[1])
    combined = csr.dot_vec(2.0 * u - 3.0 * v)
    assert np.allclose(combined, 2.0 * csr.dot_vec(u) - 3.0 * csr.dot_vec(v))


@given(dense_matrices())
@settings(max_examples=40, deadline=None)
def test_take_rows_matches_numpy_indexing(dense):
    dense = sparsify(dense)
    csr = CSRMatrix.from_dense(dense)
    rng = np.random.default_rng(2)
    idx = rng.integers(0, dense.shape[0], size=min(5, dense.shape[0]))
    assert np.array_equal(csr.take_rows(idx).toarray(), dense[idx])


@given(dense_matrices(), dense_matrices())
@settings(max_examples=40, deadline=None)
def test_vstack_row_count(a_dense, b_dense):
    width = min(a_dense.shape[1], b_dense.shape[1])
    a = CSRMatrix.from_dense(sparsify(a_dense[:, :width]))
    b = CSRMatrix.from_dense(sparsify(b_dense[:, :width]))
    stacked = CSRMatrix.vstack([a, b])
    assert stacked.shape == (a.shape[0] + b.shape[0], width)
    assert np.array_equal(
        stacked.toarray(), np.vstack([a.toarray(), b.toarray()])
    )


@given(dense_matrices())
@settings(max_examples=40, deadline=None)
def test_libsvm_roundtrip_property(dense):
    dense = sparsify(dense)
    csr = CSRMatrix.from_dense(dense)
    labels = np.arange(dense.shape[0], dtype=np.float64)
    buffer = io.StringIO()
    dump_libsvm(csr, labels, buffer)
    buffer.seek(0)
    loaded, loaded_labels = load_libsvm(buffer, n_features=dense.shape[1])
    assert loaded.allclose(csr)
    assert np.array_equal(loaded_labels, labels)
