"""Unit and property tests for the kernel functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.kernels import (
    GaussianKernel,
    LinearKernel,
    PolynomialKernel,
    SigmoidKernel,
    kernel_from_name,
)
from repro.sparse import CSRMatrix


def manual_gaussian(a, b, gamma):
    out = np.empty((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            out[i, j] = np.exp(-gamma * np.sum((a[i] - b[j]) ** 2))
    return out


class TestValues:
    def test_linear_matches_dot(self, gpu_engine, rng):
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(3, 6))
        out = LinearKernel().pairwise(gpu_engine, a, b, category="k")
        assert np.allclose(out, a @ b.T)

    def test_gaussian_matches_manual(self, gpu_engine, rng):
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(3, 6))
        out = GaussianKernel(gamma=0.3).pairwise(gpu_engine, a, b, category="k")
        assert np.allclose(out, manual_gaussian(a, b, 0.3))

    def test_gaussian_with_precomputed_norms(self, gpu_engine, rng):
        a = rng.normal(size=(5, 4))
        norms = (a * a).sum(axis=1)
        kern = GaussianKernel(gamma=1.0)
        out = kern.pairwise(
            gpu_engine, a, a, category="k", norms_a=norms, norms_b=norms
        )
        assert np.allclose(out, manual_gaussian(a, a, 1.0))

    def test_polynomial_matches_manual(self, gpu_engine, rng):
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(3, 6))
        kern = PolynomialKernel(degree=3, gamma=0.5, coef0=1.0)
        out = kern.pairwise(gpu_engine, a, b, category="k")
        assert np.allclose(out, (0.5 * (a @ b.T) + 1.0) ** 3)

    def test_sigmoid_matches_manual(self, gpu_engine, rng):
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(3, 6))
        kern = SigmoidKernel(gamma=0.5, coef0=-0.2)
        out = kern.pairwise(gpu_engine, a, b, category="k")
        assert np.allclose(out, np.tanh(0.5 * (a @ b.T) - 0.2))

    def test_sparse_inputs_match_dense(self, gpu_engine, rng):
        dense = rng.normal(size=(6, 5)) * (rng.random((6, 5)) < 0.6)
        sparse = CSRMatrix.from_dense(dense)
        kern = GaussianKernel(gamma=0.7)
        dense_out = kern.pairwise(gpu_engine, dense, dense, category="k")
        sparse_out = kern.pairwise(gpu_engine, sparse, sparse, category="k")
        assert np.allclose(dense_out, sparse_out)


class TestDiagonal:
    def test_gaussian_diagonal_is_ones(self, gpu_engine, rng):
        norms = rng.random(5)
        diag = GaussianKernel(gamma=2.0).diagonal(gpu_engine, norms, category="k")
        assert np.allclose(diag, 1.0)

    def test_linear_diagonal_is_norms(self, gpu_engine):
        norms = np.array([1.0, 4.0])
        assert np.allclose(
            LinearKernel().diagonal(gpu_engine, norms, category="k"), norms
        )

    def test_polynomial_diagonal(self, gpu_engine):
        norms = np.array([2.0])
        kern = PolynomialKernel(degree=2, gamma=1.0, coef0=1.0)
        assert np.allclose(kern.diagonal(gpu_engine, norms, category="k"), [9.0])


class TestValidation:
    def test_gaussian_rejects_bad_gamma(self):
        with pytest.raises(ValidationError):
            GaussianKernel(gamma=0.0)

    def test_polynomial_rejects_bad_degree(self):
        with pytest.raises(ValidationError):
            PolynomialKernel(degree=0)

    def test_gaussian_requires_norms_in_transform(self, gpu_engine):
        with pytest.raises(ValidationError):
            GaussianKernel(1.0).transform(
                gpu_engine, np.ones((2, 2)), None, None, category="k"
            )


class TestFactory:
    def test_names_and_aliases(self):
        assert kernel_from_name("linear").name == "linear"
        assert kernel_from_name("rbf", gamma=1.0).name == "gaussian"
        assert kernel_from_name("poly", degree=2, gamma=1.0).name == "polynomial"
        assert kernel_from_name("SIGMOID", gamma=1.0).name == "sigmoid"

    def test_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown kernel"):
            kernel_from_name("quantum")

    def test_bad_parameters(self):
        with pytest.raises(ValidationError, match="bad parameters"):
            kernel_from_name("linear", gamma=1.0)

    def test_equality_and_hash(self):
        assert GaussianKernel(0.5) == GaussianKernel(0.5)
        assert GaussianKernel(0.5) != GaussianKernel(0.6)
        assert hash(GaussianKernel(0.5)) == hash(GaussianKernel(0.5))
        assert LinearKernel() != GaussianKernel(0.5)


finite_rows = st.integers(2, 6)


@given(finite_rows, st.floats(0.05, 3.0))
@settings(max_examples=30, deadline=None)
def test_gaussian_kernel_matrix_is_psd_and_symmetric(n, gamma):
    """Mercer-kernel property: symmetric positive semi-definite Gram matrix."""
    from repro.gpusim import make_engine, scaled_tesla_p100

    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 3))
    engine = make_engine(scaled_tesla_p100())
    gram = GaussianKernel(gamma).pairwise(engine, x, x, category="k")
    assert np.allclose(gram, gram.T, atol=1e-12)
    eigenvalues = np.linalg.eigvalsh(gram)
    assert eigenvalues.min() > -1e-8
    assert np.allclose(np.diag(gram), 1.0)


@given(finite_rows)
@settings(max_examples=30, deadline=None)
def test_gaussian_values_in_unit_interval(n):
    from repro.gpusim import make_engine, scaled_tesla_p100

    rng = np.random.default_rng(n + 100)
    x = rng.normal(size=(n, 4))
    engine = make_engine(scaled_tesla_p100())
    gram = GaussianKernel(0.5).pairwise(engine, x, x, category="k")
    assert np.all(gram >= 0.0) and np.all(gram <= 1.0 + 1e-12)


_TRANSFORM_DTYPES = [
    (np.float64, np.float64),
    (np.float32, np.float32),
    (np.float64, np.float32),
    (np.float32, np.float64),
]


@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(1, 9),
    n=st.integers(1, 9),
    gamma=st.floats(0.01, 5.0),
    dtypes=st.sampled_from(_TRANSFORM_DTYPES),
)
@settings(max_examples=60, deadline=None)
def test_gaussian_transform_bitwise_equals_plain_expression(seed, m, n, gamma, dtypes):
    """The in-place transform computes ``exp(-g * max(na + nb - 2 dots, 0))``
    with the same operations in the same order, in every dtype mix the
    backends produce, and leaves its inputs alone."""
    from repro.gpusim import make_engine, scaled_tesla_p100

    norm_dtype, dot_dtype = dtypes
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(m, 3)), rng.normal(size=(n, 3))
    na = (a * a).sum(axis=1).astype(norm_dtype)
    nb = (b * b).sum(axis=1).astype(norm_dtype)
    dots = (a @ b.T).astype(dot_dtype)
    # Near-coincident pairs: distances that round to tiny negatives (or
    # tiny positives) exercise the clamp.
    near = rng.random((m, n)) < 0.4
    half = (na[:, None].astype(np.float64) + nb[None, :]) / 2
    wobble = 1 + rng.choice([-1e-15, 0.0, 1e-15], size=(m, n))
    dots[near] = (half * wobble)[near]
    na_before, nb_before, dots_before = na.copy(), nb.copy(), dots.copy()

    expected = np.exp(-gamma * np.maximum(na[:, None] + nb[None, :] - 2 * dots, 0))
    out = GaussianKernel(gamma).transform(
        make_engine(scaled_tesla_p100()), dots, na, nb, category="k"
    )
    assert out.dtype == expected.dtype
    assert out.tobytes() == expected.tobytes()
    assert na.tobytes() == na_before.tobytes()
    assert nb.tobytes() == nb_before.tobytes()
    assert dots.tobytes() == dots_before.tobytes()


def test_gaussian_transform_clamps_tiny_negative_distances(gpu_engine):
    na = np.array([1.0, 2.0])
    nb = np.array([1.0])
    dots = np.array([[np.nextafter(1.0, 2.0)], [0.5]])  # 1 + 1 - 2 dots < 0
    assert (na[:, None] + nb[None, :] - 2 * dots)[0, 0] < 0
    out = GaussianKernel(0.7).transform(gpu_engine, dots, na, nb, category="k")
    assert out[0, 0] == 1.0
    assert out[1, 0] == np.exp(-0.7 * 2.0)
