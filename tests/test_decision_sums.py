"""The per-SVM decision sums: row purity, bitwise contracts, pinned costs.

Each SVM's decision values are ``sum_i alpha_i y_i K(x, sv_i) + b`` over
its columns of the test-vs-pool kernel block.  Fused dispatch, the
session tile cache and the unshared GPU baseline all rely on that sum
being a pure function of one test row and one SVM's columns, so every
result here is compared with ``==`` on the bytes, never with a
tolerance.  The simulated-cost pins hold the charges
of the prediction phase to the values recorded before the sums stopped
going through the fixed-tile GEMM: the cost model describes the paper's
GPU, not the host's reduction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GMPSVC
from repro.data import gaussian_blobs
from repro.gpusim import make_engine, scaled_tesla_p100
from repro.kernels import GaussianKernel
from repro.multiclass import SupportVectorPool
from repro.multiclass.sv_sharing import PooledSVM


def _engine():
    return make_engine(scaled_tesla_p100())


def _random_pool(seed: int, n_pool: int, n_svms: int, n_features: int = 4):
    """A pool of ``n_pool`` rows whose SVMs pick random (possibly empty)
    subsets of it; the last SVM has no support vectors."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_pool, n_features))
    per_svm = []
    for j in range(n_svms):
        size = 0 if j == n_svms - 1 else int(rng.integers(1, n_pool + 1))
        indices = rng.choice(n_pool, size=size, replace=False)
        per_svm.append(
            (0, j + 1, indices, rng.normal(size=size), float(rng.normal()))
        )
    per_svm[0] = (0, 1, np.arange(n_pool), rng.normal(size=n_pool), 0.5)
    return SupportVectorPool.build(x, per_svm), x, rng


def _sub_pool(pool: SupportVectorPool, chosen: list[int]):
    """The pair-partitioned shard's re-indexed sub-pool of ``chosen`` SVMs."""
    positions = np.unique(
        np.concatenate([pool.svms[i].pool_positions for i in chosen])
    )
    svms = [
        PooledSVM(
            s=pool.svms[i].s,
            t=pool.svms[i].t,
            pool_positions=np.searchsorted(positions, pool.svms[i].pool_positions),
            coefficients=pool.svms[i].coefficients,
            bias=pool.svms[i].bias,
        )
        for i in chosen
    ]
    sub = SupportVectorPool(
        pool.pool_data[positions], pool.pool_global_indices[positions], svms
    )
    return sub, positions


class TestRowPurity:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_pool=st.integers(1, 40),
        n_svms=st.integers(2, 8),
        m=st.integers(1, 24),
        dtype=st.sampled_from([np.float64, np.float32]),
        fortran=st.booleans(),
    )
    def test_from_block_rows_alone_equal_rows_in_batch(
        self, seed, n_pool, n_svms, m, dtype, fortran
    ):
        pool, _, rng = _random_pool(seed, n_pool, n_svms)
        block = rng.random((m, pool.n_pool)).astype(dtype)
        if fortran:
            block = np.asfortranarray(block)
        full = pool.decision_values_from_block(_engine(), block)
        assert full.dtype == np.float64
        for row in range(m):
            alone = pool.decision_values_from_block(_engine(), block[row : row + 1])
            assert alone.tobytes() == full[row : row + 1].tobytes()
        start = int(rng.integers(0, m))
        stop = int(rng.integers(start + 1, m + 1))
        window = pool.decision_values_from_block(_engine(), block[start:stop])
        assert window.tobytes() == full[start:stop].tobytes()
        # A C-ordered copy of the same values gives the same bits.
        c_order = pool.decision_values_from_block(
            _engine(), np.ascontiguousarray(block)
        )
        assert c_order.tobytes() == full.tobytes()
        # The SVM without support vectors is exactly its bias.
        assert np.all(full[:, -1] == pool.svms[-1].bias)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_pool=st.integers(1, 30),
        n_svms=st.integers(2, 7),
        m=st.integers(1, 12),
    )
    def test_sub_pool_reproduces_full_pool_columns(self, seed, n_pool, n_svms, m):
        pool, _, rng = _random_pool(seed, n_pool, n_svms)
        block = rng.random((m, pool.n_pool))
        full = pool.decision_values_from_block(_engine(), block)
        chosen = sorted(
            rng.choice(n_svms, size=int(rng.integers(1, n_svms + 1)), replace=False)
        )
        sub, positions = _sub_pool(pool, [int(i) for i in chosen])
        partial = sub.decision_values_from_block(_engine(), block[:, positions])
        assert partial.tobytes() == np.ascontiguousarray(full[:, chosen]).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_pool=st.integers(1, 30),
        n_svms=st.integers(2, 7),
        m=st.integers(1, 12),
    )
    def test_decision_values_row_pure_and_shared_equals_unshared(
        self, seed, n_pool, n_svms, m
    ):
        pool, _, rng = _random_pool(seed, n_pool, n_svms)
        kernel = GaussianKernel(0.3)
        test = rng.normal(size=(m, 4))
        shared = pool.decision_values(_engine(), kernel, test)
        unshared = pool.decision_values(_engine(), kernel, test, shared=False)
        assert unshared.tobytes() == shared.tobytes()
        for row in range(m):
            for flag in (True, False):
                alone = pool.decision_values(
                    _engine(), kernel, test[row : row + 1], shared=flag
                )
                assert alone.tobytes() == shared[row : row + 1].tobytes()
        assert np.all(shared[:, -1] == pool.svms[-1].bias)

    def test_matches_direct_formula(self, rng):
        pool, x, _ = _random_pool(3, 25, 5)
        block = rng.random((6, pool.n_pool))
        values = pool.decision_values_from_block(_engine(), block)
        for column, svm in enumerate(pool.svms):
            expected = block[:, svm.pool_positions] @ svm.coefficients + svm.bias
            np.testing.assert_allclose(values[:, column], expected, rtol=1e-12)


class TestPinnedCosts:
    """Simulated charges of the prediction phase, pinned with ``==``."""

    @pytest.fixture(scope="class")
    def fitted(self):
        x, y = gaussian_blobs(120, 5, 4, seed=5)
        classifier = GMPSVC(C=10.0, gamma=0.4, working_set_size=32)
        return classifier.fit(x[:90], y[:90]), x[90:]

    @pytest.mark.parametrize(
        "shared, expected",
        [
            (True, (52520, 124960, 41280, 10, 3.473695116487455e-07)),
            (False, (120470, 245720, 113760, 20, 7.377694892473116e-07)),
        ],
    )
    def test_decision_values_charges(self, fitted, shared, expected):
        classifier, test = fitted
        model = classifier.model_
        # Three groups of SVMs, so the reduction is split more than once.
        assert [svm.pool_positions.size for svm in model.sv_pool.svms] == [
            37, 36, 39, 39, 42, 41
        ]
        engine = _engine()
        model.sv_pool.decision_values(engine, model.kernel, test, shared=shared)
        counters = engine.counters
        assert (
            counters.flops,
            counters.bytes_read,
            counters.bytes_written,
            counters.kernel_launches,
            engine.clock.elapsed_s,
        ) == expected

    def test_prediction_report_simulated_seconds(self, fitted):
        classifier, test = fitted
        classifier.predict_proba(test)
        assert classifier.prediction_report_.simulated_seconds == (
            4.78524417562724e-07
        )
