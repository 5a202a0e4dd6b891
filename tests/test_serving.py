"""Serving-layer tests: sealed sessions, micro-batching, bitwise parity.

The acceptance bar for the serving layer is *bitwise* parity: every row a
session (or a dispatcher's fused dispatch) returns must be bit-for-bit what the
one-shot ``predict_*_model`` functions produce for the same input — across
class counts, dense and sparse inputs, and arbitrary request fusion.
"""

import numpy as np
import pytest

from repro import GMPSVC, InferenceSession
from repro.core.predictor import (
    PredictorConfig,
    decision_matrix,
    predict_labels_model,
    predict_proba_model,
)
from repro.data import gaussian_blobs
from repro.exceptions import NotFittedError, ValidationError
from repro.gpusim import scaled_tesla_p100
from repro.server import Dispatcher
from repro.sparse import CSRMatrix


def _fit(k, n=140, seed=None):
    x, y = gaussian_blobs(n, 5, k, seed=7 * k if seed is None else seed)
    clf = GMPSVC(C=10.0, gamma=0.4, working_set_size=32).fit(x, y)
    return clf, x, y


@pytest.fixture(scope="module")
def fitted3():
    return _fit(3)


@pytest.fixture(scope="module")
def session3(fitted3):
    return InferenceSession.from_estimator(fitted3[0])


def _one_shot_proba(model, data):
    config = PredictorConfig(device=scaled_tesla_p100())
    probabilities, _ = predict_proba_model(config, model, data)
    return probabilities


class TestSessionParity:
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_proba_bitwise_dense(self, k):
        clf, x, _ = _fit(k, n=60 * k if k > 3 else 140)
        session = InferenceSession.from_estimator(clf)
        expected = _one_shot_proba(clf.model_, x)
        assert np.array_equal(session.predict_proba(x), expected)

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_proba_bitwise_sparse(self, k):
        clf, x, _ = _fit(k, n=60 * k if k > 3 else 140)
        session = InferenceSession.from_estimator(clf)
        sparse = CSRMatrix.from_dense(x)
        expected = _one_shot_proba(clf.model_, sparse)
        assert np.array_equal(session.predict_proba(sparse), expected)

    def test_labels_bitwise(self, fitted3, session3):
        clf, x, _ = fitted3
        config = PredictorConfig(device=scaled_tesla_p100())
        expected, _ = predict_labels_model(config, clf.model_, x)
        assert np.array_equal(session3.predict(x), expected)

    def test_decision_function_bitwise(self, fitted3, session3):
        clf, x, _ = fitted3
        engine = PredictorConfig(device=scaled_tesla_p100()).make_engine()
        expected = decision_matrix(engine, clf.model_, x)
        assert np.array_equal(session3.decision_function(x), expected)

    def test_single_row_matches_full_batch_rows(self, fitted3, session3):
        """Row i served alone is bitwise row i of the full-batch result."""
        _, x, _ = fitted3
        full = session3.predict_proba(x[:16])
        for i in (0, 7, 15):
            assert np.array_equal(
                session3.predict_proba(x[i : i + 1])[0], full[i]
            )

    def test_repeated_calls_identical(self, fitted3, session3):
        _, x, _ = fitted3
        first = session3.predict_proba(x[:20])
        second = session3.predict_proba(x[:20])
        assert np.array_equal(first, second)

    def test_nonprobabilistic_labels(self):
        x, y = gaussian_blobs(120, 5, 3, seed=5)
        clf = GMPSVC(C=10.0, gamma=0.4, probability=False).fit(x, y)
        session = InferenceSession.from_estimator(clf)
        assert np.array_equal(session.predict(x), clf.predict(x))
        with pytest.raises(NotFittedError):
            session.predict_proba(x)


class TestSessionLifecycle:
    def test_requires_fitted_model(self):
        with pytest.raises(NotFittedError):
            InferenceSession("not a model")
        with pytest.raises(NotFittedError):
            InferenceSession.from_estimator(GMPSVC())

    def test_negative_tile_cache_rejected(self, fitted3):
        with pytest.raises(ValidationError):
            InferenceSession(fitted3[0].model_, tile_cache_entries=-1)

    def test_seal_paid_once(self, fitted3):
        clf, x, _ = fitted3
        session = InferenceSession.from_estimator(clf)
        sealed = session.stats.seal_simulated_s
        assert sealed > 0
        session.predict_proba(x[:8])
        session.predict_proba(x[:8])
        assert session.stats.seal_simulated_s == sealed
        assert session.stats.n_calls == 2
        assert session.stats.n_rows == 16

    def test_simulated_clock_accumulates(self, fitted3):
        clf, x, _ = fitted3
        session = InferenceSession.from_estimator(clf)
        t0 = session.simulated_seconds
        session.predict_proba(x[:8])
        t1 = session.simulated_seconds
        session.predict_proba(x[:8])
        assert t0 > 0 and t1 > t0 and session.simulated_seconds > t1

    def test_warm_cheaper_than_cold_per_call(self, fitted3):
        """A warm serve call charges less than the cold one-shot path."""
        clf, x, _ = fitted3
        session = InferenceSession.from_estimator(clf)
        row = x[:1]
        session.predict_proba(row)  # exercise once
        session.predict_proba(row)
        warm = session.stats.per_call_simulated_s[-1]
        config = PredictorConfig(device=scaled_tesla_p100())
        _, report = predict_proba_model(config, clf.model_, row)
        assert warm < report.simulated_seconds


class TestTileCache:
    def test_repeat_requests_hit_and_stay_bitwise(self, fitted3):
        clf, x, _ = fitted3
        session = InferenceSession.from_estimator(clf, tile_cache_entries=4)
        expected = _one_shot_proba(clf.model_, x[:6])
        first = session.predict_proba(x[:6])
        t_miss = session.stats.per_call_simulated_s[-1]
        second = session.predict_proba(x[:6])
        t_hit = session.stats.per_call_simulated_s[-1]
        assert np.array_equal(first, expected)
        assert np.array_equal(second, expected)
        assert session.stats.tile_hits == 1
        assert session.stats.tile_misses == 1
        assert session.stats.tile_hit_rate == 0.5
        assert t_hit < t_miss  # the kernel block was not recomputed

    def test_lru_eviction(self, fitted3):
        clf, x, _ = fitted3
        session = InferenceSession.from_estimator(clf, tile_cache_entries=1)
        session.predict_proba(x[:4])
        session.predict_proba(x[4:8])  # evicts the first tile
        session.predict_proba(x[:4])  # miss again
        assert session.stats.tile_hits == 0
        assert session.stats.tile_misses == 3

    def test_distinct_requests_never_collide(self, fitted3):
        clf, x, _ = fitted3
        session = InferenceSession.from_estimator(clf, tile_cache_entries=8)
        a = session.predict_proba(x[:4])
        b = session.predict_proba(x[4:8])
        assert np.array_equal(a, _one_shot_proba(clf.model_, x[:4]))
        assert np.array_equal(b, _one_shot_proba(clf.model_, x[4:8]))


def _dispatcher(session, max_batch=8):
    """A one-lane dispatcher whose first request holds the lane.

    The returned dispatcher already served one blocker request at t=0, so
    every request submitted at t=0 afterwards queues and fuses on
    :meth:`Dispatcher.drain`.
    """
    dispatcher = Dispatcher(session, n_workers=1, max_batch=max_batch)
    dispatcher.submit(np.zeros((1, session.n_features)), arrival_s=0.0)
    return dispatcher


class TestMicroBatcher:
    """Adaptive micro-batching through the one-lane :class:`Dispatcher`."""

    def test_mixed_size_fused_dispatch_bitwise(self, fitted3):
        """Fused mixed-size requests return bitwise one-shot rows."""
        clf, x, _ = fitted3
        dispatcher = _dispatcher(InferenceSession.from_estimator(clf))
        sizes = [1, 3, 2, 1, 4, 1]
        requests, start = [], 0
        for size in sizes:
            requests.append(dispatcher.submit(x[start : start + size]))
            start += size
        dispatcher.drain()
        assert {r.batch_requests for r in requests} == {len(sizes)}
        start = 0
        for request, size in zip(requests, sizes):
            expected = _one_shot_proba(clf.model_, x[start : start + size])
            assert np.array_equal(request.result, expected)
            start += size
        assert dispatcher.stats.n_dispatches == 2  # blocker + one fused
        assert dispatcher.stats.n_admitted == len(sizes) + 1

    def test_sparse_requests_bitwise(self, fitted3):
        clf, x, _ = fitted3
        session = InferenceSession.from_estimator(clf)
        dispatcher = Dispatcher(session, n_workers=1, max_batch=4)
        dispatcher.submit(CSRMatrix.from_dense(x[6:7]))  # holds the lane
        handles = [
            dispatcher.submit(CSRMatrix.from_dense(x[i : i + 2]))
            for i in range(0, 6, 2)
        ]
        dispatcher.drain()
        assert {h.batch_requests for h in handles} == {3}
        expected = _one_shot_proba(clf.model_, CSRMatrix.from_dense(x[:6]))
        fused = np.vstack([h.result for h in handles])
        assert np.array_equal(fused, expected)

    def test_max_batch_splits_dispatches(self, fitted3):
        clf, x, _ = fitted3
        dispatcher = _dispatcher(InferenceSession.from_estimator(clf), 2)
        for i in range(5):
            dispatcher.submit(x[i : i + 1])
        dispatcher.drain()
        assert dispatcher.stats.n_dispatches == 4  # blocker, 2 + 2 + 1

    def test_representation_change_closes_batch(self, fitted3):
        """Dense and CSR requests never share a dispatch."""
        clf, x, _ = fitted3
        dispatcher = _dispatcher(InferenceSession.from_estimator(clf))
        dense = [dispatcher.submit(x[i : i + 1]) for i in range(2)]
        sparse = dispatcher.submit(CSRMatrix.from_dense(x[2:3]))
        dispatcher.drain()
        assert dispatcher.stats.n_dispatches == 3  # blocker, dense, CSR
        assert {r.batch_id for r in dense} != {sparse.batch_id}
        assert sparse.batch_requests == 1

    def test_predict_kind_fuses_with_proba(self, fitted3):
        """predict and predict_proba share the fused probability pass."""
        clf, x, _ = fitted3
        dispatcher = _dispatcher(InferenceSession.from_estimator(clf))
        proba_req = dispatcher.submit(x[:2], kind="predict_proba")
        label_req = dispatcher.submit(x[2:4], kind="predict")
        dispatcher.drain()
        assert proba_req.batch_id == label_req.batch_id
        assert np.array_equal(
            proba_req.result, _one_shot_proba(clf.model_, x[:2])
        )
        assert np.array_equal(label_req.result, clf.predict(x[2:4]))

    def test_latency_accounting(self, fitted3):
        clf, x, _ = fitted3
        dispatcher = _dispatcher(InferenceSession.from_estimator(clf), 4)
        early = dispatcher.submit(x[:1], arrival_s=0.0)
        late = dispatcher.submit(x[1:2], arrival_s=0.0)
        dispatcher.drain()
        assert early.batch_id == late.batch_id
        assert early.queue_s == late.queue_s > 0  # waited for the blocker
        assert early.compute_s == late.compute_s > 0
        assert early.latency_s == early.queue_s + early.compute_s
        stats = dispatcher.stats
        assert stats.latency_percentile(100.0) >= early.latency_s
        assert stats.mean_batch_size == 1.5  # blocker alone, then a pair

    def test_result_before_drain_raises(self, fitted3):
        clf, x, _ = fitted3
        dispatcher = _dispatcher(InferenceSession.from_estimator(clf))
        handle = dispatcher.submit(x[:1])
        with pytest.raises(ValidationError, match="not been dispatched"):
            handle.result
        assert dispatcher.n_queued == 1
        dispatcher.drain()
        assert dispatcher.n_queued == 0
        assert handle.done and handle.result.shape == (1, 3)

    def test_validation_errors(self, fitted3, session3):
        clf, x, _ = fitted3
        with pytest.raises(ValidationError):
            Dispatcher("not a session")
        with pytest.raises(ValidationError):
            Dispatcher(session3, max_batch=0)
        dispatcher = Dispatcher(session3, n_workers=1)
        with pytest.raises(ValidationError, match="kind"):
            dispatcher.submit(x[:1], kind="frobnicate")
        dispatcher.submit(x[:1], arrival_s=2.0)
        with pytest.raises(ValidationError):
            dispatcher.submit(x[:1], arrival_s=1.0)  # arrivals must not regress


class TestServingTelemetry:
    def test_spans_and_request_events(self, fitted3):
        from repro.telemetry import Tracer

        clf, x, _ = fitted3
        tracer = Tracer()
        config = PredictorConfig(device=scaled_tesla_p100(), tracer=tracer)
        session = InferenceSession(clf.model_, config)
        dispatcher = Dispatcher(session, n_workers=1, max_batch=4)
        dispatcher.submit(x[:1])
        dispatcher.submit(x[1:3])
        dispatcher.drain()
        names = [record["name"] for record in tracer.to_records()]
        assert "serve_seal" in names
        assert names.count("serve_dispatch") == 2
        assert names.count("serve_request") == 2
