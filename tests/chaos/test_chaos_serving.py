"""Chaos suite: replica loss and recovery on the serving side.

Invariant under every scenario: a failure is *visible* — an explicit
503 or a raised error — and every 200 response is bitwise the sealed
model's answer.  Zero silent wrong answers, ever.
"""

import warnings

import numpy as np
import pytest

from repro.core.predictor import PredictorConfig
from repro.core.trainer import TrainerConfig, train_multiclass
from repro.data import gaussian_blobs
from repro.exceptions import ValidationError
from repro.gpusim.device import scaled_tesla_p100
from repro.kernels.functions import kernel_from_name
from repro.server.dispatcher import Dispatcher
from repro.serving import InferenceSession


@pytest.fixture(scope="module")
def served():
    x, y = gaussian_blobs(n=88, n_features=5, n_classes=4, seed=7)
    kernel = kernel_from_name("gaussian", gamma=0.4)
    config = TrainerConfig(device=scaled_tesla_p100(), working_set_size=24)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model, _ = train_multiclass(config, x, y, kernel, 1.0)
    session = InferenceSession(
        model, PredictorConfig(device=scaled_tesla_p100())
    )
    probe = np.asarray(x)[:3]
    return model, probe, session.predict_proba(probe)


def _replicated_dispatcher(model, n_devices=3):
    session = InferenceSession(
        model, PredictorConfig(device=scaled_tesla_p100())
    )
    return Dispatcher(session, n_workers=n_devices)


class TestLaneFailure:
    def test_failure_window_is_explicit_503s_then_reroute(self, served):
        model, probe, reference = served
        d = _replicated_dispatcher(model)
        warm = [d.submit(probe, arrival_s=float(i)) for i in range(3)]
        d.drain()
        assert all(r.status == 200 for r in warm)

        d.fail_lane(1)
        window = [
            d.submit(probe, arrival_s=d.now_s + 10.0 + i) for i in range(6)
        ]
        d.drain()
        statuses = [r.status for r in window]
        # Exactly the batch routed to the dead lane fails, explicitly.
        assert statuses.count(503) >= 1
        failed = [r for r in window if r.status == 503]
        assert all(r.decision.reason == "replica_lost" for r in failed)
        for r in window:
            if r.status == 200:
                assert np.array_equal(r.result, reference)
        assert d.stats.n_failed == len(failed)

    def test_failed_result_access_raises_not_garbage(self, served):
        model, probe, _ = served
        d = _replicated_dispatcher(model)
        d.fail_lane(0, at_s=0.0)
        request = d.submit(probe, arrival_s=1.0)
        d.drain()
        if request.status == 503:
            with pytest.raises(ValidationError, match="shed"):
                _ = request.result

    def test_detection_excludes_lane_from_routing(self, served):
        model, probe, reference = served
        d = _replicated_dispatcher(model)
        d.fail_lane(2)
        requests = [
            d.submit(probe, arrival_s=float(i + 1)) for i in range(12)
        ]
        d.drain()
        statuses = [r.status for r in requests]
        # One detection batch, then the dead lane never serves again.
        assert statuses.count(503) >= 1
        workers = {r.worker for r in requests if r.status == 200}
        assert 2 not in workers
        health = d.lane_health()
        assert health[2]["failed"] and health[2]["detected"]
        for r in requests:
            if r.status == 200:
                assert np.array_equal(r.result, reference)

    def test_all_lanes_dead_queues_until_restore(self, served):
        model, probe, reference = served
        d = _replicated_dispatcher(model, n_devices=2)
        d.fail_lane(0)
        d.fail_lane(1)
        # Detection costs one batch per lane; later arrivals queue.
        requests = [
            d.submit(probe, arrival_s=float(i + 1)) for i in range(6)
        ]
        d.drain()  # must not hang with zero routable lanes
        queued = [r for r in requests if not r.done]
        assert queued  # backlog waited instead of silently failing
        d.restore_lane(0)
        d.drain()
        assert all(r.done for r in requests)
        for r in requests:
            if r.status == 200:
                assert np.array_equal(r.result, reference)

    def test_recovery_serves_clean_after_restore(self, served):
        model, probe, reference = served
        d = _replicated_dispatcher(model)
        d.fail_lane(1)
        during = [
            d.submit(probe, arrival_s=d.now_s + 1.0 + i) for i in range(4)
        ]
        d.drain()
        d.restore_lane(1)
        after = [
            d.submit(probe, arrival_s=d.now_s + 100.0 + i) for i in range(9)
        ]
        d.drain()
        # Zero failed requests once the replica is back; the restored
        # lane serves again.
        assert all(r.status == 200 for r in after)
        assert all(np.array_equal(r.result, reference) for r in after)
        assert 1 in {r.worker for r in after}
        assert any(r.status == 503 for r in during)  # window was explicit

    def test_restore_with_replacement_session(self, served):
        model, probe, reference = served
        session = InferenceSession(
            model, PredictorConfig(device=scaled_tesla_p100())
        )
        d = Dispatcher(session, n_workers=2)
        d.fail_lane(0)
        replacement = InferenceSession(
            model, PredictorConfig(device=scaled_tesla_p100())
        )
        d.restore_lane(0, replacement)
        requests = [
            d.submit(probe, arrival_s=float(i + 1)) for i in range(4)
        ]
        d.drain()
        served_ok = [r for r in requests if r.status == 200]
        assert served_ok
        assert all(np.array_equal(r.result, reference) for r in served_ok)

    def test_lane_validation(self, served):
        model, probe, _ = served
        d = _replicated_dispatcher(model)
        with pytest.raises(ValidationError, match="out of range"):
            d.fail_lane(9)
        with pytest.raises(ValidationError, match="not failed"):
            d.restore_lane(0)
        d.fail_lane(0)
        with pytest.raises(ValidationError, match="already failed"):
            d.fail_lane(0)
        # First submit absorbs lane 0's detection; the second completes
        # on a live lane, advancing the virtual clock past zero.
        d.submit(probe, arrival_s=5.0)
        d.submit(probe, arrival_s=5.0)
        d.drain()
        assert d.now_s > 0.0
        with pytest.raises(ValidationError, match="precedes"):
            d.fail_lane(1, at_s=0.0)

    def test_replacement_width_mismatch_rejected(self, served):
        model, probe, _ = served
        session = InferenceSession(
            model, PredictorConfig(device=scaled_tesla_p100())
        )
        d = Dispatcher(session, n_workers=2)
        d.fail_lane(0)
        x, y = gaussian_blobs(n=60, n_features=3, n_classes=3, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            narrow, _ = train_multiclass(
                TrainerConfig(
                    device=scaled_tesla_p100(), working_set_size=16
                ),
                x, y,
                kernel_from_name("gaussian", gamma=0.4),
                1.0,
            )
        wrong = InferenceSession(
            narrow, PredictorConfig(device=scaled_tesla_p100())
        )
        with pytest.raises(ValidationError, match="features"):
            d.restore_lane(0, wrong)
