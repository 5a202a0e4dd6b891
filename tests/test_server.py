"""The HTTP serving front-end: protocol, admission, dispatch, parity.

The headline contract is DESIGN.md §13's: an HTTP response body decodes
to arrays *bitwise equal* to direct :class:`InferenceSession` calls —
the wire format ships raw float64 buffers, the dispatcher fuses batches
through row-pure kernel blocks and decision sums, so transport and
batching add nothing numerically.  Around that: the admission-control
edge cases (zero-capacity tenants, no priority inversion under shed,
queue drain on shutdown, deterministic shed decisions), a real-socket
round trip, concurrent requests fused into shared dispatches (each
failing alone), the socket handler's framing (one write per response, a
JSON 400 for a bad ``Content-Length``) and the same rules over WSGI.
"""

from __future__ import annotations

import io
import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro import GMPSVC, PredictorConfig, ValidationError
from repro.data import gaussian_blobs
from repro.gpusim import scaled_tesla_p100
from repro.serving import InferenceSession
from repro.server import (
    AdmissionController,
    Dispatcher,
    ProtocolError,
    ServerApp,
    TenantPolicy,
    TokenBucket,
    serve_http,
)
from repro.server import protocol
from repro.server.app import _http_server
from repro.sparse import CSRMatrix


@pytest.fixture(scope="module")
def problem():
    x, y = gaussian_blobs(180, 6, 3, seed=21)
    return x, y


@pytest.fixture(scope="module")
def model(problem):
    x, y = problem
    return GMPSVC(C=10.0, gamma=0.4, working_set_size=32).fit(x, y).model_


def make_session(model):
    return InferenceSession(
        model, PredictorConfig(device=scaled_tesla_p100())
    )


def make_dispatcher(model, **kwargs):
    kwargs.setdefault("n_workers", 2)
    kwargs.setdefault("max_batch", 8)
    return Dispatcher(make_session(model), **kwargs)


def post_body(x, **extra):
    payload = {"instances": protocol.encode_matrix(np.asarray(x))}
    payload.update(extra)
    return json.dumps(payload).encode("utf-8")


class TestProtocol:
    def test_array_round_trip_is_bitwise(self, rng):
        array = rng.standard_normal((5, 7))
        decoded = protocol.decode_array(protocol.encode_array(array))
        assert decoded.dtype == array.dtype
        assert decoded.tobytes() == array.tobytes()

    def test_dense_matrix_round_trip(self, rng):
        array = rng.standard_normal((4, 3))
        decoded = protocol.decode_matrix(protocol.encode_matrix(array))
        assert np.array_equal(decoded, array)

    def test_csr_matrix_round_trip(self, rng):
        dense = rng.standard_normal((6, 5))
        dense[dense < 0.3] = 0.0
        csr = CSRMatrix.from_dense(dense)
        decoded = protocol.decode_matrix(protocol.encode_matrix(csr))
        assert isinstance(decoded, CSRMatrix)
        assert np.array_equal(decoded.toarray(), dense)

    def test_rows_spelling(self):
        decoded = protocol.decode_matrix({"rows": [[1.0, 2.0], [3.0, 4.0]]})
        assert decoded.shape == (2, 2)
        single = protocol.decode_matrix({"rows": [1.0, 2.0]})
        assert single.shape == (1, 2)

    @pytest.mark.parametrize(
        "payload",
        [
            {"rows": []},
            {"rows": [["a", "b"]]},
            {"dense_b64": "!!!", "dtype": "float64", "shape": [1, 1]},
            {"dense_b64": "AAAA", "dtype": "float16", "shape": [1, 1]},
            {"csr": {"shape": [2]}},
            {"nope": 1},
            [],
        ],
    )
    def test_malformed_matrix_raises_protocol_error(self, payload):
        with pytest.raises(ProtocolError):
            protocol.decode_matrix(payload)

    def test_buffer_shape_mismatch_named(self):
        bad = protocol.encode_array(np.zeros((2, 2)))
        bad["shape"] = [3, 3]
        with pytest.raises(ProtocolError, match="bytes"):
            protocol.decode_array(bad)

    def test_csr_payload_must_be_canonical(self):
        # indptr not ending at nnz -> CSRMatrix validation -> ProtocolError.
        csr = protocol.encode_matrix(
            CSRMatrix.from_dense(np.eye(3))
        )["csr"]
        csr["shape"] = [2, 3]
        with pytest.raises(ProtocolError):
            protocol.decode_matrix({"csr": csr})

    def test_decode_request_priority_validation(self):
        body = json.dumps(
            {"instances": {"rows": [[1.0]]}, "priority": True}
        ).encode()
        with pytest.raises(ProtocolError, match="priority"):
            protocol.decode_request(body)

    def test_decode_request_needs_instances(self):
        with pytest.raises(ProtocolError, match="instances"):
            protocol.decode_request(b"{}")
        with pytest.raises(ProtocolError, match="JSON"):
            protocol.decode_request(b"not json")


class TestAdmissionPrimitives:
    def test_token_bucket_refills_on_virtual_time(self):
        bucket = TokenBucket(rate_per_s=2.0, burst=1, now_s=0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        assert bucket.seconds_until_token(0.0) == pytest.approx(0.5)
        assert bucket.try_take(0.5)

    def test_zero_rate_bucket_never_refills(self):
        bucket = TokenBucket(rate_per_s=0.0, burst=0, now_s=0.0)
        assert not bucket.try_take(0.0)
        assert bucket.seconds_until_token(1e9) == float("inf")

    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            TenantPolicy(rate_per_s=-1.0)
        with pytest.raises(ValidationError):
            TenantPolicy(burst=-1)

    def test_controller_rate_limit_verdict(self):
        controller = AdmissionController(
            default_policy=TenantPolicy(rate_per_s=1.0, burst=1, max_queue=4)
        )
        assert controller.offer("t", 0.0).admitted
        verdict = controller.offer("t", 0.0)
        assert not verdict.admitted
        assert verdict.status == 429
        assert verdict.reason == "rate_limited"
        assert verdict.retry_after_s == pytest.approx(1.0)


class TestDispatchAndParity:
    def test_http_response_bitwise_equals_direct_session(self, problem, model):
        x, _ = problem
        batch = x[:6]
        direct = make_session(model).predict_proba(batch)

        app = ServerApp(make_dispatcher(model))
        status, headers, body = app.handle_request(
            "POST", "/v1/predict_proba", post_body(batch)
        )
        assert status == 200
        payload = json.loads(body)
        result = protocol.decode_array(payload["result"])
        assert result.tobytes() == direct.tobytes()

    def test_parity_holds_for_all_kinds(self, problem, model):
        x, _ = problem
        batch = x[:5]
        session = make_session(model)
        direct = {
            "predict_proba": session.predict_proba(batch),
            "predict": session.predict(batch),
            "decision_function": session.decision_function(batch),
        }
        app = ServerApp(make_dispatcher(model))
        for kind, expected in direct.items():
            status, _, body = app.handle_request(
                "POST", f"/v1/{kind}", post_body(batch)
            )
            assert status == 200
            result = protocol.decode_array(json.loads(body)["result"])
            assert np.array_equal(result, expected), kind

    def test_parity_survives_batched_contention(self, problem, model):
        # Many single-row requests at one instant fuse into wide batches;
        # row-pure tiled kernels keep per-row results byte-identical to the
        # unfused direct call.
        x, _ = problem
        direct = make_session(model).predict_proba(x[:12])
        dispatcher = make_dispatcher(model, max_batch=6)
        tickets = [
            dispatcher.submit(x[i : i + 1], arrival_s=0.0) for i in range(12)
        ]
        dispatcher.drain()
        assert max(t.batch_requests for t in tickets) > 1
        served = np.vstack([t.result for t in tickets])
        assert served.tobytes() == direct.tobytes()

    def test_csr_requests_share_the_sparse_path(self, problem, model):
        x, _ = problem
        csr = CSRMatrix.from_dense(x[:4])
        direct = make_session(model).predict_proba(csr)
        app = ServerApp(make_dispatcher(model))
        body = json.dumps(
            {"instances": protocol.encode_matrix(csr)}
        ).encode()
        status, _, payload = app.handle_request(
            "POST", "/v1/predict_proba", body
        )
        assert status == 200
        result = protocol.decode_array(json.loads(payload)["result"])
        assert result.tobytes() == direct.tobytes()

    def test_replicated_lanes_fuse_bitwise(self, problem, model):
        # Two replicas are two Dispatcher lanes over one sealed session.
        x, _ = problem
        session = make_session(model)
        direct = session.predict_proba(x[:4])
        dispatcher = make_dispatcher(model, max_batch=4)
        assert dispatcher.n_workers == 2
        ticket = dispatcher.submit(x[:4])
        dispatcher.drain()
        assert ticket.result.tobytes() == direct.tobytes()
        # Six 1-row requests at one instant: both lanes take work, the
        # backlog fuses, and every row is bitwise the session's.
        rows = [x[i : i + 1] for i in range(6)]
        tickets = [dispatcher.submit(row) for row in rows]
        dispatcher.drain()
        assert {t.worker for t in tickets} == {0, 1}
        assert max(t.batch_requests for t in tickets) > 1
        for t, row in zip(tickets, rows):
            assert t.result.tobytes() == session.predict_proba(row).tobytes()

    def test_wrong_width_is_422_not_500(self, model):
        app = ServerApp(make_dispatcher(model))
        status, _, body = app.handle_request(
            "POST", "/v1/predict_proba", post_body(np.zeros((1, 3)))
        )
        assert status == 422
        assert json.loads(body)["error"]["status"] == 422

    def test_malformed_body_is_400(self, model):
        app = ServerApp(make_dispatcher(model))
        status, _, body = app.handle_request(
            "POST", "/v1/predict_proba", b"not json"
        )
        assert status == 400
        assert json.loads(body)["error"]["reason"] == "bad_request"

    def test_routes_and_stats(self, problem, model):
        x, _ = problem
        app = ServerApp(make_dispatcher(model))
        assert app.handle_request("GET", "/healthz")[0] == 200
        assert app.handle_request("GET", "/nope")[0] == 404
        assert app.handle_request("PUT", "/healthz")[0] == 405
        app.handle_request("POST", "/v1/predict", post_body(x[:2]))
        status, _, body = app.handle_request("GET", "/v1/stats")
        snapshot = json.loads(body)
        assert status == 200
        assert snapshot["admitted"] == 1
        assert "default" in snapshot["tenants"]

    def test_out_of_order_arrival_rejected(self, problem, model):
        x, _ = problem
        dispatcher = make_dispatcher(model)
        dispatcher.submit(x[:1], arrival_s=5.0)
        with pytest.raises(ValidationError, match="time order"):
            dispatcher.submit(x[:1], arrival_s=1.0)

    def test_drain_never_moves_virtual_time_backwards(self, problem, model):
        x, _ = problem
        dispatcher = make_dispatcher(model)
        dispatcher.advance_to(5.0)
        assert dispatcher.drain() >= 5.0
        assert dispatcher.now_s >= 5.0
        with pytest.raises(ValidationError, match="time order"):
            dispatcher.submit(x[:1], arrival_s=1.0)
        # The swap path drains too: its window can never be negative.
        dispatcher = make_dispatcher(model)
        dispatcher.submit(x[:1], arrival_s=0.0)
        dispatcher.advance_to(5.0)
        report = dispatcher.swap_model(make_session(model))
        assert report.requested_s == 5.0
        assert report.completed_s >= report.requested_s
        assert report.window_s >= 0.0


class TestReplicatedServing:
    """Replicated serving is Dispatcher lanes over one sealed session."""

    @pytest.mark.parametrize("n_workers", (1, 2, 4))
    def test_outputs_bitwise_equal_to_session(self, problem, model, n_workers):
        x, _ = problem
        x_test = x[::4] - 0.125
        session = make_session(model)
        kinds = ("predict_proba", "decision_function", "predict")
        dispatcher = Dispatcher(make_session(model), n_workers=n_workers)
        tickets = [dispatcher.submit(x_test, kind=kind) for kind in kinds]
        dispatcher.drain()
        for kind, ticket in zip(kinds, tickets):
            assert np.array_equal(getattr(session, kind)(x_test), ticket.result)

    def test_micro_batched_requests_match_one_shot(self, problem, model):
        # Same-instant 1-row requests fused by a two-lane Dispatcher
        # reproduce the one-shot session rows bitwise.
        x, _ = problem
        session = make_session(model)
        dispatcher = Dispatcher(make_session(model), n_workers=2, max_batch=6)
        x_test = x[::4] - 0.125
        rows = [x_test[i : i + 1] for i in range(6)]
        tickets = [dispatcher.submit(row, arrival_s=0.0) for row in rows]
        dispatcher.drain()
        assert max(t.batch_requests for t in tickets) > 1
        for ticket, row in zip(tickets, rows):
            assert np.array_equal(ticket.result, session.predict_proba(row))


class TestGroupIntake:
    """``Dispatcher.submit_group``: requests offered at one instant."""

    def test_group_fuses_on_one_free_lane(self, problem, model):
        x, _ = problem
        session = make_session(model)
        rows = [x[i : i + 1 + i % 3] for i in range(5)]
        dispatcher = make_dispatcher(model)
        tickets = dispatcher.submit_group([{"X": r} for r in rows], arrival_s=1.0)
        # Dispatch waits for the last admission, then one lane fuses all.
        assert all(t.done for t in tickets)
        assert dispatcher.stats.n_dispatches == 1
        assert {t.batch_requests for t in tickets} == {5}
        for ticket, r in zip(tickets, rows):
            assert ticket.result.tobytes() == session.predict_proba(r).tobytes()
        # One submit at a time, both free lanes take a request at once.
        single = make_dispatcher(model)
        for r in rows:
            single.submit(r, arrival_s=1.0)
        single.drain()
        assert single.stats.n_dispatches == 3

    @pytest.mark.parametrize("arrivals", ([0.0, 0.0, 1e-6, 1e-6, 0.2, 0.2, 0.9],
                                          [None] * 7))
    def test_group_of_one_is_submit(self, problem, model, arrivals):
        # Same verdicts, batches, clock and latencies, sheds included.
        x, _ = problem

        def run(offer):
            admission = AdmissionController(
                default_policy=TenantPolicy(rate_per_s=4.0, burst=3, max_queue=1)
            )
            dispatcher = make_dispatcher(model, n_workers=1, admission=admission)
            tickets = [
                offer(dispatcher, x[i : i + 2], t) for i, t in enumerate(arrivals)
            ]
            dispatcher.drain()
            shape = [
                (t.status, t.batch_id, t.dispatch_s, t.completion_s)
                for t in tickets
            ]
            return dispatcher, shape

        plain, plain_shape = run(lambda d, r, t: d.submit(r, arrival_s=t))
        grouped, grouped_shape = run(
            lambda d, r, t: d.submit_group([{"X": r}], arrival_s=t)[0]
        )
        assert plain.stats.n_shed > 0
        assert grouped_shape == plain_shape
        assert grouped.decision_log == plain.decision_log
        assert grouped.stats.accepted_latencies_s == plain.stats.accepted_latencies_s
        assert grouped.now_s == plain.now_s

    def test_refused_member_fails_alone(self, problem, model):
        x, _ = problem
        wide = np.zeros((1, 3))
        dispatcher = make_dispatcher(model)
        first, refused, last = dispatcher.submit_group(
            [{"X": x[:2]}, {"X": wide}, {"X": x[2:3]}], arrival_s=0.0
        )
        assert isinstance(refused, ValidationError)
        assert first.batch_id == last.batch_id and first.batch_requests == 2
        # A refused last member still releases the held group.
        held, refused = dispatcher.submit_group([{"X": x[:1]}, {"X": wide}])
        assert isinstance(refused, ValidationError) and held.done
        # A group that admits nobody leaves the clock where it was.
        idle = make_dispatcher(model)
        (refused,) = idle.submit_group([{"X": wide}], arrival_s=5.0)
        assert isinstance(refused, ValidationError) and idle.now_s == 0.0


class TestDispatcherInputChecks:
    def test_backend_must_be_a_session(self):
        with pytest.raises(ValidationError, match="InferenceSession"):
            Dispatcher(object())

    def test_needs_at_least_one_worker(self, model):
        with pytest.raises(ValidationError, match="n_workers"):
            Dispatcher(make_session(model), n_workers=0)

    def test_swap_requires_a_session(self, model):
        with pytest.raises(ValidationError, match="InferenceSession"):
            make_dispatcher(model).swap_model(object())

    def test_restore_requires_a_session(self, model):
        dispatcher = make_dispatcher(model)
        dispatcher.fail_lane(0)
        with pytest.raises(ValidationError, match="InferenceSession"):
            dispatcher.restore_lane(0, session=object())
        assert dispatcher.lane_health()[0]["failed"]


class TestSwapFailurePaths:
    """A rejected swap must be a no-op: the old session keeps serving,
    nothing queued is dropped, and no swap is recorded."""

    @pytest.fixture(scope="class")
    def narrow_model(self):
        x, y = gaussian_blobs(80, 4, 3, seed=11)
        return GMPSVC(C=1.0, gamma=0.5, working_set_size=32).fit(x, y).model_

    def test_width_mismatch_leaves_old_session_serving(
        self, problem, model, narrow_model
    ):
        x, _ = problem
        dispatcher = make_dispatcher(model)
        reference = make_session(model).predict_proba(np.asarray(x[:2]))

        before = [
            dispatcher.submit(x[:2], arrival_s=float(i)) for i in range(3)
        ]
        with pytest.raises(ValidationError, match="features"):
            dispatcher.swap_model(make_session(narrow_model), label="bad")
        # Queued traffic was not drained, shed, or rerouted by the
        # failed attempt; later arrivals serve on the old model too.
        after = [
            dispatcher.submit(x[:2], arrival_s=dispatcher.now_s + 1.0 + i)
            for i in range(3)
        ]
        dispatcher.drain()
        for handle in before + after:
            assert handle.status == 200 and not handle.shed
            assert np.array_equal(handle.result, reference)
        assert dispatcher.swaps == []
        assert dispatcher.stats.n_shed == 0

    def test_unsealed_backend_rejected_without_drop(self, problem, model):
        x, _ = problem
        dispatcher = make_dispatcher(model)
        queued = dispatcher.submit(x[:1], arrival_s=1.0)
        with pytest.raises(ValidationError, match="InferenceSession"):
            dispatcher.swap_model(model)  # bare model, not a session
        dispatcher.drain()
        assert queued.status == 200 and not queued.shed
        assert dispatcher.swaps == []

    def test_failed_then_valid_swap_succeeds(
        self, problem, model, narrow_model
    ):
        x, _ = problem
        dispatcher = make_dispatcher(model)
        with pytest.raises(ValidationError, match="features"):
            dispatcher.swap_model(make_session(narrow_model))
        report = dispatcher.swap_model(make_session(model), label="v2")
        assert report.label == "v2"
        handle = dispatcher.submit(x[:2], arrival_s=dispatcher.now_s + 1.0)
        dispatcher.drain()
        assert handle.status == 200
        assert len(dispatcher.swaps) == 1


class TestAdmissionEdgeCases:
    def test_zero_capacity_tenant_always_429(self, problem, model):
        x, _ = problem
        admission = AdmissionController(
            default_policy=TenantPolicy(rate_per_s=1e6, burst=8, max_queue=8),
            policies={
                "blocked": TenantPolicy(rate_per_s=0.0, burst=0, max_queue=8)
            },
        )
        dispatcher = make_dispatcher(model, admission=admission)
        for i in range(3):
            ticket = dispatcher.submit(
                x[:1], tenant="blocked", arrival_s=float(i)
            )
            assert ticket.shed and ticket.status == 429
            assert ticket.decision.reason == "rate_limited"
        # Retry-After is capped, not infinite, even with rate 0.
        assert ticket.decision.retry_after_s <= 60.0
        ok = dispatcher.submit(x[:1], tenant="open", arrival_s=3.0)
        assert not ok.shed
        counters = admission.counters_snapshot()
        assert counters["blocked"]["shed_rate_limited"] == 3
        assert counters["blocked"]["admitted"] == 0

    def test_no_priority_inversion_under_shed(self, problem, model):
        # Queue full of priority-0 work; a priority-2 arrival evicts the
        # *youngest lowest-priority* request, never a peer or higher.
        x, _ = problem
        admission = AdmissionController(
            default_policy=TenantPolicy(
                rate_per_s=1e12, burst=1000, max_queue=1000
            ),
            max_queue_global=3,
        )
        dispatcher = make_dispatcher(model, n_workers=1, admission=admission)
        # Busy the lane so subsequent arrivals queue.
        dispatcher.submit(x[:1], arrival_s=0.0)
        low = [
            dispatcher.submit(x[:1], priority=0, arrival_s=0.0)
            for _ in range(3)
        ]
        high = dispatcher.submit(x[:1], priority=2, arrival_s=0.0)
        assert not high.shed
        assert low[-1].shed and low[-1].status == 503
        assert low[-1].decision.reason == "evicted"
        assert not low[0].shed and not low[1].shed
        # A same-priority arrival cannot evict: it is shed instead.
        same = dispatcher.submit(x[:1], priority=0, arrival_s=0.0)
        assert same.shed and same.decision.reason == "overloaded"
        # And the high-priority request completes before surviving lows.
        dispatcher.drain()
        assert high.completion_s <= min(
            r.completion_s for r in low if not r.shed
        )

    def test_queue_drains_on_graceful_shutdown(self, problem, model):
        x, _ = problem
        dispatcher = make_dispatcher(model, n_workers=1)
        dispatcher.submit(x[:1], arrival_s=0.0)
        tickets = [
            dispatcher.submit(x[:1], arrival_s=0.0) for _ in range(5)
        ]
        assert dispatcher.n_queued > 0
        dispatcher.shutdown(drain=True)
        assert dispatcher.n_queued == 0
        assert all(t.done and not t.shed for t in tickets)
        late = dispatcher.submit(x[:1], arrival_s=dispatcher.now_s)
        assert late.shed and late.status == 503
        assert late.decision.reason == "shutting_down"

    def test_hard_shutdown_sheds_backlog_explicitly(self, problem, model):
        x, _ = problem
        dispatcher = make_dispatcher(model, n_workers=1)
        dispatcher.submit(x[:1], arrival_s=0.0)
        tickets = [
            dispatcher.submit(x[:1], arrival_s=0.0) for _ in range(4)
        ]
        queued = [t for t in tickets if not t.done]
        assert queued
        dispatcher.shutdown(drain=False)
        assert dispatcher.n_queued == 0
        for ticket in queued:
            assert ticket.shed and ticket.status == 503
            assert ticket.decision.reason == "shutting_down"

    def test_shed_decisions_deterministic_under_fixed_seed(self, problem, model):
        from benchmarks.loadgen import TrafficShape, run_open_loop

        x, _ = problem
        rows = [x[i : i + 1] for i in range(16)]
        shape = TrafficShape(kind="steady", rate_rps=5e7, duration_s=4e-6)

        def run():
            admission = AdmissionController(
                default_policy=TenantPolicy(
                    rate_per_s=2e7, burst=8, max_queue=4
                ),
                max_queue_global=6,
            )
            dispatcher = make_dispatcher(model, admission=admission)
            return run_open_loop(
                dispatcher,
                rows,
                shape,
                tenants=(("a", 0.6), ("b", 0.4)),
                priorities=((0, 0.8), (1, 0.2)),
                seed=17,
            )

        first, second = run(), run()
        assert first.n_shed > 0
        assert first.decision_log == second.decision_log
        assert first.accepted_latencies_s == second.accepted_latencies_s
        assert first.shed_statuses == second.shed_statuses

    def test_shed_429_carries_retry_after_header(self, problem, model):
        x, _ = problem
        admission = AdmissionController(
            default_policy=TenantPolicy(rate_per_s=1.0, burst=1, max_queue=4)
        )
        app = ServerApp(make_dispatcher(model, admission=admission))
        assert app.handle_request(
            "POST", "/v1/predict", post_body(x[:1])
        )[0] == 200
        status, headers, body = app.handle_request(
            "POST", "/v1/predict", post_body(x[:1])
        )
        assert status == 429
        # RFC 9110: the header is integer delta-seconds, >= 1 and never
        # earlier than the exact float advertised in the body.
        assert headers["Retry-After"].isdigit()
        assert int(headers["Retry-After"]) >= 1
        error = json.loads(body)["error"]
        assert error["reason"] == "rate_limited"
        assert error["retry_after_s"] > 0
        assert int(headers["Retry-After"]) >= error["retry_after_s"]


class TestLoadGenerator:
    def test_traffic_shapes_preserve_mean_rate(self):
        from benchmarks.loadgen import TrafficShape, open_loop_arrivals

        for kind in ("steady", "bursty", "diurnal"):
            shape = TrafficShape(kind=kind, rate_rps=2000.0, duration_s=2.0)
            arrivals = open_loop_arrivals(shape, seed=3)
            assert arrivals.size == pytest.approx(4000, rel=0.15)
            assert np.all(np.diff(arrivals) >= 0)
            assert arrivals[-1] < 2.0

    def test_arrivals_deterministic_per_seed(self):
        from benchmarks.loadgen import TrafficShape, open_loop_arrivals

        shape = TrafficShape(kind="bursty", rate_rps=500.0, duration_s=1.0)
        a = open_loop_arrivals(shape, seed=9)
        b = open_loop_arrivals(shape, seed=9)
        c = open_loop_arrivals(shape, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_closed_loop_self_limits(self, problem, model):
        from benchmarks.loadgen import run_closed_loop

        x, _ = problem
        rows = [x[i : i + 1] for i in range(8)]
        report = run_closed_loop(
            make_dispatcher(model), rows, n_clients=4, n_requests=32
        )
        assert report.n_offered == 32
        assert report.n_shed == 0
        assert report.accepted_throughput_rps > 0


class TestSocketServer:
    def test_real_socket_round_trip(self, problem, model):
        x, _ = problem
        direct = make_session(model).predict_proba(x[:3])
        app = ServerApp(make_dispatcher(model))
        ready = threading.Event()
        bound = {}

        def on_ready(host, port):
            bound["base"] = f"http://{host}:{port}"
            ready.set()

        thread = threading.Thread(
            target=serve_http,
            args=(app, "127.0.0.1", 0),
            kwargs={"max_requests": 2, "ready_callback": on_ready},
            daemon=True,
        )
        thread.start()
        assert ready.wait(10)
        with urllib.request.urlopen(f"{bound['base']}/healthz") as response:
            assert response.status == 200
        request = urllib.request.Request(
            f"{bound['base']}/v1/predict_proba",
            data=post_body(x[:3]),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            payload = json.loads(response.read())
        thread.join(10)
        assert not thread.is_alive()
        result = protocol.decode_array(payload["result"])
        assert result.tobytes() == direct.tobytes()


def _wait_for(predicate, timeout: float = 10.0) -> None:
    """Poll ``predicate`` until it holds; fail the test after ``timeout``."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.002)


def _hold_first_call(session, until) -> threading.Event:
    """Make ``session``'s first ``predict_proba`` wait until ``until()``.

    The returned event is set once that call is waiting.  The leader of
    the first group holds there while other requests join the pending
    list, so the next leader takes them as one group.
    """
    real = session.predict_proba
    entered = threading.Event()

    def predict_proba(x):
        if not entered.is_set():
            entered.set()
            _wait_for(until)
        return real(x)

    session.predict_proba = predict_proba
    return entered


def _serve_behind_plug(app, session, calls, joining):
    """Serve ``calls`` -- ``{label: (body, headers)}`` -- one thread each.

    A plug request leads first and holds its session call until
    ``joining`` of the calls wait in the pending list, so the next
    leader takes them as one group.  Returns ``(threads, results)``;
    ``results[label]`` is ``(status, headers, body)``, or the exception
    raised, once that thread ends.
    """
    results = {}

    def call(label, body, headers):
        try:
            results[label] = app.handle_request(
                "POST", "/v1/predict_proba", body, headers
            )
        except Exception as exc:  # recorded for the test to inspect
            results[label] = exc

    entered = _hold_first_call(session, lambda: len(app._pending) == joining)
    x_plug = np.zeros((1, session.n_features))
    plug = threading.Thread(
        target=call, args=("plug", post_body(x_plug), None), daemon=True
    )
    plug.start()
    assert entered.wait(10)
    threads = [plug] + [
        threading.Thread(target=call, args=(label, *args), daemon=True, name=label)
        for label, args in calls.items()
    ]
    for thread in threads[1:]:
        thread.start()
    return threads, results


def _join(threads) -> None:
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive(), f"{thread.name} is still waiting"


class TestRequestFusion:
    """``handle_request`` from many threads: one group per leader."""

    def test_group_isolates_errors_and_answers_sheds_before_the_drain(
        self, problem, model
    ):
        x, _ = problem
        session = make_session(model)
        admission = AdmissionController(
            default_policy=TenantPolicy(rate_per_s=1e6, burst=64, max_queue=64),
            policies={"blocked": TenantPolicy(rate_per_s=0.0, burst=0)},
        )
        # One lane fusing two requests: the group needs a drain.
        dispatcher = Dispatcher(session, n_workers=1, max_batch=2, admission=admission)
        app = ServerApp(dispatcher, arrival_mode="wall")
        release, drainers = threading.Event(), []
        real_drain = dispatcher.drain

        def drain():
            drainers.append(threading.current_thread().name)
            assert release.wait(10)
            return real_drain()

        dispatcher.drain = drain
        rows = {f"ok{i}": x[i : i + 1 + i % 2] for i in range(4)}
        calls = {label: (post_body(r), None) for label, r in rows.items()}
        calls["wide"] = (post_body(np.zeros((1, 3))), None)
        calls["blocked0"] = (post_body(x[:1]), {"X-Tenant": "blocked"})
        calls["blocked1"] = (post_body(x[:1]), {"X-Tenant": "blocked"})
        calls["malformed"] = (b"not json", None)
        threads, results = _serve_behind_plug(app, session, calls, joining=7)

        # The leader holds the drain; sheds and refusals have answered.
        _wait_for(lambda: drainers)
        early = {"wide", "blocked0", "blocked1", "malformed"} - set(drainers)
        _wait_for(lambda: early <= set(results))
        assert not release.is_set()
        release.set()
        _join(threads)

        assert drainers == [drainers[0]]  # one drain for the whole group
        assert results["malformed"][0] == 400
        assert results["wide"][0] == 422
        for label in ("blocked0", "blocked1"):
            status, headers, _ = results[label]
            assert status == 429 and "Retry-After" in headers
        for label, r in rows.items():
            status, _, body = results[label]
            assert status == 200
            result = protocol.decode_array(json.loads(body)["result"])
            assert result.tobytes() == make_session(model).predict_proba(r).tobytes()
        stats = app.stats_snapshot()
        assert stats["offered"] == 7 and stats["admitted"] == 5
        assert stats["dispatches"] == 3  # the plug, then two batches of two

    def test_leader_failure_releases_every_follower(self, problem, model):
        x, _ = problem
        session = make_session(model)
        real = session.predict_proba
        calls_made = []

        def predict_proba(rows):
            calls_made.append(len(rows))
            if len(calls_made) == 2:  # the group's call
                raise RuntimeError("replica crashed")
            return real(rows)

        session.predict_proba = predict_proba
        app = ServerApp(Dispatcher(session, max_batch=8), arrival_mode="wall")
        calls = {f"r{i}": (post_body(x[i : i + 1]), None) for i in range(4)}
        threads, results = _serve_behind_plug(app, session, calls, joining=4)
        _join(threads)
        assert results["plug"][0] == 200
        for label in calls:
            assert isinstance(results[label], RuntimeError)
        # Leadership was handed back: the next request is served.
        status, _, _ = app.handle_request(
            "POST", "/v1/predict_proba", post_body(x[:2])
        )
        assert status == 200

    def test_concurrent_socket_requests_fuse_bitwise(self, problem, model):
        x, _ = problem
        n = 8
        session = make_session(model)
        dispatcher = Dispatcher(session, max_batch=16)
        app = ServerApp(dispatcher, arrival_mode="wall")
        # The first group is on a lane; every other request must wait.
        _hold_first_call(
            session,
            lambda: len(app._pending) + dispatcher.stats.n_offered == n,
        )
        ready, served = threading.Event(), {}

        def on_ready(host, port):
            served["base"] = f"http://{host}:{port}"
            ready.set()

        server = threading.Thread(
            target=lambda: served.setdefault(
                "n", serve_http(app, "127.0.0.1", 0, max_requests=n + 1,
                                ready_callback=on_ready)
            ),
            daemon=True,
        )
        server.start()
        assert ready.wait(10)
        rows = [x[i : i + 1 + i % 4] for i in range(n)]
        barrier = threading.Barrier(n)
        bodies = {}

        def client(i):
            barrier.wait(10)
            request = urllib.request.Request(
                f"{served['base']}/v1/predict_proba",
                data=post_body(rows[i]),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                bodies[i] = response.read()

        clients = [
            threading.Thread(target=client, args=(i,), daemon=True)
            for i in range(n)
        ]
        for thread in clients:
            thread.start()
        _join(clients)
        with urllib.request.urlopen(f"{served['base']}/v1/stats") as response:
            stats = json.loads(response.read())
        _join([server])

        direct = make_session(model)
        for i, r in enumerate(rows):
            result = protocol.decode_array(json.loads(bodies[i])["result"])
            assert result.tobytes() == direct.predict_proba(r).tobytes()
        # The first group, then every other request fused into one call.
        assert stats["dispatches"] == 2 < n
        assert stats["offered"] == stats["admitted"] == n
        assert stats["n_http_requests"] == served["n"] == n + 1


class _CountingConnection:
    """A socket stand-in: serves ``raw`` as the request stream and records
    every ``sendall`` (one per write to the handler's ``wfile``)."""

    def __init__(self, raw: bytes) -> None:
        self._raw = raw
        self.writes: list[bytes] = []

    def makefile(self, mode: str, *args, **kwargs) -> io.BytesIO:
        assert "r" in mode
        return io.BytesIO(self._raw)

    def sendall(self, data) -> None:
        self.writes.append(bytes(data))


def _drive_handler(app, raw: bytes) -> list[bytes]:
    """Run the socket handler over ``raw``; returns its socket writes."""
    server = _http_server(app, ("127.0.0.1", 0))
    try:
        connection = _CountingConnection(raw)
        server.RequestHandlerClass(connection, ("127.0.0.1", 1), server)
    finally:
        server.server_close()
    return connection.writes


def _split_response(write: bytes) -> tuple[int, dict[str, str], bytes]:
    head, _, body = write.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    assert int(headers["Content-Length"]) == len(body)
    return int(status_line.split()[1]), headers, body


def _post(path: str, body: bytes, length: object = None) -> bytes:
    length = len(body) if length is None else length
    return (
        f"POST {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode("latin-1") + body


class TestSocketHandler:
    def test_one_write_per_response(self, problem, model):
        x, _ = problem
        direct = make_session(model).predict_proba(x[:2])
        raw = (
            _post("/v1/predict_proba", post_body(x[:2]))
            + b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
            + _post("/v1/predict_proba", b"not json")
            + _post("/v1/nowhere", b"")
        )
        writes = _drive_handler(ServerApp(make_dispatcher(model)), raw)
        # Keep-alive: four requests on one connection, four writes.
        statuses = [_split_response(write)[0] for write in writes]
        assert statuses == [200, 200, 400, 404]
        _, headers, body = _split_response(writes[0])
        assert headers["Content-Type"] == "application/json"
        result = protocol.decode_array(json.loads(body)["result"])
        assert result.tobytes() == direct.tobytes()

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_json_400(self, model, length):
        raw = _post("/v1/predict_proba", b"{}", length) + _post(
            "/v1/predict_proba", b"{}"
        )
        app = ServerApp(make_dispatcher(model))
        writes = _drive_handler(app, raw)
        # One reply, then the connection closes: the unframed body is
        # never parsed as a second request.
        assert len(writes) == 1
        status, headers, body = _split_response(writes[0])
        assert status == 400
        assert headers["Connection"] == "close"
        error = json.loads(body)["error"]
        assert error["reason"] == "bad_request"
        assert error["status"] == 400
        assert app.n_http_requests == 0


class _UnreadableInput:
    """A ``wsgi.input`` that fails the test if the app reads it."""

    def read(self, *args) -> bytes:
        raise AssertionError("the request body must not be read")


def _wsgi_call(app, method, path, body=b"", length=None, stream=None):
    """Run ``app.wsgi`` once; returns ``(status line, headers, body)``."""
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "CONTENT_LENGTH": str(len(body)) if length is None else length,
        "wsgi.input": io.BytesIO(body) if stream is None else stream,
    }
    started = {}

    def start_response(status, headers):
        started["status"] = status
        started["headers"] = dict(headers)

    payload = b"".join(app.wsgi(environ, start_response))
    return started["status"], started["headers"], payload


class TestWSGI:
    def test_predict_body_equals_handle_request(self, problem, model):
        x, _ = problem
        request = post_body(x[:4])
        _, _, direct = ServerApp(make_dispatcher(model)).handle_request(
            "POST", "/v1/predict_proba", request
        )
        status, headers, body = _wsgi_call(
            ServerApp(make_dispatcher(model)), "POST", "/v1/predict_proba", request
        )
        assert status == "200 OK"
        assert headers["Content-Type"] == "application/json"
        assert body == direct

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_json_400(self, model, length):
        app = ServerApp(make_dispatcher(model))
        status, headers, body = _wsgi_call(
            app, "POST", "/v1/predict_proba", length=length,
            stream=_UnreadableInput(),
        )
        assert status == "400 Bad Request"
        assert headers["Content-Type"] == "application/json"
        error = json.loads(body)["error"]
        assert error["reason"] == "bad_request"
        assert error["status"] == 400
        assert app.n_http_requests == 0

    def test_unknown_path_is_404(self, model):
        status, _, body = _wsgi_call(
            ServerApp(make_dispatcher(model)), "POST", "/v1/nowhere", b"{}"
        )
        assert status == "404 Not Found"
        assert json.loads(body)["error"]["status"] == 404
