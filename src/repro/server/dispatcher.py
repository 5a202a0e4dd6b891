"""Worker-pool dispatch over sealed sessions, on the simulated clock.

The dispatcher is a discrete-event model of an async serving loop: a
fixed pool of *worker lanes* (concurrency slots), a priority wait queue
fed by :mod:`repro.server.admission`, and adaptive micro-batching — an
idle worker takes one request and dispatches immediately (batch of 1,
lowest latency); under contention the queue grows and a freed worker
fuses up to ``max_batch`` compatible requests into one session call, so
batches widen exactly when amortization pays.  This mirrors the
training-side wave driver's philosophy: concurrency is *executed* on a
virtual timeline, not assumed.  It is the package's only request
queue: ``repro-serve``, ``repro-serve-bench`` and the serving benchmark
all go through it.

Events are processed in arrival order: ``submit(arrival_s)`` first
advances the pool to ``arrival_s`` (freeing workers, draining the queue
into them), then runs admission, then either dispatches, queues, evicts a
lower-priority victim, or sheds.  ``submit_group`` offers requests that
arrive at one instant: it submits each in turn and holds dispatch until
the last is admitted, so a free worker fuses the group.  Because every
step is a deterministic function of the simulated clock, identical
request streams produce identical shed decisions, batch shapes and
latency percentiles — run to run, machine to machine.

Compute cost of a fused dispatch is the engine-clock delta of the
underlying :class:`~repro.serving.InferenceSession` call, so results —
and their bitwise parity with direct session calls — come from exactly
the code path DESIGN.md §11 gates.

The backend is one sealed :class:`~repro.serving.InferenceSession`
shared by ``n_workers`` lanes.  A lane is a replica:
:meth:`Dispatcher.fail_lane` / :meth:`Dispatcher.restore_lane` /
:meth:`Dispatcher.lane_health` are the package's only replica-health
API, and a restored lane may take a replacement session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.predictor import labels_from_probabilities
from repro.core.validation import check_predict_inputs
from repro.exceptions import ReproError, ValidationError
from repro.serving.session import InferenceSession
from repro.server.admission import AdmissionController, AdmissionDecision
from repro.sparse import CSRMatrix
from repro.sparse import ops as mops
from repro.telemetry.tracer import Tracer, maybe_span

__all__ = ["Dispatcher", "DispatcherStats", "ServerRequest", "SwapReport"]

REQUEST_KINDS = ("predict_proba", "predict", "decision_function")


def compute_group(backend: InferenceSession, kind: str) -> str:
    """Which fused computation a request needs (requests fuse per group)."""
    if kind == "decision_function":
        return "decision"
    if kind == "predict" and not backend.model.probability:
        return "vote"
    return "proba"  # predict_proba, and predict via argmax-probability


def fuse_matrices(matrices: list) -> mops.MatrixLike:
    """Vertically stack request matrices (dense or CSR) into one dispatch."""
    if len(matrices) == 1:
        return matrices[0]
    if isinstance(matrices[0], CSRMatrix):
        return CSRMatrix.vstack(matrices)
    return np.vstack(matrices)


@dataclass
class ServerRequest:
    """One offered request: admission verdict, then (if admitted) result."""

    request_id: int
    tenant: str
    priority: int
    kind: str
    data: object = field(repr=False)
    n_rows: int = 0
    arrival_s: float = 0.0
    decision: AdmissionDecision = field(
        default_factory=lambda: AdmissionDecision(admitted=True)
    )
    done: bool = False
    shed: bool = False
    worker: Optional[int] = None
    batch_id: Optional[int] = None
    batch_requests: int = 0
    dispatch_s: float = 0.0
    completion_s: float = 0.0
    queue_s: float = 0.0
    compute_s: float = 0.0
    latency_s: float = 0.0
    _result: object = field(default=None, repr=False)

    @property
    def status(self) -> int:
        """HTTP status of the verdict (200, 429 or 503)."""
        return self.decision.status

    @property
    def result(self) -> np.ndarray:
        """The request's rows; raises if shed or not yet dispatched."""
        if self.shed:
            raise ValidationError(
                f"request #{self.request_id} was shed "
                f"({self.decision.status} {self.decision.reason}); it has no result"
            )
        if not self.done:
            raise ValidationError(
                f"request #{self.request_id} has not been dispatched yet; "
                "advance or drain the dispatcher first"
            )
        return self._result


@dataclass
class DispatcherStats:
    """Aggregate totals across all dispatches."""

    n_offered: int = 0
    n_admitted: int = 0
    n_shed: int = 0
    n_failed: int = 0  # admitted requests lost to a dead replica (503)
    n_dispatches: int = 0
    n_rows: int = 0
    first_arrival_s: Optional[float] = None
    last_completion_s: float = 0.0
    busy_s_per_worker: list = field(default_factory=list)
    accepted_latencies_s: list = field(default_factory=list)

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests shed (any reason)."""
        return self.n_shed / self.n_offered if self.n_offered else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Mean admitted requests per fused dispatch."""
        return (
            self.n_admitted / self.n_dispatches if self.n_dispatches else 0.0
        )

    @property
    def makespan_s(self) -> float:
        """First arrival to last completion, simulated seconds."""
        if self.first_arrival_s is None:
            return 0.0
        return max(0.0, self.last_completion_s - self.first_arrival_s)

    @property
    def accepted_throughput_rps(self) -> float:
        """Completed accepted requests per simulated second of makespan."""
        span = self.makespan_s
        return len(self.accepted_latencies_s) / span if span > 0 else 0.0

    def latency_percentile(self, q: float) -> float:
        """Accepted-request simulated latency percentile (q in [0, 100])."""
        if not self.accepted_latencies_s:
            return 0.0
        return float(np.percentile(np.asarray(self.accepted_latencies_s), q))


@dataclass(frozen=True)
class SwapReport:
    """What one :meth:`Dispatcher.swap_model` did, on the virtual clock."""

    label: Optional[str]  # caller's tag, e.g. the registry version
    requested_s: float  # virtual time the swap was requested
    completed_s: float  # virtual time the route pointer flipped
    window_s: float  # completed - requested: the drain window
    drained_requests: int  # queued requests completed on the old model


class _Lane:
    """One worker lane: a concurrency slot bound to a sealed session."""

    __slots__ = ("index", "free_at_s", "target", "failed_at_s", "detected")

    def __init__(self, index: int, target: InferenceSession) -> None:
        self.index = index
        self.free_at_s = 0.0
        self.target = target
        # Fail-stop state: failed_at_s is the simulated instant the
        # lane's replica died; detected flips on the first dispatch that
        # observes the failure, after which routing excludes the lane.
        self.failed_at_s: Optional[float] = None
        self.detected = False

    def call(self, group: str, fused: object) -> np.ndarray:
        if group == "proba":
            return self.target.predict_proba(fused)
        if group == "decision":
            return self.target.decision_function(fused)
        return self.target.predict(fused)  # "vote": non-probabilistic labels


class Dispatcher:
    """Admission-controlled worker-pool serving over a sealed session.

    Parameters
    ----------
    backend:
        The sealed :class:`InferenceSession` every lane serves.
    n_workers:
        Concurrency lanes (replicas) over the session.
    max_batch:
        Most requests fused into one dispatch when the queue has built up.
    admission:
        The :class:`AdmissionController`; a permissive default otherwise.
    tracer:
        Telemetry sink; defaults to the backend's configured tracer.
    """

    def __init__(
        self,
        backend: InferenceSession,
        *,
        n_workers: int = 2,
        max_batch: int = 16,
        admission: Optional[AdmissionController] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not isinstance(backend, InferenceSession):
            raise ValidationError(
                "Dispatcher backend must be an InferenceSession, got "
                f"{type(backend).__name__}"
            )
        if n_workers < 1:
            raise ValidationError(f"n_workers must be >= 1, got {n_workers}")
        if max_batch < 1:
            raise ValidationError(f"max_batch must be >= 1, got {max_batch}")
        self._lanes = [_Lane(i, backend) for i in range(int(n_workers))]
        self.backend = backend
        self.max_batch = int(max_batch)
        self.admission = admission or AdmissionController()
        self._tracer = tracer if tracer is not None else backend.config.tracer
        self.stats = DispatcherStats(
            busy_s_per_worker=[0.0] * len(self._lanes)
        )
        self._queue: list[ServerRequest] = []
        self._next_id = 0
        self._next_batch_id = 0
        self._seq: dict[int, int] = {}  # request_id -> admission order
        self._next_seq = 0
        self.now_s = 0.0
        self._shutting_down = False
        # Group intake: no lane takes work while _holding; a member's
        # submit sets it from _hold_after_admit before admission.
        self._holding = False
        self._hold_after_admit = False
        self.decision_log: list[tuple[int, int, str]] = []
        self.swaps: list[SwapReport] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        """Number of concurrency lanes."""
        return len(self._lanes)

    @property
    def n_queued(self) -> int:
        """Admitted requests waiting for a worker."""
        return len(self._queue)

    @property
    def n_features(self) -> int:
        """Feature count requests must match."""
        return self.backend.n_features

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def submit(
        self,
        X: object,
        *,
        kind: str = "predict_proba",
        tenant: str = "default",
        priority: int = 0,
        arrival_s: Optional[float] = None,
    ) -> ServerRequest:
        """Offer one request at ``arrival_s`` (default: current virtual now).

        Arrivals must be non-decreasing — the dispatcher is an
        event-ordered simulation.  The returned handle carries the
        admission verdict immediately; results materialize as the
        simulation advances (``advance_to`` / ``drain``).
        """
        if kind not in REQUEST_KINDS:
            raise ValidationError(
                f"kind must be one of {REQUEST_KINDS}, got {kind!r}"
            )
        data = check_predict_inputs(X, self.n_features)
        arrival = self.now_s if arrival_s is None else float(arrival_s)
        if arrival < self.now_s:
            raise ValidationError(
                f"arrival_s={arrival} precedes the dispatcher's virtual now "
                f"({self.now_s}); arrivals are processed in time order"
            )
        self.advance_to(arrival)
        request = ServerRequest(
            request_id=self._next_id,
            tenant=tenant,
            priority=int(priority),
            kind=kind,
            data=data,
            n_rows=mops.n_rows(data),
            arrival_s=arrival,
        )
        self._next_id += 1
        self.stats.n_offered += 1
        if self.stats.first_arrival_s is None:
            self.stats.first_arrival_s = arrival
        self._holding = self._hold_after_admit
        self._admit(request)
        return request

    def submit_group(
        self, members: list[dict], *, arrival_s: Optional[float] = None
    ) -> list:
        """Offer requests that arrive together at ``arrival_s``.

        Each member is the keyword arguments of one :meth:`submit` call
        (``X``, ``kind``, ``tenant``, ``priority``), offered in order.
        Dispatch is held from the first member's admission until the
        last member's, so a free lane fuses up to ``max_batch`` of them;
        a group of one is exactly :meth:`submit`.  Returns one entry per
        member: its :class:`ServerRequest`, or the :class:`ReproError`
        its submit raised (the other members are unaffected).
        """
        handles: list = []
        try:
            for position, member in enumerate(members, 1):
                self._hold_after_admit = position < len(members)
                try:
                    handles.append(self.submit(arrival_s=arrival_s, **member))
                except ReproError as exc:
                    handles.append(exc)
        finally:
            self._holding = self._hold_after_admit = False
        # Release what a refused or shed last member left held.
        self.advance_to(self.now_s)
        return handles

    def _admit(self, request: ServerRequest) -> None:
        admission = self.admission
        tenant = request.tenant
        if self._shutting_down:
            self._shed(request, admission.note_shutdown(tenant))
            return
        decision = admission.offer(tenant, request.arrival_s)
        if not decision.admitted:
            self._shed(request, decision)
            return
        if not admission.has_queue_room(tenant, request.arrival_s):
            victim = self._eviction_victim(request)
            if victim is None:
                admission.refund_token(tenant, request.arrival_s)
                self._shed(request, admission.note_overloaded(tenant))
                return
            self._queue.remove(victim)
            admission.note_dequeued(victim.tenant)
            self._shed(victim, admission.note_evicted(victim.tenant))
        admission.note_admitted(tenant)
        self.stats.n_admitted += 1
        request.decision = AdmissionDecision(admitted=True)
        self.decision_log.append((request.request_id, 200, "admitted"))
        self._seq[request.request_id] = self._next_seq
        self._next_seq += 1
        self._queue.append(request)
        admission.note_enqueued(tenant)
        self.advance_to(self.now_s)

    def _eviction_victim(
        self, incoming: ServerRequest
    ) -> Optional[ServerRequest]:
        """The queued request a higher-priority arrival may displace.

        Only strictly lower-priority requests are candidates; when the
        *tenant's* queue is the full dimension, only that tenant's
        requests free usable room.  Among candidates the lowest priority
        loses, youngest first — so the shed order never inverts
        priorities.
        """
        admission = self.admission
        # Which bound is full decides the candidate pool.
        policy = admission.policy_for(incoming.tenant)
        tenant_queued = sum(
            1 for r in self._queue if r.tenant == incoming.tenant
        )
        candidates = [
            r for r in self._queue if r.priority < incoming.priority
        ]
        if tenant_queued >= policy.max_queue:
            candidates = [
                r for r in candidates if r.tenant == incoming.tenant
            ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda r: (r.priority, -self._seq[r.request_id]),
        )

    def _shed(self, request: ServerRequest, decision: AdmissionDecision) -> None:
        request.decision = decision
        request.shed = True
        request.done = True
        self.stats.n_shed += 1
        self.decision_log.append(
            (request.request_id, decision.status, decision.reason)
        )
        if self._tracer is not None:
            self._tracer.event(
                "serve_shed",
                request_id=request.request_id,
                tenant=request.tenant,
                priority=request.priority,
                status=decision.status,
                reason=decision.reason,
                arrival_s=request.arrival_s,
            )

    # ------------------------------------------------------------------
    # Simulation advance
    # ------------------------------------------------------------------
    def advance_to(self, t_s: float) -> None:
        """Process every dispatch that starts at or before ``t_s``."""
        while self._queue and not self._holding:
            lanes = [w for w in self._lanes if not w.detected]
            if not lanes:
                break  # every lane confirmed dead; queue waits for restore
            lane = min(lanes, key=lambda w: (w.free_at_s, w.index))
            start = max(lane.free_at_s, self.now_s)
            if start > t_s:
                break
            self._dispatch(lane, start)
        self.now_s = max(self.now_s, t_s)

    def drain(self) -> float:
        """Dispatch everything queued; returns the final virtual time.

        Virtual time never moves backwards: the result is the later of
        the current instant and the last completion.
        """
        now_s = self.now_s
        self.advance_to(math.inf)
        self.now_s = max(now_s, self.stats.last_completion_s)
        return self.now_s

    def shutdown(self, *, drain: bool = True) -> None:
        """Stop admitting; complete (``drain=True``) or shed the backlog."""
        self._shutting_down = True
        if drain:
            self.drain()
            return
        for request in list(self._queue):
            self.admission.note_dequeued(request.tenant)
            self._shed(request, self.admission.note_shutdown(request.tenant))
        self._queue.clear()

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------
    def swap_model(
        self, backend: InferenceSession, *, label: Optional[str] = None
    ) -> SwapReport:
        """Atomically replace the serving model with a sealed ``backend``.

        Drain-then-flip: every request admitted before the swap (queued
        or in flight) completes on the **old** model, then the route
        pointer flips and every later arrival runs on the **new** one —
        no request ever observes a half-swapped model, and none is
        failed or shed by the swap itself.  The swap point is the
        current virtual time; because dispatch is a deterministic
        function of the clock, the post-swap stream is bitwise identical
        to a cold restart of the new model fed the same requests.

        The new session must serve the same feature count the admitted
        traffic was validated against.
        """
        if not isinstance(backend, InferenceSession):
            raise ValidationError(
                "swap_model requires a sealed InferenceSession, got "
                f"{type(backend).__name__}"
            )
        if backend.n_features != self.n_features:
            raise ValidationError(
                f"new model expects {backend.n_features} features, the "
                f"live route serves {self.n_features}"
            )
        requested_s = self.now_s
        drained = len(self._queue)
        # Complete the backlog on the old model; advances the virtual
        # clock to the last old-model completion.
        self.drain()
        completed_s = self.now_s
        for lane in self._lanes:
            lane.target = backend
        self.backend = backend
        report = SwapReport(
            label=label,
            requested_s=requested_s,
            completed_s=completed_s,
            window_s=completed_s - requested_s,
            drained_requests=drained,
        )
        self.swaps.append(report)
        if self._tracer is not None:
            self._tracer.event(
                "model_swap",
                label=label,
                requested_s=requested_s,
                completed_s=completed_s,
                window_s=report.window_s,
                drained_requests=drained,
            )
        return report

    # ------------------------------------------------------------------
    # Replica health (fault injection + degraded serving)
    # ------------------------------------------------------------------
    def fail_lane(self, index: int, *, at_s: Optional[float] = None) -> None:
        """Kill lane ``index``'s replica at simulated ``at_s`` (default now).

        Fail-stop: work dispatched to the lane strictly before ``at_s``
        completed on the live replica and stands; the first batch routed
        to it at or after ``at_s`` observes the failure — those requests
        get an explicit 503 (``replica_lost``), detection trips, and the
        dispatcher serves on through the surviving lanes (degraded
        capacity, longer queues, zero silent wrong answers).
        """
        lane = self._lane_at(index)
        t_s = self.now_s if at_s is None else float(at_s)
        if t_s < self.now_s:
            raise ValidationError(
                f"fail_lane at_s={t_s} precedes the dispatcher's virtual "
                f"now ({self.now_s})"
            )
        self.advance_to(t_s)
        if lane.failed_at_s is not None:
            raise ValidationError(f"lane {index} is already failed")
        lane.failed_at_s = t_s
        lane.detected = False
        if self._tracer is not None:
            self._tracer.event("lane_failed", lane=index, at_s=t_s)

    def restore_lane(
        self,
        index: int,
        session: Optional[InferenceSession] = None,
        *,
        at_s: Optional[float] = None,
    ) -> None:
        """Bring lane ``index`` back with a replacement replica.

        ``session`` replaces the lane's sealed session (it must serve
        the same feature width); omitted, the lane re-binds its previous
        backend — modelling a restarted replica of the same model.  The
        lane rejoins routing at ``at_s`` (default now) and later
        arrivals may land on it; nothing queued is dropped.
        """
        lane = self._lane_at(index)
        if lane.failed_at_s is None:
            raise ValidationError(f"lane {index} is not failed")
        t_s = self.now_s if at_s is None else float(at_s)
        if t_s < self.now_s:
            raise ValidationError(
                f"restore_lane at_s={t_s} precedes the dispatcher's "
                f"virtual now ({self.now_s})"
            )
        self.advance_to(t_s)
        if session is not None:
            if not isinstance(session, InferenceSession):
                raise ValidationError(
                    "restore_lane requires a sealed InferenceSession, got "
                    f"{type(session).__name__}"
                )
            if session.n_features != self.n_features:
                raise ValidationError(
                    f"replacement model expects {session.n_features} "
                    f"features, the live route serves {self.n_features}"
                )
            lane.target = session
        lane.failed_at_s = None
        lane.detected = False
        lane.free_at_s = max(lane.free_at_s, t_s)
        if self._tracer is not None:
            self._tracer.event("lane_restored", lane=index, at_s=t_s)
        # Freed capacity immediately drains whatever queued while the
        # pool ran degraded.
        self.advance_to(self.now_s)

    def lane_health(self) -> list[dict]:
        """Per-lane health snapshot: failed / detected / busy horizon."""
        return [
            {
                "lane": lane.index,
                "failed": lane.failed_at_s is not None,
                "failed_at_s": lane.failed_at_s,
                "detected": lane.detected,
                "free_at_s": lane.free_at_s,
            }
            for lane in self._lanes
        ]

    def _lane_at(self, index: int) -> _Lane:
        if not 0 <= index < len(self._lanes):
            raise ValidationError(
                f"lane {index} out of range for a "
                f"{len(self._lanes)}-lane dispatcher"
            )
        return self._lanes[index]

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _take_batch(self) -> list[ServerRequest]:
        """Head = highest-priority oldest request; extend with compatible."""
        order = sorted(
            self._queue,
            key=lambda r: (-r.priority, self._seq[r.request_id]),
        )
        head = order[0]
        group = (
            compute_group(self.backend, head.kind),
            isinstance(head.data, CSRMatrix),
        )
        batch = [head]
        for candidate in order[1:]:
            if len(batch) >= self.max_batch:
                break
            if (
                compute_group(self.backend, candidate.kind),
                isinstance(candidate.data, CSRMatrix),
            ) == group:
                batch.append(candidate)
        for request in batch:
            self._queue.remove(request)
            self.admission.note_dequeued(request.tenant)
        return batch

    def _dispatch(self, lane: _Lane, start_s: float) -> None:
        if lane.failed_at_s is not None and start_s >= lane.failed_at_s:
            # The dispatch is how the failure is observed: the batch it
            # was routed to fails with an explicit 503 (never a silent
            # wrong answer), the lane is marked detected, and routing
            # excludes it from here on — the 503 window is exactly the
            # requests routed to the dead replica before detection.
            batch = self._take_batch()
            lane.detected = True
            self.stats.n_failed += len(batch)
            decision = AdmissionDecision(
                admitted=False,
                status=503,
                reason="replica_lost",
                retry_after_s=0.0,
            )
            for request in batch:
                self._shed(request, decision)
            return
        batch = self._take_batch()
        group = compute_group(self.backend, batch[0].kind)
        fused = fuse_matrices([request.data for request in batch])
        n_rows = mops.n_rows(fused)
        batch_id = self._next_batch_id
        self._next_batch_id += 1

        clock_before = lane.target.simulated_seconds
        engine_clock = getattr(
            getattr(lane.target, "engine", None), "clock", None
        )
        with maybe_span(
            self._tracer,
            "serve_dispatch",
            clock=engine_clock,
            batch_id=batch_id,
            worker=lane.index,
            compute=group,
            n_requests=len(batch),
            n_rows=n_rows,
            start_s=start_s,
        ) as span:
            fused_rows = lane.call(group, fused)
            compute_s = lane.target.simulated_seconds - clock_before
            span.set(compute_s=compute_s)
        completion_s = start_s + compute_s
        lane.free_at_s = completion_s
        self.stats.busy_s_per_worker[lane.index] += compute_s
        self.stats.last_completion_s = max(
            self.stats.last_completion_s, completion_s
        )

        offset = 0
        for request in batch:
            rows = fused_rows[offset : offset + request.n_rows]
            if group == "proba" and request.kind == "predict":
                rows = labels_from_probabilities(self.backend.model, rows)
            request._result = rows
            request.done = True
            request.worker = lane.index
            request.batch_id = batch_id
            request.batch_requests = len(batch)
            request.dispatch_s = start_s
            request.completion_s = completion_s
            request.queue_s = start_s - request.arrival_s
            request.compute_s = compute_s
            request.latency_s = completion_s - request.arrival_s
            offset += request.n_rows
            self.admission.note_completed(request.tenant)
            self.stats.accepted_latencies_s.append(request.latency_s)
            if self._tracer is not None:
                self._tracer.event(
                    "serve_request",
                    clock=engine_clock,
                    request_id=request.request_id,
                    tenant=request.tenant,
                    kind=request.kind,
                    batch_id=batch_id,
                    worker=lane.index,
                    n_rows=request.n_rows,
                    queue_s=request.queue_s,
                    compute_s=request.compute_s,
                    latency_s=request.latency_s,
                )
        self.stats.n_dispatches += 1
        self.stats.n_rows += n_rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Dispatcher(workers={self.n_workers}, queued={self.n_queued}, "
            f"offered={self.stats.n_offered}, shed={self.stats.n_shed})"
        )
