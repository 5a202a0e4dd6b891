"""The HTTP/REST front-end: routing, headers, and a stdlib socket server.

:class:`ServerApp` maps the wire protocol onto the dispatcher as a pure
handler — ``handle_request(method, path, body, headers)`` returns
``(status, headers, body)`` with no socket in sight — so the exact same
code path serves three transports:

- the in-process load generator and the test suite (deterministic:
  arrival times ride the ``X-Arrival-S`` header on the simulated clock);
- WSGI, via :meth:`ServerApp.wsgi`;
- a real TCP socket, via :func:`serve_http` (stdlib
  ``ThreadingHTTPServer``, one thread per connection).

``handle_request`` is safe to call from many threads at once, and it
fuses the predict requests that wait together (leader/follower on one
condition variable).  Each thread decodes its body outside the lock and
joins a pending list; the first thread that finds no active leader
leads: it takes every pending request, offers them to the dispatcher
(:meth:`Dispatcher.submit_group`), drains it, and wakes the others, who
encode their own responses.  In ``wall`` mode a group arrives at one
instant, so a free lane fuses it into one session call; in ``virtual``
mode each request keeps its own ``X-Arrival-S`` instant and the group
is served one request at a time, in order.  A lone request leads at
once, so an idle server adds no wait.

Routes::

    GET  /healthz                  liveness (no admission, no compute)
    GET  /v1/stats                 dispatcher + per-tenant counters
    POST /v1/predict_proba         probabilities  (m, n_classes)
    POST /v1/predict               labels         (m,)
    POST /v1/decision_function     decision values (m, n_svms)

Tenancy and priority travel in headers (``X-Tenant``, body ``priority``);
shed responses are explicit 429/503 with a ``Retry-After`` header and a
machine-readable body, never a hung connection — overload degrades into
fast, honest refusals.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from http import HTTPStatus
from typing import Callable, Optional

from repro.exceptions import RegistryError, ReproError, ValidationError
from repro.server import protocol
from repro.server.dispatcher import Dispatcher, ServerRequest
from repro.server.protocol import ProtocolError
from repro.serving.session import InferenceSession

__all__ = ["ServerApp", "serve_http"]

_POST_ROUTES = {
    "/v1/predict_proba": "predict_proba",
    "/v1/predict": "predict",
    "/v1/decision_function": "decision_function",
}

ARRIVAL_MODES = ("virtual", "wall")


@dataclass(eq=False)
class _Job:
    """One decoded predict request waiting for its group's leader."""

    member: dict  # the Dispatcher.submit keywords but the arrival
    arrival_s: Optional[float]  # virtual mode only; None = "now"
    request: Optional[ServerRequest] = None
    error: Optional[BaseException] = None
    finished: bool = False


class ServerApp:
    """HTTP routing over one :class:`Dispatcher`.

    Parameters
    ----------
    dispatcher:
        The admission-controlled worker pool to serve through.
    arrival_mode:
        ``"virtual"`` (default): a request arrives at the simulated time
        in its ``X-Arrival-S`` header, or at the dispatcher's current
        virtual now — fully deterministic, the mode tests and the load
        generator use.  ``"wall"``: wall-clock gaps between requests are
        replayed onto the simulated axis (what a long-running socket
        server wants, so token buckets refill in real time).
    watcher:
        Optional :class:`~repro.registry.RegistryWatcher`.  When set,
        every request first polls the registry; a newer published
        version is sealed into a fresh session and hot-swapped into the
        dispatcher (drain-then-flip, zero failed requests) before the
        request is served.  A corrupt registry logs a swap error and the
        server keeps serving the current model.
    """

    def __init__(
        self,
        dispatcher: Dispatcher,
        *,
        arrival_mode: str = "virtual",
        watcher: object = None,
    ) -> None:
        if not isinstance(dispatcher, Dispatcher):
            raise ValidationError(
                f"ServerApp requires a Dispatcher, got {type(dispatcher).__name__}"
            )
        if arrival_mode not in ARRIVAL_MODES:
            raise ValidationError(
                f"arrival_mode must be one of {ARRIVAL_MODES}, got {arrival_mode!r}"
            )
        self.dispatcher = dispatcher
        self.arrival_mode = arrival_mode
        self.watcher = watcher
        self._wall_origin: Optional[float] = None
        self._wall_offset_s = 0.0
        self.n_http_requests = 0
        self.n_swaps = 0
        self.n_swap_errors = 0
        # The one lock: the dispatcher, the watcher and these counters are
        # touched only by the leader, or under the lock with no leader.
        self._cond = threading.Condition(threading.Lock())
        self._pending: list[_Job] = []
        self._leading = False

    # ------------------------------------------------------------------
    # Core handler
    # ------------------------------------------------------------------
    def handle_request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Optional[dict[str, str]] = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """Serve one request; returns ``(status, headers, body)``.

        Safe to call from many threads: predict requests that wait
        together are served as one group (module docstring).
        """
        headers = {k.lower(): v for k, v in (headers or {}).items()}
        with self._cond:
            self.n_http_requests += 1
        kind = _POST_ROUTES.get(path) if method == "POST" else None
        try:
            if kind is not None:
                job = self._decode(kind, body, headers)
                return self._respond(self._serve(job))
            with self._idle():
                self._maybe_swap()
                if method == "GET":
                    return self._handle_get(path)
            if method == "POST":
                return self._error(404, "not_found", detail=path)
            return self._error(405, "method_not_allowed", detail=method)
        except ProtocolError as exc:
            return self._error(400, "bad_request", detail=str(exc))
        except ReproError as exc:
            return self._error(422, "unprocessable", detail=str(exc))

    @contextmanager
    def _idle(self):
        """Hold the lock while no leader is serving a group."""
        with self._cond:
            while self._leading:
                self._cond.wait()
            yield

    def _serve(self, job: _Job) -> ServerRequest:
        """Join the pending list; lead a group or wait for its leader."""
        with self._cond:
            self._pending.append(job)
            while not job.finished:
                if self._leading:
                    self._cond.wait()
                else:
                    self._lead()
        if job.error is not None:
            raise job.error
        return job.request

    def _lead(self) -> None:
        """Serve every pending job as one group; holds the lock on entry
        and on return, not while it works."""
        jobs, self._pending = self._pending, []
        self._leading = True
        self._cond.release()
        try:
            self._maybe_swap()
            if self.arrival_mode == "wall":
                self._serve_group(jobs, self._wall_arrival())
            else:
                for job in jobs:  # each keeps its own instant, in order
                    self._serve_group([job], job.arrival_s)
        except BaseException as exc:
            # No follower may wait forever: each unserved job fails.
            for job in jobs:
                if job.error is None and not (
                    job.request is not None and job.request.done
                ):
                    job.error = exc
        finally:
            self._cond.acquire()
            for job in jobs:
                job.finished = True
            self._leading = False
            self._cond.notify_all()

    def _serve_group(self, jobs: list[_Job], arrival_s: Optional[float]) -> None:
        """Offer ``jobs`` at one instant, release the settled, drain the rest."""
        handles = self.dispatcher.submit_group(
            [job.member for job in jobs], arrival_s=arrival_s
        )
        with self._cond:
            for job, handle in zip(jobs, handles):
                if isinstance(handle, ServerRequest):
                    job.request = handle
                else:
                    job.error = handle
                # Sheds, refusals and requests a free lane took answer
                # now, not after the group's drain.
                job.finished = job.error is not None or job.request.done
            self._cond.notify_all()
        if not all(job.finished for job in jobs):
            # Synchronous HTTP semantics: the connections block until the
            # simulation completes these requests.
            self.dispatcher.drain()

    def _maybe_swap(self) -> None:
        """Poll the registry watcher; hot-swap a newer published model.

        Swap failures never take the server down: the current model
        keeps serving and the error is counted in ``n_swap_errors``.
        """
        if self.watcher is None:
            return
        try:
            update = self.watcher.poll()
        except RegistryError:
            self.n_swap_errors += 1
            return
        if update is None:
            return
        model, entry = update
        try:
            session = InferenceSession(model, self.dispatcher.backend.config)
            self.dispatcher.swap_model(session, label=f"v{entry.version}")
        except ReproError:
            self.n_swap_errors += 1
            return
        self.n_swaps += 1

    def _handle_get(self, path: str) -> tuple[int, dict[str, str], bytes]:
        if path == "/healthz":
            body = json.dumps({"status": "ok"}).encode("utf-8")
            return 200, {"Content-Type": "application/json"}, body
        if path == "/v1/stats":
            body = json.dumps(self.stats_snapshot(), sort_keys=True).encode(
                "utf-8"
            )
            return 200, {"Content-Type": "application/json"}, body
        return self._error(404, "not_found", detail=path)

    def _decode(self, kind: str, body: bytes, headers: dict[str, str]) -> _Job:
        """Parse a predict request; touches no shared state."""
        fields = protocol.decode_request(body)
        arrival_s = None
        if self.arrival_mode == "virtual":
            raw = headers.get("x-arrival-s")
            if raw is not None:
                try:
                    arrival_s = float(raw)
                except ValueError:
                    raise ProtocolError(f"X-Arrival-S is not a number: {raw!r}")
        member = {
            "X": fields["instances"],
            "kind": kind,
            "tenant": headers.get("x-tenant", "default"),
            "priority": fields["priority"],
        }
        return _Job(member, arrival_s)

    def _respond(self, request: ServerRequest) -> tuple[int, dict[str, str], bytes]:
        if request.shed:
            return self._shed_response(request)
        response = protocol.response_body(
            request_id=request.request_id,
            kind=request.kind,
            result=request.result,
            tenant=request.tenant,
            queue_s=request.queue_s,
            compute_s=request.compute_s,
            latency_s=request.latency_s,
            batch_id=request.batch_id,
            batch_requests=request.batch_requests,
        )
        return 200, {"Content-Type": "application/json"}, response

    def _wall_arrival(self) -> float:
        """Wall-clock gaps replayed onto the simulated axis."""
        now = time.perf_counter()
        if self._wall_origin is None:
            self._wall_origin = now
            self._wall_offset_s = self.dispatcher.now_s
        return self._wall_offset_s + (now - self._wall_origin)

    def _shed_response(
        self, request: ServerRequest
    ) -> tuple[int, dict[str, str], bytes]:
        decision = request.decision
        headers = {"Content-Type": "application/json"}
        if decision.retry_after_s is not None:
            # RFC 9110 §10.2.3: Retry-After is integer delta-seconds.
            # Ceil so clients never retry before a token is available; the
            # exact float stays in the JSON body as retry_after_s.
            headers["Retry-After"] = str(
                max(1, math.ceil(decision.retry_after_s))
            )
        body = protocol.error_body(
            decision.status,
            decision.reason,
            tenant=request.tenant,
            retry_after_s=decision.retry_after_s,
        )
        return decision.status, headers, body

    def _error(
        self, status: int, reason: str, *, detail: str = ""
    ) -> tuple[int, dict[str, str], bytes]:
        return (
            status,
            {"Content-Type": "application/json"},
            protocol.error_body(status, reason, detail=detail),
        )

    def _bad_length(self) -> tuple[int, dict[str, str], bytes]:
        """The 400 for a request whose ``Content-Length`` is unusable."""
        return self._error(400, "bad_request", detail="invalid Content-Length")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Dispatcher totals + per-tenant counters, JSON-safe."""
        stats = self.dispatcher.stats
        return {
            "n_http_requests": self.n_http_requests,
            "n_swaps": self.n_swaps,
            "n_swap_errors": self.n_swap_errors,
            "n_workers": self.dispatcher.n_workers,
            "n_queued": self.dispatcher.n_queued,
            "virtual_now_s": self.dispatcher.now_s,
            "offered": stats.n_offered,
            "admitted": stats.n_admitted,
            "shed": stats.n_shed,
            "shed_rate": stats.shed_rate,
            "dispatches": stats.n_dispatches,
            "mean_batch_size": stats.mean_batch_size,
            "accepted_throughput_rps": stats.accepted_throughput_rps,
            "latency_p50_s": stats.latency_percentile(50.0),
            "latency_p99_s": stats.latency_percentile(99.0),
            "tenants": self.dispatcher.admission.counters_snapshot(),
        }

    # ------------------------------------------------------------------
    # WSGI
    # ------------------------------------------------------------------
    def wsgi(self, environ: dict, start_response: Callable):
        """A minimal WSGI callable over :meth:`handle_request`."""
        length = _content_length(environ.get("CONTENT_LENGTH"))
        if length is None:
            status, response_headers, payload = self._bad_length()
        else:
            body = environ["wsgi.input"].read(length) if length else b""
            headers = {
                key[5:].replace("_", "-"): value
                for key, value in environ.items()
                if key.startswith("HTTP_")
            }
            status, response_headers, payload = self.handle_request(
                environ.get("REQUEST_METHOD", "GET"),
                environ.get("PATH_INFO", "/"),
                body,
                headers,
            )
        start_response(
            f"{status} {HTTPStatus(status).phrase}",
            sorted(response_headers.items()),
        )
        return [payload]


def _content_length(value: Optional[str]) -> Optional[int]:
    """A request body's length from its ``Content-Length`` header.

    Absent or empty reads as 0.  A non-numeric or negative value gives
    ``None``: the body's extent is unknown, so the caller answers 400
    rather than guess (a negative WSGI read would block until EOF).
    """
    try:
        length = int(value or 0)
    except ValueError:
        return None
    return length if length >= 0 else None


def serve_http(
    app: ServerApp,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    max_requests: Optional[int] = None,
    ready_callback: Optional[Callable[[str, int], None]] = None,
    log: Optional[Callable[[str], None]] = None,
) -> int:
    """Run ``app`` on a real TCP socket (stdlib ``ThreadingHTTPServer``).

    Each connection has its own thread, and concurrent requests meet in
    :meth:`ServerApp.handle_request`, which fuses the predict requests
    that wait together.  ``max_requests`` stops the server after that
    many requests (smoke tests, CI); ``ready_callback(host, port)``
    fires once the socket is bound.  Returns the number of requests
    served.
    """
    server = _http_server(app, (host, port), max_requests=max_requests, log=log)
    try:
        if ready_callback is not None:
            ready_callback(*server.server_address[:2])
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.server_close()
    return next(server.served) - 1


def _http_server(
    app: ServerApp,
    address: tuple[str, int],
    *,
    max_requests: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
):
    """Bind the socket server behind :func:`serve_http` (``http.server`` is
    imported here, not with the module: it costs ~3 MB of resident memory)."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class _Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _dispatch(self) -> None:
            length = _content_length(self.headers.get("Content-Length"))
            if length is None:
                # The body's extent is unknown: refuse, then close.
                self.close_connection = True
                status, headers, payload = app._bad_length()
                headers["Connection"] = "close"
            else:
                body = self.rfile.read(length) if length else b""
                status, headers, payload = app.handle_request(
                    self.command, self.path, body, dict(self.headers.items())
                )
            # next() on a count is atomic under the GIL: no lock needed.
            stop = next(server.served) == max_requests
            self._reply(status, headers, payload)
            if stop:
                threading.Thread(target=server.shutdown, daemon=True).start()

        def _reply(self, status: int, headers: dict, payload: bytes) -> None:
            """Send the whole response in one write: a separate body write
            waits out the client's delayed ACK of the head (Nagle)."""
            self.log_request(status)
            lines = [
                f"{self.protocol_version} {status} {HTTPStatus(status).phrase}",
                f"Server: {self.version_string()}",
                f"Date: {self.date_time_string()}",
                *(f"{key}: {value}" for key, value in headers.items()),
                f"Content-Length: {len(payload)}",
            ]
            head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
            self.wfile.write(head + payload)

        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            self._dispatch()

        def do_POST(self) -> None:  # noqa: N802 - stdlib naming
            self._dispatch()

        def log_message(self, fmt: str, *args: object) -> None:
            if log is not None:
                log(fmt % args)

    server = ThreadingHTTPServer(address, _Handler)
    server.served = itertools.count(1)
    return server
