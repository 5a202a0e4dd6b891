"""HTTP load over real sockets, on the wall clock.

Open loop: arrivals follow a seeded Poisson schedule fixed before the
run, so a slow server cannot slow the offered load.  A small pool of
threads, each holding one persistent HTTP/1.1 connection, takes the next
due request as soon as it is free; when every connection is busy a
request waits, and because latency is timed from the request's *due*
time that wait counts against the server, not the generator.
``sent - due`` is reported separately as the generator's lateness.

Closed loop: the same pool with every request due at once, so each
connection sends its next request as soon as the previous one returns,
until a stop time -- the server's capacity at that many callers.
"""

from __future__ import annotations

import http.client
import math
import threading
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["Request", "Outcome", "poisson_schedule", "row_blocks", "run_load"]

PREDICT_PATH = "/v1/predict_proba"
# Every request carries 1 to MAX_ROWS rows.
MAX_ROWS = 4


@dataclass(frozen=True)
class Request:
    """One scheduled POST: due ``due_s`` after the start, for ``rows``."""

    index: int
    due_s: float
    rows: np.ndarray
    body: bytes
    traced: bool = False


@dataclass
class Outcome:
    """What happened to one request (times are ``perf_counter`` seconds)."""

    due: float
    sent: float
    done: float
    status: int = 0
    body: bytes = b""
    error: Optional[str] = None

    @property
    def latency_s(self) -> float:
        """From the due time to the last response byte."""
        return self.done - self.due

    @property
    def round_trip_s(self) -> float:
        """From the first request byte to the last response byte."""
        return self.done - self.sent


def row_blocks(rng: np.random.Generator, n: int, n_rows: int) -> list[np.ndarray]:
    """``n`` blocks of 1 to :data:`MAX_ROWS` random rows out of ``n_rows``.

    The sizes are stratified: every aligned run of :data:`MAX_ROWS` blocks
    holds each size once, in an order the seed shuffles, so any such
    prefix -- whatever the seed -- sends the same number of rows.
    """
    groups = -(-n // MAX_ROWS)
    sizes = np.concatenate([rng.permutation(MAX_ROWS) + 1 for _ in range(groups)])[:n]
    return [rng.integers(0, n_rows, size=int(size)) for size in sizes]


def poisson_schedule(
    rng: np.random.Generator, rate_per_s: float, duration_s: float
) -> np.ndarray:
    """Seeded Poisson arrival times over ``duration_s``.

    The inter-arrival gaps are the exponential distribution's quantiles at
    ``(i + 0.5) / n`` -- a stratified sample -- in an order the seed
    shuffles.  Every seed thus offers the same number of requests and the
    same mix of short and long gaps, only in another order, which keeps the
    share of back-to-back requests (and so of TCP delayed-ACK stalls) from
    varying between seeds.
    """
    n = max(1, round(rate_per_s * duration_s))
    gaps = -np.log1p(-(np.arange(n) + 0.5) / n)
    gaps *= duration_s / gaps.sum()
    return np.cumsum(rng.permutation(gaps)) - gaps.min() / 2


def run_load(
    host: str,
    port: int,
    requests: list[Request],
    *,
    connections: int,
    stop_after_s: Optional[float] = None,
) -> list[Optional[Outcome]]:
    """Send every request at its due time; returns outcomes in request order.

    With ``stop_after_s`` no request is sent later than that many seconds
    after the start; the requests never sent have no outcome (``None``).
    """
    outcomes: list[Optional[Outcome]] = [None] * len(requests)
    cursor = {"next": 0}
    lock = threading.Lock()
    start = time.perf_counter() + 0.05
    stop = math.inf if stop_after_s is None else start + stop_after_s

    def client() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            while True:
                with lock:
                    index = cursor["next"]
                    cursor["next"] += 1
                if index >= len(requests) or time.perf_counter() >= stop:
                    return
                request = requests[index]
                due = start + request.due_s
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                headers = {
                    "Content-Type": "application/json",
                    "X-Bench-Request-Id": str(request.index),
                    "X-Bench-Trace": "1" if request.traced else "0",
                }
                try:
                    conn.request("POST", PREDICT_PATH, request.body, headers)
                    response = conn.getresponse()
                    body = response.read()
                    outcomes[index] = Outcome(
                        due, sent, time.perf_counter(), response.status, body
                    )
                except (OSError, http.client.HTTPException) as exc:
                    outcomes[index] = Outcome(
                        due, sent, time.perf_counter(), error=repr(exc)
                    )
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=30)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes
