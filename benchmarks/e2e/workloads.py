"""The four workloads of the end-to-end benchmark.

Each run of a workload, in its own process:

1. draws its inputs from ``--seed``: the registry dataset's generator
   (shape, C, gamma and style parameters from ``repro.data.registry``,
   population seeded by the registry seed) fixes the task, and the
   benchmark seed draws which rows train and test;
2. sets up ``SETUP_REPEATS`` times -- everything before the first timed
   operation, including one discarded warm-up operation -- and reports
   the median as ``setup_s``;
3. runs its timed phase for ``--seconds`` through the public surface
   only (``GMPSVC.fit`` / ``predict_proba`` / ``save``, ``load_model``,
   ``InferenceSession``, the wire codec and ``repro-serve`` on a socket),
   timing in-process operations between machine-speed probes
   (``benchmarks/e2e/probe.py``);
4. checks every output independently (``benchmarks/e2e/checks.py``).

With ``--trace 1`` the same run wraps each layer's public functions
(``benchmarks/e2e/trace.py``), traces every other operation, and reports
per-layer metrics (``benchmarks/e2e/layers.py``) instead.

Run one workload directly with::

    python -m benchmarks.e2e.workloads --workload predict_dense --seconds 20

which prints one JSON line; ``benchmarks/e2e/run.py`` is the user-facing
command that runs workloads in fresh subprocesses and prints metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from repro import GMPSVC, InferenceSession, load_model
from repro.data import synthetic
from repro.data.registry import DATASETS
from repro.server.protocol import decode_array, encode_matrix

from benchmarks.e2e import checks, layers, loadgen
from benchmarks.e2e.probe import SpeedProbe
from benchmarks.e2e.stats import tail_percentile
from benchmarks.e2e.trace import CLIENT_TARGETS, Span, Tracer, write_chrome_trace

ROOT = Path(__file__).resolve().parents[2]
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

SETUP_REPEATS = 5
# The population holds this many times the rows one draw takes, so two
# seeds share about two thirds of their rows and the task stays the same.
POOL_FACTOR = 1.5
# Train workloads spend this share of the timed phase fitting (each draw
# at least once), the rest predicting with the first draw's model.
FIT_SHARE = 0.75
# Share of the first draw's rows a train workload's warm-up fit uses.
WARMUP_SHARE = 0.25
# Enough calls for a p75 with ten samples beyond it.
MIN_PREDICT_CALLS = 40
# http_serve: an open-loop phase at a fixed rate for this share of the
# timed phase, then a closed loop that saturates the server.
OPEN_LOOP_SHARE = 0.75
HTTP_RATE_PER_S = 15.0
HTTP_CONNECTIONS = 2
SATURATION_CONNECTIONS = 4
SATURATION_MAX_REQUESTS = 20_000
# Distinct row blocks both phases cycle through; each is checked against
# InferenceSession once, and every response against its block's result.
ROW_BLOCKS = 64
# At the default seed the accuracy may not drop below the recorded value
# by more than this (a solver change may move a few borderline rows).
ACCURACY_TOL = 0.02

E2E_METRICS = (
    ("setup_s", "s"),
    ("fit_wall_s", "s"),
    ("fit_sim_s", "sim_s"),
    ("predict_rows_per_s", "rows/s"),
    ("predict_sim_s", "sim_s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Simulated-clock metrics: a deterministic function of the inputs, so
# they repeat exactly at one seed.
SIMULATED_METRICS = ("fit_sim_s", "predict_sim_s")


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the operation the benchmark times on it.

    Why each exists is in ``BENCHMARK.json`` and ``README.md``.
    """

    name: str
    dataset: str  # registry spec: shape, C, gamma, style, default seed
    n_train: int
    n_test: int
    draws: int  # distinct row draws per run; train workloads fit them in turn
    primary: str  # "fit", "predict" or "request"
    tail_p: float  # percentile reported as latency_tail_ms


WORKLOADS = {
    w.name: w
    for w in (
        # 190 pairs of ~50 rows: solver rounds and the wave driver dominate.
        Workload("train_many_pairs", "news20", 500, 167, 6, "fit", 75.0),
        # 3 pairs of ~1000 rows: kernel-row products dominate.
        Workload("train_large_pairs", "connect-4", 1500, 500, 4, "fit", 75.0),
        # 2000-row calls on the dense BLAS decision path; no training timed.
        Workload("predict_dense", "mnist8m", 6000, 2000, 1, "predict", 90.0),
        # The same model behind repro-serve: codec, admission, dispatch, socket.
        Workload("http_serve", "mnist8m", 6000, 2000, 1, "request", 95.0),
    )
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Sample:
    """One draw of train and test rows."""

    x_train: object
    y_train: np.ndarray
    x_test: object
    y_test: np.ndarray


def _take(data: object, rows: np.ndarray) -> object:
    return data.take_rows(rows) if hasattr(data, "take_rows") else data[rows]


def make_samples(workload: Workload, seed: int, scale: float = 1.0) -> list[Sample]:
    """The run's inputs: ``workload.draws`` draws from the population."""
    spec = DATASETS[workload.dataset]
    n_train = max(2 * spec.n_classes, int(workload.n_train * scale))
    n_test = max(spec.n_classes, int(workload.n_test * scale))
    generator = {
        "binary01": synthetic.binary01_features,
        "tfidf": synthetic.tfidf_like,
        "image": synthetic.image_like,
    }[spec.style]
    x, y = generator(
        int((n_train + n_test) * POOL_FACTOR),
        spec.dimension,
        spec.n_classes,
        seed=spec.seed,
        **dict(spec.style_params),
    )
    samples = []
    for index in range(workload.draws):
        order = np.random.default_rng([seed, index]).permutation(y.size)
        train, test = order[:n_train], order[n_train : n_train + n_test]
        samples.append(Sample(_take(x, train), y[train], _take(x, test), y[test]))
    return samples


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class Run:
    """Everything one workload run measures, before it becomes metrics.

    In-process times are normalised by the speed probe (see probe.py).
    """

    workload: Workload
    seed: int
    seconds: float
    tracer: Optional[Tracer]
    work_dir: Path
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    factors: list = field(default_factory=list)  # one per normalised time
    setup_s: list = field(default_factory=list)
    fit_s: list = field(default_factory=list)
    fit_sim_s: list = field(default_factory=list)
    latency_ms: list = field(default_factory=list)  # one per predict operation
    predict_sim_s: list = field(default_factory=list)
    rows_per_op: int = 0  # in-process predict calls: rows per call
    rows_per_s: Optional[float] = None  # http_serve: closed-loop capacity
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    # Traced runs only: primary-op times with tracing on and off, the
    # reports of traced operations and the server side of requests.
    op_traced: list = field(default_factory=list)
    op_untraced: list = field(default_factory=list)
    trace: layers.TraceInputs = field(default_factory=layers.TraceInputs)

    @contextmanager
    def tracing(self, on: bool):
        """Record spans inside the block only when tracing and ``on``."""
        if self.tracer is None:
            yield False
            return
        self.tracer.active = on
        try:
            yield on
        finally:
            self.tracer.active = False

    def timed(self, operation):
        """Run ``operation()``; returns its result and normalised seconds."""
        start = time.perf_counter()
        result = operation()
        elapsed = time.perf_counter() - start
        self.factors.append(self.probe.factor(elapsed))
        return result, elapsed * self.factors[-1]

    def op_time(self, seconds: float, traced: bool) -> None:
        if self.tracer is not None:
            (self.op_traced if traced else self.op_untraced).append(seconds)

    def note_rss(self) -> None:
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _estimator(spec) -> GMPSVC:
    return GMPSVC(C=spec.penalty, gamma=spec.gamma)


def _kkt_ok(run: Run, estimator: GMPSVC, sample: Sample) -> bool:
    spec = DATASETS[run.workload.dataset]
    gaps = checks.kkt_gaps(
        estimator.model_,
        checks.to_dense(sample.x_train),
        sample.y_train,
        spec.gamma,
        spec.penalty,
    )
    worst = max(gaps)
    run.detail["kkt_gap_max"] = max(run.detail.get("kkt_gap_max", 0.0), worst)
    return worst <= estimator.epsilon * (1.0 + checks.KKT_RELATIVE_SLACK)


def _accuracy(estimator: GMPSVC, probabilities: np.ndarray, labels) -> float:
    predicted = estimator.classes_[np.argmax(probabilities, axis=1)]
    return float(np.mean(predicted == np.asarray(labels)))


def _predict_loop(
    run: Run, estimator: GMPSVC, sample: Sample, deadline: float
) -> np.ndarray:
    """Time ``predict_proba`` on the test rows until ``deadline``."""
    k = estimator.classes_.size
    n_test = sample.y_test.size
    calls = 0
    while calls < MIN_PREDICT_CALLS or time.perf_counter() < deadline:
        with run.tracing(calls % 2 == 0) as traced:
            probabilities, seconds = run.timed(
                lambda: estimator.predict_proba(sample.x_test)
            )
        report = estimator.prediction_report_
        run.op_time(seconds, traced)
        if traced:
            run.trace.predict_reports.append(layers.report_summary(report))
        if checks.probabilities_ok(probabilities, n_test, k):
            run.latency_ms.append(seconds * 1e3)
        else:
            run.failed += 1
            run.checks["probabilities"] = False
            run.latency_ms.append(float("inf"))
        run.predict_sim_s.append(report.simulated_seconds)
        calls += 1
    run.attempted += calls
    run.rows_per_op = n_test
    run.checks.setdefault("probabilities", True)
    return probabilities


def run_train(run: Run, samples: list[Sample]) -> None:
    """Time ``fit`` on one draw after another, then ``predict_proba``.

    Every draw is fitted at least once, so ``fit_sim_s`` always covers the
    same draws however fast the machine runs.
    """
    spec = DATASETS[run.workload.dataset]
    first = samples[0]
    n_warm = max(2 * spec.n_classes, int(first.y_train.size * WARMUP_SHARE))
    warm_x = _take(first.x_train, np.arange(n_warm))
    warm_test = _take(first.x_test, np.arange(min(n_warm, first.y_test.size)))
    for _ in range(SETUP_REPEATS):
        _, seconds = run.timed(
            lambda: _estimator(spec).fit(warm_x, first.y_train[:n_warm]).predict_proba(
                warm_test
            )
        )
        run.setup_s.append(seconds)

    begin = time.perf_counter()
    fit_deadline = begin + FIT_SHARE * run.seconds
    fitted: dict[int, GMPSVC] = {}
    sim_of: dict[int, float] = {}
    timed: list[tuple[int, float]] = []
    while len(timed) < len(samples) or time.perf_counter() < fit_deadline:
        index = len(timed) % len(samples)
        sample = samples[index]
        with run.tracing(len(timed) % 2 == 0) as traced:
            estimator, seconds = run.timed(
                lambda: _estimator(spec).fit(sample.x_train, sample.y_train)
            )
        run.op_time(seconds, traced)
        if traced:
            run.trace.fit_reports.append(estimator.training_report_)
        timed.append((index, seconds))
        sim_of[index] = estimator.training_report_.simulated_seconds
        fitted[index] = estimator
    run.attempted += len(timed)
    run.fit_sim_s = [sim_of[i] for i in sorted(sim_of)]

    probabilities = _predict_loop(run, fitted[0], first, begin + run.seconds)
    run.note_rss()
    run.detail["fits"] = len(timed)
    run.detail["accuracy"] = _accuracy(fitted[0], probabilities, first.y_test)
    run.trace.models.append(fitted[0].model_)
    kkt_ok = {i: _kkt_ok(run, est, samples[i]) for i, est in fitted.items()}
    run.checks["kkt"] = all(kkt_ok.values())
    run.fit_s = [t if kkt_ok[i] else float("inf") for i, t in timed]
    run.failed += sum(1 for i, _ in timed if not kkt_ok[i])


def _fit_in_setup(run: Run, spec, sample: Sample) -> tuple[GMPSVC, float]:
    """The model a predict workload serves, fitted (and traced) in set-up.

    Returns the estimator and the fit's normalised seconds.
    """
    with run.tracing(True) as traced:
        estimator, seconds = run.timed(
            lambda: _estimator(spec).fit(sample.x_train, sample.y_train)
        )
    if traced:
        run.trace.fit_reports.append(estimator.training_report_)
    run.fit_sim_s.append(estimator.training_report_.simulated_seconds)
    run.fit_s.append(seconds)
    return estimator, seconds


def run_predict(run: Run, samples: list[Sample]) -> None:
    """Fit in set-up; time 2000-row ``predict_proba`` calls."""
    spec = DATASETS[run.workload.dataset]
    sample = samples[0]
    for _ in range(SETUP_REPEATS):
        estimator, fit_s = _fit_in_setup(run, spec, sample)
        # One warm-up predict_proba call, discarded.
        _, seconds = run.timed(lambda: estimator.predict_proba(sample.x_test))
        run.setup_s.append(fit_s + seconds)

    begin = time.perf_counter()
    probabilities = _predict_loop(run, estimator, sample, begin + run.seconds)
    run.note_rss()
    run.detail["accuracy"] = _accuracy(estimator, probabilities, sample.y_test)
    run.trace.models.append(estimator.model_)
    run.checks["kkt"] = _kkt_ok(run, estimator, sample)
    if not run.checks["kkt"]:
        run.failed = run.attempted


# ----------------------------------------------------------------------
# The HTTP workload
# ----------------------------------------------------------------------
def child_env() -> dict:
    """Environment for the benchmark's subprocesses: imports from this checkout."""
    env = dict(os.environ)
    env.setdefault("PYTHONHASHSEED", "0")
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


@dataclass
class Server:
    process: subprocess.Popen
    port: int
    spans_path: Optional[Path]


def start_server(model_path: Path, spans_path: Optional[Path]) -> Server:
    """Start ``repro-serve`` through the launcher and wait until it listens."""
    command = [sys.executable, "-m", "benchmarks.e2e.serve"]
    if spans_path is not None:
        command += ["--spans", str(spans_path)]
    command += [
        "--", str(model_path), "--port", "0", "--arrival-mode", "wall",
        "--workers", "2", "--max-batch", "16",
        # A generous tenant policy: nothing is shed by rate or queue bounds.
        "--rate-per-s", "1e9", "--burst", "1000000",
        "--max-queue", "4096", "--max-queue-global", "4096",
    ]
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    # A server that never gets ready is killed, which ends the read below.
    watchdog = threading.Timer(60.0, process.kill)
    watchdog.start()
    try:
        for line in process.stdout:
            if "listening on http://" in line:
                port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
                return Server(process, port, spans_path)
    finally:
        watchdog.cancel()
    stop_server(Server(process, 0, None))
    raise RuntimeError("repro-serve did not start listening")


def stop_server(server: Server) -> dict:
    """SIGINT the server, wait for it, and return its exit report."""
    process = server.process
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
    try:
        out, _ = process.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        out, _ = process.communicate()
    report = {}
    for line in reversed((out or "").splitlines()):
        if line.startswith("{"):
            report = json.loads(line)
            break
    if server.spans_path is not None and server.spans_path.exists():
        report.update(json.loads(server.spans_path.read_text()))
    return report


def _post(port: int, body: bytes) -> bytes:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{loadgen.PREDICT_PATH}",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.read()


def _get_json(port: int, path: str) -> dict:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=30) as response:
        return json.loads(response.read())


def _request_body(rows: object) -> bytes:
    return json.dumps({"instances": encode_matrix(rows)}).encode("utf-8")


def run_http(run: Run, samples: list[Sample]) -> None:
    """Serve the fitted model over HTTP: open loop at a fixed rate, then saturated."""
    spec = DATASETS[run.workload.dataset]
    sample = samples[0]
    n_test = sample.y_test.size
    model_path = run.work_dir / "model.repro"
    spans_path = run.work_dir / "server-spans.json" if run.tracer else None
    servers: list[Server] = []
    try:
        for repeat in range(SETUP_REPEATS):
            last = repeat == SETUP_REPEATS - 1
            estimator, fit_s = _fit_in_setup(run, spec, sample)

            def serve() -> None:
                with run.tracing(True):
                    start = time.perf_counter()
                    estimator.save(model_path)
                    run.trace.save_s.append(time.perf_counter() - start)
                servers.append(start_server(model_path, spans_path if last else None))
                # One warm-up request, discarded.
                _post(servers[-1].port, _request_body(_take(sample.x_test, np.arange(1))))

            _, seconds = run.timed(serve)
            run.setup_s.append(fit_s + seconds)
            if not last:
                stop_server(servers.pop())

        rng = np.random.default_rng([run.seed, run.workload.draws])
        blocks = loadgen.row_blocks(rng, ROW_BLOCKS, n_test)
        bodies = [_request_body(_take(sample.x_test, rows)) for rows in blocks]
        # The open loop sends one row per request.  With 1-4 rows in equal
        # shares its median falls on the boundary between 2- and 3-row
        # requests, so one block more or less of either size moved
        # predict_sim_s by 6% between seeds, and the latency quantiles
        # with it.
        singles = [rows[:1] for rows in blocks]
        single_bodies = [_request_body(_take(sample.x_test, rows)) for rows in singles]
        open_s = OPEN_LOOP_SHARE * run.seconds
        due = loadgen.poisson_schedule(rng, HTTP_RATE_PER_S, open_s)
        requests = [
            loadgen.Request(
                index, float(t), singles[index % ROW_BLOCKS],
                single_bodies[index % ROW_BLOCKS],
                traced=run.tracer is not None and index % 2 == 0,
            )
            for index, t in enumerate(due)
        ]
        saturation = [
            loadgen.Request(len(requests) + i, 0.0, blocks[i % ROW_BLOCKS],
                            bodies[i % ROW_BLOCKS])
            for i in range(SATURATION_MAX_REQUESTS)
        ]
        run.detail["schedule_sha256"] = checks.digest(due, np.concatenate(blocks))
        port = servers[0].port
        outcomes = loadgen.run_load(
            "127.0.0.1", port, requests, connections=HTTP_CONNECTIONS
        )
        saturated = loadgen.run_load(
            "127.0.0.1", port, saturation, connections=SATURATION_CONNECTIONS,
            stop_after_s=run.seconds - open_s,
        )
        stats = _get_json(port, "/v1/stats")
        server_report = stop_server(servers.pop())
    finally:
        for server in servers:
            stop_server(server)
    run.peak_rss_mb = server_report.get("peak_rss_kb", 0) / 1024.0
    sent = [(r, o) for r, o in zip(saturation, saturated) if o is not None]
    _check_http(run, estimator, sample, model_path, requests, outcomes, sent)
    run.trace.server_spans = [Span.from_list(s) for s in server_report.get("spans", [])]
    run.trace.server_missing = server_report.get("missing", [])
    run.trace.server_stats = stats
    run.trace.models.append(estimator.model_)
    run.checks["kkt"] = _kkt_ok(run, estimator, sample)
    if not run.checks["kkt"]:
        run.failed = run.attempted


def _check_http(
    run: Run, estimator: GMPSVC, sample: Sample, model_path: Path,
    requests: list, outcomes: list, saturated: list,
) -> None:
    """Every 200 must equal ``InferenceSession.predict_proba`` bit for bit.

    Open-loop ``requests`` give the latencies; the closed loop's
    ``saturated`` (request, outcome) pairs give the rows per second served.
    HTTP times are reported as measured, not normalised: they cross two
    processes, a socket and TCP timers, and normalising them by probes
    around each phase widened every HTTP spread (README.md).
    """
    session = InferenceSession(load_model(model_path))
    before = layers.session_snapshot(session)
    k = estimator.classes_.size
    expected: dict[bytes, np.ndarray] = {}
    bitwise = True

    def served(request, outcome) -> Optional[dict]:
        """The decoded payload of a correct response, else None."""
        nonlocal bitwise
        if outcome is None or outcome.error is not None or outcome.status != 200:
            return None
        payload = json.loads(outcome.body)
        got = decode_array(payload["result"])
        if request.body not in expected:
            expected[request.body] = session.predict_proba(_take(sample.x_test, request.rows))
        want = expected[request.body]
        same = (
            got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes()
        )
        bitwise = bitwise and same
        ok = same and checks.probabilities_ok(got, request.rows.size, k)
        return payload if ok else None

    for request, outcome in zip(requests, outcomes):
        payload = served(request, outcome)
        if payload is None:
            run.failed += 1
            run.latency_ms.append(float("inf"))
            continue
        run.predict_sim_s.append(payload["timing"]["compute_s"])
        run.latency_ms.append(outcome.latency_s * 1e3)
        run.op_time(outcome.latency_s, request.traced)
        if request.traced:
            run.trace.round_trips[str(request.index)] = outcome.round_trip_s
        run.trace.lateness_s.append(outcome.sent - outcome.due)

    rows = 0
    for request, outcome in saturated:
        if served(request, outcome) is None:
            run.failed += 1
        else:
            rows += request.rows.size
    if saturated:
        window = max(o.done for _, o in saturated) - min(o.sent for _, o in saturated)
        run.rows_per_s = rows / window
    else:
        run.rows_per_s = 0.0
    run.attempted += len(requests) + len(saturated)
    run.checks["bitwise"] = bitwise
    run.trace.session_summary = layers.session_summary(session, before)
    run.detail["requests"] = {"open_loop": len(requests), "saturated": len(saturated)}
    # The estimator's batch path: the session takes ~35x longer on 2000 rows.
    run.detail["accuracy"] = _accuracy(
        estimator, estimator.predict_proba(sample.x_test), sample.y_test
    )


RUNNERS = {"fit": run_train, "predict": run_predict, "request": run_http}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _finite_or_worst(values: list[float], worst: float) -> list[float]:
    """A failed op misses every latency limit: it counts as ``worst``."""
    finite = [v for v in values if np.isfinite(v)]
    ceiling = max(finite + [worst])
    return [v if np.isfinite(v) else ceiling for v in values]


def e2e_metrics(run: Run) -> dict[str, float]:
    latency = _finite_or_worst(run.latency_ms, run.seconds * 1e3)
    fits = _finite_or_worst(run.fit_s, run.seconds)
    p50 = statistics.median(latency)
    rows_per_s = run.rows_per_s
    if rows_per_s is None:  # in-process calls: rows over the median call time
        rows_per_s = run.rows_per_op / (p50 / 1e3)
    return {
        "setup_s": statistics.median(run.setup_s),
        "fit_wall_s": statistics.median(fits),
        "fit_sim_s": statistics.median(run.fit_sim_s),
        "predict_rows_per_s": rows_per_s,
        "predict_sim_s": statistics.median(run.predict_sim_s or [0.0]),
        "latency_p50_ms": p50,
        "latency_tail_ms": float(np.percentile(latency, run.workload.tail_p)),
        "peak_rss_mb": run.peak_rss_mb,
    }


def _expected() -> dict:
    if EXPECTED_PATH.exists():
        return json.loads(EXPECTED_PATH.read_text())
    return {}


def run_workload(
    name: str,
    seed: Optional[int],
    seconds: float,
    trace: bool,
    out_dir: Path,
    *,
    scale: float = 1.0,
) -> dict:
    """Run one workload in this process; returns the JSON-ready result.

    A traced run writes its Chrome trace into ``out_dir``.  ``scale``
    shrinks the row counts (the self-test uses it); every other caller
    runs the full-size inputs.
    """
    workload = WORKLOADS[name]
    spec = DATASETS[workload.dataset]
    seed = spec.seed if seed is None else int(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(CLIENT_TARGETS)
        tracer.active = False

    samples = make_samples(workload, seed, scale)
    input_sha256 = checks.digest(
        *[item for s in samples for item in (s.x_train, s.y_train, s.x_test, s.y_test)]
    )
    with tempfile.TemporaryDirectory(dir=out_dir) as work_dir:
        run = Run(workload, seed, float(seconds), tracer, Path(work_dir))
        RUNNERS[workload.primary](run, samples)
    if tracer is not None:
        tracer.uninstall()

    expected = _expected().get(name, {}) if seed == spec.seed and scale == 1.0 else {}
    if "input_sha256" in expected:
        run.checks["input_digest"] = expected["input_sha256"] == input_sha256
    if "accuracy" in expected:
        run.checks["accuracy"] = (
            run.detail.get("accuracy", 0.0) >= expected["accuracy"] - ACCURACY_TOL
        )
    n_ops = len(run.latency_ms)
    run.detail.update(
        tail=f"p{run.workload.tail_p:g} of {n_ops} predict ops",
        tail_supported=(tail_percentile(n_ops) or 0.0) >= run.workload.tail_p,
        setup_repeats=len(run.setup_s),
        # Median probe factor: below 1, the machine ran slower than the reference.
        machine_speed=statistics.median(run.factors),
    )

    if trace:
        run.trace.client_spans = list(tracer.spans)
        run.trace.client_missing = list(tracer.missing)
        run.trace.setup_s = run.setup_s
        run.trace.kkt_gap_max = run.detail["kkt_gap_max"]
        if run.op_traced and run.op_untraced:
            run.trace.overhead_ratio = statistics.median(run.op_traced) / statistics.median(
                run.op_untraced
            )
        metrics, missing = layers.per_layer_metrics(run.trace)
        trace_path = out_dir / f"{name}-seed{seed}.trace.json"
        write_chrome_trace(
            str(trace_path),
            {"benchmark": run.trace.client_spans, "repro-serve": run.trace.server_spans},
        )
        try:
            run.detail["chrome_trace"] = str(trace_path.relative_to(ROOT))
        except ValueError:
            run.detail["chrome_trace"] = str(trace_path)
    else:
        metrics, missing = e2e_metrics(run), []

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "input_sha256": input_sha256,
        "correct": all(run.checks.values()),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "missing": missing,
        "checks": run.checks,
        "detail": run.detail,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one e2e workload in this process.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for trace files")
    args = parser.parse_args(argv)
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), Path(args.out)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
