"""Machine-readable benchmark results: ``BENCH_<name>.json`` emission.

Two consumers motivate this module:

- every ``bench_*`` module records its result tables through
  :func:`benchmarks.common.record_table`, which forwards the underlying
  numbers here so a ``BENCH_<name>.json`` lands next to the legacy
  ``.txt`` rendering;
- CI runs ``python benchmarks/emit_json.py smoke --emit-json PATH`` to
  produce a small deterministic measurement that
  ``benchmarks/check_regression.py`` diffs against the committed
  baseline in ``benchmarks/baselines/``.

Every file carries ``schema_version`` (see
:mod:`repro.telemetry.schema`), the benchmark name, and a flat
``metrics`` mapping of metric name to float — nested result tables are
flattened to ``"row/column"`` keys so the regression gate can compare
them one number at a time.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path
from typing import Mapping, Optional, Sequence

RESULTS_DIR = Path(__file__).parent / "results"
BASELINES_DIR = Path(__file__).parent / "baselines"


def _schema_version() -> str:
    from repro.telemetry.schema import BENCH_SCHEMA_VERSION

    return BENCH_SCHEMA_VERSION


def flatten_metrics(rows: Mapping[str, object]) -> dict[str, float]:
    """Flatten ``{row: {col: value}}`` (or flat) tables to ``row/col`` keys.

    Non-numeric leaves are skipped; numeric leaves are coerced to float.
    """
    flat: dict[str, float] = {}

    def visit(prefix: str, value: object) -> None:
        if isinstance(value, Mapping):
            for key, sub in value.items():
                visit(f"{prefix}/{key}" if prefix else str(key), sub)
        elif isinstance(value, bool):
            flat[prefix] = float(value)
        elif isinstance(value, (int, float)):
            flat[prefix] = float(value)

    visit("", rows)
    return flat


def write_bench_json(
    name: str,
    metrics: Mapping[str, object],
    *,
    path: Optional[object] = None,
) -> Path:
    """Write ``BENCH_<name>.json`` and return its path.

    ``metrics`` may be flat or nested (nested tables are flattened).
    Default location: ``benchmarks/results/BENCH_<name>.json``.
    """
    target = (
        Path(path) if path is not None else RESULTS_DIR / f"BENCH_{name}.json"
    )
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": _schema_version(),
        "kind": "bench",
        "name": name,
        "metrics": flatten_metrics(metrics),
    }
    target.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return target


def run_smoke() -> dict[str, float]:
    """A small deterministic GMP-SVM train+predict measurement.

    Fixed synthetic data and hyperparameters, so the resulting metrics
    are reproducible across runs and comparable across commits (within
    the regression gate's tolerances).
    """
    import numpy as np

    from repro import GMPSVC
    from repro.data import gaussian_blobs

    x, y = gaussian_blobs(n=240, n_features=6, n_classes=3, seed=7)
    x_train, y_train = x[:180], y[:180]
    x_test, y_test = x[180:], y[180:]
    clf = GMPSVC(C=10.0, gamma=0.3, working_set_size=32)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        clf.fit(x_train, y_train)
        predictions = clf.predict(x_test)
    train_report = clf.training_report_
    predict_report = clf.prediction_report_
    return {
        "train_simulated_seconds": train_report.simulated_seconds,
        "predict_simulated_seconds": predict_report.simulated_seconds,
        "buffer_hit_rate": train_report.buffer_hit_rate,
        "sharing_hit_rate": train_report.sharing_hit_rate,
        "total_iterations": float(train_report.total_iterations),
        "kernel_rows_computed": float(train_report.kernel_rows_computed),
        "n_binary_svms": float(train_report.n_binary_svms),
        "max_concurrency": float(train_report.max_concurrency),
        "test_accuracy": float(np.mean(predictions == y_test)),
    }


def run_coupling(m: int = 2000, k: int = 10, seed: int = 13) -> dict[str, float]:
    """Batched vs per-instance prediction-side probability math.

    Runs the full sigmoid + Wu-Lin-Weng coupling stage on one ``(m, k)``
    synthetic decision batch twice — the per-instance loop the code shipped
    with, and the vectorized ``couple_batch`` — and reports wall-clock,
    simulated time and the parity error between the two results.  The
    simulated metrics and the parity error are deterministic and gated by
    the CI baseline; the wall-clock speedup is machine-dependent and
    reported for the record (it exceeds 5x on anything modern).
    """
    import time

    import numpy as np

    from repro.gpusim import make_engine, scaled_tesla_p100
    from repro.probability import couple_batch, couple_probabilities

    rng = np.random.default_rng(seed)
    upper_s, upper_t = np.triu_indices(k, 1)
    r_batch = np.full((m, k, k), 0.5)
    values = rng.uniform(0.05, 0.95, size=(m, upper_s.size))
    r_batch[:, upper_s, upper_t] = values
    r_batch[:, upper_t, upper_s] = 1.0 - values

    loop_engine = make_engine(scaled_tesla_p100())
    start = time.perf_counter()
    loop_result = np.stack(
        [couple_probabilities(loop_engine, r_batch[i]) for i in range(m)]
    )
    loop_wall = time.perf_counter() - start

    batched_engine = make_engine(scaled_tesla_p100())
    start = time.perf_counter()
    batched_result = couple_batch(batched_engine, r_batch)
    batched_wall = time.perf_counter() - start

    return {
        "m": float(m),
        "k": float(k),
        "loop_wall_seconds": loop_wall,
        "batched_wall_seconds": batched_wall,
        "wall_speedup": loop_wall / batched_wall,
        "loop_simulated_seconds": loop_engine.clock.elapsed_s,
        "batched_simulated_seconds": batched_engine.clock.elapsed_s,
        "simulated_speedup": (
            loop_engine.clock.elapsed_s / batched_engine.clock.elapsed_s
        ),
        "max_abs_parity_error": float(
            np.max(np.abs(batched_result - loop_result), initial=0.0)
        ),
        "ridge_retries": float(
            batched_engine.counters.events.get("coupling_ridge_retries", 0)
        ),
    }


def run_train_interleave() -> dict[str, float]:
    """Interleaved wave driver vs the sequential pair loop, deterministic side.

    Trains the same k = 10 synthetic workload once per mode and reports
    the simulated timelines, the wave-trace-derived concurrency numbers
    and a bitwise model-parity flag.  Everything here is exactly
    reproducible, so the regression gate can pin it; the wall-clock
    speedup of the host code is measured by
    ``benchmarks/bench_train_interleave.py`` and deliberately kept out of
    this gated payload (it depends on machine load).
    """
    import numpy as np

    from repro.core.trainer import TrainerConfig, train_multiclass
    from repro.data import gaussian_blobs
    from repro.gpusim.device import scaled_tesla_p100
    from repro.kernels.functions import kernel_from_name

    x, y = gaussian_blobs(n=500, n_features=96, n_classes=10, seed=7)
    kernel = kernel_from_name("gaussian", gamma=1.0 / 96)

    def fit(concurrent: bool):
        config = TrainerConfig(
            device=scaled_tesla_p100(),
            solver="batched",
            concurrent=concurrent,
            share_kernel_values=True,
            probability=False,
            working_set_size=32,
            blocks_per_svm=2,
        )
        return train_multiclass(config, x, y, kernel, 10.0)

    model_seq, report_seq = fit(False)
    model_int, report_int = fit(True)
    parity = all(
        np.array_equal(a.coefficients, b.coefficients)
        and np.array_equal(a.global_sv_indices, b.global_sv_indices)
        and a.bias == b.bias
        for a, b in zip(model_seq.records, model_int.records)
    )
    trace = report_int.wave_trace or []
    return {
        "sequential_simulated_seconds": report_seq.simulated_seconds,
        "interleaved_simulated_seconds": report_int.simulated_seconds,
        "simulated_speedup": (
            report_seq.simulated_seconds / report_int.simulated_seconds
        ),
        "max_concurrency": float(report_int.max_concurrency),
        "concurrency_speedup": report_int.concurrency_speedup,
        "n_waves": float(len(trace)),
        "prefetch_segments": float(sum(w["prefetch_segments"] for w in trace)),
        "sharing_hit_rate": report_int.sharing_hit_rate,
        "total_iterations": float(report_int.total_iterations),
        "model_parity": float(parity),
    }


def run_serving(m: int = 2000, max_batch: int = 32) -> dict[str, float]:
    """Warm sealed-session serving vs the cold per-request path.

    Replays ``m`` single-instance probability requests two ways: cold —
    every request runs the full one-shot pipeline (fresh engine, pool
    norms, sigmoid stacking); warm — one sealed
    :class:`~repro.serving.InferenceSession` behind a one-lane
    :class:`~repro.server.Dispatcher`: the first request dispatches
    alone on the idle lane, and the rest, queued behind it, fuse up to
    ``max_batch`` per dispatch.  Both paths see the identical request stream
    and the results are held to *bitwise* parity.  The simulated
    timings, latency percentiles, batch shape and the parity flag are
    deterministic and gated by the CI baseline; wall-clock throughput is
    machine-dependent and asserted by ``benchmarks/bench_serving.py``.
    """
    import time

    import numpy as np

    from repro import GMPSVC, InferenceSession
    from repro.core.predictor import PredictorConfig, predict_proba_model
    from repro.data import gaussian_blobs
    from repro.gpusim import scaled_tesla_p100
    from repro.server import AdmissionController, Dispatcher, TenantPolicy

    x, y = gaussian_blobs(n=300, n_features=8, n_classes=3, seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        clf = GMPSVC(C=10.0, gamma=0.3, working_set_size=32).fit(x, y)
    model = clf.model_
    requests = [x[i % x.shape[0] : i % x.shape[0] + 1] for i in range(m)]

    # Cold: the full one-shot pipeline, once per request.
    cold_config = PredictorConfig(device=scaled_tesla_p100())
    cold_simulated = 0.0
    start = time.perf_counter()
    cold_rows = []
    for row in requests:
        probabilities, report = predict_proba_model(cold_config, model, row)
        cold_rows.append(probabilities)
        cold_simulated += report.simulated_seconds
    cold_wall = time.perf_counter() - start
    cold_result = np.vstack(cold_rows)

    # Warm: seal once, micro-batch everything.  The same-instant replay
    # gets an admission controller sized to it, so nothing sheds.
    session = InferenceSession(model, PredictorConfig(device=scaled_tesla_p100()))
    dispatcher = Dispatcher(
        session,
        n_workers=1,
        max_batch=max_batch,
        admission=AdmissionController(
            default_policy=TenantPolicy(burst=m, max_queue=m),
            max_queue_global=m,
        ),
    )
    start = time.perf_counter()
    handles = [dispatcher.submit(row) for row in requests]
    dispatcher.drain()
    warm_wall = time.perf_counter() - start
    warm_result = np.vstack([handle.result for handle in handles])
    warm_simulated = session.stats.serve_simulated_s

    stats = dispatcher.stats
    return {
        "m": float(m),
        "max_batch": float(max_batch),
        "cold_wall_seconds": cold_wall,
        "warm_wall_seconds": warm_wall,
        "wall_speedup": cold_wall / warm_wall,
        "cold_wall_requests_per_s": m / cold_wall,
        "warm_wall_requests_per_s": m / warm_wall,
        "cold_simulated_seconds": cold_simulated,
        "warm_simulated_seconds": warm_simulated,
        "simulated_speedup": cold_simulated / warm_simulated,
        "seal_simulated_seconds": session.stats.seal_simulated_s,
        "n_batches": float(stats.n_dispatches),
        "mean_batch_size": stats.mean_batch_size,
        "latency_p50_simulated_s": stats.latency_percentile(50.0),
        "latency_p99_simulated_s": stats.latency_percentile(99.0),
        "bitwise_parity": float(np.array_equal(warm_result, cold_result)),
    }


def run_distributed() -> dict[str, float]:
    """Sharded cluster training vs the single-device driver, deterministic side.

    Trains one k = 10 workload on simulated clusters of 1, 2 and 4
    devices and reports cluster makespans, speedups over the
    single-device driver, per-device utilization, interconnect volume
    and bitwise model-parity flags (every device count and placement
    must reproduce the single-device model exactly).  All metrics come
    off the simulated timeline, so the regression gate can pin them.
    """
    import numpy as np

    from repro import ClusterSpec, TrainerConfig, train_multiclass_sharded
    from repro.core.trainer import train_multiclass
    from repro.data import gaussian_blobs
    from repro.gpusim.device import scaled_tesla_p100
    from repro.kernels.functions import kernel_from_name

    x, y = gaussian_blobs(n=1000, n_features=16, n_classes=10, seed=11)
    kernel = kernel_from_name("gaussian", gamma=0.3)
    config = TrainerConfig(device=scaled_tesla_p100(), working_set_size=32)

    model_single, report_single = train_multiclass(config, x, y, kernel, 1.0)

    def parity(model) -> bool:
        return all(
            np.array_equal(a.global_sv_indices, b.global_sv_indices)
            and np.array_equal(a.coefficients, b.coefficients)
            and a.bias == b.bias
            for a, b in zip(model_single.records, model.records)
        )

    metrics: dict[str, float] = {
        "single_simulated_seconds": report_single.simulated_seconds,
        "n_binary_svms": float(report_single.n_binary_svms),
    }
    for n_devices in (1, 2, 4):
        cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=n_devices)
        model, report = train_multiclass_sharded(
            config, cluster, x, y, kernel, 1.0, placement="affinity"
        )
        tag = f"{n_devices}dev"
        metrics[f"makespan_{tag}_seconds"] = report.simulated_seconds
        metrics[f"speedup_{tag}"] = (
            report_single.simulated_seconds / report.simulated_seconds
        )
        metrics[f"model_parity_{tag}"] = float(parity(model))
        metrics[f"transfer_bytes_{tag}"] = float(report.transfer_bytes_total)
        metrics[f"placement_balance_{tag}"] = report.placement["balance"]
        if n_devices == 4:
            for entry in report.per_device:
                metrics[f"utilization_4dev_d{entry['device']}"] = entry[
                    "utilization"
                ]
                metrics[f"transfer_bytes_4dev_d{entry['device']}"] = float(
                    entry["transfer_bytes"]
                )
    # The naive placement must also reproduce the model bit-for-bit.
    cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=4)
    model_rr, report_rr = train_multiclass_sharded(
        config, cluster, x, y, kernel, 1.0, placement="round_robin"
    )
    metrics["model_parity_4dev_round_robin"] = float(parity(model_rr))
    metrics["makespan_4dev_round_robin_seconds"] = report_rr.simulated_seconds
    return metrics


def run_http_serving() -> dict[str, float]:
    """The HTTP front-end under load: capacity, latency SLOs, graceful shed.

    Four deterministic load runs against fresh admission-controlled
    servers (2 workers, adaptive micro-batching, per-tenant token
    buckets, bounded queues):

    - **calibration** — a saturating closed loop measures batched service
      capacity;
    - **uncontended** — steady open loop at 25% of capacity: the latency
      baseline the SLO gate pins;
    - **overload** — steady open loop at 2x capacity: the graceful-shed
      contract (accepted p99 within 3x the uncontended p99, explicit
      429/503 for the rest, server throughput holding near capacity);
    - **bursty** — 4x on/off bursts at 1x mean: shedding absorbs bursts
      instead of queueing them into the latency tail.

    The overload run is executed twice on fresh servers; the
    ``deterministic`` flag asserts byte-identical shed decisions and
    latency lists.  Everything reported lives on the simulated clock.
    """
    import numpy as np

    from benchmarks.loadgen import TrafficShape, run_closed_loop, run_open_loop
    from repro import GMPSVC, InferenceSession
    from repro.core.predictor import PredictorConfig
    from repro.data import gaussian_blobs
    from repro.gpusim import scaled_tesla_p100
    from repro.server import AdmissionController, Dispatcher, TenantPolicy

    x, y = gaussian_blobs(n=300, n_features=8, n_classes=3, seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = GMPSVC(C=10.0, gamma=0.3, working_set_size=32).fit(x, y).model_
    rows = [x[i : i + 1] for i in range(64)]

    def build_server(*, alpha_rate_rps: float = 0.0) -> Dispatcher:
        """A fresh 2-worker server; ``alpha_rate_rps=0`` means unlimited."""
        session = InferenceSession(
            model, PredictorConfig(device=scaled_tesla_p100())
        )
        generous = TenantPolicy(
            rate_per_s=1e12, burst=1_000_000, max_queue=1_000_000
        )
        if alpha_rate_rps:
            # The production shape: tenant "alpha" is rate-capped (sheds
            # 429 when it exceeds its contract), everyone else is trusted
            # but bounded by the queues (sheds 503 under overload).
            admission = AdmissionController(
                default_policy=TenantPolicy(
                    rate_per_s=1e12, burst=1_000_000, max_queue=10
                ),
                policies={
                    "alpha": TenantPolicy(
                        rate_per_s=alpha_rate_rps, burst=16, max_queue=10
                    )
                },
                max_queue_global=12,
            )
        else:
            admission = AdmissionController(
                default_policy=generous, max_queue_global=1_000_000
            )
        return Dispatcher(
            session, n_workers=2, max_batch=16, admission=admission
        )

    # Calibration: saturating closed loop, generous limits -> capacity.
    calibration = run_closed_loop(
        build_server(), rows, n_clients=64, n_requests=512
    )
    capacity_rps = calibration.accepted_throughput_rps

    tenants = (("alpha", 0.7), ("beta", 0.3))
    priorities = ((0, 0.9), (2, 0.1))

    def open_run(shape: TrafficShape, *, seed: int):
        return run_open_loop(
            build_server(alpha_rate_rps=0.5 * capacity_rps),
            rows,
            shape,
            tenants=tenants,
            priorities=priorities,
            seed=seed,
        )

    n_target = 400  # arrivals per trace, in expectation
    uncontended = open_run(
        TrafficShape("steady", 0.25 * capacity_rps, n_target / (0.25 * capacity_rps)),
        seed=5,
    )
    overload_shape = TrafficShape(
        "steady", 2.0 * capacity_rps, n_target / (2.0 * capacity_rps)
    )
    overload = open_run(overload_shape, seed=7)
    overload_repeat = open_run(overload_shape, seed=7)
    bursty = open_run(
        TrafficShape(
            "bursty", capacity_rps, n_target / capacity_rps, burst_factor=4.0
        ),
        seed=9,
    )

    deterministic = (
        overload.decision_log == overload_repeat.decision_log
        and overload.accepted_latencies_s == overload_repeat.accepted_latencies_s
        and overload.shed_statuses == overload_repeat.shed_statuses
    )
    all_explicit = all(
        status in (429, 503)
        for report in (uncontended, overload, bursty)
        for status in report.shed_statuses
    )
    p99_unc = uncontended.latency_percentile(99.0)
    p99_over = overload.latency_percentile(99.0)

    metrics: dict[str, float] = {
        "capacity_rps": capacity_rps,
        "calibration_mean_batch_size": calibration.mean_batch_size,
        "p99_degradation_ratio": p99_over / p99_unc if p99_unc else 0.0,
        "deterministic": float(deterministic),
        "all_sheds_explicit": float(all_explicit),
        "overload_factor": 2.0,
    }
    metrics.update(uncontended.metrics("uncontended_"))
    metrics.update(overload.metrics("overload_"))
    metrics.update(bursty.metrics("bursty_"))
    metrics["overload_evicted"] = float(
        sum(
            counters["shed_evicted"]
            for counters in overload.per_tenant.values()
        )
    )
    return metrics


def run_hot_swap() -> dict[str, float]:
    """Zero-downtime model lifecycle: hot swap and warm-start retraining.

    Two deterministic measurements on the simulated clock:

    - **hot swap** — a steady request stream is replayed twice against a
      2-worker dispatcher: once serving model A throughout (the
      latency baseline), once swapping to model B mid-stream via
      :meth:`Dispatcher.swap_model` (drain-then-flip).  The payload
      reports the swap-window p99 next to the steady-state p99 of the
      same request indices, the drain window, and two hard
      correctness counters: requests that failed (must be 0) and
      responses that differ bitwise from what a cold restart of the
      right model would have served (must be 0).
    - **warm start** — model A's support vectors seed a retrain on a
      grown dataset; ``warm_iteration_ratio`` is the warm SMO
      iteration count over the cold one (the acceptance contract says
      measurably below 1).
    """
    import numpy as np

    from repro.core.predictor import PredictorConfig
    from repro.core.trainer import TrainerConfig, train_multiclass
    from repro.data import gaussian_blobs
    from repro.gpusim import scaled_tesla_p100
    from repro.kernels.functions import kernel_from_name
    from repro.server import AdmissionController, Dispatcher, TenantPolicy
    from repro.serving import InferenceSession

    # --- Warm-start side: retrain on grown data from a prior model. ---
    x, y = gaussian_blobs(200, 5, 3, seed=0)
    x2, y2 = gaussian_blobs(40, 5, 3, seed=9)
    grown_x = np.vstack([np.asarray(x), np.asarray(x2)])
    grown_y = np.concatenate([y, y2])
    kernel = kernel_from_name("gaussian", gamma=0.5)

    def config() -> TrainerConfig:
        return TrainerConfig(
            device=scaled_tesla_p100(),
            solver="batched",
            working_set_size=32,
            probability=True,
        )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model_a, _ = train_multiclass(config(), x, y, kernel, 1.0)
        cold_model, cold_report = train_multiclass(
            config(), grown_x, grown_y, kernel, 1.0
        )
        model_b, warm_report = train_multiclass(
            config(), grown_x, grown_y, kernel, 1.0, warm_start=model_a
        )

    # --- Hot-swap side: same stream, with and without a mid-stream swap. ---
    n_requests = 200
    rng = np.random.default_rng(3)
    request_rows = [
        rng.normal(size=(int(rng.integers(1, 4)), 5))
        for _ in range(n_requests)
    ]
    # Inter-arrival spacing near the simulated service time, so the
    # dispatcher genuinely queues and the swap has a backlog to drain.
    arrivals = np.cumsum(rng.uniform(1e-8, 8e-8, size=n_requests))
    swap_index = n_requests // 2
    predictor = PredictorConfig(device=scaled_tesla_p100())

    def replay(swap_to=None):
        """Replay the stream; optionally swap at ``swap_index``."""
        dispatcher = Dispatcher(
            InferenceSession(model_a, predictor),
            n_workers=2,
            max_batch=8,
            # Unlimited admission: this bench measures the swap, so
            # nothing may be shed for rate or queue-depth reasons.
            admission=AdmissionController(
                default_policy=TenantPolicy(
                    rate_per_s=1e12, burst=1_000_000, max_queue=1_000_000
                ),
                max_queue_global=1_000_000,
            ),
        )
        handles = []
        for i, (data, t) in enumerate(zip(request_rows, arrivals)):
            if swap_to is not None and i == swap_index:
                dispatcher.swap_model(
                    InferenceSession(swap_to, predictor), label="v2"
                )
            handles.append(
                dispatcher.submit(data, arrival_s=max(t, dispatcher.now_s))
            )
        dispatcher.drain()
        return dispatcher, handles

    _, steady_handles = replay()
    swap_dispatcher, swap_handles = replay(swap_to=model_b)
    swap = swap_dispatcher.swaps[0]

    failed = sum(1 for h in swap_handles if not h.done or h.shed)
    cold_a = InferenceSession(model_a, predictor)
    cold_b = InferenceSession(model_b, predictor)
    bitwise_mismatches = 0
    for handle, data in zip(swap_handles, request_rows):
        cold = cold_a if handle.arrival_s <= swap.requested_s else cold_b
        if not np.array_equal(
            handle.result, cold.predict_proba(np.asarray(data))
        ):
            bitwise_mismatches += 1

    # The swap window: the requests bracketing the flip.  Their p99 next
    # to the *same indices* of the no-swap replay isolates the swap cost.
    window = slice(swap_index - 20, swap_index + 20)
    steady_p99 = float(
        np.percentile([h.latency_s for h in steady_handles[window]], 99.0)
    )
    swap_window_p99 = float(
        np.percentile([h.latency_s for h in swap_handles[window]], 99.0)
    )

    return {
        "n_requests": float(n_requests),
        "failed_requests": float(failed),
        "bitwise_mismatches": float(bitwise_mismatches),
        "steady_window_p99_s": steady_p99,
        "swap_window_p99_s": swap_window_p99,
        "swap_p99_degradation_ratio": (
            swap_window_p99 / steady_p99 if steady_p99 else 0.0
        ),
        "swap_drain_window_s": swap.window_s,
        "swap_drained_requests": float(swap.drained_requests),
        "cold_iterations": float(cold_report.total_iterations),
        "warm_iterations": float(warm_report.total_iterations),
        "warm_iteration_ratio": (
            warm_report.total_iterations / cold_report.total_iterations
        ),
    }


def run_fault_recovery() -> dict[str, float]:
    """Fault injection and recovery: checkpointed resume + degraded serving.

    Two deterministic measurements on the simulated clock:

    - **training** — a 4-device sharded run loses device 1 halfway
      through its fault-free makespan; survivors restore the lost
      problems from the last checkpoint and finish them.  The payload
      reports the makespan inflation against a fault-free run paying
      the *same* checkpoint cadence (the fair yardstick — checkpoint
      shipping is a cost both runs carry) and a hard correctness
      counter: binary records that differ bitwise from the fault-free
      model (must be 0).
    - **serving** — a replicated 3-lane dispatcher loses one replica
      mid-stream.  The batch routed to the dead lane gets an explicit
      503 (``replica_lost``); everything else serves bitwise-correct
      on the survivors, and after :meth:`Dispatcher.restore_lane`
      nothing fails (``failed_requests`` must be 0) and the restored
      lane serves again.
    """
    import numpy as np

    from repro.core.trainer import TrainerConfig
    from repro.data import gaussian_blobs
    from repro.distributed import (
        ClusterSpec,
        ShardedInferenceRouter,
        train_multiclass_sharded,
    )
    from repro.faults import DeviceLoss, FaultPlan
    from repro.gpusim import scaled_tesla_p100
    from repro.kernels.functions import kernel_from_name
    from repro.server import Dispatcher

    n_devices = 4
    x, y = gaussian_blobs(240, 5, 4, seed=7)
    kernel = kernel_from_name("gaussian", gamma=0.4)
    config = TrainerConfig(device=scaled_tesla_p100(), working_set_size=32)
    cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=n_devices)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # Fault-free baseline paying the same checkpoint cadence (the
        # ":memory:" store charges the device->host shipping without
        # touching disk).
        base_model, base_report = train_multiclass_sharded(
            config, cluster, x, y, kernel, 1.0,
            checkpoint_dir=":memory:", checkpoint_every=2,
        )
        plan = FaultPlan(
            losses=(DeviceLoss(1, base_report.simulated_seconds * 0.5),)
        )
        model, report = train_multiclass_sharded(
            config, cluster, x, y, kernel, 1.0,
            fault_plan=plan, checkpoint_every=2,
        )

    bitwise_mismatches = 0
    for a, b in zip(base_model.records, model.records):
        if not (
            np.array_equal(a.global_sv_indices, b.global_sv_indices)
            and np.array_equal(a.coefficients, b.coefficients)
            and a.bias == b.bias
        ):
            bitwise_mismatches += 1
    if base_model.sv_pool.n_pool != model.sv_pool.n_pool:
        bitwise_mismatches += 1
    recovery = report.faults["recovery"]

    # --- Serving side: lose one replica mid-stream, then restore it. ---
    router = ShardedInferenceRouter(
        model,
        ClusterSpec(device=scaled_tesla_p100(), n_devices=3),
        strategy="replicated",
    )
    dispatcher = Dispatcher(router)
    probe = np.asarray(x)[:4]
    reference = router.predict_proba(probe)

    warm = [dispatcher.submit(probe, arrival_s=float(i)) for i in range(6)]
    dispatcher.drain()
    dispatcher.fail_lane(1)
    window = [
        dispatcher.submit(probe, arrival_s=dispatcher.now_s + 1.0 + i)
        for i in range(9)
    ]
    dispatcher.drain()
    dispatcher.restore_lane(1)
    recovered = [
        dispatcher.submit(probe, arrival_s=dispatcher.now_s + 1.0 + i)
        for i in range(9)
    ]
    dispatcher.drain()

    window_503s = sum(1 for h in window if h.status == 503)
    failed = sum(
        1 for h in warm + recovered if not h.done or h.status != 200
    )
    serving_mismatches = sum(
        1
        for h in warm + window + recovered
        if h.status == 200 and not np.array_equal(h.result, reference)
    )

    return {
        "n_devices": float(n_devices),
        "devices_lost": float(len(report.faults["devices_lost"])),
        "recovered_problems": float(recovery["recovered_problems"]),
        "resumed_from_checkpoint": float(recovery["resumed_from_checkpoint"]),
        "checkpoints_written": float(report.faults["checkpoints_written"]),
        "fault_free_makespan_s": base_report.simulated_seconds,
        "faulted_makespan_s": report.simulated_seconds,
        "makespan_inflation_ratio": (
            report.simulated_seconds / base_report.simulated_seconds
        ),
        "bitwise_mismatches": float(bitwise_mismatches),
        "window_503s": float(window_503s),
        "failed_requests": float(failed),
        "serving_mismatches": float(serving_mismatches),
    }


def run_backends() -> dict[str, float]:
    """The float32 fast path vs the float64 reference backend.

    Trains and predicts the same synthetic workload once per registered
    NumPy backend and reports, per backend, the simulated train/predict
    timelines, wall-clock times and SMO iteration counts, plus the
    accuracy deltas the SLO gates pin:

    - ``float32_probability_linf`` / ``argmax_agreement`` isolate
      *inference* precision: the numpy64-trained model is predicted
      under both backends on the same test block, so the delta is pure
      arithmetic (SLOs: L-inf <= 1e-3, agreement >= 99.9%);
    - ``float32_e2e_*`` report the end-to-end deltas (each backend
      trains its own model), for the record — two solvers converging in
      different precisions may legitimately disagree near boundaries.

    The committed baseline pins only the simulated metrics (numpy64
    tightly; numpy32 with generous tolerance, since its iteration counts
    follow the platform's float32 BLAS); wall-clock and accuracy deltas
    are machine-dependent and gated by SLO ceilings instead.
    """
    import time

    import numpy as np

    from repro import GMPSVC
    from repro.core.predictor import PredictorConfig, predict_proba_model
    from repro.data import gaussian_blobs
    from repro.gpusim import scaled_tesla_p100

    n_features, n_classes = 96, 5
    x, y = gaussian_blobs(n=480, n_features=n_features, n_classes=n_classes, seed=7)
    x_test, _ = gaussian_blobs(
        n=4000, n_features=n_features, n_classes=n_classes, seed=8
    )

    metrics: dict[str, float] = {
        "n_train": float(np.asarray(x).shape[0]),
        "n_test": float(np.asarray(x_test).shape[0]),
        "n_classes": float(n_classes),
    }
    fitted = {}
    for name in ("numpy64", "numpy32"):
        clf = GMPSVC(
            C=10.0,
            gamma=1.0 / n_features,
            working_set_size=32,
            backend=name,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            start = time.perf_counter()
            clf.fit(x, y)
            train_wall = time.perf_counter() - start
            start = time.perf_counter()
            proba = clf.predict_proba(x_test)
            predict_wall = time.perf_counter() - start
        fitted[name] = {
            "clf": clf,
            "proba": proba,
            "train_wall": train_wall,
            "predict_wall": predict_wall,
            "train_sim": clf.training_report_.simulated_seconds,
            "predict_sim": clf.prediction_report_.simulated_seconds,
        }
        metrics[f"{name}_train_simulated_seconds"] = fitted[name]["train_sim"]
        metrics[f"{name}_predict_simulated_seconds"] = fitted[name]["predict_sim"]
        metrics[f"{name}_train_wall_seconds"] = train_wall
        metrics[f"{name}_predict_wall_seconds"] = predict_wall
        metrics[f"{name}_iterations"] = float(clf.training_report_.total_iterations)

    f64, f32 = fitted["numpy64"], fitted["numpy32"]
    sim64 = f64["train_sim"] + f64["predict_sim"]
    sim32 = f32["train_sim"] + f32["predict_sim"]
    metrics["float32_train_simulated_speedup"] = f64["train_sim"] / f32["train_sim"]
    metrics["float32_predict_simulated_speedup"] = (
        f64["predict_sim"] / f32["predict_sim"]
    )
    metrics["float32_simulated_speedup"] = sim64 / sim32
    # The gateable inverse: a ceiling on the slowdown is a floor on the
    # speedup (check_regression --slo only bounds from above).
    metrics["float32_simulated_slowdown"] = sim32 / sim64
    metrics["float32_train_wall_speedup"] = f64["train_wall"] / f32["train_wall"]
    metrics["float32_predict_wall_speedup"] = (
        f64["predict_wall"] / f32["predict_wall"]
    )
    wall64 = f64["train_wall"] + f64["predict_wall"]
    wall32 = f32["train_wall"] + f32["predict_wall"]
    metrics["float32_wall_speedup"] = wall64 / wall32

    # Inference-precision deltas: one model (the reference-trained one),
    # predicted under both backends.
    model = f64["clf"].model_
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p_ref, _ = predict_proba_model(
            PredictorConfig(device=scaled_tesla_p100(), backend="numpy64"),
            model,
            x_test,
        )
        p_f32, _ = predict_proba_model(
            PredictorConfig(device=scaled_tesla_p100(), backend="numpy32"),
            model,
            x_test,
        )
    agree = np.argmax(p_ref, axis=1) == np.argmax(p_f32, axis=1)
    metrics["float32_probability_linf"] = float(np.max(np.abs(p_ref - p_f32)))
    metrics["argmax_agreement"] = float(np.mean(agree))
    metrics["argmax_disagreement"] = float(np.mean(~agree))

    # End-to-end deltas (each backend's own trained model), for the record.
    e2e_agree = np.argmax(f64["proba"], axis=1) == np.argmax(f32["proba"], axis=1)
    metrics["float32_e2e_probability_linf"] = float(
        np.max(np.abs(f64["proba"] - f32["proba"]))
    )
    metrics["float32_e2e_argmax_agreement"] = float(np.mean(e2e_agree))
    return metrics


def run_cascade() -> dict[str, float]:
    """Instance-sharded cascade SMO vs the unsharded solve on one large pair.

    One m = 6000 binary problem (the regime the cascade exists for: a
    single pairwise problem too large to train quickly on one device) is
    solved three ways on the simulated clock:

    - **unsharded** — the plain batched SMO solve on one device, the
      yardstick;
    - **cascade, 4 flat devices** — 4 instance shards solved
      concurrently, SVs merged pairwise, globally KKT-verified; the
      acceptance contract pins ``speedup_4dev >= 1.5``;
    - **cascade, 2x2 hierarchical** — same work on a 2-node x 2-device
      topology; the per-tier byte ledger must show the merge traffic
      riding the intra-node tier except for exactly one inter-node merge.

    The cascade is approximate, so the payload also carries the SLO-gated
    quality metrics: the verified global dual gap against its budget, the
    L-inf decision delta against the unsharded solve, and the decision
    sign disagreement (what multiclass voting would see).
    """
    import numpy as np

    from repro.cascade import CascadeConfig, train_cascade
    from repro.core.trainer import TrainerConfig
    from repro.data import gaussian_blobs
    from repro.distributed import ClusterSpec
    from repro.gpusim.device import scaled_tesla_p100
    from repro.gpusim.engine import make_engine
    from repro.kernels.functions import kernel_from_name
    from repro.kernels.rows import KernelRowComputer
    from repro.solvers.batch_smo import BatchSMOSolver

    m, n_shards, penalty = 6000, 4, 10.0
    x, y = gaussian_blobs(n=m, n_features=8, n_classes=2, separation=3.5, seed=5)
    labels = np.where(y == 0, 1.0, -1.0)
    kernel = kernel_from_name("gaussian", gamma=0.125)
    config = TrainerConfig(device=scaled_tesla_p100(), working_set_size=64)

    # Unsharded yardstick: the plain batched solve on one device.
    engine = make_engine(config.device)
    rows = KernelRowComputer(engine, kernel, x)
    sequential = BatchSMOSolver(
        penalty=penalty,
        epsilon=config.epsilon,
        working_set_size=config.working_set_size,
    ).solve(rows, labels)
    unsharded_s = engine.clock.elapsed_s

    def decision(result):
        return result.f + labels + result.bias

    d_sequential = decision(sequential)
    metrics: dict[str, float] = {
        "m": float(m),
        "n_shards": float(n_shards),
        "penalty": penalty,
        "unsharded_simulated_seconds": unsharded_s,
        "unsharded_iterations": float(sequential.iterations),
        "unsharded_n_support": float(sequential.n_support),
    }

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for tag, n_devices, n_nodes in (("4dev", 4, 1), ("2x2", 4, 2)):
            cluster = ClusterSpec(
                device=config.device, n_devices=n_devices, n_nodes=n_nodes
            )
            result, report = train_cascade(
                config, cluster, x, labels, kernel, penalty,
                cascade=CascadeConfig(n_shards=n_shards),
            )
            d_cascade = decision(result)
            disagreement = float(
                np.mean(np.sign(d_cascade) != np.sign(d_sequential))
            )
            metrics[f"makespan_{tag}_seconds"] = report.simulated_seconds
            metrics[f"speedup_{tag}"] = unsharded_s / report.simulated_seconds
            metrics[f"dual_gap_{tag}"] = report.final_gap
            metrics[f"gap_budget_{tag}"] = report.gap_budget
            metrics[f"budget_met_{tag}"] = float(report.budget_met)
            metrics[f"decision_linf_{tag}"] = float(
                np.max(np.abs(d_cascade - d_sequential))
            )
            metrics[f"argmax_disagreement_{tag}"] = disagreement
            metrics[f"sv_survival_{tag}"] = report.sv_survival
            metrics[f"feedback_rounds_{tag}"] = float(report.feedback_rounds)
            metrics[f"iterations_{tag}"] = float(report.total_iterations)
            for tier, nbytes in report.transfer_bytes.items():
                metrics[f"transfer_{tier}_bytes_{tag}"] = float(nbytes)
            for tier, count in report.tree["tier_counts"].items():
                metrics[f"merges_{tier}_{tag}"] = float(count)

    # The gateable inverses: check_regression --slo only bounds from
    # above, so a ceiling on these is a floor on speedup / the gap margin.
    metrics["slowdown_4dev"] = 1.0 / metrics["speedup_4dev"]
    metrics["gap_over_budget_4dev"] = (
        metrics["dual_gap_4dev"] / metrics["gap_budget_4dev"]
    )
    metrics["gap_over_budget_2x2"] = (
        metrics["dual_gap_2x2"] / metrics["gap_budget_2x2"]
    )
    return metrics


BENCH_RUNNERS = {
    "cascade": run_cascade,
    "smoke": run_smoke,
    "backends": run_backends,
    "coupling": run_coupling,
    "train_interleave": run_train_interleave,
    "serving": run_serving,
    "distributed": run_distributed,
    "http_serving": run_http_serving,
    "hot_swap": run_hot_swap,
    "fault_recovery": run_fault_recovery,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run a named benchmark and emit its ``BENCH_<name>.json``."""
    parser = argparse.ArgumentParser(
        prog="emit_json",
        description="Run a benchmark and write machine-readable JSON results.",
    )
    parser.add_argument(
        "bench",
        nargs="?",
        default="smoke",
        choices=sorted(BENCH_RUNNERS),
        help="which benchmark to run (default: smoke)",
    )
    parser.add_argument(
        "--emit-json",
        metavar="PATH",
        default=None,
        help="output path (default: benchmarks/results/BENCH_<name>.json)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the available benchmark runner names and exit",
    )
    args = parser.parse_args(argv)
    if args.list:
        for name in sorted(BENCH_RUNNERS):
            print(name)
        return 0
    metrics = BENCH_RUNNERS[args.bench]()
    target = write_bench_json(args.bench, metrics, path=args.emit_json)
    print(f"wrote {target}")
    for key in sorted(metrics):
        print(f"  {key:28s} {metrics[key]:.6g}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    raise SystemExit(main())
