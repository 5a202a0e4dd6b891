"""Per-layer metrics of a traced run.

Wall-clock numbers are self times of the spans ``trace.py`` records,
divided by the number of operations of the kind that runs the layer:

- *per fit* -- spans under a ``core.fit`` root (``GMPSVC.fit``);
- *per predict op* -- spans under a ``core.predict`` root
  (``GMPSVC.predict_proba``) in the benchmark process, or under a
  ``server.handle`` root (one HTTP request) in the serving process.

Simulated-clock numbers are read from the reports of the same traced
operations, never wrapped.  Layers only the HTTP workload runs (wire
codec, admission, dispatch, transport) are reported as shares of the
request's round trip, so that on the other workloads they read 0 rather
than a time.

A metric whose span target is missing (see :attr:`Tracer.missing`) or
whose report field no longer exists is reported as 0 and listed as
missing; it never stops the run.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

from benchmarks.e2e.stats import spearman
from benchmarks.e2e.trace import Span, root_indices, self_times

__all__ = [
    "CATEGORY_SPANS",
    "PER_LAYER_METRICS",
    "TraceInputs",
    "per_layer_metrics",
    "report_summary",
    "session_snapshot",
    "session_summary",
]

FIT_CATEGORIES = ("kernel_values", "subproblem", "selection", "f_update", "sigmoid", "transfer")
PREDICT_CATEGORIES = ("decision_values", "coupling")
RIDGE_RETRY_EVENT = "coupling_ridge_retries"
LATE_S = 0.005

# Which wrapped functions do the work each simulated cost category
# charges, and under which operation: the pairing behind
# gpusim.sim_wall_rank_corr.  ("transfer" has no host-side function.)
CATEGORY_SPANS = {
    "kernel_values": ("fit", ("kernels.prefetch", "kernels.rows_for_pair",
                              "backends.matmul", "backends.norms")),
    "subproblem": ("fit", ("solvers.subproblem",)),
    "selection": ("fit", ("solvers.select", "solvers.begin_round")),
    "f_update": ("fit", ("solvers.complete_round",)),
    "sigmoid": ("fit", ("probability.fit_sigmoid",)),
    "decision_values": ("predict", ("multiclass.decision", "kernels.block",
                                    "backends.matmul", "backends.norms")),
    "coupling": ("predict", ("probability.couple", "backends.solve")),
}

PER_LAYER_METRICS = (
    ("core.fit_other_s", "s"),
    ("core.predict_other_s", "s"),
    ("core.waves", "count"),
    ("core.max_concurrency", "count"),
    ("kernels.prefetch_s", "s"),
    ("kernels.prefetch_calls", "count"),
    ("kernels.rows_for_pair_s", "s"),
    ("kernels.rows_computed", "count"),
    ("kernels.buffer_hit_rate", "fraction"),
    ("kernels.sharing_hit_rate", "fraction"),
    ("kernels.block_s", "s"),
    ("solvers.iterations", "count"),
    ("solvers.rounds", "count"),
    ("solvers.subproblem_s", "s"),
    ("solvers.select_s", "s"),
    ("solvers.round_s", "s"),
    ("solvers.kkt_gap_max", "gap"),
    ("probability.fit_sigmoid_s", "s"),
    ("probability.fit_sigmoid_calls", "count"),
    ("probability.couple_s", "s"),
    ("probability.ridge_retries", "count"),
    ("multiclass.decision_s", "s"),
    ("multiclass.sharing_factor", "ratio"),
    ("backends.matmul_s", "s"),
    ("backends.matmul_calls", "count"),
    ("backends.matmul_gflops", "GFLOP/s"),
    ("backends.solve_s", "s"),
    ("backends.norms_s", "s"),
    *((f"gpusim.{c}_sim_s", "sim_s") for c in FIT_CATEGORIES + PREDICT_CATEGORIES),
    ("gpusim.fit_flops", "count"),
    ("gpusim.fit_dram_bytes", "bytes"),
    ("gpusim.fit_launches", "count"),
    ("gpusim.predict_flops", "count"),
    ("gpusim.predict_dram_bytes", "bytes"),
    ("gpusim.predict_launches", "count"),
    ("gpusim.sim_wall_rank_corr", "ratio"),
    ("serving.predict_share", "fraction"),
    ("serving.rows_per_call", "count"),
    ("server.decode_share", "fraction"),
    ("server.encode_share", "fraction"),
    ("server.admission_share", "fraction"),
    ("server.dispatch_share", "fraction"),
    ("server.transport_share", "fraction"),
    ("server.mean_batch_size", "count"),
    ("server.shed_rate", "fraction"),
    ("loadgen.late_share", "fraction"),
    ("model.save_share", "fraction"),
    ("model.load_share", "fraction"),
    ("trace.overhead_ratio", "ratio"),
    ("machine.gemm_gflops", "GFLOP/s"),
)


@dataclass
class TraceInputs:
    """What a traced run hands over for per-layer metrics."""

    client_spans: list = field(default_factory=list)
    client_missing: list = field(default_factory=list)
    server_spans: list = field(default_factory=list)
    server_missing: list = field(default_factory=list)
    fit_reports: list = field(default_factory=list)  # TrainingReport per traced fit
    predict_reports: list = field(default_factory=list)  # report_summary per traced call
    session_summary: Optional[dict] = None  # per-call averages of the serving session
    models: list = field(default_factory=list)
    kkt_gap_max: float = 0.0
    setup_s: list = field(default_factory=list)
    save_s: list = field(default_factory=list)
    round_trips: dict = field(default_factory=dict)  # traced request id -> seconds
    lateness_s: list = field(default_factory=list)
    server_stats: dict = field(default_factory=dict)
    overhead_ratio: Optional[float] = None


_REPORT_ERRORS = (AttributeError, KeyError, TypeError, ValueError)


def _costs(breakdown: dict, counters: object) -> dict:
    return {
        "breakdown": dict(breakdown),
        "flops": counters.flops,
        "dram_bytes": counters.bytes_read + counters.bytes_written,
        "launches": counters.kernel_launches,
        "ridge_retries": counters.events.get(RIDGE_RETRY_EVENT, 0),
    }


def report_summary(report: object) -> Optional[dict]:
    """Simulated breakdown and counters of one prediction report."""
    try:
        return _costs(report.breakdown(), report.counters)
    except _REPORT_ERRORS:
        return None


def session_snapshot(session: object) -> Optional[dict]:
    """Totals of a serving session's simulated engine (see :func:`session_summary`)."""
    try:
        engine = session.engine
        return {
            **_costs(engine.clock.breakdown(), engine.counters),
            "calls": session.stats.n_calls,
        }
    except _REPORT_ERRORS:
        return None


def session_summary(session: object, before: Optional[dict]) -> Optional[dict]:
    """Per-call averages of a session's simulated work since ``before``."""
    after = session_snapshot(session)
    if after is None or before is None or after["calls"] == before["calls"]:
        return None
    calls = after["calls"] - before["calls"]
    summary = {
        key: (after[key] - before[key]) / calls
        for key in ("flops", "dram_bytes", "launches", "ridge_retries")
    }
    summary["breakdown"] = {
        c: (after["breakdown"].get(c, 0.0) - before["breakdown"].get(c, 0.0)) / calls
        for c in after["breakdown"]
    }
    return summary


class _SpanTotals:
    """Self and inclusive time per (root span name, span name)."""

    def __init__(self, spans: list[Span]) -> None:
        own = self_times(spans)
        roots = root_indices(spans)
        self.self_s: dict = defaultdict(float)
        self.inclusive_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.flops: dict = defaultdict(float)
        self.roots = Counter(span.name for span in spans if span.parent < 0)
        for index, span in enumerate(spans):
            key = (spans[roots[index]].name, span.name)
            self.self_s[key] += own[index]
            self.inclusive_s[key] += span.duration
            self.calls[key] += 1
            self.flops[key] += span.args.get("flops", 0)
        self.rows = [
            span.args.get("rows", 0)
            for index, span in enumerate(spans)
            if span.name == "serving.predict"
            and spans[roots[index]].name == "server.handle"
        ]
        self.handles = {
            str(span.args.get("request_id")): span.duration
            for span in spans
            if span.name == "server.handle" and span.parent < 0
        }
        self.load_s = sum(
            span.duration for span in spans if span.name == "model.load" and span.parent < 0
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(trace: TraceInputs) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric except ``machine.gemm_gflops``, plus the missing ones."""
    client = _SpanTotals(trace.client_spans)
    server = _SpanTotals(trace.server_spans)
    n_fit = client.roots["core.fit"]
    n_predict = client.roots["core.predict"] + server.roots["server.handle"]
    missing_spans = set(trace.client_missing) | set(trace.server_missing)

    def per_fit(*names: str) -> float:
        return _ratio(sum(client.self_s[("core.fit", n)] for n in names), n_fit)

    def fit_calls(name: str) -> float:
        return _ratio(client.calls[("core.fit", name)], n_fit)

    def per_predict(*names: str) -> float:
        total = sum(
            client.self_s[("core.predict", n)] + server.self_s[("server.handle", n)]
            for n in names
        )
        return _ratio(total, n_predict)

    fits = trace.fit_reports
    predicts = [s for s in trace.predict_reports if s is not None]
    session = trace.session_summary

    def fit_mean(get: Callable) -> float:
        return statistics.fmean(get(r) for r in fits) if fits else 0.0

    def predict_mean(get: Callable) -> float:
        if predicts:
            return statistics.fmean(get(s) for s in predicts)
        return get(session) if session else 0.0

    round_trip = sum(
        t for request_id, t in trace.round_trips.items() if request_id in server.handles
    )
    handled = sum(server.handles[r] for r in trace.round_trips if r in server.handles)

    def server_share(name: str) -> float:
        return _ratio(server.self_s[("server.handle", name)], round_trip)

    setup_s = statistics.median(trace.setup_s) if trace.setup_s else 0.0
    stats = trace.server_stats

    # (name, spans it needs, how to compute it)
    table: list[tuple[str, tuple[str, ...], Callable[[], float]]] = [
        ("core.fit_other_s", ("core.fit",), lambda: per_fit("core.fit")),
        ("core.predict_other_s", ("core.predict", "serving.predict"),
         lambda: per_predict("core.predict", "serving.predict")),
        ("core.waves", (), lambda: fit_mean(lambda r: len(r.wave_trace or ()))),
        ("core.max_concurrency", (), lambda: fit_mean(lambda r: r.max_concurrency)),
        ("kernels.prefetch_s", ("kernels.prefetch",), lambda: per_fit("kernels.prefetch")),
        ("kernels.prefetch_calls", ("kernels.prefetch",),
         lambda: fit_calls("kernels.prefetch")),
        ("kernels.rows_for_pair_s", ("kernels.rows_for_pair",),
         lambda: per_fit("kernels.rows_for_pair")),
        ("kernels.rows_computed", (), lambda: fit_mean(lambda r: r.kernel_rows_computed)),
        ("kernels.buffer_hit_rate", (), lambda: fit_mean(lambda r: r.buffer_hit_rate)),
        ("kernels.sharing_hit_rate", (), lambda: fit_mean(lambda r: r.sharing_hit_rate)),
        ("kernels.block_s", ("kernels.block",), lambda: per_predict("kernels.block")),
        ("solvers.iterations", (), lambda: fit_mean(lambda r: r.total_iterations)),
        ("solvers.rounds", (),
         lambda: fit_mean(lambda r: sum(s["rounds"] for s in r.per_svm))),
        ("solvers.subproblem_s", ("solvers.subproblem",),
         lambda: per_fit("solvers.subproblem")),
        ("solvers.select_s", ("solvers.select",), lambda: per_fit("solvers.select")),
        ("solvers.round_s", ("solvers.begin_round", "solvers.complete_round"),
         lambda: per_fit("solvers.begin_round", "solvers.complete_round")),
        ("solvers.kkt_gap_max", (), lambda: trace.kkt_gap_max),
        ("probability.fit_sigmoid_s", ("probability.fit_sigmoid",),
         lambda: per_fit("probability.fit_sigmoid")),
        ("probability.fit_sigmoid_calls", ("probability.fit_sigmoid",),
         lambda: fit_calls("probability.fit_sigmoid")),
        ("probability.couple_s", ("probability.couple",),
         lambda: per_predict("probability.couple")),
        ("probability.ridge_retries", (), lambda: predict_mean(lambda s: s["ridge_retries"])),
        ("multiclass.decision_s", ("multiclass.decision",),
         lambda: per_predict("multiclass.decision")),
        ("multiclass.sharing_factor", (),
         lambda: statistics.fmean(m.sv_pool.sharing_factor for m in trace.models)),
        ("backends.matmul_s", ("backends.matmul",), lambda: per_fit("backends.matmul")),
        ("backends.matmul_calls", ("backends.matmul",),
         lambda: fit_calls("backends.matmul")),
        ("backends.matmul_gflops", ("backends.matmul",),
         lambda: _ratio(client.flops[("core.fit", "backends.matmul")],
                        client.self_s[("core.fit", "backends.matmul")]) / 1e9),
        ("backends.solve_s", ("backends.solve",), lambda: per_predict("backends.solve")),
        ("backends.norms_s", ("backends.norms",), lambda: per_predict("backends.norms")),
        *(
            (f"gpusim.{c}_sim_s", (),
             lambda c=c: fit_mean(lambda r: r.breakdown().get(c, 0.0)))
            for c in FIT_CATEGORIES
        ),
        *(
            (f"gpusim.{c}_sim_s", (),
             lambda c=c: predict_mean(lambda s: s["breakdown"].get(c, 0.0)))
            for c in PREDICT_CATEGORIES
        ),
        ("gpusim.fit_flops", (), lambda: fit_mean(lambda r: r.counters.flops)),
        ("gpusim.fit_dram_bytes", (),
         lambda: fit_mean(lambda r: r.counters.bytes_read + r.counters.bytes_written)),
        ("gpusim.fit_launches", (), lambda: fit_mean(lambda r: r.counters.kernel_launches)),
        ("gpusim.predict_flops", (), lambda: predict_mean(lambda s: s["flops"])),
        ("gpusim.predict_dram_bytes", (), lambda: predict_mean(lambda s: s["dram_bytes"])),
        ("gpusim.predict_launches", (), lambda: predict_mean(lambda s: s["launches"])),
        ("serving.predict_share", ("serving.predict",),
         lambda: _ratio(server.inclusive_s[("server.handle", "serving.predict")], round_trip)),
        ("serving.rows_per_call", ("serving.predict",),
         lambda: statistics.fmean(server.rows) if server.rows else 0.0),
        ("server.decode_share", ("server.decode",), lambda: server_share("server.decode")),
        ("server.encode_share", ("server.encode",), lambda: server_share("server.encode")),
        ("server.admission_share", ("server.admission",),
         lambda: server_share("server.admission")),
        ("server.dispatch_share", ("server.dispatch",),
         lambda: server_share("server.dispatch")),
        ("server.transport_share", (), lambda: _ratio(round_trip - handled, round_trip)),
        ("server.mean_batch_size", (), lambda: float(stats.get("mean_batch_size", 0.0))),
        ("server.shed_rate", (), lambda: float(stats.get("shed_rate", 0.0))),
        ("loadgen.late_share", (),
         lambda: _ratio(sum(1 for s in trace.lateness_s if s > LATE_S),
                        len(trace.lateness_s))),
        ("model.save_share", ("model.save",),
         lambda: _ratio(statistics.fmean(trace.save_s), setup_s) if trace.save_s else 0.0),
        ("model.load_share", ("model.load",), lambda: _ratio(server.load_s, setup_s)),
        ("trace.overhead_ratio", (), lambda: trace.overhead_ratio),
    ]

    metrics: dict[str, float] = {}
    missing: list[str] = []
    for name, needs, compute in table:
        value = None
        if not missing_spans.intersection(needs):
            try:
                value = compute()
            except _REPORT_ERRORS:
                value = None
        if value is None:
            missing.append(name)
            value = 0.0
        metrics[name] = float(value)

    rank, absent = _rank_correlation(client, server, fits, predicts, session)
    metrics["gpusim.sim_wall_rank_corr"] = rank if rank is not None else 0.0
    if rank is None or missing_spans.intersection(absent):
        missing.append("gpusim.sim_wall_rank_corr")
    return metrics, missing


def _rank_correlation(client, server, fits, predicts, session):
    """Spearman correlation of simulated seconds and wall self time per category."""
    n_server = server.roots["server.handle"]
    sim, wall, needs = [], [], set()
    try:
        for category, (op, names) in CATEGORY_SPANS.items():
            needs.update(names)
            if op == "fit":
                s = sum(r.breakdown().get(category, 0.0) for r in fits)
                w = sum(client.self_s[("core.fit", n)] for n in names)
            else:
                s = sum(p["breakdown"].get(category, 0.0) for p in predicts)
                if session:
                    s += session["breakdown"].get(category, 0.0) * n_server
                w = sum(
                    client.self_s[("core.predict", n)] + server.self_s[("server.handle", n)]
                    for n in names
                )
            if s > 0 or w > 0:
                sim.append(s)
                wall.append(w)
    except _REPORT_ERRORS:
        return None, needs
    if len(sim) < 3:
        return None, needs
    return spearman(sim, wall), needs
