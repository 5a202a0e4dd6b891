"""Self-test of the end-to-end benchmark: ``pytest benchmarks/e2e -q``.

Runs every workload at a tenth of its size for half a second, untraced
and traced, and checks the pieces the metrics rest on.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from benchmarks.e2e import checks, loadgen
from benchmarks.e2e.layers import PER_LAYER_METRICS
from benchmarks.e2e.stats import quartile_spread, spearman, tail_percentile
from benchmarks.e2e.trace import Span, Tracer, root_indices, self_times
from benchmarks.e2e.workloads import (
    E2E_METRICS,
    WORKLOADS,
    _finite_or_worst,
    make_samples,
    run_workload,
)

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    return {
        (name, trace): run_workload(name, None, 0.5, trace, out, scale=0.1)
        for name in WORKLOADS
        for trace in (False, True)
    }


def test_tiny_runs_of_every_workload_are_correct(tiny_runs):
    for (name, trace), result in tiny_runs.items():
        assert result["correct"], (name, trace, result["checks"])
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert all(np.isfinite(v) for v in result["metrics"].values())
        if not trace:
            assert all(v > 0 for v in result["metrics"].values()), (name, result)


def test_traced_runs_emit_every_layer_and_a_nested_chrome_trace(tiny_runs):
    for name in WORKLOADS:
        result = tiny_runs[(name, True)]
        assert result["missing"] == []
        trace = json.loads((ROOT / result["detail"]["chrome_trace"]).read_text())
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert any(e["name"] == "core.fit" for e in events)
        by_thread: dict = {}
        for event in events:
            by_thread.setdefault((event["pid"], event["tid"]), []).append(event)
        for thread_events in by_thread.values():
            open_ends: list[float] = []
            for event in sorted(thread_events, key=lambda e: (e["ts"], -e["dur"])):
                while open_ends and open_ends[-1] <= event["ts"]:
                    open_ends.pop()
                end = event["ts"] + event["dur"]
                # Properly nested: a span ends inside its enclosing span.
                assert not open_ends or end <= open_ends[-1] + 1e-3
                open_ends.append(end)
    http = tiny_runs[("http_serve", True)]["metrics"]
    assert 0 < http["server.transport_share"] < 1
    assert http["serving.predict_share"] > 0
    assert 1 <= http["serving.rows_per_call"] <= loadgen.MAX_ROWS


def test_names_match_benchmark_json(tiny_runs):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared_e2e == dict(E2E_METRICS)
    assert declared_layer == dict(PER_LAYER_METRICS)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    for (name, trace), result in tiny_runs.items():
        emitted = set(result["metrics"])
        if trace:
            emitted.add("machine.gemm_gflops")  # stamped by run.py
        assert emitted == set(declared_layer if trace else declared_e2e), name


def test_metric_and_workload_names_are_valid():
    names = [n for n, _ in E2E_METRICS + PER_LAYER_METRICS] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for _, unit in E2E_METRICS + PER_LAYER_METRICS:
        assert UNIT.fullmatch(unit), unit


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(39) == 50.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(199) == 90.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(400) == 97.5
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
        Span("other", 11.0, 12.0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert root_indices(spans) == [0, 0, 0, 0, 4]


def test_tracer_rebinds_every_importer_and_restores():
    import repro.solvers.batch_smo as batch_smo
    import repro.solvers.working_set as working_set
    from benchmarks.e2e.trace import Target

    original = working_set.select_new_violators
    tracer = Tracer()
    tracer.install(
        (
            Target("solvers.select", "repro.solvers.working_set", "select_new_violators"),
            Target("gone", "repro.solvers.working_set", "no_such_function"),
            Target("gone.module", "repro.no_such_module", "f"),
        )
    )
    try:
        assert working_set.select_new_violators is not original
        assert batch_smo.select_new_violators is working_set.select_new_violators
        assert tracer.missing == ["gone", "gone.module"]
    finally:
        tracer.uninstall()
    assert working_set.select_new_violators is original
    assert batch_smo.select_new_violators is original


def test_failed_ops_miss_every_latency_limit():
    assert _finite_or_worst([1.0, float("inf"), 2.0], 5.0) == [1.0, 5.0, 2.0]
    assert _finite_or_worst([9.0, float("inf")], 5.0) == [9.0, 9.0]


def test_open_loop_schedule_is_seeded_stratified_poisson():
    due = loadgen.poisson_schedule(np.random.default_rng(7), 50.0, 20.0)
    again = loadgen.poisson_schedule(np.random.default_rng(7), 50.0, 20.0)
    other = loadgen.poisson_schedule(np.random.default_rng(8), 50.0, 20.0)
    assert np.array_equal(due, again)
    assert due.size == other.size == 1000
    assert np.all(np.diff(due) > 0) and 0 < due[0] and due[-1] < 20.0
    gaps = np.diff(due)
    # Exponential gaps: mean 1/rate and about 1 - e^-1 of them below the mean.
    assert gaps.mean() == pytest.approx(0.02, rel=0.02)
    assert np.mean(gaps < 0.02) == pytest.approx(1 - np.exp(-1), abs=0.02)
    assert not np.array_equal(due, other)


def test_row_blocks_send_the_same_rows_whatever_the_seed():
    for seed in (1, 2, 3):
        blocks = loadgen.row_blocks(np.random.default_rng(seed), 64, 50)
        sizes = np.array([b.size for b in blocks])
        assert all(np.all((0 <= b) & (b < 50)) for b in blocks)
        # Every aligned run of MAX_ROWS blocks holds each size once.
        runs = sizes.reshape(-1, loadgen.MAX_ROWS)
        assert np.all(np.sort(runs, axis=1) == np.arange(1, loadgen.MAX_ROWS + 1))


def test_kkt_check_rejects_a_perturbed_model():
    from repro import GMPSVC

    sample = make_samples(WORKLOADS["predict_dense"], 3, scale=0.05)[0]
    estimator = GMPSVC(C=1000.0, gamma=0.006).fit(sample.x_train, sample.y_train)
    dense = checks.to_dense(sample.x_train)
    gaps = checks.kkt_gaps(estimator.model_, dense, sample.y_train, 0.006, 1000.0)
    assert max(gaps) <= 1e-3 * (1 + checks.KKT_RELATIVE_SLACK)
    record = estimator.model_.records[0]
    record.coefficients[0] *= 0.5
    assert checks.kkt_gaps(estimator.model_, dense, sample.y_train, 0.006, 1000.0)[0] > 1e-3


def test_probe_scales_by_the_adjacent_probe_times(monkeypatch):
    from benchmarks.e2e import probe

    speed = probe.SpeedProbe()
    monkeypatch.setattr(speed, "once", lambda: 2 * probe.REFERENCE_PROBE_S)
    before = speed._last
    assert speed.factor(0.0) == pytest.approx(
        probe.REFERENCE_PROBE_S / ((before + 2 * probe.REFERENCE_PROBE_S) / 2)
    )
    # Both neighbours now read twice the reference time: half speed.
    assert speed.factor(1.0) == pytest.approx(0.5)


def test_statistics_helpers():
    assert quartile_spread([10.0, 10.0, 10.0]) == 0.0
    assert quartile_spread([9.0, 10.0, 11.0, 10.0]) > 0.0
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark it exits non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "e2e",
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "predict_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
