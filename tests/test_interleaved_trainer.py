"""Parity and telemetry tests for the interleaved concurrent trainer.

The wave driver (:mod:`repro.core.interleave`) must be an *execution*
optimization only: fusing kernel launches across concurrently-running
binary SVMs and reading the timeline off executed waves may change the
simulated cost accounting, but never a single bit of the trained model.
These tests pin that contract across class counts, storage formats and
sharing modes, and check that the reported concurrency numbers really
come from the driver's wave trace.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.backends.reference import DENSE_HOST_MAX_COLS
from repro.core.trainer import TrainerConfig, train_multiclass
from repro.data import gaussian_blobs
from repro.exceptions import ValidationError
from repro.gpusim.device import scaled_tesla_p100
from repro.kernels.functions import kernel_from_name
from repro.sparse import CSRMatrix


def make_problem(n_classes, *, n_per_class=40, seed=11, sparse=False):
    x, y = gaussian_blobs(
        n=n_per_class * n_classes, n_features=6, n_classes=n_classes, seed=seed
    )
    if sparse:
        x = np.where(np.abs(x) < 0.4, 0.0, x)  # some genuine zeros
        x = CSRMatrix.from_dense(x)
    return x, y


def train(
    x,
    y,
    *,
    concurrent=True,
    share=True,
    max_concurrent=None,
    probability=True,
    cv_folds=0,
):
    config = TrainerConfig(
        device=scaled_tesla_p100(),
        solver="batched",
        concurrent=concurrent,
        share_kernel_values=share,
        probability=probability,
        probability_cv_folds=cv_folds,
        max_concurrent_svms=max_concurrent,
    )
    kernel = kernel_from_name("gaussian", gamma=0.4)
    return train_multiclass(config, x, y, kernel, 10.0)


def assert_models_bitwise_equal(model_a, model_b):
    """Every trained artifact identical to the last bit."""
    assert len(model_a.records) == len(model_b.records)
    for rec_a, rec_b in zip(model_a.records, model_b.records):
        assert (rec_a.s, rec_a.t) == (rec_b.s, rec_b.t)
        assert rec_a.iterations == rec_b.iterations
        assert np.array_equal(rec_a.global_sv_indices, rec_b.global_sv_indices)
        assert np.array_equal(rec_a.coefficients, rec_b.coefficients)
        assert rec_a.bias == rec_b.bias
        assert rec_a.objective == rec_b.objective
        assert rec_a.training_error == rec_b.training_error
        if rec_a.sigmoid is None:
            assert rec_b.sigmoid is None
        else:
            assert rec_a.sigmoid.a == rec_b.sigmoid.a
            assert rec_a.sigmoid.b == rec_b.sigmoid.b
    pool_a, pool_b = model_a.sv_pool, model_b.sv_pool
    assert np.array_equal(pool_a.pool_global_indices, pool_b.pool_global_indices)


class TestBitwiseParity:
    """Interleaved training is bitwise identical to the sequential path."""

    @pytest.mark.parametrize("n_classes", [2, 3, 5, 10])
    def test_dense_parity_across_class_counts(self, n_classes):
        x, y = make_problem(n_classes, n_per_class=24)
        model_i, _ = train(x, y)
        model_s, _ = train(x, y, concurrent=False)
        assert_models_bitwise_equal(model_i, model_s)

    @pytest.mark.parametrize("n_classes", [3, 5])
    def test_sparse_parity(self, n_classes):
        x, y = make_problem(n_classes, sparse=True)
        model_i, _ = train(x, y)
        model_s, _ = train(x, y, concurrent=False)
        assert_models_bitwise_equal(model_i, model_s)

    @pytest.mark.parametrize("share", [True, False])
    def test_narrow_csr_parity_at_varied_row_density(self, share):
        """Non-integer CSR rows 1% to 90% dense, narrow enough for the
        dense host product: fused and unfused batches mix rows of every
        density, and the model must not move a bit."""
        x, y = gaussian_blobs(n=120, n_features=100, n_classes=3, seed=5)
        rng = np.random.default_rng(5)
        keep = rng.random(x.shape) < rng.uniform(0.01, 0.9, size=(x.shape[0], 1))
        keep[np.arange(x.shape[0]), rng.integers(0, x.shape[1], x.shape[0])] = True
        x = CSRMatrix.from_dense(np.where(keep, x, 0.0))
        assert x.shape[1] <= DENSE_HOST_MAX_COLS
        model_i, _ = train(x, y, share=share)
        model_s, _ = train(x, y, concurrent=False, share=share)
        assert_models_bitwise_equal(model_i, model_s)

    @pytest.mark.parametrize("share", [True, False])
    def test_parity_with_and_without_sharing(self, share):
        x, y = make_problem(4)
        model_i, report = train(x, y, share=share)
        model_s, _ = train(x, y, concurrent=False, share=share)
        assert_models_bitwise_equal(model_i, model_s)
        assert report.schedule_source == "wave_trace"

    def test_parity_under_concurrency_cap(self):
        x, y = make_problem(4)
        model_i, report = train(x, y, max_concurrent=2)
        model_s, _ = train(x, y, concurrent=False)
        assert_models_bitwise_equal(model_i, model_s)
        assert report.max_concurrency <= 2

    def test_parity_with_cv_sigmoids(self):
        x, y = make_problem(3)
        model_i, _ = train(x, y, cv_folds=3)
        model_s, _ = train(x, y, concurrent=False, cv_folds=3)
        assert_models_bitwise_equal(model_i, model_s)

    def test_sharing_stats_match_sequential(self):
        """Fused prefetching must not change the sharing economics."""
        x, y = make_problem(3)
        _, report_i = train(x, y)
        _, report_s = train(x, y, concurrent=False)
        assert report_i.sharing_hit_rate == report_s.sharing_hit_rate
        assert report_i.kernel_rows_computed == report_s.kernel_rows_computed


class TestWaveTrace:
    """Reported concurrency numbers come from the executed wave trace."""

    def test_schedule_source_labels(self):
        x, y = make_problem(3)
        _, report_i = train(x, y)
        _, report_s = train(x, y, concurrent=False)
        assert report_i.schedule_source == "wave_trace"
        assert report_s.schedule_source == "serial"
        assert report_s.wave_trace is None

    def test_classic_solver_trains_serially(self):
        # The classic solver has no resumable stepper to interleave, so
        # a concurrent config still trains (and reports) serially.
        x, y = make_problem(3)
        config = TrainerConfig(
            device=scaled_tesla_p100(),
            solver="classic",
            concurrent=True,
            share_kernel_values=False,
        )
        kernel = kernel_from_name("gaussian", gamma=0.4)
        _, report = train_multiclass(config, x, y, kernel, 10.0)
        assert report.schedule_source == "serial"
        assert report.max_concurrency == 1
        assert report.concurrency_speedup == 1.0
        assert report.simulated_seconds == pytest.approx(
            sum(s["simulated_seconds"] for s in report.per_svm)
            + report.breakdown().get("transfer", 0.0)
        )

    def test_concurrency_numbers_derive_from_trace(self):
        x, y = make_problem(3)
        _, report = train(x, y)
        trace = report.wave_trace
        assert trace, "interleaved run must record its waves"
        assert report.max_concurrency == max(w["n_members"] for w in trace)
        serial = sum(w["serial_seconds"] for w in trace)
        concurrent = sum(w["concurrent_seconds"] for w in trace)
        assert report.concurrency_speedup == pytest.approx(serial / concurrent)
        assert report.concurrency_speedup > 1.0
        # Wave membership respects the packing rules at every wave.
        device = scaled_tesla_p100()
        for wave in trace:
            assert wave["n_members"] >= 1
            assert wave["blocks"] <= max(device.num_sms, wave["n_members"] * 7)

    def test_waves_shrink_as_solvers_finish(self):
        x, y = make_problem(3)
        _, report = train(x, y)
        trace = report.wave_trace
        finished = [name for wave in trace for name in wave["finished"]]
        assert sorted(finished) == sorted(
            {name for wave in trace for name in wave["members"]}
        )
        assert trace[-1]["n_members"] >= 1

    def test_interleaving_reduces_simulated_time(self):
        x, y = make_problem(3)
        _, report_i = train(x, y)
        _, report_s = train(x, y, concurrent=False)
        assert report_i.simulated_seconds < report_s.simulated_seconds

    def test_fused_prefetch_appears_in_trace(self):
        x, y = make_problem(3)
        _, report = train(x, y, share=True)
        assert sum(w["prefetch_segments"] for w in report.wave_trace) > 0

    def test_report_dict_round_trips_trace(self):
        x, y = make_problem(3)
        _, report = train(x, y)
        snapshot = report.to_dict()
        assert snapshot["schedule_source"] == "wave_trace"
        assert snapshot["max_concurrency"] == report.max_concurrency
        assert len(snapshot["wave_trace"]) == len(report.wave_trace)

    def test_single_pair_falls_back_to_serial(self):
        x, y = make_problem(2)
        _, report = train(x, y)
        assert report.schedule_source == "serial"
        assert report.max_concurrency == 1

    def test_wave_spans_mirror_the_trace(self):
        """With tracing on, every executed wave emits a telemetry span whose
        attributes carry the same numbers the report derives its
        concurrency stats from."""
        from repro.telemetry.tracer import Tracer

        x, y = make_problem(3)
        tracer = Tracer()
        config = TrainerConfig(
            device=scaled_tesla_p100(),
            solver="batched",
            probability=False,
            tracer=tracer,
        )
        kernel = kernel_from_name("gaussian", gamma=0.4)
        from repro.core.trainer import train_multiclass

        _, report = train_multiclass(config, x, y, kernel, 10.0)
        spans = [r for r in tracer.to_records() if r["name"] == "interleave.wave"]
        assert len(spans) == len(report.wave_trace)
        spans.sort(key=lambda r: r["attrs"]["wave"])
        for record, wave in zip(spans, report.wave_trace):
            assert record["attrs"]["wave"] == wave["wave"]
            assert record["attrs"]["n_members"] == wave["n_members"]
            assert record["attrs"]["serial_seconds"] == wave["serial_seconds"]
            assert record["attrs"]["concurrent_seconds"] == (
                wave["concurrent_seconds"]
            )
        assert report.max_concurrency == max(
            r["attrs"]["n_members"] for r in spans
        )


class TestConfigValidation:
    """The packing knobs reject values that would corrupt wave accounting."""

    def _config(self, **overrides):
        return TrainerConfig(device=scaled_tesla_p100(), **overrides)

    @pytest.mark.parametrize("blocks", [0, -1, -7])
    def test_blocks_per_svm_must_be_positive(self, blocks):
        with pytest.raises(ValidationError, match="blocks_per_svm"):
            self._config(blocks_per_svm=blocks)

    @pytest.mark.parametrize("cap", [0, -2])
    def test_max_concurrent_svms_must_be_positive(self, cap):
        with pytest.raises(ValidationError, match="max_concurrent_svms"):
            self._config(max_concurrent_svms=cap)

    def test_unknown_concurrency_mode_rejected(self):
        # Concurrency is always the executed wave schedule; the old
        # concurrency_mode option is an unknown key like any other.
        for mode in ("speculative", "posthoc", "interleaved"):
            with pytest.raises(ValidationError, match="concurrency_mode"):
                self._config(concurrency_mode=mode)

    def test_valid_configs_accepted(self):
        self._config(blocks_per_svm=1, max_concurrent_svms=1)
        self._config(concurrent=False)


class TestStackedSelection:
    """The driver runs every wave's selection half as one stacked call."""

    @staticmethod
    def _count_calls(monkeypatch):
        """Per ``begin_rounds`` call (one per wave), its selection calls."""
        from repro.core import interleave
        from repro.solvers import batch_smo

        waves: list[list[tuple[int, int]]] = []
        begin_rounds, select = interleave.begin_rounds, batch_smo.select_new_violators

        def counting_begin_rounds(sessions):
            waves.append([])
            return begin_rounds(sessions)

        def counting_select(selections):
            picks = select(selections)
            # (members, how many came back empty with a retained set)
            emptied = sum(
                p.size == 0 and s.exclude is not None for s, p in zip(selections, picks)
            )
            waves[-1].append((len(selections), emptied))
            return picks

        monkeypatch.setattr(interleave, "begin_rounds", counting_begin_rounds)
        monkeypatch.setattr(batch_smo, "select_new_violators", counting_select)
        return waves

    def test_one_selection_call_per_wave(self, monkeypatch):
        waves = self._count_calls(monkeypatch)
        x, y = make_problem(4)
        _, report = train(x, y, probability=False)
        assert len(waves) == len(report.wave_trace) > 1
        assert all(len(calls) == 1 for calls in waves)
        assert [calls[0][1] for calls in waves] == [0] * len(waves)
        assert max(calls[0][0] for calls in waves) == report.max_concurrency

    def test_reselection_is_one_more_call_for_just_those_members(self, monkeypatch):
        # q == working set == every instance of a pair: once the FIFO holds
        # all of them, the retained set excludes every violator and those
        # members reselect in one second call.
        waves = self._count_calls(monkeypatch)
        x, y = make_problem(3, n_per_class=6)
        config = TrainerConfig(
            device=scaled_tesla_p100(), solver="batched", probability=False,
            working_set_size=12, new_per_round=12,
        )
        kernel = kernel_from_name("gaussian", gamma=0.4)
        model, report = train_multiclass(config, x, y, kernel, 10.0)
        assert len(waves) == len(report.wave_trace)
        retried = 0
        for calls in waves:
            (members, emptied), *again = calls
            assert [c[0] for c in again] == ([emptied] if emptied else [])
            retried += emptied
        assert retried > 0
        sequential, _ = train_multiclass(
            replace(config, concurrent=False), x, y, kernel, 10.0
        )
        assert_models_bitwise_equal(model, sequential)
