"""Parity and bugfix tests for the batched prediction-side probability math.

The batched paths (``gaussian_elimination_batch``, the vectorized
``couple_batch``, the broadcast sigmoid in the predictor) must reproduce
the per-instance implementations to float64 round-off; these tests pin
that, plus the prediction-path bugfixes that rode along (batch-size
validation, OvA degenerate rows, truthful sigmoid convergence, charged
ridge retries).
"""

import warnings

import numpy as np
import pytest

from repro.backends import gaussian_elimination_batch
from repro.core import predictor as predictor_mod
from repro.core.predictor import PredictorConfig, _resolve_batch
from repro.exceptions import ConvergenceWarning, SolverError, ValidationError
from repro.gpusim import make_engine, scaled_tesla_p100
from repro.gpusim.counters import OpCounters
from repro.probability import (
    SigmoidModel,
    couple_batch,
    couple_probabilities,
    fit_sigmoid,
    gaussian_elimination,
    pairwise_matrix_from_estimates,
    sigmoid_predict,
)
from repro.probability.pairwise import RIDGE_RETRY_EVENT

PARITY_ATOL = 1e-12


def fresh_engine():
    return make_engine(scaled_tesla_p100())


def random_r_batch(rng, m, k, low=0.05, high=0.95):
    upper_s, upper_t = np.triu_indices(k, 1)
    batch = np.full((m, k, k), 0.5)
    values = rng.uniform(low, high, size=(m, upper_s.size))
    batch[:, upper_s, upper_t] = values
    batch[:, upper_t, upper_s] = 1.0 - values
    return batch


class TestBatchedElimination:
    def test_matches_scalar_bitwise(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 11))
            m = int(rng.integers(1, 8))
            a = rng.normal(size=(m, n, n)) + n * np.eye(n)
            b = rng.normal(size=(m, n))
            x = gaussian_elimination_batch(a, b)
            for i in range(m):
                assert np.array_equal(x[i], gaussian_elimination(a[i], b[i]))

    def test_shared_rhs_broadcasts(self, rng):
        a = rng.normal(size=(4, 3, 3)) + 3 * np.eye(3)
        ones = np.ones(3)
        x = gaussian_elimination_batch(a, ones)
        stacked = gaussian_elimination_batch(a, np.tile(ones, (4, 1)))
        assert np.array_equal(x, stacked)

    def test_empty_batch(self):
        x = gaussian_elimination_batch(np.empty((0, 4, 4)), np.ones(4))
        assert x.shape == (0, 4)
        x, singular = gaussian_elimination_batch(
            np.empty((0, 4, 4)), np.ones(4), on_singular="mask"
        )
        assert x.shape == (0, 4) and singular.shape == (0,)

    def test_singular_raise_names_batch_index(self):
        a = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 4.0]])])
        with pytest.raises(SolverError, match="batch index 1"):
            gaussian_elimination_batch(a, np.ones(2))

    def test_singular_mask_flags_only_bad_systems(self):
        a = np.stack([np.eye(3), np.ones((3, 3)), 2.0 * np.eye(3)])
        x, singular = gaussian_elimination_batch(
            a, np.ones(3), on_singular="mask"
        )
        assert singular.tolist() == [False, True, False]
        assert np.all(np.isnan(x[1]))
        assert np.array_equal(x[0], np.ones(3))
        assert np.array_equal(x[2], np.full(3, 0.5))

    def test_pivoting_within_batch(self):
        a = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        x = gaussian_elimination_batch(a, np.array([[2.0, 3.0]]))
        assert np.allclose(x[0], [3.0, 2.0])

    def test_shape_and_mode_validation(self):
        with pytest.raises(ValidationError):
            gaussian_elimination_batch(np.ones((2, 3, 4)), np.ones(3))
        with pytest.raises(ValidationError):
            gaussian_elimination_batch(np.ones((2, 3, 3)), np.ones((2, 4)))
        with pytest.raises(ValidationError):
            gaussian_elimination_batch(
                np.ones((1, 2, 2)), np.ones(2), on_singular="ignore"
            )

    def test_does_not_mutate_inputs(self, rng):
        a = rng.normal(size=(2, 3, 3)) + 3 * np.eye(3)
        b = rng.normal(size=(2, 3))
        a_copy, b_copy = a.copy(), b.copy()
        gaussian_elimination_batch(a, b)
        assert np.array_equal(a, a_copy) and np.array_equal(b, b_copy)


class TestCoupleBatchParity:
    def test_random_batches_match_per_instance(self, rng):
        for k in (2, 3, 5, 10):
            batch = random_r_batch(rng, 25, k)
            coupled = couple_batch(fresh_engine(), batch)
            engine = fresh_engine()
            for i in range(batch.shape[0]):
                single = couple_probabilities(engine, batch[i])
                assert np.allclose(coupled[i], single, atol=PARITY_ATOL)

    def test_near_degenerate_batches_match(self, rng):
        # r barely off 0.5 everywhere: Q is nearly rank-deficient, which
        # stresses the pivot-tolerance/ridge boundary on both paths.
        for k in (2, 3, 6):
            batch = random_r_batch(
                rng, 10, k, low=0.5 - 1e-9, high=0.5 + 1e-9
            )
            coupled = couple_batch(fresh_engine(), batch)
            engine = fresh_engine()
            for i in range(batch.shape[0]):
                single = couple_probabilities(engine, batch[i])
                assert np.allclose(coupled[i], single, atol=PARITY_ATOL)
            assert np.allclose(coupled, 1.0 / k, atol=1e-6)

    def test_k2_matches_local_estimate(self):
        batch = random_r_batch(np.random.default_rng(0), 8, 2)
        coupled = couple_batch(fresh_engine(), batch)
        assert np.allclose(coupled[:, 0], batch[:, 0, 1], atol=1e-6)

    def test_empty_batch(self):
        coupled = couple_batch(fresh_engine(), np.empty((0, 4, 4)))
        assert coupled.shape == (0, 4)

    def test_iterative_method_still_maps(self, rng):
        batch = random_r_batch(rng, 3, 3)
        vec = couple_batch(fresh_engine(), batch, method="iterative")
        engine = fresh_engine()
        for i in range(3):
            single = couple_probabilities(engine, batch[i], method="iterative")
            assert np.allclose(vec[i], single, atol=PARITY_ATOL)

    def test_validation(self):
        with pytest.raises(ValidationError):
            couple_batch(fresh_engine(), np.ones((2, 3, 4)))
        with pytest.raises(ValidationError):
            couple_batch(fresh_engine(), np.full((2, 1, 1), 0.5))
        with pytest.raises(ValidationError):
            couple_batch(fresh_engine(), np.full((2, 3, 3), 0.5), method="magic")

    def test_single_launch_charged_for_clean_batch(self, rng):
        engine = fresh_engine()
        couple_batch(engine, random_r_batch(rng, 50, 4))
        assert engine.counters.kernel_launches == 1
        assert engine.counters.events == {}


class TestRidgeRetryAccounting:
    def test_scalar_retries_are_charged_and_tallied(self):
        # Uniform r at k=2 gives an exactly singular Q: one clean solve
        # attempt plus one charged ridge retry.
        engine = fresh_engine()
        r = pairwise_matrix_from_estimates({(0, 1): 0.5}, 2)
        p = couple_probabilities(engine, r)
        assert np.allclose(p, 0.5)
        assert engine.counters.events[RIDGE_RETRY_EVENT] == 1
        assert engine.counters.kernel_launches == 2

    def test_batch_retries_only_singular_instances(self, rng):
        engine = fresh_engine()
        batch = random_r_batch(rng, 6, 3)
        batch[2] = 0.5  # uniform r gives a singular Q for instance 2 only
        batch[4] = 0.5
        coupled = couple_batch(engine, batch)
        assert np.allclose(coupled[2], 1.0 / 3.0)
        assert np.allclose(coupled[4], 1.0 / 3.0)
        assert engine.counters.events[RIDGE_RETRY_EVENT] == 2
        # One batched launch + one charged retry per singular instance.
        assert engine.counters.kernel_launches == 3
        loop_engine = fresh_engine()
        for i in range(batch.shape[0]):
            single = couple_probabilities(loop_engine, batch[i])
            assert np.allclose(coupled[i], single, atol=PARITY_ATOL)

    def test_event_counters_merge_snapshot_since_reset(self):
        counters = OpCounters()
        counters.count_event("coupling_ridge_retries", 2)
        snap = counters.snapshot()
        counters.count_event("coupling_ridge_retries")
        counters.count_event("other", 5)
        delta = counters.since(snap)
        assert delta.events == {"coupling_ridge_retries": 1, "other": 5}
        merged = OpCounters()
        merged.merge(counters)
        assert merged.events == counters.events
        counters.reset()
        assert counters.events == {}
        with pytest.raises(ValueError):
            counters.count_event("bad", -1)


class _StubModel:
    """Just enough of MPSVMModel for the predictor's probability helpers."""

    def __init__(self, records, n_classes, strategy="ovo"):
        self.records = records
        self.n_classes = n_classes
        self.strategy = strategy
        self._sigmoid_params = None
        self._pair_positions = None

    sigmoid_params = predictor_mod.MPSVMModel.sigmoid_params
    pair_positions = predictor_mod.MPSVMModel.pair_positions


class _Record:
    def __init__(self, s, t, sigmoid):
        self.s = s
        self.t = t
        self.sigmoid = sigmoid


def _pairwise_reference(model, decisions):
    """The pre-batching per-pair loop, kept as the parity oracle."""
    m = decisions.shape[0]
    k = model.n_classes
    r = np.full((m, k, k), 0.5)
    for column, record in enumerate(model.records):
        p = sigmoid_predict(
            decisions[:, column], record.sigmoid.a, record.sigmoid.b
        )
        r[:, record.s, record.t] = p
        r[:, record.t, record.s] = 1.0 - p
    return r


class TestPredictorBatching:
    def _ovo_model(self, rng, k):
        records = [
            _Record(
                s,
                t,
                SigmoidModel(
                    a=float(rng.normal(-2.0, 0.5)), b=float(rng.normal())
                ),
            )
            for s in range(k)
            for t in range(s + 1, k)
        ]
        return _StubModel(records, k)

    def test_pairwise_estimates_match_per_pair_loop(self, rng):
        for k in (2, 3, 6):
            model = self._ovo_model(rng, k)
            decisions = rng.normal(size=(17, len(model.records)))
            batched = predictor_mod._pairwise_estimates(
                fresh_engine(), model, decisions
            )
            assert np.allclose(
                batched, _pairwise_reference(model, decisions), atol=PARITY_ATOL
            )

    def test_pairwise_estimates_single_launch(self, rng):
        model = self._ovo_model(rng, 4)
        engine = fresh_engine()
        predictor_mod._pairwise_estimates(
            engine, model, rng.normal(size=(9, len(model.records)))
        )
        assert engine.counters.kernel_launches == 1

    def test_missing_sigmoid_raises(self, rng):
        model = self._ovo_model(rng, 3)
        model.records[1].sigmoid = None
        with pytest.raises(ValidationError, match=r"\(0,2\) has no sigmoid"):
            predictor_mod._pairwise_estimates(
                fresh_engine(), model, rng.normal(size=(2, 3))
            )

    def _ova_model(self, rng, k, a=-2.0):
        records = [
            _Record(s, -1, SigmoidModel(a=a, b=float(rng.normal())))
            for s in range(k)
        ]
        return _StubModel(records, k, strategy="ova")

    def test_ova_probabilities_match_per_class_loop(self, rng):
        k = 4
        model = self._ova_model(rng, k)
        decisions = rng.normal(size=(13, k))
        batched = predictor_mod._ova_probabilities(
            fresh_engine(), model, decisions
        )
        raw = np.empty((13, k))
        for column, record in enumerate(model.records):
            raw[:, record.s] = sigmoid_predict(
                decisions[:, column], record.sigmoid.a, record.sigmoid.b
            )
        assert np.allclose(
            batched, raw / raw.sum(axis=1, keepdims=True), atol=PARITY_ATOL
        )
        assert np.allclose(batched.sum(axis=1), 1.0)

    def test_ova_degenerate_row_falls_back_to_uniform(self, rng):
        # A huge positive A drives every sigmoid to exactly 0 for large
        # decision values; such a row must become uniform, not all-zero.
        k = 3
        model = self._ova_model(rng, k, a=1e4)
        decisions = np.full((2, k), 1.0)
        decisions[1] = 1e-6  # second row stays non-degenerate
        probabilities = predictor_mod._ova_probabilities(
            fresh_engine(), model, decisions
        )
        assert np.allclose(probabilities[0], 1.0 / k)
        assert probabilities.sum(axis=1) == pytest.approx([1.0, 1.0])


class TestResolveBatchValidation:
    def _config(self, batch_size):
        return PredictorConfig(device=scaled_tesla_p100(), batch_size=batch_size)

    def test_zero_batch_size_rejected(self):
        with pytest.raises(ValidationError, match="batch_size"):
            _resolve_batch(self._config(0), None, 10)

    def test_negative_batch_size_rejected(self):
        with pytest.raises(ValidationError, match="batch_size"):
            _resolve_batch(self._config(-4), None, 10)

    def test_positive_batch_size_passes_through(self):
        assert _resolve_batch(self._config(7), None, 10) == 7


class TestSigmoidConvergenceReporting:
    def _data(self, rng, n=40):
        values = rng.normal(size=n)
        labels = np.where(values + 0.3 * rng.normal(size=n) > 0, 1.0, -1.0)
        return values, labels

    def test_zero_iterations_reports_not_converged(self, gpu_engine, rng):
        values, labels = self._data(rng)
        model = fit_sigmoid(gpu_engine, values, labels, max_iterations=0)
        assert model.converged is False
        assert model.iterations == 0

    def test_negative_iterations_rejected(self, gpu_engine, rng):
        values, labels = self._data(rng)
        with pytest.raises(ValidationError, match="max_iterations"):
            fit_sigmoid(gpu_engine, values, labels, max_iterations=-1)

    def test_iteration_cap_warns_and_reports_not_converged(
        self, gpu_engine, rng
    ):
        values, labels = self._data(rng)
        with pytest.warns(ConvergenceWarning, match="iteration"):
            model = fit_sigmoid(gpu_engine, values, labels, max_iterations=1)
        assert model.converged is False

    def test_line_search_failure_warns(self, gpu_engine, rng, monkeypatch):
        from repro.probability import platt

        values, labels = self._data(rng)
        monkeypatch.setattr(platt, "_line_search", lambda *a, **k: None)
        with pytest.warns(ConvergenceWarning, match="line search"):
            model = fit_sigmoid(gpu_engine, values, labels)
        assert model.converged is False

    def test_successful_fit_is_quiet_and_converged(self, gpu_engine, rng):
        values, labels = self._data(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            model = fit_sigmoid(gpu_engine, values, labels)
        assert model.converged is True
