"""The configurable prediction pipeline (Sections 3.2 Phase (iii) / 3.3.3).

Prediction runs in three stages, matching Figure 2 and the Figure 12
breakdown:

1. **decision values** — kernel blocks between the test batch and support
   vectors, then per-SVM weighted sums (Eq. 11).  With ``sv_sharing`` the
   test-vs-pool block is computed once and sliced per SVM (GMP-SVM);
   without it each binary SVM recomputes its own block (the GPU baseline's
   "one binary SVM at a time").
2. **sigmoid** — each pair's local probability via Eq. 12.
3. **coupling** — Wu-Lin-Weng multi-class probabilities via Eq. 15.

:class:`PredictionPipeline` owns stages 2-3, their chunking and the label
rule for every prediction path; a path supplies only stage 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.validation import strict_config
from repro.exceptions import NotFittedError, ValidationError
from repro.gpusim.device import DeviceSpec
from repro.gpusim.engine import Engine, make_engine
from repro.kernels.rows import KernelRowComputer
from repro.model.multiclass import MPSVMModel
from repro.multiclass.ova import ova_positions
from repro.multiclass.voting import ovo_vote
from repro.perf.report import PredictionReport
from repro.probability.pairwise import couple_batch
from repro.probability.platt import sigmoid_predict
from repro.sparse import ops as mops
from repro.telemetry.tracer import Tracer, maybe_span

__all__ = [
    "PredictionPipeline",
    "PredictorConfig",
    "decision_matrix",
    "labels_from_probabilities",
    "probabilities_from_decisions",
    "predict_proba_model",
    "predict_labels_model",
    "require_probability",
]


@strict_config
@dataclass
class PredictorConfig:
    """Prediction-side knobs distinguishing the paper's systems."""

    device: DeviceSpec
    flop_efficiency: Optional[float] = None
    bandwidth_efficiency: float = 1.0
    sv_sharing: bool = True  # Section 3.3.3
    coupling_method: str = "eq15"
    # None = derive from device memory: the test-vs-SV kernel block must
    # fit alongside everything else ("if n x k(k-1)/2 is larger than the
    # maximum number of blocks that the GPU can support, we divide the
    # blocks into a few groups and launch one group of blocks at a time").
    batch_size: Optional[int] = None
    # Optional hierarchical span tracer; off (None) by default, in which
    # case prediction does no telemetry bookkeeping.
    tracer: Optional[Tracer] = None
    # Compute backend: None (the float64 reference), a backend name
    # ("numpy64" or "numpy32") or a ComputeBackend instance.
    backend: Optional[object] = None

    def __post_init__(self) -> None:
        if self.batch_size is not None and self.batch_size <= 0:
            raise ValidationError(
                f"batch_size must be a positive integer or None (derive from "
                f"device memory), got {self.batch_size}"
            )
        if self.backend is not None:
            from repro.backends import resolve_backend

            resolve_backend(self.backend)

    def make_engine(self) -> Engine:
        """Engine bound to this configuration's device and efficiencies."""
        return make_engine(
            self.device,
            flop_efficiency=self.flop_efficiency,
            bandwidth_efficiency=self.bandwidth_efficiency,
            backend=self.backend,
        )


def decision_matrix(
    engine: Engine,
    model: MPSVMModel,
    test_data: mops.MatrixLike,
    *,
    sv_sharing: bool = True,
    computer: Optional[KernelRowComputer] = None,
) -> np.ndarray:
    """Decision values of each test instance under each binary SVM.

    ``computer`` optionally supplies a prebuilt pool-side kernel-row
    computer (a sealed serving session's warm state); it must be bound to
    ``engine`` and to the model's pool data.
    """
    return model.sv_pool.decision_values(
        engine,
        model.kernel,
        test_data,
        shared=sv_sharing,
        category="decision_values",
        computer=computer,
    )


def probabilities_from_decisions(
    engine: Engine,
    model: MPSVMModel,
    decisions: np.ndarray,
    *,
    coupling_method: str = "eq15",
) -> np.ndarray:
    """Multi-class probabilities from a decision-value batch.

    This is the numeric tail :meth:`PredictionPipeline.probabilities` runs
    per chunk: pair sigmoids in one broadcast pass, then Wu-Lin-Weng
    coupling (or the OvA renormalisation) over the whole chunk.
    """
    if model.strategy == "ova":
        return _ova_probabilities(engine, model, decisions)
    r_batch = _pairwise_estimates(engine, model, decisions)
    return couple_batch(engine, r_batch, method=coupling_method)


def require_probability(model: MPSVMModel) -> None:
    """Reject probability output from a model trained without it."""
    if not model.probability:
        raise NotFittedError(
            "model was trained without probability output; refit with "
            "probability=True"
        )


def labels_from_probabilities(
    model: MPSVMModel, probabilities: np.ndarray
) -> np.ndarray:
    """Labels of the most probable classes (LibSVM's ``-b 1`` behaviour)."""
    return model.labels_from_positions(np.argmax(probabilities, axis=1))


@dataclass(frozen=True)
class PredictionPipeline:
    """The prediction steps after the decision values, for every path.

    One-shot ``predict_*_model`` and a sealed serving session differ
    only in ``decisions``, the source of a row block's decision values:
    :func:`decision_matrix` or the session's tile-cached warm pool.  Chunk
    boundaries, the probability tail and the label rule live here once,
    which is what keeps those paths bitwise equal.
    """

    engine: Engine
    model: MPSVMModel
    config: PredictorConfig
    decisions: Callable[[mops.MatrixLike], np.ndarray]

    def probabilities(self, data: mops.MatrixLike) -> np.ndarray:
        """Multi-class probabilities of ``data``, one chunk at a time."""
        m = mops.n_rows(data)
        batch = _resolve_batch(self.config, self.model, m)
        probabilities = np.empty((m, self.model.n_classes))
        for start in range(0, m, batch):
            stop = min(start + batch, m)
            with maybe_span(
                self.config.tracer,
                "predict_batch",
                clock=self.engine.clock,
                start=start,
                stop=stop,
            ):
                probabilities[start:stop] = probabilities_from_decisions(
                    self.engine,
                    self.model,
                    self.decisions(_slice_rows(data, start, stop)),
                    coupling_method=self.config.coupling_method,
                )
        return probabilities

    def labels(
        self, data: mops.MatrixLike, *, by_probability: Optional[bool] = None
    ) -> np.ndarray:
        """Predicted labels: argmax probability, else OvA max or OvO vote.

        ``by_probability`` defaults to whether the model has probability
        output; voting runs over the whole batch's decision values.
        """
        if by_probability is None:
            by_probability = self.model.probability
        if by_probability:
            return labels_from_probabilities(self.model, self.probabilities(data))
        decisions = self.decisions(data)
        if self.model.strategy == "ova":
            positions = ova_positions(decisions)
        else:
            positions = ovo_vote(decisions, self.model.pairs, self.model.n_classes)
        return self.model.labels_from_positions(positions)


def predict_proba_model(
    config: PredictorConfig,
    model: MPSVMModel,
    test_data: mops.MatrixLike,
) -> tuple[np.ndarray, PredictionReport]:
    """Multi-class probabilities, shape ``(m, n_classes)``; rows sum to 1."""
    require_probability(model)
    return _predict_one_shot(
        config, model, test_data, "predict_proba", PredictionPipeline.probabilities
    )


def predict_labels_model(
    config: PredictorConfig,
    model: MPSVMModel,
    test_data: mops.MatrixLike,
    *,
    use_probability: Optional[bool] = None,
) -> tuple[np.ndarray, PredictionReport]:
    """Predicted class labels.

    Probabilistic models predict ``argmax`` of the coupled probabilities
    (LibSVM's ``-b 1`` behaviour); non-probabilistic models use pairwise
    voting.
    """
    if use_probability:
        require_probability(model)
    return _predict_one_shot(
        config,
        model,
        test_data,
        "predict_labels",
        lambda pipeline, data: pipeline.labels(
            data, by_probability=use_probability
        ),
    )


def _predict_one_shot(
    config: PredictorConfig,
    model: MPSVMModel,
    test_data: mops.MatrixLike,
    span_name: str,
    step: Callable[[PredictionPipeline, mops.MatrixLike], np.ndarray],
) -> tuple[np.ndarray, PredictionReport]:
    """Run ``step`` on a fresh engine that first receives the test rows."""
    engine = config.make_engine()
    engine.transfer(mops.matrix_nbytes(test_data), category="transfer")
    pipeline = PredictionPipeline(
        engine,
        model,
        config,
        lambda chunk: decision_matrix(
            engine, model, chunk, sv_sharing=config.sv_sharing
        ),
    )
    m = mops.n_rows(test_data)
    with maybe_span(
        config.tracer,
        span_name,
        clock=engine.clock,
        n_instances=m,
        sv_sharing=config.sv_sharing,
    ) as predict_span:
        result = step(pipeline, test_data)
        predict_span.set(simulated_seconds=engine.clock.elapsed_s)
    report = PredictionReport(
        simulated_seconds=engine.clock.elapsed_s,
        clock=engine.clock,
        counters=engine.counters,
        device_name=config.device.name,
        n_instances=m,
        sv_sharing=config.sv_sharing,
    )
    return result, report


def _resolve_batch(config: PredictorConfig, model: MPSVMModel, m: int) -> int:
    """Rows per chunk for an ``m``-row call.

    The dominant resident structure is the test-vs-pool kernel block
    (``rows x n_pool`` float64); unless ``batch_size`` fixes the chunk, it
    is held to a quarter of device memory, mirroring the paper's
    group-at-a-time launching.
    """
    if config.batch_size is not None:
        return config.batch_size
    per_row = max(model.sv_pool.n_pool * 8, 1)
    return max(1, min(m, config.device.global_mem_bytes // 4 // per_row))


def _pairwise_estimates(
    engine: Engine, model: MPSVMModel, decisions: np.ndarray
) -> np.ndarray:
    """Local probabilities r[s, t] per instance, shape ``(m, k, k)``.

    All k(k-1)/2 pair sigmoids are applied in one broadcast pass over the
    decision matrix using the model's stacked (A, B) arrays — one launch
    for the whole batch instead of one per pair (Phase (iii)(2) of the
    paper runs these concurrently).  Elementwise math is identical to the
    per-column loop it replaces.
    """
    m = decisions.shape[0]
    k = model.n_classes
    a, b = model.sigmoid_params()
    s_pos, t_pos = model.pair_positions()
    engine.elementwise("sigmoid", m * a.size, flops_per_element=6, arrays_read=1)
    p = sigmoid_predict(decisions, a, b)
    r = np.full((m, k, k), 0.5)
    r[:, s_pos, t_pos] = p
    r[:, t_pos, s_pos] = 1.0 - p
    return r


def _ova_probabilities(
    engine: Engine, model: MPSVMModel, decisions: np.ndarray
) -> np.ndarray:
    """Normalised per-class sigmoid estimates (the OvA heuristic).

    One-vs-all has no pairwise coupling problem; each class's sigmoid
    gives an independent P(class | x), renormalised onto the simplex in a
    single broadcast pass.  Rows whose sigmoids all underflow to zero
    carry no information, so they fall back to the uniform distribution
    instead of a zero vector.
    """
    m, k = decisions.shape
    a, b = model.sigmoid_params()
    class_pos, _ = model.pair_positions()
    engine.elementwise("sigmoid", m * k, flops_per_element=6, arrays_read=1)
    raw = np.empty((m, k))
    raw[:, class_pos] = sigmoid_predict(decisions, a, b)
    engine.elementwise("coupling", m * k, flops_per_element=2, arrays_read=1)
    totals = raw.sum(axis=1, keepdims=True)
    degenerate = totals[:, 0] == 0
    totals[degenerate] = 1.0
    probabilities = raw / totals
    probabilities[degenerate] = 1.0 / k
    return probabilities


def _slice_rows(data: mops.MatrixLike, start: int, stop: int) -> mops.MatrixLike:
    if start == 0 and stop == mops.n_rows(data):
        return data
    return mops.take_rows(data, np.arange(start, stop, dtype=np.int64))
