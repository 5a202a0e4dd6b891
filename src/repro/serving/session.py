"""Sealed inference sessions: warm-state prediction with zero per-call setup.

Every one-shot :func:`~repro.core.predictor.predict_proba_model` call
re-derives the prediction state from scratch — a fresh engine, the pool
norms, the stacked sigmoid arrays — before it touches the first test
instance.  That is fine for a single evaluation pass and wasteful for a
server answering millions of small requests (the ROADMAP north star, and
the same amortise-the-preparation argument Glasmachers makes for the
training side).

:class:`InferenceSession` *seals* a fitted
:class:`~repro.model.multiclass.MPSVMModel` once:

- the unified support-vector pool is shipped to the (simulated) device and
  a pool-side :class:`~repro.kernels.rows.KernelRowComputer` is built with
  its row norms resident, and with the pool's transposed GEMM column tiles
  resident on the host (:class:`~repro.backends.reference.HostOperand`);
- the stacked ``(A, B)`` sigmoid arrays and pair-position indices are
  materialized (:meth:`MPSVMModel.warm`);
- one persistent engine/telemetry context carries the whole session, so
  simulated time accumulates across calls like a real resident server
  process;
- optionally, a small LRU cache keeps recent test-vs-pool kernel tiles
  resident so repeated identical requests skip the kernel computation
  entirely.

Every serve call then runs only the per-request math, through the same
:class:`~repro.core.predictor.PredictionPipeline` as the one-shot path
with the warm pool as its decision-value source.  Together with the
row-pure stages underneath — kernel blocks in right-sized row tiles
(``repro.backends.reference.row_tile``: 8 to 256 rows, each computing a
row bitwise-identically) and the per-row multiply-then-segment-sum
decision values (``repro.multiclass.sv_sharing``) — that keeps session
outputs bitwise identical to one-shot predictions, batch composition
notwithstanding.  A dense model reloaded by ``load_model`` keeps its
dense pool, so it serves the same bits as the model that was saved.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.predictor import (
    PredictionPipeline,
    PredictorConfig,
    require_probability,
)
from repro.core.validation import check_predict_inputs
from repro.exceptions import NotFittedError, ValidationError
from repro.gpusim.device import scaled_tesla_p100
from repro.kernels.rows import KernelRowComputer
from repro.model.multiclass import MPSVMModel
from repro.sparse import CSRMatrix
from repro.sparse import ops as mops
from repro.telemetry.tracer import maybe_span

__all__ = ["InferenceSession", "SessionStats"]


@dataclass
class SessionStats:
    """Running totals of one session's serving activity."""

    n_calls: int = 0
    n_rows: int = 0
    tile_hits: int = 0
    tile_misses: int = 0
    seal_simulated_s: float = 0.0
    serve_simulated_s: float = 0.0
    last_call_simulated_s: float = 0.0

    @property
    def tile_hit_rate(self) -> float:
        """Fraction of kernel-tile lookups served from the resident cache."""
        total = self.tile_hits + self.tile_misses
        return self.tile_hits / total if total else 0.0


def _tile_key(data: mops.MatrixLike) -> bytes:
    """Content digest of a test tile (dense or CSR), for the tile cache."""
    digest = hashlib.blake2b(digest_size=16)
    if isinstance(data, CSRMatrix):
        digest.update(b"csr")
        digest.update(np.int64(data.shape[1]).tobytes())
        digest.update(np.ascontiguousarray(data.indptr).tobytes())
        digest.update(np.ascontiguousarray(data.indices).tobytes())
        digest.update(np.ascontiguousarray(data.data).tobytes())
    else:
        dense = np.asarray(data)
        digest.update(b"dense")
        digest.update(str(dense.dtype).encode())
        digest.update(np.int64(dense.shape[1]).tobytes())
        digest.update(np.ascontiguousarray(dense).tobytes())
    return digest.digest()


class InferenceSession:
    """A fitted model sealed for repeated low-latency serving.

    Parameters
    ----------
    model:
        The fitted :class:`MPSVMModel` to serve.
    config:
        Prediction-side configuration (device, SV sharing, coupling
        method, batch size, tracer).  Defaults to the paper's scaled
        Tesla P100 with sharing on.
    tile_cache_entries:
        Capacity (in tiles) of the resident test-kernel tile cache; 0
        (default) disables it.  A *tile* is one request chunk's full
        test-vs-pool kernel block, keyed by the chunk's content, so only
        repeated identical requests hit.  Hits return bitwise-identical
        blocks while skipping the kernel computation and its simulated
        cost.

    Results from :meth:`predict`, :meth:`predict_proba` and
    :meth:`decision_function` are bitwise-equal to the one-shot
    ``predict_*_model`` functions on the same inputs.
    """

    def __init__(
        self,
        model: MPSVMModel,
        config: Optional[PredictorConfig] = None,
        *,
        tile_cache_entries: int = 0,
    ) -> None:
        if not isinstance(model, MPSVMModel):
            raise NotFittedError(
                "InferenceSession seals a fitted MPSVMModel; got "
                f"{type(model).__name__} (fit an estimator and pass its "
                "model_, or use InferenceSession.from_estimator)"
            )
        if tile_cache_entries < 0:
            raise ValidationError(
                f"tile_cache_entries must be >= 0, got {tile_cache_entries}"
            )
        self.model = model.warm()
        self.config = (
            config
            if config is not None
            else PredictorConfig(device=scaled_tesla_p100())
        )
        self._engine = self.config.make_engine()
        self._tracer = self.config.tracer
        self.stats = SessionStats()
        self._tile_cache: "OrderedDict[bytes, np.ndarray]" = OrderedDict()
        self._tile_cache_entries = int(tile_cache_entries)

        with maybe_span(
            self._tracer,
            "serve_seal",
            clock=self._engine.clock,
            n_pool=model.sv_pool.n_pool,
            n_classes=model.n_classes,
        ) as span:
            # Ship the deduplicated pool to the device once, for the whole
            # session — the one-shot path implicitly assumes a resident
            # model and never pays this; a server pays it exactly once.
            self._engine.transfer(model.sv_pool.pool_nbytes, category="transfer")
            self._computer = KernelRowComputer(
                self._engine,
                model.kernel,
                model.sv_pool.pool_data,
                category="decision_values",
            )
            self._computer.warm()  # pool norms and tiles resident from now on
            span.set(simulated_seconds=self._engine.clock.elapsed_s)
        self._pipeline = PredictionPipeline(
            self._engine, self.model, self.config, self._chunk_decisions
        )
        self.stats.seal_simulated_s = self._engine.clock.elapsed_s

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_estimator(
        cls, estimator: object, *, tile_cache_entries: int = 0
    ) -> "InferenceSession":
        """Seal a fitted estimator (e.g. :class:`~repro.GMPSVC`).

        Reuses the estimator's own prediction configuration (device, SV
        sharing, coupling method, tracer).
        """
        model = getattr(estimator, "model_", None)
        if model is None:
            raise NotFittedError(
                f"{type(estimator).__name__} is not fitted yet; call fit() "
                "before sealing an InferenceSession"
            )
        config = estimator._predictor_config()
        config.tracer = getattr(estimator, "tracer", None)
        return cls(model, config, tile_cache_entries=tile_cache_entries)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The session's persistent simulated-device engine."""
        return self._engine

    @property
    def n_features(self) -> int:
        """Feature count requests must match."""
        return self.model.n_features

    @property
    def simulated_seconds(self) -> float:
        """Total simulated device seconds accumulated by this session."""
        return self._engine.clock.elapsed_s

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def predict_proba(self, X: object) -> np.ndarray:
        """Multi-class probabilities, shape ``(m, n_classes)``."""
        data = check_predict_inputs(X, self.n_features)
        require_probability(self.model)
        return self._serve("serve_proba", data, self._pipeline.probabilities)

    def predict(self, X: object) -> np.ndarray:
        """Predicted class labels (argmax probability when available)."""
        data = check_predict_inputs(X, self.n_features)
        return self._serve("serve_labels", data, self._pipeline.labels)

    def decision_function(self, X: object) -> np.ndarray:
        """Raw per-SVM decision values, shape ``(m, n_svms)``."""
        data = check_predict_inputs(X, self.n_features)
        return self._serve(
            "serve_decisions", data, self._chunk_decisions, transfer=False
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _serve(
        self,
        name: str,
        data: mops.MatrixLike,
        step: Callable[[mops.MatrixLike], np.ndarray],
        *,
        transfer: bool = True,
    ) -> np.ndarray:
        """One serve call: copy the rows in, run ``step``, book the call.

        Raw decision values skip the copy, as the one-shot
        :func:`~repro.core.predictor.decision_matrix` does.
        """
        engine = self._engine
        sim_start = engine.clock.elapsed_s
        if transfer:
            engine.transfer(mops.matrix_nbytes(data), category="transfer")
        m = mops.n_rows(data)
        with maybe_span(self._tracer, name, clock=engine.clock, n_instances=m) as span:
            result = step(data)
            simulated_s = engine.clock.elapsed_s - sim_start
            span.set(simulated_seconds=simulated_s)
        self.stats.n_calls += 1
        self.stats.n_rows += int(m)
        self.stats.serve_simulated_s += simulated_s
        self.stats.last_call_simulated_s = simulated_s
        return result

    def _chunk_decisions(self, chunk: mops.MatrixLike) -> np.ndarray:
        """Decision values for one chunk, through the warm pool computer.

        With the tile cache enabled (and SV sharing on), the full
        test-vs-pool kernel block is looked up by the chunk's content
        digest first; hits skip the kernel computation entirely and charge
        nothing — the block is already resident.
        """
        pool = self.model.sv_pool
        if self.config.sv_sharing and self._tile_cache_entries:
            key = _tile_key(chunk)
            block = self._tile_cache.get(key)
            if block is not None:
                self._tile_cache.move_to_end(key)
                self.stats.tile_hits += 1
            else:
                self.stats.tile_misses += 1
                block = self._computer.block(chunk, category="decision_values")
                self._tile_cache[key] = block
                while len(self._tile_cache) > self._tile_cache_entries:
                    self._tile_cache.popitem(last=False)
            return pool.decision_values_from_block(
                self._engine, block, category="decision_values"
            )
        return pool.decision_values(
            self._engine,
            self.model.kernel,
            chunk,
            shared=self.config.sv_sharing,
            category="decision_values",
            computer=self._computer,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InferenceSession(n_classes={self.model.n_classes}, "
            f"n_pool={self.model.sv_pool.n_pool}, "
            f"calls={self.stats.n_calls})"
        )
