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
  its row norms resident;
- the stacked ``(A, B)`` sigmoid arrays and pair-position indices are
  materialized (:meth:`MPSVMModel.warm`);
- one persistent engine/telemetry context carries the whole session, so
  simulated time accumulates across calls like a real resident server
  process;
- optionally, a small LRU cache keeps recent test-vs-pool kernel tiles
  resident so repeated identical requests skip the kernel computation
  entirely.

Every serve call then runs only the per-request math, through exactly the
same numeric tail as the one-shot path
(:func:`~repro.core.predictor.probabilities_from_decisions`), which —
together with the fixed-shape tiled products underneath
(``repro.backends.reference.MATMUL_TILE_ROWS``) — keeps session outputs bitwise
identical to one-shot predictions, batch composition notwithstanding.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.predictor import (
    PredictorConfig,
    batch_budget_rows,
    probabilities_from_decisions,
)
from repro.core.validation import check_predict_inputs
from repro.exceptions import NotFittedError, ValidationError
from repro.gpusim.device import scaled_tesla_p100
from repro.kernels.rows import KernelRowComputer
from repro.model.multiclass import MPSVMModel
from repro.multiclass.ova import ova_positions
from repro.multiclass.voting import ovo_vote
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
    per_call_simulated_s: list = field(default_factory=list)

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
            self._computer.norms()  # pool norms resident from now on
            span.set(simulated_seconds=self._engine.clock.elapsed_s)
        self._budget_rows = batch_budget_rows(self.config, model)
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
        if not self.model.probability:
            raise NotFittedError(
                "model was trained without probability output; refit with "
                "probability=True"
            )
        return self._serve_proba(data)

    def predict(self, X: object) -> np.ndarray:
        """Predicted class labels (argmax probability when available)."""
        data = check_predict_inputs(X, self.n_features)
        if self.model.probability:
            probabilities = self._serve_proba(data)
            positions = np.argmax(probabilities, axis=1)
            return self.model.labels_from_positions(positions)
        decisions = self._serve_decisions(data, name="serve_labels")
        if self.model.strategy == "ova":
            positions = ova_positions(decisions)
        else:
            positions = ovo_vote(decisions, self.model.pairs, self.model.n_classes)
        return self.model.labels_from_positions(positions)

    def decision_function(self, X: object) -> np.ndarray:
        """Raw per-SVM decision values, shape ``(m, n_svms)``."""
        data = check_predict_inputs(X, self.n_features)
        return self._serve_decisions(
            data, name="serve_decisions", transfer=False
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _serve_proba(self, data: mops.MatrixLike) -> np.ndarray:
        engine = self._engine
        sim_start = engine.clock.elapsed_s
        engine.transfer(mops.matrix_nbytes(data), category="transfer")
        m = mops.n_rows(data)
        probabilities = np.empty((m, self.model.n_classes))
        batch = (
            self._budget_rows
            if self.config.batch_size is not None
            else max(1, min(m, self._budget_rows))
        )
        with maybe_span(
            self._tracer,
            "serve_proba",
            clock=engine.clock,
            n_instances=m,
            batch_size=batch,
        ) as span:
            for start in range(0, m, batch):
                stop = min(start + batch, m)
                chunk = (
                    data
                    if start == 0 and stop == m
                    else mops.take_rows(data, np.arange(start, stop, dtype=np.int64))
                )
                decisions = self._chunk_decisions(chunk)
                probabilities[start:stop] = probabilities_from_decisions(
                    engine,
                    self.model,
                    decisions,
                    coupling_method=self.config.coupling_method,
                )
            span.set(simulated_seconds=engine.clock.elapsed_s - sim_start)
        self._note_call(m, engine.clock.elapsed_s - sim_start)
        return probabilities

    def _serve_decisions(
        self, data: mops.MatrixLike, *, name: str, transfer: bool = True
    ) -> np.ndarray:
        engine = self._engine
        sim_start = engine.clock.elapsed_s
        if transfer:
            engine.transfer(mops.matrix_nbytes(data), category="transfer")
        with maybe_span(
            self._tracer,
            name,
            clock=engine.clock,
            n_instances=mops.n_rows(data),
        ) as span:
            decisions = self._chunk_decisions(data)
            span.set(simulated_seconds=engine.clock.elapsed_s - sim_start)
        self._note_call(mops.n_rows(data), engine.clock.elapsed_s - sim_start)
        return decisions

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

    def _note_call(self, n_rows: int, simulated_s: float) -> None:
        self.stats.n_calls += 1
        self.stats.n_rows += int(n_rows)
        self.stats.serve_simulated_s += simulated_s
        self.stats.per_call_simulated_s.append(simulated_s)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InferenceSession(n_classes={self.model.n_classes}, "
            f"n_pool={self.model.sv_pool.n_pool}, "
            f"calls={self.stats.n_calls})"
        )
