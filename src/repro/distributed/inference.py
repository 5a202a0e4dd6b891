"""Sharded inference over a simulated cluster.

Two ways to spread a sealed model across devices, trading throughput
against per-device memory:

- ``replicated`` — every device seals the *full* model (one
  :class:`~repro.serving.session.InferenceSession` each) and calls are
  routed round-robin across the healthy replicas.  Memory per device is
  the whole pool; throughput scales with devices because independent
  requests serve concurrently — a :class:`~repro.server.Dispatcher`
  over the router queues and fuses requests with one lane per device.
- ``pair_partitioned`` — the k(k-1)/2 binary SVMs are placed onto devices
  with the same planner training uses; each device holds only the pool
  rows *its* SVMs reference.  A request fans out to every shard, each
  shard computes its decision-value columns, and the partial decision
  values are reduced to the root device over the peer links
  (``shard_reduce`` span), where the shared probability tail
  (:func:`~repro.core.predictor.probabilities_from_decisions`) runs once.
  Memory per device shrinks toward ``1/n``-th of the pool; a single
  request's kernel work is split across devices.

**Bitwise parity.**  Every kernel block element is a pure function of its
(test row, pool row) pair — both matmul axes go through the fixed-tile
discipline of :mod:`repro.backends.reference` — so a shard computing ``K(x, sv)``
against its sub-pool produces the very bytes the full pool would, and each
SVM's weighted sum consumes an identical gathered column block.  The
router chunks ``predict_proba`` exactly like
:meth:`InferenceSession._serve_proba` (same budget, same boundaries) and
runs the same numeric tail, so both strategies return results bitwise
equal to a single-device session for every device count and placement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Optional

import numpy as np

from repro.core.predictor import (
    PredictorConfig,
    batch_budget_rows,
    probabilities_from_decisions,
)
from repro.core.validation import check_predict_inputs
from repro.distributed.cluster import ClusterSpec, DevicePool
from repro.distributed.placement import plan_placement
from repro.exceptions import DeviceError, NotFittedError, ValidationError
from repro.gpusim.engine import FLOAT_BYTES
from repro.kernels.functions import KernelFunction
from repro.kernels.rows import KernelRowComputer
from repro.model.multiclass import MPSVMModel
from repro.multiclass.ova import ova_positions
from repro.multiclass.sv_sharing import PooledSVM, SupportVectorPool
from repro.multiclass.voting import ovo_vote
from repro.serving.session import InferenceSession
from repro.sparse import ops as mops
from repro.telemetry.tracer import maybe_span

__all__ = ["ShardedInferenceRouter", "ModelShard", "SHARD_STRATEGIES"]

SHARD_STRATEGIES = ("replicated", "pair_partitioned")


@dataclass
class ModelShard:
    """One device's slice of a pair-partitioned model."""

    device: int
    svm_indices: np.ndarray  # columns of the full decision matrix
    pool: SupportVectorPool  # sub-pool holding only this shard's SV rows
    computer: KernelRowComputer  # warm, norms resident on the device

    @property
    def n_svms(self) -> int:
        """Number of binary SVMs served by this shard."""
        return int(self.svm_indices.size)


class ShardedInferenceRouter:
    """Serve one fitted model from several simulated devices.

    Parameters
    ----------
    model:
        The fitted :class:`MPSVMModel` to serve.
    cluster:
        Device count and interconnect (:class:`ClusterSpec`).
    strategy:
        ``"replicated"`` or ``"pair_partitioned"`` (see module docstring).
    config:
        Prediction-side configuration; its device is aligned with the
        cluster's.  Defaults to SV sharing on the cluster's device.
    placement:
        Pair-to-device strategy for ``pair_partitioned`` (same planner as
        sharded training; weight = each SVM's support count).

    ``predict_proba`` / ``predict`` / ``decision_function`` return results
    bitwise equal to a single-device :class:`InferenceSession`.
    """

    def __init__(
        self,
        model: MPSVMModel,
        cluster: ClusterSpec,
        *,
        strategy: str = "replicated",
        config: Optional[PredictorConfig] = None,
        placement: str = "affinity",
    ) -> None:
        if not isinstance(model, MPSVMModel):
            raise NotFittedError(
                "ShardedInferenceRouter serves a fitted MPSVMModel; got "
                f"{type(model).__name__}"
            )
        if strategy not in SHARD_STRATEGIES:
            raise ValidationError(
                f"strategy must be one of {SHARD_STRATEGIES}, got {strategy!r}"
            )
        self.model = model.warm()
        self.cluster = cluster
        self.strategy = strategy
        if config is None:
            config = PredictorConfig(device=cluster.device)
        elif config.device is not cluster.device:
            config = replace(config, device=cluster.device)
        self.config = config
        self._tracer = config.tracer
        self.pool = DevicePool(
            cluster,
            flop_efficiency=config.flop_efficiency,
            bandwidth_efficiency=config.bandwidth_efficiency,
            backend=config.backend,
            tracer=config.tracer,
        )
        # Chunking mirrors InferenceSession._serve_proba on the FULL model
        # — identical chunk boundaries are part of the parity contract.
        self._budget_rows = batch_budget_rows(config, self.model)
        self.n_calls = 0
        self._sessions: list[InferenceSession] = []
        self._shards: list[ModelShard] = []
        self._round_robin = 0
        # Replica health (replicated only): round-robin skips unhealthy
        # devices, so a lost replica degrades capacity without ever
        # serving from dead state.
        self._healthy = [True] * cluster.n_devices
        if strategy == "replicated":
            self._seal_replicated()
        else:
            self._seal_partitioned(placement)

    # ------------------------------------------------------------------
    # Sealing
    # ------------------------------------------------------------------
    def _seal_replicated(self) -> None:
        """Seal the full model once per device."""
        for device in range(self.cluster.n_devices):
            # The interconnect cost of replicating the pool; the session
            # then charges its own (device-local) seal work.
            self.pool.host_to_device(device, self.model.sv_pool.pool_nbytes)
            self._sessions.append(InferenceSession(self.model, self.config))

    def _seal_partitioned(self, placement: str) -> None:
        """Place the SVMs on devices and seal each device's sub-pool."""
        sv_pool = self.model.sv_pool
        shapes = [
            SimpleNamespace(s=svm.s, t=svm.t, n=svm.pool_positions.size)
            for svm in sv_pool.svms
        ]
        plan = plan_placement(
            shapes, self.cluster.n_devices, strategy=placement
        )
        self.placement = plan
        for device, svm_indices in enumerate(plan.device_problems):
            if not svm_indices:
                continue
            engine = self.pool.engine(device)
            with maybe_span(
                self._tracer,
                "shard_seal",
                clock=engine.clock,
                device=device,
                n_svms=len(svm_indices),
            ) as span:
                positions = np.unique(
                    np.concatenate(
                        [
                            sv_pool.svms[i].pool_positions
                            for i in svm_indices
                        ]
                    )
                )
                sub_svms = [
                    PooledSVM(
                        s=sv_pool.svms[i].s,
                        t=sv_pool.svms[i].t,
                        pool_positions=np.searchsorted(
                            positions, sv_pool.svms[i].pool_positions
                        ),
                        coefficients=sv_pool.svms[i].coefficients,
                        bias=sv_pool.svms[i].bias,
                    )
                    for i in svm_indices
                ]
                sub_pool = SupportVectorPool(
                    mops.take_rows(sv_pool.pool_data, positions),
                    sv_pool.pool_global_indices[positions],
                    sub_svms,
                )
                self.pool.host_to_device(device, sub_pool.pool_nbytes)
                computer = KernelRowComputer(
                    engine,
                    self.model.kernel,
                    sub_pool.pool_data,
                    category="decision_values",
                )
                computer.norms()  # shard norms resident from now on
                span.set(
                    n_pool=sub_pool.n_pool,
                    pool_nbytes=sub_pool.pool_nbytes,
                )
            self._shards.append(
                ModelShard(
                    device=device,
                    svm_indices=np.asarray(svm_indices, dtype=np.int64),
                    pool=sub_pool,
                    computer=computer,
                )
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_devices(self) -> int:
        """Number of devices in the serving cluster."""
        return self.cluster.n_devices

    @property
    def n_features(self) -> int:
        """Feature count requests must match."""
        return self.model.n_features

    @property
    def sessions(self) -> list[InferenceSession]:
        """Per-device sealed sessions (``replicated`` only)."""
        return list(self._sessions)

    @property
    def shards(self) -> list[ModelShard]:
        """Per-device model slices (``pair_partitioned`` only)."""
        return list(self._shards)

    def device_seconds(self, device: int) -> float:
        """Simulated busy seconds of one device (transfers + serving)."""
        seconds = self.pool.engine(device).clock.elapsed_s
        if self.strategy == "replicated":
            seconds += self._sessions[device].simulated_seconds
        return seconds

    @property
    def simulated_seconds(self) -> float:
        """Cluster serving makespan: the busiest device's timeline."""
        return max(
            self.device_seconds(device) for device in range(self.n_devices)
        )

    def memory_per_device_bytes(self) -> list[int]:
        """Resident model bytes per device (the partitioning win)."""
        if self.strategy == "replicated":
            return [self.model.sv_pool.pool_nbytes] * self.n_devices
        per_device = [0] * self.n_devices
        for shard in self._shards:
            per_device[shard.device] = shard.pool.pool_nbytes
        return per_device

    # ------------------------------------------------------------------
    # One-shot serving
    # ------------------------------------------------------------------
    def predict_proba(self, X: object) -> np.ndarray:
        """Multi-class probabilities, shape ``(m, n_classes)``."""
        data = check_predict_inputs(X, self.n_features)
        if not self.model.probability:
            raise NotFittedError(
                "model was trained without probability output; refit with "
                "probability=True"
            )
        if self.strategy == "replicated":
            return self._next_session().predict_proba(data)
        return self._partitioned_proba(data)

    def predict(self, X: object) -> np.ndarray:
        """Predicted class labels (argmax probability when available)."""
        data = check_predict_inputs(X, self.n_features)
        if self.strategy == "replicated":
            return self._next_session().predict(data)
        if self.model.probability:
            probabilities = self._partitioned_proba(data)
            positions = np.argmax(probabilities, axis=1)
            return self.model.labels_from_positions(positions)
        decisions = self._reduce_decisions(data)
        if self.model.strategy == "ova":
            positions = ova_positions(decisions)
        else:
            positions = ovo_vote(
                decisions, self.model.pairs, self.model.n_classes
            )
        return self.model.labels_from_positions(positions)

    def decision_function(self, X: object) -> np.ndarray:
        """Raw per-SVM decision values, shape ``(m, n_svms)``."""
        data = check_predict_inputs(X, self.n_features)
        if self.strategy == "replicated":
            return self._next_session().decision_function(data)
        return self._reduce_decisions(data)

    # ------------------------------------------------------------------
    # Replica health (replicated)
    # ------------------------------------------------------------------
    @property
    def healthy_devices(self) -> list[int]:
        """Devices currently in the serving rotation."""
        return [d for d, ok in enumerate(self._healthy) if ok]

    def mark_unhealthy(self, device: int) -> None:
        """Take ``device``'s replica out of the rotation (replica lost).

        Requests already answered by the replica stand — they were
        computed while it was alive and are bitwise the full model's
        answers.  Later calls route round-robin over the survivors; with
        no survivors, serving raises an explicit
        :class:`~repro.exceptions.DeviceError` rather than degrade
        silently.
        """
        self._require("replicated")
        self.pool._check_device(device)
        self._healthy[device] = False

    def mark_healthy(self, device: int, *, reseal: bool = False) -> None:
        """Return ``device`` to the rotation, optionally as a fresh seal.

        ``reseal=True`` models a *replacement* replica: the pool is
        shipped to the device again and a new session seals there (both
        charged to the simulated clocks); otherwise the existing seal
        rejoins as-is (a restarted process on a surviving device).
        """
        self._require("replicated")
        self.pool._check_device(device)
        if reseal:
            self.pool.host_to_device(device, self.model.sv_pool.pool_nbytes)
            self._sessions[device] = InferenceSession(self.model, self.config)
        self._healthy[device] = True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require(self, strategy: str) -> None:
        if self.strategy != strategy:
            raise ValidationError(
                f"operation requires the {strategy!r} strategy; this "
                f"router is {self.strategy!r}"
            )

    def _next_session(self) -> InferenceSession:
        """Advance the round-robin pointer to the next healthy replica."""
        self.n_calls += 1
        n = len(self._sessions)
        for _ in range(n):
            device = self._round_robin
            self._round_robin = (self._round_robin + 1) % n
            if self._healthy[device]:
                return self._sessions[device]
        raise DeviceError(
            "every replica is marked unhealthy; restore one with "
            "mark_healthy() before serving"
        )

    def _partitioned_proba(self, data: mops.MatrixLike) -> np.ndarray:
        """Chunked probabilities over the partial-decision reduce.

        Chunk boundaries and the probability tail replicate
        ``InferenceSession._serve_proba`` on the full model exactly; only
        the decision values inside each chunk come from the shards.
        """
        self.n_calls += 1
        root = self._root_engine()
        m = mops.n_rows(data)
        for shard in self._shards:
            self.pool.host_to_device(shard.device, mops.matrix_nbytes(data))
        probabilities = np.empty((m, self.model.n_classes))
        batch = (
            self._budget_rows
            if self.config.batch_size is not None
            else max(1, min(m, self._budget_rows))
        )
        with maybe_span(
            self._tracer,
            "serve_proba",
            clock=root.clock,
            n_instances=m,
            batch_size=batch,
            n_shards=len(self._shards),
        ):
            for start in range(0, m, batch):
                stop = min(start + batch, m)
                chunk = (
                    data
                    if start == 0 and stop == m
                    else mops.take_rows(
                        data, np.arange(start, stop, dtype=np.int64)
                    )
                )
                decisions = self._reduce_decisions(chunk, transfer=False)
                probabilities[start:stop] = probabilities_from_decisions(
                    root,
                    self.model,
                    decisions,
                    coupling_method=self.config.coupling_method,
                )
        return probabilities

    def _reduce_decisions(
        self, data: mops.MatrixLike, *, transfer: bool = False
    ) -> np.ndarray:
        """Partial-decision-value reduce across the shards.

        Every shard computes its SVM columns against its sub-pool, ships
        the ``(m, n_svms_shard)`` partial to the root device over the peer
        links, and the full ``(m, n_svms)`` matrix is assembled in global
        SVM order.
        """
        root = self._root_engine()
        m = mops.n_rows(data)
        out = np.empty((m, len(self.model.sv_pool.svms)))
        with maybe_span(
            self._tracer,
            "shard_reduce",
            clock=root.clock,
            n_instances=m,
            n_shards=len(self._shards),
        ) as span:
            reduced_bytes = 0
            for shard in self._shards:
                engine = self.pool.engine(shard.device)
                if transfer:
                    self.pool.host_to_device(
                        shard.device, mops.matrix_nbytes(data)
                    )
                norms_test = (
                    KernelFunction.compute_norms(
                        engine, data, category="decision_values"
                    )
                    if self.model.kernel.needs_norms
                    else None
                )
                block = shard.computer.block(
                    data, norms_other=norms_test, category="decision_values"
                )
                out[:, shard.svm_indices] = (
                    shard.pool.decision_values_from_block(
                        engine, block, category="decision_values"
                    )
                )
                payload = m * shard.n_svms * FLOAT_BYTES
                self.pool.device_to_device(shard.device, 0, payload)
                if shard.device != 0:
                    reduced_bytes += payload
            span.set(reduced_bytes=reduced_bytes)
        return out

    def _root_engine(self):
        return self.pool.engine(0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedInferenceRouter({self.cluster.name}, "
            f"strategy={self.strategy!r})"
        )
