"""Pair-partitioned inference over a simulated cluster.

The k(k-1)/2 binary SVMs are placed onto devices with the same planner
training uses; each device holds only the pool rows *its* SVMs reference.
A request's rows are copied to every shard once, each shard computes its
decision-value columns, and the partial decision values are reduced to
the root device over the peer links (``shard_reduce`` span), where the
shared :class:`~repro.core.predictor.PredictionPipeline` turns them into
probabilities or labels.  Memory per device shrinks toward ``1/n``-th of
the pool; a single request's kernel work is split across devices.

Replicated serving — the full model on every device, for throughput — is
a :class:`~repro.server.Dispatcher` over one
:class:`~repro.serving.InferenceSession` with one lane per replica; its
``fail_lane`` / ``restore_lane`` are the replica-health API.

**Bitwise parity.**  Every kernel block element is a pure function of its
(test row, pool row) pair — both matmul axes go through the row-pure tile
discipline of :mod:`repro.backends.reference` — so a shard computing ``K(x, sv)``
against its sub-pool produces the very bytes the full pool would, and each
SVM's decision values — an exact elementwise multiply, then a sum over
that row's own segment — read the same values in the same order whatever
the segment's offset in the sub-pool.  The
pipeline's chunk boundaries depend only on the full model and the
request, so the router returns results bitwise equal to a single-device
session for every device count and placement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from repro.core.predictor import (
    PredictionPipeline,
    PredictorConfig,
    require_probability,
)
from repro.core.validation import check_predict_inputs
from repro.distributed.cluster import ClusterSpec, DevicePool
from repro.distributed.placement import plan_placement
from repro.exceptions import NotFittedError
from repro.gpusim.engine import FLOAT_BYTES
from repro.kernels.rows import KernelRowComputer
from repro.model.multiclass import MPSVMModel
from repro.multiclass.sv_sharing import PooledSVM, SupportVectorPool
from repro.sparse import ops as mops
from repro.telemetry.tracer import maybe_span

__all__ = ["ShardedInferenceRouter", "ModelShard"]


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
    """Serve one fitted model pair-partitioned across simulated devices.

    Parameters
    ----------
    model:
        The fitted :class:`MPSVMModel` to serve.
    cluster:
        Device count and interconnect (:class:`ClusterSpec`).
    config:
        Prediction-side configuration; its device is aligned with the
        cluster's.  Defaults to SV sharing on the cluster's device.
    placement:
        Pair-to-device strategy (same planner as sharded training;
        weight = each SVM's support count).

    ``predict_proba`` / ``predict`` / ``decision_function`` return results
    bitwise equal to a single-device :class:`InferenceSession`.
    """

    def __init__(
        self,
        model: MPSVMModel,
        cluster: ClusterSpec,
        *,
        config: Optional[PredictorConfig] = None,
        placement: str = "affinity",
    ) -> None:
        if not isinstance(model, MPSVMModel):
            raise NotFittedError(
                "ShardedInferenceRouter serves a fitted MPSVMModel; got "
                f"{type(model).__name__}"
            )
        self.model = model.warm()
        self.cluster = cluster
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
        self._shards: list[ModelShard] = []
        self._seal(placement)
        self._pipeline = PredictionPipeline(
            self.pool.engine(0), self.model, config, self._reduce_decisions
        )

    # ------------------------------------------------------------------
    # Sealing
    # ------------------------------------------------------------------
    def _seal(self, placement: str) -> None:
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
                computer.warm()  # shard norms and tiles resident from now on
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
    def shards(self) -> list[ModelShard]:
        """Per-device model slices."""
        return list(self._shards)

    @property
    def simulated_seconds(self) -> float:
        """Cluster serving makespan: the busiest device's timeline."""
        return self.pool.makespan_s

    def memory_per_device_bytes(self) -> list[int]:
        """Resident model bytes per device (the partitioning win)."""
        per_device = [0] * self.n_devices
        for shard in self._shards:
            per_device[shard.device] = shard.pool.pool_nbytes
        return per_device

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
        """Raw per-SVM decision values, shape ``(m, n_svms)``.

        Like a session's, this skips the host-to-device row copy.
        """
        data = check_predict_inputs(X, self.n_features)
        return self._reduce_decisions(data)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _serve(
        self,
        name: str,
        data: mops.MatrixLike,
        step: Callable[[mops.MatrixLike], np.ndarray],
    ) -> np.ndarray:
        """Copy the request rows to every shard once, then run ``step``."""
        for shard in self._shards:
            self.pool.host_to_device(shard.device, mops.matrix_nbytes(data))
        with maybe_span(
            self._tracer,
            name,
            clock=self.pool.engine(0).clock,
            n_instances=mops.n_rows(data),
            n_shards=len(self._shards),
        ):
            return step(data)

    def _reduce_decisions(self, data: mops.MatrixLike) -> np.ndarray:
        """Partial-decision-value reduce across the shards.

        Every shard computes its SVM columns against its sub-pool, ships
        the ``(m, n_svms_shard)`` partial to the root device over the peer
        links, and the full ``(m, n_svms)`` matrix is assembled in global
        SVM order.
        """
        root = self.pool.engine(0)
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
                out[:, shard.svm_indices] = shard.pool.decision_values(
                    self.pool.engine(shard.device),
                    self.model.kernel,
                    data,
                    category="decision_values",
                    computer=shard.computer,
                )
                payload = m * shard.n_svms * FLOAT_BYTES
                self.pool.device_to_device(shard.device, 0, payload)
                if shard.device != 0:
                    reduced_bytes += payload
            span.set(reduced_bytes=reduced_bytes)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedInferenceRouter({self.cluster.name}, "
            f"shards={len(self._shards)})"
        )
