"""Sharded multi-class training over a simulated GPU cluster.

The one-against-one decomposition hands us k(k-1)/2 *independent* binary
problems — the natural unit of distribution (Govada et al.'s observation).
This driver:

1. plans a placement of the pairwise problems onto the cluster's devices
   (:mod:`repro.distributed.placement`);
2. per device, ships the class blocks its problems need over the host
   link, builds the same cross-SVM segment share single-device training
   uses, and runs the resumable wave driver over that device's members
   under a ``cluster_wave`` telemetry span, through the fault-tolerant
   executor :func:`repro.distributed.waves.run_device_waves` (which the
   cascade's shard phase shares);
3. gathers the per-device binary models to the root device over the peer
   links (``shard_merge`` span) and assembles the model and its unified
   :class:`~repro.multiclass.sv_sharing.SupportVectorPool` in global
   problem order through the single-device trainer's assembly step;
4. reports the run as the same :class:`~repro.perf.report.TrainingReport`
   a single-device run returns, with its cluster fields filled.

**Bitwise parity.**  Every per-pair solve consumes kernel values computed
per (instance row, full class column block) through the row-pure tiled matmul
discipline (``repro.backends.reference``), so segment values are pure functions of
the operand rows — independent of which device computes them, what else
shares its waves, and where its tiles sit.  Finalization and pool assembly
run in global problem order regardless of placement.  Training on any
device count with any placement therefore produces records, pool and
sigmoids bit-for-bit identical to ``train_multiclass`` on one device; only
the *simulated timeline* (makespan, transfers, utilization) changes.

Host-side note: arrays are plain NumPy and are not physically partitioned
— the *cost model* charges each device for exactly the class-block bytes
its placement requires, which is what the simulation measures.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.trainer import (
    TrainerConfig,
    _assemble_model,
    _finalize_members,
    _make_pair_member,
    _make_shared_store,
    _train_cascade_pair,
)
from repro.distributed.cluster import ClusterSpec
from repro.distributed.placement import plan_placement
from repro.distributed.waves import (
    DeviceGroup,
    cluster_pool,
    fault_summary,
    run_device_waves,
)
from repro.exceptions import ValidationError
from repro.faults.plan import FaultPlan
from repro.gpusim.clock import SimClock
from repro.gpusim.counters import OpCounters
from repro.gpusim.engine import FLOAT_BYTES
from repro.kernels.functions import KernelFunction
from repro.model.multiclass import MPSVMModel
from repro.multiclass.decomposition import class_partition, pair_problems
from repro.perf.report import TrainingReport
from repro.sparse import ops as mops
from repro.telemetry.tracer import maybe_span

__all__ = ["train_multiclass_sharded"]

# Per-record constants shipped in the SV merge besides the index and
# coefficient arrays: (s, t, bias, iteration count) plus sigmoid (A, B).
_RECORD_HEADER_BYTES = 6 * FLOAT_BYTES


def _class_block_bytes(data: mops.MatrixLike, partition: dict) -> list[int]:
    """Estimated resident bytes of each class's training-row block."""
    total_rows = max(mops.n_rows(data), 1)
    per_row = mops.matrix_nbytes(data) / total_rows
    return [
        int(round(partition[position].size * per_row))
        for position in range(len(partition))
    ]


def _record_payload_bytes(record) -> int:
    """Interconnect bytes one binary model costs in the SV merge."""
    return int(
        record.global_sv_indices.size * FLOAT_BYTES
        + record.coefficients.size * FLOAT_BYTES
        + _RECORD_HEADER_BYTES
    )


def train_multiclass_sharded(
    config: TrainerConfig,
    cluster: ClusterSpec,
    data: mops.MatrixLike,
    y: np.ndarray,
    kernel: KernelFunction,
    penalty: float,
    *,
    placement: str = "affinity",
    fault_plan: Optional[FaultPlan] = None,
    checkpoint_every: int = 4,
    checkpoint_dir: Optional[object] = None,
) -> tuple[MPSVMModel, TrainingReport]:
    """Train a multi-class SVM sharded across a simulated cluster.

    Models and probabilities are bitwise identical to single-device
    :func:`~repro.core.trainer.train_multiclass` under the same config,
    for every device count and placement strategy (see the module
    docstring); the :class:`~repro.perf.report.TrainingReport` carries
    the cluster timeline in its cluster fields instead.

    ``config.cascade`` (a :class:`repro.cascade.CascadeConfig`)
    additionally routes pairwise problems with at least
    ``cascade.threshold`` instances through the instance-sharded cascade
    driver across the *whole* cluster — seeded shards, pairwise SV merges
    up a topology-aware reduction tree, one warm-started polish to
    epsilon — before the remaining pairs run the bitwise pair-sharded
    path.  Cascade-routed pairs meet the solver's dual-gap epsilon but
    are not bitwise the monolithic solve (the bitwise guarantee above
    then covers only the unrouted pairs); each routed
    pair's ``per_svm`` entry carries its full cascade report under
    ``"cascade"`` — per-level timeline, SV survival, per-tier transfer
    bytes and the reduction-tree root device.  Cascade routing cannot be
    combined with ``fault_plan`` here — for faults during a cascade,
    drive :func:`repro.cascade.train_cascade` directly.

    ``fault_plan`` injects scripted faults (see :mod:`repro.faults`);
    ``checkpoint_every`` / ``checkpoint_dir`` set the checkpoint cadence
    and persistence.  :func:`repro.distributed.waves.run_device_waves`
    runs the waves, observes losses and recovers: a lost device's
    problems are re-placed onto the survivors through the same planner
    and resumed from their last checkpoint, so the final model stays
    **bitwise identical** to the fault-free run.

    With ``config.tracer`` set, the run is recorded as a
    ``train_cluster`` root span over per-device ``cluster_wave`` spans,
    ``transfer`` spans for every interconnect copy, a ``fault_recovery``
    span when a loss fired, and one ``shard_merge`` span for the SV
    gather.
    """
    tracer = config.tracer
    if config.decomposition != "ovo":
        raise ValidationError(
            "sharded training partitions the one-against-one problems; "
            f"decomposition {config.decomposition!r} is not supported"
        )
    config, pool, store = cluster_pool(
        config,
        cluster,
        what="sharded training",
        fault_plan=fault_plan,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
    )
    labels = np.asarray(y).ravel()
    classes, partition = class_partition(labels)
    if config.force_dense:
        data = mops.to_dense(data)
    problems = list(pair_problems(classes, partition))

    # Instance-sharded cascade routing: the routed pairs train across
    # the whole pool before the per-device phase; placement then covers
    # only the remaining (bitwise pair-sharded) problems.
    cascade_cfg = config.cascade
    cascade_indices: set[int] = set()
    if cascade_cfg is not None and cascade_cfg.n_shards > 1:
        if fault_plan is not None and not fault_plan.is_empty:
            raise ValidationError(
                "cascade routing and fault injection cannot be combined "
                "in sharded training; drive repro.cascade.train_cascade "
                "directly to exercise faults mid-cascade"
            )
        cascade_indices = {
            index
            for index, problem in enumerate(problems)
            if problem.n >= cascade_cfg.threshold
        }
    small_indices = [
        index for index in range(len(problems)) if index not in cascade_indices
    ]
    plan = plan_placement(
        [problems[index] for index in small_indices],
        cluster.n_devices,
        strategy=placement,
        cluster=cluster,
    )
    block_bytes = _class_block_bytes(data, partition)

    with maybe_span(
        tracer,
        "train_cluster",
        n_devices=cluster.n_devices,
        n_instances=mops.n_rows(data),
        n_binary_svms=len(problems),
        placement=placement,
    ) as root_span:
        finals: dict[int, tuple] = {}  # problem index -> finalize outputs
        # Per-device accumulators; device master clocks live in the pool.
        member_clocks = [SimClock() for _ in range(cluster.n_devices)]
        device_stats = [
            {"iterations": 0, "kernel_rows": 0, "resident_bytes": 0,
             "max_concurrency": 1, "wave_trace": None}
            for _ in range(cluster.n_devices)
        ]
        # Final problem ownership: starts at the plan, moves to survivors
        # when a loss forces re-placement (drives the merge payloads).
        # Cascade-routed pairs land on their reduction-tree root device.
        owner = [0] * len(problems)
        for position, index in enumerate(small_indices):
            owner[index] = plan.assignments[position]

        # ----------------------------------------------------------
        # Cascade phase: the routed pairs train instance-sharded over
        # the whole pool, one at a time (each cascade already fills
        # every device), before the per-device pair phase.
        # ----------------------------------------------------------
        for index in sorted(cascade_indices):
            finals[index], result, finalize_clock = _train_cascade_pair(
                config, classes, problems[index], pool, data, kernel, penalty,
                member_clocks, store=store, checkpoint_every=checkpoint_every,
            )
            root_device = finals[index][2]["cascade"]["tree"]["root_device"]
            owner[index] = root_device
            member_clocks[root_device].merge(finalize_clock)
            stats = device_stats[root_device]
            stats["iterations"] += result.iterations
            stats["kernel_rows"] += result.kernel_rows_computed
            if tracer is not None:
                tracer.bind_clock(None)

        # ----------------------------------------------------------
        # Pair phase: every device ships its class blocks and runs its
        # placed problems in waves; a lost device's problems are
        # re-placed onto the survivors and resumed from the last
        # shipped checkpoint.
        # ----------------------------------------------------------
        groups = []
        for device in range(cluster.n_devices):
            resident = sum(
                block_bytes[c] for c in sorted(plan.device_classes[device])
            )
            device_stats[device]["resident_bytes"] = resident
            # The plan is over the unrouted subset; map back to global
            # problem indices.
            indices = [small_indices[local] for local in plan.device_problems[device]]
            groups.append(DeviceGroup(device, indices, resident, resident))

        def build(device, indices, master):
            shared, shared_computer = _make_shared_store(
                config, master, kernel, data, classes, partition
            )
            members = [
                _make_pair_member(
                    config,
                    classes,
                    index,
                    problems[index],
                    penalty,
                    data,
                    kernel,
                    shared=shared,
                    shared_computer=shared_computer,
                    counters=master.counters,
                )
                for index in indices
            ]
            return members, shared

        def regroup(lost_indices, survivors):
            replan = plan_placement(
                [problems[index] for index in lost_indices],
                len(survivors),
                strategy=placement,
            )
            recovery_groups = []
            for position, survivor in enumerate(survivors):
                indices = [lost_indices[j] for j in replan.device_problems[position]]
                if not indices:
                    continue
                # Class blocks these problems need beyond what the
                # survivor already holds.
                needed = {c for i in indices for c in (problems[i].s, problems[i].t)}
                already = set(plan.device_classes[survivor])
                extra = sum(block_bytes[c] for c in sorted(needed - already))
                stats = device_stats[survivor]
                stats["resident_bytes"] += extra
                recovery_groups.append(
                    DeviceGroup(survivor, indices, extra, stats["resident_bytes"])
                )
            return recovery_groups

        def on_done(device, members, outcome):
            # Finalize this device's members (assembly restores global
            # order below; finalization order is irrelevant to the
            # numerics and each charge lands on its own engine).
            finalize_clock = SimClock()
            stats = device_stats[device]
            finalized = _finalize_members(
                config, classes, members, data, kernel, penalty, tracer
            )
            for member, final in zip(members, finalized):
                finals[member.index] = final
                finalize_clock.merge(final[3])
                stats["iterations"] += member.result.iterations
                stats["kernel_rows"] += member.result.kernel_rows_computed
                owner[member.index] = device
            member_clocks[device].merge(outcome.timeline)
            member_clocks[device].merge(finalize_clock)
            stats["max_concurrency"] = max(
                stats["max_concurrency"], outcome.max_concurrency
            )
            stats["wave_trace"] = (stats["wave_trace"] or []) + outcome.wave_trace
            return {
                "simulated_seconds": (
                    pool.engine(device).clock.elapsed_s
                    + member_clocks[device].elapsed_s
                ),
                "max_concurrency": outcome.max_concurrency,
                "iterations": stats["iterations"],
            }

        waves = run_device_waves(
            pool,
            groups,
            config=config,
            build=build,
            regroup=regroup,
            on_done=on_done,
            span_name="cluster_wave",
            recovery_span_name="fault_recovery",
            count_key="n_svms",
            store=store,
            checkpoint_every=checkpoint_every,
        )
        lost_devices = waves.lost

        # --------------------------------------------------------------
        # Cross-device SV merge: gather every shard's binary models to
        # the root device, then build the unified pool in global problem
        # order.  The root is the lowest *surviving* device.
        # --------------------------------------------------------------
        root = next(
            d for d in range(cluster.n_devices) if d not in lost_devices
        )
        merge_bytes = 0
        root_engine = pool.engine(root)
        if tracer is not None:
            tracer.bind_clock(root_engine.clock)
        with maybe_span(
            tracer,
            "shard_merge",
            clock=root_engine.clock,
            root=root,
            n_binary_svms=len(problems),
        ) as merge_span:
            for device in range(cluster.n_devices):
                if device == root or device in lost_devices:
                    continue
                payload = sum(
                    _record_payload_bytes(finals[index][0])
                    for index in range(len(problems))
                    if owner[index] == device
                )
                merge_bytes += payload
                pool.device_to_device(device, root, payload)
            model, per_svm_stats = _assemble_model(
                config, classes, data, kernel, penalty, finals,
                pool.engine(0).backend,
                cluster_devices=cluster.n_devices,
                placement=placement,
            )
            merge_span.set(
                merge_bytes=merge_bytes,
                n_pool=model.sv_pool.n_pool,
                sharing_factor=model.sv_pool.sharing_factor,
            )
        if tracer is not None:
            tracer.bind_clock(None)

        # --------------------------------------------------------------
        # Cluster timeline: a device's busy time is its master clock
        # (transfers, shared prefetches, merge) plus its members' wave-
        # scaled solve/finalize time; the makespan is the busiest device.
        # --------------------------------------------------------------
        device_clocks: list[SimClock] = []
        for device in range(cluster.n_devices):
            clock = SimClock()
            clock.merge(pool.engine(device).clock)
            clock.merge(member_clocks[device])
            device_clocks.append(clock)
        makespan = max(clock.elapsed_s for clock in device_clocks)

        per_device = []
        for device in range(cluster.n_devices):
            stats = device_stats[device]
            busy = device_clocks[device].elapsed_s
            per_device.append(
                {
                    "device": device,
                    "n_svms": owner.count(device),
                    "iterations": int(stats["iterations"]),
                    "kernel_rows_computed": int(stats["kernel_rows"]),
                    "resident_bytes": int(stats["resident_bytes"]),
                    "simulated_seconds": float(busy),
                    "utilization": float(
                        busy / makespan if makespan > 0 else 0.0
                    ),
                    "transfer_bytes": pool.device_transfer_bytes(device),
                    "max_concurrency": int(stats["max_concurrency"]),
                    "lost": device in lost_devices,
                    "wave_trace": stats["wave_trace"],
                }
            )

        combined = SimClock()
        counters = OpCounters()
        for clock in device_clocks:
            combined.merge(clock)
        for engine in pool.engines:
            counters.merge(engine.counters)
        placement_summary = plan.summary()
        if cascade_indices:
            placement_summary["cascade_routed"] = sorted(
                int(index) for index in cascade_indices
            )
        report = TrainingReport(
            simulated_seconds=makespan,
            clock=combined,
            counters=counters,
            device_name=cluster.name,
            n_binary_svms=len(problems),
            total_iterations=sum(
                stats["iterations"] for stats in device_stats
            ),
            kernel_rows_computed=sum(
                stats["kernel_rows"] for stats in device_stats
            ),
            max_concurrency=max(
                int(stats["max_concurrency"]) for stats in device_stats
            ),
            per_svm=per_svm_stats,
            schedule_source="cluster_wave",
            n_devices=cluster.n_devices,
            per_device=per_device,
            placement=placement_summary,
            merge_bytes=merge_bytes,
            faults=fault_summary(
                pool, store, waves.summary("recovered_problems")
            ),
            transfer_tier_bytes=dict(pool.tier_bytes),
        )
        root_span.set(
            simulated_seconds=report.simulated_seconds,
            cluster_speedup=report.cluster_speedup,
            transfer_bytes_total=report.transfer_bytes_total,
            max_concurrency=report.max_concurrency,
        )
    return model, report
