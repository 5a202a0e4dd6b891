"""The fault-tolerant per-device wave executor.

Sharded multi-class training places pairwise problems on devices; the
cascade's shard phase places instance shards.  Both then do the same
thing on every device: ship the device's rows over the host link, build
resumable batched-SMO sessions (:class:`~repro.core.interleave.PairMember`)
and drive them in lockstep waves through
:func:`~repro.core.interleave.run_interleaved`.  :func:`run_device_waves`
owns that loop and everything fault tolerance adds to it:

- straggler clock rates on every member;
- a per-wave hook that first observes a scripted device loss, then ships
  a checkpoint every ``checkpoint_every`` waves (a checkpoint "taken" on
  the wave that crosses the loss time never reached the host);
- catching :class:`~repro.exceptions.DeviceLostError` — everything
  resident on the lost device dies with it, nothing there finalizes, and
  its clock stops at the loss;
- re-running the lost members on the survivors, each resumed from its
  last shipped checkpoint after the restore bytes are uploaded (or
  restarted when none was shipped).  A restored session's state fully
  determines its remaining iterates, so recovery changes only the
  timeline.  Recovery itself runs fault-free: the supported model is one
  failure per device per run.

What differs between the callers comes in as callbacks: ``build`` makes a
device's members, ``regroup`` places the lost members on the survivors
and ``on_done`` finalizes a device's members inside its span.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from repro.core.interleave import InterleaveOutcome, run_interleaved
from repro.core.trainer import _interleave_limits
from repro.distributed.cluster import DevicePool
from repro.exceptions import DeviceLostError, SolverError, ValidationError
from repro.faults.checkpoint import (
    CheckpointStore,
    SessionSnapshot,
    TrainingCheckpoint,
)
from repro.faults.plan import FaultInjector, FaultPlan
from repro.gpusim.engine import Engine
from repro.telemetry.tracer import maybe_span

__all__ = [
    "DeviceGroup",
    "WaveRecovery",
    "cluster_pool",
    "fault_summary",
    "run_device_waves",
]


@dataclass
class DeviceGroup:
    """The members one device runs, by caller index, and their bytes."""

    device: int
    indices: list
    ship_bytes: int  # host-to-device rows shipped before the members start
    resident_bytes: int  # device bytes held while the waves run


@dataclass
class WaveRecovery:
    """Which devices were lost and what the survivors re-ran."""

    lost: dict  # device -> simulated loss time, in loss order
    survivors: list
    recovered: list  # lost member indices, sorted
    resumed: int  # how many of them resumed from a checkpoint

    def summary(self, recovered_key: str) -> dict:
        """JSON-ready recovery accounting; empty when nothing was lost."""
        if not self.lost:
            return {}
        return {
            "devices_lost": {
                int(device): float(at) for device, at in sorted(self.lost.items())
            },
            "survivors": [int(device) for device in self.survivors],
            recovered_key: len(self.recovered),
            "resumed_from_checkpoint": self.resumed,
        }


def cluster_pool(
    config,
    cluster,
    *,
    what: str,
    fault_plan: Optional[FaultPlan],
    checkpoint_every: int,
    checkpoint_dir: Optional[object],
) -> tuple:
    """Check ``config`` for wave execution on ``cluster``; build the pool.

    Returns ``(config, pool, store)``: the config aligned to the
    cluster's device, the :class:`~repro.distributed.cluster.DevicePool`
    (carrying the fault injector when the plan is non-empty) and the
    checkpoint store, or None.  ``checkpoint_dir=":memory:"`` opts into
    checkpointing (same simulated shipping cost) without persistence —
    what a fault-free baseline run uses to be timeline-comparable with a
    faulted one.  Without a fault plan no checkpoint machinery runs
    unless ``checkpoint_dir`` asks.  ``what`` names the caller in errors.
    """
    if config.solver != "batched":
        raise ValidationError(
            f"{what} drives resumable batched-SMO sessions; solver "
            f"{config.solver!r} has none"
        )
    if checkpoint_every < 1:
        raise ValidationError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if config.device is not cluster.device:
        config = replace(config, device=cluster.device)
    injector = (
        FaultInjector(fault_plan, cluster.n_devices)
        if fault_plan is not None and not fault_plan.is_empty
        else None
    )
    store_root = None if checkpoint_dir == ":memory:" else checkpoint_dir
    store = (
        CheckpointStore(store_root)
        if injector is not None or checkpoint_dir is not None
        else None
    )
    pool = DevicePool(
        cluster,
        flop_efficiency=config.flop_efficiency,
        bandwidth_efficiency=config.bandwidth_efficiency,
        backend=config.backend,
        tracer=config.tracer,
        fault_injector=injector,
    )
    return config, pool, store


def fault_summary(pool, store: Optional[CheckpointStore], recovery: dict) -> dict:
    """The report's ``faults`` section: empty for a nominal run."""
    injector = pool.fault_injector
    if injector is not None:
        faults = injector.summary()
        faults["checkpoints_written"] = store.n_written if store else 0
        faults["recovery"] = recovery
        return faults
    if store is not None and store.n_written:
        return {"checkpoints_written": store.n_written}
    return {}


def run_device_waves(
    pool,
    groups: Sequence[DeviceGroup],
    *,
    config,
    build: Callable[[int, list, Engine], tuple],
    regroup: Callable[[list, list], list],
    on_done: Callable[[int, list, InterleaveOutcome], dict],
    span_name: str,
    recovery_span_name: str,
    count_key: str,
    store: Optional[CheckpointStore] = None,
    checkpoint_every: int = 4,
) -> WaveRecovery:
    """Run every group on its device of ``pool``, then recover losses.

    ``build(device, indices, master)`` returns the device's members (one
    per index, ``member.index`` being that index) and the optional shared
    kernel store their waves prefetch through; it runs after the group's
    ``ship_bytes`` reached the device.  ``on_done(device, members,
    outcome)`` finalizes a finished group inside its ``span_name`` span
    and returns attributes for that span.  When devices were lost,
    ``regroup(lost_indices, survivors)`` returns the recovery groups,
    which run under one ``recovery_span_name`` span.  ``count_key`` names
    the member-count attribute of both spans.  ``config`` supplies the
    wave packing rules and the tracer; faults come from the pool's
    injector, checkpoints go to ``store``.
    """
    injector = pool.fault_injector
    tracer = config.tracer

    def fault_hook(device: int, members: list):
        """The ``on_wave`` hook observing loss and checkpointing, or None."""
        loss_at = injector.loss_time(device) if injector is not None else None
        if loss_at is None and store is None:
            return None
        master = pool.engine(device)

        def on_wave(wave_index, running, finished, outcome):
            # Device time so far: master charges (transfers, prefetches)
            # plus the wave-scaled member time.
            now_s = master.clock.elapsed_s + outcome.timeline.elapsed_s
            if loss_at is not None and now_s >= loss_at:
                injector.check_device(device, now_s)
            if store is not None and wave_index % checkpoint_every == 0:
                checkpoint = TrainingCheckpoint(
                    device=device,
                    wave=wave_index,
                    simulated_s=now_s,
                    snapshots={
                        m.index: SessionSnapshot.capture(m.index, m.session)
                        for m in members
                    },
                )
                pool.device_to_host(device, checkpoint.nbytes, category="checkpoint")
                store.save(checkpoint)

        return on_wave

    def run_group(group: DeviceGroup, snapshots: Optional[dict] = None):
        """Run one device's members; the loss time if the device was lost.

        ``snapshots`` marks a recovery group: restore bytes are uploaded
        and the sessions resumed from them, and no fault hook is
        installed.
        """
        device = group.device
        master = pool.engine(device)
        attrs = {
            "device": device,
            count_key: len(group.indices),
            "resident_bytes": group.ship_bytes,
        }
        if snapshots is not None:
            attrs["recovery"] = True
        if tracer is not None:
            tracer.bind_clock(master.clock)
        try:
            with maybe_span(tracer, span_name, clock=master.clock, **attrs) as span:
                pool.host_to_device(device, group.ship_bytes)
                if snapshots is not None:
                    restore_bytes = sum(
                        snapshots[index].nbytes
                        for index in group.indices
                        if index in snapshots
                    )
                    if restore_bytes:
                        pool.host_to_device(
                            device, restore_bytes, category="checkpoint"
                        )
                if not group.indices:
                    return None
                members, shared = build(device, group.indices, master)
                if injector is not None:
                    rate = injector.straggler_rate(device)
                    if rate != 1.0:
                        for member in members:
                            member.engine.clock.rate = rate
                on_wave = None
                if snapshots is not None:
                    for member in members:
                        if member.index in snapshots:
                            snapshots[member.index].restore(member.session)
                else:
                    on_wave = fault_hook(device, members)
                try:
                    outcome = run_interleaved(
                        members,
                        _interleave_limits(config, group.resident_bytes),
                        shared=shared,
                        tracer=tracer,
                        span_clock=master.clock,
                        on_wave=on_wave,
                    )
                except DeviceLostError as exc:
                    span.set(lost=True, lost_at_s=exc.at_s)
                    return exc.at_s
                span.set(**on_done(device, members, outcome))
                return None
        finally:
            if tracer is not None:
                tracer.bind_clock(None)

    lost: dict = {}
    for group in groups:
        at_s = run_group(group)
        if at_s is not None:
            lost[group.device] = at_s
    if not lost:
        return WaveRecovery(lost={}, survivors=[], recovered=[], resumed=0)

    survivors = [d for d in range(pool.n_devices) if d not in lost]
    if not survivors:
        raise SolverError(
            "every device in the cluster was lost; nothing survives to "
            "recover on"
        )
    lost_indices = sorted(
        index for group in groups if group.device in lost for index in group.indices
    )
    snapshots: dict[int, SessionSnapshot] = {}
    if store is not None:
        for device in lost:
            checkpoint = store.latest(device)
            if checkpoint is not None:
                snapshots.update(checkpoint.snapshots)
    resumed = sum(1 for index in lost_indices if index in snapshots)
    recovery_groups = regroup(lost_indices, survivors)
    with maybe_span(
        tracer,
        recovery_span_name,
        n_survivors=len(survivors),
        resumed_from_checkpoint=resumed,
        **{count_key: len(lost_indices)},
    ):
        for group in recovery_groups:
            run_group(group, snapshots)
    return WaveRecovery(
        lost=lost, survivors=survivors, recovered=lost_indices, resumed=resumed
    )

