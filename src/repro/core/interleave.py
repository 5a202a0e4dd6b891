"""Execution-level MP-SVM concurrency: the interleaved wave driver.

This module realises Section 3.3.2 by execution: it steps every admitted
solver's resumable session (:class:`~repro.solvers.batch_smo.BatchSMOSession`)
in lockstep waves, so the simulated timeline is read off the work that
actually ran concurrently.  Single-device training calls it directly; the
multi-device trainers run it per device through
:func:`repro.distributed.waves.run_device_waves`, which adds checkpoints
and device-loss recovery.

Per wave the driver

1. admits pending solvers into the running set under
   :class:`~repro.gpusim.scheduler.WaveLimits` (SM blocks, device memory,
   optional concurrency cap), moving each admitted session's state into
   a slot of the run's :class:`~repro.solvers.batch_smo.WaveState`, where
   it stays until the session finishes;
2. runs the selection half of every running session in one stacked
   :func:`~repro.solvers.batch_smo.begin_rounds` call over that resident
   state, collecting each one's working-set refresh and the kernel rows
   it is missing;
3. fuses the missing-row demand of all members into one batched launch
   through :meth:`~repro.kernels.shared.SharedClassPairKernels.prefetch`,
   so segments one SVM computes are reused by the others *while hot*;
4. completes every member's round in three stacked calls:
   :func:`~repro.solvers.batch_smo.gather_rounds` (each member's rows now
   hit the share; one padded stack of working-set subproblems), one
   lockstep :func:`~repro.solvers.subproblem.solve_subproblem`, then
   :func:`~repro.solvers.batch_smo.apply_rounds` (stall logic, one
   scatter of the new weights, each member's Eq.-8 product and FIFO).
   It folds the members' per-round clock deltas into the wave's
   concurrent makespan ``max(max_i(latency_i + compute_i), sum_i
   compute_i)``: each member still pays its own serial chain, the device
   throughput bounds the total, and launch gaps are hidden by the other
   members' kernels.  A one-member wave is exactly serial.

Sessions that terminate copy their state out of the wave and release
their SM/memory footprint, and the next pending solver is admitted at
the following wave boundary.  The driver's
:class:`InterleaveOutcome` carries the resulting timeline, the per-wave
trace (the source of the reported ``max_concurrency`` and
``concurrency_speedup``), and each problem's
:class:`~repro.solvers.base.SolverResult`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.gpusim.clock import SimClock
from repro.gpusim.engine import Engine
from repro.gpusim.scheduler import WaveLimits
from repro.kernels.shared import SharedClassPairKernels
from repro.solvers.base import SolverResult
from repro.solvers.batch_smo import (
    BatchSMOSession,
    WaveState,
    apply_rounds,
    begin_rounds,
    gather_rounds,
)
from repro.solvers.subproblem import solve_subproblem
from repro.telemetry.tracer import Tracer, maybe_span

__all__ = ["PairMember", "InterleaveOutcome", "run_interleaved"]


@dataclass(eq=False)
class PairMember:
    """One pairwise binary SVM participating in the interleaved schedule."""

    index: int  # position in the trainer's problem order
    problem: object  # PairProblem: s, t, n, labels, global_indices
    engine: Engine  # the member's own clock; counters shared with master
    session: BatchSMOSession
    mem_bytes: int  # resident footprint (solver state + kernel buffer)
    blocks: int  # SM blocks this SVM occupies
    result: Optional[SolverResult] = None
    warm_started: bool = False  # session seeded from a prior model's alphas

    @property
    def name(self) -> str:
        """Stable display name, ``svm_<s>_<t>``, used in traces and spans."""
        return f"svm_{self.problem.s}_{self.problem.t}"


@dataclass
class InterleaveOutcome:
    """What the wave driver measured while executing the schedule."""

    timeline: SimClock  # concurrent member time (master charges excluded)
    wave_trace: list[dict] = field(default_factory=list)
    max_concurrency: int = 1
    concurrency_speedup: float = 1.0
    serial_seconds: float = 0.0
    concurrent_seconds: float = 0.0


def run_interleaved(
    members: Sequence[PairMember],
    limits: WaveLimits,
    *,
    shared: Optional[SharedClassPairKernels] = None,
    tracer: Optional[Tracer] = None,
    span_clock: Optional[SimClock] = None,
    on_wave: Optional[
        Callable[[int, Sequence[PairMember], Sequence[PairMember], InterleaveOutcome], None]
    ] = None,
) -> InterleaveOutcome:
    """Drive every member to convergence in lockstep concurrent waves.

    Populates each member's ``result`` (in whatever order sessions
    terminate — callers finalize in problem order so model assembly is
    schedule-independent) and returns the measured
    :class:`InterleaveOutcome`.  ``span_clock`` gives the per-wave
    telemetry spans their simulated-time axis (the trainer passes the
    master clock).

    ``on_wave(wave_index, running, finished, outcome)`` is called after
    each wave's accounting, with the still-running members (post
    removal), the members that finished this wave, and the in-progress
    outcome.  The fault-injection layer uses it to take checkpoints and
    to abort the drive at a scripted device loss (by raising); the hook
    must not mutate the members, and an exception it raises propagates
    with sessions left at the just-completed round boundary.
    """
    for member in members:
        limits.validate_task(
            member.name, blocks=member.blocks, mem_bytes=member.mem_bytes
        )
    pending = deque(members)
    running: list[PairMember] = []
    timeline = SimClock()
    outcome = InterleaveOutcome(timeline=timeline)
    master_clock = (
        shared.computer.engine.clock if shared is not None else None
    )
    wave = WaveState(max((m.session.n for m in members), default=1))
    wave_index = 0

    while pending or running:
        # Admission: fill freed SM/memory capacity at the wave boundary.
        while pending and limits.admits(
            count=len(running),
            blocks=sum(m.blocks for m in running),
            mem_bytes=sum(m.mem_bytes for m in running),
            task_blocks=pending[0].blocks,
            task_mem_bytes=pending[0].mem_bytes,
        ):
            running.append(pending.popleft())
            wave.admit(running[-1].session)
        wave_index += 1
        outcome.max_concurrency = max(outcome.max_concurrency, len(running))

        with maybe_span(
            tracer,
            "interleave.wave",
            clock=span_clock,
            wave=wave_index,
            members=[m.name for m in running],
        ) as wave_span:
            snapshots = [m.engine.clock.copy() for m in running]

            # Selection half: every member refreshes its working set, all
            # in one stacked selection.
            requests = []
            finished: list[PairMember] = []
            rounds = begin_rounds([m.session for m in running])
            for member, request in zip(running, rounds):
                if request is None:
                    member.result = member.session.finish()
                    finished.append(member)
                elif shared is not None and request.missing.size:
                    requests.append(
                        (
                            member.problem.global_indices[request.missing],
                            member.problem.s,
                            member.problem.t,
                        )
                    )

            # Fused launch: the wave's whole missing-row demand at once.
            prefetch_segments = 0
            prefetch_seconds = 0.0
            if requests and shared is not None:
                before = master_clock.copy()
                prefetch_segments = shared.prefetch(requests)
                prefetch_seconds = master_clock.since(before).elapsed_s

            # Consumption half: gather every member's working set, solve
            # all subproblems in one lockstep stack, apply each result.
            stepping = [m.session for m in running if m not in finished]
            if stepping:
                results = solve_subproblem(gather_rounds(stepping))
                apply_rounds(stepping, results)

            # Concurrent wave accounting from the measured round deltas.
            deltas = [
                m.engine.clock.since(snap)
                for m, snap in zip(running, snapshots)
            ]
            serial_s = sum(d.elapsed_s for d in deltas)
            longest_chain = max((d.elapsed_s for d in deltas), default=0.0)
            total_compute = sum(d.compute_s for d in deltas)
            span_s = max(longest_chain, total_compute)
            if serial_s > 0:
                for delta in deltas:
                    timeline.merge_scaled(delta, span_s / serial_s)
            outcome.serial_seconds += serial_s
            outcome.concurrent_seconds += span_s

            outcome.wave_trace.append(
                {
                    "wave": wave_index,
                    "members": [m.name for m in running],
                    "n_members": len(running),
                    "finished": [m.name for m in finished],
                    "blocks": int(sum(m.blocks for m in running)),
                    "mem_bytes": int(sum(m.mem_bytes for m in running)),
                    "prefetch_segments": int(prefetch_segments),
                    "prefetch_seconds": float(prefetch_seconds),
                    "serial_seconds": float(serial_s),
                    "concurrent_seconds": float(span_s),
                }
            )
            wave_span.set(
                n_members=len(running),
                finished=len(finished),
                prefetch_segments=prefetch_segments,
                serial_seconds=serial_s,
                concurrent_seconds=span_s,
            )

        for member in finished:
            running.remove(member)
        if on_wave is not None:
            on_wave(wave_index, running, finished, outcome)

    if outcome.concurrent_seconds > 0:
        outcome.concurrency_speedup = (
            outcome.serial_seconds / outcome.concurrent_seconds
        )
    return outcome
