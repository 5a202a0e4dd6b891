"""Wave packing rules and the overlap law of one concurrent wave.

:class:`~repro.gpusim.scheduler.WaveLimits` bounds which binary SVMs
share a wave; the interleaved wave driver
(:func:`~repro.core.interleave.run_interleaved`) executes the waves and
charges each one ``max(max_i(latency_i + compute_i), sum_i compute_i)``.
The driver tests below step scripted stub sessions, so every member's
round costs are exact, known time charges.  The stubs have no solver
state to stack or keep resident, so the driver's wave state and its
stacked round halves are swapped for ones that ask each stub alone.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import interleave
from repro.core.interleave import PairMember, run_interleaved
from repro.exceptions import ValidationError
from repro.gpusim import SimClock, TimeCharge, WaveLimits, scaled_tesla_p100
from repro.solvers.subproblem import Subproblem


@pytest.fixture(autouse=True)
def _stub_stacked_rounds(monkeypatch):
    monkeypatch.setattr(
        interleave, "WaveState", lambda width: SimpleNamespace(admit=lambda s: None)
    )
    monkeypatch.setattr(
        interleave, "begin_rounds", lambda sessions: [s.begin_round() for s in sessions]
    )
    monkeypatch.setattr(
        interleave, "gather_rounds", lambda stack: [s.gather_round() for s in stack]
    )

    def apply_each(sessions, results):
        for session, result in zip(sessions, results):
            session.apply_round(result)

    monkeypatch.setattr(interleave, "apply_rounds", apply_each)


class _ScriptedSession:
    """A resumable session whose rounds charge scripted times.

    Its subproblem has no iteration budget and an engine that charges
    nothing, so the stacked solve adds no time of its own.
    """

    n = 2  # instances, as the wave driver sizes its state

    def __init__(self, clock, rounds):
        self._clock = clock
        self._rounds = list(rounds)

    def begin_round(self):
        if not self._rounds:
            return None
        return SimpleNamespace(missing=np.empty(0, dtype=np.int64))

    def gather_round(self):
        return Subproblem(
            engine=SimpleNamespace(charge=lambda *args, **kwargs: None),
            kernel=np.eye(2),
            diag=np.ones(2),
            y=np.array([1.0, -1.0]),
            alpha=np.zeros(2),
            f=np.zeros(2),
            penalty=1.0,
            epsilon=1.0,
            max_iterations=0,
        )

    def apply_round(self, result):
        for category, charge in self._rounds.pop(0).items():
            self._clock.charge(category, charge)

    def finish(self):
        return "done"


def member(index, latency=0.0, compute=0.0, *, mem=0, blocks=1, rounds=None):
    """One wave member; by default a single round of ``(latency, compute)``."""
    clock = SimClock()
    if rounds is None:
        rounds = [{"round": TimeCharge(latency, compute)}]
    return PairMember(
        index=index,
        problem=SimpleNamespace(s=index, t=index),
        engine=SimpleNamespace(clock=clock),
        session=_ScriptedSession(clock, rounds),
        mem_bytes=mem,
        blocks=blocks,
    )


def limits(*, mem_budget_bytes=None, max_concurrent=None, num_sms=None):
    device = scaled_tesla_p100()
    return WaveLimits(
        num_sms=num_sms if num_sms is not None else device.num_sms,
        mem_budget_bytes=(
            mem_budget_bytes
            if mem_budget_bytes is not None
            else device.global_mem_bytes
        ),
        max_concurrent=max_concurrent,
    )


class TestWaveMakespan:
    def test_single_task_is_serial(self):
        outcome = run_interleaved([member(0, latency=1.0, compute=0.5)], limits())
        assert outcome.concurrent_seconds == pytest.approx(1.5)
        assert outcome.concurrency_speedup == pytest.approx(1.0)

    def test_latency_bound_tasks_overlap(self):
        members = [member(i, latency=1.0, compute=0.01) for i in range(8)]
        outcome = run_interleaved(members, limits())
        # Eight latency chains overlap: makespan ~ one chain, not eight.
        assert outcome.concurrent_seconds < 1.5
        assert outcome.concurrency_speedup > 5.0

    def test_compute_bound_tasks_do_not_overlap(self):
        members = [member(i, latency=0.0, compute=1.0) for i in range(4)]
        outcome = run_interleaved(members, limits())
        # Throughput is shared: total compute cannot shrink.
        assert outcome.concurrent_seconds == pytest.approx(4.0)

    def test_mixed_wave(self):
        members = [member(0, latency=2.0, compute=1.0), member(1, 0.1, 0.1)]
        outcome = run_interleaved(members, limits())
        assert outcome.concurrent_seconds == pytest.approx(3.0)  # longest chain

    def test_zero_latency_tasks_serialise_on_compute(self):
        # Pure-compute members have nothing to overlap: the wave makespan
        # is exactly the compute sum and the speedup stays at 1.
        members = [member(i, latency=0.0, compute=0.25) for i in range(6)]
        outcome = run_interleaved(members, limits())
        assert outcome.concurrent_seconds == pytest.approx(1.5)
        assert outcome.concurrency_speedup == pytest.approx(1.0)

    def test_single_task_waves_degrade_to_serial_makespan(self):
        # With max_concurrent=1 every wave holds one member, so the
        # makespan must equal the serial sum exactly.
        members = [member(i, latency=0.3, compute=0.7) for i in range(5)]
        outcome = run_interleaved(members, limits(max_concurrent=1))
        assert outcome.max_concurrency == 1
        assert outcome.concurrent_seconds == pytest.approx(outcome.serial_seconds)
        assert outcome.concurrency_speedup == pytest.approx(1.0)

    def test_each_round_is_its_own_wave(self):
        # Two members of two rounds each: the overlap law applies per
        # executed round, not to the members' whole serial clocks.
        rounds_a = [{"round": TimeCharge(1.0, 0.0)}, {"round": TimeCharge(0.0, 1.0)}]
        rounds_b = [{"round": TimeCharge(0.0, 1.0)}, {"round": TimeCharge(1.0, 0.0)}]
        outcome = run_interleaved(
            [member(0, rounds=rounds_a), member(1, rounds=rounds_b)], limits()
        )
        assert [w["concurrent_seconds"] for w in outcome.wave_trace] == [
            1.0, 1.0, 0.0
        ]
        assert outcome.concurrent_seconds == pytest.approx(2.0)
        assert outcome.serial_seconds == pytest.approx(4.0)


class TestPackingConstraints:
    def test_memory_cap_forces_waves(self):
        members = [member(i, latency=1.0, mem=60) for i in range(4)]
        outcome = run_interleaved(members, limits(mem_budget_bytes=100))
        assert outcome.max_concurrency == 1
        assert all(wave["n_members"] == 1 for wave in outcome.wave_trace)

    def test_sm_cap_forces_waves(self):
        members = [member(i, latency=1.0, blocks=28) for i in range(4)]  # 56 SMs
        outcome = run_interleaved(members, limits())
        assert outcome.max_concurrency == 2

    def test_max_concurrent_cap(self):
        members = [member(i, latency=1.0) for i in range(7)]
        outcome = run_interleaved(members, limits(max_concurrent=3))
        assert outcome.max_concurrency == 3

    def test_oversized_memory_task_is_rejected_by_name(self):
        with pytest.raises(ValidationError, match="svm_9_9"):
            run_interleaved(
                [member(9, latency=1.0, mem=1000)], limits(mem_budget_bytes=10)
            )

    def test_oversized_block_task_is_rejected_by_name(self):
        device = scaled_tesla_p100()
        with pytest.raises(ValidationError, match="svm_4_4"):
            run_interleaved(
                [member(4, latency=1.0, blocks=device.num_sms + 1)], limits()
            )

    def test_task_exactly_at_capacity_is_admitted(self):
        device = scaled_tesla_p100()
        full = member(0, latency=1.0, mem=1000, blocks=device.num_sms)
        outcome = run_interleaved([full], limits(mem_budget_bytes=1000))
        assert outcome.max_concurrency == 1
        assert outcome.concurrent_seconds == pytest.approx(1.0)

    def test_bad_parameters(self):
        with pytest.raises(ValidationError):
            limits(max_concurrent=0)
        with pytest.raises(ValidationError):
            limits(mem_budget_bytes=0)


class TestAggregateClock:
    def test_fractions_preserved_and_total_matches_makespan(self):
        rounds = [
            {
                "kernel_values": TimeCharge(0.5, 0.25),
                "subproblem": TimeCharge(0.25, 0.0),
            }
        ]
        members = [member(i, rounds=list(rounds)) for i in range(3)]
        outcome = run_interleaved(members, limits())
        assert outcome.timeline.elapsed_s == pytest.approx(
            outcome.concurrent_seconds
        )
        fractions = outcome.timeline.fraction_breakdown()
        assert fractions["kernel_values"] == pytest.approx(0.75)
        assert fractions["subproblem"] == pytest.approx(0.25)

    def test_empty_plan(self):
        outcome = run_interleaved([], limits())
        assert outcome.concurrent_seconds == 0.0
        assert outcome.timeline.elapsed_s == 0.0
        assert outcome.wave_trace == []


class TestWaveLimits:
    """The packing rules the interleaved driver admits members under."""

    def _limits(self, **kwargs):
        kwargs.setdefault("num_sms", 8)
        kwargs.setdefault("mem_budget_bytes", 1000)
        return WaveLimits(**kwargs)

    def test_empty_wave_admits_any_validated_task(self):
        limits = self._limits()
        assert limits.admits(
            count=0, blocks=0, mem_bytes=0, task_blocks=99, task_mem_bytes=10**9
        )

    def test_validate_task_names_the_offender(self):
        limits = self._limits(num_sms=8, mem_budget_bytes=1000)
        with pytest.raises(ValidationError, match="svm_3_7"):
            limits.validate_task("svm_3_7", blocks=9, mem_bytes=0)
        with pytest.raises(ValidationError, match="svm_0_1"):
            limits.validate_task("svm_0_1", blocks=1, mem_bytes=1001)

    def test_validate_task_accepts_exact_capacity(self):
        limits = self._limits(num_sms=8, mem_budget_bytes=1000)
        limits.validate_task("fits", blocks=8, mem_bytes=1000)

    def test_sm_capacity_bounds_admission(self):
        limits = self._limits(num_sms=8)
        assert limits.admits(
            count=1, blocks=4, mem_bytes=0, task_blocks=4, task_mem_bytes=0
        )
        assert not limits.admits(
            count=1, blocks=4, mem_bytes=0, task_blocks=5, task_mem_bytes=0
        )

    def test_memory_budget_bounds_admission(self):
        limits = self._limits(mem_budget_bytes=100)
        assert limits.admits(
            count=1, blocks=1, mem_bytes=60, task_blocks=1, task_mem_bytes=40
        )
        assert not limits.admits(
            count=1, blocks=1, mem_bytes=60, task_blocks=1, task_mem_bytes=41
        )

    def test_concurrency_cap_bounds_admission(self):
        limits = self._limits(max_concurrent=2)
        assert limits.admits(
            count=1, blocks=1, mem_bytes=0, task_blocks=1, task_mem_bytes=0
        )
        assert not limits.admits(
            count=2, blocks=2, mem_bytes=0, task_blocks=1, task_mem_bytes=0
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            self._limits(num_sms=0)
        with pytest.raises(ValidationError):
            self._limits(mem_budget_bytes=0)
        with pytest.raises(ValidationError):
            self._limits(max_concurrent=0)

    def test_scheduler_exposes_its_limits(self):
        # The trainer derives each device's wave limits from its config
        # and the bytes the device already holds.
        from repro.core.trainer import TrainerConfig, _interleave_limits

        device = scaled_tesla_p100()
        config = TrainerConfig(device=device, max_concurrent_svms=3)
        limits = _interleave_limits(config, 500)
        assert limits.max_concurrent == 3
        assert limits.mem_budget_bytes == device.global_mem_bytes - 500
        assert limits.num_sms == device.num_sms
