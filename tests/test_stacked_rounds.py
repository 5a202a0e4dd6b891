"""The stacked round halves and the wave-resident state against lone members.

``gather_rounds`` / ``apply_rounds`` pose and apply a whole wave's
subproblems at once over the sessions' resident ``WaveState`` rows.  The
references below are the per-member ``gather_round`` and ``apply_round``
bodies they replaced; every member's iterates, FIFO, flags, buffer
statistics, round trace, counters and clock must equal them bit for bit.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interleave import PairMember, run_interleaved
from repro.exceptions import ValidationError
from repro.gpusim import WaveLimits, make_engine, scaled_tesla_p100
from repro.kernels import GaussianKernel, KernelRowComputer
from repro.solvers import BatchSMOSolver, solve_subproblem
from repro.solvers.batch_smo import (
    WaveState,
    apply_rounds,
    begin_rounds,
    gather_rounds,
)
from repro.solvers.subproblem import (
    Subproblem,
    SubproblemResult,
    inner_iteration_budget,
)

# Lengths on both sides of NumPy's pairwise-summation blocks.
STRADDLING = (7, 8, 9, 15, 16, 17, 127, 128, 129)


# ----------------------------------------------------------------------
# References: one member's round, as a member alone ran it
# ----------------------------------------------------------------------
def reference_gather_round(session):
    """The per-member gather: fetch, one more residency probe, pose."""
    request = session._pending
    solver = session.solver
    ws_idx = request.ws_idx
    stats_before = (
        session.buffer.stats.snapshot() if session.round_trace is not None else None
    )
    k_rows = session.buffer.fetch(
        ws_idx, lambda ids: session.rows.rows(ids, category="kernel_values")
    )
    held = k_rows if session.buffer.missing(ws_idx).size else None
    sub = Subproblem(
        engine=session.engine,
        kernel=k_rows[:, ws_idx],
        diag=session.diagonal[ws_idx],
        y=session.labels[ws_idx],
        alpha=session.alpha[ws_idx],
        f=session.f[ws_idx],
        penalty=session.penalty[ws_idx],
        epsilon=solver.epsilon,
        max_iterations=inner_iteration_budget(
            ws_idx.size, request.delta, solver.epsilon, solver.inner_rule
        ),
    )
    return sub, (held, stats_before)


def reference_apply_round(session, sub, gathered):
    """The per-member apply: stall logic, weights, Eq.-8 update, FIFO."""
    request = session._pending
    k_rows, stats_before = gathered
    retained, new = session._pending_retained, session._pending_new
    session._pending = None
    session._pending_retained = session._pending_new = None
    labels, alpha = session.labels, session.alpha
    ws_idx = request.ws_idx
    session.inner_total += sub.iterations
    delta_alpha = sub.alpha - alpha[ws_idx]
    changed = np.abs(delta_alpha) > 0
    session.rounds += 1
    if session.round_trace is not None:
        since = session.buffer.stats.since(stats_before)
        session.round_trace.append(
            {
                "round": session.rounds,
                "delta": float(request.delta),
                "retained": int(retained.size),
                "new_violators": int(new.size),
                "inner_iterations": int(sub.iterations),
                "changed": int(changed.sum()),
                "buffer_hits": since.hits,
                "buffer_misses": since.misses,
                "buffer_evictions": since.evictions,
                "buffer_inserts": since.inserts,
            }
        )
    if not changed.any():
        session._stalled += 1
        if session._stalled == 1 and retained.size:
            session._ws_order.clear()
            return
        if session._stalled >= 2:
            session._finished = True
        return
    session._stalled = 0
    alpha[ws_idx] = sub.alpha
    coeffs = delta_alpha[changed] * labels[ws_idx][changed]
    if k_rows is None:
        session.f += coeffs @ session.buffer.peek(ws_idx[changed])
    else:
        session.f += coeffs @ k_rows[changed]
    session.engine.charge(
        "f_update",
        flops=2 * int(changed.sum()) * session.n,
        bytes_read=int(changed.sum()) * session.n * 8,
        bytes_written=session.n * 8,
        launches=1,
    )
    new_set = set(new.tolist())
    session._ws_order = [i for i in session._ws_order if i not in new_set]
    session._ws_order.extend(int(i) for i in new)
    session._ws_order = session._ws_order[-session.ws_size:]


def reference_round(session):
    """One full round of a lone member; False once it has terminated."""
    if begin_rounds([session])[0] is None:
        return False
    sub, gathered = reference_gather_round(session)
    reference_apply_round(session, solve_subproblem([sub])[0], gathered)
    return True


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
@st.composite
def member_specs(draw):
    """One member's problem: size, labels, weights, geometry, backend."""
    n = draw(st.one_of(st.sampled_from(STRADDLING), st.integers(4, 60)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    labels = draw(st.sampled_from(["random", "imbalanced"]))
    y = rng.choice([-1.0, 1.0], size=n)
    if labels == "imbalanced":  # one negative instance
        y = np.ones(n)
        y[rng.integers(n)] = -1.0
    if not ((y > 0).any() and (y < 0).any()):
        y[:2] = [1.0, -1.0]
    ws = draw(st.sampled_from([4, 8, 16]))
    return dict(
        seed=seed, y=y, weighted=draw(st.booleans()),
        working_set_size=ws,
        buffer_rows=draw(st.sampled_from([None, ws, ws + 2])),
        buffer_policy=draw(st.sampled_from(["fifo", "lru", "lfu"])),
        inner_rule=draw(st.sampled_from(["adaptive", "adaptive", "fixed"])),
        backend=draw(st.sampled_from([None, "numpy32"])),
        record=draw(st.booleans()),
    )


def make_session(spec):
    engine = make_engine(scaled_tesla_p100(), backend=spec["backend"])
    x = np.random.default_rng(spec["seed"]).normal(size=(spec["y"].size, 3))
    rows = KernelRowComputer(engine, GaussianKernel(gamma=0.5), x)
    solver = BatchSMOSolver(
        penalty=1.0, working_set_size=spec["working_set_size"],
        buffer_rows=spec["buffer_rows"], buffer_policy=spec["buffer_policy"],
        inner_rule=spec["inner_rule"], record_rounds=spec["record"],
    )
    y = spec["y"]
    penalty = np.where(y > 0, 1.0, 2.5) if spec["weighted"] else None
    return solver.start(rows, y, penalty_vector=penalty)


def state(session):
    """Everything a round may change, floats by their bits."""
    return (
        session.alpha.tobytes(), session.f.tobytes(), list(session._ws_order),
        session._stalled, session._finished, session.converged,
        session.rounds, session.inner_total,
        session.buffer.stats.as_dict(), session.buffer.resident_ids(),
        session.round_trace,
        session.engine.counters, session.engine.clock._latency,
        session.engine.clock._compute,
    )


def stacked_round(sessions):
    """One round of every session in one stack; the still-running ones."""
    requests = begin_rounds(sessions)
    live = [s for s, r in zip(sessions, requests) if r is not None]
    if live:
        apply_rounds(live, solve_subproblem(gather_rounds(live)))
    return live


@given(st.lists(member_specs(), min_size=1, max_size=6), st.randoms())
@settings(max_examples=60, deadline=None)
def test_stacked_rounds_match_lone_members_bitwise(specs, shuffle):
    """Wave members step exactly as each would alone, round after round."""
    alone = [make_session(spec) for spec in specs]
    got = [make_session(spec) for spec in specs]
    wave = WaveState(max(spec["y"].size for spec in specs))
    for session in got:
        wave.admit(session)
    order = list(range(len(got)))
    for _ in range(6):
        shuffle.shuffle(order)  # stack order need not follow slot order
        stacked_round([got[i] for i in order])
        for session in alone:
            reference_round(session)
        for mine, ref in zip(got, alone):
            assert state(mine) == state(ref)
    for mine, ref in zip(got, alone):
        want, have = ref.finish(), mine.finish()
        assert have.alpha.tobytes() == want.alpha.tobytes()
        assert have.f.tobytes() == want.f.tobytes()
        assert have.bias == want.bias


def test_stall_then_fifo_clear_then_finish():
    """A member whose weights do not move clears its FIFO, then stops."""
    spec = dict(
        seed=5, y=np.array([1.0, -1.0] * 10), weighted=False,
        working_set_size=8, buffer_rows=None, buffer_policy="fifo",
        inner_rule="adaptive", backend=None, record=True,
    )
    mover_spec = dict(spec, seed=6)
    got = [make_session(spec), make_session(mover_spec)]
    ref = [make_session(spec), make_session(mover_spec)]
    wave = WaveState(20)
    for session in got:
        wave.admit(session)
    for _ in range(2):  # the stalling member builds up a retained set
        stacked_round(got)
        for session in ref:
            reference_round(session)

    for stall in (1, 2):
        # Member 0's solve hands back its weights unchanged, in both forms.
        begin_rounds(got)
        retained = got[0]._pending_retained.size
        stack = gather_rounds(got)
        results = solve_subproblem(stack)
        results[0] = SubproblemResult(
            stack.alpha[0, : stack.sizes[0]].copy(), results[0].iterations, 0.0
        )
        apply_rounds(got, results)
        for session in ref:
            begin_rounds([session])
        posed = [reference_gather_round(s) for s in ref]
        solved = [solve_subproblem([sub])[0] for sub, _ in posed]
        solved[0] = SubproblemResult(
            posed[0][0].alpha.copy(), solved[0].iterations, 0.0
        )
        for session, (_, gathered), sub in zip(ref, posed, solved):
            reference_apply_round(session, sub, gathered)
        for mine, theirs in zip(got, ref):
            assert state(mine) == state(theirs)
        assert got[0]._stalled == stall
        if stall == 1:
            assert retained and got[0]._ws_order == [] and not got[0].done
        else:
            assert got[0].done and not got[1].done


def test_apply_rounds_needs_the_gathered_stack_in_order():
    specs = [
        dict(seed=s, y=np.array([1.0, -1.0] * 6), weighted=False,
             working_set_size=4, buffer_rows=None, buffer_policy="fifo",
             inner_rule="adaptive", backend=None, record=False)
        for s in (1, 2)
    ]
    sessions = [make_session(spec) for spec in specs]
    begin_rounds(sessions)
    results = solve_subproblem(gather_rounds(sessions))
    with pytest.raises(ValidationError, match="one gather_round call"):
        apply_rounds(sessions[::-1], results[::-1])
    apply_rounds(sessions, results)


# ----------------------------------------------------------------------
# Wave slots
# ----------------------------------------------------------------------
class TestWaveState:
    def _session(self, n, seed=0):
        y = np.array([1.0, -1.0] * (n // 2))
        spec = dict(
            seed=seed, y=y, weighted=True, working_set_size=4, buffer_rows=None,
            buffer_policy="fifo", inner_rule="adaptive", backend=None, record=False,
        )
        return make_session(spec)

    def test_admitted_state_is_a_view_of_the_slot(self):
        wave = WaveState(10)
        session = self._session(6)
        alpha = session.alpha.copy()
        wave.admit(session)
        assert np.shares_memory(session.alpha, wave.state)
        assert session.alpha.tobytes() == alpha.tobytes()
        session.f[:] = 7.0
        assert (wave.state[4, session._slot, :6] == 7.0).all()
        assert (wave.state[:, session._slot, 6:] == 0.0).all()

    def test_growing_keeps_every_member_bound(self):
        wave = WaveState(8)
        sessions = [self._session(n, seed) for seed, n in enumerate((4, 8, 6, 2))]
        before = [(s.labels.copy(), s.penalty.copy(), s.f.copy()) for s in sessions]
        for session in sessions:
            wave.admit(session)
        assert len(wave.members) == 4
        for session, (labels, penalty, f) in zip(sessions, before):
            assert np.shares_memory(session.f, wave.state)
            assert session.f.tobytes() == f.tobytes()
            rows = wave.state[:, session._slot, : session.n]
            assert rows[0].tobytes() == labels.tobytes()
            assert rows[1].tobytes() == penalty.tobytes()
            assert rows[2].tobytes() == session.diagonal.tobytes()
        assert (wave.state[:, :, -1] == 0.0).all()

    def test_retire_copies_out_and_frees_the_slot(self):
        wave = WaveState(8)
        first, second = self._session(6, 1), self._session(4, 2)
        wave.admit(first)
        wave.admit(second)
        slot = first._slot
        first.finish()
        assert first._wave is None and not np.shares_memory(first.alpha, wave.state)
        assert wave.members[slot] is None and (wave.state[:, slot] == 0.0).all()
        third = self._session(8, 3)
        wave.admit(third)
        assert third._slot == slot and np.shares_memory(third.f, wave.state)

    def test_too_wide_a_session_is_rejected(self):
        with pytest.raises(ValidationError, match="does not fit"):
            WaveState(4).admit(self._session(6))


def _members(n_members=5, *, seed=0, capped=()):
    """Pair members of different sizes on their own engines.

    A member in ``capped`` has a round cap of 0: it retires in the wave
    that admits it.
    """
    rng = np.random.default_rng(seed)
    members = []
    for index in range(n_members):
        n = int(rng.integers(8, 30))
        x = rng.normal(size=(n, 3))
        y = np.where(x[:, 0] + 0.5 * rng.normal(size=n) > 0, 1.0, -1.0)
        y[:2] = [1.0, -1.0]
        engine = make_engine(scaled_tesla_p100())
        rows = KernelRowComputer(engine, GaussianKernel(gamma=0.5), x)
        solver = BatchSMOSolver(
            penalty=1.0, working_set_size=8,
            max_rounds=0 if index in capped else None,
        )
        members.append(
            PairMember(
                index=index,
                problem=SimpleNamespace(s=index, t=index + 1),
                engine=engine, session=solver.start(rows, y), mem_bytes=0,
                blocks=1,
            )
        )
    return members


def _limits(max_concurrent):
    device = scaled_tesla_p100()
    return WaveLimits(
        num_sms=device.num_sms, mem_budget_bytes=device.global_mem_bytes,
        max_concurrent=max_concurrent,
    )


def _results(members):
    return [
        (m.result.alpha.tobytes(), m.result.f.tobytes(), m.result.bias,
         m.result.rounds, m.engine.clock._latency, m.engine.clock._compute)
        for m in members
    ]


def test_admission_and_retirement_share_waves():
    """Slots freed by finished members are reused by admitted ones.

    Member 3 retires in the wave that admits it, next to a member that
    has been running; every member ends bitwise as if solved alone.
    """
    members = _members(6, capped={3})
    outcome = run_interleaved(members, _limits(2))
    trace = outcome.wave_trace
    assert outcome.max_concurrency == 2
    assert any(
        "svm_3_4" in wave["finished"] and "svm_3_4" not in before["members"]
        and len(wave["members"]) == 2
        for before, wave in zip(trace, trace[1:])
    )
    lone = _members(6, capped={3})
    for member in lone:
        member.result = member.session.solver.solve(
            member.session.rows, member.session.labels
        )
    for got, want in zip(members, lone):
        assert got.result.alpha.tobytes() == want.result.alpha.tobytes()
        assert got.result.f.tobytes() == want.result.f.tobytes()
        assert got.result.bias == want.result.bias


def test_snapshot_restore_mid_drive_is_bitwise():
    """Snapshots of wave-resident sessions resume to the same results."""
    reference = _members(5, seed=4)
    run_interleaved(reference, _limits(3))
    snapshots = {}

    class Stop(Exception):
        pass

    def on_wave(index, running, finished, outcome):
        if index == 3:
            snapshots.update(
                {m.index: m.session.snapshot_state() for m in interrupted}
            )
            raise Stop

    interrupted = _members(5, seed=4)
    with pytest.raises(Stop):
        run_interleaved(interrupted, _limits(3), on_wave=on_wave)
    resumed = _members(5, seed=4)
    for member in resumed:
        member.session.restore_state(snapshots[member.index])
    run_interleaved(resumed, _limits(3))
    for got, want in zip(resumed, reference):
        assert got.result.alpha.tobytes() == want.result.alpha.tobytes()
        assert got.result.f.tobytes() == want.result.f.tobytes()
        assert got.result.bias == want.result.bias
        assert got.result.iterations == want.result.iterations
