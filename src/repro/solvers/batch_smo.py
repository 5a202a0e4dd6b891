"""The GMP-SVM batched working-set solver (Section 3.3.1, Algorithm 2).

Per outer round:

1. check global optimality (Eq. 9) and measure ``delta = f_l - f_u``;
2. sort the optimality indicators and select ``q`` new maximally-violating
   instances (q/2 whose ``y alpha`` can rise, q/2 that can fall);
3. refresh the working set FIFO-style — the q oldest members leave, the
   q new violators join ("q instances in the working set will be replaced
   with q new violating instances");
4. fetch the working set's kernel rows through the GPU buffer — missing
   rows are computed as *one* batched product (this is where the >10x
   per-row saving of batching comes from) and inserted with FIFO batch
   replacement;
5. run inner SMO on the working set with a delta-adaptive iteration budget
   (early termination avoids local optimisation on the working set);
6. apply one batched Eq.-8 update of all n indicators using the buffered
   rows of the instances whose weights changed.

The solver produces the same optimum as classic SMO (both satisfy Eq. 9 at
the same epsilon); it simply gets there with far fewer, far larger device
operations.

The round loop is exposed as a *resumable stepper*
(:class:`BatchSMOSession`): :meth:`BatchSMOSolver.start` creates a session
whose :meth:`~BatchSMOSession.begin_round` performs the pre-fetch half of a
round (optimality check, violator selection, working-set refresh) and
returns the round's kernel-row demand, and whose
:meth:`~BatchSMOSession.complete_round` consumes the rows and runs the
inner solve plus the Eq.-8 update.  :meth:`BatchSMOSolver.solve` is a thin
loop over the stepper, so the monolithic and stepped paths share one code
path and cannot diverge.  Every round half is a stacked function over many
sessions, and the session methods are those functions on a stack of one:
``begin_round`` is :func:`begin_rounds`, and ``complete_round`` is
:func:`gather_rounds` (row fetch, working-set blocks, budgets),
:func:`~repro.solvers.subproblem.solve_subproblem` and
:func:`apply_rounds` (stall logic, weights, Eq.-8 update, FIFO).  The
sessions' alpha, f, labels, penalty and kernel diagonal live in the rows
of a :class:`WaveState`, so the stacked halves read and write them in
place.  The interleaved concurrent trainer (:mod:`repro.core.interleave`)
admits many sessions into one wave and steps them in lockstep: one
stacked call per half, kernel-row demands fused into shared batched
launches, and all subproblems solved in one stack.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Callable, Optional, Sequence

import numpy as np

from repro.exceptions import ConvergenceWarning, ValidationError
from repro.gpusim.engine import Engine
from repro.kernels.cache import KernelBuffer
from repro.kernels.rows import KernelRowComputer
from repro.solvers.base import (
    SolverResult,
    bias_from_f,
    dual_objective,
    lower_mask,
    optimality_gap,
    resolve_penalty_vector,
    upper_mask,
    validate_binary_problem,
)
from repro.solvers.subproblem import (
    SubproblemResult,
    SubproblemStack,
    inner_iteration_budget,
    solve_subproblem,
)
from repro.solvers.working_set import ViolatorSelection, select_new_violators
from repro.telemetry.tracer import Tracer, maybe_span

# Alpha's row in a wave's resident state (labels, penalty, diagonal, alpha, f).
_ALPHA = 3

__all__ = [
    "BatchSMOSolver",
    "BatchSMOSession",
    "RoundRequest",
    "WaveState",
    "apply_rounds",
    "begin_rounds",
    "gather_rounds",
]


class RoundRequest:
    """One round's kernel-row demand, produced by ``begin_round``.

    ``ws_idx`` is the refreshed working set (local indices); ``missing``
    is the subset whose kernel rows are not resident in the session's
    buffer (a probe — no hit/miss statistics are charged until the rows
    are actually fetched in ``gather_round``).  ``delta`` is the global
    KKT violation ``f_l - f_u`` measured at the top of the round.
    """

    __slots__ = ("ws_idx", "missing", "delta")

    def __init__(self, ws_idx: np.ndarray, missing: np.ndarray, delta: float) -> None:
        self.ws_idx = ws_idx
        self.missing = missing
        self.delta = float(delta)


class BatchSMOSolver:
    """Batched working-set SMO with a device-resident kernel buffer."""

    def __init__(
        self,
        *,
        penalty: float,
        epsilon: float = 1e-3,
        working_set_size: int = 256,
        new_per_round: Optional[int] = None,
        buffer_rows: Optional[int] = None,
        buffer_policy: str = "fifo",
        inner_rule: str = "adaptive",
        max_rounds: Optional[int] = None,
        register_buffer_memory: bool = True,
        tracer: Optional[Tracer] = None,
        record_rounds: bool = False,
    ) -> None:
        if epsilon <= 0:
            raise ValidationError(f"epsilon must be positive, got {epsilon}")
        if working_set_size < 2:
            raise ValidationError("working_set_size must be >= 2")
        self.penalty = float(penalty)
        self.epsilon = float(epsilon)
        self.working_set_size = int(working_set_size)
        self.new_per_round = new_per_round
        self.buffer_rows = buffer_rows
        self.buffer_policy = buffer_policy
        self.inner_rule = inner_rule
        self.max_rounds = max_rounds
        self.register_buffer_memory = register_buffer_memory
        self.tracer = tracer
        self.record_rounds = record_rounds

    def start(
        self,
        rows: KernelRowComputer,
        y: np.ndarray,
        *,
        penalty_vector: Optional[np.ndarray] = None,
        initial_f: Optional[np.ndarray] = None,
        initial_alpha: Optional[np.ndarray] = None,
    ) -> "BatchSMOSession":
        """Open a resumable training session on the problem ``rows`` serves.

        The caller drives rounds via :meth:`BatchSMOSession.begin_round` /
        :meth:`BatchSMOSession.complete_round` and collects the final
        :class:`~repro.solvers.base.SolverResult` from
        :meth:`BatchSMOSession.finish`.
        """
        return BatchSMOSession(
            self,
            rows,
            y,
            penalty_vector=penalty_vector,
            initial_f=initial_f,
            initial_alpha=initial_alpha,
        )

    def solve(
        self,
        rows: KernelRowComputer,
        y: np.ndarray,
        *,
        penalty_vector: Optional[np.ndarray] = None,
        initial_f: Optional[np.ndarray] = None,
        initial_alpha: Optional[np.ndarray] = None,
    ) -> SolverResult:
        """Train one binary SVM on the problem served by ``rows``.

        ``penalty_vector`` optionally gives per-instance box bounds
        (class-weighted C, LibSVM's ``-wi``).  ``initial_alpha`` and
        ``initial_f`` warm-start the run from an earlier state (warm-start
        refits, cascade merge and feedback): they are given together, and
        ``initial_f`` must be the Eq.-3 indicators of those weights.
        """
        session = self.start(
            rows,
            y,
            penalty_vector=penalty_vector,
            initial_f=initial_f,
            initial_alpha=initial_alpha,
        )
        try:
            while session.begin_round() is not None:
                session.complete_round()
            return session.finish()
        finally:
            session.close()


class BatchSMOSession:
    """Resumable per-round state of one batched-SMO training run.

    A session splits every outer round into two halves so a concurrent
    driver can interleave many solvers:

    - :meth:`begin_round` — the selection half: optimality check,
      violator selection and working-set refresh.  Returns the round's
      :class:`RoundRequest` (including which kernel rows are missing from
      the buffer), or ``None`` once the run has terminated.
    - :meth:`complete_round` — the consumption half: fetch the rows
      (optionally through a caller-supplied loader, e.g. one backed by a
      wave-fused batched launch), solve the working-set subproblem and
      apply the batched Eq.-8 indicator update; its parts are
      :meth:`gather_round` and :meth:`apply_round` around the solve.

    Each method is its stacked module function (:func:`begin_rounds`,
    :func:`gather_rounds`, :func:`apply_rounds`) on a stack of one; a
    concurrent driver calls those functions on a whole wave.  The
    session's ``alpha`` and ``f`` are views of its :class:`WaveState`
    slot from its first round until :meth:`finish` copies them out;
    :meth:`snapshot_state` and :meth:`restore_state` take and give plain
    arrays.  Stepping a session produces *bitwise-identical* iterates to
    the monolithic :meth:`BatchSMOSolver.solve`, which is itself
    implemented as a loop over a session.
    """

    def __init__(
        self,
        solver: BatchSMOSolver,
        rows: KernelRowComputer,
        y: np.ndarray,
        *,
        penalty_vector: Optional[np.ndarray] = None,
        initial_f: Optional[np.ndarray] = None,
        initial_alpha: Optional[np.ndarray] = None,
    ) -> None:
        self.solver = solver
        self.rows = rows
        labels = validate_binary_problem(y, solver.penalty)
        n = rows.n
        if labels.size != n:
            raise ValidationError(f"{labels.size} labels for {n} instances")
        self.labels = labels
        self.n = n
        self.engine = rows.engine
        self.penalty = resolve_penalty_vector(solver.penalty, n, penalty_vector)

        # Buffer geometry: the paper's buffer stores "m x q rows of the
        # kernel matrix (i.e., allow m batches to be stored)"; the default
        # keeps m = 2 — the current working set plus the previous batch.
        # The working set can never exceed the buffer (Figure 6: "changing
        # the GPU buffer size is effectively varying the working set").
        buffer_rows = (
            solver.buffer_rows if solver.buffer_rows else 2 * solver.working_set_size
        )
        ws_size = min(solver.working_set_size, buffer_rows, n)
        ws_size = max(2, ws_size - ws_size % 2)
        self.ws_size = ws_size
        q = solver.new_per_round if solver.new_per_round else max(2, ws_size // 2)
        q = max(2, min(q, ws_size))
        q -= q % 2
        self.q = q
        self.max_rounds = (
            solver.max_rounds
            if solver.max_rounds is not None
            else max(2_000, (40 * n) // q)
        )

        # Warm-start state is one (alpha, f) pair: either half alone would
        # start from indicators that do not match the weights (Eq. 3).
        if (initial_alpha is None) != (initial_f is None):
            raise ValidationError(
                "initial_alpha and initial_f must be given together"
            )
        if initial_alpha is None:
            self.alpha = np.zeros(n)
            self.f = -labels.copy()
        else:
            self.alpha = np.asarray(initial_alpha, dtype=np.float64).copy()
            if self.alpha.shape != (n,):
                raise ValidationError(
                    f"initial_alpha shape {self.alpha.shape} != ({n},)"
                )
            self.f = np.asarray(initial_f, dtype=np.float64).copy()
            if self.f.shape != (n,):
                raise ValidationError(f"initial_f shape {self.f.shape} != ({n},)")
        self.diagonal = rows.diagonal()
        self._load_rows = functools.partial(rows.rows, category="kernel_values")
        # The WaveState slot the arrays above become views of (see
        # _stacked_state); None until the session is first stacked.
        self._wave: Optional[WaveState] = None
        self._slot = 0
        self.inner_total = 0
        self.rounds = 0
        self.converged = False
        self._stalled = 0
        self._ws_order: list[int] = []  # FIFO of working-set membership

        self.buffer = KernelBuffer(
            buffer_rows,
            n,
            policy=solver.buffer_policy,
            allocator=self.engine.allocator if solver.register_buffer_memory else None,
            tag="kernel-buffer",
            tracer=solver.tracer,
        )
        # Per-round telemetry is opt-in: with no tracer and record_rounds
        # False the hot loop takes a single falsy check per round.
        self.round_trace: Optional[list[dict]] = (
            [] if (solver.record_rounds or solver.tracer is not None) else None
        )
        # Entered manually; close() (idempotent, called by finish and by
        # solve's finally) exits it even on exceptions.
        self._solve_span = maybe_span(
            solver.tracer,
            "solver.batch_smo",
            clock=self.engine.clock,
            n=n,
            working_set_size=ws_size,
            new_per_round=q,
        ).__enter__()
        self._pending: Optional[RoundRequest] = None
        self._pending_retained: Optional[np.ndarray] = None
        self._pending_new: Optional[np.ndarray] = None
        # (stack, row in it, working-set lanes, fetched rows or None,
        # buffer stats before)
        self._gathered: Optional[tuple] = None
        self._finished = False
        self._closed = False
        self._result: Optional[SolverResult] = None

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """Whether the run has terminated (no further rounds will occur)."""
        return self._finished

    # ------------------------------------------------------------------
    # Snapshot / restore (checkpointable state, see repro.faults)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """The session's complete resumable state at a round boundary.

        The returned mapping — alpha, f, round counters, working-set
        FIFO, stall count and termination flags — fully determines every
        future iterate: kernel values are pure functions of the data
        rows, so a session restored from this state replays bitwise the
        rounds this one would have run.  The kernel buffer is deliberately
        excluded; an empty buffer after restore only changes *which* rows
        are recomputed (statistics), never their values.
        """
        if self._pending is not None:
            raise ValidationError(
                "cannot snapshot a session with a round in flight"
            )
        return {
            "alpha": self.alpha.copy(),
            "f": self.f.copy(),
            "rounds": int(self.rounds),
            "inner_total": int(self.inner_total),
            "ws_order": list(self._ws_order),
            "stalled": int(self._stalled),
            "converged": bool(self.converged),
            "finished": bool(self._finished),
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite this (fresh) session's state with a snapshot's.

        The session must serve the same problem the snapshot came from
        (same instance count) and must not have a round in flight or a
        finalized result.
        """
        if self._pending is not None:
            raise ValidationError(
                "cannot restore into a session with a round in flight"
            )
        if self._result is not None:
            raise ValidationError("cannot restore into a finished session")
        alpha = np.asarray(state["alpha"], dtype=np.float64)
        f = np.asarray(state["f"], dtype=np.float64)
        if alpha.shape != (self.n,) or f.shape != (self.n,):
            raise ValidationError(
                f"snapshot arrays of shape {alpha.shape}/{f.shape} do not "
                f"fit a {self.n}-instance problem"
            )
        self.alpha[:] = alpha
        self.f[:] = f
        self.rounds = int(state["rounds"])
        self.inner_total = int(state["inner_total"])
        self._ws_order = [int(i) for i in state["ws_order"]]
        self._stalled = int(state["stalled"])
        self.converged = bool(state["converged"])
        self._finished = bool(state["finished"])

    def begin_round(self) -> Optional[RoundRequest]:
        """Run the selection half of the next round (a stack of one).

        Returns the round's :class:`RoundRequest`, or ``None`` once the
        run has terminated (convergence, stall, no violators, or the
        round cap).  ``None`` also marks the session finished — call
        :meth:`finish` to collect the result.  See :func:`begin_rounds`.
        """
        return begin_rounds([self])[0]

    def complete_round(
        self, loader: Optional[Callable[[np.ndarray], np.ndarray]] = None
    ) -> None:
        """Run the consumption half of the round opened by ``begin_round``.

        The round's subproblem is solved alone (a stack of one): this is
        :meth:`gather_round`, :func:`solve_subproblem` and
        :meth:`apply_round` in sequence.
        """
        self.apply_round(solve_subproblem(self.gather_round(loader))[0])

    def gather_round(
        self, loader: Optional[Callable[[np.ndarray], np.ndarray]] = None
    ) -> SubproblemStack:
        """Fetch the working set's kernel rows and pose its subproblem.

        A stack of one; see :func:`gather_rounds`.  The result goes to
        :func:`solve_subproblem`, and its solution to :meth:`apply_round`.
        """
        return gather_rounds([self], [loader])

    def apply_round(self, sub: SubproblemResult) -> None:
        """Apply the solved subproblem :meth:`gather_round` posed.

        A stack of one; see :func:`apply_rounds`.
        """
        apply_rounds([self], [sub])

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------
    def finish(self) -> SolverResult:
        """Finalize the run and return its :class:`SolverResult`.

        Must be called after :meth:`begin_round` returned ``None`` (or to
        cut the run short); idempotent per session via the cached result.
        """
        if self._result is not None:
            return self._result
        self._finished = True
        if self._wave is not None:
            self._wave.retire(self)
        labels, alpha, f, penalty = self.labels, self.alpha, self.f, self.penalty
        if not self.converged:
            warnings.warn(
                f"batched SMO stopped after {self.rounds} rounds with gap "
                f"{optimality_gap(f, labels, alpha, penalty):.3g} > eps "
                f"{self.solver.epsilon:.3g}",
                ConvergenceWarning,
                stacklevel=2,
            )
        stats = self.buffer.stats
        self._solve_span.set(
            rounds=self.rounds,
            iterations=self.inner_total,
            converged=self.converged,
            buffer_hit_rate=stats.hit_rate,
        )
        self._result = SolverResult(
            alpha=alpha,
            bias=bias_from_f(f, labels, alpha, penalty),
            converged=self.converged,
            iterations=self.inner_total,
            rounds=self.rounds,
            objective=dual_objective(alpha, labels, f),
            final_gap=optimality_gap(f, labels, alpha, penalty),
            kernel_rows_computed=stats.inserts,
            buffer_hit_rate=stats.hit_rate,
            diagnostics={
                "buffer_evictions": stats.evictions,
                "buffer_requests": stats.requests,
                "working_set_size": self.ws_size,
                "new_per_round": self.q,
            },
            f=f,
            round_trace=self.round_trace,
        )
        self.close()
        return self._result

    def close(self) -> None:
        """Release the buffer and close the solver span (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._solve_span.__exit__(None, None, None)
        self.buffer.free()


class WaveState:
    """The resident solver state of the sessions stepped together.

    Each admitted session holds one slot of a ``(5, S, width + 1)`` array
    (labels, penalty, kernel diagonal, alpha, f), and its own ``alpha``
    and ``f`` are views of its slot, so the stacked round halves read
    every member's state and write its weights without re-stacking them.
    Lanes past a member's ``n`` stay 0; the last column, zero in every
    slot, is the pad lane of a shorter member's working-set gather.  A
    driver puts its sessions into one wave with :meth:`admit` (a session
    stepped alone gets a wave of its own), and :meth:`retire` (called by
    :meth:`BatchSMOSession.finish`) copies a session's alpha and f out and
    frees its slot.
    """

    def __init__(self, width: int) -> None:
        self.width = int(width)
        self.state = np.zeros((5, 1, self.width + 1))
        self.members: list[Optional[BatchSMOSession]] = [None]

    def admit(self, session: BatchSMOSession) -> None:
        """Move ``session``'s state into a free slot of this wave."""
        if session.n > self.width:
            raise ValidationError(
                f"a {session.n}-instance session does not fit a wave of "
                f"width {self.width}"
            )
        if None not in self.members:  # double the slots, keeping every row
            self.state = np.concatenate([self.state, np.zeros_like(self.state)], 1)
            self.members += [None] * len(self.members)
            for member in filter(None, self.members):
                _bind(member, self.state[:, member._slot])
        slot = self.members.index(None)
        self.state[:, slot, : session.n] = (
            session.labels, session.penalty, session.diagonal, session.alpha,
            session.f,
        )
        if session._wave is not None:
            session._wave._free(session)
        self.members[slot] = session
        session._wave, session._slot = self, slot
        _bind(session, self.state[:, slot])

    def retire(self, session: BatchSMOSession) -> None:
        """Give ``session`` its weights and indicators back as its own arrays."""
        _bind(session, self.state[_ALPHA:, session._slot, : session.n].copy())
        self._free(session)

    def _free(self, session: BatchSMOSession) -> None:
        self.state[:, session._slot] = 0.0
        self.members[session._slot] = None
        session._wave = None


def _bind(session: BatchSMOSession, rows: np.ndarray) -> None:
    # ``rows`` end with alpha and f.  The constants stay the session's own
    # arrays; the wave's copies of them are read only by the stacked halves.
    session.alpha, session.f = rows[-2:, : session.n]


def _stacked_state(sessions: Sequence[BatchSMOSession]) -> np.ndarray:
    """The sessions' resident state as one ``(5, S, width + 1)`` array.

    Its last column is zero in every row.  Sessions not all in one wave
    (a lone session, the first time) are first admitted into a new one.
    """
    wave = sessions[0]._wave
    if wave is None or any(s._wave is not wave for s in sessions):
        wave = WaveState(max(s.n for s in sessions))
        for session in sessions:
            wave.admit(session)
    slots = [s._slot for s in sessions]
    if slots == list(range(slots[0], slots[0] + len(slots))):
        return wave.state[:, slots[0] : slots[0] + len(slots)]  # a view
    return wave.state[:, slots]


def begin_rounds(
    sessions: Sequence[BatchSMOSession],
) -> list[Optional[RoundRequest]]:
    """Run the selection half of every session's next round in one stack.

    Per session: the round cap, the optimality check (Eq. 9) and
    ``delta = f_l - f_u``, violator selection and the working-set
    refresh.  Returns one :class:`RoundRequest` per session, or ``None``
    for a session that has terminated (and is now marked finished).

    The live sessions' resident state is read as padded ``(S, n)`` arrays
    (padded lanes have label 0, so they are in neither violator set): the
    ``I_up``/``I_low`` masks are built once, the masked extrema take the
    first lane on ties as :meth:`~repro.gpusim.engine.Engine.reduce_extremum`
    does, and :func:`select_new_violators` picks every member's violators
    in one call.  A member whose picks are all excluded by its retained
    working set drops that set and selects again, in one second call for
    all such members.  Each member's request, state and charges are
    bitwise those of a stack of one.  The device charges come last, each
    member's in full on its own engine before the next member's, in the
    order a member issues them alone, so even members sharing one clock
    add the same floats in the same order.
    """
    for session in sessions:
        if session._pending is not None and not session._finished:
            raise ValidationError("begin_round called with a round in flight")
    live = []
    for session in sessions:
        if not session._finished and session.rounds >= session.max_rounds:
            session._finished = True
        if not session._finished:
            live.append(session)
    if not live:
        return [None] * len(sessions)

    count = len(live)
    sizes = [s.n for s in live]
    labels, penalty, _, alpha, f = _stacked_state(live)
    up = upper_mask(labels, alpha, penalty)
    low = lower_mask(labels, alpha, penalty)
    # Masked extrema; an empty mask leaves the (non-finite) fill value.
    rows = np.arange(count)
    f_up = np.where(up, f, np.inf)
    f_up = f_up[rows, f_up.argmin(axis=1)].tolist()
    f_low = np.where(low, f, -np.inf)
    f_low = f_low[rows, f_low.argmax(axis=1)].tolist()

    # Per live member: selection attempts past the checks (0, 1 or 2),
    # delta, retained working set and picks.
    tries, deltas = [0] * count, [0.0] * count
    retained: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * count
    selecting, selections = [], []
    for row, (session, n) in enumerate(zip(live, sizes)):
        finite = math.isfinite(f_up[row]) and math.isfinite(f_low[row])
        if finite:
            deltas[row] = f_low[row] - f_up[row]
        if not finite or deltas[row] <= session.solver.epsilon:
            session.converged = True
            session._finished = True
            continue
        tries[row] = 1
        kept = np.asarray(
            session._ws_order[-(session.ws_size - session.q):], dtype=np.int64
        )
        retained[row] = kept
        selecting.append(row)
        selections.append(
            ViolatorSelection(
                f=f[row, :n], up=up[row, :n], low=low[row, :n],
                wanted=session.q if kept.size else session.ws_size,
                exclude=kept if kept.size else None,
            )
        )
    picks = dict(zip(selecting, select_new_violators(selections)))

    # A member whose retained set excluded every violator drops the set
    # and selects again; its masks and delta are unchanged, so it passes
    # the checks again.
    retry = [
        k for k, row in enumerate(selecting)
        if not picks[row].size and retained[row].size
    ]
    for k in retry:
        row = selecting[k]
        live[row]._ws_order.clear()
        tries[row], retained[row] = 2, np.asarray([], dtype=np.int64)
        selections[k].wanted, selections[k].exclude = live[row].ws_size, None
    if retry:
        again = select_new_violators([selections[k] for k in retry])
        picks.update(zip([selecting[k] for k in retry], again))

    for row, new in picks.items():
        session = live[row]
        if new.size == 0:
            session._finished = True  # no violators selectable at all
            continue
        kept = retained[row]
        ws_idx = np.concatenate([kept, new]) if kept.size else new
        session._pending = RoundRequest(
            ws_idx, session.buffer.missing(ws_idx), deltas[row]
        )
        session._pending_retained = kept
        session._pending_new = new

    for session, n, attempts in zip(live, sizes, tries):
        _charge_selection(session.engine, n, attempts)
    return [None if s._finished else s._pending for s in sessions]


def gather_rounds(
    sessions: Sequence[BatchSMOSession],
    loaders: Optional[Sequence[Optional[Callable[[np.ndarray], np.ndarray]]]] = None,
) -> SubproblemStack:
    """Fetch every session's working-set rows and pose all subproblems.

    Each session's buffer resolves its working set in one lookup and
    computes the rows ``begin_rounds`` found missing through its loader
    (``loaders[i]``, called at most once; by default the session's own
    row provider).  A concurrent driver's loader is backed by a
    wave-fused launch, whose values must be identical, so the iterates
    cannot depend on the execution schedule.  The ``(ws, ws)`` blocks go
    into one padded stack, the working-set labels, penalty, diagonal,
    alpha and f come from the resident state in one gather, and the inner
    budgets are one vector expression.  The stack goes to
    :func:`solve_subproblem`, and its solutions to :func:`apply_rounds`
    with the same sessions in the same order.
    """
    for session in sessions:
        if session._pending is None:
            raise ValidationError("round completed without begin_round")
        if session._gathered is not None:
            raise ValidationError("gather_round called twice in one round")
    count = len(sessions)
    requests = [s._pending for s in sessions]
    sizes = np.array([r.ws_idx.size for r in requests])
    width = int(sizes.max())
    kernel = np.zeros((count, width, width))
    state = _stacked_state(sessions)
    lanes = np.full((count, width), state.shape[2] - 1)  # the zero pad lane
    held = []
    for row, (session, request) in enumerate(zip(sessions, requests)):
        ws_idx, ws = request.ws_idx, request.ws_idx.size
        stats = (
            session.buffer.stats.snapshot()
            if session.round_trace is not None else None
        )
        loader = loaders[row] if loaders is not None else None
        k_rows = session.buffer.fetch(ws_idx, loader or session._load_rows)
        kernel[row, :ws, :ws] = k_rows[:, ws_idx]
        lanes[row, :ws] = ws_idx
        # apply_rounds re-reads the rows from the buffer unless inserting
        # this round's misses evicted working-set rows.
        evicted = request.missing.size and session.buffer.missing(ws_idx).size
        held.append((k_rows if evicted else None, stats))
    labels, penalty, diag, alpha, f = state[:, np.arange(count)[:, None], lanes]
    epsilon = np.array([s.solver.epsilon for s in sessions])
    deltas = np.array([r.delta for r in requests])
    rules = np.array([s.solver.inner_rule for s in sessions])
    budgets = np.empty(count, dtype=np.int64)
    for rule in set(rules.tolist()):
        rows = rules == rule
        budgets[rows] = inner_iteration_budget(
            sizes[rows], deltas[rows], epsilon[rows], rule
        )
    stack = SubproblemStack(
        engines=[s.engine for s in sessions], kernel=kernel, diag=diag,
        y=labels, alpha=alpha, f=f, penalty=penalty, epsilon=epsilon,
        max_iterations=budgets, sizes=sizes.tolist(),
    )
    for row, (session, (k_rows, stats)) in enumerate(zip(sessions, held)):
        session._gathered = (stack, row, lanes, k_rows, stats)
    return stack


def apply_rounds(
    sessions: Sequence[BatchSMOSession], results: Sequence[SubproblemResult]
) -> None:
    """Apply every solved subproblem of one :func:`gather_rounds` call.

    ``sessions`` are that call's sessions in order and ``results`` their
    :func:`solve_subproblem` solutions.  The weight changes, the changed
    lanes and the Eq.-8 coefficients are computed once for the stack,
    and the new weights of every member that moved are scattered into the
    resident state in one write.  Per member: the stall logic, the Eq.-8
    update of every indicator from its fetched rows (one product per
    member, as a member alone computes it) and the working-set FIFO.
    """
    stack = sessions[0]._gathered[0] if sessions[0]._gathered else None
    if stack is None or any(
        s._gathered is None or s._gathered[:2] != (stack, row)
        for row, s in enumerate(sessions)
    ):
        raise ValidationError(
            "apply_round needs the sessions of one gather_round call, in order"
        )
    new_alpha = stack.alpha.copy()
    for row, (sub, ws) in enumerate(zip(results, stack.sizes)):
        new_alpha[row, :ws] = sub.alpha
    delta_alpha = new_alpha - stack.alpha
    changed = np.abs(delta_alpha) > 0
    n_changed = changed.sum(axis=1).tolist()
    coeffs = delta_alpha * stack.y
    moved = [row for row, k in enumerate(n_changed) if k]
    if moved:
        slots = np.array([sessions[row]._slot for row in moved])
        lanes = sessions[0]._gathered[2]
        sessions[0]._wave.state[_ALPHA, slots[:, None], lanes[moved]] = new_alpha[moved]

    for row, (session, sub) in enumerate(zip(sessions, results)):
        k_rows, stats = session._gathered[3:]
        request = session._pending
        retained, new = session._pending_retained, session._pending_new
        session._pending = session._gathered = None
        session._pending_retained = session._pending_new = None
        session.inner_total += sub.iterations
        session.rounds += 1
        if session.round_trace is not None:
            since = session.buffer.stats.since(stats)
            session.round_trace.append(
                {
                    "round": session.rounds,
                    "delta": float(request.delta),
                    "retained": int(retained.size),
                    "new_violators": int(new.size),
                    "inner_iterations": int(sub.iterations),
                    "changed": n_changed[row],
                    "buffer_hits": since.hits,
                    "buffer_misses": since.misses,
                    "buffer_evictions": since.evictions,
                    "buffer_inserts": since.inserts,
                }
            )
        if not n_changed[row]:
            session._stalled += 1
            if session._stalled == 1 and retained.size:
                session._ws_order.clear()
            elif session._stalled >= 2:
                session._finished = True
            continue
        session._stalled = 0

        # Batched Eq.-8 update of every indicator from the buffered rows.
        ws_changed = changed[row, : stack.sizes[row]]
        if k_rows is None:
            k_rows = session.buffer.peek(request.ws_idx[ws_changed])
        else:
            k_rows = k_rows[ws_changed]
        session.f += coeffs[row, : stack.sizes[row]][ws_changed] @ k_rows
        n = session.n
        session.engine.charge(
            "f_update",
            flops=2 * n_changed[row] * n,
            bytes_read=n_changed[row] * n * 8,
            bytes_written=n * 8,
            launches=1,
        )

        new_set = set(new.tolist())
        order = [i for i in session._ws_order if i not in new_set]
        order.extend(new.tolist())
        session._ws_order = order[-session.ws_size:]


def _charge_selection(engine: Engine, n: int, attempts: int) -> None:
    """Charge one member's selection half as a member alone issues it.

    Each attempt is the mask pass and the two masked reductions, then
    (past the checks) the sort and the candidate-mask pass; a member that
    stops at the checks made one attempt without them.  The sequence
    recurs every round, so it is priced once per engine.
    """

    def record(ledger: Engine) -> None:
        for _ in range(max(attempts, 1)):
            ledger.elementwise(
                "selection", n, flops_per_element=4, arrays_read=2,
                memory="cached",
            )
            ledger.charge_extremum(n, masked=True, category="selection")
            ledger.charge_extremum(n, masked=True, category="selection")
            if attempts:
                ledger.charge_sort(n, category="selection")
                ledger.elementwise(
                    "selection", n, flops_per_element=4, arrays_read=2,
                    memory="cached",
                )

    engine.charge_recurring(("selection", n, attempts), record)
