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
path and cannot diverge.  ``begin_round`` is :func:`begin_rounds` on a
stack of one.  ``complete_round`` is three steps:
:meth:`~BatchSMOSession.gather_round` (row fetch, working-set block,
budget), :func:`~repro.solvers.subproblem.solve_subproblem` and
:meth:`~BatchSMOSession.apply_round` (weights, Eq.-8 update, FIFO).  The
interleaved concurrent trainer (:mod:`repro.core.interleave`) steps many
sessions in lockstep waves: it runs all their selection halves in one
stacked :func:`begin_rounds` call, fuses their kernel-row demands into
shared batched launches and solves all their subproblems in one stacked
call.
"""

from __future__ import annotations

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
    Subproblem,
    SubproblemResult,
    inner_iteration_budget,
    solve_subproblem,
)
from repro.solvers.working_set import (
    ViolatorSelection,
    select_new_violators,
    stack_rows,
)
from repro.telemetry.tracer import Tracer, maybe_span

__all__ = ["BatchSMOSolver", "BatchSMOSession", "RoundRequest", "begin_rounds"]


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
      apply the batched Eq.-8 indicator update.  A concurrent driver
      calls its parts, :meth:`gather_round` and :meth:`apply_round`,
      around one stacked solve of many sessions' subproblems.

    Stepping a session produces *bitwise-identical* iterates to the
    monolithic :meth:`BatchSMOSolver.solve`, which is itself implemented
    as a loop over a session.
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
        self._gathered: Optional[tuple] = None  # (held rows, stats_before)
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
        self.alpha = alpha.copy()
        self.f = f.copy()
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
        self.apply_round(solve_subproblem([self.gather_round(loader)])[0])

    def gather_round(
        self, loader: Optional[Callable[[np.ndarray], np.ndarray]] = None
    ) -> Subproblem:
        """Fetch the working set's kernel rows and pose its subproblem.

        ``loader`` computes the missing kernel rows (called by the buffer
        with the missing ids, at most once); it defaults to the session's
        own row provider.  A concurrent driver passes a loader backed by a
        wave-fused batched launch — the values must be identical either
        way, so the iterates cannot depend on the execution schedule.
        The returned :class:`~repro.solvers.subproblem.Subproblem` may be
        solved in a stack with other sessions'; its result goes to
        :meth:`apply_round`.
        """
        request = self._pending
        if request is None:
            raise ValidationError("round completed without begin_round")
        if self._gathered is not None:
            raise ValidationError("gather_round called twice in one round")
        solver = self.solver
        if loader is None:
            loader = lambda ids: self.rows.rows(  # noqa: E731
                ids, category="kernel_values"
            )
        ws_idx = request.ws_idx
        stats_before = (
            self.buffer.stats.snapshot() if self.round_trace is not None else None
        )
        k_rows = self.buffer.fetch(ws_idx, loader)
        # Only this session touches its buffer before apply_round, so rows
        # still resident are re-read there; the fetched copy is kept only
        # when inserting the misses evicted part of the working set.
        held = k_rows if self.buffer.missing(ws_idx).size else None
        self._gathered = (held, stats_before)
        # The ws x ws block is not copied on the device: the inner
        # solver reads it straight from the buffered rows (its own
        # charge covers that traffic).
        return Subproblem(
            engine=self.engine,
            kernel=k_rows[:, ws_idx],
            diag=self.diagonal[ws_idx],
            y=self.labels[ws_idx],
            alpha=self.alpha[ws_idx],
            f=self.f[ws_idx],
            penalty=self.penalty[ws_idx],
            epsilon=solver.epsilon,
            max_iterations=inner_iteration_budget(
                ws_idx.size, request.delta, solver.epsilon, solver.inner_rule
            ),
        )

    def apply_round(self, sub: SubproblemResult) -> None:
        """Apply the solved subproblem of the round :meth:`gather_round` posed.

        Stall handling, the weight update, the batched Eq.-8 update of
        every indicator from the fetched rows and the working-set FIFO.
        """
        if self._gathered is None:
            raise ValidationError("apply_round called without gather_round")
        request = self._pending
        k_rows, stats_before = self._gathered
        retained, new = self._pending_retained, self._pending_new
        self._pending = self._gathered = None
        self._pending_retained = self._pending_new = None
        labels, alpha = self.labels, self.alpha
        ws_idx = request.ws_idx
        self.inner_total += sub.iterations
        delta_alpha = sub.alpha - alpha[ws_idx]
        changed = np.abs(delta_alpha) > 0
        self.rounds += 1
        if self.round_trace is not None:
            since = self.buffer.stats.since(stats_before)
            self.round_trace.append(
                {
                    "round": self.rounds,
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
            self._stalled += 1
            if self._stalled == 1 and retained.size:
                self._ws_order.clear()
                return
            if self._stalled >= 2:
                self._finished = True
            return
        self._stalled = 0
        alpha[ws_idx] = sub.alpha

        # Batched Eq.-8 update of every indicator from the buffered rows.
        coeffs = delta_alpha[changed] * labels[ws_idx][changed]
        if k_rows is None:
            self.f += coeffs @ self.buffer.peek(ws_idx[changed])
        else:
            self.f += coeffs @ k_rows[changed]
        self.engine.charge(
            "f_update",
            flops=2 * int(changed.sum()) * self.n,
            bytes_read=int(changed.sum()) * self.n * 8,
            bytes_written=self.n * 8,
            launches=1,
        )

        new_set = set(new.tolist())
        self._ws_order = [i for i in self._ws_order if i not in new_set]
        self._ws_order.extend(int(i) for i in new)
        self._ws_order = self._ws_order[-self.ws_size:]

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


def begin_rounds(
    sessions: Sequence[BatchSMOSession],
) -> list[Optional[RoundRequest]]:
    """Run the selection half of every session's next round in one stack.

    Per session: the round cap, the optimality check (Eq. 9) and
    ``delta = f_l - f_u``, violator selection and the working-set
    refresh.  Returns one :class:`RoundRequest` per session, or ``None``
    for a session that has terminated (and is now marked finished).

    The live sessions' state is stacked into padded ``(S, n)`` arrays
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
    width = max(sizes)
    labels = stack_rows([s.labels for s in live], width)
    alpha = stack_rows([s.alpha for s in live], width)
    f = stack_rows([s.f for s in live], width)
    penalty = stack_rows([s.penalty for s in live], width)
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


def _charge_selection(engine: Engine, n: int, attempts: int) -> None:
    """Charge one member's selection half as a member alone issues it.

    Each attempt is the mask pass and the two masked reductions, then
    (past the checks) the sort and the candidate-mask pass; a member that
    stops at the checks made one attempt without them.
    """
    for _ in range(max(attempts, 1)):
        engine.elementwise(
            "selection", n, flops_per_element=4, arrays_read=2, memory="cached"
        )
        engine.charge_extremum(n, masked=True, category="selection")
        engine.charge_extremum(n, masked=True, category="selection")
        if attempts:
            engine.charge_sort(n, category="selection")
            engine.elementwise(
                "selection", n, flops_per_element=4, arrays_read=2,
                memory="cached",
            )
