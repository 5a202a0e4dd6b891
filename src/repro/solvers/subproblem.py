"""Inner SMO on the working set (Section 3.3.1, "solve multiple subproblems").

Once the working set's kernel rows sit in the GPU buffer, SMO iterations
restricted to the working set are cheap: "one iteration of the SMO in our
algorithm is often much cheaper than the traditional SMO" because every
kernel value is a buffer lookup and the reductions span only ``ws``
elements instead of ``n``.

The subproblem is *not* solved to optimality: "such an approach results in
local optimization on the working set ... we terminate the improvement
process earlier" with a budget driven by ``delta = f_l - f_u``, the global
violation gap — far from the optimum (large delta) few iterations are
spent per working set; close to it, more.

The MP-SVM level (Section 3.3.2) trains many binary SVMs at once, so
:func:`solve_subproblem` steps a *stack* of subproblems, one per member of
a wave, in lockstep: each iteration is one set of broadcast operations on
``(S, ws)`` arrays.  Shorter working sets are padded to the longest with
lanes of label, weight and bound 0, which are in neither violator set.  A
member retires on its own (budget spent, gap <= epsilon, an empty
violator set, a non-finite gain or a non-positive step) and then takes
zero steps.  Its iterates are bitwise those of a stack of one.  Device
charges are deferred: the loop counts each member's steps, then charges
each member on its own engine, in problem order.  A wave driver poses
its members' subproblems directly as one :class:`SubproblemStack`
(:func:`~repro.solvers.batch_smo.gather_rounds`); a list of
:class:`Subproblem` records is stacked first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.exceptions import ValidationError
from repro.gpusim.engine import Engine
from repro.solvers.base import TAU

__all__ = [
    "Subproblem",
    "SubproblemResult",
    "SubproblemStack",
    "solve_subproblem",
    "inner_iteration_budget",
]

# The step at which a member retired: budget spent, at selection (gap <=
# epsilon or an empty violator set), or at the partner pick and step.
_BUDGET, _SELECT, _PICK = range(3)


@dataclass
class Subproblem:
    """One member's working-set subproblem; its arrays are not mutated."""

    engine: Engine  # charged for this member's steps
    kernel: np.ndarray  # (ws, ws) block between working-set instances
    diag: np.ndarray  # diagonal kernel values
    y: np.ndarray  # labels, exactly +1 / -1
    alpha: np.ndarray
    f: np.ndarray
    penalty: object  # scalar C or per-instance vector (class weighting)
    epsilon: float
    max_iterations: int


@dataclass
class SubproblemStack:
    """Many members' subproblems on one padded ``(S, ws)`` stack.

    Row ``i`` holds member ``i``'s first ``sizes[i]`` lanes; the lanes
    past them have kernel, diagonal, label, weight, indicator and bound 0.
    Its arrays are not mutated.
    """

    engines: list  # member i's steps are charged to engines[i]
    kernel: np.ndarray  # (S, ws, ws) working-set blocks
    diag: np.ndarray
    y: np.ndarray
    alpha: np.ndarray
    f: np.ndarray
    penalty: np.ndarray
    epsilon: np.ndarray  # (S,)
    max_iterations: np.ndarray  # (S,) integer budgets
    sizes: list

    @classmethod
    def of(cls, problems: Sequence[Subproblem]) -> "SubproblemStack":
        """Stack :class:`Subproblem` records, zero-padding the shorter ones."""
        count = len(problems)
        sizes = [p.y.size for p in problems]
        for problem, ws in zip(problems, sizes):
            if problem.kernel.shape != (ws, ws):
                raise ValidationError(
                    f"kernel block shape {problem.kernel.shape} does not match ws={ws}"
                )
        width = max(sizes)
        kernel = np.zeros((count, width, width))
        alpha, f, c, diag, y = (np.zeros((count, width)) for _ in range(5))
        for i, (problem, ws) in enumerate(zip(problems, sizes)):
            kernel[i, :ws, :ws] = problem.kernel
            alpha[i, :ws] = problem.alpha
            f[i, :ws] = problem.f
            c[i, :ws] = problem.penalty
            diag[i, :ws] = problem.diag
            y[i, :ws] = problem.y
        return cls(
            engines=[p.engine for p in problems],
            kernel=kernel, diag=diag, y=y, alpha=alpha, f=f, penalty=c,
            epsilon=np.array([p.epsilon for p in problems], dtype=np.float64),
            max_iterations=np.array(
                [p.max_iterations for p in problems], dtype=np.int64
            ),
            sizes=sizes,
        )


@dataclass
class SubproblemResult:
    """Outcome of optimising one working set."""

    alpha: np.ndarray  # updated weights of the working-set instances
    iterations: int
    local_gap: float


def inner_iteration_budget(ws_size, delta, epsilon, rule: str):
    """Iteration cap for one working set, or for arrays of them.

    ``ws_size``, ``delta`` and ``epsilon`` are scalars (giving an
    ``int``) or equal-length arrays (giving an int64 array).

    - ``"adaptive"`` (the paper's scheme): large delta => few iterations,
      small delta => up to ``ws_size`` iterations.  The budget interpolates
      on ``epsilon / delta``.
    - ``"fixed"``: always ``ws_size // 2`` (a ThunderSVM-style constant).
    - ``"to_convergence"``: effectively unlimited — the ablation arm that
      exhibits the local-optimisation pathology.
    """
    ws = np.asarray(ws_size, dtype=np.int64)
    if (ws < 2).any():
        raise ValidationError(
            f"working set must have >= 2 instances, got {ws.min()}"
        )
    if rule == "fixed":
        budget = np.maximum(1, ws // 2)
    elif rule == "to_convergence":
        budget = np.full_like(ws, 1_000_000)
    elif rule != "adaptive":
        raise ValidationError(f"unknown inner iteration rule {rule!r}")
    else:
        positive = np.asarray(delta) > 0
        fraction = np.minimum(
            1.0, np.maximum(0.125, epsilon / np.where(positive, delta, 1.0))
        )
        budget = np.maximum(
            1, np.where(positive, (ws * fraction).astype(np.int64), ws // 8)
        )
    return int(budget) if budget.ndim == 0 else budget


def solve_subproblem(
    problems: Union[Sequence[Subproblem], SubproblemStack],
    *,
    category: str = "subproblem",
) -> list[SubproblemResult]:
    """Run SMO restricted to each member's working set, all in lockstep.

    ``problems`` is a list of :class:`Subproblem` records or one
    :class:`SubproblemStack`.  Returns one :class:`SubproblemResult` per
    member, in order; a single problem is simply a stack of one.

    Notes
    -----
    Maintaining ``f`` only on the working set during inner iterations is
    exact: every weight change involves working-set instances only, so
    outside indicators drift by amounts that the caller reapplies in one
    batched update (Eq. 8 over all n) after the subproblem finishes.
    """
    if not isinstance(problems, SubproblemStack):
        if not problems:
            return []
        problems = SubproblemStack.of(problems)
    stack, sizes = problems, problems.sizes
    count, width = stack.y.shape
    kernel_rows = stack.kernel.reshape(count * width, width)
    alpha, f = stack.alpha.copy(), stack.f.copy()
    c, diag, y = stack.penalty, stack.diag, stack.y
    positive = y > 0
    epsilon, budget = stack.epsilon, stack.max_iterations
    budget_ends = {max(int(b), 0) for b in budget}
    offset = np.arange(count) * width  # flat index of each row's lane 0

    # Per problem: iterations run, gap at exit and the step it retired at.
    # A retired row stays in the stack with a zero step, so it no longer
    # changes; its weights were copied out when it retired.
    alive = np.ones(count, dtype=bool)
    iterations = [0] * count
    gaps = [0.0] * count
    stage = [_BUDGET] * count
    final_alpha: list[np.ndarray] = [np.empty(0)] * count

    def retire(rows: np.ndarray, gap: np.ndarray, at_stage=None) -> None:
        for i in np.flatnonzero(rows):
            final_alpha[i] = alpha[i, : sizes[i]].copy()
            iterations[i] = done
            gaps[i] = float(gap[i])
            if at_stage is not None:
                stage[i] = int(at_stage[i])
        alive[rows] = False

    done = 0  # iterations every live row has completed
    gap = np.full(count, np.inf)  # each row's gap at its latest selection
    retired = False
    while True:
        if done in budget_ends:
            retire(alive & (budget <= done), gap)
            retired = True
            if not alive.any():
                break

        # How far y*alpha may rise (I_up) or fall (I_low) in each lane.
        slack = c - alpha
        rise = np.where(positive, slack, alpha)
        fall = np.where(positive, alpha, slack)

        # Violator pair: masked extrema, the first lane on ties.  An
        # empty set leaves an infinite extremum, so gap = -inf retires it.
        f_up_all = np.where(rise > 0, f, np.inf)
        f_low_all = np.where(fall > 0, f, -np.inf)
        at_u = offset + f_up_all.argmin(axis=1)
        f_up = f_up_all.take(at_u)
        gap = f_low_all.max(axis=1) - f_up

        # Partner: the largest second-order gain over I_low.
        k_u = kernel_rows.take(at_u, axis=0)
        eta = diag.take(at_u)[:, None] + diag
        eta -= 2.0 * k_u
        np.maximum(eta, TAU, out=eta)
        diff = f_low_all - f_up[:, None]
        gain = diff * diff
        gain /= eta
        gain = np.where(diff > 0, gain, -np.inf)
        at_l = offset + gain.argmax(axis=1)

        # The step along the pair, clipped to both boxes.
        lam = diff.take(at_l) / eta.take(at_l)
        lam = np.minimum(np.minimum(lam, rise.take(at_u)), fall.take(at_l))
        converged = gap <= epsilon
        stop = converged | ~np.isfinite(gain.take(at_l)) | (lam <= 0)
        if retired:
            stop &= alive
        if stop.any():
            retire(stop, gap, np.where(converged, _SELECT, _PICK))
            retired = True
            if not alive.any():
                break
        if retired:
            lam = np.where(alive, lam, 0.0)

        # Labels are +1/-1, so y_u * (y_u * lam) == lam exactly: the
        # indicator update is lam * K_u - lam * K_l.
        alpha.put(at_u, alpha.take(at_u) + y.take(at_u) * lam)
        alpha.put(at_l, alpha.take(at_l) - y.take(at_l) * lam)
        lam = lam[:, None]
        step = lam * k_u
        step -= lam * kernel_rows.take(at_l, axis=0)
        f += step
        done += 1

    results = []
    for i, (engine, ws) in enumerate(zip(stack.engines, sizes)):
        # The whole subproblem executes as ONE kernel: the working-set
        # block lives in shared memory and the iterations are dependent
        # steps inside it, paying sync latency rather than launch latency.
        engine.charge(category, bytes_read=ws * ws * 8 + 4 * ws * 8, launches=1)
        n = iterations[i]
        n_select, n_pick = n + (stage[i] >= _SELECT), n + (stage[i] == _PICK)
        _charge_steps(engine, category, ws, n_select, n_pick, n)
        results.append(SubproblemResult(final_alpha[i], n, max(gaps[i], 0.0)))
    return results


def _charge_steps(
    engine: Engine, category: str, ws: int, n_select: int, n_pick: int, n_update: int
) -> None:
    """Charge the deferred per-iteration sync steps in one aggregate.

    Mirrors, step for step, the shared-memory charges the loop used to
    issue inline: the mask-refresh elementwise (4 flops/elt, 2 reads) plus
    two masked ``reduce_extremum`` calls per selection; the gain
    elementwise (6 flops/elt, 3 reads) plus one unmasked reduction per
    pick; and the update elementwise (4 flops/elt, 3 reads).  Masked
    reductions read ``ws`` floats + a byte-mask; unmasked ones just the
    floats; each reduction writes one float.
    """
    fb = 8  # FLOAT_BYTES
    masked_reduce = ws * fb + ws + fb
    unmasked_reduce = ws * fb + fb
    flops = (
        n_select * (4 * ws + 2 * ws)
        + n_pick * (6 * ws + ws)
        + n_update * 4 * ws
    )
    shared = (
        n_select * ((2 * ws + ws) * fb + 2 * masked_reduce)
        + n_pick * ((3 * ws + ws) * fb + unmasked_reduce)
        + n_update * (3 * ws + ws) * fb
    )
    syncs = 3 * n_select + 2 * n_pick + n_update
    if syncs:
        engine.charge(
            category,
            flops=flops,
            shared_bytes=shared,
            launches=0,
            syncs=syncs,
        )
