"""Platt scaling: fitting a sigmoid to SVM decision values (Section 2.1.2).

``P(y = 1 | x) = 1 / (1 + exp(A v + B))`` with (A, B) maximising the
regularised log-likelihood of Eq. (13), using the smoothed targets

    t_i = (N+ + 1) / (N+ + 2)   for positive instances,
    t_i = 1 / (N- + 2)          for negative instances.

The optimiser is Newton's method with backtracking line search and the
numerically-stable objective of Lin, Lin & Weng (2007), exactly as in
LibSVM's ``sigmoid_train``.  The paper's GMP-SVM additionally "evaluates
multiple possible values for A and B concurrently in the Newton's method"
— the ``parallel_line_search`` flag implements that: all candidate step
sizes are scored in one batched device pass and the first Armijo-accepting
step is taken, which is bitwise the same answer as the sequential search.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ConvergenceWarning, ValidationError
from repro.gpusim.engine import ChargeLedger, Engine

__all__ = ["SigmoidModel", "fit_sigmoid", "fit_sigmoids", "sigmoid_predict"]

MAX_NEWTON_ITERATIONS = 100
MIN_STEP = 1e-10
HESSIAN_RIDGE = 1e-12
GRADIENT_EPS = 1e-5
ARMIJO = 1e-4
# Members fit in one lockstep stack hold at most this many padded values,
# which bounds the loop's temporaries (each a stack-sized float array).
STACK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class SigmoidModel:
    """Fitted sigmoid parameters; ``predict`` maps decision values to P(y=1)."""

    a: float
    b: float
    iterations: int = 0
    converged: bool = True

    def predict(self, decision_values: np.ndarray) -> np.ndarray:
        """P(y = +1) for the given decision values (Eq. 12)."""
        return sigmoid_predict(decision_values, self.a, self.b)


def sigmoid_predict(decision_values: np.ndarray, a: float, b: float) -> np.ndarray:
    """Stable evaluation of ``1 / (1 + exp(A v + B))`` (Eq. 12).

    ``a`` and ``b`` may also be arrays that broadcast against
    ``decision_values`` — passing an ``(m, n)`` decision matrix with the
    stacked per-pair ``(A, B)`` vectors evaluates every pair sigmoid of a
    test batch in one pass, elementwise-identical to the per-column calls.
    """
    values = np.asarray(decision_values, dtype=np.float64)
    fapb = a * values + b
    out = np.empty_like(fapb)
    pos = fapb >= 0
    out[pos] = np.exp(-fapb[pos]) / (1.0 + np.exp(-fapb[pos]))
    out[~pos] = 1.0 / (1.0 + np.exp(fapb[~pos]))
    return out


def fit_sigmoid(
    engine: Engine,
    decision_values: np.ndarray,
    labels: np.ndarray,
    *,
    parallel_line_search: bool = False,
    category: str = "sigmoid",
    max_iterations: int = MAX_NEWTON_ITERATIONS,
) -> SigmoidModel:
    """Fit (A, B) of Eq. (12) on one binary problem's decision values.

    A stack of one; see :func:`fit_sigmoids`.
    """
    return fit_sigmoids(
        [engine],
        [decision_values],
        [labels],
        parallel_line_search=parallel_line_search,
        category=category,
        max_iterations=max_iterations,
    )[0]


def fit_sigmoids(
    engines: Sequence[Engine],
    decision_values: Sequence[np.ndarray],
    labels: Sequence[np.ndarray],
    *,
    parallel_line_search: bool = False,
    category: str = "sigmoid",
    max_iterations: int = MAX_NEWTON_ITERATIONS,
) -> list[SigmoidModel]:
    """Fit (A, B) of Eq. (12) for many binary problems in one Newton loop.

    Parameters
    ----------
    engines:
        Member ``i``'s charges go to ``engines[i]``.
    decision_values:
        Per member, the SVM outputs ``v_i`` on the (training) instances of
        its binary problem (Eq. 11).
    labels:
        Per member, the +1/-1 labels of those instances.
    parallel_line_search:
        Score all backtracking candidates in one batched pass (the GMP-SVM
        variant) instead of one at a time (the GPU-baseline variant).

    Every member steps in lockstep: the elementwise passes run on one
    zero-padded ``(S, n)`` stack, and the five Hessian/gradient sums and
    the objective sum run on the unpadded rows of each group of
    equal-length members (:meth:`~repro.backends.base.ComputeBackend.reduce_sum_rows`,
    bitwise a lone member's :meth:`~repro.gpusim.engine.Engine.reduce_sum`).
    A member retires on its own gradient test, line-search failure or
    iteration cap, so its (A, B) are bitwise those of a stack of one.
    Charges are replayed on each member's engine after the loop, in the
    order a lone member issues them, and warnings follow in member order.

    A model's ``converged`` flag is truthful: it is only True when the
    gradient-norm stopping test passed.  ``max_iterations=0`` (no Newton
    step taken) therefore reports ``converged=False``, and a failed
    backtracking line search or an exhausted iteration budget emits
    :class:`~repro.exceptions.ConvergenceWarning` (LibSVM prints the same
    diagnostics) while still returning the best (A, B) found.
    """
    if max_iterations < 0:
        raise ValidationError(f"max_iterations must be >= 0, got {max_iterations}")
    members = []
    for values, y in zip(decision_values, labels):
        values = np.asarray(values, dtype=np.float64).ravel()
        y = np.asarray(y, dtype=np.float64).ravel()
        if values.size != y.size:
            raise ValidationError(
                f"{values.size} decision values for {y.size} labels"
            )
        if values.size == 0:
            raise ValidationError("cannot fit a sigmoid on zero instances")
        n_pos = int(np.count_nonzero(y > 0))
        n_neg = values.size - n_pos
        hi = (n_pos + 1.0) / (n_pos + 2.0)
        lo = 1.0 / (n_neg + 2.0)
        b = float(np.log((n_neg + 1.0) / (n_pos + 1.0)))
        members.append((values, np.where(y > 0, hi, lo), b))
    ledgers = [ChargeLedger(engine) for engine in engines]
    # Members sorted by (backend, length), so those whose sums run
    # together are consecutive, then cut into stacks of bounded size.
    backends = list({id(e.backend): e.backend for e in ledgers}.values())
    keys = [
        (backends.index(ledger.backend), member[0].size)
        for ledger, member in zip(ledgers, members)
    ]
    order = sorted(range(len(members)), key=keys.__getitem__)
    fits: list = [None] * len(members)
    start = 0
    while start < len(order):
        stop, width = start + 1, keys[order[start]][1]
        while stop < len(order):
            wider = max(width, keys[order[stop]][1])
            if (stop + 1 - start) * wider > STACK_ELEMENTS:
                break
            stop, width = stop + 1, wider
        chunk = order[start:stop]
        stack = _SigmoidStack(
            [members[i] for i in chunk], [ledgers[i] for i in chunk], category
        )
        for i, fit in zip(chunk, _newton(stack, max_iterations, parallel_line_search)):
            fits[i] = fit
        start = stop

    for ledger in ledgers:
        ledger.replay()
    models = []
    for a, b, iterations, converged, failed_at in fits:
        if failed_at:
            warnings.warn(
                "line search failed in sigmoid (Platt) fitting at iteration "
                f"{failed_at}; returning the last (A, B) iterate",
                ConvergenceWarning,
                stacklevel=2,
            )
        elif max_iterations > 0 and not converged:
            # LibSVM: "Reaching maximal iterations in two-class probability
            # estimates".
            warnings.warn(
                f"sigmoid (Platt) fitting hit the {max_iterations}-iteration "
                "cap before the gradient test passed",
                ConvergenceWarning,
                stacklevel=2,
            )
        models.append(
            SigmoidModel(a=a, b=b, iterations=iterations, converged=converged)
        )
    return models


def _newton(stack: "_SigmoidStack", max_iterations: int, parallel: bool) -> list:
    """The lockstep Newton loop over one stack.

    Returns per row ``(a, b, iterations, converged, failed_at)``, where
    ``failed_at`` is the iteration whose line search failed, or 0.
    """
    count = len(stack.sizes)
    a = np.zeros(count)
    b = stack.b.copy()
    active = np.arange(count)
    fapb = stack.values * a[:, None] + b[:, None]
    stack.charge(active, 1, 2, 1)
    fval = stack.objective(fapb, active)
    iterations = np.zeros(count, dtype=np.int64)
    converged = np.zeros(count, dtype=bool)
    failed = np.zeros(count, dtype=np.int64)

    iteration = 0
    while active.size and iteration < max_iterations:
        iteration += 1
        iterations[active] = iteration
        v = stack.values[active]
        d1, d2 = _newton_terms(stack.targets[active], fapb[active])
        stack.charge(active, 1, 6, 2)
        # Gradient and Hessian entries: five parallel-reduction sums.
        h11, h22, h21, g1, g2 = (
            stack.row_sums(x, active) for x in (v * v * d2, d2, v * d2, v * d1, d1)
        )
        for row in active.tolist():
            for _ in range(5):
                stack.ledgers[row].charge_sum(stack.sizes[row], category=stack.category)
        h11 += HESSIAN_RIDGE
        h22 += HESSIAN_RIDGE

        done = (np.abs(g1) < GRADIENT_EPS) & (np.abs(g2) < GRADIENT_EPS)
        converged[active[done]] = True
        searching = np.flatnonzero(~done)

        # Newton direction from the 2x2 system, silent on non-finite
        # entries as the scalar arithmetic of a lone fit is.
        with np.errstate(all="ignore"):
            det = h11 * h22 - h21 * h21
            if (det[searching] == 0).any():
                raise ZeroDivisionError("float division by zero")
            da = -(h22 * g1 - h21 * g2) / det
            db = -(-h21 * g1 + h11 * g2) / det
            gd = g1 * da + g2 * db

        rows = active[searching]
        found = _line_search(
            stack, rows, a[rows], b[rows], da[searching], db[searching],
            fval[rows], gd[searching], parallel=parallel,
        ) if rows.size else None
        accepted = np.zeros(count, dtype=bool)
        if found is not None:
            took, step, trial, new_f = found
            # The accepted candidate's fApB and objective are exactly
            # those of the new (A, B); the device recomputes them, the
            # host reuses.
            won = rows[took]
            with np.errstate(all="ignore"):
                a[won] += step * da[searching][took]
                b[won] += step * db[searching][took]
            fapb[won] = trial
            fval[won] = new_f
            accepted[won] = True
            stack.charge(won, 1, 2, 1)
        # LibSVM: "Line search fails in two-class probability estimates".
        failed[rows[~accepted[rows]]] = iteration
        active = active[accepted[active]]
    return list(
        zip(a.tolist(), b.tolist(), iterations.tolist(), converged.tolist(),
            failed.tolist())
    )


def _newton_terms(targets: np.ndarray, fapb: np.ndarray) -> tuple:
    """``t - p`` and ``p * q`` of the Lin-Lin-Weng formulation, one pass."""
    pos = fapb >= 0
    exp_neg = np.exp(-np.abs(fapb))
    ratio = exp_neg / (1.0 + exp_neg)
    inverse = 1.0 / (1.0 + exp_neg)
    p = np.where(pos, ratio, inverse)
    q = np.where(pos, inverse, ratio)
    return targets - p, p * q


class _SigmoidStack:
    """Members' decision values and targets on one zero-padded stack.

    Members come sorted by (backend, length), so the rows whose sums run
    together are consecutive.  Row ``i``'s charges go to ``ledgers[i]``.
    """

    def __init__(self, members, ledgers, category: str) -> None:
        self.category = category
        self.ledgers = ledgers
        self.sizes = [m[0].size for m in members]
        self.values = np.zeros((len(members), max(self.sizes)))
        self.targets = np.zeros_like(self.values)
        for row, (values, targets, _) in enumerate(members):
            self.values[row, : values.size] = values
            self.targets[row, : values.size] = targets
        self.b = np.array([m[2] for m in members])
        # Runs of equal (backend, length) are numbered apart.
        change = [
            row == 0 or ledgers[row].backend is not ledgers[row - 1].backend
            or self.sizes[row] != self.sizes[row - 1]
            for row in range(len(members))
        ]
        self.runs = np.cumsum(change)

    def charge(self, rows: np.ndarray, passes: int, flops: int, reads: int) -> None:
        """One elementwise charge of ``passes`` times its length per row."""
        for row in rows.tolist():
            self.ledgers[row].elementwise(
                self.category, passes * self.sizes[row],
                flops_per_element=flops, arrays_read=reads,
            )

    def row_sums(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Each row of ``x`` (stack rows ``rows``) summed over its length."""
        out = np.empty(rows.size)
        cuts = np.flatnonzero(np.diff(self.runs[rows])) + 1
        for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), rows.size]):
            row = int(rows[lo])
            out[lo:hi] = self.ledgers[row].backend.reduce_sum_rows(
                x[lo:hi, : self.sizes[row]]
            )
        return out

    def objective(self, fapb: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Stable negative log-likelihood: ``sum t*fApB + log(1 + exp(-fApB))``.

        (The Lin-Lin-Weng rewrite; equal to Eq. 13 up to sign and
        constant.)  For ``fApB < 0`` the term is ``(t - 1)*fApB + log(1 +
        exp(fApB))``; ``-|fApB|`` covers both branches in one pass.
        """
        targets = self.targets[rows]
        terms = np.where(fapb >= 0, targets, targets - 1.0) * fapb
        terms += np.log1p(np.exp(-np.abs(fapb)))
        return self.row_sums(terms, rows)


def _line_search(
    stack: _SigmoidStack,
    rows: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    da: np.ndarray,
    db: np.ndarray,
    fval: np.ndarray,
    gd: np.ndarray,
    *,
    parallel: bool,
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Backtracking Armijo search for every member in ``rows`` at once.

    Each member takes the largest step in {1, 1/2, 1/4, ...} its Armijo
    condition accepts.  Returns, for the members that accepted one, their
    positions in ``rows``, steps, fApB and objectives; None if none did.
    Sequential and parallel variants accept the identical step.  They
    differ in the device charge: the parallel variant scores every
    candidate in one batched pass (the paper's Sec 3.3.2(ii) concurrency;
    dependent-iteration latency collapses to one launch), the sequential
    one a pass per candidate.  The host scores candidates one at a time
    either way, and each member stops at the first that passes.
    """
    steps: list[float] = []
    step = 1.0
    while step >= MIN_STEP:
        steps.append(step)
        step /= 2.0
    if parallel:
        stack.charge(rows, len(steps), 6, 2)
    searching = np.arange(rows.size)
    took, taken, trials, objectives = [], [], [], []
    for candidate in steps:
        if not parallel:
            stack.charge(rows[searching], 1, 6, 2)
        with np.errstate(all="ignore"):  # per-member scalars, as alone
            slope = a[searching] + candidate * da[searching]
            shift = b[searching] + candidate * db[searching]
            bound = fval[searching] + ARMIJO * candidate * gd[searching]
        trial = stack.values[rows[searching]] * slope[:, None] + shift[:, None]
        new_f = stack.objective(trial, rows[searching])
        ok = new_f < bound
        if ok.any():
            took.append(searching[ok])
            taken.append(np.full(int(ok.sum()), candidate))
            trials.append(trial[ok])
            objectives.append(new_f[ok])
            searching = searching[~ok]
            if not searching.size:
                break
    if not took:
        return None
    return tuple(np.concatenate(part) for part in (took, taken, trials, objectives))
