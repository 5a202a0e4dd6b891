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

import numpy as np

from repro.exceptions import ConvergenceWarning, ValidationError
from repro.gpusim.engine import Engine

__all__ = ["SigmoidModel", "fit_sigmoid", "sigmoid_predict"]

MAX_NEWTON_ITERATIONS = 100
MIN_STEP = 1e-10
HESSIAN_RIDGE = 1e-12
GRADIENT_EPS = 1e-5
ARMIJO = 1e-4


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


def _objective(fapb: np.ndarray, targets: np.ndarray) -> float:
    """Stable negative log-likelihood: ``sum t*fApB + log(1 + exp(-fApB))``.

    (The Lin-Lin-Weng rewrite; equal to Eq. 13 up to sign and constant.)
    For ``fApB < 0`` the term is ``(t - 1)*fApB + log(1 + exp(fApB))``;
    ``-|fApB|`` covers both branches in one pass.
    """
    terms = np.where(fapb >= 0, targets, targets - 1.0) * fapb
    terms += np.log1p(np.exp(-np.abs(fapb)))
    return float(terms.sum())


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

    Parameters
    ----------
    decision_values:
        SVM outputs ``v_i`` on the (training) instances of the binary
        problem (Eq. 11).
    labels:
        The +1/-1 labels of those instances.
    parallel_line_search:
        Score all backtracking candidates in one batched pass (the GMP-SVM
        variant) instead of one at a time (the GPU-baseline variant).

    The returned model's ``converged`` flag is truthful: it is only True
    when the gradient-norm stopping test passed.  ``max_iterations=0``
    (no Newton step taken) therefore reports ``converged=False``, and a
    failed backtracking line search or an exhausted iteration budget emits
    :class:`~repro.exceptions.ConvergenceWarning` (LibSVM prints the same
    diagnostics) while still returning the best (A, B) found.
    """
    values = np.asarray(decision_values, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    if values.size != y.size:
        raise ValidationError(f"{values.size} decision values for {y.size} labels")
    if values.size == 0:
        raise ValidationError("cannot fit a sigmoid on zero instances")
    if max_iterations < 0:
        raise ValidationError(f"max_iterations must be >= 0, got {max_iterations}")
    n = values.size
    n_pos = int(np.count_nonzero(y > 0))
    n_neg = n - n_pos

    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    targets = np.where(y > 0, hi, lo)

    a = 0.0
    b = float(np.log((n_neg + 1.0) / (n_pos + 1.0)))
    fapb = values * a + b
    engine.elementwise(category, n, flops_per_element=2, arrays_read=1)
    fval = _objective(fapb, targets)

    iteration = 0
    converged = False
    for iteration in range(1, max_iterations + 1):
        # p, q of the Lin-Lin-Weng formulation; one elementwise pass.
        pos = fapb >= 0
        exp_neg = np.exp(-np.abs(fapb))
        ratio = exp_neg / (1.0 + exp_neg)
        inverse = 1.0 / (1.0 + exp_neg)
        p = np.where(pos, ratio, inverse)
        q = np.where(pos, inverse, ratio)
        engine.elementwise(category, n, flops_per_element=6, arrays_read=2)

        d1 = targets - p
        d2 = p * q
        # Gradient and Hessian entries: five parallel-reduction sums.
        h11 = engine.reduce_sum(values * values * d2, category=category) + HESSIAN_RIDGE
        h22 = engine.reduce_sum(d2, category=category) + HESSIAN_RIDGE
        h21 = engine.reduce_sum(values * d2, category=category)
        g1 = engine.reduce_sum(values * d1, category=category)
        g2 = engine.reduce_sum(d1, category=category)

        if abs(g1) < GRADIENT_EPS and abs(g2) < GRADIENT_EPS:
            converged = True
            break

        # Newton direction from the 2x2 system.
        det = h11 * h22 - h21 * h21
        da = -(h22 * g1 - h21 * g2) / det
        db = -(-h21 * g1 + h11 * g2) / det
        gd = g1 * da + g2 * db

        accepted = _line_search(
            engine,
            values,
            targets,
            a,
            b,
            da,
            db,
            fval,
            gd,
            parallel=parallel_line_search,
            category=category,
        )
        if accepted is None:
            # LibSVM: "Line search fails in two-class probability estimates".
            warnings.warn(
                "line search failed in sigmoid (Platt) fitting at iteration "
                f"{iteration}; returning the last (A, B) iterate",
                ConvergenceWarning,
                stacklevel=2,
            )
            break
        # The accepted candidate's fApB and objective are exactly those
        # of the new (A, B); the device recomputes them, the host reuses.
        step, fapb, fval = accepted
        a += step * da
        b += step * db
        engine.elementwise(category, n, flops_per_element=2, arrays_read=1)
    else:
        if max_iterations > 0:
            # LibSVM: "Reaching maximal iterations in two-class probability
            # estimates".
            warnings.warn(
                f"sigmoid (Platt) fitting hit the {max_iterations}-iteration "
                "cap before the gradient test passed",
                ConvergenceWarning,
                stacklevel=2,
            )

    return SigmoidModel(a=a, b=b, iterations=iteration, converged=converged)


def _line_search(
    engine: Engine,
    values: np.ndarray,
    targets: np.ndarray,
    a: float,
    b: float,
    da: float,
    db: float,
    fval: float,
    gd: float,
    *,
    parallel: bool,
    category: str,
) -> tuple[float, np.ndarray, float] | None:
    """Backtracking Armijo search.

    Returns ``(step, fApB, objective)`` of the accepted step, or None.
    Sequential and parallel variants accept the identical step: both take
    the largest step in {1, 1/2, 1/4, ...} satisfying the Armijo condition.
    They differ in the device charge: the parallel variant scores every
    candidate in one batched pass (the paper's Sec 3.3.2(ii) concurrency;
    dependent-iteration latency collapses to one launch), the sequential
    one a pass per candidate.  The host scores candidates one at a time
    either way and stops at the first that passes.
    """
    n = values.size
    steps: list[float] = []
    step = 1.0
    while step >= MIN_STEP:
        steps.append(step)
        step /= 2.0
    if parallel:
        engine.elementwise(
            category, n * len(steps), flops_per_element=6, arrays_read=2
        )
    for candidate in steps:
        fapb = values * (a + candidate * da) + (b + candidate * db)
        if not parallel:
            engine.elementwise(category, n, flops_per_element=6, arrays_read=2)
        new_f = _objective(fapb, targets)
        if new_f < fval + ARMIJO * candidate * gd:
            return candidate, fapb, new_f
    return None
