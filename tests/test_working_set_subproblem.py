"""Unit tests for violator selection and the inner working-set solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.gpusim import make_engine, scaled_tesla_p100
from repro.kernels import GaussianKernel, KernelRowComputer
from repro.solvers import BatchSMOSolver, select_new_violators, solve_subproblem
from repro.solvers.base import TAU, lower_mask, upper_mask
from repro.solvers.batch_smo import RoundRequest, begin_rounds
from repro.solvers.subproblem import (
    Subproblem,
    SubproblemResult,
    _charge_steps,
    inner_iteration_budget,
)
from repro.solvers.working_set import ViolatorSelection


def select_one(f, y, alpha, penalty, q, *, exclude=None):
    """One member's picks: a stack of one."""
    selection = ViolatorSelection(
        f, upper_mask(y, alpha, penalty), lower_mask(y, alpha, penalty), q,
        exclude=exclude,
    )
    (picks,) = select_new_violators([selection])
    return picks


class TestViolatorSelection:
    def setup_method(self):
        # Hand-built state: f ascending 0..9, all alphas free (both sets).
        self.f = np.arange(10, dtype=np.float64)
        self.y = np.array([1.0, -1.0] * 5)
        self.alpha = np.full(10, 0.5)
        self.penalty = 1.0

    def test_selects_extremes(self):
        chosen = select_one(self.f, self.y, self.alpha, self.penalty, 4)
        assert set(chosen.tolist()) == {0, 1, 8, 9}

    def test_exclusion_respected(self):
        chosen = select_one(
            self.f, self.y, self.alpha, self.penalty, 4, exclude=np.array([0, 9])
        )
        assert set(chosen.tolist()) == {1, 2, 7, 8}

    def test_eligibility_respected(self):
        # Instance 0 has y=+1, alpha=C: cannot increase -> not in I_up.
        alpha = self.alpha.copy()
        alpha[0] = self.penalty
        chosen = select_one(self.f, self.y, alpha, self.penalty, 2)
        assert 0 not in chosen[:1]

    def test_no_double_selection(self):
        chosen = select_one(self.f, self.y, self.alpha, self.penalty, 20)
        assert len(set(chosen.tolist())) == len(chosen)

    def test_q_validation(self):
        with pytest.raises(ValidationError):
            select_one(self.f, self.y, self.alpha, self.penalty, 1)

    def test_empty_when_all_excluded(self):
        chosen = select_one(
            self.f, self.y, self.alpha, self.penalty, 4, exclude=np.arange(10)
        )
        assert chosen.size == 0

    def test_empty_stack(self):
        assert select_new_violators([]) == []

    def test_stack_matches_each_alone(self):
        # Uneven lengths: the padded lanes of the short row are never picked.
        short = ViolatorSelection(
            self.f[:4], np.ones(4, bool), np.ones(4, bool), 2, exclude=np.array([0])
        )
        long = ViolatorSelection(
            self.f, np.ones(10, bool), np.ones(10, bool), 6
        )
        stacked = select_new_violators([short, long])
        alone = [select_new_violators([s])[0] for s in (short, long)]
        assert [p.tolist() for p in stacked] == [p.tolist() for p in alone]
        assert stacked[0].tolist() == [1, 3]
        assert stacked[1].tolist() == [0, 1, 2, 9, 8, 7]
        assert all(p.dtype == np.int64 for p in stacked)


class TestIterationBudget:
    def test_adaptive_scales_with_delta(self):
        near = inner_iteration_budget(64, delta=1e-3, epsilon=1e-3, rule="adaptive")
        far = inner_iteration_budget(64, delta=10.0, epsilon=1e-3, rule="adaptive")
        assert near == 64
        assert far < near
        assert far >= 1

    def test_fixed(self):
        assert inner_iteration_budget(64, 5.0, 1e-3, "fixed") == 32

    def test_to_convergence_is_effectively_unbounded(self):
        assert inner_iteration_budget(64, 5.0, 1e-3, "to_convergence") >= 10**5

    def test_validation(self):
        with pytest.raises(ValidationError):
            inner_iteration_budget(1, 1.0, 1e-3, "fixed")
        with pytest.raises(ValidationError):
            inner_iteration_budget(64, 1.0, 1e-3, "mystery")

    def test_nonpositive_delta(self):
        assert inner_iteration_budget(64, 0.0, 1e-3, "adaptive") >= 1


def solve_one(engine, kernel, diag, y, alpha, f, penalty, *, epsilon, max_iterations):
    """One subproblem solved alone: a stack of one."""
    problem = Subproblem(
        engine, kernel, diag, y, alpha, f, penalty,
        epsilon=epsilon, max_iterations=max_iterations,
    )
    (result,) = solve_subproblem([problem])
    return result


class TestSubproblem:
    def make_state(self, gpu_engine, n=16, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 3))
        x[: n // 2] -= 1.5
        x[n // 2 :] += 1.5
        y = np.concatenate([-np.ones(n // 2), np.ones(n // 2)])
        kernel = GaussianKernel(0.5).pairwise(gpu_engine, x, x, category="k")
        return kernel, np.ones(n), y, np.zeros(n), -y

    def test_improves_objective(self, gpu_engine):
        kernel, diag, y, alpha, f = self.make_state(gpu_engine)
        result = solve_one(
            gpu_engine, kernel, diag, y, alpha, f, 5.0,
            epsilon=1e-3, max_iterations=1000,
        )
        assert result.iterations > 0
        assert result.local_gap <= 1e-3
        assert np.any(result.alpha > 0)

    def test_respects_iteration_budget(self, gpu_engine):
        kernel, diag, y, alpha, f = self.make_state(gpu_engine)
        result = solve_one(
            gpu_engine, kernel, diag, y, alpha, f, 5.0,
            epsilon=1e-9, max_iterations=2,
        )
        assert result.iterations <= 2

    def test_does_not_mutate_inputs(self, gpu_engine):
        kernel, diag, y, alpha, f = self.make_state(gpu_engine)
        alpha_copy, f_copy = alpha.copy(), f.copy()
        solve_one(
            gpu_engine, kernel, diag, y, alpha, f, 5.0,
            epsilon=1e-3, max_iterations=100,
        )
        assert np.array_equal(alpha, alpha_copy)
        assert np.array_equal(f, f_copy)

    def test_preserves_equality_constraint(self, gpu_engine):
        kernel, diag, y, alpha, f = self.make_state(gpu_engine, seed=3)
        result = solve_one(
            gpu_engine, kernel, diag, y, alpha, f, 5.0,
            epsilon=1e-3, max_iterations=500,
        )
        assert abs(result.alpha @ y - alpha @ y) < 1e-9

    def test_shape_validation(self, gpu_engine):
        with pytest.raises(ValidationError):
            solve_one(
                gpu_engine,
                np.ones((2, 3)),
                np.ones(3),
                np.array([1.0, -1.0, 1.0]),
                np.zeros(3),
                np.zeros(3),
                1.0,
                epsilon=1e-3,
                max_iterations=10,
            )

    def test_single_launch_charged(self, gpu_engine):
        kernel, diag, y, alpha, f = self.make_state(gpu_engine)
        launches_before = gpu_engine.counters.kernel_launches
        solve_one(
            gpu_engine, kernel, diag, y, alpha, f, 5.0,
            epsilon=1e-3, max_iterations=100,
        )
        assert gpu_engine.counters.kernel_launches == launches_before + 1

    def test_empty_stack(self):
        assert solve_subproblem([]) == []


# ----------------------------------------------------------------------
# Differential suite: the stacked solver against the single-member loop
# ----------------------------------------------------------------------
def reference_solve(
    engine, kernel_ws, diag_ws, y_ws, alpha_ws, f_ws, penalty,
    *, epsilon, max_iterations, category="subproblem",
):
    """The inner SMO loop for one working set, member by member.

    The solver's per-member form before the stacked one replaced it; the
    stacked solver must reproduce it bit for bit, charges included.
    """
    ws = y_ws.size
    c_ws = np.broadcast_to(np.asarray(penalty, dtype=np.float64), (ws,))
    alpha = alpha_ws.copy()
    f = f_ws.copy()
    iterations = 0
    gap = float("inf")
    engine.charge(category, bytes_read=kernel_ws.size * 8 + 4 * ws * 8, launches=1)
    n_select = n_pick = n_update = 0
    while iterations < max_iterations:
        up = upper_mask(y_ws, alpha, penalty)
        low = lower_mask(y_ws, alpha, penalty)
        n_select += 1
        u, f_up = _masked_extremum(f, up, mode="min")
        low_idx, f_low = _masked_extremum(f, low, mode="max")
        if u < 0 or low_idx < 0:
            gap = 0.0
            break
        gap = f_low - f_up
        if gap <= epsilon:
            break

        k_u = kernel_ws[u]
        eta = diag_ws[u] + diag_ws - 2.0 * k_u
        np.maximum(eta, TAU, out=eta)
        diff = f - f_up
        gain = np.where(low & (diff > 0), (diff * diff) / eta, -np.inf)
        n_pick += 1
        l, _ = _masked_extremum(gain, None, mode="max")
        if l < 0 or not np.isfinite(gain[l]):
            break

        eta_ul = max(diag_ws[u] + diag_ws[l] - 2.0 * kernel_ws[u, l], TAU)
        lam = (f[l] - f_up) / eta_ul
        bound_u = (c_ws[u] - alpha[u]) if y_ws[u] > 0 else alpha[u]
        bound_l = alpha[l] if y_ws[l] > 0 else (c_ws[l] - alpha[l])
        lam = min(lam, bound_u, bound_l)
        if lam <= 0:
            break
        delta_u = y_ws[u] * lam
        delta_l = -y_ws[l] * lam
        alpha[u] += delta_u
        alpha[l] += delta_l
        f += delta_u * y_ws[u] * k_u + delta_l * y_ws[l] * kernel_ws[l]
        n_update += 1
        iterations += 1

    _charge_steps(engine, category, ws, n_select, n_pick, n_update)
    return SubproblemResult(alpha=alpha, iterations=iterations, local_gap=max(gap, 0.0))


def _masked_extremum(values, mask, *, mode):
    if mask is not None:
        candidates = np.flatnonzero(mask)
        if candidates.size == 0:
            return -1, float("nan")
        local = values[candidates]
        pick = int(np.argmin(local) if mode == "min" else np.argmax(local))
        index = int(candidates[pick])
    else:
        if values.size == 0:
            return -1, float("nan")
        index = int(np.argmin(values) if mode == "min" else np.argmax(values))
    return index, float(values[index])


MEMBER_KINDS = (
    "random", "feasible", "no_violator", "converged", "underflow", "stubborn"
)


@st.composite
def members(draw):
    """One member's subproblem inputs, of a kind that exercises one exit."""
    kind = draw(st.sampled_from(MEMBER_KINDS))
    ws = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.normal(size=(ws, 3))
    gamma = draw(st.sampled_from([0.05, 0.5, 4.0]))
    kernel = np.exp(-gamma * ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    diag = np.ones(ws)
    y = rng.choice([-1.0, 1.0], size=ws)
    if draw(st.booleans()):
        penalty = draw(st.sampled_from([0.5, 1.0, 10.0]))
    else:  # class weights: per-instance box bounds
        penalty = np.where(y > 0, 1.0, draw(st.sampled_from([0.25, 3.0])))
    c = np.broadcast_to(penalty, (ws,))
    epsilon = draw(st.sampled_from([1e-3, 1e-6]))
    budget = draw(st.integers(0, 40))
    alpha = rng.random(ws) * c
    alpha[rng.random(ws) < 0.3] = 0.0
    at_bound = rng.random(ws) < 0.2
    alpha[at_bound] = c[at_bound]
    f = kernel @ (alpha * y) - y
    if kind == "random":  # indicators unrelated to the weights
        f = rng.normal(size=ws) * draw(st.sampled_from([0.1, 1.0, 100.0]))
    elif kind == "feasible":  # the solver's own start: alpha = 0, f = -y
        alpha, f = np.zeros(ws), -y
    elif kind == "no_violator":  # one class at alpha = 0: I_low is empty
        y = np.ones(ws)
        alpha, f = np.zeros(ws), -y
    elif kind == "converged":  # equal indicators: gap 0 at iteration 0
        f = np.full(ws, 0.25)
    elif kind == "underflow":  # gap 5e-324 over eta >= 6: lam underflows to 0
        y[:2] = [1.0, -1.0]
        diag = np.full(ws, 4.0)
        alpha = np.zeros(ws)
        f = np.zeros(ws)
        f[1] = 5e-324
        epsilon = 0.0
    elif kind == "stubborn":  # far from optimal: runs until its budget
        alpha, f = np.zeros(ws), -50.0 * y
        budget = draw(st.integers(1, 4))
    return dict(
        kernel=kernel, diag=diag, y=y, alpha=alpha, f=f, penalty=penalty,
        epsilon=epsilon, max_iterations=budget,
    )


def _clock_state(engine):
    clock = engine.clock
    return clock.latency_s, clock.compute_s, clock.breakdown()


def assert_matches_reference(specs):
    """Solve ``specs`` in one stack and each alone with the loop; compare."""
    ref_engines = [make_engine(scaled_tesla_p100()) for _ in specs]
    expected = [
        reference_solve(
            engine, spec["kernel"], spec["diag"], spec["y"], spec["alpha"],
            spec["f"], spec["penalty"], epsilon=spec["epsilon"],
            max_iterations=spec["max_iterations"],
        )
        for engine, spec in zip(ref_engines, specs)
    ]
    engines = [make_engine(scaled_tesla_p100()) for _ in specs]
    problems = [Subproblem(engine=e, **spec) for e, spec in zip(engines, specs)]
    inputs = [(p.alpha.copy(), p.f.copy()) for p in problems]
    results = solve_subproblem(problems)

    assert len(results) == len(specs)
    for got, want, engine, ref, problem, (alpha0, f0) in zip(
        results, expected, engines, ref_engines, problems, inputs
    ):
        assert got.alpha.shape == want.alpha.shape
        assert np.array_equal(got.alpha, want.alpha)
        assert got.iterations == want.iterations
        assert got.local_gap == want.local_gap
        assert engine.counters == ref.counters
        assert _clock_state(engine) == _clock_state(ref)
        assert np.array_equal(problem.alpha, alpha0)
        assert np.array_equal(problem.f, f0)
    return results


@given(st.lists(members(), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_stacked_solve_matches_member_loop_bitwise(specs):
    """Every member's weights, counts, gap and charges equal the loop's."""
    assert_matches_reference(specs)


def test_every_exit_in_one_stack():
    """Members retiring each their own way share one stack unharmed."""
    ws = 6
    points = np.linspace(-1.0, 1.0, ws)
    kernel = np.exp(-0.5 * (points[:, None] - points[None, :]) ** 2)
    y = np.array([1.0, -1.0] * 3)
    base = dict(
        kernel=kernel, diag=np.ones(ws), y=y, alpha=np.zeros(ws), f=-y,
        penalty=1.0, epsilon=1e-3, max_iterations=40,
    )
    tiny = np.zeros(ws)
    tiny[1] = 5e-324
    specs = [
        base,  # runs to its local optimum
        {**base, "y": np.ones(ws), "f": -np.ones(ws)},  # no violator
        {**base, "f": np.full(ws, 0.25)},  # converged at once
        {**base, "diag": np.full(ws, 4.0), "f": tiny, "epsilon": 0.0},  # lam == 0
        {**base, "f": -50.0 * y, "max_iterations": 2},  # budget spent
        {**base, "max_iterations": 0},  # no budget at all
    ]
    solved, empty, converged, underflow, spent, idle = assert_matches_reference(specs)
    assert solved.iterations > 0 and solved.local_gap <= 1e-3
    assert (empty.iterations, empty.local_gap) == (0, 0.0)
    assert (converged.iterations, converged.local_gap) == (0, 0.0)
    assert (underflow.iterations, underflow.local_gap) == (0, 5e-324)
    assert spent.iterations == 2 and spent.local_gap > 1e-3
    assert (idle.iterations, idle.local_gap) == (0, float("inf"))


# ----------------------------------------------------------------------
# Differential suite: the stacked selection half against each member's
# own begin_round
# ----------------------------------------------------------------------
def reference_select(engine, f, y, alpha, penalty, q, *, exclude=None):
    """One member's violator selection in its per-member form."""
    n = f.size
    order = engine.sort_values(f, category="selection")
    up = upper_mask(y, alpha, penalty)
    low = lower_mask(y, alpha, penalty)
    engine.elementwise("selection", n, flops_per_element=4, arrays_read=2, memory="cached")
    excluded = np.zeros(n, dtype=bool)
    if exclude is not None and len(exclude):
        excluded[np.asarray(exclude, dtype=np.int64)] = True
    half = q // 2
    top = order[up[order] & ~excluded[order]][:half]
    taken = np.zeros(n, dtype=bool)
    taken[top] = True
    reverse = order[::-1]
    bottom = reverse[low[reverse] & ~excluded[reverse] & ~taken[reverse]][:half]
    return np.concatenate([top, bottom]).astype(np.int64)


def reference_begin_round(session):
    """A session's selection half, member by member.

    The session's form before the stacked one replaced it; the stacked
    selection must reproduce it bit for bit, charges included.
    """
    if session._finished:
        return None
    engine = session.engine
    labels, alpha, f, penalty = session.labels, session.alpha, session.f, session.penalty
    n = session.n
    while True:
        if session.rounds >= session.max_rounds:
            session._finished = True
            return None
        up = upper_mask(labels, alpha, penalty)
        low = lower_mask(labels, alpha, penalty)
        engine.elementwise("selection", n, flops_per_element=4, arrays_read=2, memory="cached")
        _, f_up = engine.reduce_extremum(f, up, mode="min", category="selection")
        _, f_low = engine.reduce_extremum(f, low, mode="max", category="selection")
        if not np.isfinite(f_up) or not np.isfinite(f_low):
            session.converged = True
            session._finished = True
            return None
        delta = f_low - f_up
        if delta <= session.solver.epsilon:
            session.converged = True
            session._finished = True
            return None
        retained = np.asarray(
            session._ws_order[-(session.ws_size - session.q):], dtype=np.int64
        )
        wanted = session.q if retained.size else session.ws_size
        new = reference_select(
            engine, f, labels, alpha, penalty, wanted,
            exclude=retained if retained.size else None,
        )
        if new.size == 0:
            if retained.size:
                session._ws_order.clear()
                continue
            session._finished = True
            return None
        ws_idx = np.concatenate([retained, new]) if retained.size else new
        missing = session.buffer.missing(ws_idx)
        session._pending = RoundRequest(ws_idx, missing, delta)
        session._pending_retained = retained
        session._pending_new = new
        return session._pending


SESSION_KINDS = (
    "random", "ties", "converged", "empty_up", "empty_low", "at_cap", "retry",
)


@st.composite
def session_specs(draw):
    """One session's state, of a kind that exercises one path of the half."""
    kind = draw(st.sampled_from(SESSION_KINDS))
    n = draw(st.integers(4, 40))
    seed = draw(st.integers(0, 2**32 - 1))  # also seeds the points
    rng = np.random.default_rng(seed)
    y = rng.choice([-1.0, 1.0], size=n)
    y[:2] = [1.0, -1.0]
    weighted = draw(st.booleans())
    c = np.where(y > 0, 1.0, draw(st.sampled_from([0.25, 3.0]))) if weighted else np.ones(n)
    alpha = rng.random(n) * c
    alpha[rng.random(n) < 0.3] = 0.0
    at_bound = rng.random(n) < 0.2
    alpha[at_bound] = c[at_bound]
    f = rng.normal(size=n) * draw(st.sampled_from([0.01, 1.0, 100.0]))
    working_set_size = draw(st.sampled_from([4, 6, 8, 16]))
    new_per_round = draw(st.sampled_from([None, 2, 4]))
    ws_order = rng.permutation(n)[: draw(st.integers(0, n))].tolist()
    rounds, max_rounds = draw(st.integers(0, 3)), None
    if kind == "ties":  # many equal indicators: first index wins every tie
        f = np.round(f) if draw(st.booleans()) else np.full(n, 0.5)
        f[: n // 2] = 0.0
    elif kind == "converged":  # gap <= epsilon at the top of the round
        f = np.full(n, 0.25)
        f[0] += 5e-4 * draw(st.integers(0, 2))
    elif kind == "empty_up":  # no y*alpha can rise
        alpha = np.where(y > 0, c, 0.0)
    elif kind == "empty_low":  # no y*alpha can fall
        alpha = np.where(y > 0, 0.0, c)
    elif kind == "at_cap":
        max_rounds = rounds
    elif kind == "retry":
        # q == ws_size == n and the FIFO holds every instance: the retained
        # set excludes every violator, so the member reselects from scratch.
        n -= n % 2
        y, c, alpha, f = y[:n], c[:n], alpha[:n], f[:n]
        working_set_size = new_per_round = n
        ws_order = rng.permutation(n).tolist()
    return dict(
        seed=seed, y=y, c=c, weighted=weighted, alpha=alpha, f=f,
        ws_order=ws_order, rounds=rounds, max_rounds=max_rounds,
        working_set_size=working_set_size, new_per_round=new_per_round,
        epsilon=draw(st.sampled_from([1e-3, 1e-6])),
        resident=draw(st.integers(0, 3)),
    )


def build_sessions(specs, shared_engine):
    """Sessions in the specs' states; one engine for all when shared."""
    common = make_engine(scaled_tesla_p100()) if shared_engine else None
    sessions = []
    for spec in specs:
        engine = common or make_engine(scaled_tesla_p100())
        x = np.random.default_rng(spec["seed"]).normal(size=(spec["y"].size, 3))
        rows = KernelRowComputer(engine, GaussianKernel(gamma=0.5), x)
        solver = BatchSMOSolver(
            penalty=1.0, epsilon=spec["epsilon"],
            working_set_size=spec["working_set_size"],
            new_per_round=spec["new_per_round"], max_rounds=spec["max_rounds"],
        )
        session = solver.start(
            rows, spec["y"], penalty_vector=spec["c"] if spec["weighted"] else None,
            initial_alpha=spec["alpha"], initial_f=spec["f"],
        )
        session._ws_order = list(spec["ws_order"])
        session.rounds = spec["rounds"]
        # Some rows already buffered, so ``missing`` is a proper subset.
        session.buffer.fetch(
            np.arange(spec["resident"]),
            lambda ids, rows=rows: rows.rows(ids, category="kernel_values"),
        )
        sessions.append(session)
    return sessions


def _session_state(session):
    request = session._pending
    return (
        None if request is None else (
            request.ws_idx.tolist(), request.ws_idx.dtype, request.missing.tolist(),
            request.delta.hex(),
        ),
        None if request is None else session._pending_retained.tolist(),
        None if request is None else session._pending_new.tolist(),
        list(session._ws_order), session.converged, session._finished,
    )


@given(st.lists(session_specs(), min_size=1, max_size=8), st.booleans())
@settings(max_examples=150, deadline=None)
def test_stacked_selection_matches_member_loop_bitwise(specs, shared_engine):
    """Every member's request, FIFO, flags, counters and clock equal its own."""
    expected = build_sessions(specs, shared_engine)
    got = build_sessions(specs, shared_engine)
    want_requests = [reference_begin_round(s) for s in expected]
    got_requests = begin_rounds(got)
    assert [r is None for r in got_requests] == [r is None for r in want_requests]
    for session, ref, request in zip(got, expected, got_requests):
        assert request is (None if session._finished else session._pending)
        assert _session_state(session) == _session_state(ref)
        assert session.engine.counters == ref.engine.counters
        assert session.engine.clock._latency == ref.engine.clock._latency
        assert session.engine.clock._compute == ref.engine.clock._compute


def test_every_selection_path_in_one_stack():
    """Members leaving the half each their own way share one stack unharmed."""
    n = 8
    y = np.array([1.0, -1.0] * 4)
    base = dict(
        seed=3, y=y, c=np.ones(n), weighted=False, alpha=np.full(n, 0.5),
        f=np.linspace(-1.0, 1.0, n), ws_order=[], rounds=0, max_rounds=None,
        working_set_size=4, new_per_round=2, epsilon=1e-3, resident=2,
    )
    specs = [
        base,  # selects from scratch
        {**base, "ws_order": [0, 7, 3]},  # keeps part of its set
        {**base, "f": np.full(n, 0.25)},  # converged
        {**base, "alpha": np.where(y > 0, 1.0, 0.0)},  # I_up empty
        {**base, "rounds": 5, "max_rounds": 5},  # round cap
        # q == ws_size == n with every instance retained: reselect.
        {**base, "working_set_size": n, "new_per_round": n,
         "ws_order": [5, 2, 7, 0, 1, 3, 4, 6]},
    ]
    sessions = build_sessions(specs, shared_engine=False)
    requests = begin_rounds(sessions)
    scratch, kept, converged, empty, capped, retried = requests
    assert scratch.ws_idx.tolist() == [0, 1, 7, 6]
    assert kept.ws_idx.tolist()[:2] == [7, 3]
    assert converged is None and sessions[2].converged
    assert empty is None and sessions[3].converged
    assert capped is None and not sessions[4].converged and sessions[4].done
    assert retried.ws_idx.tolist() == [0, 1, 2, 3, 7, 6, 5, 4]
    assert sessions[5]._pending_retained.size == 0 and not sessions[5]._ws_order
    # The retry paid for two selection attempts, the converged member one
    # check pass: ten and three selection charges.
    launches = [s.engine.counters.kernel_launches for s in sessions]
    fresh = build_sessions(specs, shared_engine=False)
    before = [s.engine.counters.kernel_launches for s in fresh]
    assert [a - b for a, b in zip(launches, before)] == [5, 5, 3, 3, 0, 10]
    reference = build_sessions(specs, shared_engine=False)
    for session, ref in zip(sessions, reference):
        reference_begin_round(ref)
        assert _session_state(session) == _session_state(ref)
        assert session.engine.clock._latency == ref.engine.clock._latency
