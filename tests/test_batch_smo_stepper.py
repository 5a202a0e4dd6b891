"""Property tests for the resumable batched-SMO stepper.

The interleaved trainer relies on :class:`BatchSMOSession` stepping a
solver round-by-round without changing a single bit of the trajectory
that :meth:`BatchSMOSolver.solve` produces.  These tests drive sessions
by hand and compare them against the monolithic path, and pin the KKT
contract of every termination exit: a round is only opened while the
global violation ``delta = f_l - f_u`` exceeds epsilon, deltas shrink
to the tolerance, and a converged exit leaves a gap within epsilon.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.gpusim import make_engine, scaled_tesla_p100
from repro.kernels import GaussianKernel, KernelRowComputer
from repro.solvers import BatchSMOSolver
from repro.solvers.base import optimality_gap

from tests.conftest import make_binary_problem


def fresh_rows(x):
    engine = make_engine(scaled_tesla_p100())
    return KernelRowComputer(engine, GaussianKernel(gamma=0.25), x)


def make_solver(**kwargs):
    kwargs.setdefault("penalty", 10.0)
    kwargs.setdefault("working_set_size", 16)
    return BatchSMOSolver(**kwargs)


class TestSteppedEqualsMonolithic:
    """Driving rounds by hand reproduces ``solve`` bitwise."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_final_state_is_bitwise_identical(self, seed):
        x, y = make_binary_problem(n=140, separation=1.0, seed=seed)
        solver = make_solver(record_rounds=True)

        monolithic = solver.solve(fresh_rows(x), y)

        session = solver.start(fresh_rows(x), y)
        while session.begin_round() is not None:
            session.complete_round()
        stepped = session.finish()

        assert np.array_equal(stepped.alpha, monolithic.alpha)
        assert np.array_equal(stepped.f, monolithic.f)
        assert stepped.bias == monolithic.bias
        assert stepped.objective == monolithic.objective
        assert stepped.rounds == monolithic.rounds
        assert stepped.iterations == monolithic.iterations
        assert stepped.converged == monolithic.converged

    @pytest.mark.parametrize("seed", [2, 5])
    def test_round_traces_are_identical(self, seed):
        """The per-round objective/iterate trace matches round for round."""
        x, y = make_binary_problem(n=120, separation=0.9, seed=seed)
        solver = make_solver(record_rounds=True)

        monolithic = solver.solve(fresh_rows(x), y)

        session = solver.start(fresh_rows(x), y)
        while session.begin_round() is not None:
            session.complete_round()
        stepped = session.finish()

        assert monolithic.round_trace is not None
        assert len(stepped.round_trace) == len(monolithic.round_trace)
        for mine, theirs in zip(stepped.round_trace, monolithic.round_trace):
            assert mine == theirs  # includes bitwise-equal delta floats

    def test_custom_loader_with_identical_values_changes_nothing(self):
        """A wave-fused loader is only legal because values are identical;
        feeding the same values through an external loader must reproduce
        the default path bitwise."""
        x, y = make_binary_problem(n=100, seed=9)
        solver = make_solver()

        reference = solver.solve(fresh_rows(x), y)

        rows = fresh_rows(x)
        shadow = fresh_rows(x)  # independent provider of identical values
        session = solver.start(rows, y)
        calls = []
        while session.begin_round() is not None:
            session.complete_round(
                loader=lambda ids: (calls.append(len(ids)), shadow.rows(ids))[1]
            )
        result = session.finish()

        assert np.array_equal(result.alpha, reference.alpha)
        assert result.bias == reference.bias
        assert len(calls) <= result.rounds  # at most one fetch per round


class TestKKTContract:
    """Every exit of the early-terminating round loop respects epsilon."""

    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_rounds_open_only_above_epsilon(self, seed):
        x, y = make_binary_problem(n=130, separation=1.1, seed=seed)
        solver = make_solver()
        session = solver.start(fresh_rows(x), y)
        deltas = []
        while (request := session.begin_round()) is not None:
            assert request.delta > solver.epsilon
            deltas.append(request.delta)
            session.complete_round()
        result = session.finish()
        assert deltas, "expected at least one round"
        # The violation must shrink to the tolerance overall even though
        # single rounds may bounce (working-set locality).
        assert min(deltas) < deltas[0] or len(deltas) == 1
        if result.converged:
            assert result.final_gap <= solver.epsilon

    @pytest.mark.parametrize("seed", [1, 2, 4, 8])
    def test_converged_exit_satisfies_global_kkt(self, seed):
        x, y = make_binary_problem(n=120, seed=seed)
        solver = make_solver()
        session = solver.start(fresh_rows(x), y)
        while session.begin_round() is not None:
            session.complete_round()
        result = session.finish()
        assert result.converged
        gap = optimality_gap(
            result.f, np.where(y > 0, 1.0, -1.0), result.alpha,
            np.full(y.size, solver.penalty),
        )
        assert gap <= solver.epsilon

    def test_round_cap_exit_warns_and_reports_gap(self):
        x, y = make_binary_problem(n=140, separation=0.3, seed=6)
        solver = make_solver(max_rounds=2)
        session = solver.start(fresh_rows(x), y)
        while session.begin_round() is not None:
            session.complete_round()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = session.finish()
        assert not result.converged
        assert result.rounds <= 2
        assert any("batched SMO stopped" in str(w.message) for w in caught)
        assert result.final_gap > solver.epsilon


class TestSessionProtocol:
    """The stepper's state machine rejects out-of-order driving."""

    def _session(self):
        x, y = make_binary_problem(n=60, seed=2)
        return make_solver().start(fresh_rows(x), y)

    def test_begin_twice_without_complete_rejected(self):
        session = self._session()
        assert session.begin_round() is not None
        with pytest.raises(ValidationError, match="in flight"):
            session.begin_round()
        session.close()

    def test_complete_without_begin_rejected(self):
        session = self._session()
        with pytest.raises(ValidationError, match="without begin_round"):
            session.complete_round()
        session.close()

    def test_done_tracks_termination_and_none_is_sticky(self):
        session = self._session()
        assert not session.done
        while session.begin_round() is not None:
            session.complete_round()
        assert session.done
        assert session.begin_round() is None  # terminal state is absorbing
        session.finish()

    def test_finish_is_idempotent(self):
        session = self._session()
        while session.begin_round() is not None:
            session.complete_round()
        first = session.finish()
        assert session.finish() is first

    def test_request_marks_missing_rows_without_charging(self):
        session = self._session()
        request = session.begin_round()
        # First round: nothing is resident, so the whole working set is
        # missing, and probing must not have touched buffer statistics.
        assert np.array_equal(np.sort(request.missing), np.sort(request.ws_idx))
        assert session.buffer.stats.requests == 0
        session.complete_round()
        assert session.buffer.stats.requests > 0
        session.close()

    def test_solve_is_a_session_loop(self):
        """The monolithic entry point and a fresh session share state types."""
        x, y = make_binary_problem(n=60, seed=2)
        solver = make_solver()
        result = solver.solve(fresh_rows(x), y)
        session = solver.start(fresh_rows(x), y)
        while session.begin_round() is not None:
            session.complete_round()
        assert session.finish().objective == result.objective


class TestWarmState:
    """``initial_alpha`` and ``initial_f`` are one warm-start state."""

    @pytest.mark.parametrize("given", ["initial_alpha", "initial_f"])
    def test_half_a_warm_state_rejected(self, given):
        x, y = make_binary_problem(n=60, seed=2)
        with pytest.raises(ValidationError, match="together"):
            make_solver().start(fresh_rows(x), y, **{given: np.zeros(60)})

    def test_converged_warm_state_is_kept(self):
        x, y = make_binary_problem(n=60, seed=2)
        solver = make_solver()
        cold = solver.solve(fresh_rows(x), y)
        warm = solver.solve(
            fresh_rows(x), y, initial_alpha=cold.alpha, initial_f=cold.f
        )
        assert warm.converged
        assert warm.rounds == 0
        assert np.array_equal(warm.alpha, cold.alpha)
