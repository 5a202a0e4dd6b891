"""Unit tests for the classic second-order SMO solver."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceWarning, ValidationError
from repro.gpusim import make_engine, scaled_tesla_p100
from repro.kernels import GaussianKernel, KernelRowComputer, LinearKernel
from repro.solvers import ClassicSMOSolver

from tests.conftest import make_binary_problem


def solve(x, y, penalty=10.0, kernel=None, **solver_kwargs):
    engine = make_engine(scaled_tesla_p100())
    rows = KernelRowComputer(
        engine, kernel if kernel else GaussianKernel(gamma=0.25), x
    )
    solver = ClassicSMOSolver(penalty=penalty, **solver_kwargs)
    return solver.solve(rows, y), rows


def kkt_violation(x, y, alpha, penalty, kernel, engine):
    """Max violation of the dual KKT conditions at tolerance eps."""
    gram = kernel.pairwise(engine, x, x, category="k")
    f = (alpha * y) @ gram - y
    up = ((y > 0) & (alpha < penalty)) | ((y < 0) & (alpha > 0))
    low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < penalty))
    return float(f[low].max() - f[up].min())


class TestConvergence:
    def test_separable_problem_converges(self):
        x, y = make_binary_problem(n=80, separation=6.0, noise=0.3)
        result, rows = solve(x, y)
        assert result.converged
        assert result.final_gap <= 1e-3

    def test_kkt_conditions_hold_at_solution(self):
        x, y = make_binary_problem(n=120, separation=1.0)
        result, rows = solve(x, y)
        violation = kkt_violation(
            x, y, result.alpha, 10.0, rows.kernel, rows.engine
        )
        assert violation <= 1e-3

    def test_equality_constraint_holds(self):
        x, y = make_binary_problem(n=100)
        result, _ = solve(x, y)
        assert abs(np.dot(result.alpha, y)) < 1e-9

    def test_box_constraints_hold(self):
        x, y = make_binary_problem(n=100)
        result, _ = solve(x, y, penalty=5.0)
        assert result.alpha.min() >= 0.0
        assert result.alpha.max() <= 5.0 + 1e-12

    def test_training_accuracy_on_separable_data(self):
        x, y = make_binary_problem(n=100, separation=6.0, noise=0.3)
        result, rows = solve(x, y)
        gram = rows.kernel.pairwise(rows.engine, x, x, category="k")
        decisions = (result.alpha * y) @ gram + result.bias
        assert np.all(np.sign(decisions) == y)

    def test_overlapping_data_has_bound_svs(self):
        x, y = make_binary_problem(n=120, separation=0.4)
        result, _ = solve(x, y, penalty=1.0)
        assert np.any(np.isclose(result.alpha, 1.0))

    def test_linear_kernel(self):
        x, y = make_binary_problem(n=80, separation=4.0, noise=0.5)
        result, rows = solve(x, y, kernel=LinearKernel())
        assert result.converged
        violation = kkt_violation(x, y, result.alpha, 10.0, rows.kernel, rows.engine)
        assert violation <= 1e-3

    def test_objective_matches_reference_qp(self):
        """Cross-check the optimum against scipy's generic QP solution."""
        from scipy.optimize import minimize

        x, y = make_binary_problem(n=40, separation=1.0, seed=9)
        penalty = 2.0
        result, rows = solve(x, y, penalty=penalty)
        gram = rows.kernel.pairwise(rows.engine, x, x, category="k")
        q = (y[:, None] * y[None, :]) * gram

        def negative_dual(alpha):
            return -(alpha.sum() - 0.5 * alpha @ q @ alpha)

        reference = minimize(
            negative_dual,
            result.alpha,
            jac=lambda a: -(np.ones_like(a) - q @ a),
            bounds=[(0, penalty)] * len(y),
            constraints=[{"type": "eq", "fun": lambda a: a @ y}],
            method="SLSQP",
            options={"maxiter": 300, "ftol": 1e-12},
        )
        assert result.objective == pytest.approx(-reference.fun, abs=1e-3)


class TestBufferIntegration:
    def test_cache_reduces_rows_recomputed(self):
        x, y = make_binary_problem(n=120)
        result, _ = solve(x, y, cache_bytes=120 * 120 * 8)
        assert result.buffer_hit_rate > 0
        assert result.kernel_rows_computed < 2 * result.iterations

    def test_cached_and_uncached_agree(self):
        x, y = make_binary_problem(n=90)
        plain, _ = solve(x, y)
        cached, _ = solve(x, y, cache_bytes=16 * 90 * 8)  # tiny, thrashing cache
        assert cached.objective == pytest.approx(plain.objective, abs=1e-9)
        assert cached.bias == pytest.approx(plain.bias, abs=1e-9)

    def test_rows_computed_counts_buffer_misses(self):
        x, y = make_binary_problem(n=200)
        uncached, _ = solve(x, y)
        cached, _ = solve(x, y, cache_bytes=200 * 200 * 8)
        # Every fetch computes without a buffer; with one only misses do.
        fetches = uncached.kernel_rows_computed
        assert fetches >= 2 * uncached.iterations
        misses = round(fetches * (1.0 - cached.buffer_hit_rate))
        assert cached.kernel_rows_computed == misses < fetches

    def test_buffer_sized_in_whole_rows(self):
        solver = ClassicSMOSolver(penalty=1.0, cache_bytes=5 * 10 * 8 + 7)
        assert solver.buffer_nbytes(10) == 5 * 10 * 8
        assert solver.buffer_nbytes(4) == 4 * 4 * 8  # at most every row
        assert solver.buffer_nbytes(1000) == 2 * 1000 * 8  # at least two
        assert ClassicSMOSolver(penalty=1.0).buffer_nbytes(10) == 0


class TestEdgesAndErrors:
    def test_label_count_mismatch(self, gpu_engine, rng):
        rows = KernelRowComputer(gpu_engine, GaussianKernel(1.0), rng.normal(size=(5, 2)))
        with pytest.raises(ValidationError):
            ClassicSMOSolver(penalty=1.0).solve(rows, np.array([1.0, -1.0]))

    def test_bad_epsilon(self):
        with pytest.raises(ValidationError):
            ClassicSMOSolver(penalty=1.0, epsilon=0.0)

    def test_iteration_cap_warns(self):
        x, y = make_binary_problem(n=120, separation=0.3)
        with pytest.warns(ConvergenceWarning):
            result, _ = solve(x, y, max_iterations=3)
        assert not result.converged
        assert result.iterations == 3

    def test_two_instances(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([-1.0, 1.0])
        result, _ = solve(x, y, penalty=1.0)
        assert result.converged
        assert result.n_support == 2

    def test_result_reports_support_vectors(self):
        x, y = make_binary_problem(n=80)
        result, _ = solve(x, y)
        assert result.n_support == len(result.support_indices)
        assert np.all(result.alpha[result.support_indices] > 0)
