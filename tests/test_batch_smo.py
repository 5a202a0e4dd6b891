"""Unit tests for the GMP-SVM batched working-set solver."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.gpusim import make_engine, scaled_tesla_p100
from repro.kernels import GaussianKernel, KernelRowComputer
from repro.solvers import BatchSMOSolver, ClassicSMOSolver

from tests.conftest import make_binary_problem


def solve_batched(x, y, penalty=10.0, **kwargs):
    engine = make_engine(scaled_tesla_p100())
    rows = KernelRowComputer(engine, GaussianKernel(gamma=0.25), x)
    result = BatchSMOSolver(penalty=penalty, **kwargs).solve(rows, y)
    return result, engine


def solve_classic(x, y, penalty=10.0):
    engine = make_engine(scaled_tesla_p100())
    rows = KernelRowComputer(engine, GaussianKernel(gamma=0.25), x)
    return ClassicSMOSolver(penalty=penalty).solve(rows, y)


class TestEquivalenceWithClassicSMO:
    """The paper's Table 4 claim: same classifier as LibSVM."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_objective_and_bias(self, seed):
        x, y = make_binary_problem(n=150, separation=1.0, seed=seed)
        classic = solve_classic(x, y)
        batched, _ = solve_batched(x, y, working_set_size=64)
        assert batched.objective == pytest.approx(classic.objective, rel=1e-4)
        assert batched.bias == pytest.approx(classic.bias, abs=5e-3)

    def test_same_predictions(self):
        x, y = make_binary_problem(n=150, separation=0.8, seed=5)
        classic = solve_classic(x, y)
        batched, engine = solve_batched(x, y, working_set_size=64)
        rows = KernelRowComputer(engine, GaussianKernel(0.25), x)
        gram = rows.kernel.pairwise(engine, x, x, category="k")
        v_classic = (classic.alpha * y) @ gram + classic.bias
        v_batched = (batched.alpha * y) @ gram + batched.bias
        assert np.mean(np.sign(v_classic) == np.sign(v_batched)) == 1.0

    def test_kkt_conditions_hold(self):
        x, y = make_binary_problem(n=150, separation=0.8, seed=7)
        result, engine = solve_batched(x, y, working_set_size=64)
        gram = GaussianKernel(0.25).pairwise(engine, x, x, category="k")
        f = (result.alpha * y) @ gram - y
        up = ((y > 0) & (result.alpha < 10.0)) | ((y < 0) & (result.alpha > 0))
        low = ((y > 0) & (result.alpha > 0)) | ((y < 0) & (result.alpha < 10.0))
        assert f[low].max() - f[up].min() <= 1e-3

    def test_constraints_hold(self):
        x, y = make_binary_problem(n=120)
        result, _ = solve_batched(x, y, penalty=3.0, working_set_size=32)
        assert abs(np.dot(result.alpha, y)) < 1e-9
        assert result.alpha.min() >= 0 and result.alpha.max() <= 3.0 + 1e-12


class TestGeometry:
    def test_working_set_clamped_to_problem_size(self):
        x, y = make_binary_problem(n=40)
        result, _ = solve_batched(x, y, working_set_size=1024)
        assert result.diagnostics["working_set_size"] <= 40

    def test_q_defaults_to_half_working_set(self):
        x, y = make_binary_problem(n=200)
        result, _ = solve_batched(x, y, working_set_size=64)
        assert result.diagnostics["new_per_round"] == 32

    def test_explicit_q(self):
        x, y = make_binary_problem(n=200)
        result, _ = solve_batched(x, y, working_set_size=64, new_per_round=16)
        assert result.diagnostics["new_per_round"] == 16

    def test_full_replacement_mode(self):
        """OHD-style q == ws: converges, with no retained half."""
        x, y = make_binary_problem(n=150)
        result, _ = solve_batched(
            x, y, working_set_size=64, new_per_round=64, inner_rule="fixed"
        )
        assert result.converged

    def test_buffer_smaller_than_ws_shrinks_ws(self):
        x, y = make_binary_problem(n=200)
        result, _ = solve_batched(x, y, working_set_size=128, buffer_rows=32)
        assert result.diagnostics["working_set_size"] <= 32

    def test_bad_parameters(self):
        with pytest.raises(ValidationError):
            BatchSMOSolver(penalty=1.0, epsilon=0.0)
        with pytest.raises(ValidationError):
            BatchSMOSolver(penalty=1.0, working_set_size=1)


class TestBufferBehaviour:
    def test_buffer_reuse_happens(self):
        x, y = make_binary_problem(n=200, separation=0.8)
        result, _ = solve_batched(x, y, working_set_size=64)
        assert result.buffer_hit_rate > 0.2  # retained half hits

    def test_larger_buffer_reuses_more(self):
        x, y = make_binary_problem(n=300, separation=0.6, seed=8)
        small, _ = solve_batched(x, y, working_set_size=32, buffer_rows=32)
        large, _ = solve_batched(
            x, y, working_set_size=32, buffer_rows=256
        )
        assert large.buffer_hit_rate >= small.buffer_hit_rate

    @pytest.mark.parametrize("policy", ["fifo", "lru", "lfu"])
    def test_buffer_size_never_changes_the_iterates(self, policy):
        # A buffer as small as the working set evicts rows of the round
        # being fetched, so the Eq.-8 update reads the round's own copy;
        # a roomy one re-reads them from the buffer.  Same bits either way.
        x, y = make_binary_problem(n=200, separation=0.6, seed=5)
        tight, _ = solve_batched(
            x, y, working_set_size=32, buffer_rows=32, buffer_policy=policy
        )
        roomy, _ = solve_batched(
            x, y, working_set_size=32, buffer_rows=256, buffer_policy=policy
        )
        assert tight.buffer_hit_rate < roomy.buffer_hit_rate
        assert np.array_equal(tight.alpha, roomy.alpha)
        assert np.array_equal(tight.f, roomy.f)
        assert (tight.rounds, tight.iterations) == (roomy.rounds, roomy.iterations)

    @pytest.mark.parametrize("policy", ["fifo", "lru", "lfu"])
    def test_all_policies_converge_to_same_solution(self, policy):
        x, y = make_binary_problem(n=150, seed=4)
        result, _ = solve_batched(x, y, working_set_size=48, buffer_policy=policy)
        classic = solve_classic(x, y)
        assert result.objective == pytest.approx(classic.objective, rel=1e-4)


class TestInnerRules:
    @pytest.mark.parametrize("rule", ["adaptive", "fixed", "to_convergence"])
    def test_rules_reach_the_optimum(self, rule):
        x, y = make_binary_problem(n=120, seed=6)
        result, _ = solve_batched(x, y, working_set_size=48, inner_rule=rule)
        classic = solve_classic(x, y)
        assert result.converged
        assert result.objective == pytest.approx(classic.objective, rel=1e-4)

    def test_adaptive_uses_fewer_inner_iterations_than_to_convergence(self):
        x, y = make_binary_problem(n=200, separation=0.6, seed=2)
        adaptive, _ = solve_batched(x, y, working_set_size=64, inner_rule="adaptive")
        exhaustive, _ = solve_batched(
            x, y, working_set_size=64, inner_rule="to_convergence"
        )
        assert adaptive.iterations <= exhaustive.iterations


class TestRobustness:
    def test_two_instances(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([-1.0, 1.0])
        result, _ = solve_batched(x, y, penalty=1.0, working_set_size=16)
        assert result.converged

    def test_round_cap_stops(self):
        x, y = make_binary_problem(n=200, separation=0.3)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result, _ = solve_batched(x, y, working_set_size=32, max_rounds=2)
        assert result.rounds <= 2

    def test_result_f_is_consistent(self):
        """The returned indicators must satisfy Eq. 3 at the final alpha."""
        x, y = make_binary_problem(n=100, seed=11)
        result, engine = solve_batched(x, y, working_set_size=32)
        gram = GaussianKernel(0.25).pairwise(engine, x, x, category="k")
        expected_f = (result.alpha * y) @ gram - y
        assert np.allclose(result.f, expected_f, atol=1e-8)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    seed=st.integers(0, 10_000),
    penalty=st.sampled_from([0.5, 5.0, 50.0]),
    ws=st.sampled_from([16, 48]),
)
@settings(max_examples=15, deadline=None)
def test_batched_solver_kkt_property(seed, penalty, ws):
    """On random problems the batched solver always reaches Eq. 9."""
    x, y = make_binary_problem(n=120, separation=0.8, seed=seed)
    engine = make_engine(scaled_tesla_p100())
    rows = KernelRowComputer(engine, GaussianKernel(0.25), x)
    result = BatchSMOSolver(penalty=penalty, working_set_size=ws).solve(rows, y)
    assert result.converged
    gram = GaussianKernel(0.25).pairwise(engine, x, x, category="k")
    f = (result.alpha * y) @ gram - y
    up = ((y > 0) & (result.alpha < penalty)) | ((y < 0) & (result.alpha > 0))
    low = ((y > 0) & (result.alpha > 0)) | ((y < 0) & (result.alpha < penalty))
    assert f[low].max() - f[up].min() <= 1e-3
    assert abs(result.alpha @ y) < 1e-9
    assert result.alpha.min() >= 0 and result.alpha.max() <= penalty + 1e-12
