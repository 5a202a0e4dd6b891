"""Unit tests for the classic SMO solver with shrinking on."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.gpusim import make_engine, scaled_tesla_p100
from repro.kernels import GaussianKernel, KernelRowComputer
from repro.solvers import ClassicSMOSolver

from tests.conftest import make_binary_problem


def solve_pair(x, y, penalty=10.0, **kwargs):
    engine = make_engine(scaled_tesla_p100())
    rows = KernelRowComputer(engine, GaussianKernel(gamma=0.25), x)
    result = ClassicSMOSolver(penalty=penalty, shrinking=True, **kwargs).solve(rows, y)
    return result, engine


def solve_classic(x, y, penalty=10.0):
    engine = make_engine(scaled_tesla_p100())
    rows = KernelRowComputer(engine, GaussianKernel(gamma=0.25), x)
    return ClassicSMOSolver(penalty=penalty).solve(rows, y), engine


class TestEquivalence:
    """Shrinking must not change the learned classifier."""

    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_same_solution_as_classic(self, seed):
        x, y = make_binary_problem(n=250, separation=0.8, seed=seed)
        classic, _ = solve_classic(x, y)
        shrunk, _ = solve_pair(x, y, shrink_interval=40)
        assert shrunk.objective == pytest.approx(classic.objective, rel=1e-6)
        assert shrunk.bias == pytest.approx(classic.bias, abs=1e-6)
        assert np.allclose(shrunk.alpha, classic.alpha, atol=1e-8)

    def test_global_kkt_conditions_hold(self):
        x, y = make_binary_problem(n=200, separation=0.6, seed=2)
        result, engine = solve_pair(x, y, shrink_interval=30)
        gram = GaussianKernel(0.25).pairwise(engine, x, x, category="k")
        f = (result.alpha * y) @ gram - y
        up = ((y > 0) & (result.alpha < 10.0)) | ((y < 0) & (result.alpha > 0))
        low = ((y > 0) & (result.alpha > 0)) | ((y < 0) & (result.alpha < 10.0))
        assert f[low].max() - f[up].min() <= 1e-3

    def test_final_f_consistent_after_unshrink(self):
        x, y = make_binary_problem(n=180, separation=0.7, seed=5)
        result, engine = solve_pair(x, y, shrink_interval=25)
        gram = GaussianKernel(0.25).pairwise(engine, x, x, category="k")
        expected = (result.alpha * y) @ gram - y
        assert np.allclose(result.f, expected, atol=1e-8)


class TestShrinkingBehaviour:
    def test_shrinking_actually_happens(self):
        # Well-separated data at moderate C pins many instances at bounds.
        x, y = make_binary_problem(n=300, separation=2.0, noise=0.6, seed=7)
        result, _ = solve_pair(x, y, penalty=1.0, shrink_interval=20)
        assert result.diagnostics["shrink_events"] >= 1
        assert result.diagnostics["reconstructions"] >= 1

    def test_shrinking_reduces_state_traffic(self):
        # On a CPU device the per-iteration state ops route to the cache
        # tier, so the shrunk active set shows up directly in shared_bytes.
        from repro.gpusim import xeon_e5_2640v4

        x, y = make_binary_problem(n=300, separation=2.0, noise=0.6, seed=7)
        engine_s = make_engine(xeon_e5_2640v4(1))
        rows_s = KernelRowComputer(engine_s, GaussianKernel(0.25), x)
        shrunk = ClassicSMOSolver(penalty=1.0, shrinking=True, shrink_interval=20).solve(rows_s, y)
        engine_c = make_engine(xeon_e5_2640v4(1))
        rows_c = KernelRowComputer(engine_c, GaussianKernel(0.25), x)
        classic = ClassicSMOSolver(penalty=1.0).solve(rows_c, y)
        per_iter_shrunk = engine_s.counters.shared_bytes / max(shrunk.iterations, 1)
        per_iter_classic = engine_c.counters.shared_bytes / max(classic.iterations, 1)
        assert per_iter_shrunk < per_iter_classic

    def test_cache_budget_respected(self):
        x, y = make_binary_problem(n=150, seed=3)
        result, _ = solve_pair(x, y, cache_bytes=4 * 150 * 8, shrink_interval=25)
        assert result.converged  # tiny cache only affects cost, not result

    def test_validation(self):
        with pytest.raises(ValidationError):
            ClassicSMOSolver(penalty=1.0, shrinking=True, epsilon=0.0)

    def test_label_mismatch(self, gpu_engine, rng):
        rows = KernelRowComputer(gpu_engine, GaussianKernel(1.0), rng.normal(size=(5, 2)))
        with pytest.raises(ValidationError):
            ClassicSMOSolver(penalty=1.0, shrinking=True).solve(rows, np.array([1.0, -1.0]))

    def test_iteration_cap_warns_and_reconstructs(self):
        from repro.exceptions import ConvergenceWarning

        x, y = make_binary_problem(n=200, separation=0.3, seed=1)
        with pytest.warns(ConvergenceWarning):
            result, engine = solve_pair(x, y, max_iterations=50, shrink_interval=10)
        # Even when capped, the returned indicators are globally consistent.
        gram = GaussianKernel(0.25).pairwise(engine, x, x, category="k")
        expected = (result.alpha * y) @ gram - y
        assert np.allclose(result.f, expected, atol=1e-8)


class TestLibSVMIntegration:
    def test_libsvm_baseline_uses_shrinking_by_default(self):
        from repro.baselines import LibSVMClassifier

        clf = LibSVMClassifier()
        assert clf._trainer_config().classic_shrinking is True
        assert LibSVMClassifier(shrinking=False)._trainer_config().classic_shrinking is False

    def test_shrinking_flag_preserves_classifier(self):
        from repro.baselines import LibSVMClassifier
        from repro.data import gaussian_blobs

        x, y = gaussian_blobs(150, 5, 3, seed=6)
        on = LibSVMClassifier(C=10.0, gamma=0.4).fit(x, y)
        off = LibSVMClassifier(C=10.0, gamma=0.4, shrinking=False).fit(x, y)
        for a, b in zip(on.model_.records, off.model_.records):
            assert a.bias == pytest.approx(b.bias, abs=1e-6)

    def test_real_buffer_hit_rate(self):
        from repro.baselines import LibSVMClassifier
        from repro.data import gaussian_blobs

        x, y = gaussian_blobs(150, 5, 3, seed=6)
        report = LibSVMClassifier(C=10.0, gamma=0.4).fit(x, y).training_report_
        assert all(svm["buffer_hit_rate"] > 0 for svm in report.per_svm)


class TestCaching:
    def test_no_cache_bytes_computes_every_fetch(self):
        x, y = make_binary_problem(n=300, separation=2.0, noise=0.6, seed=7)
        result, _ = solve_pair(x, y, penalty=1.0, shrink_interval=20)
        assert result.diagnostics["shrink_events"] >= 1
        assert result.buffer_hit_rate == 0.0
        assert result.kernel_rows_computed == result.diagnostics["row_fetches"]
        assert result.kernel_rows_computed >= 2 * result.iterations

    def test_cache_serves_shrunk_rows(self):
        x, y = make_binary_problem(n=300, separation=2.0, noise=0.6, seed=7)
        plain, _ = solve_pair(x, y, penalty=1.0, shrink_interval=20)
        cached, _ = solve_pair(
            x, y, penalty=1.0, shrink_interval=20, cache_bytes=300 * 300 * 8
        )
        assert cached.diagnostics["shrink_events"] >= 1
        assert cached.buffer_hit_rate > 0
        assert cached.kernel_rows_computed < cached.diagnostics["row_fetches"]
        assert np.array_equal(cached.alpha, plain.alpha)

    def test_trainer_none_cache_counts_no_cache_bytes(self):
        from repro.core.trainer import TrainerConfig, train_multiclass
        from repro.data import gaussian_blobs
        from repro.gpusim import xeon_e5_2640v4

        x, y = gaussian_blobs(150, 5, 3, seed=6)
        config = TrainerConfig(
            device=xeon_e5_2640v4(1),
            solver="classic",
            classic_shrinking=True,
            classic_cache_bytes=None,
        )
        _, report = train_multiclass(config, x, y, GaussianKernel(0.4), 10.0)
        assert all(svm["buffer_hit_rate"] == 0.0 for svm in report.per_svm)
        largest_pair = max(svm["n"] for svm in report.per_svm)
        assert report.peak_task_memory_bytes == 4 * largest_pair * 8


class TestKernelValueSharing:
    def test_shrinking_with_shared_kernel_values(self):
        """Shrunk rows come out of the cross-SVM share's pair segments."""
        from repro.core.trainer import TrainerConfig, train_multiclass
        from repro.data import gaussian_blobs
        from repro.gpusim import scaled_tesla_p100

        x, y = gaussian_blobs(n=450, n_features=5, n_classes=3, seed=7)
        models = {}
        for share in (True, False):
            config = TrainerConfig(
                device=scaled_tesla_p100(),
                solver="classic",
                classic_shrinking=True,
                share_kernel_values=share,
            )
            models[share], _ = train_multiclass(
                config, x, y, GaussianKernel(0.4), 1.0
            )

        def dense_alpha(record):
            alpha = np.zeros(y.size)
            alpha[record.global_sv_indices] = np.abs(record.coefficients)
            return alpha

        for shared, alone in zip(models[True].records, models[False].records):
            assert shared.objective == pytest.approx(alone.objective, rel=1e-6)
            assert shared.bias == pytest.approx(alone.bias, abs=1e-6)
            assert np.allclose(dense_alpha(shared), dense_alpha(alone), atol=1e-8)
