"""Tests for repro.cascade: instance-sharded cascade SMO.

The cascade merge is approximate, so unlike the pair-sharded path there
is no bitwise-parity guarantee against the sequential solve.  The
load-bearing contract is the solver's own: after the polish, the global
dual gap over every instance is at most epsilon (rechecked here from a
float64 kernel matrix built from scratch), the decision values must
track the sequential solve closely, and the sign agreement (which drives
multiclass voting) must be essentially perfect.
Routing, on the other hand, must be surgical — pairs below the
threshold keep the bitwise path, and a config that routes nothing must
leave the trained model bitwise identical.
"""

import json
import warnings

import numpy as np
import pytest

from repro.cascade import (
    CascadeConfig,
    assign_shards,
    build_reduction_tree,
    effective_shards,
    shard_instances,
    train_cascade,
)
from repro.core.trainer import TrainerConfig, train_multiclass
from repro.data import gaussian_blobs
from repro.distributed import ClusterSpec, train_multiclass_sharded
from repro.distributed.cluster import DevicePool
from repro.exceptions import ValidationError
from repro.gpusim.clock import SimClock
from repro.gpusim.device import scaled_tesla_p100
from repro.gpusim.engine import make_engine
from repro.kernels.functions import kernel_from_name
from repro.kernels.rows import KernelRowComputer
from repro.solvers.base import optimality_gap
from repro.solvers.batch_smo import BatchSMOSolver
from repro.telemetry.schema import REPORT_SCHEMA_VERSION


def _config(**overrides):
    options = {"device": scaled_tesla_p100(), "working_set_size": 32}
    options.update(overrides)
    return TrainerConfig(**options)


def _binary_problem(n=400, n_features=5, seed=1):
    x, y = gaussian_blobs(n=n, n_features=n_features, n_classes=2, seed=seed)
    labels = np.where(y == 0, 1.0, -1.0)
    return x, labels


def _sequential_solve(config, data, labels, kernel, penalty):
    """The unsharded batched solve the cascade approximates."""
    engine = make_engine(
        config.device,
        flop_efficiency=config.flop_efficiency,
        bandwidth_efficiency=config.bandwidth_efficiency,
        backend=config.backend,
    )
    rows = KernelRowComputer(engine, kernel, data)
    solver = BatchSMOSolver(
        penalty=penalty,
        epsilon=config.epsilon,
        working_set_size=config.working_set_size,
    )
    return solver.solve(rows, labels)


def _decision(result, labels):
    """Training-set decision values from the maintained indicators."""
    return result.f + labels + result.bias


def _recheck(config, x, labels, kernel, result, box):
    """Recheck a cascade result against a kernel matrix built from scratch.

    ``f = K(alpha * y) - y`` in float64 from the kernel itself, not from
    the result's maintained indicators: the global gap must be within
    epsilon and the maintained ``f`` must match the recomputation.
    """
    gram = kernel.pairwise(make_engine(config.device), x, x, category="recheck")
    f = gram @ (result.alpha * labels) - labels
    assert optimality_gap(f, labels, result.alpha, box) <= (
        config.epsilon * (1 + 1e-6)
    )
    np.testing.assert_allclose(result.f, f, rtol=0.0, atol=1e-9)


class TestCascadeConfig:
    def test_defaults(self):
        cfg = CascadeConfig()
        assert cfg.n_shards == 4
        assert cfg.threshold == 2048
        assert cfg.seed == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_shards": 0},
            {"threshold": 1},
            # Unknown keys fail with their name (strict_config).
            {"feedback_chunk": 1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            CascadeConfig(**kwargs)


class TestPartitioner:
    def test_shards_disjointly_cover_all_instances(self):
        labels = np.where(np.arange(100) % 3 == 0, 1.0, -1.0)
        shards = shard_instances(labels, 4, seed=0)
        merged = np.concatenate(shards)
        assert merged.size == 100
        assert np.array_equal(np.sort(merged), np.arange(100))

    def test_stratified_and_balanced(self):
        rng = np.random.default_rng(5)
        labels = np.where(rng.random(123) < 0.3, 1.0, -1.0)
        shards = shard_instances(labels, 5, seed=2)
        pos_counts = [int(np.sum(labels[s] > 0)) for s in shards]
        neg_counts = [int(np.sum(labels[s] < 0)) for s in shards]
        assert min(pos_counts) >= 1 and min(neg_counts) >= 1
        assert max(pos_counts) - min(pos_counts) <= 1
        assert max(neg_counts) - min(neg_counts) <= 1

    def test_deterministic_in_seed(self):
        labels = np.where(np.arange(80) % 2 == 0, 1.0, -1.0)
        a = shard_instances(labels, 4, seed=7)
        b = shard_instances(labels, 4, seed=7)
        c = shard_instances(labels, 4, seed=8)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_indices_sorted_int64(self):
        labels = np.where(np.arange(60) % 2 == 0, 1.0, -1.0)
        for shard in shard_instances(labels, 3, seed=0):
            assert shard.dtype == np.int64
            assert np.array_equal(shard, np.sort(shard))

    def test_too_few_instances_raises(self):
        labels = np.array([1.0, 1.0, 1.0, -1.0, -1.0])
        with pytest.raises(ValidationError, match="stratified"):
            shard_instances(labels, 3, seed=0)

    def test_effective_shards_clamps(self):
        labels = np.array([1.0, 1.0, -1.0, -1.0, -1.0])
        assert effective_shards(labels, 8) == 2
        assert effective_shards(labels, 1) == 1
        with pytest.raises(ValidationError):
            effective_shards(labels, 0)


class TestReductionTree:
    def test_assign_shards_identity_when_enough_devices(self):
        assert assign_shards(4, 4) == [0, 1, 2, 3]
        assert assign_shards(2, 4) == [0, 1]

    def test_assign_shards_contiguous_blocks(self):
        assert assign_shards(8, 4) == [0, 0, 1, 1, 2, 2, 3, 3]
        assert assign_shards(5, 2) == [0, 0, 0, 1, 1]

    def test_flat_cluster_tree_shape(self):
        cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=4)
        tree = build_reduction_tree([0, 1, 2, 3], cluster)
        assert [len(level) for level in tree.levels] == [2, 1]
        assert tree.n_merges == 3
        assert tree.tier_counts() == {"local": 0, "intra": 3, "inter": 0}
        assert tree.root == 0

    def test_same_device_merges_are_local(self):
        cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=2)
        tree = build_reduction_tree([0, 0, 1, 1], cluster)
        counts = tree.tier_counts()
        assert counts["local"] == 2
        assert counts["intra"] == 1
        assert counts["inter"] == 0

    def test_hierarchical_exhausts_intra_before_inter(self):
        cluster = ClusterSpec(
            device=scaled_tesla_p100(), n_devices=4, n_nodes=2
        )
        tree = build_reduction_tree([0, 1, 2, 3], cluster)
        # Devices 0,1 on node 0 and 2,3 on node 1: one intra merge per
        # node first, then exactly n_nodes - 1 = 1 inter merge.
        assert tree.tier_counts() == {"local": 0, "intra": 2, "inter": 1}
        assert all(step.tier == "intra" for step in tree.levels[0])
        assert [step.tier for step in tree.levels[-1]] == ["inter"]

    @pytest.mark.parametrize(
        "n_devices,n_nodes,n_shards",
        [(4, 2, 4), (4, 2, 8), (8, 4, 8), (6, 3, 6), (4, 4, 4)],
    )
    def test_inter_merges_always_n_nodes_minus_one(
        self, n_devices, n_nodes, n_shards
    ):
        cluster = ClusterSpec(
            device=scaled_tesla_p100(), n_devices=n_devices, n_nodes=n_nodes
        )
        devices = assign_shards(n_shards, n_devices)
        tree = build_reduction_tree(devices, cluster)
        assert tree.tier_counts()["inter"] == n_nodes - 1
        assert tree.n_merges == n_shards - 1

    def test_single_slot_is_trivial(self):
        cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=2)
        tree = build_reduction_tree([1], cluster)
        assert tree.levels == []
        assert tree.root == 0

    def test_empty_slots_rejected(self):
        cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=2)
        with pytest.raises(ValidationError):
            build_reduction_tree([], cluster)

    def test_deterministic(self):
        cluster = ClusterSpec(
            device=scaled_tesla_p100(), n_devices=4, n_nodes=2
        )
        a = build_reduction_tree([0, 1, 2, 3, 0, 2], cluster)
        b = build_reduction_tree([0, 1, 2, 3, 0, 2], cluster)
        assert a.levels == b.levels and a.root == b.root


class TestTrainCascade:
    @pytest.fixture(scope="class")
    def problem(self):
        x, labels = _binary_problem()
        kernel = kernel_from_name("gaussian", gamma=0.5)
        config = _config()
        sequential = _sequential_solve(config, x, labels, kernel, 1.0)
        return x, labels, kernel, config, sequential

    def test_converges_to_epsilon(self, problem):
        x, labels, kernel, config, _ = problem
        cluster = ClusterSpec(device=config.device, n_devices=4)
        result, report = train_cascade(
            config, cluster, x, labels, kernel, 1.0,
            cascade=CascadeConfig(n_shards=4),
        )
        assert result.converged
        assert report.final_gap <= config.epsilon
        assert result.final_gap == report.final_gap
        assert report.n_support == result.n_support

    def test_solution_is_feasible(self, problem):
        x, labels, kernel, config, _ = problem
        cluster = ClusterSpec(device=config.device, n_devices=4)
        result, _ = train_cascade(
            config, cluster, x, labels, kernel, 1.0,
            cascade=CascadeConfig(n_shards=4),
        )
        assert result.alpha.shape == labels.shape
        assert np.all(result.alpha >= -1e-12)
        assert np.all(result.alpha <= 1.0 + 1e-12)
        assert abs(np.dot(result.alpha, labels)) < 1e-9

    def test_decision_tracks_sequential_solve(self, problem):
        x, labels, kernel, config, sequential = problem
        cluster = ClusterSpec(device=config.device, n_devices=4)
        result, report = train_cascade(
            config, cluster, x, labels, kernel, 1.0,
            cascade=CascadeConfig(n_shards=4),
        )
        d_cascade = _decision(result, labels)
        d_sequential = _decision(sequential, labels)
        assert np.max(np.abs(d_cascade - d_sequential)) < 0.05
        agreement = np.mean(np.sign(d_cascade) == np.sign(d_sequential))
        assert agreement >= 0.999
        assert result.objective == pytest.approx(
            sequential.objective, rel=1e-3
        )

    # The gate matrix: every shard count on every cluster shape (flat and
    # hierarchical) must reach a global dual gap within epsilon and stay
    # decision-close to the sequential solve.
    @pytest.mark.parametrize("n_shards", [2, 3, 4, 6])
    @pytest.mark.parametrize(
        "n_devices,n_nodes", [(2, 1), (4, 1), (4, 2)]
    )
    def test_error_budget_matrix(
        self, problem, n_shards, n_devices, n_nodes
    ):
        x, labels, kernel, config, sequential = problem
        cluster = ClusterSpec(
            device=config.device, n_devices=n_devices, n_nodes=n_nodes
        )
        result, report = train_cascade(
            config, cluster, x, labels, kernel, 1.0,
            cascade=CascadeConfig(n_shards=n_shards),
        )
        assert result.converged
        assert report.final_gap <= config.epsilon
        d_cascade = _decision(result, labels)
        d_sequential = _decision(sequential, labels)
        assert np.max(np.abs(d_cascade - d_sequential)) < 0.1
        assert (
            np.mean(np.sign(d_cascade) == np.sign(d_sequential)) >= 0.999
        )

    def test_hierarchical_merges_ride_intra_tier_first(self, problem):
        x, labels, kernel, config, _ = problem
        cluster = ClusterSpec(
            device=config.device, n_devices=4, n_nodes=2
        )
        _, report = train_cascade(
            config, cluster, x, labels, kernel, 1.0,
            cascade=CascadeConfig(n_shards=4),
        )
        assert report.tree["tier_counts"] == {
            "local": 0, "intra": 2, "inter": 1
        }
        # The byte ledger confirms the routing: both tiers moved SV
        # payloads, and the single inter-node merge moved less than the
        # two intra-node ones combined plus the KKT broadcasts.
        assert report.transfer_bytes["intra"] > 0
        assert report.transfer_bytes["inter"] > 0

    def test_deterministic_across_runs(self, problem):
        x, labels, kernel, config, _ = problem
        cluster = ClusterSpec(device=config.device, n_devices=2)
        first, rep_a = train_cascade(
            config, cluster, x, labels, kernel, 1.0,
            cascade=CascadeConfig(n_shards=2),
        )
        second, rep_b = train_cascade(
            config, cluster, x, labels, kernel, 1.0,
            cascade=CascadeConfig(n_shards=2),
        )
        assert np.array_equal(first.alpha, second.alpha)
        assert first.bias == second.bias
        assert rep_a.simulated_seconds == rep_b.simulated_seconds

    def test_report_levels_and_json(self, problem):
        x, labels, kernel, config, _ = problem
        cluster = ClusterSpec(device=config.device, n_devices=4)
        _, report = train_cascade(
            config, cluster, x, labels, kernel, 1.0,
            cascade=CascadeConfig(n_shards=4),
        )
        kinds = [level["kind"] for level in report.levels]
        assert kinds[0] == "shard"
        assert "merge" in kinds
        assert kinds[-2:] == ["kkt", "polish"]
        polish = report.levels[-1]
        assert set(polish) == {
            "kind", "gap_before", "rounds", "iterations", "simulated_seconds"
        }
        assert polish["gap_before"] == report.levels[-2]["gap"]
        assert polish["gap_before"] > config.epsilon >= report.final_gap
        payload = json.loads(report.to_json())
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        assert payload["kind"] == "cascade_report"
        assert 0.0 < payload["sv_survival"] <= 1.0
        assert payload["simulated_seconds"] > 0.0

    def test_merged_gap_within_epsilon_skips_polish(self, problem):
        # Under a loose epsilon the merged root already meets it at the
        # distributed KKT pass, which is then the verification.
        x, labels, kernel, _, _ = problem
        config = _config(epsilon=0.3)
        cluster = ClusterSpec(device=config.device, n_devices=4)
        result, report = train_cascade(
            config, cluster, x, labels, kernel, 1.0,
            cascade=CascadeConfig(n_shards=4),
        )
        assert report.levels[-1]["kind"] == "kkt"
        assert "polish" not in [level["kind"] for level in report.levels]
        assert result.converged
        assert report.final_gap == report.levels[-1]["gap"] <= config.epsilon
        _recheck(config, x, labels, kernel, result, np.ones_like(labels))

    def test_more_shards_than_devices(self, problem):
        x, labels, kernel, config, _ = problem
        cluster = ClusterSpec(device=config.device, n_devices=2)
        _, report = train_cascade(
            config, cluster, x, labels, kernel, 1.0,
            cascade=CascadeConfig(n_shards=6),
        )
        assert report.n_shards == 6
        assert report.final_gap <= config.epsilon
        assert report.tree["tier_counts"]["local"] > 0

    def test_shard_count_clamped_to_class_support(self):
        x, labels = _binary_problem(n=40)
        kernel = kernel_from_name("gaussian", gamma=0.5)
        config = _config()
        cluster = ClusterSpec(device=config.device, n_devices=2)
        _, report = train_cascade(
            config, cluster, x, labels, kernel, 1.0,
            cascade=CascadeConfig(n_shards=64),
        )
        assert report.requested_shards == 64
        assert report.n_shards == effective_shards(labels, 64)

    def test_non_batched_solver_rejected(self, problem):
        x, labels, kernel, config, _ = problem
        cluster = ClusterSpec(device=config.device, n_devices=2)
        bad = _config(solver="classic")
        with pytest.raises(ValidationError, match="batched"):
            train_cascade(bad, cluster, x, labels, kernel, 1.0)

    def test_bad_checkpoint_every_rejected(self, problem):
        x, labels, kernel, config, _ = problem
        cluster = ClusterSpec(device=config.device, n_devices=2)
        with pytest.raises(ValidationError, match="checkpoint_every"):
            train_cascade(
                config, cluster, x, labels, kernel, 1.0, checkpoint_every=0
            )


class TestIndependentRecheck:
    """The polished result against a from-scratch float64 recomputation."""

    @pytest.fixture(scope="class")
    def problem(self):
        x, labels = _binary_problem()
        return x, labels, kernel_from_name("gaussian", gamma=0.5), _config()

    @pytest.mark.parametrize("n_shards", [2, 4])
    @pytest.mark.parametrize("n_nodes", [1, 2])
    def test_gap_and_f_recheck(self, problem, n_shards, n_nodes):
        x, labels, kernel, config = problem
        cluster = ClusterSpec(
            device=config.device, n_devices=4, n_nodes=n_nodes
        )
        result, _ = train_cascade(
            config, cluster, x, labels, kernel, 1.0,
            cascade=CascadeConfig(n_shards=n_shards),
        )
        _recheck(config, x, labels, kernel, result, np.ones_like(labels))

    def test_class_weighted_c_recheck(self, problem):
        # Class-weighted C reaches the cascade as a per-instance box
        # (the multiclass trainers' path); the recheck uses that box.
        from repro.cascade.driver import _cascade_solve

        x, labels, kernel, config = problem
        box = np.where(labels > 0, 2.0, 0.5)
        pool = DevicePool(ClusterSpec(device=config.device, n_devices=4))
        result, _ = _cascade_solve(
            config, CascadeConfig(n_shards=4), pool, x, labels, kernel, 1.0,
            penalty_vector=box,
            member_clocks=[SimClock() for _ in range(4)],
        )
        assert np.any(result.alpha == box)  # the weighted box binds
        _recheck(config, x, labels, kernel, result, box)


class TestMulticlassRouting:
    @pytest.fixture(scope="class")
    def workload(self):
        x, y = gaussian_blobs(n=360, n_features=5, n_classes=3, seed=3)
        kernel = kernel_from_name("gaussian", gamma=0.4)
        return x, y, kernel

    def test_config_rejects_wrong_type(self):
        with pytest.raises(ValidationError, match="CascadeConfig"):
            _config(cascade={"n_shards": 4})

    def test_config_rejects_non_batched_solver(self):
        with pytest.raises(ValidationError, match="batched"):
            _config(solver="classic", cascade=CascadeConfig())

    def test_threshold_routes_large_pairs_only(self, workload):
        x, y, kernel = workload
        config = _config(
            cascade=CascadeConfig(n_shards=4, threshold=150)
        )
        model, report = train_multiclass(config, x, y, kernel, 1.0)
        routed = [s for s in report.per_svm if "cascade" in s]
        assert len(routed) == 3  # every pair has 240 >= 150 instances
        for stats in routed:
            info = stats["cascade"]
            assert info["final_gap"] <= config.epsilon
            assert info["n_shards"] == 4
            assert stats["warm_start"] is False

    def test_high_threshold_is_bitwise_noop(self, workload):
        x, y, kernel = workload
        baseline_model, _ = train_multiclass(
            _config(), x, y, kernel, 1.0
        )
        routed_model, report = train_multiclass(
            _config(cascade=CascadeConfig(n_shards=4, threshold=100_000)),
            x, y, kernel, 1.0,
        )
        assert not any("cascade" in s for s in report.per_svm)
        for a, b in zip(baseline_model.records, routed_model.records):
            assert np.array_equal(a.coefficients, b.coefficients)
            assert np.array_equal(a.global_sv_indices, b.global_sv_indices)
            assert a.bias == b.bias

    def test_cascade_predictions_agree_with_baseline(self, workload):
        x, y, kernel = workload
        from repro.core.predictor import PredictorConfig, predict_labels_model

        baseline_model, _ = train_multiclass(_config(), x, y, kernel, 1.0)
        cascade_model, _ = train_multiclass(
            _config(cascade=CascadeConfig(n_shards=4, threshold=150)),
            x, y, kernel, 1.0,
        )
        pconfig = PredictorConfig(device=scaled_tesla_p100())
        base_labels, _ = predict_labels_model(pconfig, baseline_model, x)
        casc_labels, _ = predict_labels_model(pconfig, cascade_model, x)
        assert np.mean(base_labels == casc_labels) >= 0.999

    def test_sharded_trainer_reports_cascade(self, workload):
        x, y, kernel = workload
        config = _config(cascade=CascadeConfig(n_shards=4, threshold=150))
        cluster = ClusterSpec(
            device=config.device, n_devices=4, n_nodes=2
        )
        model, report = train_multiclass_sharded(
            config, cluster, x, y, kernel, 1.0
        )
        routed = [s for s in report.per_svm if "cascade" in s]
        assert len(routed) == 3
        for stats in routed:
            assert stats["cascade"]["final_gap"] <= config.epsilon
            assert stats["cascade"]["tree"]["root_device"] in range(4)
        assert "cascade_routed" in report.placement
        assert report.transfer_tier_bytes["intra"] > 0
        assert report.transfer_tier_bytes["inter"] > 0
        payload = json.loads(report.to_json())
        routed = [s for s in payload["per_svm"] if "cascade" in s]
        assert routed[0]["cascade"]["kind"] == "cascade_report"

    def test_cascade_pair_seconds_match_across_trainers(self, workload):
        # A routed pair's per-SVM time is its busy time summed over the
        # devices (shards, merges, polish, finalize) on both trainers,
        # not just the finalize charge.
        x, y, kernel = workload
        config = _config(cascade=CascadeConfig(n_shards=4, threshold=150))
        _, single = train_multiclass(config, x, y, kernel, 1.0)
        _, sharded = train_multiclass_sharded(
            config, ClusterSpec(device=config.device, n_devices=1),
            x, y, kernel, 1.0,
        )
        assert len(single.per_svm) == len(sharded.per_svm) == 3
        for a, b in zip(single.per_svm, sharded.per_svm):
            assert set(a) == set(b)
            assert "cascade" in a
            assert b["simulated_seconds"] == pytest.approx(
                a["simulated_seconds"], rel=1e-12
            )
        # The pairs train one after another on the only device, so their
        # busy times account for the whole cascade timeline.
        assert sum(s["simulated_seconds"] for s in sharded.per_svm) <= (
            sharded.simulated_seconds
        )

    def test_sharded_no_route_stays_bitwise(self, workload):
        x, y, kernel = workload
        config = _config()
        single_model, _ = train_multiclass(config, x, y, kernel, 1.0)
        cluster = ClusterSpec(device=config.device, n_devices=2)
        sharded_model, report = train_multiclass_sharded(
            _config(cascade=CascadeConfig(n_shards=4, threshold=100_000)),
            cluster, x, y, kernel, 1.0,
        )
        assert not any("cascade" in s for s in report.per_svm)
        for a, b in zip(single_model.records, sharded_model.records):
            assert np.array_equal(a.coefficients, b.coefficients)
            assert a.bias == b.bias

    def test_sharded_rejects_cascade_with_faults(self, workload):
        x, y, kernel = workload
        from repro.faults import DeviceLoss, FaultPlan

        config = _config()
        cluster = ClusterSpec(device=config.device, n_devices=2)
        with pytest.raises(ValidationError, match="train_cascade"):
            train_multiclass_sharded(
                _config(cascade=CascadeConfig(n_shards=2, threshold=100)),
                cluster, x, y, kernel, 1.0,
                fault_plan=FaultPlan(
                    losses=[DeviceLoss(device=1, at_s=0.0)]
                ),
            )
