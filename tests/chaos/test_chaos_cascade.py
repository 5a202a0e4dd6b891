"""Chaos suite: device loss mid-cascade.

Unlike the pair-sharded trainer (whose recovery is bitwise — each
pairwise problem is solved whole, just elsewhere), a lost device
changes the cascade's shard→device map and hence possibly the merge
pairing, so the recovered model may differ in the low bits.  What must
hold instead is the solver's contract: every recovered run still
polishes its global dual gap to epsilon, stays decision-close to the
fault-free cascade, and reports the loss and the recovery explicitly.
When the rebuilt tree pairs the same slots (the common case), the
recovery *is* bitwise — one scenario pins that stronger property.
"""

import os
import warnings

import numpy as np
import pytest

from repro.cascade import CascadeConfig, train_cascade
from repro.core.trainer import TrainerConfig
from repro.data import gaussian_blobs
from repro.distributed import ClusterSpec
from repro.faults import DeviceLoss, FaultPlan
from repro.gpusim.device import scaled_tesla_p100
from repro.kernels.functions import kernel_from_name

N_DEVICES = 4
N_SEEDS = int(os.environ.get("REPRO_CHAOS_SEEDS", "8"))


def _decision(result, labels):
    return result.f + labels + result.bias


@pytest.fixture(scope="module")
def workload():
    x, y = gaussian_blobs(n=400, n_features=5, n_classes=2, seed=1)
    labels = np.where(y == 0, 1.0, -1.0)
    kernel = kernel_from_name("gaussian", gamma=0.5)
    config = TrainerConfig(device=scaled_tesla_p100(), working_set_size=32)
    return x, labels, kernel, config


@pytest.fixture(scope="module")
def cluster():
    return ClusterSpec(device=scaled_tesla_p100(), n_devices=N_DEVICES)


def _train(cluster, workload, **kwargs):
    x, labels, kernel, config = workload
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return train_cascade(
            config, cluster, x, labels, kernel, 1.0,
            cascade=CascadeConfig(n_shards=N_DEVICES),
            **kwargs,
        )


@pytest.fixture(scope="module")
def baseline(cluster, workload):
    return _train(cluster, workload)


def _assert_recovered_close(result, report, baseline, workload):
    _, labels, _, config = workload
    base_result, _ = baseline
    assert result.converged
    assert report.final_gap <= config.epsilon
    d_fault = _decision(result, labels)
    d_base = _decision(base_result, labels)
    assert np.max(np.abs(d_fault - d_base)) < 0.1
    assert np.mean(np.sign(d_fault) == np.sign(d_base)) >= 0.999


class TestDeviceLossMidCascade:
    @pytest.mark.parametrize("lost_device", [1, 2, 3])
    def test_recovery_meets_budget(
        self, cluster, workload, baseline, lost_device
    ):
        plan = FaultPlan(losses=[DeviceLoss(device=lost_device, at_s=1e-6)])
        result, report = _train(
            cluster, workload,
            fault_plan=plan,
            checkpoint_every=2,
            checkpoint_dir=":memory:",
        )
        _assert_recovered_close(result, report, baseline, workload)
        assert report.faults["devices_lost"] == [lost_device]
        recovery = report.faults["recovery"]
        assert recovery["recovered_shards"] >= 1
        assert lost_device not in recovery["survivors"]
        assert len(recovery["survivors"]) == N_DEVICES - 1

    def test_same_pairing_recovery_is_bitwise(
        self, cluster, workload, baseline
    ):
        # Losing device 1 sends its shard to device 0; the survivors'
        # slot ordering still pairs (0,1) and (2,3), so every merge sees
        # the same operands and the recovered model is bitwise identical.
        base_result, base_report = baseline
        plan = FaultPlan(losses=[DeviceLoss(device=1, at_s=1e-6)])
        result, report = _train(
            cluster, workload,
            fault_plan=plan,
            checkpoint_every=2,
            checkpoint_dir=":memory:",
        )
        assert np.array_equal(result.alpha, base_result.alpha)
        assert result.bias == base_result.bias
        assert report.final_gap == base_report.final_gap

    def test_loss_stretches_timeline_boundedly(
        self, cluster, workload, baseline
    ):
        _, base_report = baseline
        plan = FaultPlan(losses=[DeviceLoss(device=1, at_s=1e-6)])
        _, report = _train(
            cluster, workload,
            fault_plan=plan,
            checkpoint_every=2,
            checkpoint_dir=":memory:",
        )
        assert report.simulated_seconds >= base_report.simulated_seconds
        assert report.simulated_seconds <= 5.0 * base_report.simulated_seconds

    def test_merge_tree_rebuilt_over_survivors(self, cluster, workload):
        plan = FaultPlan(losses=[DeviceLoss(device=3, at_s=1e-6)])
        _, report = _train(
            cluster, workload,
            fault_plan=plan,
            checkpoint_every=2,
            checkpoint_dir=":memory:",
        )
        # The root solution cannot live on the lost device, and the tree
        # still folds every shard into one slot.
        assert report.tree["root_device"] != 3
        assert report.tree["n_merges"] == report.n_shards - 1

    def test_seeded_loss_matrix(self, cluster, workload, baseline):
        for seed in range(N_SEEDS):
            plan = FaultPlan.random(seed, N_DEVICES, loss_window_s=0.0)
            result, report = _train(
                cluster, workload,
                fault_plan=plan,
                checkpoint_every=2,
                checkpoint_dir=":memory:",
            )
            assert result.converged, f"seed {seed} missed epsilon"
            _assert_recovered_close(result, report, baseline, workload)

    def test_checkpoints_written_without_faults(self, cluster, workload):
        _, report = _train(
            cluster, workload,
            checkpoint_every=2,
            checkpoint_dir=":memory:",
        )
        assert report.faults["checkpoints_written"] > 0

    def test_disk_checkpoints(self, cluster, workload, baseline, tmp_path):
        plan = FaultPlan(losses=[DeviceLoss(device=2, at_s=1e-6)])
        result, report = _train(
            cluster, workload,
            fault_plan=plan,
            checkpoint_every=2,
            checkpoint_dir=tmp_path / "casc_ckpt",
        )
        _assert_recovered_close(result, report, baseline, workload)
        assert report.faults["checkpoints_written"] > 0


class TestHierarchicalChaos:
    def test_loss_on_two_node_cluster(self, workload):
        x, labels, kernel, config = workload
        cluster = ClusterSpec(
            device=scaled_tesla_p100(), n_devices=4, n_nodes=2
        )
        baseline_result, _ = train_cascade(
            config, cluster, x, labels, kernel, 1.0,
            cascade=CascadeConfig(n_shards=4),
        )
        plan = FaultPlan(losses=[DeviceLoss(device=1, at_s=1e-6)])
        result, report = train_cascade(
            config, cluster, x, labels, kernel, 1.0,
            cascade=CascadeConfig(n_shards=4),
            fault_plan=plan,
            checkpoint_every=2,
            checkpoint_dir=":memory:",
        )
        assert result.converged
        assert report.final_gap <= config.epsilon
        d_fault = _decision(result, labels)
        d_base = _decision(baseline_result, labels)
        assert np.mean(np.sign(d_fault) == np.sign(d_base)) >= 0.999
        # The rebuilt tree still respects the topology: at most
        # n_nodes - 1 merges cross the node boundary.
        assert report.tree["tier_counts"]["inter"] <= cluster.n_nodes - 1
