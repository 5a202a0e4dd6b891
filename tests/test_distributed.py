"""Tests for repro.distributed: cluster substrate, placement and sharded
training.

The load-bearing property throughout: distribution changes only the
simulated timeline — every device count and placement strategy must
reproduce the single-device models and probabilities *bitwise*.
"""

import json
import warnings

import numpy as np
import pytest

from repro.core.predictor import PredictorConfig, predict_proba_model
from repro.core.trainer import TrainerConfig, train_multiclass
from repro.data import gaussian_blobs
from repro.distributed import (
    ClusterSpec,
    DevicePool,
    InterconnectSpec,
    plan_placement,
    train_multiclass_sharded,
)
from repro.exceptions import ValidationError
from repro.gpusim.device import scaled_tesla_p100, xeon_e5_2640v4
from repro.kernels.functions import kernel_from_name
from repro.telemetry import Tracer
from repro.telemetry.schema import REPORT_SCHEMA_VERSION

DEVICE_COUNTS = (1, 2, 4)
PLACEMENTS = ("affinity", "round_robin")


def _workload(k=4, per=22, n_features=5, seed=7):
    x, y = gaussian_blobs(n=k * per, n_features=n_features, n_classes=k, seed=seed)
    kernel = kernel_from_name("gaussian", gamma=0.4)
    config = TrainerConfig(device=scaled_tesla_p100(), working_set_size=24)
    return x, y, kernel, config


def _records_equal(model_a, model_b) -> bool:
    if len(model_a.records) != len(model_b.records):
        return False
    for a, b in zip(model_a.records, model_b.records):
        if not (
            np.array_equal(a.global_sv_indices, b.global_sv_indices)
            and np.array_equal(a.coefficients, b.coefficients)
            and a.bias == b.bias
        ):
            return False
    return True


@pytest.fixture(scope="module")
def trained():
    """One single-device model plus its workload, shared by parity tests."""
    x, y, kernel, config = _workload()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model, report = train_multiclass(config, x, y, kernel, 1.0)
    return x, y, kernel, config, model, report


class TestInterconnectSpec:
    def test_charges_split_latency_and_bandwidth(self):
        spec = InterconnectSpec(
            host_latency_s=1e-5, host_bandwidth_gbps=10.0,
            peer_latency_s=2e-6, peer_bandwidth_gbps=40.0,
        )
        host = spec.host_charge(10_000_000_000)
        assert host.latency_s == 1e-5
        assert host.compute_s == pytest.approx(1.0)
        peer = spec.peer_charge(40_000_000_000)
        assert peer.latency_s == 2e-6
        assert peer.compute_s == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            InterconnectSpec(host_latency_s=-1.0)
        with pytest.raises(ValidationError):
            InterconnectSpec(peer_bandwidth_gbps=0.0)


class TestClusterSpec:
    def test_name_carries_device_count(self):
        cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=4)
        assert cluster.name.startswith("4x ")

    def test_rejects_empty_cluster(self):
        with pytest.raises(ValidationError):
            ClusterSpec(device=scaled_tesla_p100(), n_devices=0)

    def test_rejects_cpu_devices(self):
        with pytest.raises(ValidationError, match="kind"):
            ClusterSpec(device=xeon_e5_2640v4(), n_devices=2)


class TestHierarchicalCluster:
    def test_node_major_device_spread(self):
        cluster = ClusterSpec(
            device=scaled_tesla_p100(), n_devices=6, n_nodes=2
        )
        assert cluster.devices_per_node == 3
        assert [cluster.node_of(d) for d in range(6)] == [0, 0, 0, 1, 1, 1]
        assert cluster.same_node(0, 2)
        assert not cluster.same_node(2, 3)

    def test_name_carries_topology(self):
        cluster = ClusterSpec(
            device=scaled_tesla_p100(), n_devices=4, n_nodes=2
        )
        assert cluster.name.startswith("2x2 ")

    def test_uneven_spread_rejected(self):
        with pytest.raises(ValidationError, match="evenly"):
            ClusterSpec(device=scaled_tesla_p100(), n_devices=4, n_nodes=3)
        with pytest.raises(ValidationError):
            ClusterSpec(device=scaled_tesla_p100(), n_devices=2, n_nodes=0)

    def test_inter_node_charge(self):
        spec = InterconnectSpec(
            inter_node_latency_s=1e-5, inter_node_bandwidth_gbps=10.0
        )
        charge = spec.inter_node_charge(10_000_000_000)
        assert charge.latency_s == 1e-5
        assert charge.compute_s == pytest.approx(1.0)
        with pytest.raises(ValidationError):
            InterconnectSpec(inter_node_bandwidth_gbps=0.0)

    def test_pool_link_tiers_and_byte_ledger(self):
        from repro.distributed.cluster import HOST

        cluster = ClusterSpec(
            device=scaled_tesla_p100(), n_devices=4, n_nodes=2
        )
        pool = DevicePool(cluster)
        assert pool.link_tier(HOST, 0) == "host"
        assert pool.link_tier(0, 1) == "intra"
        assert pool.link_tier(1, 2) == "inter"
        pool.host_to_device(0, 100)
        pool.device_to_device(0, 1, 50)
        pool.device_to_device(1, 3, 25)
        assert pool.tier_bytes == {"host": 100, "intra": 50, "inter": 25}

    def test_cross_node_copy_is_slower(self):
        cluster = ClusterSpec(
            device=scaled_tesla_p100(), n_devices=4, n_nodes=2
        )
        intra_pool = DevicePool(cluster)
        inter_pool = DevicePool(cluster)
        intra_pool.device_to_device(0, 1, 1_000_000)
        inter_pool.device_to_device(0, 2, 1_000_000)
        assert (
            inter_pool.engine(0).clock.elapsed_s
            > intra_pool.engine(0).clock.elapsed_s
        )

    def test_flat_cluster_has_no_inter_tier(self):
        pool = DevicePool(ClusterSpec(device=scaled_tesla_p100(), n_devices=4))
        pool.device_to_device(0, 3, 1_000)
        assert pool.tier_bytes == {"host": 0, "intra": 1_000, "inter": 0}


class TestDevicePool:
    def _pool(self, n=3):
        return DevicePool(ClusterSpec(device=scaled_tesla_p100(), n_devices=n))

    def test_engines_are_independent(self):
        pool = self._pool()
        pool.host_to_device(1, 1000)
        assert pool.engine(1).clock.elapsed_s > 0.0
        assert pool.engine(0).clock.elapsed_s == 0.0
        assert pool.engine(2).clock.elapsed_s == 0.0

    def test_ledger_tracks_links(self):
        pool = self._pool()
        pool.host_to_device(0, 100)
        pool.device_to_device(0, 1, 50)
        pool.device_to_host(1, 25)
        assert pool.total_transfer_bytes == 175
        assert pool.device_transfer_bytes(0) == 150
        assert pool.device_transfer_bytes(1) == 75
        assert pool.device_transfer_bytes(2) == 0

    def test_peer_copy_charges_both_endpoints(self):
        pool = self._pool()
        pool.device_to_device(0, 2, 4096)
        assert pool.engine(0).clock.elapsed_s > 0.0
        assert pool.engine(2).clock.elapsed_s > 0.0
        assert pool.engine(1).clock.elapsed_s == 0.0
        assert pool.engine(0).counters.pcie_bytes == 4096

    def test_same_device_copy_is_free(self):
        pool = self._pool()
        pool.device_to_device(1, 1, 10**9)
        assert pool.total_transfer_bytes == 0
        assert pool.engine(1).clock.elapsed_s == 0.0

    def test_zero_byte_transfer_is_free(self):
        pool = self._pool()
        pool.host_to_device(0, 0)
        assert pool.total_transfer_bytes == 0
        assert pool.engine(0).clock.elapsed_s == 0.0

    def test_validation(self):
        pool = self._pool()
        with pytest.raises(ValidationError):
            pool.host_to_device(3, 10)
        with pytest.raises(ValidationError):
            pool.host_to_device(0, -1)
        with pytest.raises(ValidationError):
            pool.engine(-1)

    def test_makespan_and_utilization(self):
        pool = self._pool(2)
        pool.host_to_device(0, 10_000_000)
        pool.host_to_device(1, 5_000_000)
        assert pool.makespan_s == pool.engine(0).clock.elapsed_s
        assert pool.utilization(0) == pytest.approx(1.0)
        assert 0.0 < pool.utilization(1) < 1.0


class TestPlacement:
    def _problems(self, k):
        from types import SimpleNamespace

        return [
            SimpleNamespace(s=s, t=t, n=10 + s + t)
            for s in range(k)
            for t in range(s + 1, k)
        ]

    def test_every_problem_assigned_once(self):
        problems = self._problems(6)
        for strategy in PLACEMENTS:
            plan = plan_placement(problems, 4, strategy=strategy)
            assert len(plan.assignments) == len(problems)
            assert sorted(
                i for group in plan.device_problems for i in group
            ) == list(range(len(problems)))

    def test_round_robin_layout(self):
        plan = plan_placement(self._problems(4), 3, strategy="round_robin")
        assert plan.assignments == [i % 3 for i in range(6)]

    def test_device_problems_stay_in_global_order(self):
        plan = plan_placement(self._problems(6), 4)
        for group in plan.device_problems:
            assert group == sorted(group)

    def test_affinity_balances_load(self):
        plan = plan_placement(self._problems(8), 4, strategy="affinity")
        assert plan.balance < 1.5

    def test_affinity_colocates_class_blocks(self):
        problems = self._problems(8)
        affinity = plan_placement(problems, 4, strategy="affinity")
        naive = plan_placement(problems, 4, strategy="round_robin")
        assert sum(
            len(classes) for classes in affinity.device_classes
        ) <= sum(len(classes) for classes in naive.device_classes)

    def test_deterministic(self):
        problems = self._problems(7)
        a = plan_placement(problems, 3)
        b = plan_placement(problems, 3)
        assert a.assignments == b.assignments

    def test_single_device_takes_everything(self):
        plan = plan_placement(self._problems(5), 1)
        assert set(plan.assignments) == {0}
        assert plan.balance == pytest.approx(1.0)

    def test_summary_is_json_ready(self):
        plan = plan_placement(self._problems(5), 2)
        parsed = json.loads(json.dumps(plan.summary()))
        assert parsed["strategy"] == "affinity"
        assert parsed["n_devices"] == 2
        assert len(parsed["assignments"]) == 10

    def test_validation(self):
        with pytest.raises(ValidationError):
            plan_placement(self._problems(4), 0)
        with pytest.raises(ValidationError, match="strategy"):
            plan_placement(self._problems(4), 2, strategy="random")


class TestPlacementProperties:
    """Seeded matrix: the partition invariants hold for every shape.

    For any class count x device count x strategy x seeded size draw,
    a placement is a *partition*: every problem lands on exactly one
    in-range device, loads add up exactly, and the result is a pure
    function of its inputs.
    """

    @staticmethod
    def _random_problems(k, seed):
        from types import SimpleNamespace

        rng = np.random.default_rng(seed)
        return [
            SimpleNamespace(s=s, t=t, n=int(rng.integers(1, 500)))
            for s in range(k)
            for t in range(s + 1, k)
        ]

    @pytest.mark.parametrize("strategy", sorted(PLACEMENTS))
    @pytest.mark.parametrize("n_devices", (1, 2, 3, 5, 8))
    @pytest.mark.parametrize("n_classes", (2, 3, 5, 7))
    def test_partition_invariants(self, n_classes, n_devices, strategy):
        problems = self._random_problems(n_classes, seed=n_classes * 31)
        plan = plan_placement(problems, n_devices, strategy=strategy)

        # Complete and duplicate-free: each problem on exactly one device.
        assert len(plan.assignments) == len(problems)
        assert all(0 <= d < n_devices for d in plan.assignments)
        flat = sorted(i for group in plan.device_problems for i in group)
        assert flat == list(range(len(problems)))

        # Loads are additive: each device carries exactly the summed
        # cost of its own problems (cost probed per-problem via a
        # single-device plan, so the formula stays an implementation
        # detail).
        cost = [
            plan_placement([p], 1, strategy=strategy).device_load[0]
            for p in problems
        ]
        for device, group in enumerate(plan.device_problems):
            assert plan.device_load[device] == pytest.approx(
                sum(cost[i] for i in group)
            )

        # Each device's class set is exactly its problems' classes.
        for device, group in enumerate(plan.device_problems):
            classes = set()
            for i in group:
                classes.update((problems[i].s, problems[i].t))
            assert set(plan.device_classes[device]) == classes

        # Balance is max/mean over non-empty devices: never below 1.
        assert plan.balance >= 1.0 or not problems

    @pytest.mark.parametrize("strategy", sorted(PLACEMENTS))
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_determinism(self, seed, strategy):
        problems = self._random_problems(5, seed=seed)
        a = plan_placement(problems, 3, strategy=strategy)
        b = plan_placement(
            self._random_problems(5, seed=seed), 3, strategy=strategy
        )
        assert a.assignments == b.assignments
        assert a.device_load == b.device_load

    def test_more_devices_than_problems_leaves_idle_devices(self):
        problems = self._random_problems(2, seed=1)  # a single pair
        for strategy in PLACEMENTS:
            plan = plan_placement(problems, 4, strategy=strategy)
            assert len(plan.assignments) == 1
            empty = [g for g in plan.device_problems if not g]
            assert len(empty) == 3


class TestShardedTrainingParity:
    @pytest.mark.parametrize("n_devices", DEVICE_COUNTS)
    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_models_bitwise_equal_to_single_device(
        self, trained, n_devices, placement
    ):
        x, y, kernel, config, model_single, _ = trained
        cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=n_devices)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model, _ = train_multiclass_sharded(
                config, cluster, x, y, kernel, 1.0, placement=placement
            )
        assert _records_equal(model_single, model)
        assert np.array_equal(
            np.asarray(model_single.sv_pool.pool_data),
            np.asarray(model.sv_pool.pool_data),
        )

    def test_probabilities_bitwise_equal_to_single_device(self, trained):
        x, y, kernel, config, model_single, _ = trained
        x_test = x[::3] + 0.25
        predictor = PredictorConfig(device=scaled_tesla_p100())
        expected, _ = predict_proba_model(predictor, model_single, x_test)
        cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model, _ = train_multiclass_sharded(config, cluster, x, y, kernel, 1.0)
        actual, _ = predict_proba_model(predictor, model, x_test)
        assert np.array_equal(expected, actual)

    def test_metadata_records_cluster(self, trained):
        x, y, kernel, config, _, _ = trained
        cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model, _ = train_multiclass_sharded(
                config, cluster, x, y, kernel, 1.0, placement="round_robin"
            )
        assert model.metadata["cluster_devices"] == 2
        assert model.metadata["placement"] == "round_robin"


class TestClusterTrainingReport:
    @pytest.fixture(scope="class")
    def run(self, trained):
        x, y, kernel, config, _, _ = trained
        cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return train_multiclass_sharded(config, cluster, x, y, kernel, 1.0)

    def test_makespan_is_busiest_device(self, run):
        _, report = run
        busiest = max(
            entry["simulated_seconds"] for entry in report.per_device
        )
        assert report.simulated_seconds == pytest.approx(busiest)

    def test_utilization_normalised_to_makespan(self, run):
        _, report = run
        utils = [entry["utilization"] for entry in report.per_device]
        assert max(utils) == pytest.approx(1.0)
        assert all(0.0 < u <= 1.0 for u in utils)

    def test_cluster_speedup_is_busy_over_makespan(self, run):
        _, report = run
        assert report.cluster_speedup == pytest.approx(
            report.total_busy_seconds / report.simulated_seconds
        )
        assert 1.0 <= report.cluster_speedup <= 2.0

    def test_per_device_work_sums_to_totals(self, run):
        _, report = run
        assert (
            sum(entry["n_svms"] for entry in report.per_device)
            == report.n_binary_svms
        )
        assert (
            sum(entry["iterations"] for entry in report.per_device)
            == report.total_iterations
        )

    def test_transfers_include_the_merge(self, run):
        _, report = run
        assert report.merge_bytes > 0
        assert report.transfer_bytes_total > report.merge_bytes

    def test_json_round_trip(self, run):
        _, report = run
        parsed = json.loads(report.to_json())
        assert parsed["schema_version"] == REPORT_SCHEMA_VERSION
        assert parsed["kind"] == "training_report"
        assert parsed["n_devices"] == 2
        assert parsed["placement"]["strategy"] == "affinity"
        assert len(parsed["per_device"]) == 2

    def test_rejects_classic_solver(self, trained):
        x, y, kernel, config, _, _ = trained
        from dataclasses import replace

        bad = replace(config, solver="classic")
        cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=2)
        with pytest.raises(ValidationError, match="classic"):
            train_multiclass_sharded(bad, cluster, x, y, kernel, 1.0)

    def test_rejects_ova_decomposition(self, trained):
        x, y, kernel, config, _, _ = trained
        from dataclasses import replace

        bad = replace(config, decomposition="ova")
        cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=2)
        with pytest.raises(ValidationError, match="ova"):
            train_multiclass_sharded(bad, cluster, x, y, kernel, 1.0)


class TestClusterTelemetry:
    def test_span_names_cover_the_cluster_run(self, trained):
        x, y, kernel, config, _, _ = trained
        from dataclasses import replace

        tracer = Tracer()
        traced = replace(config, tracer=tracer)
        cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            train_multiclass_sharded(traced, cluster, x, y, kernel, 1.0)
        names = [r["name"] for r in tracer.to_records()]
        assert "train_cluster" in names
        assert names.count("cluster_wave") == 2
        assert names.count("shard_merge") == 1
        assert names.count("transfer") >= 3  # 2 host copies + the merge

    def test_root_span_summarises_the_run(self, trained):
        x, y, kernel, config, _, _ = trained
        from dataclasses import replace

        tracer = Tracer()
        traced = replace(config, tracer=tracer)
        cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, report = train_multiclass_sharded(
                traced, cluster, x, y, kernel, 1.0
            )
        (root,) = [
            r for r in tracer.to_records() if r["name"] == "train_cluster"
        ]
        assert root["attrs"]["n_devices"] == 2
        assert root["attrs"]["cluster_speedup"] == pytest.approx(
            report.cluster_speedup
        )


class TestShardedCLI:
    def test_devices_flag_trains_identical_model(self, tmp_path, trained):
        from repro import load_model
        from repro.cli import train_main
        from repro.sparse import CSRMatrix, dump_libsvm

        x, y, _, _, model_single, _ = trained
        train_file = tmp_path / "train.svm"
        dump_libsvm(CSRMatrix.from_dense(x), y, train_file)
        single_path = tmp_path / "single.model"
        sharded_path = tmp_path / "sharded.model"
        flags = ["-c", "1.0", "-g", "0.4", "--working-set", "24", "-q"]
        assert train_main([str(train_file), str(single_path)] + flags) == 0
        assert (
            train_main(
                [str(train_file), str(sharded_path)]
                + flags
                + ["--devices", "3", "--placement", "round_robin"]
            )
            == 0
        )
        assert _records_equal(
            load_model(single_path), load_model(sharded_path)
        )

    def test_devices_flag_rejects_cpu_systems(self, tmp_path, trained):
        from repro.cli import train_main
        from repro.sparse import CSRMatrix, dump_libsvm

        x, y, _, _, _, _ = trained
        train_file = tmp_path / "train.svm"
        dump_libsvm(CSRMatrix.from_dense(x), y, train_file)
        assert (
            train_main(
                [str(train_file), "--system", "libsvm", "--devices", "2", "-q"]
            )
            == 1
        )

    def test_fault_seed_flag_recovers_identical_model(
        self, tmp_path, trained, capsys
    ):
        from repro import load_model
        from repro.cli import train_main
        from repro.sparse import CSRMatrix, dump_libsvm

        x, y, _, _, _, _ = trained
        train_file = tmp_path / "train.svm"
        dump_libsvm(CSRMatrix.from_dense(x), y, train_file)
        single_path = tmp_path / "single.model"
        faulted_path = tmp_path / "faulted.model"
        flags = ["-c", "1.0", "-g", "0.4", "--working-set", "24"]
        assert (
            train_main([str(train_file), str(single_path), "-q"] + flags) == 0
        )
        # Seed 1 draws a device loss at t=0 on a 3-device cluster, so
        # the recovery path runs; checkpoints land in --checkpoint-dir.
        assert (
            train_main(
                [str(train_file), str(faulted_path)]
                + flags
                + [
                    "--devices", "3", "--fault-seed", "1",
                    "--checkpoint-every", "2",
                    "--checkpoint-dir", str(tmp_path / "ckpts"),
                ]
            )
            == 0
        )
        assert _records_equal(
            load_model(single_path), load_model(faulted_path)
        )
        out = capsys.readouterr().out
        assert "LOST" in out and "recovered" in out
        assert list((tmp_path / "ckpts").glob("ckpt-d*-w*.json"))

    def test_fault_flags_require_devices(self, tmp_path, trained):
        from repro.cli import train_main
        from repro.sparse import CSRMatrix, dump_libsvm

        x, y, _, _, _, _ = trained
        train_file = tmp_path / "train.svm"
        dump_libsvm(CSRMatrix.from_dense(x), y, train_file)
        assert train_main([str(train_file), "--fault-seed", "1", "-q"]) == 1
        assert (
            train_main(
                [
                    str(train_file), "-q",
                    "--devices", "2", "--checkpoint-every", "0",
                ]
            )
            == 1
        )
