"""Chaos suite: seeded fault matrices against sharded training.

Every scenario checks the same invariants:

- **no hang** — training returns (a lost device aborts at a wave
  boundary and its problems are recovered on survivors);
- **bitwise parity** — the final model (records, pool, sigmoids) is
  identical to the fault-free run, checkpoints and re-placement
  included;
- **bounded inflation** — faults stretch the simulated makespan by a
  bounded factor, never unboundedly;
- **no silent wrong answers** — failures surface as explicit errors or
  report entries, never as different numbers.
"""

import os
import warnings

import numpy as np
import pytest

from repro.core.trainer import TrainerConfig
from repro.data import gaussian_blobs
from repro.distributed import ClusterSpec, train_multiclass_sharded
from repro.exceptions import SolverError, ValidationError
from repro.faults import DeviceLoss, FaultPlan, LinkFault
from repro.gpusim.device import scaled_tesla_p100
from repro.kernels.functions import kernel_from_name

N_DEVICES = 4
# Seeded-plan matrix width: 8 per PR, widened by nightly CI
# (REPRO_CHAOS_SEEDS=24) for the full sweep.
N_SEEDS = int(os.environ.get("REPRO_CHAOS_SEEDS", "8"))


def _train(cluster, workload, **kwargs):
    x, y, kernel, config = workload
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return train_multiclass_sharded(
            config, cluster, x, y, kernel, 1.0, **kwargs
        )


def _models_equal(model_a, model_b) -> bool:
    if len(model_a.records) != len(model_b.records):
        return False
    for a, b in zip(model_a.records, model_b.records):
        if not (
            np.array_equal(a.global_sv_indices, b.global_sv_indices)
            and np.array_equal(a.coefficients, b.coefficients)
            and a.bias == b.bias
        ):
            return False
    return model_a.sv_pool.n_pool == model_b.sv_pool.n_pool


@pytest.fixture(scope="module")
def workload():
    x, y = gaussian_blobs(n=88, n_features=5, n_classes=4, seed=7)
    kernel = kernel_from_name("gaussian", gamma=0.4)
    config = TrainerConfig(device=scaled_tesla_p100(), working_set_size=24)
    return x, y, kernel, config


@pytest.fixture(scope="module")
def cluster():
    return ClusterSpec(device=scaled_tesla_p100(), n_devices=N_DEVICES)


@pytest.fixture(scope="module")
def baseline(workload, cluster):
    """The fault-free model and report every scenario compares against."""
    return _train(cluster, workload)


@pytest.fixture(scope="module")
def checkpointed_baseline(workload, cluster):
    """Fault-free run paying the same checkpoint cadence as the chaos
    runs — the fair yardstick for makespan inflation, since checkpoint
    shipping dominates on a workload this small."""
    return _train(
        cluster, workload, checkpoint_dir=":memory:", checkpoint_every=2
    )


class TestSeededFaultMatrix:
    """The headline matrix: seeded-random plans, straggler x loss-time."""

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_random_plan_keeps_bitwise_parity(
        self, seed, workload, cluster, baseline, checkpointed_baseline
    ):
        base_model, base_report = baseline
        _, ckpt_report = checkpointed_baseline
        plan = FaultPlan.random(
            seed,
            N_DEVICES,
            loss_window_s=base_report.simulated_seconds,
            link_fault_probability=0.3,
        )
        model, report = _train(
            cluster, workload, fault_plan=plan, checkpoint_every=2
        )
        assert _models_equal(base_model, model)
        # No hang, and the timeline never inflates unboundedly against a
        # baseline paying the same checkpoint cadence: stragglers are
        # capped at 3x, one lost device's work lands on 3 survivors.
        inflation = report.simulated_seconds / ckpt_report.simulated_seconds
        assert 0 < inflation < 8.0
        if plan.is_empty:
            assert report.faults == {}
        else:
            assert report.faults["plan"]["seed"] == seed
            lost = report.faults["devices_lost"]
            assert set(lost) <= {loss.device for loss in plan.losses}
            if lost:
                assert report.faults["recovery"]["recovered_problems"] > 0

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_same_seed_replays_identical_timeline(
        self, seed, workload, cluster
    ):
        plan_a = FaultPlan.random(seed, N_DEVICES)
        plan_b = FaultPlan.random(seed, N_DEVICES)
        assert plan_a == plan_b


class TestScriptedLoss:
    """Loss-time x placement: recovery resumes from the checkpoint."""

    @pytest.mark.parametrize("placement", ("affinity", "round_robin"))
    @pytest.mark.parametrize("fraction", (0.3, 0.6))
    def test_loss_recovers_bitwise(
        self, fraction, placement, workload, cluster, baseline
    ):
        base_model, base_report = baseline
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            placed_model, placed_report = train_multiclass_sharded(
                workload[3], cluster, workload[0], workload[1],
                workload[2], 1.0,
                placement=placement,
                checkpoint_dir=":memory:", checkpoint_every=2,
            )
        plan = FaultPlan(
            losses=(
                DeviceLoss(1, placed_report.simulated_seconds * fraction),
            )
        )
        model, report = _train(
            cluster,
            workload,
            placement=placement,
            fault_plan=plan,
            checkpoint_every=2,
        )
        assert _models_equal(base_model, model)
        recovery = report.faults["recovery"]
        assert recovery["recovered_problems"] >= 1
        assert recovery["survivors"] == [0, 2, 3]
        assert report.per_device[1]["lost"] is True
        # Bounded inflation against the checkpointed baseline.
        inflation = report.simulated_seconds / placed_report.simulated_seconds
        assert inflation < 2.5

    @pytest.mark.parametrize("device", range(N_DEVICES))
    def test_any_single_device_loss_recovers(
        self, device, workload, cluster, baseline
    ):
        base_model, _ = baseline
        # Loss at t=0 fires at the device's first wave boundary, so every
        # device — even one with a single short problem — observes it.
        plan = FaultPlan(losses=(DeviceLoss(device, 0.0),))
        model, report = _train(
            cluster, workload, fault_plan=plan, checkpoint_every=3
        )
        assert _models_equal(base_model, model)
        if device not in report.placement["assignments"]:
            # An idle device (affinity packing can leave one without
            # work) never observes the loss: nothing to recover.
            assert report.faults["devices_lost"] == []
            assert report.faults["recovery"] == {}
        else:
            survivors = report.faults["recovery"]["survivors"]
            assert device not in survivors
            assert len(survivors) == N_DEVICES - 1

    def test_loss_before_first_checkpoint_restarts_from_scratch(
        self, workload, cluster, baseline
    ):
        base_model, _ = baseline
        plan = FaultPlan(losses=(DeviceLoss(2, 0.0),))
        # A huge cadence means no checkpoint ever ships: recovery replays
        # the lost problems from round zero and still matches bitwise.
        model, report = _train(
            cluster, workload, fault_plan=plan, checkpoint_every=10_000
        )
        assert _models_equal(base_model, model)
        assert report.faults["recovery"]["resumed_from_checkpoint"] == 0

    def test_all_devices_lost_is_an_explicit_error(self, workload):
        cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=2)
        plan = FaultPlan(losses=(DeviceLoss(0, 0.0), DeviceLoss(1, 0.0)))
        with pytest.raises(SolverError, match="nothing"):
            _train(cluster, workload, fault_plan=plan)

    def test_loss_of_root_moves_merge_root(self, workload, cluster, baseline):
        base_model, base_report = baseline
        plan = FaultPlan(
            losses=(DeviceLoss(0, base_report.simulated_seconds * 0.4),)
        )
        model, report = _train(cluster, workload, fault_plan=plan)
        assert _models_equal(base_model, model)
        # Device 0 is gone, so the SV merge gathered somewhere else and
        # the lost device took part in no merge transfer after the loss.
        assert report.faults["recovery"]["survivors"][0] == 1


class TestStragglersAndLinks:
    def test_straggler_stretches_only_the_timeline(
        self, workload, cluster, checkpointed_baseline
    ):
        base_model, base_report = checkpointed_baseline
        plan = FaultPlan(stragglers={0: 2.0, 3: 1.5})
        model, report = _train(
            cluster, workload, fault_plan=plan, checkpoint_every=2
        )
        assert _models_equal(base_model, model)
        assert report.simulated_seconds > base_report.simulated_seconds
        # A 2x straggler can at most double the makespan relative to a
        # run paying the same checkpoint cadence (plus slack for wave
        # packing shifting under the stretched clock).
        inflation = report.simulated_seconds / base_report.simulated_seconds
        assert inflation < 2.5

    def test_link_fault_charges_retries(self, workload, cluster, baseline):
        base_model, base_report = baseline
        # Host-link fault window covering the initial class-block
        # transfers (device clocks start at zero).
        plan = FaultPlan(
            link_faults=tuple(
                LinkFault(-1, device, 0.0, 1.0)
                for device in range(N_DEVICES)
            )
        )
        model, report = _train(cluster, workload, fault_plan=plan)
        assert _models_equal(base_model, model)
        assert report.faults["link_retries"] > 0
        assert report.simulated_seconds > base_report.simulated_seconds

    def test_losses_accept_bare_tuples(self, workload, cluster, baseline):
        base_model, base_report = baseline
        plan = FaultPlan(
            losses=((1, base_report.simulated_seconds * 0.5),),
            link_faults=((0, 1, 0.0, 0.5),),
        )
        model, _ = _train(cluster, workload, fault_plan=plan)
        assert _models_equal(base_model, model)


class TestCheckpointDurability:
    def test_checkpoints_persist_and_reload(
        self, workload, cluster, tmp_path
    ):
        _, report = _train(
            cluster,
            workload,
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        written = sorted(tmp_path.glob("ckpt-d*-w*.json"))
        assert written
        from repro.faults import CheckpointStore

        loaded = CheckpointStore().load(written[0])
        assert loaded.snapshots
        for snapshot in loaded.snapshots.values():
            assert snapshot.alpha.shape == snapshot.f.shape
        assert report.faults["checkpoints_written"] == len(written)

    def test_fault_free_run_with_faultless_plan_is_nominal(
        self, workload, cluster, baseline
    ):
        base_model, base_report = baseline
        model, report = _train(cluster, workload, fault_plan=FaultPlan())
        assert _models_equal(base_model, model)
        assert report.simulated_seconds == base_report.simulated_seconds
        assert report.faults == {}

    def test_checkpoint_every_validated(self, workload, cluster):
        with pytest.raises(ValidationError, match="checkpoint_every"):
            _train(cluster, workload, checkpoint_every=0)
