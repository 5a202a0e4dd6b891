"""One training report schema for single-device and sharded runs.

``train_multiclass`` and ``train_multiclass_sharded`` both return a
:class:`~repro.perf.report.TrainingReport`.  This snapshot pins its
``to_dict()`` key set across a single-device run and the sharded
scenarios of ``tests/test_training_timelines.py`` (nominal, a device
loss, cascade routing), the one place a cascade-routed pair's outcome is
recorded, the derived cluster totals, and per-device SV attribution by
final ownership.
"""

import warnings

import pytest

from repro.cascade import CascadeConfig, CascadeReport
from repro.core.trainer import TrainerConfig, train_multiclass
from repro.data import gaussian_blobs
from repro.distributed import ClusterSpec, train_multiclass_sharded
from repro.faults import DeviceLoss, FaultPlan
from repro.gpusim.device import scaled_tesla_p100
from repro.kernels.functions import kernel_from_name
from repro.perf.report import TrainingReport

TRAINING_REPORT_KEYS = frozenset({
    "schema_version",
    "kind",
    "device_name",
    "simulated_seconds",
    "breakdown",
    "fraction_breakdown",
    "counters",
    "n_binary_svms",
    "total_iterations",
    "kernel_rows_computed",
    "max_concurrency",
    "concurrency_speedup",
    "sharing_hit_rate",
    "buffer_hit_rate",
    "peak_task_memory_bytes",
    "schedule_source",
    "wave_trace",
    "per_svm",
    "n_devices",
    "cluster_speedup",
    "transfer_bytes_total",
    "merge_bytes",
    "placement",
    "per_device",
    "faults",
    "transfer_tier_bytes",
})

CASCADE_REPORT_KEYS = frozenset(
    CascadeReport(
        n_instances=0, n_shards=1, requested_shards=1, n_devices=1, n_nodes=1
    ).to_dict()
)

SHARDED = ("sharded_nominal", "sharded_loss", "sharded_cascade_routed")


def _run(name: str) -> TrainingReport:
    """The report of one named training run."""
    kernel = kernel_from_name("gaussian", gamma=0.4)
    if name == "sharded_cascade_routed":
        x, y = gaussian_blobs(n=360, n_features=5, n_classes=3, seed=3)
        config = TrainerConfig(
            device=scaled_tesla_p100(),
            working_set_size=32,
            cascade=CascadeConfig(n_shards=4, threshold=150),
        )
        cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=4, n_nodes=2)
        _, report = train_multiclass_sharded(config, cluster, x, y, kernel, 1.0)
        return report
    x, y = gaussian_blobs(n=88, n_features=5, n_classes=4, seed=7)
    config = TrainerConfig(device=scaled_tesla_p100(), working_set_size=24)
    if name == "single_device":
        _, report = train_multiclass(config, x, y, kernel, 1.0)
        return report
    cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=3)
    kwargs = {}
    if name == "sharded_loss":
        kwargs = dict(
            fault_plan=FaultPlan(
                losses=[DeviceLoss(device=1, at_s=1e-4)], stragglers={2: 1.5}
            ),
            checkpoint_every=2,
            checkpoint_dir=":memory:",
        )
    _, report = train_multiclass_sharded(
        config, cluster, x, y, kernel, 1.0, **kwargs
    )
    return report


@pytest.fixture(scope="module")
def reports() -> dict[str, TrainingReport]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {name: _run(name) for name in ("single_device",) + SHARDED}


@pytest.mark.parametrize("name", ("single_device",) + SHARDED)
def test_every_run_has_the_pinned_key_set(reports, name):
    payload = reports[name].to_dict()
    assert set(payload) == TRAINING_REPORT_KEYS
    assert "cascade" not in payload
    assert payload["kind"] == "training_report"


def test_cascade_outcome_is_recorded_once_per_routed_pair(reports):
    report = reports["sharded_cascade_routed"]
    routed = [s for s in report.to_dict()["per_svm"] if "cascade" in s]
    assert len(routed) == report.n_binary_svms == 3
    for stats in routed:
        assert set(stats["cascade"]) == CASCADE_REPORT_KEYS


@pytest.mark.parametrize("name", SHARDED)
def test_cluster_totals_are_derived(reports, name):
    report = reports[name]
    assert report.transfer_bytes_total == sum(
        report.transfer_tier_bytes.values()
    )
    assert report.cluster_speedup == (
        report.total_busy_seconds / report.simulated_seconds
    )


def test_single_device_leaves_cluster_fields_empty(reports):
    report = reports["single_device"]
    assert report.n_devices == 1
    assert report.per_device == []
    assert report.faults == {}
    assert report.cluster_speedup == 1.0
    assert report.transfer_bytes_total == 0


@pytest.mark.parametrize("name", ("sharded_loss", "sharded_cascade_routed"))
def test_per_device_svms_count_final_ownership(reports, name):
    report = reports[name]
    assert (
        sum(entry["n_svms"] for entry in report.per_device)
        == report.n_binary_svms
    )
    for entry in report.per_device:
        if entry["lost"]:
            assert entry["n_svms"] == 0
