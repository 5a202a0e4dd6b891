"""Pinned simulated timelines of sharded and cascade training.

The sharded trainer and the cascade driver run their per-device waves,
checkpoints and survivor recovery through one executor
(``repro.distributed.waves``).  These pins hold the simulated outcome of
fixed runs — makespan, per-device busy time, transfer ledgers, fault and
checkpoint accounting, iteration totals — to the exact floats the
drivers produced before they shared that executor.  Floats compare with
``==``: any reordering of clock charges, shipped bytes or checkpoint
cadence shows up here.
"""

import warnings

import numpy as np
import pytest

from repro.cascade import CascadeConfig, train_cascade
from repro.core.trainer import TrainerConfig
from repro.data import gaussian_blobs
from repro.distributed import ClusterSpec, train_multiclass_sharded
from repro.faults import DeviceLoss, FaultPlan
from repro.gpusim.device import scaled_tesla_p100
from repro.kernels.functions import kernel_from_name

_FIELDS = (
    "simulated_seconds",
    "transfer_bytes",
    "transfer_tier_bytes",
    "faults",
    "total_iterations",
)


def _pins(payload: dict) -> dict:
    """The pinned subset of a report's ``to_dict()``."""
    pinned = {key: payload[key] for key in _FIELDS if key in payload}
    if "per_device" in payload:
        pinned["per_device_seconds"] = [
            entry["simulated_seconds"] for entry in payload["per_device"]
        ]
        pinned["per_device_transfer_bytes"] = [
            entry["transfer_bytes"] for entry in payload["per_device"]
        ]
        pinned["transfer_bytes_total"] = payload["transfer_bytes_total"]
    return pinned


def _sharded(**kwargs) -> dict:
    x, y = gaussian_blobs(n=88, n_features=5, n_classes=4, seed=7)
    config = TrainerConfig(device=scaled_tesla_p100(), working_set_size=24)
    cluster = ClusterSpec(device=scaled_tesla_p100(), n_devices=3)
    kernel = kernel_from_name("gaussian", gamma=0.4)
    _, report = train_multiclass_sharded(
        config, cluster, x, y, kernel, 1.0, **kwargs
    )
    return _pins(report.to_dict())


def _two_by_two() -> ClusterSpec:
    return ClusterSpec(device=scaled_tesla_p100(), n_devices=4, n_nodes=2)


def run_scenario(name: str) -> dict:
    """One pinned run by name (see ``PINS``)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if name == "sharded_nominal":
            return _sharded()
        if name == "sharded_loss":
            plan = FaultPlan(
                losses=[DeviceLoss(device=1, at_s=1e-4)],
                stragglers={2: 1.5},
            )
            return _sharded(
                fault_plan=plan, checkpoint_every=2, checkpoint_dir=":memory:"
            )
        if name == "cascade_loss":
            x, y = gaussian_blobs(n=400, n_features=5, n_classes=2, seed=1)
            labels = np.where(y == 0, 1.0, -1.0)
            config = TrainerConfig(device=scaled_tesla_p100(), working_set_size=32)
            plan = FaultPlan(
                losses=[DeviceLoss(device=1, at_s=5e-5)],
                stragglers={3: 2.0},
            )
            _, report = train_cascade(
                config, _two_by_two(), x, labels,
                kernel_from_name("gaussian", gamma=0.5), 1.0,
                cascade=CascadeConfig(n_shards=4),
                fault_plan=plan, checkpoint_every=2, checkpoint_dir=":memory:",
            )
            return _pins(report.to_dict())
        if name == "sharded_cascade_routed":
            x, y = gaussian_blobs(n=360, n_features=5, n_classes=3, seed=3)
            config = TrainerConfig(
                device=scaled_tesla_p100(),
                working_set_size=32,
                cascade=CascadeConfig(n_shards=4, threshold=150),
            )
            _, report = train_multiclass_sharded(
                config, _two_by_two(), x, y,
                kernel_from_name("gaussian", gamma=0.4), 1.0,
            )
            return _pins(report.to_dict())
    raise KeyError(name)


# Recorded from the drivers before they shared the wave executor; the two
# cascade pins were re-recorded when the feedback loop became one polish
# (the shard phase and its fault accounting did not move).
PINS = {
    "cascade_loss": {
        "faults": {
            "checkpoints_written": 60,
            "devices_lost": [1],
            "link_retries": 0,
            "plan": {
                "link_faults": [],
                "losses": [{"at_s": 5e-05, "device": 1}],
                "seed": None,
                "stragglers": {"3": 2.0},
            },
            "recovery": {
                "devices_lost": {"1": 5e-05},
                "recovered_shards": 1,
                "resumed_from_checkpoint": 1,
                "survivors": [0, 2, 3],
            },
        },
        "simulated_seconds": 0.0006268265628086918,
        "total_iterations": 1607,
        "transfer_bytes": {"host": 133216, "inter": 30592, "intra": 3968},
    },
    "sharded_cascade_routed": {
        "faults": {},
        "per_device_seconds": [
            0.0006586426048467744,
            9.745161476254484e-05,
            0.0003546713147428316,
            0.00025760080436648756,
        ],
        "per_device_transfer_bytes": [82728, 33496, 43528, 32968],
        "simulated_seconds": 0.0006586426048467744,
        "total_iterations": 2960,
        "transfer_bytes_total": 110760,
        "transfer_tier_bytes": {"host": 28800, "inter": 49232, "intra": 32728},
    },
    "sharded_loss": {
        "faults": {
            "checkpoints_written": 34,
            "devices_lost": [1],
            "link_retries": 0,
            "plan": {
                "link_faults": [],
                "losses": [{"at_s": 0.0001, "device": 1}],
                "seed": None,
                "stragglers": {"2": 1.5},
            },
            "recovery": {
                "devices_lost": {"1": 0.0001},
                "recovered_problems": 2,
                "resumed_from_checkpoint": 2,
                "survivors": [0, 2],
            },
        },
        "per_device_seconds": [
            0.00016326997602956995,
            0.00010187992105734767,
            0.00026044440708534956,
        ],
        "per_device_transfer_bytes": [27776, 18768, 29568],
        "simulated_seconds": 0.00026044440708534956,
        "total_iterations": 449,
        "transfer_bytes_total": 74256,
        "transfer_tier_bytes": {"host": 72400, "inter": 0, "intra": 1856},
    },
    "sharded_nominal": {
        "faults": {},
        "per_device_seconds": [
            2.4827281195788535e-05,
            1.9695301868727606e-05,
            1.9903998630824375e-05,
        ],
        "per_device_transfer_bytes": [5120, 3840, 3920],
        "simulated_seconds": 2.4827281195788535e-05,
        "total_iterations": 449,
        "transfer_bytes_total": 10400,
        "transfer_tier_bytes": {"host": 7920, "inter": 0, "intra": 2480},
    },
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_timeline_is_pinned(name):
    assert run_scenario(name) == PINS[name]


def test_pinned_runs_exercise_recovery():
    # The fault pins are only meaningful if the loss fired and at least
    # one session resumed from a shipped checkpoint.
    for name, key in (("sharded_loss", "recovered_problems"),
                      ("cascade_loss", "recovered_shards")):
        recovery = PINS[name]["faults"]["recovery"]
        assert recovery[key] >= 1
        assert recovery["resumed_from_checkpoint"] >= 1
