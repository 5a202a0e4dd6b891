"""Multi-device sharded training over a simulated cluster.

The one-against-one decomposition's k(k-1)/2 independent binary problems
shard naturally across devices.  This package adds the cluster substrate
(:mod:`~repro.distributed.cluster`), the pair-to-device placement planner
(:mod:`~repro.distributed.placement`), the sharded training driver with
its cross-device SV merge (:mod:`~repro.distributed.trainer`).  Sharding
changes only the simulated timeline — models stay bitwise identical to
the single-device path.
"""

from repro.distributed.cluster import (
    HOST,
    ClusterSpec,
    DevicePool,
    InterconnectSpec,
)
from repro.distributed.placement import (
    PLACEMENT_STRATEGIES,
    PlacementPlan,
    plan_placement,
)
from repro.distributed.trainer import train_multiclass_sharded

__all__ = [
    "HOST",
    "PLACEMENT_STRATEGIES",
    "ClusterSpec",
    "DevicePool",
    "InterconnectSpec",
    "PlacementPlan",
    "plan_placement",
    "train_multiclass_sharded",
]
