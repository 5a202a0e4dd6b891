"""Instance-sharded cascade SMO over hierarchical clusters.

Where :mod:`repro.distributed` shards the *pairwise problems* of a
multiclass workload across devices (bitwise-preserving), this package
shards the *instances of one binary problem*: seeded stratified
partitioning (:mod:`~repro.cascade.partition`), per-shard sub-solves
under the existing wave scheduler, a topology-aware pairwise SV merge
tree (:mod:`~repro.cascade.tree`) over the :class:`~repro.distributed.
cluster.DevicePool` peer links, and one distributed global-KKT pass
followed, when the merged gap exceeds epsilon, by a warm-started polish
over all instances (:mod:`~repro.cascade.driver`).

Entry points: :func:`train_cascade` for one binary problem, or a
:class:`CascadeConfig` handed to the multiclass trainers (``cascade=``
on :class:`~repro.core.trainer.TrainerConfig` /
:func:`~repro.distributed.trainer.train_multiclass_sharded`) to route
only the pairs above ``threshold`` instances through the cascade.
"""

from repro.cascade.config import CascadeConfig
from repro.cascade.driver import CascadeReport, train_cascade
from repro.cascade.partition import effective_shards, shard_instances
from repro.cascade.tree import (
    MergeStep,
    ReductionTree,
    assign_shards,
    build_reduction_tree,
)

__all__ = [
    "CascadeConfig",
    "CascadeReport",
    "MergeStep",
    "ReductionTree",
    "assign_shards",
    "build_reduction_tree",
    "effective_shards",
    "shard_instances",
    "train_cascade",
]
