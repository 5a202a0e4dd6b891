"""Configuration of the instance-sharded cascade trainer.

One :class:`CascadeConfig` describes how a single binary SVM is split
across devices: how many instance shards to cut, which pairwise problems
are large enough to bother (the routing threshold used by the multiclass
trainers) and the partitioner's seed.  The stopping rule is the solver's
own ``epsilon``: the cascade polishes its merged solution to it (see
DESIGN.md §17).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.validation import strict_config
from repro.exceptions import ValidationError

__all__ = ["CascadeConfig"]


@strict_config
@dataclass(frozen=True)
class CascadeConfig:
    """Knobs of the cascade (instance-sharded) binary SVM trainer."""

    # How many instance shards the binary problem is cut into.  Clamped
    # down at train time when a class has fewer instances than shards
    # (every shard must see both classes).
    n_shards: int = 4
    # Routing policy for the multiclass trainers: pairs with at least
    # this many instances go through the cascade, smaller pairs keep the
    # bitwise pair-sharded path.
    threshold: int = 2048
    # Seed of the deterministic instance partitioner.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValidationError(
                f"n_shards must be >= 1, got {self.n_shards}"
            )
        if self.threshold < 2:
            raise ValidationError(
                f"threshold must be >= 2, got {self.threshold}"
            )
