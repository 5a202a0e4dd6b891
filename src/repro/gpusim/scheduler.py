"""Wave packing rules for concurrent binary SVMs on one device.

The MP-SVM level trains k(k-1)/2 independent binary SVMs.  Running them
one at a time leaves the device idle during every kernel-launch gap; running
too many at once exceeds device memory (the paper's challenge (ii)).  The
paper's resolution is to cap each SVM's streaming-multiprocessor footprint
so several fit, and to bound concurrency by memory.

:class:`WaveLimits` holds those bounds: SM capacity, a device-memory budget
and an optional concurrency cap.  The interleaved wave driver
(:mod:`repro.core.interleave`) admits solvers into each lockstep wave under
them and reads the wave's makespan off the rounds that actually ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ValidationError

__all__ = ["WaveLimits"]


@dataclass(frozen=True)
class WaveLimits:
    """The packing rules bounding one concurrent wave."""

    num_sms: int
    mem_budget_bytes: int
    max_concurrent: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_sms < 1:
            raise ValidationError("num_sms must be >= 1")
        if self.mem_budget_bytes <= 0:
            raise ValidationError("memory budget must be positive")
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise ValidationError("max_concurrent must be >= 1")

    def validate_task(self, name: str, *, blocks: int, mem_bytes: int) -> None:
        """Reject, by name, a task that cannot run on this device even alone."""
        if blocks > self.num_sms:
            raise ValidationError(
                f"task {name!r} needs {blocks} SM blocks but the device "
                f"has only {self.num_sms}"
            )
        if mem_bytes > self.mem_budget_bytes:
            raise ValidationError(
                f"task {name!r} needs {mem_bytes} bytes but the memory "
                f"budget is {self.mem_budget_bytes} bytes"
            )

    def admits(
        self,
        *,
        count: int,
        blocks: int,
        mem_bytes: int,
        task_blocks: int,
        task_mem_bytes: int,
    ) -> bool:
        """Whether a task joins a wave already holding ``count`` tasks.

        An empty wave admits anything that passed :meth:`validate_task`:
        a task that fits the device but not alongside the wave's current
        residents simply opens the next wave.
        """
        if count == 0:
            return True
        if self.max_concurrent is not None and count >= self.max_concurrent:
            return False
        if blocks + task_blocks > self.num_sms:
            return False
        if mem_bytes + task_mem_bytes > self.mem_budget_bytes:
            return False
        return True
