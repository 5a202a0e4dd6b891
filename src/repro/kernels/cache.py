"""The GPU kernel-value buffer (Section 3.3.1, "Maintaining a GPU buffer").

The buffer is a preallocated region of device global memory that stores
whole rows of the kernel matrix keyed by instance index.  The paper uses
first-in-first-out replacement at batch granularity ("the first-in
first-out batch replacement strategy is used when the buffer is full";
finding better policies is explicitly left out of scope) — we implement
FIFO as the default and LRU/LFU for the ablation benchmark.

The backing storage is a single ``(capacity, row_length)`` array whose
device footprint is registered with the allocator, so buffer size directly
competes with everything else for simulated GPU memory (the Figure 6
trade-off).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.gpusim.engine import FLOAT_BYTES
from repro.gpusim.memory import DeviceAllocator, DeviceBuffer
from repro.telemetry.tracer import Tracer, maybe_span

__all__ = ["KernelBuffer", "BufferStats"]

POLICIES = ("fifo", "lru", "lfu")


@dataclass
class BufferStats:
    """Hit/miss accounting for one buffer's lifetime."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0

    @property
    def requests(self) -> int:
        """Total lookups (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the buffer."""
        return self.hits / self.requests if self.requests else 0.0

    def snapshot(self) -> "BufferStats":
        """An independent copy of the current counts."""
        return BufferStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            inserts=self.inserts,
        )

    def since(self, earlier: "BufferStats") -> "BufferStats":
        """Counts accumulated between an earlier snapshot and now."""
        return BufferStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
            inserts=self.inserts - earlier.inserts,
        )

    def as_dict(self) -> dict[str, float]:
        """JSON-safe counts plus derived rates (requests, hit_rate)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "inserts": self.inserts,
            "requests": self.requests,
            "hit_rate": self.hit_rate,
        }


class KernelBuffer:
    """Fixed-capacity store of kernel-matrix rows with pluggable eviction."""

    def __init__(
        self,
        capacity_rows: int,
        row_length: int,
        *,
        policy: str = "fifo",
        allocator: Optional[DeviceAllocator] = None,
        tag: str = "kernel-buffer",
        tracer: Optional[Tracer] = None,
    ) -> None:
        if capacity_rows < 1:
            raise ValidationError("capacity_rows must be >= 1")
        if row_length < 1:
            raise ValidationError("row_length must be >= 1")
        if policy not in POLICIES:
            raise ValidationError(f"policy must be one of {POLICIES}, got {policy!r}")
        self.capacity_rows = int(capacity_rows)
        self.row_length = int(row_length)
        self.policy = policy
        self.tracer = tracer
        self.stats = BufferStats()
        self._storage = np.empty((self.capacity_rows, self.row_length))
        # Storage slot of each row id, -1 when absent: a lookup of many
        # ids is one gather.  Grows when a larger id is inserted.
        self._slots = np.full(self.row_length, -1, dtype=np.int32)
        self._free_slots: deque[int] = deque(range(self.capacity_rows))
        # FIFO: insertion order.  LRU: recency order (front = coldest).
        self._order: OrderedDict[int, None] = OrderedDict()
        self._frequency: dict[int, int] = {}
        self._device_buffer: Optional[DeviceBuffer] = None
        if allocator is not None:
            self._device_buffer = allocator.allocate(self.nbytes, tag=tag)

    @property
    def nbytes(self) -> int:
        """Device footprint of the backing storage."""
        return self.capacity_rows * self.row_length * FLOAT_BYTES

    @property
    def size(self) -> int:
        """Rows currently resident."""
        return len(self._order)

    def free(self) -> None:
        """Release the registered device memory (if any)."""
        if self._device_buffer is not None and not self._device_buffer.freed:
            self._device_buffer.free()

    def __enter__(self) -> "KernelBuffer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.free()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _slot(self, rid: int) -> int:
        return int(self._slots[rid]) if 0 <= rid < self._slots.size else -1

    def _lookup(self, ids: np.ndarray) -> np.ndarray:
        """The slots of non-negative ``ids`` (-1 where absent), one gather."""
        try:
            return self._slots[ids]
        except IndexError:  # ids past every inserted one are absent
            return np.where(
                ids < self._slots.size, self._slots.take(ids, mode="clip"), -1
            )

    def contains(self, row_id: int) -> bool:
        """Membership probe; does not count as a request."""
        return self._slot(int(row_id)) >= 0

    def get(self, row_id: int) -> Optional[np.ndarray]:
        """Fetch a row (a read-only view) or None on miss."""
        rid = int(row_id)
        slot = self._slot(rid)
        if slot < 0:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._touch(rid)
        view = self._storage[slot]
        view.flags.writeable = False
        return view

    def missing(self, row_ids: Sequence[int]) -> np.ndarray:
        """The ids not resident, in order; a probe, not counted as requests."""
        ids = np.asarray(row_ids, dtype=np.int64).ravel()
        return ids[self._lookup(ids) < 0]

    def peek(self, row_ids: Sequence[int]) -> np.ndarray:
        """Copies of resident rows, in order; not counted as requests."""
        ids = np.asarray(row_ids, dtype=np.int64).ravel()
        return self._storage.take(self._lookup(ids), axis=0)

    def fetch(
        self,
        row_ids: Sequence[int],
        compute_missing: Callable[[np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Assemble rows, computing (and inserting) the missing ones in batch.

        ``compute_missing`` receives the missing ids as one array and must
        return the corresponding rows — this is the paper's batched kernel
        computation; the buffer guarantees it is called at most once.
        Resident rows count as hits and are touched in position order, as
        a sequence of :meth:`get` calls would; they are copied out with
        one gather from the backing storage.
        """
        ids = np.asarray(row_ids, dtype=np.int64).ravel()
        slots = self._lookup(ids)
        hit = slots >= 0
        n_hit = int(np.count_nonzero(hit))
        self.stats.hits += n_hit
        self.stats.misses += ids.size - n_hit
        # Frequencies order LFU eviction and recency orders LRU; FIFO
        # reads neither.
        if self.policy != "fifo":
            hit_ids = ids[hit].tolist()
            frequency = self._frequency
            for rid in hit_ids:
                frequency[rid] += 1
            if self.policy == "lru":
                for rid in hit_ids:
                    self._order.move_to_end(rid)
        # A missing position gathers slot 0 as a placeholder, overwritten below.
        out = self._storage.take(np.maximum(slots, 0), axis=0)
        if n_hit < ids.size:
            missing_pos = np.flatnonzero(~hit)
            missing_ids = ids[missing_pos]
            with maybe_span(self.tracer, "kernel_buffer.fill") as span:
                rows = np.asarray(compute_missing(missing_ids))
                if rows.shape != (missing_ids.size, self.row_length):
                    raise ValidationError(
                        f"compute_missing returned shape {rows.shape}, expected "
                        f"{(missing_ids.size, self.row_length)}"
                    )
                out[missing_pos] = rows
                evictions_before = self.stats.evictions
                self.put_batch(missing_ids, rows)
                span.set(
                    missing=missing_ids.size,
                    hits=n_hit,
                    evictions=self.stats.evictions - evictions_before,
                )
        return out

    # ------------------------------------------------------------------
    # Insertion / eviction
    # ------------------------------------------------------------------
    def put_batch(self, row_ids: Sequence[int], rows: np.ndarray) -> None:
        """Insert a batch of rows, evicting per the policy when full.

        A batch larger than the whole buffer keeps only its last
        ``capacity_rows`` rows (the earlier ones would be evicted by the
        rest of the same batch anyway).
        """
        ids = [int(r) for r in row_ids]
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape != (len(ids), self.row_length):
            raise ValidationError(
                f"rows shape {rows.shape} does not match ids ({len(ids)}) "
                f"x row_length ({self.row_length})"
            )
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate row ids in one batch")
        if ids and min(ids) < 0:
            raise ValidationError("row ids must be non-negative")
        if len(ids) > self.capacity_rows:
            ids = ids[-self.capacity_rows :]
            rows = rows[-self.capacity_rows :]
        for rid, row in zip(ids, rows):
            self._put_one(rid, row)

    def _put_one(self, rid: int, row: np.ndarray) -> None:
        slot = self._slot(rid)
        if slot >= 0:  # refresh in place
            self._storage[slot] = row
            self._touch(rid)
            return
        if not self._free_slots:
            self._evict_one()
        slot = self._free_slots.popleft()
        self._storage[slot] = row
        if rid >= self._slots.size:
            grown = np.full(max(rid + 1, 2 * self._slots.size), -1, dtype=np.int32)
            grown[: self._slots.size] = self._slots
            self._slots = grown
        self._slots[rid] = slot
        self._order[rid] = None
        self._frequency[rid] = 0
        self.stats.inserts += 1

    def _evict_one(self) -> None:
        if self.policy in ("fifo", "lru"):
            victim, _ = self._order.popitem(last=False)
        else:  # lfu — min is stable, so frequency ties break by age
            victim = min(self._order, key=self._frequency.__getitem__)
            del self._order[victim]
        slot = int(self._slots[victim])
        self._slots[victim] = -1
        del self._frequency[victim]
        self._free_slots.append(slot)
        self.stats.evictions += 1

    def _touch(self, rid: int) -> None:
        self._frequency[rid] += 1
        if self.policy == "lru":
            self._order.move_to_end(rid)

    def resident_ids(self) -> list[int]:
        """Row ids currently stored, coldest first."""
        return list(self._order)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KernelBuffer({self.size}/{self.capacity_rows} rows x "
            f"{self.row_length}, policy={self.policy!r}, "
            f"hit_rate={self.stats.hit_rate:.3f})"
        )
