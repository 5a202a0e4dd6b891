"""MP-SVM-level kernel-value sharing across binary SVMs (Figure 3).

A pairwise problem (s, t) only ever needs kernel values between instances
of classes s and t.  Laid out naively, each of the k(k-1)/2 binary SVMs
owns four private blocks (ss, st, ts, tt) — 12 blocks for k = 3.  The
paper's shared layout stores each *class-pair block* once (9 for k = 3):
the diagonal blocks (s, s) are shared by every SVM involving class s, and
(s, t) serves both orientations.

During training the solvers pull kernel *rows*; the shareable unit is
therefore a row *segment*: the kernel values of one instance against one
class.  :class:`SharedClassPairKernels` caches segments keyed by
``(instance, class)`` so that concurrent binary SVMs reuse each other's
work — SVM(s, t) computing row i of class s against class s makes that
segment free for SVM(s, u).

Set ``enabled=False`` to disable reuse (the ablation baseline); the
interface is identical but every request recomputes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.backends.reference import HostOperand
from repro.exceptions import ValidationError
from repro.gpusim.clock import SimClock
from repro.gpusim.counters import OpCounters
from repro.gpusim.engine import FLOAT_BYTES, Engine
from repro.gpusim.memory import DeviceAllocator
from repro.kernels.rows import KernelRowComputer
from repro.sparse import ops as mops

__all__ = ["SharedClassPairKernels", "SharingStats", "unique_block_count", "naive_block_count"]


def unique_block_count(n_classes: int) -> int:
    """Blocks in the shared layout: the full k x k class-pair grid.

    Matches Figure 3b (9 blocks for three classes).
    """
    if n_classes < 1:
        raise ValidationError("n_classes must be >= 1")
    return n_classes * n_classes


def naive_block_count(n_classes: int) -> int:
    """Blocks without sharing: each binary SVM owns ss, st, ts, tt.

    Matches Figure 3a (3 SVMs x 4 blocks = 12 for three classes).
    """
    if n_classes < 1:
        raise ValidationError("n_classes must be >= 1")
    return 2 * n_classes * (n_classes - 1)


@dataclass
class SharingStats:
    """Segment-level reuse accounting.

    The ``prefetch_*`` fields track the interleaved driver's fused wave
    launches (:meth:`SharedClassPairKernels.prefetch`): how many fused
    launches ran, how many segments they computed, and how many member
    demands were deduplicated against another wave member's computation
    of the same segment (the cross-solver sharing win).
    """

    segment_hits: int = 0
    segment_misses: int = 0
    values_reused: int = 0
    values_computed: int = 0
    prefetch_launches: int = 0
    prefetch_segments: int = 0
    prefetch_dedup_hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of segment requests served from the share."""
        total = self.segment_hits + self.segment_misses
        return self.segment_hits / total if total else 0.0

    @property
    def bytes_saved(self) -> int:
        """Device bytes not recomputed thanks to sharing."""
        return self.values_reused * FLOAT_BYTES


class SharedClassPairKernels:
    """Cross-SVM cache of per-class kernel-row segments."""

    def __init__(
        self,
        computer: KernelRowComputer,
        class_indices: Mapping[int, np.ndarray],
        *,
        enabled: bool = True,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.computer = computer
        self.class_indices = {
            int(label): np.asarray(idx, dtype=np.int64)
            for label, idx in class_indices.items()
        }
        for label, idx in self.class_indices.items():
            if idx.size == 0:
                raise ValidationError(f"class {label} has no instances")
        self.enabled = enabled
        self.max_bytes = max_bytes
        self.stats = SharingStats()
        self._segments: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self._resident_bytes = 0
        # Segments computed by a fused prefetch whose owning request has
        # not consumed them yet: the owner's consuming fetch is accounted
        # as the miss it would have been, not as a reuse hit.
        self._prefetched_fresh: set[tuple[int, int]] = set()
        # CSR column blocks, gathered (and tiled) once (see _column_block).
        self._column_blocks: dict[int, HostOperand] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def rows_for_pair(
        self,
        global_ids: np.ndarray,
        class_s: int,
        class_t: int,
        *,
        category: str = "kernel_values",
    ) -> np.ndarray:
        """Kernel rows of the given instances against classes (s, t).

        Columns are ordered ``[class s instances..., class t instances...]``
        — the local column order of the binary problem (s, t).
        """
        self._check_class(class_s)
        self._check_class(class_t)
        ids = np.asarray(global_ids, dtype=np.int64)
        seg_s = self._segments_for_class(ids, class_s, category)
        seg_t = self._segments_for_class(ids, class_t, category)
        return np.hstack([seg_s, seg_t])

    def segment(
        self, global_id: int, class_label: int, *, category: str = "kernel_values"
    ) -> np.ndarray:
        """One instance's kernel values against one class."""
        result = self._segments_for_class(
            np.asarray([global_id], dtype=np.int64), class_label, category
        )
        return result[0]

    def prefetch(
        self,
        requests: Sequence[tuple[np.ndarray, int, int]],
        *,
        category: str = "kernel_values",
    ) -> int:
        """Fuse a wave's kernel-row demand into one batched launch.

        ``requests`` holds one ``(global_ids, class_s, class_t)`` triple per
        concurrently-active binary SVM.  The union of segments missing from
        the share is computed as a *single* fused kernel launch on the
        device — the numerics run per class pair (each kernel value is the
        same per-element product regardless of batch composition, so the
        results are bitwise identical to per-solver computation), but the
        simulated cost is charged to the engine once with the summed
        FLOPs/bytes and a single launch overhead.  Segments one member
        computes are immediately reusable by every other member of the wave
        (``prefetch_dedup_hits``).

        Returns the number of segments computed.  A no-op when sharing is
        disabled (the ablation: each solver computes privately).
        """
        if not self.enabled or not requests:
            return 0
        demanded_ids: list[np.ndarray] = []
        demanded_classes: list[np.ndarray] = []
        for global_ids, class_s, class_t in requests:
            self._check_class(class_s)
            self._check_class(class_t)
            ids = np.asarray(global_ids, dtype=np.int64)
            for class_label in (class_s, class_t):
                demanded_ids.append(ids)
                demanded_classes.append(np.full(ids.size, class_label, dtype=np.int64))
        all_ids = np.concatenate(demanded_ids)
        all_classes = np.concatenate(demanded_classes)
        # Dedup the wave's demand in one vectorized pass (first occurrence
        # wins, preserving request order) instead of per-segment dict probes.
        paired = np.stack([all_ids, all_classes], axis=1)
        _, first_pos, counts = np.unique(
            paired, axis=0, return_index=True, return_counts=True
        )
        order = np.argsort(first_pos)
        queued: OrderedDict[tuple[int, int], None] = OrderedDict()
        for pos, repeat_count in zip(first_pos[order], counts[order]):
            key = (int(all_ids[pos]), int(all_classes[pos]))
            if key in self._segments:
                continue
            queued[key] = None
            self.stats.prefetch_dedup_hits += int(repeat_count) - 1
        if not queued:
            return 0

        # Execute the per-class products against a scratch engine, then
        # charge the real engine once with the totals: one fused launch.
        engine = self.computer.engine
        scratch = Engine(
            engine.device,
            clock=SimClock(),
            counters=OpCounters(),
            allocator=DeviceAllocator(engine.device.global_mem_bytes),
            flop_efficiency=engine.flop_efficiency,
            bandwidth_efficiency=engine.bandwidth_efficiency,
        )
        by_class: OrderedDict[int, list[int]] = OrderedDict()
        for gid, class_label in queued:
            by_class.setdefault(class_label, []).append(gid)
        norms = self.computer.norms()
        for class_label, gids in by_class.items():
            columns = self.class_indices[class_label]
            row_ids = np.asarray(gids, dtype=np.int64)
            block = self.computer.kernel.pairwise(
                scratch,
                self.computer.operand.take_rows(row_ids),
                self._column_block(class_label),
                category=category,
                norms_a=None if norms is None else norms[row_ids],
                norms_b=None if norms is None else norms[columns],
            )
            self.stats.values_computed += block.size
            for gid, row in zip(gids, block):
                key = (gid, class_label)
                self._store(key, row)
                if key in self._segments:
                    self._prefetched_fresh.add(key)
        used = scratch.counters
        engine.charge(
            category,
            flops=used.flops,
            bytes_read=used.bytes_read,
            bytes_written=used.bytes_written,
            shared_bytes=used.shared_bytes,
            launches=1,
            pcie_bytes=used.pcie_bytes,
        )
        self.stats.prefetch_launches += 1
        self.stats.prefetch_segments += len(queued)
        return len(queued)

    @property
    def resident_bytes(self) -> int:
        """Bytes the segment store currently occupies."""
        return self._resident_bytes

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_class(self, label: int) -> None:
        if label not in self.class_indices:
            raise ValidationError(f"unknown class label {label}")

    def _column_block(self, class_label: int) -> HostOperand:
        """One class's rows as the ``b`` side of its products.

        A CSR block is gathered once and kept: a narrow one (which the
        tiled GEMM multiplies) with its dense column tiles, a wide one as
        it is, together one more copy of the sparse training set.  Dense
        blocks are gathered per product: keeping them would hold two more
        copies of the dense training set (the blocks and their tiles) for
        the whole fit.
        """
        block = self._column_blocks.get(class_label)
        if block is None:
            block = self.computer.operand.take_rows(self.class_indices[class_label])
            if mops.is_sparse(block.source):
                self._column_blocks[class_label] = block.keep_tiles()
        return block

    def _segments_for_class(
        self, ids: np.ndarray, class_label: int, category: str
    ) -> np.ndarray:
        columns = self.class_indices[class_label]
        out = np.empty((ids.size, columns.size))
        missing_ids: list[int] = []
        missing_pos: list[int] = []
        for pos, gid in enumerate(ids):
            key = (int(gid), class_label)
            cached = self._segments.get(key) if self.enabled else None
            if cached is not None:
                out[pos] = cached
                self._segments.move_to_end(key)
                if key in self._prefetched_fresh:
                    # First touch of a segment this consumer's own wave
                    # request caused to be computed: account it as the
                    # miss it would have been without the fused launch.
                    self._prefetched_fresh.discard(key)
                    self.stats.segment_misses += 1
                else:
                    self.stats.segment_hits += 1
                    self.stats.values_reused += columns.size
            else:
                missing_ids.append(int(gid))
                missing_pos.append(pos)
                self.stats.segment_misses += 1
        if missing_ids:
            norms = self.computer.norms()
            block = self.computer.kernel.pairwise(
                self.computer.engine,
                self.computer.operand.take_rows(np.asarray(missing_ids)),
                self._column_block(class_label),
                category=category,
                norms_a=None if norms is None else norms[np.asarray(missing_ids)],
                norms_b=None if norms is None else norms[columns],
            )
            self.stats.values_computed += block.size
            out[missing_pos] = block
            if self.enabled:
                for gid, row in zip(missing_ids, block):
                    self._store((gid, class_label), row)
        return out

    def _store(self, key: tuple[int, int], segment: np.ndarray) -> None:
        nbytes = segment.size * FLOAT_BYTES
        if self.max_bytes is not None:
            while self._resident_bytes + nbytes > self.max_bytes and self._segments:
                evicted_key, evicted = self._segments.popitem(last=False)
                self._resident_bytes -= evicted.size * FLOAT_BYTES
                self._prefetched_fresh.discard(evicted_key)
            if self._resident_bytes + nbytes > self.max_bytes:
                return  # segment alone exceeds the cap; skip caching
        self._segments[key] = segment.copy()
        self._resident_bytes += nbytes
