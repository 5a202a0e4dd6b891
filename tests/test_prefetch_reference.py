"""``SharedClassPairKernels.prefetch`` against a per-key reference.

The share dedups a wave's demand in one array pass (``gid * k + class
position`` keys and a resident mask).  LRU eviction and the first-touch
miss accounting depend on the order in which segments are queued and
stored, so everything observable must match the straightforward
dict-probing scheme below exactly: the seven ``SharingStats`` fields, the
store's key order, the pending first touches, the fetched rows and the
simulated charges.
"""

from collections import OrderedDict
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.gpusim import make_engine, scaled_tesla_p100
from repro.gpusim.clock import SimClock
from repro.gpusim.counters import OpCounters
from repro.gpusim.engine import FLOAT_BYTES, Engine
from repro.gpusim.memory import DeviceAllocator
from repro.kernels import GaussianKernel, KernelRowComputer, SharedClassPairKernels
from repro.sparse import CSRMatrix

CLASS_SIZES = (9, 4, 12, 7)


def reference_prefetch(shared, requests, category="kernel_values"):
    """The wave prefetch with a 2-column dedup and one dict probe per key."""
    if not shared.enabled or not requests:
        return 0
    demanded_ids = []
    demanded_classes = []
    for global_ids, class_s, class_t in requests:
        shared._check_class(class_s)
        shared._check_class(class_t)
        ids = np.asarray(global_ids, dtype=np.int64)
        for class_label in (class_s, class_t):
            demanded_ids.append(ids)
            demanded_classes.append(np.full(ids.size, class_label, dtype=np.int64))
    all_ids = np.concatenate(demanded_ids)
    all_classes = np.concatenate(demanded_classes)
    paired = np.stack([all_ids, all_classes], axis=1)
    _, first_pos, counts = np.unique(
        paired, axis=0, return_index=True, return_counts=True
    )
    order = np.argsort(first_pos)
    queued = OrderedDict()
    for pos, repeat_count in zip(first_pos[order], counts[order]):
        key = (int(all_ids[pos]), int(all_classes[pos]))
        if key in shared._segments:
            continue
        queued[key] = None
        shared.stats.prefetch_dedup_hits += int(repeat_count) - 1
    if not queued:
        return 0
    engine = shared.computer.engine
    scratch = Engine(
        engine.device,
        clock=SimClock(),
        counters=OpCounters(),
        allocator=DeviceAllocator(engine.device.global_mem_bytes),
        flop_efficiency=engine.flop_efficiency,
        bandwidth_efficiency=engine.bandwidth_efficiency,
    )
    by_class = OrderedDict()
    for gid, class_label in queued:
        by_class.setdefault(class_label, []).append(gid)
    norms = shared.computer.norms()
    for class_label, gids in by_class.items():
        columns = shared.class_indices[class_label]
        row_ids = np.asarray(gids, dtype=np.int64)
        block = shared.computer.kernel.pairwise(
            scratch,
            shared.computer.operand.take_rows(row_ids),
            shared._column_block(class_label),
            category=category,
            norms_a=None if norms is None else norms[row_ids],
            norms_b=None if norms is None else norms[columns],
        )
        shared.stats.values_computed += block.size
        for gid, row in zip(gids, block):
            key = (gid, class_label)
            shared._store(key, row)
            if key in shared._segments:
                shared._prefetched_fresh.add(key)
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
    shared.stats.prefetch_launches += 1
    shared.stats.prefetch_segments += len(queued)
    return len(queued)


def make_share(data, labels, max_bytes):
    partition = {c: np.flatnonzero(labels == c) for c in range(len(CLASS_SIZES))}
    computer = KernelRowComputer(
        make_engine(scaled_tesla_p100()), GaussianKernel(gamma=0.3), data
    )
    return SharedClassPairKernels(computer, partition, max_bytes=max_bytes)


def problem(seed, wide):
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(len(CLASS_SIZES)), CLASS_SIZES))
    if wide:  # wider than the dense-host cutoff: the CSR x CSR product
        dense = rng.normal(size=(labels.size, 300))
        dense[rng.random(dense.shape) < 0.9] = 0.0
        return CSRMatrix.from_dense(dense), labels
    return rng.normal(size=(labels.size, 6)), labels


def random_waves(rng, n_rows, n_waves):
    """Waves of overlapping requests; ids repeat within and across them."""
    waves = []
    for _ in range(n_waves):
        wave = []
        for _ in range(rng.integers(1, 6)):
            s, t = rng.choice(len(CLASS_SIZES), 2, replace=rng.random() < 0.1)
            ids = rng.choice(n_rows, rng.integers(1, 8))
            wave.append((ids, int(s), int(t)))
        waves.append(wave)
    return waves


def observed(shared):
    return (
        asdict(shared.stats),
        list(shared._segments),
        set(shared._prefetched_fresh),
        shared.resident_bytes,
        shared.computer.engine.clock.breakdown(),
        asdict(shared.computer.engine.counters),
    )


@given(
    seed=st.integers(0, 2**31 - 1),
    wide=st.booleans(),
    cap_segments=st.sampled_from([None, 3, 8, 40]),
)
@settings(max_examples=40, deadline=None)
def test_prefetch_matches_the_per_key_reference(seed, wide, cap_segments):
    data, labels = problem(seed, wide)
    # A tight cap evicts in the middle of a prefetch.
    max_bytes = (
        None if cap_segments is None else cap_segments * max(CLASS_SIZES) * FLOAT_BYTES
    )
    fast = make_share(data, labels, max_bytes)
    slow = make_share(data, labels, max_bytes)
    rng = np.random.default_rng(seed)
    for wave in random_waves(rng, labels.size, 6):
        assert fast.prefetch(wave) == reference_prefetch(slow, wave)
        assert observed(fast) == observed(slow)
        for ids, s, t in wave[: rng.integers(0, len(wave) + 1)]:
            got = fast.rows_for_pair(ids, s, t)
            expected = slow.rows_for_pair(ids, s, t)
            assert got.tobytes() == expected.tobytes()
            assert observed(fast) == observed(slow)


def test_unknown_class_is_rejected():
    data, labels = problem(0, wide=True)
    shared = make_share(data, labels, None)
    with pytest.raises(ValidationError):
        shared.prefetch([(np.array([0, 1]), 0, 1), (np.array([0]), 0, 9)])
    assert shared.stats.prefetch_launches == 0
