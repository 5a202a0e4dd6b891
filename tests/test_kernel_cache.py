"""Unit and property tests for the kernel-value buffer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.gpusim import DeviceAllocator
from repro.kernels import KernelBuffer


def row(value, length=4):
    return np.full(length, float(value))


class TestBasics:
    def test_get_miss_then_hit(self):
        buf = KernelBuffer(2, 4)
        assert buf.get(1) is None
        buf.put_batch([1], row(1)[None, :])
        fetched = buf.get(1)
        assert np.allclose(fetched, 1.0)
        assert buf.stats.hits == 1 and buf.stats.misses == 1

    def test_returned_row_is_readonly(self):
        buf = KernelBuffer(2, 4)
        buf.put_batch([1], row(1)[None, :])
        fetched = buf.get(1)
        with pytest.raises(ValueError):
            fetched[0] = 99.0

    def test_contains_does_not_count(self):
        buf = KernelBuffer(2, 4)
        buf.contains(5)
        assert buf.stats.requests == 0

    def test_refresh_overwrites_in_place(self):
        buf = KernelBuffer(2, 4)
        buf.put_batch([1], row(1)[None, :])
        buf.put_batch([1], row(9)[None, :])
        assert np.allclose(buf.get(1), 9.0)
        assert buf.size == 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            KernelBuffer(0, 4)
        with pytest.raises(ValidationError):
            KernelBuffer(2, 0)
        with pytest.raises(ValidationError):
            KernelBuffer(2, 4, policy="random")

    def test_put_batch_shape_check(self):
        buf = KernelBuffer(2, 4)
        with pytest.raises(ValidationError):
            buf.put_batch([1, 2], np.ones((1, 4)))

    def test_put_batch_duplicate_ids_rejected(self):
        buf = KernelBuffer(4, 4)
        with pytest.raises(ValidationError, match="duplicate"):
            buf.put_batch([1, 1], np.ones((2, 4)))

    def test_oversized_batch_keeps_tail(self):
        buf = KernelBuffer(2, 4)
        rows = np.vstack([row(i) for i in range(5)])
        buf.put_batch([0, 1, 2, 3, 4], rows)
        assert buf.size == 2
        assert buf.contains(3) and buf.contains(4)


class TestFIFO:
    def test_eviction_order_is_insertion_order(self):
        buf = KernelBuffer(3, 4, policy="fifo")
        for i in range(3):
            buf.put_batch([i], row(i)[None, :])
        buf.get(0)  # recency must NOT matter for FIFO
        buf.put_batch([3], row(3)[None, :])
        assert not buf.contains(0)
        assert buf.contains(1) and buf.contains(2) and buf.contains(3)
        assert buf.stats.evictions == 1

    def test_batch_replacement(self):
        """The paper's FIFO *batch* replacement: a new batch displaces the oldest."""
        buf = KernelBuffer(4, 4, policy="fifo")
        buf.put_batch([0, 1], np.vstack([row(0), row(1)]))
        buf.put_batch([2, 3], np.vstack([row(2), row(3)]))
        buf.put_batch([4, 5], np.vstack([row(4), row(5)]))
        assert not buf.contains(0) and not buf.contains(1)
        assert all(buf.contains(i) for i in (2, 3, 4, 5))


class TestLRU:
    def test_recency_protects_from_eviction(self):
        buf = KernelBuffer(3, 4, policy="lru")
        for i in range(3):
            buf.put_batch([i], row(i)[None, :])
        buf.get(0)  # 0 becomes most recent
        buf.put_batch([3], row(3)[None, :])
        assert buf.contains(0)
        assert not buf.contains(1)


class TestLFU:
    def test_frequency_protects_from_eviction(self):
        buf = KernelBuffer(3, 4, policy="lfu")
        for i in range(3):
            buf.put_batch([i], row(i)[None, :])
        buf.get(0)
        buf.get(0)
        buf.get(2)
        buf.put_batch([3], row(3)[None, :])
        assert not buf.contains(1)  # never used -> evicted
        assert buf.contains(0) and buf.contains(2)

    def test_frequency_tie_breaks_by_age(self):
        buf = KernelBuffer(2, 4, policy="lfu")
        buf.put_batch([0], row(0)[None, :])
        buf.put_batch([1], row(1)[None, :])
        buf.put_batch([2], row(2)[None, :])
        assert not buf.contains(0)


class TestFetch:
    def test_fetch_computes_only_missing(self):
        buf = KernelBuffer(4, 4)
        buf.put_batch([1], row(1)[None, :])
        calls = []

        def compute(ids):
            calls.append(ids.tolist())
            return np.vstack([row(i) for i in ids])

        out = buf.fetch([0, 1, 2], compute)
        assert calls == [[0, 2]]
        assert np.allclose(out, np.vstack([row(0), row(1), row(2)]))

    def test_fetch_all_hits_never_calls(self):
        buf = KernelBuffer(4, 4)
        buf.put_batch([0, 1], np.vstack([row(0), row(1)]))

        def forbidden(ids):
            raise AssertionError("should not compute")

        out = buf.fetch([1, 0], forbidden)
        assert np.allclose(out, np.vstack([row(1), row(0)]))

    def test_fetch_validates_compute_shape(self):
        buf = KernelBuffer(4, 4)
        with pytest.raises(ValidationError):
            buf.fetch([0], lambda ids: np.ones((2, 4)))

    def test_peek_reads_without_counting(self):
        buf = KernelBuffer(4, 4, policy="lru")
        buf.put_batch([0, 1, 2], np.vstack([row(0), row(1), row(2)]))
        order = buf.resident_ids()
        assert np.array_equal(buf.peek([2, 0]), np.vstack([row(2), row(0)]))
        assert buf.stats.requests == 0
        assert buf.resident_ids() == order  # no recency touch

    def test_hit_rate(self):
        buf = KernelBuffer(4, 4)
        buf.fetch([0, 1], lambda ids: np.vstack([row(i) for i in ids]))
        buf.fetch([0, 1], lambda ids: np.vstack([row(i) for i in ids]))
        assert buf.stats.hit_rate == pytest.approx(0.5)


class TestDeviceRegistration:
    def test_registers_and_frees_device_memory(self):
        allocator = DeviceAllocator(10_000)
        with KernelBuffer(10, 8, allocator=allocator) as buf:
            assert allocator.used_bytes == buf.nbytes == 10 * 8 * 8
        assert allocator.used_bytes == 0

    def test_oversized_buffer_raises_oom(self):
        allocator = DeviceAllocator(100)
        from repro.exceptions import DeviceMemoryError

        with pytest.raises(DeviceMemoryError):
            KernelBuffer(10, 8, allocator=allocator)


@given(
    st.lists(st.integers(0, 20), min_size=1, max_size=60),
    st.integers(1, 8),
    st.sampled_from(["fifo", "lru", "lfu"]),
)
@settings(max_examples=60, deadline=None)
def test_buffer_invariants(ids, capacity, policy):
    """Size never exceeds capacity; resident rows hold their exact values."""
    buf = KernelBuffer(capacity, 3, policy=policy)
    for rid in ids:
        buf.fetch([rid], lambda missing: np.vstack([row(r, 3) for r in missing]))
        assert buf.size <= capacity
        assert len(buf.resident_ids()) == buf.size
    for rid in buf.resident_ids():
        stored = buf.get(rid)
        assert np.allclose(stored, float(rid))
    assert buf.stats.requests >= len(ids)


class TestBufferStats:
    def test_accounting_under_forced_eviction(self):
        def compute(ids):
            return np.vstack([row(i) for i in ids])

        buf = KernelBuffer(2, 4, policy="lru")
        buf.fetch([0, 1], compute)   # 2 misses, 2 inserts
        buf.fetch([0, 2], compute)   # 1 hit, 1 miss; 2 -> evicts 1
        buf.fetch([3, 4], compute)   # 2 misses -> evicts 0 and 2
        stats = buf.stats
        assert stats.hits == 1
        assert stats.misses == 5
        assert stats.inserts == 5
        assert stats.evictions == 3
        assert stats.requests == 6
        assert stats.hit_rate == pytest.approx(1 / 6)

    @pytest.mark.parametrize("policy", ["fifo", "lru", "lfu"])
    def test_eviction_count_matches_overflow(self, policy):
        buf = KernelBuffer(3, 4, policy=policy)
        for i in range(10):
            buf.put_batch([i], row(i)[None, :])
        assert buf.stats.inserts == 10
        assert buf.stats.evictions == 7
        assert buf.size == 3

    def test_snapshot_is_independent_copy(self):
        buf = KernelBuffer(2, 4)
        before = buf.stats.snapshot()
        buf.fetch([0], lambda ids: np.vstack([row(i) for i in ids]))
        assert before.misses == 0
        assert buf.stats.misses == 1

    def test_since_reports_per_round_deltas(self):
        def compute(ids):
            return np.vstack([row(i) for i in ids])

        buf = KernelBuffer(2, 4)
        buf.fetch([0, 1], compute)
        checkpoint = buf.stats.snapshot()
        buf.fetch([1, 2], compute)  # 1 hit, 1 miss, 1 eviction
        delta = buf.stats.since(checkpoint)
        assert delta.hits == 1
        assert delta.misses == 1
        assert delta.evictions == 1
        assert delta.inserts == 1

    def test_as_dict_is_json_safe(self):
        buf = KernelBuffer(2, 4)
        buf.fetch([0], lambda ids: np.vstack([row(i) for i in ids]))
        payload = buf.stats.as_dict()
        import json

        json.dumps(payload)
        assert payload["requests"] == 1
        assert payload["hit_rate"] == 0.0


class TestBufferTracing:
    def test_fetch_emits_fill_spans(self):
        from repro.telemetry import Tracer

        tracer = Tracer()
        buf = KernelBuffer(4, 4, tracer=tracer)
        buf.fetch([0, 1], lambda ids: np.vstack([row(i) for i in ids]))
        buf.fetch([0, 1], lambda ids: np.vstack([row(i) for i in ids]))
        fills = [r for r in tracer.to_records() if r["name"] == "kernel_buffer.fill"]
        assert len(fills) == 1  # all-hit fetches never open a span
        assert fills[0]["attrs"]["missing"] == 2


# ----------------------------------------------------------------------
# Batched fetch against per-row assembly
# ----------------------------------------------------------------------
class RecordingBuffer(KernelBuffer):
    """A buffer that records its victims in eviction order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.evicted = []

    def _evict_one(self):
        resident = set(self.resident_ids())
        super()._evict_one()
        self.evicted.extend(resident - set(self.resident_ids()))


def reference_fetch(buf, row_ids, compute_missing):
    """Row by row through ``get`` and one ``put_batch``, as fetch once was."""
    ids = [int(r) for r in row_ids]
    out = np.empty((len(ids), buf.row_length))
    missing_ids, missing_pos = [], []
    for pos, rid in enumerate(ids):
        found = buf.get(rid)
        if found is None:
            missing_ids.append(rid)
            missing_pos.append(pos)
        else:
            out[pos] = found
    if missing_ids:
        rows = np.asarray(compute_missing(np.asarray(missing_ids, dtype=np.int64)))
        out[missing_pos] = rows
        buf.put_batch(missing_ids, rows)
    return out


def _rows_for(ids):
    ids = np.asarray(ids, dtype=np.float64)
    return np.stack([ids, ids / 3.0, -ids * 1e-3], axis=1)


@pytest.mark.parametrize("policy", ["fifo", "lru", "lfu"])
@given(
    capacity=st.integers(1, 8),
    sequence=st.lists(
        st.lists(st.integers(0, 15), min_size=0, max_size=10, unique=True),
        min_size=1,
        max_size=25,
    ),
)
@settings(max_examples=80, deadline=None)
def test_batched_fetch_matches_per_row_reference(policy, capacity, sequence):
    """Rows, stats, residency order and eviction order match bit for bit."""
    batched = RecordingBuffer(capacity, 3, policy=policy)
    reference = RecordingBuffer(capacity, 3, policy=policy)
    for ids in sequence:
        assert np.array_equal(
            batched.missing(np.asarray(ids, dtype=np.int64)),
            np.asarray([i for i in ids if not reference.contains(i)], dtype=np.int64),
        )
        calls = []

        def compute(missing):
            calls.append(missing.tolist())
            return _rows_for(missing)

        got = batched.fetch(np.asarray(ids, dtype=np.int64), compute)
        want = reference_fetch(reference, ids, _rows_for)
        assert got.shape == want.shape == (len(ids), 3)
        assert np.array_equal(got, want)
        assert batched.stats == reference.stats
        assert batched.resident_ids() == reference.resident_ids()
        assert batched.evicted == reference.evicted
        assert len(calls) <= 1
