"""Unit tests for the engine cost model and numeric ops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.gpusim import (
    CPUEngine,
    GPUEngine,
    SimClock,
    make_engine,
    scaled_tesla_p100,
    tesla_p100,
    xeon_e5_2640v4,
)
from repro.gpusim.counters import OpCounters
from repro.sparse import CSRMatrix


class TestCostModel:
    def test_launch_overhead_is_latency(self, gpu_engine):
        charge = gpu_engine.op_charge(launches=3)
        assert charge.latency_s == pytest.approx(
            3 * gpu_engine.device.launch_overhead_s
        )
        assert charge.compute_s == 0.0

    def test_sync_overhead_is_latency(self, gpu_engine):
        charge = gpu_engine.op_charge(launches=0, syncs=10)
        assert charge.latency_s == pytest.approx(
            10 * gpu_engine.device.sync_overhead_s
        )

    def test_flops_term(self):
        engine = make_engine(tesla_p100(), flop_efficiency=1.0)
        charge = engine.op_charge(flops=9_300 * 10**9, launches=0)
        assert charge.compute_s == pytest.approx(1.0)

    def test_flop_efficiency_slows_compute(self):
        fast = make_engine(tesla_p100(), flop_efficiency=1.0)
        slow = make_engine(tesla_p100(), flop_efficiency=0.25)
        flops = 10**12
        assert slow.op_charge(flops=flops, launches=0).compute_s == pytest.approx(
            4 * fast.op_charge(flops=flops, launches=0).compute_s
        )

    def test_bandwidth_term(self):
        engine = make_engine(tesla_p100())
        gbps = engine.device.mem_bandwidth_gbps
        charge = engine.op_charge(bytes_read=int(gbps * 1e9), launches=0)
        assert charge.compute_s == pytest.approx(1.0)

    def test_bandwidth_efficiency_slows_bytes(self):
        full = make_engine(tesla_p100())
        half = make_engine(tesla_p100(), bandwidth_efficiency=0.5)
        charge_full = full.op_charge(bytes_read=10**9, launches=0)
        charge_half = half.op_charge(bytes_read=10**9, launches=0)
        assert charge_half.compute_s == pytest.approx(2 * charge_full.compute_s)

    def test_pcie_term(self, gpu_engine):
        gbps = gpu_engine.device.pcie_bandwidth_gbps
        charge = gpu_engine.op_charge(pcie_bytes=int(gbps * 1e9), launches=0)
        assert charge.compute_s == pytest.approx(1.0)

    def test_pcie_on_cpu_rejected(self, cpu_engine):
        with pytest.raises(ValidationError):
            cpu_engine.op_charge(pcie_bytes=100)

    def test_charge_updates_clock_and_counters(self, gpu_engine):
        gpu_engine.charge("cat", flops=100, bytes_read=8, launches=2)
        assert gpu_engine.counters.flops == 100
        assert gpu_engine.counters.kernel_launches == 2
        assert gpu_engine.clock.category_seconds("cat") > 0

    def test_bad_efficiency_rejected(self):
        with pytest.raises(ValidationError):
            make_engine(tesla_p100(), flop_efficiency=0.0)
        with pytest.raises(ValidationError):
            make_engine(tesla_p100(), bandwidth_efficiency=1.5)


CHARGE_FIELDS = (
    "flops", "bytes_read", "bytes_written", "shared_bytes", "launches", "syncs",
    "pcie_bytes",
)
ENGINE_SETUPS = {
    "gpu": lambda: make_engine(scaled_tesla_p100()),
    "gpu_numpy32": lambda: make_engine(scaled_tesla_p100(), backend="numpy32"),
    "gpu_derated": lambda: make_engine(
        tesla_p100(), flop_efficiency=0.3, bandwidth_efficiency=0.7
    ),
    "cpu": lambda: make_engine(xeon_e5_2640v4(8)),
    "cpu_numpy32": lambda: make_engine(xeon_e5_2640v4(1), backend="numpy32"),
}


@st.composite
def charge_arguments(draw):
    amount = st.one_of(st.just(0), st.integers(0, 10**12))
    kwargs = {name: draw(amount) for name in CHARGE_FIELDS}
    kwargs["launches"] = draw(st.integers(0, 3))
    kwargs["syncs"] = draw(st.integers(0, 50))
    return draw(st.sampled_from(["selection", "subproblem", "x"])), kwargs


@given(
    st.sampled_from(sorted(ENGINE_SETUPS)),
    st.sampled_from([1.0, 0.5, 2.75]),
    st.lists(charge_arguments(), min_size=1, max_size=12),
)
@settings(max_examples=150, deadline=None)
def test_flat_charge_equals_op_charge_on_the_clock(setup, rate, charges):
    """``charge`` leaves clock and counters bitwise as the two-step path."""
    engine = ENGINE_SETUPS[setup]()
    reference = ENGINE_SETUPS[setup]()
    assert engine.backend.flop_time_scale == reference.backend.flop_time_scale
    engine.clock.rate = rate
    clock = SimClock()
    clock.rate = rate
    counters = OpCounters()
    for category, kwargs in charges:
        if engine.device.kind == "cpu":
            kwargs = {**kwargs, "pcie_bytes": 0}
        assert engine.charge(category, **kwargs) is None
        launches = kwargs["launches"]
        counters.record(
            kernel_launches=launches,
            **{k: v for k, v in kwargs.items() if k not in ("launches", "syncs")},
        )
        clock.charge(category, reference.op_charge(**kwargs))
    assert engine.counters == counters
    assert engine.clock._latency == clock._latency
    assert engine.clock._compute == clock._compute


@pytest.mark.parametrize("memory", ["global", "shared", "cached"])
@pytest.mark.parametrize("setup", ["gpu", "gpu_numpy32", "cpu", "cpu_numpy32"])
def test_memory_tier_charges_equal_explicit_charges(setup, memory):
    """Tier-routed charges leave clock and counters as explicit ``charge``s.

    ``shared`` is on-chip everywhere; ``cached`` is on-chip on a CPU
    and DRAM on a GPU; ``global`` is DRAM.
    """
    engine = ENGINE_SETUPS[setup]()
    reference = ENGINE_SETUPS[setup]()
    on_chip = memory == "shared" or (
        memory == "cached" and engine.device.kind == "cpu"
    )

    def expect(category, flops, read, written, launches=1, syncs=0):
        traffic = (
            {"shared_bytes": read + written} if on_chip
            else {"bytes_read": read, "bytes_written": written}
        )
        reference.charge(
            category, flops=flops, launches=launches, syncs=syncs, **traffic
        )

    values = np.linspace(-1.0, 1.0, 37)
    engine.elementwise("update", 50, flops_per_element=3, arrays_read=3,
                       arrays_written=2, launches=0, syncs=1, memory=memory)
    expect("update", 150, 50 * 3 * 8, 50 * 2 * 8, launches=0, syncs=1)
    engine.reduce_sum(values, category="sum", memory=memory)
    expect("sum", 37, 37 * 8, 8)
    engine.reduce_extremum(values, values > 0, mode="max", category="sel",
                           launches=0, syncs=2, memory=memory)
    expect("sel", 37, 37 * 8 + 37, 8, launches=0, syncs=2)
    engine.charge_extremum(11, masked=False, category="sel", memory=memory)
    expect("sel", 11, 11 * 8, 8)
    assert engine.counters == reference.counters
    assert engine.clock._latency == reference.clock._latency
    assert engine.clock._compute == reference.clock._compute


class TestFlatChargeChecks:
    def test_numpy32_scales_apply(self):
        engine = make_engine(scaled_tesla_p100(), backend="numpy32")
        assert engine.backend.flop_time_scale != 1.0
        assert engine.backend.dram_byte_scale != 1.0
        spec, backend = engine.device, engine.backend
        charge = engine.op_charge(flops=10**9, bytes_read=10**8, launches=0)
        assert charge.compute_s == (
            10**9 * backend.flop_time_scale
            / (spec.effective_gflops * engine.flop_efficiency * 1e9)
            + (10**8 * backend.dram_byte_scale + 0 * backend.dram_byte_scale)
            / (spec.effective_bandwidth_gbps * engine.bandwidth_efficiency * 1e9)
        )

    @pytest.mark.parametrize("field", ["flops", "bytes_read", "bytes_written",
                                       "shared_bytes", "launches", "pcie_bytes"])
    def test_negative_increment_rejected_and_nothing_recorded(self, gpu_engine, field):
        with pytest.raises(ValueError, match="non-negative"):
            gpu_engine.charge("cat", **{field: -1})
        assert gpu_engine.counters == OpCounters()
        assert gpu_engine.clock.elapsed_s == 0.0

    def test_empty_category_rejected(self, gpu_engine):
        with pytest.raises(ValidationError, match="category"):
            gpu_engine.charge("", flops=10)
        assert gpu_engine.counters == OpCounters()

    def test_pcie_bytes_on_linkless_device_rejected(self, cpu_engine):
        with pytest.raises(ValidationError, match="no PCIe link"):
            cpu_engine.charge("transfer", launches=0, pcie_bytes=100)
        assert cpu_engine.counters == OpCounters()
        assert cpu_engine.clock.elapsed_s == 0.0

    def test_negative_time_rejected(self, gpu_engine):
        with pytest.raises(ValidationError, match="non-negative"):
            gpu_engine.charge("cat", launches=0, syncs=-1)


class TestEngineFactory:
    def test_kind_dispatch(self):
        assert isinstance(make_engine(tesla_p100()), GPUEngine)
        assert isinstance(make_engine(xeon_e5_2640v4(1)), CPUEngine)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            GPUEngine(xeon_e5_2640v4(1))
        with pytest.raises(ValidationError):
            CPUEngine(tesla_p100())

    def test_default_gpu_efficiency_below_peak(self):
        assert make_engine(tesla_p100()).flop_efficiency < 1.0

    def test_allocator_sized_from_device(self):
        engine = make_engine(scaled_tesla_p100(256))
        assert engine.allocator.capacity_bytes == scaled_tesla_p100(256).global_mem_bytes


class TestNumericOps:
    def test_matmul_transpose_executes_and_charges(self, gpu_engine, rng):
        a = rng.normal(size=(3, 5))
        b = rng.normal(size=(4, 5))
        out = gpu_engine.matmul_transpose(a, b, category="k")
        assert np.allclose(out, a @ b.T)
        assert gpu_engine.counters.flops == 2 * 3 * 4 * 5

    def test_matmul_transpose_sparse_flops(self, gpu_engine, rng):
        dense = rng.normal(size=(4, 6)) * (rng.random((4, 6)) < 0.5)
        a = CSRMatrix.from_dense(dense)
        b = rng.normal(size=(3, 6))
        gpu_engine.matmul_transpose(a, b, category="k")
        assert gpu_engine.counters.flops == 2 * a.nnz * 3

    def test_reduce_extremum_masked(self, gpu_engine):
        values = np.array([5.0, 1.0, 3.0])
        mask = np.array([True, False, True])
        index, value = gpu_engine.reduce_extremum(
            values, mask, mode="min", category="s"
        )
        assert (index, value) == (2, 3.0)

    def test_reduce_extremum_unmasked_max(self, gpu_engine):
        index, value = gpu_engine.reduce_extremum(
            np.array([5.0, 9.0, 3.0]), None, mode="max", category="s"
        )
        assert (index, value) == (1, 9.0)

    def test_reduce_extremum_empty_mask(self, gpu_engine):
        index, value = gpu_engine.reduce_extremum(
            np.array([1.0, 2.0]), np.array([False, False]), mode="min", category="s"
        )
        assert index == -1 and np.isnan(value)

    def test_reduce_extremum_bad_mode(self, gpu_engine):
        with pytest.raises(ValidationError):
            gpu_engine.reduce_extremum(np.ones(2), None, mode="median", category="s")

    def test_reduce_sum(self, gpu_engine):
        assert gpu_engine.reduce_sum(np.array([1.0, 2.0, 3.0]), category="s") == 6.0
        assert gpu_engine.reduce_sum(np.array([]), category="s") == 0.0

    def test_sort_values(self, gpu_engine):
        values = np.array([3.0, 1.0, 2.0])
        order = gpu_engine.sort_values(values, category="s")
        assert values[order].tolist() == [1.0, 2.0, 3.0]

    def test_elementwise_rejects_negative(self, gpu_engine):
        with pytest.raises(ValidationError):
            gpu_engine.elementwise("s", -1)

    def test_transfer_noop_on_cpu(self, cpu_engine):
        cpu_engine.transfer(10**6)
        assert cpu_engine.clock.elapsed_s == 0.0

    def test_transfer_charges_pcie_on_gpu(self, gpu_engine):
        gpu_engine.transfer(10**6)
        assert gpu_engine.counters.pcie_bytes == 10**6
        assert gpu_engine.clock.category_seconds("transfer") > 0

    def test_transfer_rejects_negative(self, gpu_engine):
        with pytest.raises(ValidationError):
            gpu_engine.transfer(-5)


class TestBatchingEconomics:
    """The cost-model fact the whole paper rests on."""

    def test_batched_rows_cheaper_per_row(self):
        """Computing q rows in one launch beats q single-row launches.

        Mirrors Section 3.3.1: "when q > 10, the computation cost per row
        is often over ten times cheaper than the cost of computing a row
        individually".
        """
        engine = make_engine(tesla_p100())  # unscaled: paper-size ops
        n, d, q = 30_000, 700, 512
        single = engine.op_charge(
            flops=2 * n * d, bytes_read=n * d * 8, bytes_written=n * 8, launches=1
        )
        batch = engine.op_charge(
            flops=2 * q * n * d,
            bytes_read=n * d * 8 + q * d * 8,
            bytes_written=q * n * 8,
            launches=1,
        )
        per_row_single = single.total_s
        per_row_batched = batch.total_s / q
        assert per_row_single > 10 * per_row_batched
