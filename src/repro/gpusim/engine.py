"""The engine: every device operation the solvers perform goes through here.

An :class:`Engine` pairs a :class:`~repro.gpusim.device.DeviceSpec` with a
:class:`~repro.gpusim.clock.SimClock`, an
:class:`~repro.gpusim.counters.OpCounters` tally and a
:class:`~repro.gpusim.memory.DeviceAllocator`.  Engine methods both *execute*
the numerics (NumPy) and *charge* the simulated cost, so algorithm code can
never drift out of sync with its accounting.

Cost model (DESIGN.md Section 6):

- GPU op:  ``latency = launches * launch_overhead``;
  ``compute = flops / peak_flops + bytes / bandwidth + pcie / pcie_bw``.
  The fixed launch term is what the paper's batching amortises ("when
  q > 10, the computation cost per row is often over ten times cheaper").
- CPU op: same formula with a tiny dispatch overhead, thread-scaled
  throughput and thread-scaled bandwidth (the OpenMP model).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backends.reference import host_operand
from repro.exceptions import ValidationError
from repro.gpusim.clock import SimClock, TimeCharge
from repro.gpusim.counters import OpCounters
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import DeviceAllocator
from repro.sparse import CSRMatrix
from repro.sparse import ops as mops

__all__ = ["Engine", "GPUEngine", "CPUEngine", "make_engine"]

FLOAT_BYTES = 8


def _product_costs(a: mops.MatrixLike, b: mops.MatrixLike) -> tuple[int, int, int]:
    """(flops, bytes_read, bytes_written) for ``a @ b.T``.

    Each operand is charged as streamed once from device memory (the
    tiled-GEMM / SpMM model); FLOPs follow the representation actually used.
    """
    m, n = a.shape[0], b.shape[0]
    a_sparse = isinstance(a, CSRMatrix)
    b_sparse = isinstance(b, CSRMatrix)
    if a_sparse and b_sparse:
        flops = 2 * m * b.nnz
    elif a_sparse:
        flops = 2 * a.nnz * n
    elif b_sparse:
        flops = 2 * b.nnz * m
    else:
        flops = 2 * m * n * a.shape[1]
    bytes_read = mops.matrix_nbytes(a) + mops.matrix_nbytes(b)
    bytes_written = m * n * FLOAT_BYTES
    return int(flops), int(bytes_read), int(bytes_written)


class Engine:
    """Base engine; use :class:`GPUEngine`, :class:`CPUEngine` or :func:`make_engine`."""

    def __init__(
        self,
        device: DeviceSpec,
        *,
        clock: Optional[SimClock] = None,
        counters: Optional[OpCounters] = None,
        allocator: Optional[DeviceAllocator] = None,
        flop_efficiency: float = 1.0,
        bandwidth_efficiency: float = 1.0,
        backend: object = None,
    ) -> None:
        if not 0.0 < flop_efficiency <= 1.0:
            raise ValidationError("flop_efficiency must lie in (0, 1]")
        if not 0.0 < bandwidth_efficiency <= 1.0:
            raise ValidationError("bandwidth_efficiency must lie in (0, 1]")
        # Imported lazily: repro.backends pulls in repro.core.validation,
        # and repro.core imports this module while initialising.
        from repro.backends import resolve_backend

        self.backend = resolve_backend(backend)
        self.device = device
        self.flop_efficiency = float(flop_efficiency)
        self.bandwidth_efficiency = float(bandwidth_efficiency)
        self.clock = clock if clock is not None else SimClock()
        self.counters = counters if counters is not None else OpCounters()
        self.allocator = (
            allocator
            if allocator is not None
            else DeviceAllocator(device.global_mem_bytes)
        )
        # The cost model's denominators and overheads, fixed per engine
        # (the device spec is frozen): each charge divides by these floats.
        self._scales = (self.backend.flop_time_scale, self.backend.dram_byte_scale)
        self._launch_s = device.launch_overhead_s
        self._sync_s = device.sync_overhead_s
        self._flop_rate = device.effective_gflops * self.flop_efficiency * 1e9
        self._dram_rate = (
            device.effective_bandwidth_gbps * self.bandwidth_efficiency * 1e9
        )
        self._shared_rate = device.effective_shared_bandwidth_gbps * 1e9
        self._pcie_rate = device.pcie_bandwidth_gbps * 1e9

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def op_charge(
        self,
        *,
        flops: int = 0,
        bytes_read: int = 0,
        bytes_written: int = 0,
        shared_bytes: int = 0,
        launches: int = 1,
        syncs: int = 0,
        pcie_bytes: int = 0,
    ) -> TimeCharge:
        """Pure cost-model evaluation; does not touch the clock.

        ``bytes_read``/``bytes_written`` move through device DRAM;
        ``shared_bytes`` move through the on-chip tier (GPU shared memory
        or CPU caches).

        The backend's precision scales apply here: ``flop_time_scale``
        multiplies the FLOP term (a float32 pipe runs ~2x the float64
        peak) and ``dram_byte_scale`` multiplies every byte-traffic term
        (half-width elements move half the bytes).  Both are exactly 1.0
        on the reference backend, and the scaling is skipped entirely in
        that case so its simulated timeline stays bit-for-bit identical
        to the pre-backend engine.
        """
        latency, compute = self._cost(
            flops, bytes_read, bytes_written, shared_bytes, launches, syncs,
            pcie_bytes,
        )
        return TimeCharge(latency_s=latency, compute_s=compute)

    def charge(
        self,
        category: str,
        *,
        flops: int = 0,
        bytes_read: int = 0,
        bytes_written: int = 0,
        shared_bytes: int = 0,
        launches: int = 1,
        syncs: int = 0,
        pcie_bytes: int = 0,
    ) -> None:
        """Record counters and charge the clock.

        Equal, bit for bit, to ``counters.record(...)`` followed by
        ``clock.charge(category, op_charge(...))``, and raising the same
        errors, but every check runs before anything is recorded.  The
        solvers issue tens of thousands of charges per fit, so this path
        builds no :class:`TimeCharge` and updates the tallies in place.
        """
        if (
            flops < 0 or bytes_read < 0 or bytes_written < 0
            or shared_bytes < 0 or launches < 0 or pcie_bytes < 0
        ):
            raise ValueError("counter increments must be non-negative")
        latency, compute = self._cost(
            flops, bytes_read, bytes_written, shared_bytes, launches, syncs,
            pcie_bytes,
        )
        if not category:
            raise ValidationError("category must be a non-empty string")
        counters = self.counters
        counters.flops += flops
        counters.bytes_read += bytes_read
        counters.bytes_written += bytes_written
        counters.shared_bytes += shared_bytes
        counters.kernel_launches += launches
        counters.pcie_bytes += pcie_bytes
        # SimClock.charge, inline: each part scaled by the straggler rate.
        clock = self.clock
        rate = clock._rate
        clock._latency[category] = clock._latency.get(category, 0.0) + latency * rate
        clock._compute[category] = clock._compute.get(category, 0.0) + compute * rate

    def _cost(
        self, flops, bytes_read, bytes_written, shared_bytes, launches, syncs,
        pcie_bytes,
    ) -> tuple[float, float]:
        """The cost model: ``(latency, compute)`` seconds of one op."""
        flop_scale, byte_scale = self._scales
        if flop_scale != 1.0:
            flops = flops * flop_scale
        if byte_scale != 1.0:
            bytes_read = bytes_read * byte_scale
            bytes_written = bytes_written * byte_scale
            shared_bytes = shared_bytes * byte_scale
            pcie_bytes = pcie_bytes * byte_scale
        latency = launches * self._launch_s + syncs * self._sync_s
        compute = flops / self._flop_rate
        compute += (bytes_read + bytes_written) / self._dram_rate
        if shared_bytes:
            compute += shared_bytes / self._shared_rate
        if pcie_bytes:
            if self._pcie_rate <= 0:
                raise ValidationError(
                    f"device {self.device.name!r} has no PCIe link but "
                    f"{pcie_bytes} PCIe bytes were charged"
                )
            compute += pcie_bytes / self._pcie_rate
        if latency < 0 or compute < 0:
            raise ValidationError("time charges must be non-negative")
        return latency, compute

    # ------------------------------------------------------------------
    # Numeric ops (execute + charge)
    # ------------------------------------------------------------------
    def matmul_transpose(
        self,
        a: mops.MatrixLike,
        b: mops.MatrixLike,
        *,
        category: str,
        launches: int = 1,
    ) -> np.ndarray:
        """Dense ``a @ b.T`` — the batched kernel-row product.

        Either operand may be a prepared
        :class:`~repro.backends.reference.HostOperand`; the charge is
        always that of its source matrix, whatever form the host computes
        the product in.
        """
        a, b = host_operand(a), host_operand(b)
        flops, bytes_read, bytes_written = _product_costs(a.source, b.source)
        self.charge(
            category,
            flops=flops,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            launches=launches,
        )
        return self.backend.matmul_transpose(a, b)

    def reduce_extremum(
        self,
        values: np.ndarray,
        mask: Optional[np.ndarray],
        *,
        mode: str,
        category: str,
        launches: int = 1,
        syncs: int = 0,
        memory: str = "global",
    ) -> tuple[int, float]:
        """Masked argmin/argmax by parallel reduction.

        Defaults to one kernel launch; pass ``launches=0, syncs=1`` for a
        reduction step running inside an already-launched kernel (the inner
        working-set solver).  ``memory`` selects the tier the operands live
        in (see :meth:`elementwise`).  Returns ``(-1, nan)`` when the mask
        selects nothing — callers use that as the "no violator" signal.
        """
        if mode not in ("min", "max"):
            raise ValidationError(f"mode must be 'min' or 'max', got {mode!r}")
        n = values.size
        self.charge_extremum(
            n, masked=mask is not None, category=category, launches=launches,
            syncs=syncs, memory=memory,
        )
        if mask is not None:
            candidates = np.flatnonzero(mask)
            if candidates.size == 0:
                return -1, float("nan")
            local = values[candidates]
            pick = int(np.argmin(local) if mode == "min" else np.argmax(local))
            index = int(candidates[pick])
        else:
            if n == 0:
                return -1, float("nan")
            index = int(np.argmin(values) if mode == "min" else np.argmax(values))
        return index, float(values[index])

    def charge_extremum(
        self,
        n: int,
        *,
        masked: bool,
        category: str,
        launches: int = 1,
        syncs: int = 0,
        memory: str = "global",
    ) -> None:
        """Charge one :meth:`reduce_extremum` over ``n`` values, not running it
        (for callers that compute many members' extrema in one stacked pass).
        """
        read, written, shared = self._route_memory(
            memory, n * FLOAT_BYTES + (n if masked else 0), FLOAT_BYTES
        )
        self.charge(
            category, flops=n, bytes_read=read, bytes_written=written,
            shared_bytes=shared, launches=launches, syncs=syncs,
        )

    def reduce_sum(
        self,
        values: np.ndarray,
        *,
        category: str,
        launches: int = 1,
        syncs: int = 0,
        memory: str = "global",
    ) -> float:
        """Parallel-reduction sum."""
        n = values.size
        read, written, shared = self._route_memory(
            memory, n * FLOAT_BYTES, FLOAT_BYTES
        )
        self.charge(
            category, flops=n, bytes_read=read, bytes_written=written,
            shared_bytes=shared, launches=launches, syncs=syncs,
        )
        return self.backend.reduce_sum(values) if n else 0.0

    def elementwise(
        self,
        category: str,
        n_elements: int,
        *,
        flops_per_element: int = 1,
        arrays_read: int = 2,
        arrays_written: int = 1,
        launches: int = 1,
        syncs: int = 0,
        memory: str = "global",
    ) -> None:
        """Charge a generic map-style kernel; the caller does the NumPy math.

        Used for updates like the optimality-indicator refresh (Eq. 8) where
        the numeric expression is clearer inline at the call site.

        ``memory`` selects the tier the operands occupy:

        - ``"global"`` — device DRAM (default);
        - ``"shared"`` — on-chip on both device kinds (working-set state
          explicitly staged into GPU shared memory);
        - ``"cached"`` — solver state that a CPU's large caches hold but a
          GPU cannot (n-sized arrays): on-chip for CPUs, DRAM for GPUs.
          This asymmetry is exactly why the paper's GPU design stages an
          explicit working set.
        """
        if n_elements < 0:
            raise ValidationError("n_elements must be non-negative")
        read, written, shared = self._route_memory(
            memory,
            n_elements * arrays_read * FLOAT_BYTES,
            n_elements * arrays_written * FLOAT_BYTES,
        )
        self.charge(
            category, flops=n_elements * flops_per_element, bytes_read=read,
            bytes_written=written, shared_bytes=shared, launches=launches,
            syncs=syncs,
        )

    def _route_memory(
        self, memory: str, read_bytes: int, written_bytes: int
    ) -> tuple[int, int, int]:
        """Map a tier name to ``(bytes_read, bytes_written, shared_bytes)``
        (see :meth:`elementwise`)."""
        if memory == "global":
            return read_bytes, written_bytes, 0
        if memory == "shared" or (memory == "cached" and self.device.kind == "cpu"):
            return 0, 0, read_bytes + written_bytes
        if memory == "cached":
            return read_bytes, written_bytes, 0
        raise ValidationError(
            f"memory must be global/shared/cached, got {memory!r}"
        )

    def sort_values(self, values: np.ndarray, *, category: str) -> np.ndarray:
        """Argsort ascending, charged as a GPU radix/merge sort.

        The batched solver sorts optimality indicators every round
        (Algorithm 2 line 6).
        """
        self.charge_sort(values.size, category=category)
        return np.argsort(values, kind="stable")

    def charge_sort(self, n: int, *, category: str) -> None:
        """Charge one :meth:`sort_values` of ``n`` values, not running it."""
        passes = max(1, int(np.ceil(np.log2(max(n, 2)))))
        self.charge(
            category,
            flops=n * passes,
            bytes_read=n * FLOAT_BYTES * passes,
            bytes_written=n * FLOAT_BYTES * passes,
            launches=1,
        )

    def note_event(self, name: str, count: int = 1) -> None:
        """Tally a named algorithm-level event (no time is charged).

        Events surface in :attr:`counters` (and therefore in report
        snapshots) so telemetry can expose occurrences like coupling ridge
        retries without inventing a time category for them.
        """
        self.counters.count_event(name, count)

    def transfer(self, nbytes: int, *, category: str = "transfer") -> None:
        """Host<->device PCIe transfer (no-op for CPU devices)."""
        if nbytes < 0:
            raise ValidationError("transfer size must be non-negative")
        if self.device.kind == "cpu" or nbytes == 0:
            return
        self.charge(category, launches=0, pcie_bytes=int(nbytes))


class GPUEngine(Engine):
    """Engine for ``kind == 'gpu'`` devices."""

    def __init__(self, device: DeviceSpec, **kwargs: object) -> None:
        if device.kind != "gpu":
            raise ValidationError(f"GPUEngine requires a GPU spec, got {device.kind!r}")
        super().__init__(device, **kwargs)


class CPUEngine(Engine):
    """Engine for ``kind == 'cpu'`` devices."""

    def __init__(self, device: DeviceSpec, **kwargs: object) -> None:
        if device.kind != "cpu":
            raise ValidationError(f"CPUEngine requires a CPU spec, got {device.kind!r}")
        super().__init__(device, **kwargs)


# Default achievable fraction of peak FLOPS per device kind.  Hand-written
# CUDA kernels and SpMM sit well below cuBLAS-peak (ThunderSVM-class code
# lands near 30% on mid-size batches); tuned vectorised CPU code is modelled
# at full effective throughput (the per-core figure is already derated).
DEFAULT_FLOP_EFFICIENCY = {"gpu": 0.30, "cpu": 1.0}


def make_engine(
    device: DeviceSpec,
    *,
    flop_efficiency: Optional[float] = None,
    bandwidth_efficiency: float = 1.0,
    backend: object = None,
    **kwargs: object,
) -> Engine:
    """Build the engine subclass matching the device kind.

    ``flop_efficiency`` and ``bandwidth_efficiency`` model *program*
    quality (fraction of device peak the workload's kernels achieve, and
    how well its access patterns coalesce); they default per device kind
    and are overridden by baselines that model less-optimised code (e.g.
    scalar LibSVM, GTSVM's irregular clustered access).

    ``backend`` selects the compute backend (a name, a
    :class:`~repro.backends.ComputeBackend` instance, or ``None`` for the
    float64 reference); it supplies the engine's numeric primitives and
    the precision scales of the cost model.
    """
    if flop_efficiency is None:
        flop_efficiency = DEFAULT_FLOP_EFFICIENCY[device.kind]
    cls = GPUEngine if device.kind == "gpu" else CPUEngine
    return cls(
        device,
        flop_efficiency=flop_efficiency,
        bandwidth_efficiency=bandwidth_efficiency,
        backend=backend,
        **kwargs,
    )
