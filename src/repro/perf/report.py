"""Timing reports produced by training and prediction runs.

All times are *simulated* device seconds from the cost model (DESIGN.md
Section 6); wall-clock time of the NumPy host computation is a separate
measurement owned by pytest-benchmark.

Both reports serialize: :meth:`TrainingReport.to_dict` /
:meth:`TrainingReport.to_json` (and the prediction equivalents) emit a
flat, JSON-native snapshot stamped with
:data:`~repro.telemetry.schema.REPORT_SCHEMA_VERSION`, which is what
``repro-train --report-json`` writes and what the benchmark regression
gate consumes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Optional

from repro.gpusim.clock import SimClock
from repro.gpusim.counters import OpCounters
from repro.telemetry.schema import REPORT_SCHEMA_VERSION
from repro.telemetry.tracer import _json_safe

__all__ = ["TrainingReport", "PredictionReport"]


@dataclass
class TrainingReport:
    """What one multi-class training run cost, on one device or a cluster.

    ``train_multiclass`` and ``train_multiclass_sharded`` both return it,
    so every training run serializes to one key set.  A sharded run is
    the same run plus a placement: it fills the cluster fields below
    (``device_name`` is then the :class:`~repro.distributed.ClusterSpec`
    name and ``simulated_seconds`` the makespan of the busiest device),
    which a single-device run leaves at their defaults.  The fields a
    sharded run does not measure — ``concurrency_speedup``,
    ``sharing_hit_rate``, ``peak_task_memory_bytes`` and the top-level
    ``wave_trace`` (each device's trace is in ``per_device``) — keep
    their defaults there.
    """

    simulated_seconds: float
    clock: SimClock
    counters: OpCounters
    device_name: str
    n_binary_svms: int = 0
    total_iterations: int = 0
    kernel_rows_computed: int = 0
    max_concurrency: int = 1
    concurrency_speedup: float = 1.0
    sharing_hit_rate: float = 0.0
    peak_task_memory_bytes: int = 0
    per_svm: list[dict] = field(default_factory=list)
    # Where the concurrency numbers came from: "wave_trace" (measured by
    # the interleaved driver's executed waves), "serial" (no concurrency:
    # concurrent=False, the classic solver, or a single pair) or
    # "cluster_wave" (per-device waves of a sharded run).
    schedule_source: str = "serial"
    # Per-wave execution record from the interleaved driver (None for the
    # other schedule sources).
    wave_trace: Optional[list] = None
    # Cluster fields (sharded runs).  One per_device entry per device:
    # timeline, utilization, transfers, work totals.
    n_devices: int = 1
    per_device: list[dict] = field(default_factory=list)
    placement: dict = field(default_factory=dict)
    merge_bytes: int = 0
    # Fault-injection outcome: empty for a nominal run; otherwise the
    # plan, which losses fired, checkpoint and recovery accounting.
    faults: dict = field(default_factory=dict)
    # Interconnect bytes split by link tier (host / intra-node peer /
    # inter-node), the whole run.
    transfer_tier_bytes: dict = field(default_factory=dict)

    @property
    def total_busy_seconds(self) -> float:
        """Sum of every device's busy time (the serial-equivalent load)."""
        return sum(entry["simulated_seconds"] for entry in self.per_device)

    @property
    def cluster_speedup(self) -> float:
        """Busy time over makespan: how much faster the cluster ran than
        the same work laid end to end on one device (1.0 with no devices
        listed)."""
        if not self.per_device or self.simulated_seconds <= 0:
            return 1.0
        return self.total_busy_seconds / self.simulated_seconds

    @property
    def transfer_bytes_total(self) -> int:
        """Interconnect bytes over every link tier."""
        return int(sum(self.transfer_tier_bytes.values()))

    def breakdown(self) -> dict[str, float]:
        """Simulated seconds per cost category."""
        return self.clock.breakdown()

    def fraction_breakdown(
        self, grouping: Optional[Mapping[str, str]] = None
    ) -> dict[str, float]:
        """Fractions of total time per (optionally grouped) category."""
        return self.clock.fraction_breakdown(grouping=grouping)

    @property
    def buffer_hit_rate(self) -> float:
        """Mean kernel-buffer hit rate across the trained binary SVMs."""
        rates = [
            svm["buffer_hit_rate"]
            for svm in self.per_svm
            if "buffer_hit_rate" in svm
        ]
        return float(sum(rates) / len(rates)) if rates else 0.0

    def to_dict(self) -> dict[str, Any]:
        """A flat, JSON-native, schema-versioned snapshot of this report."""
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "kind": "training_report",
            "device_name": self.device_name,
            "simulated_seconds": self.simulated_seconds,
            "breakdown": self.breakdown(),
            "fraction_breakdown": self.fraction_breakdown(),
            "counters": asdict(self.counters),
            "n_binary_svms": self.n_binary_svms,
            "total_iterations": self.total_iterations,
            "kernel_rows_computed": self.kernel_rows_computed,
            "max_concurrency": self.max_concurrency,
            "concurrency_speedup": self.concurrency_speedup,
            "sharing_hit_rate": self.sharing_hit_rate,
            "buffer_hit_rate": self.buffer_hit_rate,
            "peak_task_memory_bytes": self.peak_task_memory_bytes,
            "schedule_source": self.schedule_source,
            "wave_trace": _json_safe(self.wave_trace),
            "per_svm": _json_safe(self.per_svm),
            "n_devices": self.n_devices,
            "cluster_speedup": self.cluster_speedup,
            "transfer_bytes_total": self.transfer_bytes_total,
            "merge_bytes": self.merge_bytes,
            "placement": _json_safe(self.placement),
            "per_device": _json_safe(self.per_device),
            "faults": _json_safe(self.faults),
            "transfer_tier_bytes": _json_safe(self.transfer_tier_bytes),
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """The :meth:`to_dict` snapshot serialized to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


@dataclass
class PredictionReport:
    """What one prediction run cost."""

    simulated_seconds: float
    clock: SimClock
    counters: OpCounters
    device_name: str
    n_instances: int = 0
    sv_sharing: bool = True

    def breakdown(self) -> dict[str, float]:
        """Simulated seconds per cost category."""
        return self.clock.breakdown()

    def fraction_breakdown(
        self, grouping: Optional[Mapping[str, str]] = None
    ) -> dict[str, float]:
        """Fractions of total time per (optionally grouped) category."""
        return self.clock.fraction_breakdown(grouping=grouping)

    def to_dict(self) -> dict[str, Any]:
        """A flat, JSON-native, schema-versioned snapshot of this report."""
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "kind": "prediction_report",
            "device_name": self.device_name,
            "simulated_seconds": self.simulated_seconds,
            "breakdown": self.breakdown(),
            "fraction_breakdown": self.fraction_breakdown(),
            "counters": asdict(self.counters),
            "n_instances": self.n_instances,
            "sv_sharing": self.sv_sharing,
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """The :meth:`to_dict` snapshot serialized to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)
