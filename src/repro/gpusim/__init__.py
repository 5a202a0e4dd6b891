"""A simulated GPU/CPU execution substrate.

There is no physical GPU in this environment, so the paper's CUDA substrate
is replaced by a cost-model simulator (documented in DESIGN.md Section 2).
All numerics run in NumPy; *time* is charged through :class:`Engine` ops
according to a device specification (peak FLOPS, memory bandwidth, kernel
launch overhead, PCIe bandwidth).  The pieces:

- :class:`DeviceSpec` and presets (Tesla P100, dual Xeon E5-2640 v4);
- :class:`SimClock` — simulated seconds, split into latency (launch
  overhead chains) and compute (throughput-bound work), per category;
- :class:`OpCounters` — FLOPs, bytes moved, launches, PCIe traffic;
- :class:`DeviceAllocator` — global-memory accounting with OOM;
- :class:`Engine` — the op layer every solver charges through;
- :class:`WaveLimits` — the SM/memory/concurrency bounds of one concurrent
  wave of binary SVMs (the MP-SVM-level concurrency model).
"""

from repro.gpusim.clock import SimClock, TimeCharge
from repro.gpusim.counters import OpCounters
from repro.gpusim.device import (
    DeviceSpec,
    scaled_tesla_p100,
    scaled_tesla_v100,
    tesla_p100,
    tesla_v100,
    xeon_e5_2640v4,
)
from repro.gpusim.engine import CPUEngine, Engine, GPUEngine, make_engine
from repro.gpusim.memory import DeviceAllocator, DeviceBuffer
from repro.gpusim.scheduler import WaveLimits

__all__ = [
    "CPUEngine",
    "DeviceAllocator",
    "DeviceBuffer",
    "DeviceSpec",
    "Engine",
    "GPUEngine",
    "OpCounters",
    "SimClock",
    "TimeCharge",
    "WaveLimits",
    "make_engine",
    "scaled_tesla_p100",
    "scaled_tesla_v100",
    "tesla_p100",
    "tesla_v100",
    "xeon_e5_2640v4",
]
