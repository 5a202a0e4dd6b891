"""Machine-speed probe: the one timing path of in-process operations.

On a small shared machine the CPU itself runs slower or faster from one
minute to the next (neighbours share cores, caches and memory): on a
2-vCPU virtual machine the same 2000-row ``predict_proba`` took 96 ms in
one run and 136 ms in the next, and ten runs at one seed spread by 15-30%
between their quartiles.  Process CPU time spreads as much, so the time
is not stolen but runs slower.

The probe is a fixed piece of CPU work -- an interpreter loop, a loop of
small NumPy operations, three small GEMMs and a vectorised ``exp``, the
kinds of work the program's operations are made of -- timed right before
and right after each timed operation.  The benchmark reports an
operation's wall time scaled by ``REFERENCE_PROBE_S`` over the mean of
the two adjacent probe times: the time it would have taken on the
reference machine at its quiet speed.  At one seed that brought the
quartile spread of ten runs' median times down to 4-7%.

The probe uses NumPy and the interpreter only, never the program, so a
change to the program cannot move it.  Work the program leaves running
in the background between operations would slow the probe as well and
be partly cancelled.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["REFERENCE_PROBE_S", "SpeedProbe"]

# Lower-quartile probe time on the machine the bounds were set on
# (2 vCPUs, one BLAS thread): its speed when quiet.
REFERENCE_PROBE_S = 1.60e-3
# Probe for this share of the operation just timed, and at least this long.
PROBE_SHARE = 0.05
MIN_PROBE_S = 0.004
MIN_PROBES = 3


class SpeedProbe:
    """Times the probe around operations and turns wall times into normalised ones."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.random((192, 192))
        self._small = rng.random(64)
        self._vector = rng.random(20_000)
        self._out = np.empty_like(self._vector)
        self._last = self.block(10 * MIN_PROBE_S)

    def once(self) -> float:
        start = time.perf_counter()
        x = 0
        for i in range(8_000):
            x += i * i
        a = self._small
        for _ in range(150):
            b = a * a + a
            b.sum()
            np.argmax(b)
        for _ in range(3):
            self._matrix @ self._matrix
        np.exp(self._vector, out=self._out)
        return time.perf_counter() - start

    def block(self, seconds: float) -> float:
        """Median probe time over at least ``seconds`` of probing."""
        times = []
        end = time.perf_counter() + seconds
        while len(times) < MIN_PROBES or time.perf_counter() < end:
            times.append(self.once())
        return statistics.median(times)

    def factor(self, elapsed_s: float) -> float:
        """Probe after an operation that took ``elapsed_s``; its normalising factor.

        Call it right after each timed operation (nothing else in
        between): the factor uses the probe taken after the previous
        operation and the one taken now.
        """
        after = self.block(max(MIN_PROBE_S, PROBE_SHARE * elapsed_s))
        factor = REFERENCE_PROBE_S / ((self._last + after) / 2.0)
        self._last = after
        return factor
