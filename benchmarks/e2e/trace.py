"""Outside-in tracing: spans around the public functions of each layer.

The benchmark never edits the program to trace it.  :class:`Tracer`
rebinds each target from the outside -- on the module that defines it
and on every ``repro.*`` module that imported the same object, or on the
class for methods -- so every call site goes through a wrapper that
records a span (name, start, end, parent, thread).  Spans stay in memory;
:func:`self_times` turns them into per-layer self time (a span's
duration minus its children's) and :func:`write_chrome_trace` writes them
as Chrome trace-event JSON that https://ui.perfetto.dev opens.

A target that no longer exists (after a refactor) is recorded in
:attr:`Tracer.missing` instead of failing the run, and the layer metrics
built on it are reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = [
    "CLIENT_TARGETS",
    "SERVER_TARGETS",
    "Span",
    "Target",
    "Tracer",
    "root_indices",
    "self_times",
    "write_chrome_trace",
]


@dataclass
class Span:
    """One timed call: ``parent`` indexes the enclosing span, -1 for a root."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    tid: int = 0
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.tid, self.args]

    @classmethod
    def from_list(cls, item: list) -> "Span":
        name, start, end, parent, tid, args = item
        return cls(name, start, end, parent, tid, args)


def _matmul_flops(a: object, b: object) -> int:
    """FLOPs of ``a @ b.T`` computed from operand shapes and nnz.

    The same counting rule as the simulator's cost model: a sparse
    operand contributes its nonzeros, a dense product ``2 m n k``.
    """
    m, n = a.shape[0], b.shape[0]
    if hasattr(b, "nnz"):
        return 2 * m * int(b.nnz)
    if hasattr(a, "nnz"):
        return 2 * int(a.nnz) * n
    return 2 * m * n * a.shape[1]


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``qualname`` is ``func`` or ``Class.method``."""

    span: str
    module: str
    qualname: str
    describe: Optional[Callable[..., dict]] = None


def _matmul_args(self, a, b, *rest, **kwargs) -> dict:
    return {"flops": _matmul_flops(a, b)}


def _rows_args(self, data, *rest, **kwargs) -> dict:
    return {"rows": int(data.shape[0])}


# Layer boundaries in the training and batch-prediction process.  Spans
# with the same name are one layer (e.g. both decision-value entry points).
CLIENT_TARGETS = (
    Target("core.fit", "repro.core.gmp", "GMPSVC.fit"),
    Target("core.predict", "repro.core.gmp", "GMPSVC.predict_proba"),
    Target("model.save", "repro.model.persistence", "save_model"),
    Target("kernels.prefetch", "repro.kernels.shared", "SharedClassPairKernels.prefetch"),
    Target("kernels.rows_for_pair", "repro.kernels.shared",
           "SharedClassPairKernels.rows_for_pair"),
    Target("kernels.block", "repro.kernels.rows", "KernelRowComputer.block"),
    Target("solvers.begin_round", "repro.solvers.batch_smo", "BatchSMOSession.begin_round"),
    Target("solvers.complete_round", "repro.solvers.batch_smo",
           "BatchSMOSession.complete_round"),
    Target("solvers.subproblem", "repro.solvers.subproblem", "solve_subproblem"),
    Target("solvers.select", "repro.solvers.working_set", "select_new_violators"),
    Target("probability.fit_sigmoid", "repro.probability.platt", "fit_sigmoid"),
    Target("probability.couple", "repro.probability.pairwise", "couple_batch"),
    Target("multiclass.decision", "repro.multiclass.sv_sharing",
           "SupportVectorPool.decision_values"),
    Target("multiclass.decision", "repro.multiclass.sv_sharing",
           "SupportVectorPool.decision_values_from_block"),
    Target("backends.matmul", "repro.backends.numpy64",
           "Numpy64Backend.matmul_transpose", _matmul_args),
    Target("backends.norms", "repro.backends.numpy64", "Numpy64Backend.row_norms_sq"),
    Target("backends.solve", "repro.backends.numpy64",
           "Numpy64Backend.gaussian_elimination_batch"),
)

# The serving process adds the session, the wire codec, admission and
# dispatch.  ``ServerApp.handle_request`` is wrapped by the launcher
# itself (benchmarks/e2e/serve.py) because it reads request headers.
SERVER_TARGETS = CLIENT_TARGETS + (
    Target("model.load", "repro.model.persistence", "load_model"),
    Target("serving.predict", "repro.serving.session",
           "InferenceSession.predict_proba", _rows_args),
    Target("server.decode", "repro.server.protocol", "decode_request"),
    Target("server.encode", "repro.server.protocol", "response_body"),
    Target("server.admission", "repro.server.admission", "AdmissionController.offer"),
    Target("server.dispatch", "repro.server.dispatcher", "Dispatcher.submit"),
    Target("server.dispatch", "repro.server.dispatcher", "Dispatcher.drain"),
)


class Tracer:
    """In-memory span recorder that wraps functions from the outside.

    ``active`` gates recording: while it is false the wrappers call
    straight through, which lets one process alternate traced and
    untraced operations to measure the tracing overhead.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = True
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **args: object) -> int:
        stack = self._stack()
        span = Span(
            name,
            time.perf_counter(),
            parent=stack[-1] if stack else -1,
            tid=threading.get_native_id(),
            args=args,
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def wrap(
        self, fn: Callable, name: str, describe: Optional[Callable] = None
    ) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.begin(
                name, **(describe(*args, **kwargs) if describe else {})
            )
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def install(self, targets: tuple[Target, ...]) -> None:
        """Wrap every target; record the span names of missing ones."""
        for target in targets:
            try:
                module = importlib.import_module(target.module)
                owner_name, _, attr = target.qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if target.span not in self.missing:
                    self.missing.append(target.span)
                continue
            self.patch(owner, attr, self.wrap(original, target.span, target.describe))

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Rebind ``owner.attr``; module functions are rebound everywhere.

        A module-level function is also rebound on every loaded
        ``repro.*`` module that holds the same object (``from x import
        f`` copies the reference), so no call site keeps the original.
        """
        original = getattr(owner, attr)
        rebind = [(owner, [attr])]
        if isinstance(owner, types.ModuleType):
            for name, module in list(sys.modules.items()):
                if module is None or module is owner:
                    continue
                if name != "repro" and not name.startswith("repro."):
                    continue
                names = [k for k, v in vars(module).items() if v is original]
                if names:
                    rebind.append((module, names))
        for target, names in rebind:
            for name in names:
                own = name in vars(target)
                self._patches.append((target, name, original, own))
                setattr(target, name, replacement)

    def uninstall(self) -> None:
        """Restore every rebound attribute, newest first."""
        for owner, name, original, own in reversed(self._patches):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches.clear()


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def root_indices(spans: list[Span]) -> list[int]:
    """Index of each span's outermost ancestor (itself for a root).

    A parent always precedes its children in the list, so one forward
    pass suffices.
    """
    roots: list[int] = []
    for index, span in enumerate(spans):
        roots.append(index if span.parent < 0 else roots[span.parent])
    return roots


def _chrome_events(spans: list[Span], pid: int, origin: float) -> list[dict]:
    """Complete ("X") trace events, microseconds from ``origin``."""
    return [
        {
            "name": span.name,
            "cat": span.name.split(".")[0],
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": pid,
            "tid": span.tid,
            "args": span.args,
        }
        for span in spans
    ]


def write_chrome_trace(path: str, processes: dict[str, list[Span]]) -> None:
    """Write each process's spans as one Chrome trace-event file.

    Both processes read the same monotonic clock, so their spans share
    one time axis.
    """
    starts = [span.start for spans in processes.values() for span in spans]
    origin = min(starts) if starts else 0.0
    events: list[dict] = []
    for pid, (label, spans) in enumerate(processes.items(), start=1):
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": label}}
        )
        events.extend(_chrome_events(spans, pid, origin))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
