"""The serving layer: sealed inference sessions.

- :class:`InferenceSession` — seals a fitted model (warm SV pool, resident
  norms, stacked sigmoid arrays, one persistent engine) and serves
  repeated predictions with zero per-call setup.

Queueing and request fusion live in one place, :class:`repro.server.Dispatcher`,
which fronts a session (or a sharded router) with worker lanes, admission
control and adaptive micro-batching.  See DESIGN.md §11 for the
seal/dispatch lifecycle.
"""

from repro.serving.session import InferenceSession, SessionStats

__all__ = ["InferenceSession", "SessionStats"]
