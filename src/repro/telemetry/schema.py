"""Versioned schemas for every serialized telemetry artifact.

Three artifact families leave the process as JSON:

- **reports** — ``TrainingReport`` (every training run, single-device
  or sharded), ``PredictionReport`` and ``CascadeReport`` snapshots
  (``repro-train --report-json``, ``repro-predict --report-json``);
- **traces** — JSONL span streams from the hierarchical tracer
  (``--trace``);
- **bench results** — ``BENCH_<name>.json`` files emitted by the
  benchmark suite and diffed by ``benchmarks/check_regression.py``.

Each carries a ``schema_version`` string of the form
``repro.<family>/v<N>``.  Consumers (the CI regression gate, downstream
analysis notebooks) must check the family and may refuse unknown major
versions; producers bump ``N`` on any backwards-incompatible change to
the field set.
"""

from __future__ import annotations

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "BENCH_SCHEMA_VERSION",
]

REPORT_SCHEMA_VERSION = "repro.report/v2"
TRACE_SCHEMA_VERSION = "repro.trace/v1"
BENCH_SCHEMA_VERSION = "repro.bench/v1"
