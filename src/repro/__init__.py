"""repro — GMP-SVM: efficient multi-class probabilistic SVMs.

A full reproduction of Wen, Shi, He, Chen & Chen, "Efficient Multi-Class
Probabilistic SVMs on GPUs" (ICDE 2019), with the GPU substrate replaced
by a cost-model simulator (see DESIGN.md).

This module is the stable public surface.  Everything in ``__all__`` is
covered by the API snapshot test (``tests/test_public_api.py``); the
deep-import paths the names come from keep working but are considered
implementation detail.

Public entry points:

- :class:`GMPSVC` — the paper's system (batched solver, concurrent binary
  SVMs, kernel/SV sharing); :class:`TrainerConfig` /
  :class:`PredictorConfig` are its underlying pipeline configurations;
- :class:`InferenceSession` — the serving layer: seal a fitted model
  once, serve requests against the warm state; ``repro.server.Dispatcher``
  micro-batches many small requests through it (DESIGN.md §11);
- :class:`ClusterSpec` / :func:`train_multiclass_sharded` —
  multi-device training over a simulated GPU cluster; models stay
  bitwise identical to the single-device path (DESIGN.md §12);
- :class:`ServerApp` / :class:`TenantPolicy` — the HTTP front-end over
  the serving layer: lossless wire protocol, per-tenant admission
  control, worker-pool dispatch and graceful 429/503 shedding, behind
  the ``repro-serve`` CLI (DESIGN.md §13);
- :class:`ModelRegistry` / :class:`RegistryWatcher` — the versioned
  model registry and its polling side: content-hashed artifacts,
  lineage, integrity-checked loads, and zero-downtime hot swap into a
  live dispatcher (DESIGN.md §14);
- :class:`CascadeConfig` / :func:`train_cascade` — instance-sharded
  cascade SMO for single large binary problems over hierarchical
  clusters: seeded stratified partitioning, per-shard sub-solves, a
  topology-aware pairwise SV merge tree, and one warm-started polish of
  the merged solution to the solver's epsilon (DESIGN.md §17);
- :class:`FaultPlan` / :class:`FaultInjector` — deterministic, seeded
  fault injection over the simulated cluster (stragglers, device loss,
  link faults) with checkpoint/resume recovery that keeps models
  bitwise identical to fault-free runs (DESIGN.md §15);
- :class:`ComputeBackend` — the compute-backend contract, selected by
  name anywhere a ``backend`` is accepted: ``"numpy64"`` is the bitwise
  float64 reference, ``"numpy32"`` the delta-gated
  float32/mixed-precision fast path (DESIGN.md §16);
- :mod:`repro.baselines` — LibSVM, the GPU baseline, CMP-SVM, GTSVM,
  OHD-SVM and GPUSVM comparators;
- :mod:`repro.data` — synthetic workloads mirroring the paper's datasets;
- :func:`save_model` / :func:`load_model` — versioned persistence.
"""

from repro.backends import ComputeBackend
from repro.cascade import CascadeConfig, train_cascade
from repro.core.gmp import GMPSVC
from repro.distributed import ClusterSpec, train_multiclass_sharded
from repro.core.predictor import PredictorConfig
from repro.core.trainer import TrainerConfig
from repro.exceptions import (
    CheckpointError,
    ConvergenceWarning,
    DeviceLostError,
    DeviceMemoryError,
    ModelFormatError,
    NotFittedError,
    RegistryError,
    ReproError,
    SolverError,
    SparseFormatError,
    ValidationError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.model.persistence import load_model, save_model
from repro.registry import ModelRegistry, RegistryWatcher
from repro.server import ServerApp, TenantPolicy
from repro.serving import InferenceSession
from repro.sparse import CSRMatrix, dump_libsvm, load_libsvm
from repro.telemetry import Tracer

__version__ = "9.0.0"

__all__ = [
    "CSRMatrix",
    "CascadeConfig",
    "CheckpointError",
    "ClusterSpec",
    "ComputeBackend",
    "ConvergenceWarning",
    "DeviceLostError",
    "DeviceMemoryError",
    "FaultInjector",
    "FaultPlan",
    "GMPSVC",
    "InferenceSession",
    "ModelFormatError",
    "ModelRegistry",
    "NotFittedError",
    "PredictorConfig",
    "RegistryError",
    "RegistryWatcher",
    "ReproError",
    "ServerApp",
    "SolverError",
    "SparseFormatError",
    "TenantPolicy",
    "Tracer",
    "TrainerConfig",
    "ValidationError",
    "__version__",
    "dump_libsvm",
    "load_libsvm",
    "load_model",
    "save_model",
    "train_cascade",
    "train_multiclass_sharded",
]
