"""Pluggable compute backends (DESIGN.md §16).

The registry-backed seam between the algorithm layers and the numeric
substrate.  ``"numpy64"`` is the float64 bitwise-parity reference;
``"numpy32"`` is the float32/mixed-precision fast path, delta-gated
instead of bitwise-gated.  Select one anywhere a
:class:`~repro.backends.base.BackendSpec` (or bare backend name) is
accepted: ``GMPSVC(backend="numpy32")``, ``TrainerConfig`` /
``PredictorConfig``, ``InferenceSession`` (via its config),
``train_multiclass_sharded``, or ``repro-train`` / ``repro-serve``
``--backend``.

The float64 reference numerics (tiled ``matmul_transpose``, batched
``gaussian_elimination_batch``) live in :mod:`repro.backends.reference`.
"""

from repro.backends.base import (
    DEFAULT_BACKEND,
    BackendSpec,
    ComputeBackend,
    get_backend,
    list_backends,
    register_backend,
    resolve_backend,
)

# reference must load before the backend modules that delegate to it
# (package initialisation can be re-entered mid-import via repro.core).
from repro.backends.reference import (
    MATMUL_TILE_COLS,
    MATMUL_TILE_ROWS,
    gaussian_elimination,
    gaussian_elimination_batch,
    matmul_transpose,
)
from repro.backends.numpy32 import Numpy32Backend
from repro.backends.numpy64 import Numpy64Backend

__all__ = [
    "BackendSpec",
    "ComputeBackend",
    "DEFAULT_BACKEND",
    "MATMUL_TILE_COLS",
    "MATMUL_TILE_ROWS",
    "Numpy32Backend",
    "Numpy64Backend",
    "gaussian_elimination",
    "gaussian_elimination_batch",
    "get_backend",
    "list_backends",
    "matmul_transpose",
    "register_backend",
    "resolve_backend",
]

# The in-tree backends register on import; user backends call
# register_backend the same way.
register_backend(Numpy64Backend())
register_backend(Numpy32Backend())
