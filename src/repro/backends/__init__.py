"""Compute backends (DESIGN.md §16).

The seam between the algorithm layers and the numeric substrate.
``"numpy64"`` is the float64 bitwise-parity reference; ``"numpy32"`` is
the float32/mixed-precision fast path, delta-gated instead of
bitwise-gated.  Select one by name anywhere a ``backend`` is accepted:
``GMPSVC(backend="numpy32")``, ``TrainerConfig`` / ``PredictorConfig``,
``InferenceSession`` (via its config), ``train_multiclass_sharded``,
``load_model``, or ``repro-train`` / ``repro-serve`` ``--backend``.

The float64 reference numerics (tiled ``matmul_transpose``, batched
``gaussian_elimination_batch``) live in :mod:`repro.backends.reference`.
"""

from typing import Union

from repro.backends.base import ComputeBackend

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
from repro.exceptions import ValidationError

__all__ = [
    "BACKENDS",
    "ComputeBackend",
    "DEFAULT_BACKEND",
    "MATMUL_TILE_COLS",
    "MATMUL_TILE_ROWS",
    "Numpy32Backend",
    "Numpy64Backend",
    "gaussian_elimination",
    "gaussian_elimination_batch",
    "matmul_transpose",
    "resolve_backend",
]

DEFAULT_BACKEND = "numpy64"

# Every backend name an entry point accepts, each bound to one instance.
BACKENDS = {"numpy64": Numpy64Backend(), "numpy32": Numpy32Backend()}


def resolve_backend(value: Union[None, str, ComputeBackend]) -> ComputeBackend:
    """Coerce a backend designator to a backend instance.

    ``None`` means the default (``numpy64``); a name is looked up in
    :data:`BACKENDS`; an instance passes through (the seam tests use to
    substitute fake backends).
    """
    if value is None:
        value = DEFAULT_BACKEND
    if isinstance(value, ComputeBackend):
        return value
    if not isinstance(value, str):
        raise ValidationError(
            f"backend must be None, a name or a ComputeBackend instance, "
            f"got {type(value).__name__}"
        )
    try:
        return BACKENDS[value]
    except KeyError:
        raise ValidationError(
            f"unknown compute backend {value!r}; valid backends: "
            f"{sorted(BACKENDS)}"
        ) from None
