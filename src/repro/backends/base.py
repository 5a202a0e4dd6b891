"""The compute-backend contract and registry.

A :class:`ComputeBackend` owns the numeric primitives every layer of the
pipeline is built on — the batched kernel-row products (``a @ b.T`` plus
the squared row norms the Gaussian expansion needs), the batched Gaussian
elimination of the coupling stage, and the reduction primitives of the
solvers.  The simulated :class:`~repro.gpusim.engine.Engine` dispatches
its numeric work to whichever backend it was built with, so swapping a
backend changes the arithmetic (and the cost model's precision width)
without touching solver, serving or distributed code.

Two backends ship in-tree:

- ``"numpy64"`` — the float64 reference path (row-pure tiled products,
  batched partial-pivot elimination), held to **bitwise** parity across
  every execution path (fused or not, sharded, served).
- ``"numpy32"`` — the float32/mixed-precision fast path: kernel rows,
  cross products and row norms in float32, accumulation (decision-value
  sums, coupling, elimination, reductions) in float64.  It is held to
  accuracy-*delta* gates (probability L-infinity, argmax agreement)
  rather than bitwise parity; see DESIGN.md §16.

Future backends (numba, JAX, a real CUDA binding) drop into the same
registry: subclass :class:`ComputeBackend`, call :func:`register_backend`,
and every entry point that accepts a :class:`BackendSpec` can name it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.core.validation import strict_config
from repro.exceptions import ValidationError

__all__ = [
    "ComputeBackend",
    "BackendSpec",
    "register_backend",
    "get_backend",
    "list_backends",
    "resolve_backend",
    "DEFAULT_BACKEND",
]

DEFAULT_BACKEND = "numpy64"


class ComputeBackend(ABC):
    """Numeric primitives one precision/implementation regime provides.

    Subclasses set :attr:`name` (the registry key), :attr:`dtype` (the
    working element type of kernel rows and cross products) and the two
    cost-model scales the simulator applies to every charge:

    - :attr:`flop_time_scale` — multiplier on the FLOP term of the cost
      model (a float32 pipe runs ~2x the float64 peak, so 0.5);
    - :attr:`dram_byte_scale` — multiplier on DRAM/PCIe byte traffic
      (half-width elements move half the bytes, so 0.5).

    The reference backend keeps both at exactly 1.0 so the simulated
    timeline is bit-for-bit what the pre-registry engine produced.
    """

    name: str = "abstract"
    dtype: type = np.float64
    flop_time_scale: float = 1.0
    dram_byte_scale: float = 1.0

    # -- kernel-row evaluation ------------------------------------------
    @abstractmethod
    def matmul_transpose(self, a: object, b: object) -> np.ndarray:
        """Cross product ``a @ b.T`` for dense, CSR or prepared operands.

        The engine passes :class:`~repro.backends.reference.HostOperand`
        wrappers (see :func:`~repro.backends.reference.host_operand`).

        This is the single product batched kernel-row evaluation is built
        on (the paper computes it with cuSPARSE/cuBLAS); the kernel
        transforms (exp/tanh/power) then run in the dtype this returns.
        """

    @abstractmethod
    def row_norms_sq(self, matrix: object) -> np.ndarray:
        """Squared Euclidean row norms, in the backend's working dtype."""

    # -- batched elimination --------------------------------------------
    @abstractmethod
    def gaussian_elimination_batch(
        self,
        matrices: np.ndarray,
        rhs: np.ndarray,
        *,
        pivot_tolerance: float = 1e-12,
        on_singular: str = "raise",
    ) -> Union[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Solve a ``(m, n, n)`` stack of linear systems (coupling Eq. 15).

        Accumulation stays float64 on every in-tree backend — the coupling
        systems are tiny and ill-conditioned near-degenerate ``r``, so the
        mixed-precision contract narrows storage, never the solve.
        """

    # -- reduction primitives -------------------------------------------
    @abstractmethod
    def reduce_sum(self, values: np.ndarray) -> float:
        """Sum-reduce a vector (float64 accumulation on every backend)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r} dtype={np.dtype(self.dtype).name}>"


_REGISTRY: dict[str, ComputeBackend] = {}


def register_backend(backend: ComputeBackend) -> ComputeBackend:
    """Add a backend instance to the registry under ``backend.name``.

    Duplicate names raise :class:`~repro.exceptions.ValidationError` —
    silently replacing a registered backend would let two estimators
    resolve the same spec to different arithmetic.
    """
    if not isinstance(backend, ComputeBackend):
        raise ValidationError(
            f"register_backend expects a ComputeBackend instance, got "
            f"{type(backend).__name__}"
        )
    name = backend.name
    if not name or name == "abstract":
        raise ValidationError("backend must set a concrete, non-empty name")
    if name in _REGISTRY:
        raise ValidationError(
            f"backend {name!r} is already registered; backend names are "
            f"unique (registered: {list_backends()})"
        )
    _REGISTRY[name] = backend
    return backend


def get_backend(name: str) -> ComputeBackend:
    """Look up a registered backend; unknown names list the registry."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown compute backend {name!r}; registered backends: "
            f"{list_backends()}"
        ) from None


def list_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


@strict_config
@dataclass(frozen=True)
class BackendSpec:
    """The one value every entry point threads to select a backend.

    ``GMPSVC``/``TrainerConfig``/``PredictorConfig``, the serving session,
    the distributed trainer and the CLIs all accept a spec (or a bare
    backend name, which is shorthand for ``BackendSpec(name=...)``).
    Unknown keyword arguments and non-registered names both fail at
    construction with an error naming the valid choices.
    """

    name: str = DEFAULT_BACKEND

    def __post_init__(self) -> None:
        if self.name not in _REGISTRY:
            raise ValidationError(
                f"unknown compute backend {self.name!r}; registered "
                f"backends: {list_backends()}"
            )

    def resolve(self) -> ComputeBackend:
        """The registered backend instance this spec names."""
        return get_backend(self.name)


def resolve_backend(
    value: Union[None, str, BackendSpec, ComputeBackend],
) -> ComputeBackend:
    """Coerce any accepted backend designator to a backend instance.

    ``None`` means the default (``numpy64``); a string is shorthand for
    ``BackendSpec(name=value)``; specs resolve through the registry;
    instances pass through (the seam for not-yet-registered backends in
    tests).
    """
    if value is None:
        return get_backend(DEFAULT_BACKEND)
    if isinstance(value, ComputeBackend):
        return value
    if isinstance(value, BackendSpec):
        return value.resolve()
    if isinstance(value, str):
        return get_backend(value)
    raise ValidationError(
        f"backend must be None, a name, a BackendSpec or a ComputeBackend "
        f"instance, got {type(value).__name__}"
    )
