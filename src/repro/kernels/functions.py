"""The paper's four kernel functions (Section 2.1).

- Gaussian:    ``K(x, y) = exp(-gamma * ||x - y||^2)``
- Linear:      ``K(x, y) = x . y``
- Polynomial:  ``K(x, y) = (a * x . y + r)^d``
- Sigmoid:     ``K(x, y) = tanh(a * x . y + r)``

All four reduce to a cross dot-product matrix plus an elementwise
transform, which is why the paper computes batched kernel rows as one
(cu)SPARSE matrix product.  Every method takes the :class:`Engine` it
should charge, so kernel evaluation is accounted wherever it happens
(training rows, prediction rows, sigmoid fitting).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Union

import numpy as np

from repro.backends.reference import HostOperand, host_operand
from repro.exceptions import ValidationError
from repro.gpusim.engine import Engine
from repro.sparse import ops as mops

__all__ = [
    "KernelFunction",
    "LinearKernel",
    "GaussianKernel",
    "PolynomialKernel",
    "SigmoidKernel",
    "kernel_from_name",
]

# Byte budget of the Gaussian transform's temporary.
_CHUNK_BYTES = 1 << 20


class KernelFunction(ABC):
    """A Mercer kernel evaluated via batched cross products."""

    name: str = "abstract"

    @abstractmethod
    def transform(
        self,
        engine: Engine,
        dots: np.ndarray,
        norms_a: Optional[np.ndarray],
        norms_b: Optional[np.ndarray],
        *,
        category: str,
    ) -> np.ndarray:
        """Map a cross dot-product matrix to kernel values (charged)."""

    @abstractmethod
    def diagonal(self, engine: Engine, norms: np.ndarray, *, category: str) -> np.ndarray:
        """``K(x_i, x_i)`` from squared row norms (needed for eta terms)."""

    @abstractmethod
    def params(self) -> dict[str, float]:
        """Hyper-parameters, for model persistence and repr."""

    @property
    def needs_norms(self) -> bool:
        """Whether :meth:`transform` requires squared row norms."""
        return False

    def pairwise(
        self,
        engine: Engine,
        a: Union[mops.MatrixLike, HostOperand],
        b: Union[mops.MatrixLike, HostOperand],
        *,
        category: str,
        norms_a: Optional[np.ndarray] = None,
        norms_b: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Full kernel block ``K(a_i, b_j)``; one batched product + transform.

        ``norms_a`` / ``norms_b`` are squared row norms; pass precomputed
        values to avoid recharging them (the solvers compute them once per
        dataset).  They are only consulted by kernels that need them.
        Either operand may be a prepared
        :class:`~repro.backends.reference.HostOperand`.
        """
        if self.needs_norms:
            if norms_a is None:
                norms_a = self.compute_norms(
                    engine, host_operand(a).source, category=category
                )
            if norms_b is None:
                norms_b = self.compute_norms(
                    engine, host_operand(b).source, category=category
                )
        dots = engine.matmul_transpose(a, b, category=category)
        return self.transform(engine, dots, norms_a, norms_b, category=category)

    @staticmethod
    def compute_norms(
        engine: Engine, matrix: mops.MatrixLike, *, category: str = "kernel_values"
    ) -> np.ndarray:
        """Squared row norms, charged as one elementwise+reduce pass."""
        engine.elementwise(
            category,
            mops.matrix_nbytes(matrix) // 8,
            flops_per_element=2,
            arrays_read=1,
            arrays_written=0,
        )
        return engine.backend.row_norms_sq(matrix)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, KernelFunction)
            and self.name == other.name
            and self.params() == other.params()
        )

    def __hash__(self) -> int:
        return hash((self.name, tuple(sorted(self.params().items()))))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in self.params().items())
        return f"{type(self).__name__}({inner})"


class LinearKernel(KernelFunction):
    """``K(x, y) = x . y``."""

    name = "linear"

    def transform(self, engine, dots, norms_a, norms_b, *, category):
        return dots

    def diagonal(self, engine, norms, *, category):
        engine.elementwise(category, norms.size, arrays_read=1)
        return norms.copy()

    def params(self):
        return {}


class GaussianKernel(KernelFunction):
    """``K(x, y) = exp(-gamma * ||x - y||^2)`` (a.k.a. RBF)."""

    name = "gaussian"

    def __init__(self, gamma: float) -> None:
        if gamma <= 0:
            raise ValidationError(f"gamma must be positive, got {gamma}")
        self.gamma = float(gamma)

    @property
    def needs_norms(self) -> bool:
        """The squared-distance expansion requires row norms."""
        return True

    def transform(self, engine, dots, norms_a, norms_b, *, category):
        if norms_a is None or norms_b is None:
            raise ValidationError("Gaussian kernel requires row norms")
        engine.elementwise(category, dots.size, flops_per_element=5, arrays_read=3)
        # exp(-gamma * max(na + nb - 2 dots, 0)) in one buffer, same op order;
        # ``2 dots`` is formed a row chunk at a time, never as a whole block.
        dtype = np.result_type(norms_a, norms_b, dots)
        out = np.add.outer(norms_a, norms_b).astype(dtype, copy=False)
        step = max(1, _CHUNK_BYTES // max(1, dots.itemsize * dots.shape[1]))
        for start in range(0, dots.shape[0], step):
            out[start : start + step] -= 2.0 * dots[start : start + step]
        np.maximum(out, 0.0, out=out)  # guard tiny negatives
        out *= -self.gamma
        return np.exp(out, out=out)

    def diagonal(self, engine, norms, *, category):
        engine.elementwise(category, norms.size, arrays_read=0)
        return np.ones_like(norms)

    def params(self):
        return {"gamma": self.gamma}


class PolynomialKernel(KernelFunction):
    """``K(x, y) = (a * x . y + r)^d`` with the paper's (a, r, d) naming."""

    name = "polynomial"

    def __init__(self, degree: int = 3, gamma: float = 1.0, coef0: float = 0.0) -> None:
        if degree < 1:
            raise ValidationError(f"degree must be >= 1, got {degree}")
        if gamma <= 0:
            raise ValidationError(f"gamma must be positive, got {gamma}")
        self.degree = int(degree)
        self.gamma = float(gamma)
        self.coef0 = float(coef0)

    def transform(self, engine, dots, norms_a, norms_b, *, category):
        engine.elementwise(
            category, dots.size, flops_per_element=2 + self.degree, arrays_read=1
        )
        return np.power(self.gamma * dots + self.coef0, self.degree)

    def diagonal(self, engine, norms, *, category):
        engine.elementwise(category, norms.size, flops_per_element=2 + self.degree, arrays_read=1)
        return np.power(self.gamma * norms + self.coef0, self.degree)

    def params(self):
        return {"degree": self.degree, "gamma": self.gamma, "coef0": self.coef0}


class SigmoidKernel(KernelFunction):
    """``K(x, y) = tanh(a * x . y + r)``."""

    name = "sigmoid"

    def __init__(self, gamma: float = 1.0, coef0: float = 0.0) -> None:
        if gamma <= 0:
            raise ValidationError(f"gamma must be positive, got {gamma}")
        self.gamma = float(gamma)
        self.coef0 = float(coef0)

    def transform(self, engine, dots, norms_a, norms_b, *, category):
        engine.elementwise(category, dots.size, flops_per_element=8, arrays_read=1)
        return np.tanh(self.gamma * dots + self.coef0)

    def diagonal(self, engine, norms, *, category):
        engine.elementwise(category, norms.size, flops_per_element=8, arrays_read=1)
        return np.tanh(self.gamma * norms + self.coef0)

    def params(self):
        return {"gamma": self.gamma, "coef0": self.coef0}


def kernel_from_name(name: str, **params: float) -> KernelFunction:
    """Factory used by the estimator API (``kernel="gaussian"`` etc.).

    ``"rbf"`` is accepted as an alias for ``"gaussian"``.  A Gaussian kernel
    without an explicit gamma gets ``gamma = 1 / n_features`` responsibility
    pushed to the caller — here it must be supplied.
    """
    registry = {
        "linear": LinearKernel,
        "gaussian": GaussianKernel,
        "rbf": GaussianKernel,
        "polynomial": PolynomialKernel,
        "poly": PolynomialKernel,
        "sigmoid": SigmoidKernel,
    }
    lowered = name.lower()
    if lowered not in registry:
        raise ValidationError(
            f"unknown kernel {name!r}; expected one of {sorted(set(registry))}"
        )
    try:
        return registry[lowered](**params)
    except TypeError as exc:
        raise ValidationError(f"bad parameters for kernel {name!r}: {exc}") from exc
