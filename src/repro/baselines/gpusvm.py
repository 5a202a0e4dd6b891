"""GPUSVM comparator (Catanzaro, Sundaram & Keutzer, ICML 2008).

The first GPU SVM trainer: classic SMO on the GPU with the training data
held in **dense** format.  "GPUSVM uses the dense data representation,
which leads to higher computation cost for large datasets and also
requires more memory to store the training data.  This is the key reason
why GPUSVM is much slower than GMP-SVM on the RCV1 dataset"
(Section 4.3.2).  The comparator therefore:

- accepts binary problems only, without probabilistic output;
- densifies CSR inputs before training (``force_dense``), so every kernel
  row streams the full dense matrix — the Figure 10 pathology;
- runs classic two-element SMO with a modest device row cache.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.gmp import GMPSVC
from repro.core.predictor import PredictorConfig
from repro.core.trainer import TrainerConfig
from repro.exceptions import ValidationError
from repro.gpusim.device import DEFAULT_MEMORY_SCALE, DeviceSpec, scaled_tesla_p100
from repro.sparse import ops as mops

__all__ = ["GPUSVMClassifier"]

CACHE_BYTES = 4 * 1024**3  # caches kernel rows in all spare device memory


class GPUSVMClassifier(GMPSVC):
    """Binary (non-probabilistic) dense-representation GPU SVM."""

    def __init__(
        self,
        C: float = 1.0,
        kernel: str = "gaussian",
        gamma: Optional[float] = None,
        degree: int = 3,
        coef0: float = 0.0,
        *,
        epsilon: float = 1e-3,
        device: Optional[DeviceSpec] = None,
        memory_scale: int = DEFAULT_MEMORY_SCALE,
    ) -> None:
        super().__init__(
            C,
            kernel,
            gamma,
            degree,
            coef0,
            epsilon=epsilon,
            probability=False,
            device=device if device is not None else scaled_tesla_p100(memory_scale),
        )
        self.cache_bytes = CACHE_BYTES // memory_scale

    def fit(self, X: object, y: object) -> "GPUSVMClassifier":
        if np.unique(np.asarray(y).ravel()).size != 2:
            raise ValidationError("GPUSVM supports binary problems only")
        super().fit(X, y)
        return self

    def _trainer_config(self) -> TrainerConfig:
        return TrainerConfig(
            device=self.device,
            solver="classic",
            concurrent=False,
            share_kernel_values=False,
            parallel_line_search=False,
            probability=False,
            epsilon=self.epsilon,
            classic_cache_bytes=self.cache_bytes,
            force_dense=True,
        )

    def _predictor_config(self) -> PredictorConfig:
        return PredictorConfig(device=self.device, sv_sharing=False)

    def predict(self, X: object) -> np.ndarray:
        # Prediction also runs on the densified representation.
        return super().predict(mops.to_dense(mops.as_supported_matrix(X)))

    def predict_proba(self, X: object) -> np.ndarray:
        raise ValidationError("GPUSVM does not support probabilistic output")
