"""LibSVM-equivalent baseline (with and without OpenMP).

Models the reference implementation the paper compares against:

- classic two-element SMO with second-order working-set selection and
  the shrinking heuristic (LibSVM's default; ``shrinking=False`` turns it
  off, LibSVM's ``-h 0``);
- one binary SVM at a time (no MP-SVM-level concurrency);
- the stock LRU kernel-row cache (default 100 MB, host memory — not
  scaled, since host RAM is not the scarce resource);
- scalar C++ code, modelled as a low fraction of CPU peak FLOPS;
- Platt fitting with the sequential backtracking line search;
- prediction through the deduplicated SV set LibSVM's model format keeps,
  using LibSVM's *iterative* coupling method rather than Eq. 15.

``openmp=True`` switches the device to 40 threads (the paper's best CPU
configuration).
"""

from __future__ import annotations

from typing import Optional

from repro.core.gmp import GMPSVC
from repro.core.predictor import PredictorConfig
from repro.core.trainer import TrainerConfig
from repro.gpusim.device import xeon_e5_2640v4

__all__ = ["LibSVMClassifier"]

DEFAULT_CACHE_BYTES = 100 * 1024 * 1024
# Scalar (non-SIMD) inner loops reach a small fraction of AVX peak.
SCALAR_FLOP_EFFICIENCY = 0.30


class LibSVMClassifier(GMPSVC):
    """Multi-class probabilistic SVM the way LibSVM runs it."""

    def __init__(
        self,
        C: float = 1.0,
        kernel: str = "gaussian",
        gamma: Optional[float] = None,
        degree: int = 3,
        coef0: float = 0.0,
        *,
        epsilon: float = 1e-3,
        probability: bool = True,
        openmp: bool = False,
        threads: int = 40,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        shrinking: bool = True,
        class_weight: Optional[dict] = None,
    ) -> None:
        super().__init__(
            C,
            kernel,
            gamma,
            degree,
            coef0,
            epsilon=epsilon,
            probability=probability,
            class_weight=class_weight,
            coupling_method="iterative",
            device=xeon_e5_2640v4(threads if openmp else 1),
        )
        self.openmp = openmp
        self.threads = threads
        self.cache_bytes = cache_bytes
        self.shrinking = shrinking

    def _trainer_config(self) -> TrainerConfig:
        return TrainerConfig(
            device=self.device,
            solver="classic",
            flop_efficiency=SCALAR_FLOP_EFFICIENCY,
            concurrent=False,
            share_kernel_values=False,
            parallel_line_search=False,
            probability=self.probability,
            epsilon=self.epsilon,
            classic_cache_bytes=self.cache_bytes,
            classic_shrinking=self.shrinking,
            class_weight=self.class_weight,
        )

    def _predictor_config(self) -> PredictorConfig:
        return PredictorConfig(
            device=self.device,
            flop_efficiency=SCALAR_FLOP_EFFICIENCY,
            sv_sharing=True,  # LibSVM's model stores each SV once
            coupling_method="iterative",
        )
