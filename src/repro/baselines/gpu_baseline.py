"""The paper's GPU baseline (Section 3.2).

"A naive approach is to train the binary SVMs on the GPU one by one, and
to estimate probability for multiple instances using one binary SVM at a
time."  Concretely:

- classic SMO on the GPU: per-iteration reductions and two single-row
  kernel computations, each its own kernel launch (the small-op pattern
  whose overhead GMP-SVM amortises);
- a 4 GB device-memory kernel-row cache (Section 4.1), scaled with the
  device;
- sequential binary SVMs — no concurrency, no kernel-value sharing;
- prediction one binary SVM at a time — no support-vector sharing;
- sequential backtracking in the sigmoid fit (Section 3.3.2 contrasts
  GMP-SVM's parallel candidate evaluation against exactly this).
"""

from __future__ import annotations

from typing import Optional

from repro.core.gmp import GMPSVC
from repro.core.predictor import PredictorConfig
from repro.core.trainer import TrainerConfig
from repro.gpusim.device import DEFAULT_MEMORY_SCALE, DeviceSpec, scaled_tesla_p100

__all__ = ["GPUBaselineClassifier"]

PAPER_CACHE_BYTES = 4 * 1024**3  # "4GB of GPU memory for kernel value caching"


class GPUBaselineClassifier(GMPSVC):
    """Naive GPU MP-SVM: one binary SVM at a time, classic SMO."""

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
        device: Optional[DeviceSpec] = None,
        memory_scale: int = DEFAULT_MEMORY_SCALE,
        cache_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(
            C,
            kernel,
            gamma,
            degree,
            coef0,
            epsilon=epsilon,
            probability=probability,
            device=device if device is not None else scaled_tesla_p100(memory_scale),
        )
        # The benchmarks pass a per-dataset cache sized to match the
        # paper's 4 GB *coverage* (DatasetSpec.scaled_cache_bytes); the
        # default divides by the device scale, which is right when the
        # workload is scaled about as much as the device.
        self.cache_bytes = (
            cache_bytes if cache_bytes is not None
            else PAPER_CACHE_BYTES // memory_scale
        )

    def _trainer_config(self) -> TrainerConfig:
        return TrainerConfig(
            device=self.device,
            solver="classic",
            concurrent=False,
            share_kernel_values=False,
            parallel_line_search=False,
            probability=self.probability,
            epsilon=self.epsilon,
            classic_cache_bytes=self.cache_bytes,
            class_weight=self.class_weight,
        )

    def _predictor_config(self) -> PredictorConfig:
        return PredictorConfig(
            device=self.device,
            sv_sharing=False,  # "one binary SVM at a time"
            coupling_method="eq15",
        )
