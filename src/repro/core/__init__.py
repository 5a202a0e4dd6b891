"""Public estimator API.

- :class:`~repro.core.gmp.GMPSVC` — the paper's contribution: multi-class
  probabilistic SVM trained with the batched solver, concurrent binary
  SVMs, kernel-value sharing and support-vector sharing on the (simulated)
  GPU.
- :mod:`repro.core.trainer` / :mod:`repro.core.predictor` — the
  configurable pipelines the estimators and all baselines share.
"""

from repro.core.gmp import GMPSVC
from repro.core.trainer import TrainerConfig, train_multiclass
from repro.core.predictor import PredictorConfig, predict_proba_model

__all__ = [
    "GMPSVC",
    "PredictorConfig",
    "TrainerConfig",
    "predict_proba_model",
    "train_multiclass",
]
