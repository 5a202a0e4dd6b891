"""GMP-SVC: the paper's GPU-accelerated multi-class probabilistic SVM.

The estimator wires together everything Section 3.3 describes: the batched
working-set solver with a FIFO kernel buffer (binary level), concurrent
binary SVM training with kernel-value sharing (MP-SVM level), Platt
sigmoids with parallel candidate evaluation, and prediction with support-
vector and kernel-value sharing.

Example
-------
>>> from repro import GMPSVC
>>> from repro.data import gaussian_blobs
>>> X, y = gaussian_blobs(n=300, n_features=5, n_classes=3, seed=0)
>>> clf = GMPSVC(C=10.0, gamma=0.5).fit(X, y)
>>> proba = clf.predict_proba(X)
>>> bool(abs(proba[0].sum() - 1.0) < 1e-9)
True
"""

from __future__ import annotations

import inspect
from typing import Optional

import numpy as np

from repro.core.predictor import (
    PredictorConfig,
    decision_matrix,
    predict_labels_model,
    predict_proba_model,
)
from repro.core.trainer import TrainerConfig, train_multiclass
from repro.core.validation import check_fit_inputs, check_predict_inputs, resolve_gamma
from repro.exceptions import NotFittedError, ValidationError
from repro.gpusim.device import DeviceSpec, scaled_tesla_p100
from repro.kernels.functions import KernelFunction, kernel_from_name
from repro.model.persistence import save_model
from repro.sparse import ops as mops

__all__ = ["GMPSVC"]


class GMPSVC:
    """Multi-class probabilistic SVM with simulated-GPU acceleration.

    Parameters mirror the paper's configuration (Section 4.1): ``C`` and
    ``gamma`` per dataset, GPU buffer of ``working_set_size`` kernel rows,
    ``new_per_round`` (the paper's q) defaulting to half the buffer.  The
    default buffer of 48 rows keeps the paper's buffer-to-dataset coverage
    (1024 rows against ~20-70k instances, i.e. a few percent) at the
    registry's scaled-down dataset sizes.

    After :meth:`fit`, the fitted state lives in ``model_`` and the
    simulated-cost accounting in ``training_report_``; each prediction call
    refreshes ``prediction_report_``.
    """

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
        probability_cv_folds: int = 0,
        decomposition: str = "ovo",
        class_weight: Optional[dict] = None,
        working_set_size: int = 48,
        new_per_round: Optional[int] = None,
        buffer_rows: Optional[int] = None,
        buffer_policy: str = "fifo",
        inner_rule: str = "adaptive",
        share_kernel_values: bool = True,
        share_support_vectors: bool = True,
        parallel_line_search: bool = True,
        concurrent_svms: bool = True,
        max_concurrent_svms: Optional[int] = None,
        blocks_per_svm: int = 7,
        coupling_method: str = "eq15",
        backend: Optional[object] = None,
        cascade: Optional[object] = None,
        device: Optional[DeviceSpec] = None,
        warm_start: bool = False,
    ) -> None:
        self.C = C
        self.kernel = kernel
        self.gamma = gamma
        self.degree = degree
        self.coef0 = coef0
        self.epsilon = epsilon
        self.probability = probability
        self.probability_cv_folds = probability_cv_folds
        self.decomposition = decomposition
        self.class_weight = class_weight
        self.working_set_size = working_set_size
        self.new_per_round = new_per_round
        self.buffer_rows = buffer_rows
        self.buffer_policy = buffer_policy
        self.inner_rule = inner_rule
        self.share_kernel_values = share_kernel_values
        self.share_support_vectors = share_support_vectors
        self.parallel_line_search = parallel_line_search
        self.concurrent_svms = concurrent_svms
        self.max_concurrent_svms = max_concurrent_svms
        self.blocks_per_svm = blocks_per_svm
        self.coupling_method = coupling_method
        self.backend = backend
        # A repro.cascade.CascadeConfig routes pairwise problems at or
        # above its threshold through instance-sharded cascade training.
        self.cascade = cascade
        self.device = device if device is not None else scaled_tesla_p100()
        self.warm_start = warm_start

        self.model_ = None
        self.training_report_ = None
        self.prediction_report_ = None
        # Optional repro.telemetry.Tracer; assign one before fit/predict to
        # record hierarchical spans of the run (``repro-train --trace``).
        # Plain attribute (not a constructor parameter) so every baseline
        # subclass inherits it without signature changes.
        self.tracer = None

    # ------------------------------------------------------------------
    # Configuration plumbing
    # ------------------------------------------------------------------
    @classmethod
    def _param_names(cls) -> list[str]:
        """Constructor parameter names, in declaration order.

        Read off the class's own ``__init__`` signature so estimator
        subclasses (the baselines) inherit working ``get_params`` /
        ``set_params`` without repeating their parameter lists.
        """
        return [
            name
            for name in inspect.signature(cls.__init__).parameters
            if name != "self"
        ]

    def get_params(self, deep: bool = True) -> dict:
        """Constructor parameters and their current values (sklearn API).

        The returned mapping round-trips: ``type(est)(**est.get_params())``
        builds an estimator that trains identically.  ``deep`` is accepted
        for sklearn compatibility; there are no nested estimators.
        """
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: object) -> "GMPSVC":
        """Update constructor parameters in place (sklearn API).

        Unknown names raise :class:`~repro.exceptions.ValidationError`
        (a ``ValueError``) naming the offending key.  Returns self.
        """
        valid = self._param_names()
        for key in params:
            if key not in valid:
                raise ValidationError(
                    f"invalid parameter {key!r} for estimator "
                    f"{type(self).__name__}; valid parameters: "
                    f"{', '.join(valid)}"
                )
        for key, value in params.items():
            setattr(self, key, value)
        return self

    def _build_kernel(self, n_features: int) -> KernelFunction:
        name = self.kernel.lower()
        if name in ("gaussian", "rbf"):
            return kernel_from_name(name, gamma=resolve_gamma(self.gamma, n_features))
        if name in ("polynomial", "poly"):
            return kernel_from_name(
                name,
                degree=self.degree,
                gamma=resolve_gamma(self.gamma, n_features),
                coef0=self.coef0,
            )
        if name == "sigmoid":
            return kernel_from_name(
                name, gamma=resolve_gamma(self.gamma, n_features), coef0=self.coef0
            )
        return kernel_from_name(name)

    def _trainer_config(self) -> TrainerConfig:
        return TrainerConfig(
            device=self.device,
            solver="batched",
            concurrent=self.concurrent_svms,
            share_kernel_values=self.share_kernel_values,
            parallel_line_search=self.parallel_line_search,
            probability=self.probability,
            probability_cv_folds=self.probability_cv_folds,
            decomposition=self.decomposition,
            class_weight=self.class_weight,
            epsilon=self.epsilon,
            working_set_size=self.working_set_size,
            new_per_round=self.new_per_round,
            buffer_rows=self.buffer_rows,
            buffer_policy=self.buffer_policy,
            inner_rule=self.inner_rule,
            blocks_per_svm=self.blocks_per_svm,
            max_concurrent_svms=self.max_concurrent_svms,
            backend=self.backend,
            cascade=self.cascade,
        )

    def _predictor_config(self) -> PredictorConfig:
        return PredictorConfig(
            device=self.device,
            sv_sharing=self.share_support_vectors,
            coupling_method=self.coupling_method,
            backend=self.backend,
        )

    # ------------------------------------------------------------------
    # Estimator API
    # ------------------------------------------------------------------
    def fit(self, X: object, y: object) -> "GMPSVC":
        """Train on ``(X, y)``; X may be dense or a CSRMatrix.

        With ``warm_start=True`` and a previous fit on hand, the solvers
        are seeded from ``model_`` (sklearn's ``warm_start`` semantics);
        the incremental contract is documented on
        :func:`~repro.core.trainer.train_multiclass`.
        """
        data, labels = check_fit_inputs(X, y)
        kernel = self._build_kernel(mops.n_cols(data))
        config = self._trainer_config()
        config.tracer = self.tracer
        prior = self.model_ if self.warm_start else None
        self.model_, self.training_report_ = train_multiclass(
            config, data, labels, kernel, float(self.C), warm_start=prior
        )
        self.n_features_in_ = mops.n_cols(data)
        self.classes_ = self.model_.classes
        return self

    def _require_fitted(self):
        if self.model_ is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted yet")
        return self.model_

    def predict(self, X: object) -> np.ndarray:
        """Predicted class labels (argmax probability when available)."""
        model = self._require_fitted()
        data = check_predict_inputs(X, self.n_features_in_)
        config = self._predictor_config()
        config.tracer = self.tracer
        labels, self.prediction_report_ = predict_labels_model(
            config, model, data
        )
        return labels

    def predict_proba(self, X: object) -> np.ndarray:
        """Multi-class probabilities, shape ``(m, n_classes)``."""
        model = self._require_fitted()
        data = check_predict_inputs(X, self.n_features_in_)
        config = self._predictor_config()
        config.tracer = self.tracer
        probabilities, self.prediction_report_ = predict_proba_model(
            config, model, data
        )
        return probabilities

    def decision_function(self, X: object) -> np.ndarray:
        """Raw pairwise decision values, shape ``(m, k(k-1)/2)``."""
        model = self._require_fitted()
        data = check_predict_inputs(X, self.n_features_in_)
        engine = self._predictor_config().make_engine()
        return decision_matrix(
            engine, model, data, sv_sharing=self.share_support_vectors
        )

    def score(self, X: object, y: object) -> float:
        """Mean accuracy on ``(X, y)``."""
        predictions = self.predict(X)
        return float(np.mean(predictions == np.asarray(y).ravel()))

    def save(self, path: object) -> None:
        """Persist the fitted model (see :mod:`repro.model.persistence`)."""
        save_model(self._require_fitted(), path)
