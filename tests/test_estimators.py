"""Unit tests for the public estimator API (GMPSVC)."""

import numpy as np
import pytest

from repro import GMPSVC, NotFittedError, ValidationError
from repro.data import binary01_features, gaussian_blobs
from repro.gpusim import xeon_e5_2640v4


@pytest.fixture(scope="module")
def three_class():
    x, y = gaussian_blobs(150, 6, 3, seed=0)
    return x, y + 10  # non-contiguous labels on purpose


@pytest.fixture(scope="module")
def fitted_gmp(three_class):
    x, y = three_class
    return GMPSVC(C=10.0, gamma=0.4, working_set_size=32).fit(x, y)


class TestGMPSVC:
    def test_predict_returns_original_labels(self, fitted_gmp, three_class):
        x, y = three_class
        predictions = fitted_gmp.predict(x)
        assert set(np.unique(predictions)).issubset({10, 11, 12})
        assert fitted_gmp.score(x, y) > 0.95

    def test_predict_proba_simplex(self, fitted_gmp, three_class):
        proba = fitted_gmp.predict_proba(three_class[0])
        assert proba.shape == (150, 3)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert np.all(proba >= 0)

    def test_predict_matches_argmax_proba(self, fitted_gmp, three_class):
        x, _ = three_class
        proba = fitted_gmp.predict_proba(x)
        labels = fitted_gmp.predict(x)
        assert np.array_equal(labels, fitted_gmp.classes_[np.argmax(proba, axis=1)])

    def test_decision_function_shape(self, fitted_gmp, three_class):
        decisions = fitted_gmp.decision_function(three_class[0])
        assert decisions.shape == (150, 3)  # k(k-1)/2 pairs

    def test_reports_populated(self, fitted_gmp):
        assert fitted_gmp.training_report_.simulated_seconds > 0
        assert fitted_gmp.training_report_.n_binary_svms == 3
        assert fitted_gmp.prediction_report_ is not None

    def test_unfitted_errors(self):
        clf = GMPSVC()
        with pytest.raises(NotFittedError):
            clf.predict(np.ones((2, 2)))
        with pytest.raises(NotFittedError):
            clf.predict_proba(np.ones((2, 2)))
        with pytest.raises(NotFittedError):
            clf.save("/tmp/nothing.txt")

    def test_feature_count_checked_at_predict(self, fitted_gmp):
        with pytest.raises(ValidationError, match="features"):
            fitted_gmp.predict(np.ones((2, 99)))

    def test_label_row_mismatch_at_fit(self):
        with pytest.raises(ValidationError):
            GMPSVC().fit(np.ones((4, 2)), np.ones(3))

    def test_nan_input_rejected(self):
        x = np.ones((4, 2))
        x[0, 0] = np.nan
        with pytest.raises(ValidationError):
            GMPSVC().fit(x, [0, 0, 1, 1])

    def test_probability_false_uses_voting(self, three_class):
        x, y = three_class
        clf = GMPSVC(C=10.0, gamma=0.4, working_set_size=32, probability=False)
        clf.fit(x, y)
        with pytest.raises(NotFittedError):
            clf.predict_proba(x)
        assert clf.score(x, y) > 0.95

    def test_gamma_default_is_one_over_features(self, three_class):
        x, y = three_class
        clf = GMPSVC(C=10.0, working_set_size=32).fit(x, y)
        assert clf.model_.kernel.params()["gamma"] == pytest.approx(1 / 6)

    def test_linear_and_polynomial_kernels(self, three_class):
        x, y = three_class
        for kernel in ("linear", "polynomial", "sigmoid"):
            clf = GMPSVC(C=1.0, kernel=kernel, gamma=0.3, working_set_size=32)
            clf.fit(x, y)
            assert clf.predict(x).shape == (150,)

    def test_unknown_kernel_rejected(self, three_class):
        x, y = three_class
        with pytest.raises(ValidationError):
            GMPSVC(kernel="quantum").fit(x, y)

    def test_custom_device(self, three_class):
        x, y = three_class
        clf = GMPSVC(
            C=10.0, gamma=0.4, working_set_size=32, device=xeon_e5_2640v4(8)
        ).fit(x, y)
        assert "Xeon" in clf.training_report_.device_name

    def test_sparse_input(self):
        x, y = binary01_features(100, 50, 3, active_per_row=8, seed=1)
        clf = GMPSVC(C=10.0, gamma=0.5, working_set_size=32).fit(x, y)
        assert clf.score(x, y) > 0.9
        proba = clf.predict_proba(x)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_multiclass_concurrency_reported(self, three_class):
        x, y = three_class
        clf = GMPSVC(C=10.0, gamma=0.4, working_set_size=32).fit(x, y)
        assert clf.training_report_.max_concurrency >= 2
        clf_seq = GMPSVC(
            C=10.0, gamma=0.4, working_set_size=32, concurrent_svms=False
        ).fit(x, y)
        assert clf_seq.training_report_.max_concurrency == 1
        assert (
            clf_seq.training_report_.simulated_seconds
            > clf.training_report_.simulated_seconds
        )


class TestBinaryGMPSVC:
    """A two-class problem is one pair; its decision column is ``[:, 0]``."""

    @pytest.fixture(scope="class")
    def binary(self):
        x, y = gaussian_blobs(120, 5, 2, seed=3)
        return x, np.where(y == 0, -1, 1)

    def test_binary_fit_predict(self, binary):
        x, y = binary
        clf = GMPSVC(C=10.0, gamma=0.4, working_set_size=32).fit(x, y)
        assert clf.score(x, y) > 0.95
        assert clf.decision_function(x).shape == (120, 1)

    def test_decision_sign_matches_prediction(self, binary):
        x, y = binary
        clf = GMPSVC(
            C=10.0, gamma=0.4, working_set_size=32, probability=False
        ).fit(x, y)
        decisions = clf.decision_function(x)[:, 0]
        predictions = clf.predict(x)
        # Positive decision votes for the first (sorted) class, -1.
        assert np.array_equal(predictions, np.where(decisions >= 0, -1, 1))

    def test_probability_consistent_with_decisions(self, binary):
        x, y = binary
        clf = GMPSVC(C=10.0, gamma=0.4, working_set_size=32).fit(x, y)
        proba = clf.predict_proba(x)
        assert proba.shape == (120, 2)
        decisions = clf.decision_function(x)[:, 0]
        # P(first class) should increase with the decision value.
        order = np.argsort(decisions)
        assert np.all(np.diff(proba[order, 0]) >= -1e-12)
