"""Unit tests for model containers and persistence."""

import io

import numpy as np
import pytest

from repro import GMPSVC, load_model, save_model
from repro.core.predictor import PredictorConfig, predict_proba_model
from repro.data import gaussian_blobs
from repro.exceptions import ModelFormatError, ValidationError
from repro.gpusim import scaled_tesla_p100
from repro.model import MPSVMModel
from repro.sparse import CSRMatrix


@pytest.fixture(scope="module")
def fitted():
    x, y = gaussian_blobs(120, 6, 3, seed=2)
    clf = GMPSVC(C=5.0, gamma=0.4, working_set_size=32).fit(x, y)
    return clf, x, y


class TestModelContainer:
    def test_pair_bookkeeping(self, fitted):
        model = fitted[0].model_
        assert model.n_classes == 3
        assert len(model.records) == 3
        assert model.pairs == [(0, 1), (0, 2), (1, 2)]

    def test_record_lookup(self, fitted):
        model = fitted[0].model_
        assert model.record_for(0, 2).s == 0
        with pytest.raises(ValidationError):
            model.record_for(2, 0)

    def test_bias_of_last_svm(self, fitted):
        model = fitted[0].model_
        assert model.bias_of_last_svm == model.records[-1].bias

    def test_label_mapping(self, fitted):
        model = fitted[0].model_
        assert np.array_equal(
            model.labels_from_positions(np.array([0, 2])), model.classes[[0, 2]]
        )

    def test_record_count_validated(self, fitted):
        model = fitted[0].model_
        with pytest.raises(ValidationError):
            MPSVMModel(
                classes=model.classes,
                kernel=model.kernel,
                penalty=model.penalty,
                records=model.records[:1],
                sv_pool=model.sv_pool,
            )

    def test_probability_requires_sigmoids(self, fitted):
        model = fitted[0].model_
        stripped = [
            type(rec)(
                s=rec.s, t=rec.t,
                global_sv_indices=rec.global_sv_indices,
                coefficients=rec.coefficients, bias=rec.bias, sigmoid=None,
            )
            for rec in model.records
        ]
        with pytest.raises(ValidationError):
            MPSVMModel(
                classes=model.classes,
                kernel=model.kernel,
                penalty=model.penalty,
                records=stripped,
                sv_pool=model.sv_pool,
                probability=True,
            )


class TestPersistence:
    def roundtrip(self, model):
        buffer = io.StringIO()
        save_model(model, buffer)
        buffer.seek(0)
        return load_model(buffer)

    def test_roundtrip_predictions_identical(self, fitted):
        clf, x, _ = fitted
        reloaded = self.roundtrip(clf.model_)
        config = PredictorConfig(device=scaled_tesla_p100())
        original, _ = predict_proba_model(config, clf.model_, x)
        restored, _ = predict_proba_model(config, reloaded, x)
        assert np.array_equal(original, restored)

    def test_roundtrip_metadata(self, fitted):
        model = fitted[0].model_
        reloaded = self.roundtrip(model)
        assert np.array_equal(reloaded.classes, model.classes)
        assert reloaded.kernel == model.kernel
        assert reloaded.penalty == model.penalty
        assert reloaded.probability == model.probability
        for a, b in zip(reloaded.records, model.records):
            assert (a.s, a.t) == (b.s, b.t)
            assert a.bias == b.bias
            assert a.sigmoid.a == b.sigmoid.a

    def test_roundtrip_sparse_training_data(self):
        from repro.data import binary01_features

        x, y = binary01_features(80, 60, 2, active_per_row=6, seed=9)
        clf = GMPSVC(C=10.0, gamma=0.5, working_set_size=32).fit(x, y)
        lines = _saved_lines(clf.model_)
        assert len(lines[_line_of(lines, "n_pool ")].split()) == 3  # no marker
        reloaded = self.roundtrip(clf.model_)
        assert isinstance(reloaded.sv_pool.pool_data, CSRMatrix)
        config = PredictorConfig(device=scaled_tesla_p100())
        original, _ = predict_proba_model(config, clf.model_, x)
        restored, _ = predict_proba_model(config, reloaded, x)
        assert np.allclose(original, restored, atol=1e-12)

    def test_file_path_roundtrip(self, fitted, tmp_path):
        clf = fitted[0]
        path = tmp_path / "model.txt"
        clf.save(path)
        reloaded = load_model(path)
        assert reloaded.n_classes == 3

    def test_rejects_wrong_magic(self):
        with pytest.raises(ModelFormatError, match="not a"):
            load_model(io.StringIO("something-else 1\n"))

    def test_rejects_wrong_version(self):
        with pytest.raises(ModelFormatError, match="version"):
            load_model(io.StringIO("repro-mpsvm 99\n"))

    def test_version_error_names_expected_and_found(self):
        """Forward compatibility: a clear expected-vs-found diagnosis."""
        from repro.model.persistence import FORMAT_VERSION

        with pytest.raises(ModelFormatError) as excinfo:
            load_model(io.StringIO("repro-mpsvm 99\n"))
        message = str(excinfo.value)
        assert f"expected {FORMAT_VERSION}" in message
        assert "found 99" in message

    def test_non_integer_version_is_format_error(self):
        """A mangled version field must not leak a bare ValueError."""
        with pytest.raises(ModelFormatError, match="expected an integer"):
            load_model(io.StringIO("repro-mpsvm banana\n"))

    def test_future_version_of_valid_payload_rejected(self, fitted):
        """A well-formed file from a hypothetical future writer still
        fails with the version diagnosis, not a parse error mid-file."""
        buffer = io.StringIO()
        save_model(fitted[0].model_, buffer)
        lines = buffer.getvalue().splitlines()
        lines[0] = "repro-mpsvm 2"
        with pytest.raises(ModelFormatError, match="expected 1, found 2"):
            load_model(io.StringIO("\n".join(lines) + "\n"))

    def test_rejects_truncated_file(self, fitted):
        buffer = io.StringIO()
        save_model(fitted[0].model_, buffer)
        text = buffer.getvalue()
        truncated = "\n".join(text.splitlines()[:5])
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO(truncated))

    def test_integer_labels_restored_as_integers(self, fitted):
        reloaded = self.roundtrip(fitted[0].model_)
        assert reloaded.classes.dtype == np.int64


class TestPersistenceEdgeCases:
    def roundtrip(self, model):
        buffer = io.StringIO()
        save_model(model, buffer)
        buffer.seek(0)
        return load_model(buffer)

    def test_float_labels_roundtrip_exactly(self):
        """Regression: ``%g`` rendered class labels at 6 significant
        digits, so 1234567.5 reloaded as 1234570.0 — labels must use
        ``.17g`` like every other float in the format."""
        x, y_int = gaussian_blobs(90, 4, 3, seed=5)
        label_values = np.array([0.5, 1234567.5, -2.25])
        y = label_values[y_int]
        clf = GMPSVC(C=2.0, gamma=0.5, working_set_size=32).fit(x, y)
        reloaded = self.roundtrip(clf.model_)
        assert np.array_equal(reloaded.classes, np.sort(label_values))
        config = PredictorConfig(device=scaled_tesla_p100())
        original, _ = predict_proba_model(config, clf.model_, x)
        restored, _ = predict_proba_model(config, reloaded, x)
        assert np.array_equal(original, restored)

    def test_out_of_range_pool_position_rejected(self, fitted):
        """Regression: a positions entry past the pool bounds used to be
        accepted and crash (or read garbage) at prediction time."""
        buffer = io.StringIO()
        save_model(fitted[0].model_, buffer)
        lines = buffer.getvalue().splitlines()
        stanza = next(
            i for i, line in enumerate(lines) if line.startswith("svm ")
        )
        positions = lines[stanza + 1].split()
        positions[0] = str(fitted[0].model_.sv_pool.n_pool + 5)
        lines[stanza + 1] = " ".join(positions)
        with pytest.raises(ModelFormatError, match="out of range"):
            load_model(io.StringIO("\n".join(lines) + "\n"))

    def test_negative_pool_position_rejected(self, fitted):
        buffer = io.StringIO()
        save_model(fitted[0].model_, buffer)
        lines = buffer.getvalue().splitlines()
        stanza = next(
            i for i, line in enumerate(lines) if line.startswith("svm ")
        )
        positions = lines[stanza + 1].split()
        positions[-1] = "-1"
        lines[stanza + 1] = " ".join(positions)
        with pytest.raises(ModelFormatError, match="out of range"):
            load_model(io.StringIO("\n".join(lines) + "\n"))

    def test_dense_pool_values_preserved_exactly(self, fitted):
        """Dense-trained pools reload dense with bitwise-equal values."""
        from repro.sparse import ops as mops

        model = fitted[0].model_
        reloaded = self.roundtrip(model)
        assert isinstance(reloaded.sv_pool.pool_data, np.ndarray)
        assert reloaded.sv_pool.pool_data.dtype == np.float64
        assert np.array_equal(
            mops.to_dense(reloaded.sv_pool.pool_data),
            mops.to_dense(model.sv_pool.pool_data),
        )

    def test_probability_false_roundtrip(self):
        x, y = gaussian_blobs(90, 4, 3, seed=6)
        clf = GMPSVC(
            C=2.0, gamma=0.5, probability=False, working_set_size=32
        ).fit(x, y)
        reloaded = self.roundtrip(clf.model_)
        assert reloaded.probability is False
        assert all(rec.sigmoid is None for rec in reloaded.records)
        config = PredictorConfig(device=scaled_tesla_p100())
        from repro.core.predictor import predict_labels_model

        original, _ = predict_labels_model(config, clf.model_, x)
        restored, _ = predict_labels_model(config, reloaded, x)
        assert np.array_equal(np.asarray(original), np.asarray(restored))

    def test_single_pair_model_roundtrip(self):
        """Binary problems persist one stanza and reload cleanly."""
        x, y = gaussian_blobs(80, 4, 2, seed=7)
        clf = GMPSVC(C=2.0, gamma=0.5, working_set_size=32).fit(x, y)
        assert len(clf.model_.records) == 1
        reloaded = self.roundtrip(clf.model_)
        assert len(reloaded.records) == 1
        config = PredictorConfig(device=scaled_tesla_p100())
        original, _ = predict_proba_model(config, clf.model_, x)
        restored, _ = predict_proba_model(config, reloaded, x)
        assert np.allclose(original, restored, atol=1e-12)

    @pytest.mark.parametrize("keep_fraction", [0.3, 0.6, 0.95])
    def test_truncation_anywhere_is_a_format_error(
        self, fitted, keep_fraction
    ):
        """Cutting the file mid-stanza or mid-SV-section must raise
        ModelFormatError, never an IndexError or a silently short model."""
        buffer = io.StringIO()
        save_model(fitted[0].model_, buffer)
        lines = buffer.getvalue().splitlines()
        cut = max(1, int(len(lines) * keep_fraction))
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO("\n".join(lines[:cut]) + "\n"))


def _saved_lines(model):
    buffer = io.StringIO()
    save_model(model, buffer)
    return buffer.getvalue().splitlines()


def _load_lines(lines):
    return load_model(io.StringIO("\n".join(lines) + "\n"))


def _line_of(lines, prefix):
    return next(i for i, line in enumerate(lines) if line.startswith(prefix))


class TestPoolStorage:
    """The ``dense`` token on the ``n_pool`` line picks the reloaded pool's
    storage: dense pools come back dense, everything else as CSR."""

    def test_dense_reload_predicts_bitwise(self, fitted):
        from repro import InferenceSession

        clf, x, _ = fitted
        reloaded = _load_lines(_saved_lines(clf.model_))
        original = InferenceSession(clf.model_).predict_proba(x)
        restored = InferenceSession(reloaded).predict_proba(x)
        assert original.tobytes() == restored.tobytes()

    def test_dense_pool_writes_marker(self, fitted):
        lines = _saved_lines(fitted[0].model_)
        assert lines[_line_of(lines, "n_pool ")].endswith(" dense")

    def test_file_without_marker_loads_as_csr(self, fitted):
        model = fitted[0].model_
        lines = _saved_lines(model)
        at = _line_of(lines, "n_pool ")
        lines[at] = lines[at].removesuffix(" dense")
        reloaded = _load_lines(lines)
        assert isinstance(reloaded.sv_pool.pool_data, CSRMatrix)
        assert np.array_equal(
            reloaded.sv_pool.pool_data.toarray(), model.sv_pool.pool_data
        )

    def test_unknown_storage_token_rejected(self, fitted):
        lines = _saved_lines(fitted[0].model_)
        at = _line_of(lines, "n_pool ")
        lines[at] = lines[at].replace(" dense", " banded")
        with pytest.raises(ModelFormatError, match=f"line {at + 1}: .*banded"):
            _load_lines(lines)


class TestHardenedLoad:
    """Malformed or non-finite input is a ModelFormatError naming its line,
    never a bare ValueError, a SparseFormatError or a model that serves
    NaN."""

    @staticmethod
    def _edit(fitted, prefix, edit, offset=0):
        lines = _saved_lines(fitted[0].model_)
        at = _line_of(lines, prefix) + offset
        lines[at] = edit(lines[at])
        return lines, at + 1

    @staticmethod
    def _first_sv_row(lines):
        return _line_of(lines, "SV") + 1

    def _sv_edit(self, fitted, edit):
        lines = _saved_lines(fitted[0].model_)
        at = self._first_sv_row(lines)
        lines[at] = edit(lines[at].split())
        return lines, at + 1

    def _assert_rejected(self, lines, number, match):
        with pytest.raises(ModelFormatError, match=f"line {number}: .*{match}"):
            _load_lines(lines)

    def test_nan_sv_value(self, fitted):
        def edit(tokens):
            return " ".join([tokens[0].split(":")[0] + ":nan"] + tokens[1:])

        lines, number = self._sv_edit(fitted, edit)
        self._assert_rejected(lines, number, "non-finite SV value")

    def test_inf_coefficient(self, fitted):
        lines, number = self._edit(
            fitted, "svm ", lambda line: "inf " + " ".join(line.split()[1:]), offset=2
        )
        self._assert_rejected(lines, number, "non-finite .*coefficient")

    @pytest.mark.parametrize("field", [3, 4, 5])
    def test_non_finite_bias_or_sigmoid(self, fitted, field):
        def edit(line):
            tokens = line.split()
            tokens[field] = "-inf" if field == 3 else "nan"
            return " ".join(tokens)

        lines, number = self._edit(fitted, "svm ", edit)
        self._assert_rejected(lines, number, "non-finite .*bias or sigmoid")

    def test_non_finite_penalty(self, fitted):
        lines, number = self._edit(fitted, "penalty ", lambda _: "penalty nan")
        self._assert_rejected(lines, number, "non-finite penalty")

    def test_non_finite_kernel_parameter(self, fitted):
        lines, number = self._edit(
            fitted, "kernel ", lambda _: "kernel gaussian gamma inf"
        )
        self._assert_rejected(lines, number, "non-finite kernel parameter")

    def test_malformed_sv_token(self, fitted):
        lines, number = self._sv_edit(
            fitted, lambda tokens: " ".join(["abc"] + tokens[1:])
        )
        self._assert_rejected(lines, number, "")

    def test_malformed_pool_count(self, fitted):
        lines, number = self._edit(
            fitted, "n_pool ", lambda _: "n_pool 5 notanint"
        )
        self._assert_rejected(lines, number, "notanint")

    def test_duplicate_sv_column(self, fitted):
        lines, number = self._sv_edit(
            fitted, lambda tokens: " ".join(tokens + [tokens[0]])
        )
        self._assert_rejected(lines, number, "duplicate SV column")

    def test_out_of_range_sv_column(self, fitted):
        n_features = fitted[0].model_.n_features
        lines, number = self._sv_edit(
            fitted, lambda tokens: " ".join(tokens + [f"{n_features}:1.0"])
        )
        self._assert_rejected(lines, number, "SV column out of range")

    def test_missing_svm_field(self, fitted):
        lines, number = self._edit(
            fitted, "svm ", lambda line: " ".join(line.split()[:6])
        )
        self._assert_rejected(lines, number, "missing field")
