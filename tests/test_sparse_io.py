"""Unit tests for LibSVM text-format I/O."""

import io

import numpy as np
import pytest

from repro.exceptions import SparseFormatError
from repro.sparse import CSRMatrix, dump_libsvm, load_libsvm


def roundtrip(matrix, labels, **kwargs):
    buffer = io.StringIO()
    dump_libsvm(matrix, labels, buffer, **kwargs)
    buffer.seek(0)
    return load_libsvm(buffer, n_features=matrix.shape[1], **kwargs)


class TestLoad:
    def test_basic_parse(self):
        text = "1 1:0.5 3:2.0\n-1 2:1.5\n"
        matrix, labels = load_libsvm(io.StringIO(text))
        assert labels.tolist() == [1.0, -1.0]
        assert matrix.shape == (2, 3)
        assert matrix.toarray().tolist() == [[0.5, 0.0, 2.0], [0.0, 1.5, 0.0]]

    def test_comments_and_blank_lines(self):
        text = "# header comment\n1 1:2.0  # trailing\n\n-1 1:3.0\n"
        matrix, labels = load_libsvm(io.StringIO(text))
        assert matrix.shape == (2, 1)
        assert labels.tolist() == [1.0, -1.0]

    def test_unsorted_indices_canonicalised(self):
        matrix, _ = load_libsvm(io.StringIO("1 3:3.0 1:1.0\n"))
        cols, vals = matrix.row(0)
        assert cols.tolist() == [0, 2]
        assert vals.tolist() == [1.0, 3.0]

    def test_zero_based_mode(self):
        matrix, _ = load_libsvm(io.StringIO("1 0:7.0\n"), zero_based=True)
        assert matrix.toarray()[0, 0] == 7.0

    def test_one_based_index_zero_rejected(self):
        with pytest.raises(SparseFormatError, match="below"):
            load_libsvm(io.StringIO("1 0:7.0\n"))

    def test_bad_label(self):
        with pytest.raises(SparseFormatError, match="bad label"):
            load_libsvm(io.StringIO("spam 1:1.0\n"))

    def test_bad_feature(self):
        with pytest.raises(SparseFormatError, match="bad feature"):
            load_libsvm(io.StringIO("1 1=1.0\n"))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1 1:nan\n", "line 1: non-finite value in feature '1:nan'"),
            ("1 1:1\ninf 1:1\n", "line 2: non-finite label 'inf'"),
            ("1 2:1 1:1e400\n", "line 1: non-finite value in feature '1:1e400'"),
        ],
        ids=["nan_value", "inf_label", "overflow_value"],
    )
    def test_non_finite_rejected(self, text, message):
        with pytest.raises(SparseFormatError) as info:
            load_libsvm(io.StringIO(text))
        assert message in str(info.value)

    def test_n_features_too_small(self):
        with pytest.raises(SparseFormatError, match="exceeds"):
            load_libsvm(io.StringIO("1 5:1.0\n"), n_features=2)

    def test_n_features_padding(self):
        matrix, _ = load_libsvm(io.StringIO("1 1:1.0\n"), n_features=10)
        assert matrix.shape == (1, 10)

    def test_instance_with_no_features(self):
        matrix, labels = load_libsvm(io.StringIO("2\n3 1:1.0\n"))
        assert matrix.shape == (2, 1)
        assert labels.tolist() == [2.0, 3.0]

    def test_file_path_roundtrip(self, tmp_path, rng):
        dense = rng.normal(size=(5, 4)) * (rng.random((5, 4)) < 0.5)
        matrix = CSRMatrix.from_dense(dense)
        labels = np.arange(5.0)
        path = tmp_path / "data.svm"
        dump_libsvm(matrix, labels, path)
        loaded, loaded_labels = load_libsvm(path, n_features=4)
        assert loaded.allclose(matrix)
        assert np.array_equal(loaded_labels, labels)


class TestDump:
    def test_roundtrip_preserves_values(self, csr_matrix):
        labels = np.arange(csr_matrix.shape[0], dtype=np.float64)
        loaded, loaded_labels = roundtrip(csr_matrix, labels)
        assert loaded.allclose(csr_matrix)
        assert np.array_equal(loaded_labels, labels)

    def test_roundtrip_zero_based(self, csr_matrix):
        labels = np.ones(csr_matrix.shape[0])
        loaded, _ = roundtrip(csr_matrix, labels, zero_based=True)
        assert loaded.allclose(csr_matrix)

    def test_label_count_mismatch(self, csr_matrix):
        with pytest.raises(SparseFormatError):
            dump_libsvm(csr_matrix, [1.0], io.StringIO())

    def test_full_precision(self):
        matrix = CSRMatrix.from_dense(np.array([[1.0 / 3.0]]))
        loaded, _ = roundtrip(matrix, [1.0])
        assert loaded.data[0] == matrix.data[0]
