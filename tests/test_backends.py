"""Compute-backend selection, conformance gates and precision contract.

Gate policy (DESIGN.md §16): ``numpy64`` is held to **bitwise** parity
with the float64 reference implementation; ``numpy32`` is held to
accuracy **deltas** (probability L-infinity, argmax agreement) because a
float32 pipeline cannot — and should not promise to — reproduce float64
bit patterns.
"""

import io

import numpy as np
import pytest

import repro
from repro import GMPSVC, load_model, save_model
from repro.backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    ComputeBackend,
    Numpy32Backend,
    Numpy64Backend,
    resolve_backend,
)
from repro.backends import reference
from repro.cli import train_main
from repro.core.predictor import PredictorConfig, predict_proba_model
from repro.core.trainer import TrainerConfig
from repro.data import gaussian_blobs
from repro.exceptions import ModelFormatError, ValidationError
from repro.gpusim import make_engine, scaled_tesla_p100
from repro.sparse import CSRMatrix
from repro.sparse import ops as mops

IN_TREE_BACKENDS = ("numpy64", "numpy32")


def _random_operands(seed=0, m=37, n=23, f=12):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, f)), rng.standard_normal((n, f))


def _random_systems(seed=1, batch=5, k=4):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((batch, k, k))
    matrices = np.einsum("bij,bkj->bik", r, r) + 2.0 * np.eye(k)
    return matrices, np.ones(k)


class _DummyBackend(ComputeBackend):
    name = "dummy-f16"
    dtype = np.float16

    def matmul_transpose(self, a, b):
        return np.asarray(a) @ np.asarray(b).T

    def row_norms_sq(self, matrix):
        return np.einsum("ij,ij->i", matrix, matrix)

    def gaussian_elimination_batch(
        self, matrices, rhs, *, pivot_tolerance=1e-12, on_singular="raise"
    ):
        return reference.gaussian_elimination_batch(
            matrices, rhs,
            pivot_tolerance=pivot_tolerance, on_singular=on_singular,
        )

    def reduce_sum(self, values):
        return float(np.asarray(values).sum())


class TestRegistry:
    """The registry is the constant name-to-instance mapping ``BACKENDS``."""

    def test_in_tree_backends_registered(self):
        assert sorted(BACKENDS) == sorted(IN_TREE_BACKENDS)

    def test_get_backend_returns_singletons(self):
        assert resolve_backend("numpy64") is resolve_backend("numpy64")
        assert resolve_backend("numpy32") is BACKENDS["numpy32"]
        assert isinstance(resolve_backend("numpy64"), Numpy64Backend)
        assert isinstance(resolve_backend("numpy32"), Numpy32Backend)

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ValidationError) as info:
            resolve_backend("cuda13")
        for name in BACKENDS:
            assert name in str(info.value)

    def test_user_backend_registers_and_resolves(self):
        # A user backend is not added to the mapping; its instance is
        # accepted wherever a backend is.
        backend = _DummyBackend()
        assert resolve_backend(backend) is backend
        assert backend.name not in BACKENDS


class TestBackendSpec:
    """A backend is specified by its name string."""

    def test_default_is_reference(self):
        assert DEFAULT_BACKEND == "numpy64"
        assert isinstance(resolve_backend(DEFAULT_BACKEND), Numpy64Backend)

    def test_unknown_name_rejected_with_choices(self):
        with pytest.raises(ValidationError, match="numpy32"):
            resolve_backend("numpy16")


class TestResolveBackend:
    def test_none_is_default(self):
        assert resolve_backend(None) is BACKENDS[DEFAULT_BACKEND]
        assert isinstance(resolve_backend(None), Numpy64Backend)

    def test_name_and_spec_and_instance(self):
        assert resolve_backend("numpy32") is BACKENDS["numpy32"]
        unregistered = _DummyBackend()
        assert resolve_backend(unregistered) is unregistered

    def test_other_types_rejected(self):
        with pytest.raises(ValidationError, match="ComputeBackend"):
            resolve_backend(32)

    @pytest.mark.parametrize(
        "entry_point",
        (
            "TrainerConfig",
            "PredictorConfig",
            "GMPSVC.fit",
            "load_model",
            "resolve_backend",
        ),
    )
    def test_unknown_name_names_both_choices(self, entry_point, blobs, fitted64):
        x, y, _ = blobs
        text = io.StringIO()
        save_model(fitted64.model_, text)
        device = scaled_tesla_p100()
        calls = {
            "TrainerConfig": lambda: TrainerConfig(device=device, backend="numpy16"),
            "PredictorConfig": lambda: PredictorConfig(
                device=device, backend="numpy16"
            ),
            "GMPSVC.fit": lambda: GMPSVC(backend="numpy16").fit(x, y),
            "load_model": lambda: load_model(
                io.StringIO(text.getvalue()), backend="numpy16"
            ),
            "resolve_backend": lambda: resolve_backend("numpy16"),
        }
        with pytest.raises(ValidationError) as info:
            calls[entry_point]()
        assert "numpy32" in str(info.value)
        assert "numpy64" in str(info.value)

    def test_cli_rejects_unknown_name_with_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            train_main(["--backend", "numpy16", str(tmp_path / "train.svm")])
        assert info.value.code == 2
        assert "invalid choice: 'numpy16'" in capsys.readouterr().err


@pytest.mark.parametrize("name", IN_TREE_BACKENDS)
class TestConformance:
    """Every in-tree backend satisfies the primitive contract.

    The reference backend additionally matches
    :mod:`repro.backends.reference` bitwise; the float32 backend is
    checked against float32-rounding tolerances.
    """

    def test_matmul_transpose_dense(self, name):
        backend = BACKENDS[name]
        a, b = _random_operands()
        got = backend.matmul_transpose(a, b)
        expected = reference.matmul_transpose(a, b)
        assert got.shape == (a.shape[0], b.shape[0])
        if name == "numpy64":
            assert got.dtype == np.float64
            assert np.array_equal(got, expected)
        else:
            assert got.dtype == np.float32
            assert np.allclose(got, expected, atol=1e-4)

    def test_matmul_transpose_csr(self, name):
        backend = BACKENDS[name]
        a, b = _random_operands(seed=3)
        a[np.abs(a) < 0.8] = 0.0
        got = backend.matmul_transpose(CSRMatrix.from_dense(a), b)
        expected = reference.matmul_transpose(CSRMatrix.from_dense(a), b)
        assert got.dtype == backend.dtype
        if name == "numpy64":
            assert np.array_equal(got, expected)
        else:
            assert np.allclose(got, expected, atol=1e-4)

    def test_row_norms_sq(self, name):
        backend = BACKENDS[name]
        a, _ = _random_operands(seed=4)
        got = backend.row_norms_sq(a)
        expected = mops.row_norms_sq(a)
        assert got.dtype == backend.dtype
        if name == "numpy64":
            assert np.array_equal(got, expected)
        else:
            assert np.allclose(got, expected, rtol=1e-5)

    def test_gaussian_elimination_stays_float64(self, name):
        # The mixed-precision contract narrows storage, never the solve:
        # coupling systems are tiny and near-degenerate, so elimination
        # accumulates in float64 on every in-tree backend — bitwise.
        backend = BACKENDS[name]
        matrices, rhs = _random_systems()
        got = backend.gaussian_elimination_batch(matrices, rhs)
        assert got.dtype == np.float64
        assert np.array_equal(
            got, reference.gaussian_elimination_batch(matrices, rhs)
        )
        stacked = np.broadcast_to(rhs, got.shape)[..., None]
        assert np.allclose(got, np.linalg.solve(matrices, stacked)[..., 0])

    def test_gaussian_elimination_masks_singular(self, name):
        backend = BACKENDS[name]
        matrices, rhs = _random_systems(batch=3)
        matrices[1] = 0.0
        solved, singular = backend.gaussian_elimination_batch(
            matrices, rhs, on_singular="mask"
        )
        assert list(singular) == [False, True, False]
        assert np.all(np.isnan(solved[1]))

    def test_reduce_sum_accumulates_float64(self, name):
        backend = BACKENDS[name]
        values = np.full(10_000, 0.1, dtype=np.float32)
        got = backend.reduce_sum(values)
        assert isinstance(got, float)
        assert got == pytest.approx(1000.0, rel=1e-6)


@pytest.fixture(scope="module")
def blobs():
    x, y = gaussian_blobs(150, 6, 3, seed=2)
    x_test, _ = gaussian_blobs(600, 6, 3, seed=5)
    return x, y, x_test


@pytest.fixture(scope="module")
def fitted64(blobs):
    x, y, _ = blobs
    return GMPSVC(C=5.0, gamma=0.4, working_set_size=32).fit(x, y)


@pytest.fixture(scope="module")
def fitted32(blobs):
    x, y, _ = blobs
    return GMPSVC(
        C=5.0, gamma=0.4, working_set_size=32, backend="numpy32"
    ).fit(x, y)


class TestEndToEndGates:
    def test_numpy64_is_bitwise_the_default(self, blobs, fitted64):
        x, y, x_test = blobs
        explicit = GMPSVC(
            C=5.0, gamma=0.4, working_set_size=32, backend="numpy64"
        ).fit(x, y)
        assert np.array_equal(
            explicit.predict_proba(x_test), fitted64.predict_proba(x_test)
        )
        assert (
            explicit.training_report_.simulated_seconds
            == fitted64.training_report_.simulated_seconds
        )

    def test_numpy32_inference_within_delta_gates(self, blobs, fitted64):
        _, _, x_test = blobs
        model = fitted64.model_
        p_ref, report_ref = predict_proba_model(
            PredictorConfig(device=scaled_tesla_p100(), backend="numpy64"),
            model, x_test,
        )
        p_f32, report_f32 = predict_proba_model(
            PredictorConfig(device=scaled_tesla_p100(), backend="numpy32"),
            model, x_test,
        )
        assert np.max(np.abs(p_ref - p_f32)) <= 1e-3
        agreement = np.mean(
            np.argmax(p_ref, axis=1) == np.argmax(p_f32, axis=1)
        )
        assert agreement >= 0.999
        # The narrower path is also simulated-cheaper, same workload.
        assert report_f32.simulated_seconds < report_ref.simulated_seconds

    def test_numpy32_end_to_end_argmax_agreement(self, blobs, fitted64, fitted32):
        _, _, x_test = blobs
        labels64 = fitted64.predict(x_test)
        labels32 = fitted32.predict(x_test)
        assert np.mean(labels64 == labels32) >= 0.999

    def test_unknown_backend_names_the_choices(self, blobs):
        # Configs validate eagerly; the estimator follows the sklearn
        # convention (store in __init__, validate at fit).
        with pytest.raises(ValidationError, match="numpy64"):
            PredictorConfig(device=scaled_tesla_p100(), backend="numpy128")
        x, y, _ = blobs
        with pytest.raises(ValidationError, match="numpy64"):
            GMPSVC(backend="numpy128").fit(x, y)

    def test_get_set_params_round_trip(self, fitted32):
        params = fitted32.get_params()
        assert params["backend"] == "numpy32"
        clone = GMPSVC(**params)
        assert clone.get_params()["backend"] == "numpy32"
        est = GMPSVC()
        assert est.set_params(backend="numpy32") is est
        assert est.get_params()["backend"] == "numpy32"


class TestCostModelScaling:
    CHARGE = dict(
        flops=10**9, bytes_read=10**8, bytes_written=10**7, pcie_bytes=10**6
    )

    def test_reference_timeline_is_unscaled(self):
        # backend=None and backend="numpy64" produce the very same charge
        # (the scale factors are exactly 1.0 and skipped entirely).
        default = make_engine(scaled_tesla_p100())
        explicit = make_engine(scaled_tesla_p100(), backend="numpy64")
        assert default.backend is explicit.backend
        assert default.op_charge(**self.CHARGE) == explicit.op_charge(
            **self.CHARGE
        )

    def test_float32_charges_less_time(self):
        e64 = make_engine(scaled_tesla_p100())
        e32 = make_engine(scaled_tesla_p100(), backend="numpy32")
        c64 = e64.op_charge(**self.CHARGE)
        c32 = e32.op_charge(**self.CHARGE)
        assert c32.compute_s == pytest.approx(c64.compute_s / 2)
        # Launch latency is precision-independent.
        assert c32.latency_s == c64.latency_s
        latency_only = dict(flops=0, launches=3)
        assert e32.op_charge(**latency_only) == e64.op_charge(**latency_only)

    def test_counters_record_unscaled_logical_work(self):
        # Counters tally what the algorithm asked for; the precision
        # scales apply to *time*, not to the audit trail.
        e32 = make_engine(scaled_tesla_p100(), backend="numpy32")
        e32.charge("test", **self.CHARGE)
        assert e32.counters.flops == self.CHARGE["flops"]
        assert e32.counters.bytes_read == self.CHARGE["bytes_read"]
        assert e32.counters.pcie_bytes == self.CHARGE["pcie_bytes"]


class TestPersistenceBackendHeader:
    def _save_text(self, model):
        buffer = io.StringIO()
        save_model(model, buffer)
        return buffer.getvalue()

    def test_header_records_backend_and_dtype(self, fitted64, fitted32):
        assert "backend numpy64 float64\n" in self._save_text(fitted64.model_)
        assert "backend numpy32 float32\n" in self._save_text(fitted32.model_)

    def test_float64_model_round_trips_by_default(self, fitted64):
        text = self._save_text(fitted64.model_)
        model = load_model(io.StringIO(text))
        assert model.metadata == {"backend": "numpy64", "dtype": "float64"}

    def test_float32_model_refuses_silent_reinterpretation(self, fitted32):
        text = self._save_text(fitted32.model_)
        with pytest.raises(ModelFormatError, match="numpy32"):
            load_model(io.StringIO(text))
        with pytest.raises(ModelFormatError, match="float32"):
            load_model(io.StringIO(text), backend="numpy64")

    def test_float32_model_loads_under_matching_backend(self, blobs, fitted32):
        _, _, x_test = blobs
        text = self._save_text(fitted32.model_)
        model = load_model(io.StringIO(text), backend="numpy32")
        assert model.metadata == {"backend": "numpy32", "dtype": "float32"}
        # Any float32 backend instance qualifies, not only the name.
        loaded = load_model(io.StringIO(text), backend=Numpy32Backend())
        p_direct, _ = predict_proba_model(
            PredictorConfig(device=scaled_tesla_p100(), backend="numpy32"),
            fitted32.model_, x_test,
        )
        p_loaded, _ = predict_proba_model(
            PredictorConfig(device=scaled_tesla_p100(), backend="numpy32"),
            loaded, x_test,
        )
        # Bitwise: a dense pool reloads dense, so both models take the
        # same single-SGEMM path on the same values.
        assert np.array_equal(p_direct, p_loaded)

    def test_float64_model_loads_under_any_backend(self, fitted64):
        # Widening is safe: a float64-trained model can run under the
        # float32 fast path (the delta gates cover the precision loss).
        text = self._save_text(fitted64.model_)
        model = load_model(io.StringIO(text), backend="numpy32")
        assert model.metadata["dtype"] == "float64"

    def test_pre_backend_files_load_as_reference(self, fitted64):
        # Files written before the backend header existed were all
        # trained by the float64 reference; dropping the line simulates
        # such a file.
        lines = self._save_text(fitted64.model_).splitlines(keepends=True)
        legacy = "".join(
            line for line in lines if not line.startswith("backend ")
        )
        assert "backend " not in legacy
        model = load_model(io.StringIO(legacy))
        assert model.metadata == {"backend": "numpy64", "dtype": "float64"}
        with pytest.raises(ModelFormatError):
            # The guard never blocks legacy float64 files...
            load_model(io.StringIO("repro-mpsvm 2\n"))
        # ...and widening them is allowed too.
        assert (
            load_model(io.StringIO(legacy), backend="numpy32").metadata["dtype"]
            == "float64"
        )

    def test_malformed_backend_line_rejected(self, fitted64):
        text = self._save_text(fitted64.model_).replace(
            "backend numpy64 float64", "backend numpy64"
        )
        with pytest.raises(ModelFormatError, match="backend"):
            load_model(io.StringIO(text))


class TestPublicSurface:
    def test_compute_backend_exported_at_top_level(self):
        assert repro.ComputeBackend is ComputeBackend
