"""Snapshot of the stable public API surface.

``repro.__all__`` is a contract: additions are deliberate (update the
snapshot here in the same change), removals and signature changes are
breaking.  The deep-import paths the names come from stay importable as
implementation detail — the shim assertions below pin the aliasing.
"""

import inspect

import pytest

import repro

# The exact exported-name set.  Keep sorted; a failure here means the
# public surface changed — update this snapshot *deliberately*, in the
# same change, with a CHANGES.md note.
PUBLIC_API = [
    "CSRMatrix",
    "CascadeConfig",
    "CheckpointError",
    "ClusterSpec",
    "ComputeBackend",
    "ConvergenceWarning",
    "DeviceLostError",
    "DeviceMemoryError",
    "FaultInjector",
    "FaultPlan",
    "GMPSVC",
    "InferenceSession",
    "ModelFormatError",
    "ModelRegistry",
    "NotFittedError",
    "PredictorConfig",
    "RegistryError",
    "RegistryWatcher",
    "ReproError",
    "ServerApp",
    "SolverError",
    "SparseFormatError",
    "TenantPolicy",
    "Tracer",
    "TrainerConfig",
    "ValidationError",
    "__version__",
    "dump_libsvm",
    "load_libsvm",
    "load_model",
    "save_model",
    "train_cascade",
    "train_multiclass_sharded",
]


def _params(callable_obj):
    return [
        name
        for name in inspect.signature(callable_obj).parameters
        if name != "self"
    ]


class TestSurface:
    def test_all_is_exact(self):
        assert sorted(repro.__all__) == PUBLIC_API
        assert repro.__all__ == sorted(repro.__all__)

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version_is_pep440ish(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))


class TestSignatures:
    def test_gmpsvc_constructor(self):
        names = _params(repro.GMPSVC.__init__)
        # Leading positional-or-keyword parameters, in order.
        assert names[:5] == ["C", "kernel", "gamma", "degree", "coef0"]
        # Paper-system knobs that scripts rely on by keyword.
        for key in (
            "probability",
            "decomposition",
            "working_set_size",
            "share_kernel_values",
            "share_support_vectors",
            "concurrent_svms",
            "coupling_method",
            "backend",
            "device",
        ):
            assert key in names

    def test_gmpsvc_estimator_methods(self):
        for method in (
            "fit",
            "predict",
            "predict_proba",
            "decision_function",
            "score",
            "get_params",
            "set_params",
            "save",
        ):
            assert callable(getattr(repro.GMPSVC, method))

    def test_session_surface(self):
        assert _params(repro.InferenceSession.__init__) == [
            "model",
            "config",
            "tile_cache_entries",
        ]
        for method in ("predict", "predict_proba", "decision_function"):
            assert callable(getattr(repro.InferenceSession, method))
        assert callable(repro.InferenceSession.from_estimator)

    def test_server_surface(self):
        assert _params(repro.ServerApp.__init__) == [
            "dispatcher",
            "arrival_mode",
            "watcher",
        ]
        for method in ("handle_request", "stats_snapshot", "wsgi"):
            assert callable(getattr(repro.ServerApp, method))
        assert _params(repro.TenantPolicy.__init__) == [
            "rate_per_s",
            "burst",
            "max_queue",
            "max_retry_after_s",
        ]

    def test_registry_surface(self):
        assert _params(repro.ModelRegistry.__init__) == ["root"]
        for method in (
            "publish",
            "load",
            "latest",
            "get",
            "versions",
            "lineage",
        ):
            assert callable(getattr(repro.ModelRegistry, method))
        assert _params(repro.RegistryWatcher.__init__) == [
            "registry",
            "start_version",
            "min_interval_s",
            "clock",
        ]
        assert callable(repro.RegistryWatcher.poll)

    def test_sharded_trainer_signature(self):
        assert _params(repro.train_multiclass_sharded) == [
            "config",
            "cluster",
            "data",
            "y",
            "kernel",
            "penalty",
            "placement",
            "fault_plan",
            "checkpoint_every",
            "checkpoint_dir",
        ]

    def test_cascade_surface(self):
        assert _params(repro.train_cascade) == [
            "config",
            "cluster",
            "data",
            "y",
            "kernel",
            "penalty",
            "cascade",
            "fault_plan",
            "checkpoint_every",
            "checkpoint_dir",
        ]
        cfg = repro.CascadeConfig()
        assert cfg.n_shards == 4
        assert cfg.threshold == 2048
        with pytest.raises(repro.ValidationError, match="no_such_option"):
            repro.CascadeConfig(no_such_option=1)

    def test_fault_surface(self):
        assert _params(repro.FaultPlan.__init__) == [
            "stragglers",
            "losses",
            "link_faults",
            "seed",
        ]
        assert callable(repro.FaultPlan.random)
        assert _params(repro.FaultInjector.__init__) == ["plan", "n_devices"]
        for method in ("straggler_rate", "loss_time", "check_device"):
            assert callable(getattr(repro.FaultInjector, method))

    def test_persistence_signatures(self):
        assert _params(repro.save_model) == ["model", "target"]
        assert _params(repro.load_model) == ["source", "backend"]

    def test_config_constructors_are_strict(self):
        for cls in (repro.TrainerConfig, repro.PredictorConfig):
            with pytest.raises(repro.ValidationError, match="no_such_option"):
                cls(device=None, no_such_option=1)

    def test_exception_taxonomy(self):
        assert issubclass(repro.ValidationError, ValueError)
        assert issubclass(repro.ModelFormatError, ValueError)
        assert issubclass(repro.NotFittedError, RuntimeError)
        for name in (
            "ValidationError",
            "ModelFormatError",
            "NotFittedError",
            "SolverError",
            "SparseFormatError",
            "DeviceMemoryError",
            "DeviceLostError",
            "CheckpointError",
        ):
            assert issubclass(getattr(repro, name), repro.ReproError)


class TestDeepImportShims:
    """Old deep-import paths resolve to the very same objects."""

    def test_core_aliases(self):
        from repro.core.gmp import GMPSVC
        from repro.core.predictor import PredictorConfig
        from repro.core.trainer import TrainerConfig

        assert GMPSVC is repro.GMPSVC
        assert PredictorConfig is repro.PredictorConfig
        assert TrainerConfig is repro.TrainerConfig

    def test_serving_aliases(self):
        from repro.serving import InferenceSession
        from repro.serving.session import InferenceSession as DeepSession

        assert InferenceSession is repro.InferenceSession is DeepSession

    def test_model_and_sparse_aliases(self):
        from repro.model.persistence import load_model, save_model
        from repro.sparse import CSRMatrix
        from repro.telemetry import Tracer

        assert save_model is repro.save_model
        assert load_model is repro.load_model
        assert CSRMatrix is repro.CSRMatrix
        assert Tracer is repro.Tracer

    def test_distributed_aliases(self):
        from repro.distributed import ClusterSpec, train_multiclass_sharded

        assert ClusterSpec is repro.ClusterSpec
        assert train_multiclass_sharded is repro.train_multiclass_sharded

    def test_cascade_aliases(self):
        from repro.cascade import CascadeConfig, train_cascade

        assert CascadeConfig is repro.CascadeConfig
        assert train_cascade is repro.train_cascade

    def test_server_aliases(self):
        from repro.server import ServerApp, TenantPolicy
        from repro.server.admission import TenantPolicy as DeepPolicy
        from repro.server.app import ServerApp as DeepApp

        assert ServerApp is repro.ServerApp is DeepApp
        assert TenantPolicy is repro.TenantPolicy is DeepPolicy

    def test_exception_aliases(self):
        from repro.exceptions import ReproError, ValidationError

        assert ReproError is repro.ReproError
        assert ValidationError is repro.ValidationError


class TestGetSetParams:
    def test_round_trip_trains_identically(self):
        import numpy as np

        from repro.data import gaussian_blobs

        x, y = gaussian_blobs(120, 4, 3, seed=3)
        a = repro.GMPSVC(C=5.0, gamma=0.5, working_set_size=32).fit(x, y)
        b = repro.GMPSVC(**a.get_params()).fit(x, y)
        assert np.array_equal(a.predict_proba(x), b.predict_proba(x))

    def test_set_params_returns_self_and_applies(self):
        est = repro.GMPSVC()
        assert est.set_params(C=7.0, gamma=0.1) is est
        assert est.get_params()["C"] == 7.0
        assert est.get_params()["gamma"] == 0.1

    def test_unknown_key_named_in_error(self):
        with pytest.raises(repro.ValidationError, match="bogus_key"):
            repro.GMPSVC().set_params(bogus_key=1)

    def test_get_params_covers_constructor(self):
        est = repro.GMPSVC()
        assert sorted(est.get_params()) == sorted(_params(repro.GMPSVC.__init__))
