"""Model registry, watcher polling, and zero-downtime hot swap."""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro import GMPSVC
from repro.data import gaussian_blobs
from repro.exceptions import RegistryError, ValidationError
from repro.registry import ModelRegistry, RegistryWatcher
from repro.server import Dispatcher, ServerApp
from repro.server import protocol
from repro.server.app import _http_server
from repro.serving import InferenceSession


@pytest.fixture(scope="module")
def models():
    x, y = gaussian_blobs(150, 5, 3, seed=0)
    a = GMPSVC(C=1.0, gamma=0.5, working_set_size=32).fit(x, y).model_
    b = GMPSVC(C=2.0, gamma=0.5, working_set_size=32).fit(x, y).model_
    return a, b, np.asarray(x)


def _post_body(rows):
    return json.dumps(
        {"instances": protocol.encode_matrix(np.asarray(rows))}
    ).encode("utf-8")


class TestRegistryStore:
    def test_publish_assigns_monotonic_versions(self, models, tmp_path):
        a, b, _ = models
        reg = ModelRegistry(tmp_path / "reg")
        assert reg.latest() is None
        v1 = reg.publish(a)
        v2 = reg.publish(b)
        assert (v1.version, v2.version) == (1, 2)
        assert reg.latest().version == 2
        assert [v.version for v in reg.versions()] == [1, 2]

    def test_artifacts_are_content_addressed(self, models, tmp_path):
        a, b, _ = models
        reg = ModelRegistry(tmp_path / "reg")
        v1 = reg.publish(a)
        v2 = reg.publish(b)
        v3 = reg.publish(a)  # same bytes as v1
        assert v1.artifact != v2.artifact
        assert v3.artifact == v1.artifact  # deduplicated
        assert v3.version == 3  # but still a new version
        assert len(list((tmp_path / "reg" / "artifacts").iterdir())) == 2

    def test_load_roundtrips_and_verifies(self, models, tmp_path):
        a, _, x = models
        reg = ModelRegistry(tmp_path / "reg")
        entry = reg.publish(a, metadata={"note": "first"})
        model, loaded = reg.load()
        assert loaded.version == entry.version
        assert loaded.metadata == {"note": "first"}
        sa = InferenceSession(a)
        sb = InferenceSession(model)
        assert np.allclose(
            sa.predict_proba(x[:5]), sb.predict_proba(x[:5]), atol=1e-12
        )

    def test_tampered_artifact_rejected(self, models, tmp_path):
        a, _, _ = models
        reg = ModelRegistry(tmp_path / "reg")
        entry = reg.publish(a)
        path = reg.root / entry.artifact
        path.write_bytes(path.read_bytes() + b"# trailing garbage\n")
        with pytest.raises(RegistryError, match="hash mismatch"):
            reg.load(entry.version)

    def test_missing_artifact_rejected(self, models, tmp_path):
        a, _, _ = models
        reg = ModelRegistry(tmp_path / "reg")
        entry = reg.publish(a)
        (reg.root / entry.artifact).unlink()
        with pytest.raises(RegistryError, match="artifact missing"):
            reg.load(entry.version)

    def test_unknown_version_rejected(self, models, tmp_path):
        reg = ModelRegistry(tmp_path / "reg")
        with pytest.raises(RegistryError, match="registry is empty"):
            reg.load()
        reg.publish(models[0])
        with pytest.raises(RegistryError, match="version 9"):
            reg.get(9)

    def test_corrupt_manifest_rejected(self, models, tmp_path):
        reg = ModelRegistry(tmp_path / "reg")
        reg.publish(models[0])
        reg.manifest_path.write_text("{not json", encoding="utf-8")
        with pytest.raises(RegistryError, match="JSON"):
            reg.latest()

    def test_lineage_chain(self, models, tmp_path):
        a, b, _ = models
        reg = ModelRegistry(tmp_path / "reg")
        v1 = reg.publish(a)
        v2 = reg.publish(b, parent=v1.version)
        v3 = reg.publish(a, parent=v2.version)
        assert reg.lineage(v3.version) == [3, 2, 1]
        assert reg.lineage(v1.version) == [1]

    def test_unknown_parent_rejected(self, models, tmp_path):
        reg = ModelRegistry(tmp_path / "reg")
        with pytest.raises(RegistryError, match="parent"):
            reg.publish(models[0], parent=7)

    def test_reopen_preserves_state(self, models, tmp_path):
        a, _, _ = models
        ModelRegistry(tmp_path / "reg").publish(a)
        reopened = ModelRegistry(tmp_path / "reg")
        assert reopened.latest().version == 1


class TestWatcher:
    def test_delivers_each_version_once(self, models, tmp_path):
        a, b, _ = models
        reg = ModelRegistry(tmp_path / "reg")
        t = [0.0]
        watcher = RegistryWatcher(
            reg, min_interval_s=0.0, clock=lambda: t[0]
        )
        assert watcher.poll() is None  # empty registry
        reg.publish(a)
        got = watcher.poll()
        assert got is not None and got[1].version == 1
        assert watcher.poll() is None  # no new version
        reg.publish(b)
        assert watcher.poll()[1].version == 2

    def test_min_interval_rate_limits(self, models, tmp_path):
        reg = ModelRegistry(tmp_path / "reg")
        reg.publish(models[0])
        t = [0.0]
        watcher = RegistryWatcher(
            reg, min_interval_s=5.0, clock=lambda: t[0]
        )
        assert watcher.poll() is not None
        t[0] += 4.9
        assert watcher.poll() is None
        assert watcher.n_polls == 1  # second call never reached the stat

    def test_start_version_skips_already_served(self, models, tmp_path):
        reg = ModelRegistry(tmp_path / "reg")
        entry = reg.publish(models[0])
        watcher = RegistryWatcher(
            reg, start_version=entry.version, min_interval_s=0.0
        )
        assert watcher.poll() is None

    def test_mtime_fast_path_skips_manifest_reads(self, models, tmp_path):
        reg = ModelRegistry(tmp_path / "reg")
        reg.publish(models[0])
        watcher = RegistryWatcher(reg, min_interval_s=0.0)
        watcher.poll()
        for _ in range(5):
            watcher.poll()
        assert watcher.n_manifest_reads == 1

    def test_manifest_deleted_mid_watch_is_clean_error_then_recovers(
        self, models, tmp_path
    ):
        """Regression: a vanished manifest surfaces as RegistryError (the
        caller keeps serving the old model) and a restored manifest
        delivers the pending version on the next poll — never a silent
        skip, never a raw FileNotFoundError."""
        a, b, _ = models
        reg = ModelRegistry(tmp_path / "reg")
        reg.publish(a)
        watcher = RegistryWatcher(reg, min_interval_s=0.0)
        assert watcher.poll()[1].version == 1

        reg.publish(b)
        saved = reg.manifest_path.read_bytes()
        reg.manifest_path.unlink()
        with pytest.raises(RegistryError, match="manifest"):
            watcher.poll()
        assert watcher.last_version == 1  # old model stays current

        reg.manifest_path.write_bytes(saved)
        got = watcher.poll()
        assert got is not None and got[1].version == 2

    def test_transient_read_failure_retries_on_next_poll(
        self, models, tmp_path, monkeypatch
    ):
        """Regression: the manifest mtime is committed only after a
        successful read, so a poll that fails mid-read does not swallow
        the version it was about to deliver."""
        a, b, _ = models
        reg = ModelRegistry(tmp_path / "reg")
        reg.publish(a)
        watcher = RegistryWatcher(reg, min_interval_s=0.0)
        assert watcher.poll()[1].version == 1

        reg.publish(b)
        real_latest = reg.latest

        def vanishing_latest():
            monkeypatch.setattr(reg, "latest", real_latest)
            raise RegistryError("manifest vanished mid-read")

        monkeypatch.setattr(reg, "latest", vanishing_latest)
        with pytest.raises(RegistryError, match="mid-read"):
            watcher.poll()
        assert watcher.last_version == 1
        # The failed poll did not advance the mtime watermark: the next
        # poll re-reads and delivers version 2 instead of skipping it.
        got = watcher.poll()
        assert got is not None and got[1].version == 2


class TestHotSwap:
    def _request_stream(self, n=40, seed=3):
        rng = np.random.default_rng(seed)
        rows = [rng.normal(size=(int(rng.integers(1, 4)), 5)) for _ in range(n)]
        arrivals = np.cumsum(rng.uniform(0.001, 0.01, size=n))
        return rows, arrivals

    def test_swap_is_bitwise_equal_to_cold_restart(self, models):
        """Acceptance: hot-swap under live traffic serves exactly what a
        cold restart of the right model would, with zero failed requests."""
        a, b, _ = models
        rows, arrivals = self._request_stream()
        swap_at = arrivals[19]

        dispatcher = Dispatcher(InferenceSession(a), n_workers=2, max_batch=8)
        handles, swapped = [], False
        for data, t in zip(rows, arrivals):
            if not swapped and t > swap_at:
                dispatcher.swap_model(InferenceSession(b), label="v2")
                swapped = True
            handles.append(
                dispatcher.submit(data, arrival_s=max(t, dispatcher.now_s))
            )
        dispatcher.drain()

        assert all(h.done and not h.shed for h in handles)  # zero failed
        swap_s = dispatcher.swaps[0].requested_s
        for handle, data in zip(handles, rows):
            served_by = a if handle.arrival_s <= swap_s else b
            cold = InferenceSession(served_by).predict_proba(np.asarray(data))
            assert np.array_equal(handle.result, cold)

    def test_swap_drains_queued_requests_on_old_model(self, models):
        a, b, _ = models
        rng = np.random.default_rng(7)
        dispatcher = Dispatcher(InferenceSession(a), n_workers=1, max_batch=1)
        # Pile up a queue: all requests arrive at t=0 on one worker.
        handles = [
            dispatcher.submit(rng.normal(size=(1, 5)), arrival_s=0.0)
            for _ in range(6)
        ]
        assert dispatcher.n_queued > 0
        report = dispatcher.swap_model(InferenceSession(b), label="v2")
        assert report.drained_requests > 0
        assert report.window_s > 0
        cold_a = InferenceSession(a)
        for handle in handles:
            assert handle.done and not handle.shed
            expected = cold_a.predict_proba(np.asarray(handle.data))
            assert np.array_equal(handle.result, expected)

    def test_swap_validates_feature_count(self, models):
        a, _, _ = models
        x, y = gaussian_blobs(80, 4, 3, seed=1)
        other = GMPSVC(C=1.0, gamma=0.5, working_set_size=32).fit(x, y).model_
        dispatcher = Dispatcher(InferenceSession(a), n_workers=1)
        with pytest.raises(ValidationError, match="features"):
            dispatcher.swap_model(InferenceSession(other))

    def test_swap_requires_sealed_session(self, models):
        a, b, _ = models
        dispatcher = Dispatcher(InferenceSession(a), n_workers=1)
        with pytest.raises(ValidationError, match="InferenceSession"):
            dispatcher.swap_model(b)  # bare model, not a session


class TestServerIntegration:
    def test_watcher_driven_swap_through_http(self, models, tmp_path):
        a, b, x = models
        reg = ModelRegistry(tmp_path / "reg")
        v1 = reg.publish(a)
        watcher = RegistryWatcher(
            reg, start_version=v1.version, min_interval_s=0.0
        )
        app = ServerApp(
            Dispatcher(InferenceSession(a), n_workers=2), watcher=watcher
        )
        body = _post_body(x[:2])

        status1, _, body1 = app.handle_request(
            "POST", "/v1/predict_proba", body
        )
        v2 = reg.publish(b, parent=v1.version)
        status2, _, body2 = app.handle_request(
            "POST", "/v1/predict_proba", body
        )
        assert status1 == status2 == 200
        assert app.n_swaps == 1 and app.n_swap_errors == 0
        result1 = protocol.decode_array(json.loads(body1)["result"])
        result2 = protocol.decode_array(json.loads(body2)["result"])
        assert np.array_equal(
            result1, InferenceSession(a).predict_proba(x[:2])
        )
        # The cold-restart comparator loads from the registry too — that
        # is exactly what a restarted server would serve.
        cold_model, _ = reg.load(v2.version)
        assert np.array_equal(
            result2, InferenceSession(cold_model).predict_proba(x[:2])
        )

    def test_corrupt_registry_keeps_serving_old_model(
        self, models, tmp_path
    ):
        a, b, x = models
        reg = ModelRegistry(tmp_path / "reg")
        v1 = reg.publish(a)
        watcher = RegistryWatcher(
            reg, start_version=v1.version, min_interval_s=0.0
        )
        app = ServerApp(
            Dispatcher(InferenceSession(a), n_workers=2), watcher=watcher
        )
        entry = reg.publish(b)
        (reg.root / entry.artifact).write_bytes(b"garbage")
        status, _, body = app.handle_request(
            "POST", "/v1/predict_proba", _post_body(x[:2])
        )
        assert status == 200  # request still served
        assert app.n_swaps == 0 and app.n_swap_errors == 1
        result = protocol.decode_array(json.loads(body)["result"])
        assert np.array_equal(
            result, InferenceSession(a).predict_proba(x[:2])
        )

    def test_stats_snapshot_reports_swaps(self, models, tmp_path):
        a, b, _ = models
        reg = ModelRegistry(tmp_path / "reg")
        v1 = reg.publish(a)
        watcher = RegistryWatcher(
            reg, start_version=v1.version, min_interval_s=0.0
        )
        app = ServerApp(
            Dispatcher(InferenceSession(a), n_workers=1), watcher=watcher
        )
        reg.publish(b)
        app.handle_request("GET", "/healthz")
        snapshot = app.stats_snapshot()
        assert snapshot["n_swaps"] == 1
        assert snapshot["n_swap_errors"] == 0

    def test_swap_under_concurrent_socket_load(self, models, tmp_path):
        # Clients keep posting over a real socket while v2 is published:
        # the swap lands between groups and no request fails.
        a, b, x = models
        reg = ModelRegistry(tmp_path / "reg")
        v1 = reg.publish(a)
        watcher = RegistryWatcher(
            reg, start_version=v1.version, min_interval_s=0.0
        )
        app = ServerApp(
            Dispatcher(InferenceSession(a), n_workers=2),
            arrival_mode="wall",
            watcher=watcher,
        )
        server = _http_server(app, ("127.0.0.1", 0))
        threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        ).start()
        url = f"http://127.0.0.1:{server.server_address[1]}/v1/predict_proba"
        body = _post_body(x[:2])
        responses, stop = [], threading.Event()

        def client():
            while not stop.is_set() and len(responses) < 400:
                request = urllib.request.Request(url, data=body)
                with urllib.request.urlopen(request, timeout=30) as response:
                    responses.append((response.status, response.read()))

        clients = [threading.Thread(target=client, daemon=True) for _ in range(4)]
        try:
            for thread in clients:
                thread.start()
            _wait_until(lambda: len(responses) >= 8)
            v2 = reg.publish(b, parent=v1.version)
            _wait_until(lambda: app.n_swaps == 1)
            swapped_at = len(responses)
            _wait_until(lambda: len(responses) >= swapped_at + 8)
        finally:
            stop.set()
            for thread in clients:
                thread.join(30)
            server.shutdown()
            server.server_close()

        assert not any(thread.is_alive() for thread in clients)
        assert app.n_swaps == 1 and app.n_swap_errors == 0
        old = InferenceSession(a).predict_proba(x[:2]).tobytes()
        new = InferenceSession(reg.load(v2.version)[0]).predict_proba(x[:2])
        served = [
            protocol.decode_array(json.loads(payload)["result"]).tobytes()
            for status, payload in responses
            if status == 200
        ]
        assert len(served) == len(responses)
        assert set(served) == {old, new.tobytes()}
        stats = app.stats_snapshot()
        assert stats["offered"] == stats["admitted"] == len(responses)


def _wait_until(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.002)
