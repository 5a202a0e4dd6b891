"""Unit tests for the repro-train / repro-predict command-line tools."""

import json
import re
import threading
import urllib.request

import numpy as np
import pytest

from repro.cli import predict_main, serve_bench_main, serve_main, train_main
from repro.data import gaussian_blobs
from repro.sparse import CSRMatrix, dump_libsvm


@pytest.fixture
def svm_files(tmp_path, rng):
    """A small 3-class train/test pair in LibSVM format."""
    x, y = gaussian_blobs(180, 5, 3, seed=10)
    train = tmp_path / "train.svm"
    test = tmp_path / "test.svm"
    dump_libsvm(CSRMatrix.from_dense(x[:140]), y[:140], train)
    dump_libsvm(CSRMatrix.from_dense(x[140:]), y[140:], test)
    return train, test, tmp_path


def _serve_in_thread(monkeypatch, argv):
    """Run ``serve_main(argv)`` in a thread once its socket is bound.

    Returns ``(port, thread, result)``; ``result["code"]`` is the exit
    code once the thread ends.
    """
    import repro.server

    ready = threading.Event()
    bound = {}
    real_serve_http = repro.server.serve_http

    def capture_port(app, host, port, **kwargs):
        inner = kwargs.get("ready_callback")

        def on_ready(bound_host, bound_port):
            bound["port"] = bound_port
            ready.set()
            if inner is not None:
                inner(bound_host, bound_port)

        kwargs["ready_callback"] = on_ready
        return real_serve_http(app, host, port, **kwargs)

    monkeypatch.setattr(repro.server, "serve_http", capture_port)
    result = {}
    thread = threading.Thread(
        target=lambda: result.setdefault("code", serve_main(argv)), daemon=True
    )
    thread.start()
    assert ready.wait(timeout=60)
    return bound["port"], thread, result


class TestTrain:
    def test_trains_and_saves_model(self, svm_files, capsys):
        train, _, tmp = svm_files
        model_path = tmp / "out.model"
        code = train_main(["-c", "10", "-g", "0.4", str(train), str(model_path)])
        assert code == 0
        assert model_path.exists()
        out = capsys.readouterr().out
        assert "3 binary SVM(s)" in out
        assert "3 classes" in out

    def test_default_model_path(self, svm_files):
        train, _, __ = svm_files
        assert train_main(["-q", str(train)]) == 0
        assert train.with_suffix(".svm.model").exists()

    def test_report_flag(self, svm_files, capsys):
        train, _, tmp = svm_files
        code = train_main(
            ["--report", "-c", "10", "-g", "0.4", str(train), str(tmp / "m")]
        )
        assert code == 0
        assert "kernel_values" in capsys.readouterr().out

    @pytest.mark.parametrize("system", ["libsvm", "gpu-baseline", "cmp-svm"])
    def test_alternative_systems(self, svm_files, system, tmp_path):
        train, _, __ = svm_files
        model = tmp_path / f"{system}.model"
        code = train_main(
            ["-q", "--system", system, "-c", "10", "-g", "0.4", str(train), str(model)]
        )
        assert code == 0 and model.exists()

    def test_kernel_type_flag(self, svm_files, tmp_path):
        train, _, __ = svm_files
        model = tmp_path / "linear.model"
        assert train_main(["-q", "-t", "0", "-c", "1", str(train), str(model)]) == 0

    def test_missing_file_errors(self, tmp_path, capsys):
        code = train_main([str(tmp_path / "nope.svm")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_data_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.svm"
        path.write_text("not a libsvm line\n")
        assert train_main([str(path)]) == 1


class TestCascadeCLI:
    def test_routes_and_prints_per_level_summary(self, svm_files, capsys):
        train, _, tmp = svm_files
        code = train_main([
            "-c", "10", "-g", "0.4",
            "--instance-shards", "4", "--cascade-threshold", "80",
            str(train), str(tmp / "casc.model"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cascade-routed 3 pair(s)" in out
        assert "level shard" in out
        assert "level merge" in out
        assert "(epsilon 1.00e-03)" in out
        assert re.search(
            r"level polish: \d+ round\(s\), gap before \d\.\d\de[-+]\d+", out
        )

    def test_threshold_gates_routing(self, svm_files, capsys):
        train, _, tmp = svm_files
        code = train_main([
            "-c", "10", "-g", "0.4",
            "--instance-shards", "4", "--cascade-threshold", "100000",
            str(train), str(tmp / "gated.model"),
        ])
        assert code == 0
        assert "cascade-routed" not in capsys.readouterr().out

    def test_combines_with_devices(self, svm_files, capsys):
        train, _, tmp = svm_files
        code = train_main([
            "-c", "10", "-g", "0.4", "--devices", "2",
            "--instance-shards", "2", "--cascade-threshold", "80",
            str(train), str(tmp / "dev.model"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "cascade-routed 3 pair(s)" in out

    def test_report_json_carries_cascade_stats(self, svm_files):
        train, _, tmp = svm_files
        report_path = tmp / "cascade_report.json"
        code = train_main([
            "-q", "-c", "10", "-g", "0.4",
            "--instance-shards", "2", "--cascade-threshold", "80",
            "--report-json", str(report_path),
            str(train), str(tmp / "rj.model"),
        ])
        assert code == 0
        payload = json.loads(report_path.read_text())
        routed = [s for s in payload["per_svm"] if "cascade" in s]
        assert len(routed) == 3
        assert all(s["cascade"]["final_gap"] <= 1e-3 for s in routed)

    def test_model_predicts(self, svm_files, capsys):
        train, test, tmp = svm_files
        model = tmp / "casc_pred.model"
        assert train_main([
            "-q", "-c", "10", "-g", "0.4",
            "--instance-shards", "2", "--cascade-threshold", "80",
            str(train), str(model),
        ]) == 0
        assert predict_main([str(test), str(model)]) == 0
        err = capsys.readouterr().err
        accuracy = float(err.split("=")[1].split("%")[0])
        assert accuracy >= 80.0

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--instance-shards", "0"], "--instance-shards must be >= 1"),
            (
                ["--instance-shards", "2", "--system", "libsvm"],
                "gmp-svm",
            ),
            (
                ["--instance-shards", "2", "--devices", "2",
                 "--fault-seed", "3"],
                "--fault-seed",
            ),
            (
                ["--instance-shards", "2", "--cascade-threshold", "1"],
                "--cascade-threshold",
            ),
        ],
    )
    def test_flag_validation(self, svm_files, capsys, argv, message):
        train, _, tmp = svm_files
        code = train_main(argv + [str(train), str(tmp / "x.model")])
        assert code == 1
        assert message in capsys.readouterr().err


class TestPredict:
    @pytest.fixture
    def trained(self, svm_files):
        train, test, tmp = svm_files
        model = tmp / "model"
        assert train_main(["-q", "-c", "10", "-g", "0.4", str(train), str(model)]) == 0
        return test, model, tmp

    def test_label_prediction(self, trained, capsys):
        test, model, tmp = trained
        output = tmp / "pred.txt"
        code = predict_main([str(test), str(model), str(output)])
        assert code == 0
        lines = output.read_text().strip().splitlines()
        assert len(lines) == 40
        assert all(line in ("0", "1", "2") for line in lines)
        err = capsys.readouterr().err
        assert "Accuracy" in err

    def test_probability_prediction(self, trained):
        test, model, tmp = trained
        output = tmp / "proba.txt"
        code = predict_main(["-b", "1", str(test), str(model), str(output)])
        assert code == 0
        lines = output.read_text().strip().splitlines()
        assert lines[0].startswith("labels")
        first = lines[1].split()
        probabilities = np.array([float(v) for v in first[1:]])
        assert probabilities.size == 3
        assert probabilities.sum() == pytest.approx(1.0, abs=1e-5)

    def test_stdout_output(self, trained, capsys):
        test, model, _ = trained
        assert predict_main(["-q", str(test), str(model)]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 40

    def test_accuracy_is_sane(self, trained, capsys):
        test, model, _ = trained
        predict_main(["-q" , str(test), str(model)])
        # quiet mode: no accuracy line
        assert "Accuracy" not in capsys.readouterr().err
        predict_main([str(test), str(model)])
        err = capsys.readouterr().err
        accuracy = float(err.split("=")[1].split("%")[0])
        assert accuracy >= 80.0

    def test_missing_model_errors(self, trained, capsys):
        test, _, tmp = trained
        assert predict_main([str(test), str(tmp / "missing.model")]) == 1
        assert "error" in capsys.readouterr().err


class TestObservability:
    @pytest.fixture
    def artifacts(self, svm_files):
        """Train with --report-json and --trace; return all the paths."""
        import json

        train, test, tmp = svm_files
        model = tmp / "model"
        report_path = tmp / "train_report.json"
        trace_path = tmp / "train_trace.jsonl"
        code = train_main([
            "-q", "-c", "10", "-g", "0.4",
            "--report-json", str(report_path),
            "--trace", str(trace_path),
            str(train), str(model),
        ])
        assert code == 0
        return test, model, tmp, report_path, trace_path, json

    def test_train_report_json(self, artifacts):
        *_, report_path, __, json = artifacts
        report = json.loads(report_path.read_text())
        assert report["schema_version"].startswith("repro.report/")
        assert report["kind"] == "training_report"
        assert report["n_binary_svms"] == 3
        assert report["total_iterations"] > 0
        assert 0.0 <= report["buffer_hit_rate"] <= 1.0
        assert report["breakdown"]  # per-category simulated seconds
        assert len(report["per_svm"]) == 3

    def test_train_trace_jsonl(self, artifacts):
        *_, trace_path, json = artifacts
        lines = trace_path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records
        for record in records:
            assert record["schema_version"].startswith("repro.trace/")
        names = {r["name"] for r in records}
        assert "train_multiclass" in names
        assert "solve_pair" in names

    def test_predict_report_and_trace(self, artifacts, tmp_path):
        test, model, tmp, *_, json = artifacts
        report_path = tmp_path / "predict_report.json"
        trace_path = tmp_path / "predict_trace.jsonl"
        code = predict_main([
            "-q",
            "--report-json", str(report_path),
            "--trace", str(trace_path),
            str(test), str(model),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["kind"] == "prediction_report"
        assert report["n_instances"] == 40
        names = {
            json.loads(line)["name"]
            for line in trace_path.read_text().strip().splitlines()
        }
        assert "predict_labels" in names

    def test_flags_off_writes_nothing(self, svm_files):
        train, _, tmp = svm_files
        assert train_main(["-q", str(train), str(tmp / "m")]) == 0
        assert not list(tmp.glob("*.json")) and not list(tmp.glob("*.jsonl"))


class TestServeBench:
    @pytest.fixture
    def trained(self, svm_files):
        train, test, tmp = svm_files
        model = tmp / "model"
        assert train_main(["-q", "-c", "10", "-g", "0.4", str(train), str(model)]) == 0
        return test, model

    def test_reports_warm_speedup(self, trained, capsys):
        test, model = trained
        code = serve_bench_main(
            [str(test), str(model), "-n", "48", "--max-batch", "16"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "served 48 requests" in out
        assert "warm speedup" in out
        assert "latency p50/p99" in out

    def test_report_json_metrics(self, trained, tmp_path):
        import json

        test, model = trained
        report = tmp_path / "serve.json"
        code = serve_bench_main([
            "-q", str(test), str(model), "-n", "32",
            "--max-batch", "8", "--report-json", str(report),
        ])
        assert code == 0
        metrics = json.loads(report.read_text())
        assert metrics["n_requests"] == 32
        # One lane: the first request dispatches alone on the idle lane,
        # the 31 queued behind it fuse 8 + 8 + 8 + 7.
        assert metrics["n_batches"] == 5
        assert metrics["mean_batch_size"] == 6.4
        assert metrics["warm_simulated_s"] > 0
        assert metrics["speedup"] > 1.0
        assert metrics["latency_p99_s"] >= metrics["latency_p50_s"] > 0

    def test_trace_has_serving_spans(self, trained, tmp_path):
        import json

        test, model = trained
        trace = tmp_path / "serve_trace.jsonl"
        code = serve_bench_main([
            "-q", str(test), str(model), "-n", "8", "--trace", str(trace),
        ])
        assert code == 0
        names = {
            json.loads(line)["name"]
            for line in trace.read_text().strip().splitlines()
        }
        assert {"serve_seal", "serve_dispatch", "serve_request"} <= names

    def test_decision_function_kind(self, trained):
        test, model = trained
        assert serve_bench_main([
            "-q", str(test), str(model), "-n", "8",
            "--kind", "decision_function",
        ]) == 0

    def test_missing_model_errors(self, trained, tmp_path, capsys):
        test, _ = trained
        code = serve_bench_main([str(test), str(tmp_path / "nope.model")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestServe:
    @pytest.fixture
    def model_path(self, svm_files):
        train, _, tmp = svm_files
        model = tmp / "serve.model"
        code = train_main(["-q", "-c", "10", "-g", "0.4", str(train), str(model)])
        assert code == 0
        return model

    def test_serves_over_socket_then_exits(self, model_path, monkeypatch):
        port, thread, result = _serve_in_thread(monkeypatch, [
            str(model_path), "--port", "0", "--max-requests", "2",
            "--tenant-policy", "vip=1000,8,4", "-q",
        ])

        from repro.server.protocol import encode_matrix

        x, _ = gaussian_blobs(8, 5, 3, seed=3)
        body = json.dumps({"instances": encode_matrix(x[:2])}).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/predict_proba",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            assert response.status == 200
            payload = json.loads(response.read())
        assert payload["kind"] == "predict_proba"
        assert payload["batch"]["n_requests"] == 1
        from repro.server.protocol import decode_array

        assert decode_array(payload["result"]).shape == (2, 3)

        # The second request reaches --max-requests and stops the server.
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/healthz", timeout=60
        ) as response:
            assert response.status == 200
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert result["code"] == 0

    def test_exit_summary_reports_dispatches(self, model_path, monkeypatch, capsys):
        from repro.server.protocol import encode_matrix

        port, thread, result = _serve_in_thread(
            monkeypatch, [str(model_path), "--port", "0", "--max-requests", "2"]
        )
        x, _ = gaussian_blobs(8, 5, 3, seed=3)
        body = json.dumps({"instances": encode_matrix(x[:2])}).encode()
        for _ in range(2):
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/predict_proba", data=body
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.status == 200
        thread.join(timeout=60)
        assert result["code"] == 0
        out = capsys.readouterr().out
        assert "admitted 2, shed 0 (rate 0.0%); 2 dispatch(es), " in out
        assert "1.00 request(s) per dispatch" in out

    def test_bad_tenant_policy_errors(self, model_path, capsys):
        code = serve_main([str(model_path), "--tenant-policy", "oops"])
        assert code == 1
        assert "tenant-policy" in capsys.readouterr().err

    def test_missing_model_errors(self, tmp_path, capsys):
        code = serve_main([str(tmp_path / "nope.model")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestLifecycleFlags:
    @pytest.fixture
    def grown_files(self, svm_files):
        """The training file plus a grown variant (appended rows)."""
        train, _, tmp = svm_files
        x, y = gaussian_blobs(180, 5, 3, seed=10)
        x2, y2 = gaussian_blobs(30, 5, 3, seed=11)
        grown = tmp / "grown.svm"
        dump_libsvm(
            CSRMatrix.from_dense(np.vstack([x[:140], np.asarray(x2)])),
            np.concatenate([y[:140], y2]),
            grown,
        )
        return train, grown, tmp

    def test_publish_and_warm_start_record_lineage(self, grown_files):
        from repro.registry import ModelRegistry

        train, grown, tmp = grown_files
        registry = tmp / "registry"
        model_a = tmp / "a.model"
        model_b = tmp / "b.model"
        assert train_main([
            "-q", "-c", "1", "-g", "0.4", str(train), str(model_a),
            "--publish", str(registry),
        ]) == 0
        assert train_main([
            "-q", "-c", "1", "-g", "0.4", str(grown), str(model_b),
            "--warm-start", str(model_a), "--publish", str(registry),
        ]) == 0
        reg = ModelRegistry(registry)
        assert [v.version for v in reg.versions()] == [1, 2]
        assert reg.get(2).parent == 1
        assert reg.lineage(2) == [2, 1]

    def test_warm_start_with_classic_system_errors(self, grown_files, capsys):
        train, grown, tmp = grown_files
        model_a = tmp / "a.model"
        assert train_main(
            ["-q", "-c", "1", "-g", "0.4", str(train), str(model_a)]
        ) == 0
        code = train_main([
            "-q", "--system", "libsvm", str(grown),
            str(tmp / "b.model"), "--warm-start", str(model_a),
        ])
        assert code == 1
        assert "batched" in capsys.readouterr().err

    def test_serve_requires_model_or_registry(self, capsys):
        code = serve_main([])
        assert code == 1
        assert "registry" in capsys.readouterr().err.lower()

    def test_watch_registry_requires_registry(self, capsys):
        code = serve_main(["--watch-registry"])
        assert code == 1
        assert "--registry" in capsys.readouterr().err

    def test_serve_from_registry_over_socket(self, grown_files, monkeypatch):
        train, _, tmp = grown_files
        registry = tmp / "registry"
        assert train_main([
            "-q", "-c", "1", "-g", "0.4", str(train),
            str(tmp / "a.model"), "--publish", str(registry),
        ]) == 0
        port, thread, result = _serve_in_thread(monkeypatch, [
            "--registry", str(registry), "--watch-registry",
            "--port", "0", "--max-requests", "1", "-q",
        ])
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/healthz", timeout=60
        ) as response:
            assert response.status == 200
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert result["code"] == 0
