"""Command-line tools mirroring LibSVM's ``svm-train`` / ``svm-predict``.

::

    repro-train -c 10 -g 0.5 -b 1 train.svm model.repro
    repro-predict -b 1 test.svm model.repro predictions.txt

Flags follow LibSVM's conventions where they overlap (``-t`` kernel type,
``-c`` cost, ``-g`` gamma, ``-d`` degree, ``-r`` coef0, ``-e`` tolerance,
``-b`` probability), plus
``--system`` to pick any of the reproduced implementations and
``--report`` to print the simulated-cost breakdown.

Observability flags (both tools): ``--report-json PATH`` writes the
schema-versioned JSON report snapshot and ``--trace PATH`` writes a JSONL
span trace of the run (see :mod:`repro.telemetry`).

``repro-serve-bench`` exercises the serving layer: it seals the model
into an :class:`~repro.serving.InferenceSession`, replays the test file
as single-instance requests through a one-lane
:class:`~repro.server.Dispatcher` and prints simulated throughput plus
p50/p99 latency, next to the cold per-request baseline.

``repro-serve`` puts the same sealed session behind a real TCP socket
(DESIGN.md §13): stdlib HTTP front-end with per-tenant admission
control, worker-pool dispatch on the simulated clock and explicit
429/503 shedding.  ``repro-serve model.repro --port 8080`` then ``POST
/v1/predict_proba`` with ``{"instances": {"rows": [[...]]}}``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from repro import GMPSVC, load_model
from repro.backends import BACKENDS
from repro.baselines import (
    CMPSVMClassifier,
    GPUBaselineClassifier,
    LibSVMClassifier,
)
from repro.core.predictor import (
    PredictorConfig,
    labels_from_probabilities,
    predict_labels_model,
    predict_proba_model,
)
from repro.exceptions import ReproError
from repro.gpusim.device import scaled_tesla_p100
from repro.sparse import load_libsvm
from repro.telemetry import Tracer

__all__ = ["train_main", "predict_main", "serve_bench_main", "serve_main"]

KERNEL_TYPES = {0: "linear", 1: "polynomial", 2: "gaussian", 3: "sigmoid"}
SYSTEMS = ("gmp-svm", "libsvm", "libsvm-openmp", "gpu-baseline", "cmp-svm")


def _train_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-train",
        description="Train a multi-class probabilistic SVM (GMP-SVM reproduction).",
        add_help=True,
    )
    parser.add_argument("training_file", help="training data, LibSVM format")
    parser.add_argument(
        "model_file",
        nargs="?",
        default=None,
        help="output model path (default: <training_file>.model)",
    )
    parser.add_argument("-t", "--kernel-type", type=int, default=2,
                        choices=sorted(KERNEL_TYPES),
                        help="0 linear, 1 polynomial, 2 gaussian/RBF, 3 sigmoid")
    parser.add_argument("-c", "--cost", type=float, default=1.0)
    parser.add_argument("-g", "--gamma", type=float, default=None,
                        help="kernel gamma (default 1/n_features)")
    parser.add_argument("-d", "--degree", type=int, default=3)
    parser.add_argument("-r", "--coef0", type=float, default=0.0)
    parser.add_argument("-e", "--epsilon", type=float, default=1e-3,
                        help="KKT tolerance")
    parser.add_argument("-b", "--probability", type=int, default=1, choices=(0, 1))
    parser.add_argument("--system", default="gmp-svm", choices=SYSTEMS,
                        help="which reproduced system trains the model")
    parser.add_argument("--backend", default="numpy64",
                        choices=sorted(BACKENDS),
                        help="compute backend: numpy64 (float64 reference) "
                             "or numpy32 (float32/mixed-precision fast "
                             "path; gmp-svm and cmp-svm only)")
    parser.add_argument("--working-set", type=int, default=48,
                        help="GPU buffer rows / working-set size (gmp-svm, cmp-svm)")
    parser.add_argument("--devices", type=int, default=1, metavar="N",
                        help="shard training across N simulated GPUs "
                             "(gmp-svm only; models stay bitwise identical)")
    parser.add_argument("--placement", default="affinity",
                        choices=("affinity", "round_robin"),
                        help="pair-to-device placement when --devices > 1")
    parser.add_argument("--instance-shards", type=int, default=1, metavar="N",
                        help="cut each large pairwise problem into N "
                             "instance shards and train it through the "
                             "cascade SMO driver (gmp-svm only)")
    parser.add_argument("--cascade-threshold", type=int, default=2048,
                        metavar="M",
                        help="pairs with at least M instances route through "
                             "the cascade when --instance-shards > 1")
    parser.add_argument("--fault-seed", type=int, default=None,
                        metavar="SEED",
                        help="inject a seeded random fault plan (stragglers, "
                             "possible fail-stop device loss at t=0) into "
                             "sharded training; recovery keeps the model "
                             "bitwise identical (--devices > 1)")
    parser.add_argument("--checkpoint-every", type=int, default=4,
                        metavar="WAVES",
                        help="waves between solver-state checkpoints in "
                             "sharded training (fault recovery resumes "
                             "from the last one)")
    parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="directory for sharded-training checkpoints "
                             "(--devices > 1; default: in-memory only)")
    parser.add_argument("--warm-start", metavar="PATH", default=None,
                        help="prior model to seed the solvers from "
                             "(incremental retraining; batched systems only)")
    parser.add_argument("--publish", metavar="DIR", default=None,
                        help="also publish the trained model into the "
                             "registry at DIR; lineage is recorded when "
                             "--warm-start matches a registry artifact")
    parser.add_argument("--report", action="store_true",
                        help="print the simulated-cost report after training")
    parser.add_argument("--report-json", metavar="PATH", default=None,
                        help="write the training report as schema-versioned JSON")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a JSONL span trace of the run")
    parser.add_argument("-q", "--quiet", action="store_true")
    return parser


def _build_cli_classifier(args: argparse.Namespace):
    kwargs = dict(
        C=args.cost,
        kernel=KERNEL_TYPES[args.kernel_type],
        gamma=args.gamma,
        degree=args.degree,
        coef0=args.coef0,
        epsilon=args.epsilon,
        probability=bool(args.probability),
    )
    if args.system == "gmp-svm":
        cascade = None
        if args.instance_shards > 1:
            from repro.cascade import CascadeConfig

            cascade = CascadeConfig(
                n_shards=args.instance_shards,
                threshold=args.cascade_threshold,
            )
        return GMPSVC(
            working_set_size=args.working_set, cascade=cascade, **kwargs
        )
    if args.system == "libsvm":
        return LibSVMClassifier(**kwargs)
    if args.system == "libsvm-openmp":
        return LibSVMClassifier(openmp=True, **kwargs)
    if args.system == "gpu-baseline":
        return GPUBaselineClassifier(**kwargs)
    return CMPSVMClassifier(working_set_size=args.working_set, **kwargs)


def _fit_sharded(classifier, data, labels, args, tracer) -> None:
    """Fit a GMPSVC across ``--devices`` simulated GPUs (bitwise-equal model)."""
    from repro.core.validation import check_fit_inputs
    from repro.distributed import ClusterSpec, train_multiclass_sharded
    from repro.sparse import ops as mops

    data, labels = check_fit_inputs(data, labels)
    kernel = classifier._build_kernel(mops.n_cols(data))
    config = classifier._trainer_config()
    config.tracer = tracer
    cluster = ClusterSpec(device=config.device, n_devices=args.devices)
    fault_plan = None
    if args.fault_seed is not None:
        from repro.faults import FaultPlan

        # Losses draw at t=0 so a drawn loss always fires and the
        # checkpoint/resume recovery path demonstrably runs.
        fault_plan = FaultPlan.random(
            args.fault_seed, args.devices, loss_window_s=0.0
        )
    classifier.model_, classifier.training_report_ = train_multiclass_sharded(
        config,
        cluster,
        data,
        labels,
        kernel,
        float(classifier.C),
        placement=args.placement,
        fault_plan=fault_plan,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
    )
    classifier.n_features_in_ = mops.n_cols(data)
    classifier.classes_ = classifier.model_.classes


def train_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-train``; returns a process exit code."""
    args = _train_parser().parse_args(argv)
    tracer = Tracer() if args.trace else None
    try:
        if args.devices < 1:
            raise ReproError(f"--devices must be >= 1, got {args.devices}")
        if args.devices > 1 and args.system != "gmp-svm":
            raise ReproError(
                "--devices shards the GPU system only; use --system gmp-svm"
            )
        if args.warm_start and args.devices > 1:
            raise ReproError("--warm-start does not combine with --devices")
        if args.devices == 1 and (
            args.fault_seed is not None or args.checkpoint_dir
        ):
            raise ReproError(
                "--fault-seed/--checkpoint-dir require --devices > 1"
            )
        if args.checkpoint_every < 1:
            raise ReproError(
                f"--checkpoint-every must be >= 1, got {args.checkpoint_every}"
            )
        if args.instance_shards < 1:
            raise ReproError(
                f"--instance-shards must be >= 1, got {args.instance_shards}"
            )
        if args.instance_shards > 1 and args.system != "gmp-svm":
            raise ReproError(
                "--instance-shards drives the cascade on the GPU system "
                "only; use --system gmp-svm"
            )
        if args.instance_shards > 1 and args.fault_seed is not None:
            raise ReproError(
                "--instance-shards does not combine with --fault-seed; "
                "cascade fault injection runs through "
                "repro.cascade.train_cascade"
            )
        if args.cascade_threshold < 2:
            raise ReproError(
                f"--cascade-threshold must be >= 2, got {args.cascade_threshold}"
            )
        if args.backend != "numpy64" and args.system not in (
            "gmp-svm", "cmp-svm"
        ):
            raise ReproError(
                "--backend selects the compute backend of the GMP/CMP "
                "systems; the baseline systems model fixed float64 code"
            )
        data, labels = load_libsvm(args.training_file)
        classifier = _build_cli_classifier(args)
        classifier.tracer = tracer
        if args.system in ("gmp-svm", "cmp-svm"):
            classifier.backend = args.backend
        if args.warm_start:
            # Seed the estimator with the prior fit; its next fit() then
            # warm-starts the solvers (sklearn warm_start semantics).
            classifier.model_ = load_model(args.warm_start, backend=args.backend)
            classifier.warm_start = True
        if args.devices > 1:
            _fit_sharded(classifier, data, labels, args, tracer)
        else:
            classifier.fit(data, labels)
        model_path = (
            args.model_file
            if args.model_file
            else f"{args.training_file}.model"
        )
        classifier.save(model_path)
        published = None
        if args.publish:
            published = _publish_model(classifier.model_, args)
        if args.report_json:
            with open(args.report_json, "w", encoding="utf-8") as handle:
                handle.write(classifier.training_report_.to_json(indent=2) + "\n")
        if tracer is not None:
            tracer.write_jsonl(args.trace)
    except (ReproError, OSError) as exc:
        print(f"repro-train: error: {exc}", file=sys.stderr)
        return 1

    if not args.quiet:
        report = classifier.training_report_
        model = classifier.model_
        print(f"trained {report.n_binary_svms} binary SVM(s) on "
              f"{data.shape[0]} x {data.shape[1]} instances "
              f"({model.n_classes} classes)")
        print(f"support vectors (shared pool): {model.n_support_total}")
        print(f"simulated {report.device_name} makespan: "
              f"{report.simulated_seconds * 1e3:.3f} ms "
              f"(cluster speedup {report.cluster_speedup:.2f}x)")
        for entry in report.per_device:
            lost = "  LOST" if entry["lost"] else ""
            print(f"  device {entry['device']}: {entry['n_svms']:3d} SVMs  "
                  f"{entry['simulated_seconds'] * 1e3:8.3f} ms  "
                  f"utilization {entry['utilization']:6.1%}  "
                  f"transfers {entry['transfer_bytes']} B{lost}")
        if report.faults.get("devices_lost"):
            recovery = report.faults["recovery"]
            print(f"  recovered {recovery['recovered_problems']} "
                  f"problem(s) from lost device(s) "
                  f"{report.faults['devices_lost']} on survivors "
                  f"{recovery['survivors']} "
                  f"({recovery['resumed_from_checkpoint']} "
                  f"resumed from checkpoint)")
        cascade_stats = [
            stats for stats in report.per_svm if stats.get("cascade")
        ]
        if cascade_stats:
            print(f"cascade-routed {len(cascade_stats)} pair(s) "
                  f"across {args.instance_shards} instance shard(s):")
            for stats in cascade_stats:
                info = stats["cascade"]
                print(f"  pair {tuple(stats['pair'])}: "
                      f"{info['n_shards']} shard(s), "
                      f"gap {info['final_gap']:.2e} "
                      f"(epsilon {args.epsilon:.2e}), "
                      f"SV survival {info['sv_survival']:.1%}")
                for level in info.get("levels", []):
                    kind = level["kind"]
                    if kind == "shard":
                        print(f"    level shard: {level['n_slots']} slot(s)  "
                              f"SVs {level['sv_in']} -> {level['sv_out']} "
                              f"({level['survival']:.1%})")
                    elif kind == "merge":
                        tiers = ", ".join(
                            f"{tier}={nbytes} B" for tier, nbytes in
                            sorted(level.get("tier_bytes", {}).items())
                        )
                        print(f"    level merge: {level['n_merges']} merge(s)  "
                              f"SVs {level['sv_in']} -> {level['sv_out']} "
                              f"({level['survival']:.1%})  {tiers}")
                    elif kind == "polish":
                        print(f"    level polish: {level['rounds']} round(s), "
                              f"gap before {level['gap_before']:.2e}")
        print(f"model saved to {model_path}")
        if published is not None:
            lineage = (
                f" (parent v{published.parent})"
                if published.parent is not None
                else ""
            )
            print(f"published to {args.publish} as "
                  f"v{published.version}{lineage}")
        if args.report:
            for category, fraction in sorted(
                report.clock.fraction_breakdown().items()
            ):
                print(f"  {category:18s} {fraction:6.1%}")
    return 0


def _publish_model(model, args: argparse.Namespace):
    """Publish into ``--publish`` DIR, recording lineage when possible.

    Lineage rides content addressing: if the ``--warm-start`` file's
    bytes match a registry artifact, that version is the parent — no
    side channel needed to know where the prior model came from.
    """
    import hashlib
    from pathlib import Path

    from repro.registry import ModelRegistry

    registry = ModelRegistry(args.publish)
    parent = None
    if args.warm_start:
        digest = hashlib.sha256(
            Path(args.warm_start).read_bytes()
        ).hexdigest()
        parent = next(
            (
                v.version
                for v in reversed(registry.versions())
                if v.sha256 == digest
            ),
            None,
        )
    return registry.publish(
        model,
        parent=parent,
        metadata={
            "source": args.training_file,
            "system": args.system,
            "cost": args.cost,
        },
    )


def _predict_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-predict",
        description="Predict with a trained GMP-SVM reproduction model.",
    )
    parser.add_argument("test_file", help="test data, LibSVM format")
    parser.add_argument("model_file", help="model written by repro-train")
    parser.add_argument("output_file", nargs="?", default=None,
                        help="where to write predictions (default: stdout)")
    parser.add_argument("-b", "--probability", type=int, default=0, choices=(0, 1),
                        help="1 = output per-class probabilities")
    parser.add_argument("--backend", default="numpy64",
                        choices=sorted(BACKENDS),
                        help="compute backend prediction runs under "
                             "(must match the working dtype the model "
                             "was trained in)")
    parser.add_argument("--report-json", metavar="PATH", default=None,
                        help="write the prediction report as schema-versioned JSON")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a JSONL span trace of the run")
    parser.add_argument("-q", "--quiet", action="store_true")
    return parser


def predict_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-predict``; returns a process exit code."""
    args = _predict_parser().parse_args(argv)
    tracer = Tracer() if args.trace else None
    try:
        model = load_model(args.model_file, backend=args.backend)
        data, labels = load_libsvm(
            args.test_file, n_features=model.sv_pool.pool_data.shape[1]
        )
        config = PredictorConfig(
            device=scaled_tesla_p100(), tracer=tracer, backend=args.backend
        )
        if args.probability:
            probabilities, report = predict_proba_model(config, model, data)
            predictions = labels_from_probabilities(model, probabilities)
        else:
            predictions, report = predict_labels_model(
                config, model, data, use_probability=False
            )
            probabilities = None
        if args.report_json:
            with open(args.report_json, "w", encoding="utf-8") as handle:
                handle.write(report.to_json(indent=2) + "\n")
        if tracer is not None:
            tracer.write_jsonl(args.trace)
    except (ReproError, OSError) as exc:
        print(f"repro-predict: error: {exc}", file=sys.stderr)
        return 1

    lines = []
    if probabilities is not None:
        header = "labels " + " ".join(format(c, "g") for c in model.classes)
        lines.append(header)
        for label, row in zip(predictions, probabilities):
            lines.append(
                f"{label:g} " + " ".join(f"{p:.6g}" for p in row)
            )
    else:
        lines.extend(f"{label:g}" for label in predictions)
    text = "\n".join(lines) + "\n"
    if args.output_file:
        with open(args.output_file, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)

    if not args.quiet:
        accuracy = float(np.mean(predictions == labels))
        correct = int(np.sum(predictions == labels))
        # LibSVM's svm-predict output format.
        print(
            f"Accuracy = {accuracy:.4%} ({correct}/{labels.size}) "
            f"(classification)",
            file=sys.stderr,
        )
        print(
            f"simulated prediction time: {report.simulated_seconds * 1e3:.3f} ms",
            file=sys.stderr,
        )
    return 0


def _serve_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve-bench",
        description=(
            "Replay a test file as single-instance requests through the "
            "micro-batching serving layer and report simulated throughput."
        ),
    )
    parser.add_argument("test_file", help="test data, LibSVM format")
    parser.add_argument("model_file", help="model written by repro-train")
    parser.add_argument("-n", "--requests", type=int, default=None,
                        help="number of requests to replay (default: one "
                             "per test row, cycling if larger)")
    parser.add_argument("--kind", default="predict_proba",
                        choices=("predict_proba", "predict",
                                 "decision_function"),
                        help="request kind submitted to the dispatcher")
    parser.add_argument("--max-batch", type=int, default=64,
                        help="max requests fused per dispatch")
    parser.add_argument("--arrival-gap", type=float, default=0.0, metavar="S",
                        help="simulated seconds between request arrivals")
    parser.add_argument("--tile-cache", type=int, default=0, metavar="N",
                        help="resident test-kernel tile cache entries")
    parser.add_argument("--report-json", metavar="PATH", default=None,
                        help="write the serving metrics as JSON")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a JSONL span trace of the serving run")
    parser.add_argument("-q", "--quiet", action="store_true")
    return parser


def serve_bench_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-serve-bench``; returns a process exit code."""
    import json

    from repro.server import AdmissionController, Dispatcher, TenantPolicy
    from repro.serving import InferenceSession

    args = _serve_bench_parser().parse_args(argv)
    tracer = Tracer() if args.trace else None
    try:
        model = load_model(args.model_file)
        data, _ = load_libsvm(
            args.test_file, n_features=model.sv_pool.pool_data.shape[1]
        )
        n_requests = args.requests if args.requests else data.shape[0]
        if n_requests < 1:
            raise ReproError(f"--requests must be >= 1, got {n_requests}")

        from repro.sparse import ops as mops

        def request_row(i: int):
            position = np.asarray([i % data.shape[0]], dtype=np.int64)
            return mops.take_rows(data, position)

        # Cold baseline: one fresh predictor pipeline per request.
        cold_config = PredictorConfig(device=scaled_tesla_p100())
        cold_s = 0.0
        probe = min(n_requests, 32)
        for i in range(probe):
            row = request_row(i)
            if args.kind == "predict_proba":
                _, report = predict_proba_model(cold_config, model, row)
            else:
                _, report = predict_labels_model(cold_config, model, row)
            cold_s += report.simulated_seconds
        cold_s *= n_requests / probe

        # Warm serving: sealed session + micro-batched dispatch.  The
        # admission controller is sized to the replay, so nothing sheds.
        session = InferenceSession(
            model,
            PredictorConfig(device=scaled_tesla_p100(), tracer=tracer),
            tile_cache_entries=args.tile_cache,
        )
        dispatcher = Dispatcher(
            session,
            n_workers=1,
            max_batch=args.max_batch,
            admission=AdmissionController(
                default_policy=TenantPolicy(burst=n_requests, max_queue=n_requests),
                max_queue_global=n_requests,
            ),
        )
        arrival = 0.0
        for i in range(n_requests):
            dispatcher.submit(request_row(i), kind=args.kind, arrival_s=arrival)
            arrival += args.arrival_gap
        dispatcher.drain()
        if tracer is not None:
            tracer.write_jsonl(args.trace)
    except (ReproError, OSError) as exc:
        print(f"repro-serve-bench: error: {exc}", file=sys.stderr)
        return 1

    stats = dispatcher.stats
    assert stats.n_shed == 0, "the replay's admission policy never sheds"
    warm_s = session.stats.serve_simulated_s
    metrics = {
        "n_requests": stats.n_admitted,
        "n_batches": stats.n_dispatches,
        "mean_batch_size": stats.mean_batch_size,
        "seal_simulated_s": session.stats.seal_simulated_s,
        "warm_simulated_s": warm_s,
        "cold_simulated_s": cold_s,
        "warm_requests_per_s": n_requests / warm_s if warm_s else 0.0,
        "cold_requests_per_s": n_requests / cold_s if cold_s else 0.0,
        "speedup": cold_s / warm_s if warm_s else 0.0,
        "latency_p50_s": stats.latency_percentile(50.0),
        "latency_p99_s": stats.latency_percentile(99.0),
    }
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2)
            handle.write("\n")
    if not args.quiet:
        print(f"served {stats.n_admitted} requests in {stats.n_dispatches} "
              f"fused batches (mean {stats.mean_batch_size:.1f} req/batch)")
        print(f"simulated warm serving time: {warm_s * 1e3:.3f} ms "
              f"({metrics['warm_requests_per_s']:.0f} req/s)")
        print(f"simulated cold baseline:     {cold_s * 1e3:.3f} ms "
              f"({metrics['cold_requests_per_s']:.0f} req/s)")
        print(f"warm speedup: {metrics['speedup']:.2f}x")
        print(f"latency p50/p99 (simulated): "
              f"{metrics['latency_p50_s'] * 1e3:.3f} / "
              f"{metrics['latency_p99_s'] * 1e3:.3f} ms")
    return 0


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve a trained model over HTTP with per-tenant admission "
            "control and micro-batched dispatch on the simulated clock."
        ),
    )
    parser.add_argument("model_file", nargs="?", default=None,
                        help="model written by repro-train "
                             "(omit when using --registry)")
    parser.add_argument("--registry", metavar="DIR", default=None,
                        help="serve the latest model published in the "
                             "registry at DIR")
    parser.add_argument("--watch-registry", action="store_true",
                        help="poll the registry between requests and "
                             "hot-swap newer versions in with zero "
                             "downtime (requires --registry)")
    parser.add_argument("--poll-interval", type=float, default=1.0,
                        metavar="S",
                        help="minimum seconds between registry polls")
    parser.add_argument("--backend", default="numpy64",
                        choices=sorted(BACKENDS),
                        help="compute backend the session predicts under "
                             "(must match the working dtype the model "
                             "was trained in)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="TCP port (0 = ephemeral)")
    parser.add_argument("--workers", type=int, default=2,
                        help="simulated worker lanes in the dispatcher")
    parser.add_argument("--max-batch", type=int, default=16,
                        help="max requests fused per dispatch")
    parser.add_argument("--rate-per-s", type=float, default=1000.0,
                        help="default tenant token-bucket refill rate "
                             "(requests per simulated second)")
    parser.add_argument("--burst", type=int, default=32,
                        help="default tenant token-bucket capacity")
    parser.add_argument("--max-queue", type=int, default=64,
                        help="default per-tenant queue bound")
    parser.add_argument("--max-queue-global", type=int, default=256,
                        help="global queue bound across all tenants")
    parser.add_argument("--tenant-policy", action="append", default=[],
                        metavar="NAME=RATE,BURST,QUEUE",
                        help="per-tenant override of rate/burst/queue "
                             "(repeatable), e.g. alpha=100,16,8")
    parser.add_argument("--arrival-mode", default="wall",
                        choices=("wall", "virtual"),
                        help="wall: map real inter-arrival gaps onto the "
                             "simulated axis; virtual: X-Arrival-S header")
    parser.add_argument("--max-requests", type=int, default=None,
                        help="stop after serving N requests (smoke tests)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a JSONL span trace on shutdown")
    parser.add_argument("-q", "--quiet", action="store_true")
    return parser


def _parse_tenant_policies(items: Sequence[str]) -> dict:
    from repro.server import TenantPolicy

    policies = {}
    for item in items:
        name, _, spec = item.partition("=")
        parts = spec.split(",")
        if not name or len(parts) != 3:
            raise ReproError(
                f"bad --tenant-policy {item!r} (want NAME=RATE,BURST,QUEUE)"
            )
        try:
            rate, burst, queue = float(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ReproError(f"bad --tenant-policy {item!r}: {exc}")
        policies[name] = TenantPolicy(
            rate_per_s=rate, burst=burst, max_queue=queue
        )
    return policies


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-serve``; returns a process exit code."""
    from repro.server import (
        AdmissionController,
        Dispatcher,
        ServerApp,
        TenantPolicy,
        serve_http,
    )
    from repro.serving import InferenceSession

    args = _serve_parser().parse_args(argv)
    tracer = Tracer() if args.trace else None
    try:
        watcher = None
        if args.watch_registry and not args.registry:
            raise ReproError("--watch-registry requires --registry DIR")
        if args.registry:
            from repro.registry import ModelRegistry, RegistryWatcher

            registry = ModelRegistry(args.registry)
            model, entry = registry.load()
            if args.watch_registry:
                watcher = RegistryWatcher(
                    registry,
                    start_version=entry.version,
                    min_interval_s=args.poll_interval,
                )
        elif args.model_file:
            model = load_model(args.model_file, backend=args.backend)
        else:
            raise ReproError("provide a model file or --registry DIR")
        session = InferenceSession(
            model,
            PredictorConfig(
                device=scaled_tesla_p100(),
                tracer=tracer,
                backend=args.backend,
            ),
        )
        admission = AdmissionController(
            default_policy=TenantPolicy(
                rate_per_s=args.rate_per_s,
                burst=args.burst,
                max_queue=args.max_queue,
            ),
            policies=_parse_tenant_policies(args.tenant_policy),
            max_queue_global=args.max_queue_global,
        )
        dispatcher = Dispatcher(
            session,
            n_workers=args.workers,
            max_batch=args.max_batch,
            admission=admission,
            tracer=tracer,
        )
        app = ServerApp(
            dispatcher, arrival_mode=args.arrival_mode, watcher=watcher
        )

        def ready(host: str, port: int) -> None:
            if not args.quiet:
                print(f"repro-serve: listening on http://{host}:{port} "
                      f"({args.workers} workers, max_batch {args.max_batch})",
                      flush=True)

        served = serve_http(
            app,
            args.host,
            args.port,
            max_requests=args.max_requests,
            ready_callback=ready,
        )
        dispatcher.shutdown(drain=True)
        if tracer is not None:
            tracer.write_jsonl(args.trace)
    except (ReproError, OSError) as exc:
        print(f"repro-serve: error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        stats = dispatcher.stats
        print(f"repro-serve: served {served} HTTP request(s); "
              f"admitted {stats.n_admitted}, shed {stats.n_shed} "
              f"(rate {stats.shed_rate:.1%}); {stats.n_dispatches} "
              f"dispatch(es), {stats.mean_batch_size:.2f} request(s) "
              "per dispatch")
        if app.n_swaps or app.n_swap_errors:
            print(f"repro-serve: hot-swapped {app.n_swaps} model "
                  f"version(s), {app.n_swap_errors} swap error(s)")
    return 0
