"""End-to-end benchmark of GMP-SVM training, prediction and serving.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload W ...] [--seed S ...] [--seconds N]
                                  [--trace 0|1] [--trace-dir DIR] [--json OUT]
                                  [--repeat N]

Each workload runs in its own fresh subprocess, one after another.  The
command prints every metric by name with its unit, checks the outputs
(``correct`` is false if any check failed) and, as its last line, one
JSON object: for a single run ``{"correct", "attempted", "failed",
"metrics"}``; for several runs the same keys with ``runs`` in place of
``metrics``.  ``--trace 1`` reports the per-layer metrics instead of the
end-to-end ones and writes a Chrome trace per run into ``--trace-dir``.

Spread tool: ``--repeat N`` runs N sets at each given seed (each
workload's registry seed when none is given), alternating the workload
order between sets, and prints per workload and metric the median, the
quartiles and their spread as a share of the median, flagging spreads
wider than the bound ``BENCHMARK.json`` gives the metric and simulated
metrics that differ between runs at one seed.  Several seeds
(``--seed 1 2 3``) measure the spread across inputs as well.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):
    # Run as a script: import this package from the repository root, not
    # from this directory, where trace.py would shadow the stdlib module.
    sys.path[0] = str(ROOT)
if str(ROOT / "src") not in sys.path:
    sys.path.insert(1, str(ROOT / "src"))

import os  # noqa: E402

# One BLAS thread per process (set before NumPy loads): on a small shared
# machine a multi-threaded GEMM waits for its slowest thread, which makes
# run-to-run times far noisier.  The same setting reaches every workload
# and server process through the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from benchmarks.e2e.layers import PER_LAYER_METRICS  # noqa: E402
from benchmarks.e2e.stats import quartile_spread  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    E2E_METRICS,
    SIMULATED_METRICS,
    WORKLOADS,
    child_env,
)

DEFAULT_SECONDS = 20
DEFAULT_TRACE_DIR = Path(__file__).resolve().parent / "out"
# A run must end within 180 s; past this the run's process group is killed.
CHILD_TIMEOUT_S = 170
GEMM_N = 1024


def machine_stamp() -> dict:
    """nproc, versions, BLAS build and a fixed 1024^2 float64 GEMM rate."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((GEMM_N, GEMM_N))
    b = rng.standard_normal((GEMM_N, GEMM_N))
    a @ b
    times = []
    for _ in range(5):
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "gemm_gflops": 2 * GEMM_N**3 / statistics.median(times) / 1e9,
    }


def run_child(workload: str, seed, seconds: float, trace: bool, out_dir: Path):
    """Run one workload in a fresh process; its result dict, or None on failure."""
    command = [
        sys.executable, "-m", "benchmarks.e2e.workloads",
        "--workload", workload, "--seconds", str(seconds),
        "--trace", str(int(trace)), "--out", str(out_dir),
    ]
    if seed is not None:
        command += ["--seed", str(seed)]
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)  # the workload and its server
        process.communicate()
        print(f"e2e: {workload} timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    except BaseException:  # interrupted or terminated: stop the run's processes too
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        print(f"e2e: {workload} failed (exit {process.returncode})", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def contract_metrics(result: dict, stamp: dict) -> dict:
    """``{name: {"value", "unit"}}`` for every metric of the run's kind."""
    values = dict(result["metrics"])
    if result["trace"]:
        values["machine.gemm_gflops"] = stamp["gemm_gflops"]
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in (PER_LAYER_METRICS if result["trace"] else E2E_METRICS)
    }


def print_run(result: dict, metrics: dict) -> None:
    status = "correct" if result["correct"] else "INCORRECT"
    print(
        f"e2e {result['workload']} seed={result['seed']} {status} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"inputs sha256={result['input_sha256'][:16]}"
    )
    for name, metric in metrics.items():
        note = "  (missing)" if name in result["missing"] else ""
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}{note}")
    failed_checks = [k for k, ok in result["checks"].items() if not ok]
    if failed_checks:
        print(f"  failed checks: {', '.join(failed_checks)}")
    print(f"  detail: {json.dumps(result['detail'], sort_keys=True)}")


def _bounds() -> dict[str, float]:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    return {m["name"]: m["bound"] for m in json.loads(path.read_text())["end_to_end"]}


def print_spread(runs: list[dict]) -> None:
    """Median, quartiles and quartile spread per workload and metric."""
    bounds = _bounds()
    print("\nspread over sets: median [q1, q3] spread (bound)")
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        seeds = sorted({r["seed"] for r in mine})
        print(f"{workload} ({len(mine)} runs, seeds {seeds})")
        for name in mine[0]["contract"]:
            values = [r["contract"][name]["value"] for r in mine]
            q1, _, q3 = (
                statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            )
            spread = quartile_spread(values)
            bound = bounds.get(name)
            flag = " FLAG" if bound is not None and spread > bound else ""
            if name in SIMULATED_METRICS and any(
                len({r["contract"][name]["value"] for r in mine if r["seed"] == seed}) > 1
                for seed in seeds
            ):
                flag += " NOT-EXACT"
            print(
                f"  {name:32s} {statistics.median(values):>14.6g} "
                f"[{q1:.6g}, {q3:.6g}] {spread:7.2%}"
                + (f" ({bound:.0%})" if bound is not None else "")
                + flag
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end GMP-SVM benchmark (see benchmarks/e2e/README.md)."
    )
    parser.add_argument("--workload", nargs="+", action="extend",
                        choices=sorted(WORKLOADS), help="default: all")
    parser.add_argument("--seed", type=int, nargs="+", default=[None],
                        help="input seeds (default: each workload's registry seed)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of each timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--trace-dir", type=Path, default=DEFAULT_TRACE_DIR,
                        help="where traced runs write Chrome trace JSON")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write every result (with machine stamp) here")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run N sets per seed and report the spread of every metric")
    args = parser.parse_args(argv)
    # A terminated benchmark still stops the workload process group it runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = args.workload or list(WORKLOADS)
    args.trace_dir.mkdir(parents=True, exist_ok=True)

    stamp = machine_stamp()
    runs = []
    sets = [seed for _ in range(max(1, args.repeat)) for seed in args.seed]
    for index, seed in enumerate(sets):
        order = workloads if index % 2 == 0 else workloads[::-1]
        for workload in order:
            result = run_child(workload, seed, args.seconds, bool(args.trace), args.trace_dir)
            if result is None:
                return 1
            result["contract"] = contract_metrics(result, stamp)
            print_run(result, result["contract"])
            runs.append(result)

    if len(sets) > 1:
        print_spread(runs)
    if args.json is not None:
        args.json.write_text(json.dumps({"machine": stamp, "runs": runs}, indent=1))
    summary = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    if len(runs) == 1:
        summary["metrics"] = runs[0]["contract"]
    else:
        summary["runs"] = [
            {"workload": r["workload"], "seed": r["seed"], "metrics": r["contract"]}
            for r in runs
        ]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
