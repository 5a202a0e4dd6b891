"""Interleaved wave driver vs the sequential pair loop (Section 3.3.2).

This bench times the *host* execution of the same k = 10 training
workload under the two concurrency realisations:

- ``sequential`` — the ablation path: the 45 pairwise solvers run one
  after another, each fetching its own kernel rows;
- ``interleaved`` — the wave driver: concurrently-admitted solvers step
  in lockstep and each wave's missing-row demand is fused into a single
  batched launch through the shared segment store.

On the host, fusing saves per-launch overhead: each kernel-row product
pays a fixed cost (materialising the column tiles of the training block,
Python dispatch, one GEMM per column tile) whatever its row count, so one
launch per wave replaces one per solver.  Row tiles are right-sized
(``repro.backends.reference.row_tile``: the smallest power of two from 8
to 256 rows), so a small batch no longer pays for a 256-row tile, and
the margin is what the fused launches and the shared row store save, not
padding.  The inner SMO differs too: the interleaved arm solves each
wave's working-set subproblems in one stacked lockstep call, while the
sequential arm solves one subproblem per call (a stack of one), so it
pays the per-iteration NumPy dispatch once per solver rather than once
per wave.  Both paths produce bitwise-identical models —
the bench asserts it — so the speedup is pure execution-level win.

Wall-clock numbers are load-sensitive, so each arm is timed
``REPS`` times alternately and the minima are compared; the simulated
seconds and concurrency stats come from the wave trace and are exactly
reproducible (those are what the committed baseline gates).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.trainer import TrainerConfig, train_multiclass
from repro.data import gaussian_blobs
from repro.gpusim.device import scaled_tesla_p100
from repro.kernels.functions import kernel_from_name
from repro.perf.speedup import format_table

from benchmarks import common

pytestmark = pytest.mark.slow

N = 1000
N_FEATURES = 384
N_CLASSES = 10
WORKING_SET = 48
BLOCKS_PER_SVM = 2
PENALTY = 10.0
REPS = 3
MIN_WALL_SPEEDUP = 1.5


def _fit(x, y, kernel, *, concurrent: bool):
    config = TrainerConfig(
        device=scaled_tesla_p100(),
        solver="batched",
        concurrent=concurrent,
        share_kernel_values=True,
        probability=False,
        working_set_size=WORKING_SET,
        blocks_per_svm=BLOCKS_PER_SVM,
    )
    start = time.perf_counter()
    model, report = train_multiclass(config, x, y, kernel, PENALTY)
    return time.perf_counter() - start, model, report


def models_bitwise_equal(model_a, model_b) -> bool:
    """Identical pairwise records down to the last bit."""
    for rec_a, rec_b in zip(model_a.records, model_b.records):
        if not (
            np.array_equal(rec_a.coefficients, rec_b.coefficients)
            and np.array_equal(rec_a.global_sv_indices, rec_b.global_sv_indices)
            and rec_a.bias == rec_b.bias
            and rec_a.objective == rec_b.objective
        ):
            return False
    return True


def build_rows() -> dict[str, dict[str, float]]:
    x, y = gaussian_blobs(n=N, n_features=N_FEATURES, n_classes=N_CLASSES, seed=7)
    kernel = kernel_from_name("gaussian", gamma=1.0 / N_FEATURES)

    seq_walls, int_walls = [], []
    for _ in range(REPS):  # alternate arms so load drift cancels
        wall, model_seq, report_seq = _fit(x, y, kernel, concurrent=False)
        seq_walls.append(wall)
        wall, model_int, report_int = _fit(x, y, kernel, concurrent=True)
        int_walls.append(wall)

    assert report_int.schedule_source == "wave_trace"
    assert models_bitwise_equal(model_seq, model_int), (
        "interleaving changed the trained model"
    )
    return {
        "sequential": {
            "wall(s)": min(seq_walls),
            "sim(s)": report_seq.simulated_seconds,
            "max_conc": 1.0,
            "waves": 0.0,
        },
        "interleaved": {
            "wall(s)": min(int_walls),
            "sim(s)": report_int.simulated_seconds,
            "max_conc": float(report_int.max_concurrency),
            "waves": float(len(report_int.wave_trace)),
        },
    }


def test_train_interleave(benchmark):
    rows = common.run_benchmark_once(benchmark, build_rows)
    wall_speedup = rows["sequential"]["wall(s)"] / rows["interleaved"]["wall(s)"]
    sim_speedup = rows["sequential"]["sim(s)"] / rows["interleaved"]["sim(s)"]
    rows["interleaved"]["wall_x"] = wall_speedup
    rows["sequential"]["wall_x"] = 1.0
    text = format_table(
        rows,
        ["wall(s)", "wall_x", "sim(s)", "max_conc", "waves"],
        title=f"Interleaved wave driver — k={N_CLASSES} synthetic",
        row_label="mode",
    )
    common.record_table("train interleave", text, metrics=rows)
    # The fused wave driver must beat the sequential loop on the host...
    assert wall_speedup >= MIN_WALL_SPEEDUP
    # ...and on the simulated device timeline.
    assert sim_speedup > 1.0


if __name__ == "__main__":
    rows = build_rows()
    rows["sequential"]["wall_x"] = 1.0
    rows["interleaved"]["wall_x"] = (
        rows["sequential"]["wall(s)"] / rows["interleaved"]["wall(s)"]
    )
    print(
        format_table(
            rows,
            ["wall(s)", "wall_x", "sim(s)", "max_conc", "waves"],
            title=f"Interleaved wave driver — k={N_CLASSES} synthetic",
            row_label="mode",
        )
    )
