"""Host sweep behind ``DENSE_HOST_MAX_COLS``: CSR product vs densified GEMM.

``repro.backends.reference.matmul_transpose`` computes a CSR product as
a dense, row/column-tiled GEMM when the feature space has at most
``DENSE_HOST_MAX_COLS`` columns, and as the blocked CSR x CSR product
otherwise.  The simulated clock charges the CSR operands either way, so
the bound is a host wall-clock choice only.  This bench times both
products at the shapes the kernel-row and prediction products take
(8 to 256 rows against a 500- to 1500-row resident operand), over
``n_cols`` and density:

- ``csr`` — ``CSRMatrix.matmul_transpose`` (the wide path);
- ``dense`` — densify the ``a`` batch, then the tiled GEMM against a
  prepared ``b`` whose column tiles are already resident, as they are
  for a training set, a class's column block or a serving pool.

Each cell is the best of ``REPS`` alternating timings, reported as the
dense path's speedup (``csr / dense``).  The test asserts that the
committed bound lies where the dense path wins and below news20's
2560 columns.  Run directly for the table alone::

    PYTHONPATH=src:. python benchmarks/bench_dense_host.py
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.backends.reference import (
    DENSE_HOST_MAX_COLS,
    HostOperand,
    matmul_transpose,
)
from repro.perf.speedup import format_table
from repro.sparse import CSRMatrix

from benchmarks import common

pytestmark = pytest.mark.slow

N_COLS = (64, 126, 256, 512, 1024, 2560, 4096)
DENSITIES = (0.01, 0.03, 0.10, 0.33)
# (a rows, b rows): a small kernel-row batch, a fused wave, a full tile.
SHAPES = ((8, 500), (64, 1000), (256, 1500))
REPS = 3
NEWS20_COLS = 2560


def _csr(rng: np.random.Generator, rows: int, n_cols: int, density: float) -> CSRMatrix:
    """Non-integer CSR rows with about ``density`` of their cells stored."""
    values = rng.uniform(0.1, 1.0, size=(rows, n_cols))
    values[rng.random((rows, n_cols)) >= density] = 0.0
    return CSRMatrix.from_dense(values)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def time_cell(
    n_cols: int, density: float, rows: int, n: int, seed: int
) -> tuple[float, float]:
    """Best-of-``REPS`` seconds of the CSR and the dense product."""
    rng = np.random.default_rng(seed)
    a = _csr(rng, rows, n_cols, density)
    b = _csr(rng, n, n_cols, density)
    prepared = HostOperand(b.toarray()).keep_tiles()
    csr_s, dense_s = [], []
    for _ in range(REPS):  # alternate so load drift hits both paths
        csr_s.append(_timed(lambda: a.matmul_transpose(b)))
        dense_s.append(_timed(lambda: matmul_transpose(a.toarray(), prepared)))
    return min(csr_s), min(dense_s)


def build_rows() -> dict[str, dict[str, float]]:
    """``{"cols=N": {"d=1%": speedup, ...}}``, the worst shape per cell."""
    rows: dict[str, dict[str, float]] = {}
    for i, n_cols in enumerate(N_COLS):
        row = {}
        for j, density in enumerate(DENSITIES):
            speedups = []
            for k, (m, n) in enumerate(SHAPES):
                seed = 100 * i + 10 * j + k
                csr_s, dense_s = time_cell(n_cols, density, m, n, seed)
                speedups.append(csr_s / dense_s)
            row[f"d={density:.0%}"] = min(speedups)
        rows[f"cols={n_cols}"] = row
    return rows


def _render(rows: dict[str, dict[str, float]]) -> str:
    return format_table(
        rows,
        [f"d={d:.0%}" for d in DENSITIES],
        title=(
            "Dense host product speedup over the CSR product "
            f"(worst of {len(SHAPES)} shapes; bound {DENSE_HOST_MAX_COLS} cols)"
        ),
        value_format="0.3g",
        row_label="n_cols",
    )


def test_dense_host_bound(benchmark):
    rows = common.run_benchmark_once(benchmark, build_rows)
    common.record_table("dense host", _render(rows), metrics=rows)
    assert DENSE_HOST_MAX_COLS < NEWS20_COLS
    # Every feature space the bound sends to the dense GEMM is one where
    # the GEMM wins at every swept density and shape.
    for n_cols in N_COLS:
        if n_cols <= DENSE_HOST_MAX_COLS:
            assert min(rows[f"cols={n_cols}"].values()) > 1.0, (n_cols, rows)


if __name__ == "__main__":
    print(_render(build_rows()))
