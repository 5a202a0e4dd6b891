"""Row-tile purity of the dense ``matmul_transpose`` (hypothesis).

``repro.backends.reference.matmul_transpose`` runs a partial row chunk in
the smallest power-of-two tile that holds it (8 to 256 rows).  That is
only bitwise-safe if the BLAS computes a row identically in every one of
those tiles; these tests pin the assumption and, on a BLAS that breaks
it, name the tile and the inner dimension ``k``.  A CSR feature space at
most ``DENSE_HOST_MAX_COLS`` wide takes the same tiled GEMM, so its rows
must be just as pure, whatever each row's density.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.reference import (
    DENSE_HOST_MAX_COLS,
    MATMUL_MIN_TILE_ROWS,
    MATMUL_TILE_ROWS,
    host_operand,
    matmul_transpose,
    row_tile,
)
from repro.sparse import CSRMatrix

TILES = [
    1 << p
    for p in range(
        MATMUL_MIN_TILE_ROWS.bit_length() - 1, MATMUL_TILE_ROWS.bit_length()
    )
]


def test_rule_picks_smallest_power_of_two_tile():
    assert TILES == [8, 16, 32, 64, 128, 256]
    assert [row_tile(r) for r in (0, 1, 7, 8, 9, 20, 129, 256)] == [
        8, 8, 8, 8, 16, 32, 256, 256
    ]


@given(
    k=st.sampled_from([7, 126, 196, 784, 2560]),
    n=st.integers(1, 700).filter(lambda n: n % 256),
    seed=st.integers(0, 2**31 - 1),
    short=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_every_row_tile_matches_the_full_tile(k, n, seed, short):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(MATMUL_TILE_ROWS, k))
    b = rng.normal(size=(n, k))
    full = matmul_transpose(a, b)
    for tile in TILES:
        # A batch that fills its tile exactly, or one padded into it.
        rows = tile // 2 + 1 if short and tile > MATMUL_MIN_TILE_ROWS else tile
        assert row_tile(rows) == tile
        got = matmul_transpose(a[:rows], b)
        assert got.tobytes() == full[:rows].tobytes(), (
            f"a {tile}-row tile computes rows differently from the "
            f"{MATMUL_TILE_ROWS}-row tile at k={k} (n={n}); this BLAS breaks "
            f"the row-tile assumption of repro.backends.reference"
        )


def test_tail_chunk_matches_a_batch_of_its_own():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(MATMUL_TILE_ROWS + 20, 196))
    b = rng.normal(size=(300, 196))
    whole = matmul_transpose(a, b)
    assert whole.tobytes() == np.vstack(
        [matmul_transpose(a[:MATMUL_TILE_ROWS], b), matmul_transpose(a[-20:], b)]
    ).tobytes()


def _varied_density_csr(rng, n_rows, n_cols):
    """Non-integer CSR rows, each 1% to 90% dense (at least one value)."""
    values = rng.normal(size=(n_rows, n_cols))
    keep = rng.random((n_rows, n_cols)) < rng.uniform(0.01, 0.9, size=(n_rows, 1))
    keep[np.arange(n_rows), rng.integers(0, n_cols, size=n_rows)] = True
    return CSRMatrix.from_dense(np.where(keep, values, 0.0))


@given(
    n_cols=st.sampled_from([5, 64, 126, DENSE_HOST_MAX_COLS]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=20, deadline=None)
def test_narrow_csr_rows_are_pure_across_batches_and_columns(n_cols, seed):
    rng = np.random.default_rng(seed)
    n = 300
    data = _varied_density_csr(rng, n, n_cols)
    full = matmul_transpose(data, data)
    # The dense source of the same feature space gives the same bits.
    dense = data.toarray()
    assert matmul_transpose(dense, dense).tobytes() == full.tobytes()
    prepared = host_operand(data).keep_tiles()  # resident, as a session's pool
    # Batches of the sparsest rows, of the densest rows and of a random
    # mix: a density rule would send some of them down another product.
    by_density = np.argsort(np.diff(data.indptr), kind="stable")
    few = int(rng.integers(1, 20))
    batches = [
        by_density[:few],
        by_density[-few:],
        rng.choice(n, size=int(rng.integers(1, 2 * MATMUL_TILE_ROWS))),
    ]
    for rows, columns in zip(batches, batches[::-1]):
        batch = data.take_rows(rows)
        assert matmul_transpose(batch, data).tobytes() == full[rows].tobytes()
        got = matmul_transpose(batch, data.take_rows(columns))
        assert got.tobytes() == full[np.ix_(rows, columns)].tobytes()
        got = matmul_transpose(prepared.take_rows(rows), prepared.take_rows(columns))
        assert got.tobytes() == full[np.ix_(rows, columns)].tobytes()
        got = matmul_transpose(prepared.take_rows(rows), prepared)
        assert got.tobytes() == full[rows].tobytes()
