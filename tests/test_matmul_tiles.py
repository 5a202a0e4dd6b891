"""Row-tile purity of the dense ``matmul_transpose`` (hypothesis).

``repro.backends.reference.matmul_transpose`` runs a partial row chunk in
the smallest power-of-two tile that holds it (8 to 256 rows).  That is
only bitwise-safe if the BLAS computes a row identically in every one of
those tiles; these tests pin the assumption and, on a BLAS that breaks
it, name the tile and the inner dimension ``k``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.reference import (
    MATMUL_MIN_TILE_ROWS,
    MATMUL_TILE_ROWS,
    matmul_transpose,
    row_tile,
)

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
