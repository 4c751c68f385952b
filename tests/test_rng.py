import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from specluster import rng

KEYS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3)


@given(KEYS, st.integers(1, 12), st.integers(1, 8))
def test_grid_entry_equals_per_row_draw(key, n_rows, n_cols):
    """Entry (j, t) of the grid under ``key`` is draw t under ``(*key, j)``:
    k-means++ reads restart j's picks from row j."""
    grid = rng.uniform_grid(rng.mix64(*key), n_rows, n_cols)
    assert grid.shape == (n_rows, n_cols)
    for j in range(n_rows):
        row = rng.uniform_array(rng.mix64(*key, j), np.arange(n_cols, dtype=np.uint64))
        assert grid[j].tobytes() == row.tobytes()
