"""The row-block kernels of the dense path against the whole-matrix
expressions they replaced (kept in ``tests/oracles.py``), byte for byte.

Block boundaries are exercised twice: at the package's own block size, on
shapes whose entry count falls below, on and off a multiple of it, and with
the block size patched down to a few entries, so that small inputs span many
blocks.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from specluster import linalg, rng
from specluster.errors import InvalidInputError
from specluster.models import (
    MixtureModel,
    expected_matrix,
    noise_matrix,
    read_matrix_market,
    sample,
    write_matrix_market,
)

from oracles import (
    matrix_market_bytes_reference,
    noise_reference,
    read_matrix_market_reference,
    sample_reference,
    sq_dists_reference,
)

BLOCK = rng.BLOCK_ENTRIES
BLOCKS = st.sampled_from([BLOCK, 1, 3, 64])
# Column counts around the block size and its divisors; rows are capped so
# that no input exceeds 2**18 entries.
COLUMNS = st.sampled_from([1, 2, 5, 255, 256, 257, 4096, BLOCK - 1, BLOCK, BLOCK + 1])
MAX_ENTRIES = 1 << 18
# Means the integer threshold must get exactly right: both ends, a dyadic
# midpoint, the smallest steps above 0 and below 1 of a 53-bit uniform.
MEAN_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 3 * 2.0**-53, 2.0**-53, 1.0 - 2.0**-53]),
    st.floats(0.0, 1.0),
)
SEEDS = st.one_of(
    st.integers(-(2**63), 2**63),
    st.integers(2**64 - 2**10, 2**64 - 1),
    st.integers(-(2**10), 2**10),
)


def mixture(m: int, n: int, k: int, values: list[float]) -> MixtureModel:
    """k components over n columns whose means cycle through ``values``;
    weights that give near-equal whole counts summing to m."""
    k = min(k, m)
    means = np.resize(np.asarray(values, dtype=np.float64), k * n).reshape(k, n)
    counts = np.array([m // k + (1 if r < m % k else 0) for r in range(k)])
    return MixtureModel(means, counts / m)


def rows_for(n: int, m: int) -> int:
    return max(1, min(m, MAX_ENTRIES // n))


@given(
    n=COLUMNS,
    m=st.integers(1, 600),
    k=st.integers(1, 3),
    values=st.lists(MEAN_VALUES, min_size=1, max_size=7),
    seed=SEEDS,
    block=BLOCKS,
)
@example(n=256, m=256, k=2, values=[0.5, 3 * 2.0**-53], seed=-1, block=BLOCK)
@example(n=256, m=512, k=3, values=[1.0, 0.0, 0.5], seed=2**64 - 1, block=BLOCK)
@example(n=256, m=257, k=1, values=[0.25], seed=2**63, block=BLOCK)
@example(n=BLOCK, m=3, k=3, values=[0.5, 1.0, 0.0], seed=-(2**63), block=BLOCK)
@example(n=BLOCK + 1, m=2, k=2, values=[0.75], seed=7, block=BLOCK)
@example(n=1, m=600, k=3, values=[0.5, 0.1], seed=5, block=BLOCK)
def test_sample_and_noise_match_whole_matrix_references(n, m, k, values, seed, block):
    m = rows_for(n, m)
    model = mixture(m, n, k, values)
    with mock.patch.object(rng, "BLOCK_ENTRIES", block):
        ds = sample(model, m, seed)
        noise = noise_matrix(ds.matrix, model, ds.truth)
    ref_matrix, ref_truth = sample_reference(model, m, seed)
    assert ds.matrix.tobytes() == ref_matrix.tobytes()
    assert ds.truth.tobytes() == ref_truth.tobytes()
    assert noise.tobytes() == noise_reference(ds.matrix, model, ds.truth).tobytes()
    assert expected_matrix(model, m, seed).tobytes() == model.means[ref_truth].tobytes()


@given(
    data=st.data(),
    n=st.integers(1, 300),
    k=st.integers(1, 4),
    values=st.lists(MEAN_VALUES, min_size=1, max_size=9),
    prefix=st.integers(0, 2**64 - 1),
    block=BLOCKS,
)
def test_bernoulli_grid_is_the_float_test_on_uniform_grid(data, n, k, values, prefix, block):
    # Rows in any order, repeated or skipped, as sample and the margin draws use them.
    rows = np.asarray(data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=60)))
    labels = np.asarray(data.draw(st.lists(st.integers(0, k - 1), min_size=rows.size,
                                           max_size=rows.size)))
    means = np.resize(np.asarray(values), k * n).reshape(k, n)
    with mock.patch.object(rng, "BLOCK_ENTRIES", block):
        got = rng.bernoulli_grid(prefix, rows, means, labels)
    grid = rng.uniform_grid(prefix, int(rows.max()) + 1, n)
    assert got.tobytes() == (grid[rows] < means[labels]).astype(np.float64).tobytes()


def test_noise_matrix_checks_labels_and_shape():
    model = MixtureModel(np.array([[0.2, 0.4], [0.6, 0.8]]), np.array([0.5, 0.5]))
    matrix = np.ones((3, 2))
    with pytest.raises(InvalidInputError, match="truth labels out of range for model"):
        noise_matrix(matrix, model, [0, 2, 1])
    for truth, a in (([0, 1], matrix), ([0, 1, 1], np.ones((3, 3))), ([[0, 1, 1]], matrix)):
        with pytest.raises(InvalidInputError, match="does not match"):
            noise_matrix(a, model, truth)


@given(
    n=COLUMNS,
    m=st.integers(1, 600),
    density=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    block=BLOCKS,
)
@example(n=256, m=256, density=0.5, seed=0, block=BLOCK)
@example(n=1, m=5, density=1.0, seed=1, block=BLOCK)
def test_matrix_market_matches_whole_matrix_references(
    tmp_path_factory, n, m, density, seed, block
):
    m = rows_for(n, m)
    matrix = (np.random.default_rng(seed).random((m, n)) < density).astype(np.float64)
    path = tmp_path_factory.mktemp("mtx") / "a.mtx"
    with mock.patch.object(rng, "BLOCK_ENTRIES", block):
        write_matrix_market(path, matrix)
        back = read_matrix_market(path)
    assert path.read_bytes() == matrix_market_bytes_reference(matrix)
    assert back.dtype == np.float64 and back.flags.c_contiguous
    assert back.tobytes() == read_matrix_market_reference(path).tobytes() == matrix.tobytes()


@pytest.mark.parametrize("m, n", [(1, 1), (1, 4), (3, 1), (2, 3)])
def test_commented_matrix_market_matches_reference(tmp_path, m, n):
    # A comment sends the body to np.loadtxt, the reader's other path.
    values = np.arange(m * n) % 3
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n% note\n"
        f"{m} {n}\n" + "".join(f"{v}.0\n" for v in values)
    )
    got = read_matrix_market(path)
    assert got.flags.c_contiguous
    assert got.tobytes() == read_matrix_market_reference(path).tobytes()


ELEMENTS = st.floats(-1e6, 1e6, allow_nan=False, width=64)


@given(
    a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=70),
                 elements=ELEMENTS),
    k=st.integers(1, 4),
    layout=st.sampled_from(["C", "F", "strided"]),
    block=BLOCKS,
)
@example(a=np.full((1, 1), -0.0), k=1, layout="C", block=BLOCK)
def test_sq_dists_matches_whole_row_norms(a, k, layout, block):
    if layout == "F":
        a = np.asfortranarray(a)
    elif layout == "strided":
        a = np.repeat(a, 2, axis=1)[::1, ::2]
    c = np.linspace(-3.0, 3.0, k * a.shape[1]).reshape(k, a.shape[1])
    with mock.patch.object(rng, "BLOCK_ENTRIES", block):
        got = linalg.sq_dists(a, c)
    assert got.tobytes() == sq_dists_reference(a, c).tobytes()


@pytest.mark.parametrize("n_cols", [1, 4096, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK])
def test_sq_dists_on_wide_rows_matches_whole_row_norms(n_cols):
    # Wide rows: a few rows per block, one row per block, and rows wider than a block.
    a = np.random.default_rng(n_cols).standard_normal((3, n_cols)) * 1e3
    c = a[:2] / 7.0
    assert linalg.sq_dists(a, c).tobytes() == sq_dists_reference(a, c).tobytes()


@given(st.integers(0, 5000), st.integers(0, 3 * BLOCK), BLOCKS)
def test_row_blocks_cover_rows_in_order(n_rows, n_cols, block):
    with mock.patch.object(rng, "BLOCK_ENTRIES", block):
        blocks = list(rng.row_blocks(n_rows, n_cols))
    assert [i for s in blocks for i in range(s.start, s.stop)] == list(range(n_rows))
    assert all(s.stop > s.start for s in blocks)
    assert all((s.stop - s.start) * n_cols <= max(block, n_cols) for s in blocks)
