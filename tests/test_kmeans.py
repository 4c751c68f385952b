import importlib
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exhaustive_kmeans_objective, kmeans_reference
from specluster import InvalidInputError, SweepSpec, kmeans, pipeline, run_sweep

kmeans_module = importlib.import_module("specluster.kmeans")

SIX_POINTS = np.array(
    [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [10.0, 10.0], [10.0, 11.0], [11.0, 10.0]]
)


def test_separated_duplicates():
    rows = np.vstack([np.zeros((5, 2)), np.full((5, 2), 10.0)])
    res = kmeans(rows, 2, seed=0)
    assert res.objective == 0.0
    assert len(set(res.labels[:5])) == 1 and len(set(res.labels[5:])) == 1
    assert res.labels[0] != res.labels[5]


def test_identical_rows_k1():
    rows = np.tile([0.25, 0.75, 0.5], (6, 1))
    res = kmeans(rows, 1, seed=3)
    assert res.objective == 0.0
    assert np.allclose(res.centroids[0], [0.25, 0.75, 0.5])


def test_six_points_two_clusters():
    res = kmeans(SIX_POINTS, 2, seed=0)
    # Optimal split is the two triangles; objective 8/3 per exhaustive search.
    assert res.objective == pytest.approx(8.0 / 3.0, abs=1e-12)
    assert res.objective == pytest.approx(exhaustive_kmeans_objective(SIX_POINTS, 2), abs=1e-12)


def test_matches_exhaustive_oracle_battery():
    rs = np.random.RandomState(42)
    equal = 0
    cases = 60
    for case in range(cases):
        m = rs.randint(4, 9)
        k = rs.randint(2, 4)
        if k > m:
            k = m
        points = rs.rand(m, rs.randint(1, 4))
        res = kmeans(points, k, seed=case)
        opt = exhaustive_kmeans_objective(points, k)
        assert res.objective >= opt - 1e-9  # never beats the true optimum
        if res.objective <= opt + 1e-9:
            equal += 1
    assert equal >= 0.95 * cases


def test_objective_recomputable():
    rs = np.random.RandomState(1)
    rows = rs.rand(30, 4)
    res = kmeans(rows, 3, seed=5)
    recomputed = float(np.sum((rows - res.centroids[res.labels]) ** 2))
    assert res.objective == pytest.approx(recomputed, rel=1e-12)
    assert np.all(np.bincount(res.labels, minlength=3) >= 1)


def test_objective_non_increasing_in_max_iter(monkeypatch):
    # One restart: MAX_ITER = t stops Lloyd's loop after t iterations of the
    # same run, so each added iteration may only lower the objective.
    monkeypatch.setattr(kmeans_module, "RESTARTS", 1)
    rs = np.random.RandomState(2)
    for seed in range(15):
        rows = rs.rand(25, 3)
        objectives = []
        for max_iter in range(1, 21):
            monkeypatch.setattr(kmeans_module, "MAX_ITER", max_iter)
            objectives.append(kmeans(rows, 4, seed=seed).objective)
        assert np.all(np.diff(objectives) <= 1e-9)


def test_partition_invariant_to_row_order():
    rs = np.random.RandomState(3)
    for seed in range(10):
        rows = rs.rand(18, 2)
        if seed % 3 == 0:
            rows[::2] = rows[1::2]  # inject duplicates
        perm = rs.permutation(18)
        res_a = kmeans(rows, 3, seed=seed)
        res_b = kmeans(rows[perm], 3, seed=seed)

        def partition(points, labels):
            groups = []
            for r in set(labels):
                rows_r = points[labels == r]
                order = np.lexsort(rows_r.T[::-1])
                groups.append(rows_r[order].tobytes())
            return sorted(groups)

        assert partition(rows, res_a.labels) == partition(rows[perm], res_b.labels)


def test_duplicate_degeneracy_flagged():
    rows = np.tile([1.0, 2.0], (5, 1))
    res = kmeans(rows, 3, seed=0)
    assert res.degenerate
    assert res.objective == 0.0
    assert np.all(np.bincount(res.labels, minlength=3) >= 1)  # no empty cluster


def test_determinism():
    rows = np.random.RandomState(8).rand(40, 5)
    a = kmeans(rows, 4, seed=123)
    b = kmeans(rows, 4, seed=123)
    assert np.array_equal(a.labels, b.labels)
    assert a.objective == b.objective
    assert np.array_equal(a.centroids, b.centroids)


def test_tie_breaks_to_lowest_cluster_index():
    rows = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    res = kmeans(rows, 2, seed=0)
    # (1,0) and (0,1) are equidistant from both centroids in any 2-split;
    # determinism just requires a stable outcome.
    again = kmeans(rows, 2, seed=0)
    assert np.array_equal(res.labels, again.labels)


def test_errors():
    with pytest.raises(InvalidInputError):
        kmeans(np.zeros((0, 2)), 1)
    with pytest.raises(InvalidInputError):
        kmeans(np.zeros((3, 2)), 0)
    with pytest.raises(InvalidInputError):
        kmeans(np.zeros((3, 2)), 4)


def test_removed_arguments_are_type_errors():
    # seed is keyword-only, so a call written for (rows, k, restarts, ...)
    # fails instead of reading restarts as the seed.
    rows = np.random.RandomState(0).rand(10, 3)
    with pytest.raises(TypeError):
        kmeans(rows, 2, 10)
    with pytest.raises(TypeError):
        kmeans(rows, 2, restarts=1)
    with pytest.raises(TypeError):
        kmeans(rows, 2, max_iter=1)


@pytest.mark.parametrize("k", [2.0, True])
def test_non_integral_budget_rejected(k):
    with pytest.raises(InvalidInputError, match="k must be an integer, got"):
        kmeans(np.random.RandomState(0).rand(10, 3), k)


def test_numpy_integer_budgets_accepted():
    rows = np.random.RandomState(4).rand(20, 3)
    assert_same_bytes(kmeans(rows, np.int64(3), seed=2), kmeans(rows, 3, seed=2))


@pytest.mark.parametrize("seed", [2.5, 2.0, True, "2", None])
def test_non_integral_seed_rejected(seed):
    with pytest.raises(InvalidInputError, match="seed must be an integer, got"):
        kmeans(np.random.RandomState(0).rand(10, 3), 2, seed=seed)


def test_numpy_integer_seeds_give_int_seed_bytes():
    rows = np.random.RandomState(4).rand(20, 3)
    for seed in (np.int64(-7), np.int32(5), np.uint64(2**63 + 1), np.int8(-1)):
        assert_same_bytes(kmeans(rows, 3, seed=seed), kmeans(rows, 3, seed=int(seed)))


def assert_same_bytes(got, ref):
    assert got.labels.dtype == ref.labels.dtype
    assert got.labels.tobytes() == ref.labels.tobytes()
    assert got.centroids.shape == ref.centroids.shape
    assert got.centroids.tobytes() == ref.centroids.tobytes()
    assert np.float64(got.objective).tobytes() == np.float64(ref.objective).tobytes()
    assert got.iterations == ref.iterations
    assert got.degenerate == ref.degenerate


@st.composite
def kmeans_inputs(draw):
    """Rows drawn from a small pool (so duplicates are common), 0-4 columns."""
    m = draw(st.integers(1, 24))
    n = draw(st.integers(0, 4))
    value = st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
    pool = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=m))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=m, max_size=m))
    rows = np.array([pool[i] for i in picks], dtype=np.float64).reshape(m, n)
    k = draw(st.integers(1, min(6, m)))
    restarts = draw(st.integers(1, 10))
    max_iter = draw(st.one_of(st.integers(1, 3), st.just(300)))
    return rows, k, restarts, max_iter, draw(st.integers(0, 2**63 - 1))


@settings(max_examples=150)
@given(kmeans_inputs())
def test_matches_reference_loop_bytes(case):
    rows, k, restarts, max_iter, seed = case
    # Patched per example: a monkeypatch fixture would span all examples.
    with (
        patch.object(kmeans_module, "RESTARTS", restarts),
        patch.object(kmeans_module, "MAX_ITER", max_iter),
    ):
        got = kmeans(rows, k, seed=seed)
    assert_same_bytes(got, kmeans_reference(rows, k, restarts, max_iter, seed))


def test_empty_cluster_repair_matches_reference_bytes(monkeypatch):
    # Two distinct rows and k=3: the third seed duplicates a chosen row, so
    # its cluster starts empty and the repair must refill it.
    rows = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
    repaired = []
    real_fix_empty = kmeans_module._fix_empty

    def recording_fix_empty(x, labels, c, d):
        repaired.append(np.bincount(labels, minlength=c.shape[0]).min() == 0)
        return real_fix_empty(x, labels, c, d)

    monkeypatch.setattr(kmeans_module, "_fix_empty", recording_fix_empty)
    for seed in range(4):
        assert_same_bytes(kmeans(rows, 3, seed=seed), kmeans_reference(rows, 3, seed=seed))
    assert any(repaired)


def test_sweep_grid_embeddings_match_reference_bytes(monkeypatch):
    # The inputs cluster() hands to k-means on the benchmark's 400x400 grid.
    calls = []

    def recording_kmeans(rows, k, *, seed):
        calls.append((np.array(rows), k, seed))
        return kmeans(rows, k, seed=seed)

    monkeypatch.setattr(pipeline, "kmeans", recording_kmeans)
    spec = SweepSpec(
        family="bsbm",
        axes={"k": [2, 4], "p": [0.1, 0.15, 0.2, 0.3, 0.45]},
        fixed={"m": 400, "n": 400, "q": 0.05},
        trials_per_cell=1,
        base_seed=0,
    )
    run_sweep(spec, workers=1)
    assert len(calls) == 20
    for rows, k, seed in calls:
        assert_same_bytes(kmeans(rows, k, seed=seed), kmeans_reference(rows, k, seed=seed))
