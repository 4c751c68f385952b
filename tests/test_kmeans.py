import numpy as np
import pytest

from oracles import exhaustive_kmeans_objective
from specluster import InvalidInputError, kmeans

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


def test_trace_monotone_every_restart():
    rs = np.random.RandomState(2)
    for seed in range(15):
        rows = rs.rand(25, 3)
        res = kmeans(rows, 4, restarts=1, max_iter=50, seed=seed)
        trace = np.asarray(res.objective_trace)
        assert np.all(trace[1:] <= trace[:-1] + 1e-9)


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
    with pytest.raises(InvalidInputError):
        kmeans(np.zeros((3, 2)), 2, restarts=0)


def test_zero_iteration_budget_rejected():
    with pytest.raises(InvalidInputError, match="max_iter"):
        kmeans(np.eye(3), 2, max_iter=0)
