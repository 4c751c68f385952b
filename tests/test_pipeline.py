import numpy as np
import pytest

from specluster import (
    BsbmParams,
    CenterSet,
    InvalidInputError,
    assign,
    bsbm_to_mixture,
    center_error_check,
    cluster,
    cluster_detailed,
    expected_from_truth,
    find_centers,
    indicator_model,
    margin_batch,
    match_centers_to_means,
    sample,
    score,
    separation,
    spectral_norm,
    split_halves,
)


def noiseless_dataset(m, k, seed=0):
    model = indicator_model(3 * k, k, np.full(k, 1.0 / k))
    counts_ok = (m % k) == 0
    weights = np.full(k, 1.0 / k) if counts_ok else None
    assert counts_ok, "test helper expects m divisible by k"
    return sample(model, m, seed), model


class TestFindCenters:
    def test_exact_on_noiseless_blocks(self):
        ds, model = noiseless_dataset(12, 2)
        centers = find_centers(ds.matrix, 2, seed=0)
        matched = match_centers_to_means(centers, model)
        assert np.allclose(matched.centers, model.means)
        assert centers.cluster_sizes.sum() == 12

    def test_singleton_rows(self):
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        centers = find_centers(rows, 3, seed=1)
        matched = match_centers_to_means(
            centers,
            indicator_model(3, 3, [1 / 3, 1 / 3, 1 / 3]),
        )
        assert np.allclose(np.sort(matched.centers, axis=0), np.sort(rows, axis=0))
        assert np.array_equal(np.sort(centers.cluster_sizes), [1, 1, 1])

    def test_centers_in_unit_interval(self):
        model = bsbm_to_mixture(BsbmParams.balanced(30, 20, 3, 0.45, 0.05))
        ds = sample(model, 30, 2)
        centers = find_centers(ds.matrix, 3, seed=2)
        assert centers.centers.min() >= 0.0 and centers.centers.max() <= 1.0
        assert centers.cluster_sizes.sum() == 30

    def test_k_exceeding_rows(self):
        with pytest.raises(InvalidInputError):
            find_centers(np.zeros((2, 3)), 3, seed=0)

    def test_k_exceeding_columns(self):
        with pytest.raises(InvalidInputError, match="k=2 exceeds number of columns 1"):
            cluster(np.ones((20, 1)), 2, 0)
        with pytest.raises(InvalidInputError, match="k=3 exceeds number of columns 2"):
            find_centers(np.zeros((6, 2)), 3, seed=0)

    def test_center_error_bound_smoke(self):
        # Light version of the in-regime bound check; the full-scale run
        # lives in the acceptance suite.
        params = BsbmParams.balanced(200, 200, 2, 0.45, 0.05)
        model = bsbm_to_mixture(params)
        holds = 0
        for seed in range(10):
            ds = sample(model, 200, seed)
            noise = spectral_norm(ds.matrix - expected_from_truth(model, ds.truth))
            centers = find_centers(ds.matrix, 2, seed=seed)
            matched = match_centers_to_means(centers, model)
            report = center_error_check(matched, model, noise, 200)
            holds += report.within_bound
        assert holds >= 9


class TestAssign:
    def test_exact_center_row(self):
        centers = CenterSet(np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0]]), [1, 1, 1])
        labels = assign(np.array([[1.0, 1.0]]), centers)
        assert labels.tolist() == [1]

    def test_tie_breaks_low(self):
        centers = CenterSet(np.array([[0.0, 0.0], [1.0, 1.0]]), [1, 1])
        labels = assign(np.array([[1.0, 0.0], [0.0, 1.0]]), centers)
        assert labels.tolist() == [0, 0]

    def test_idempotent_and_order_invariant(self):
        rs = np.random.RandomState(0)
        rows = (rs.rand(20, 4) < 0.4).astype(float)
        centers = CenterSet(rs.rand(3, 4), [5, 5, 10])
        labels = assign(rows, centers)
        assert np.array_equal(labels, assign(rows, centers))
        perm = rs.permutation(20)
        assert np.array_equal(labels[perm], assign(rows[perm], centers))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            assign(np.zeros((2, 3)), CenterSet(np.zeros((2, 4)), [1, 1]))

    def test_fresh_sample_assignment_smoke(self):
        params = BsbmParams.balanced(200, 200, 2, 0.45, 0.05)
        model = bsbm_to_mixture(params)
        ds = sample(model, 200, 0)
        centers = match_centers_to_means(find_centers(ds.matrix, 2, seed=0), model)
        from specluster import rng

        correct = total = 0
        for r in range(2):
            grid = rng.uniform_grid(rng.mix64(999, r), 100, 200)
            fresh = (grid < model.means[r]).astype(float)
            batch = margin_batch(fresh, r, centers, model)
            correct += batch.correct
            total += batch.draws
        assert correct >= 0.99 * total


class TestSplit:
    def test_halves_partition(self):
        for m in (2, 9, 40):
            first, second = split_halves(m, seed=4)
            assert first.size == (m + 1) // 2
            assert second.size == m // 2
            assert np.array_equal(np.sort(np.concatenate([first, second])), np.arange(m))

    def test_seed_dependence(self):
        a1, _ = split_halves(30, seed=0)
        b1, _ = split_halves(30, seed=1)
        assert not np.array_equal(a1, b1)

    @pytest.mark.parametrize("seed", [1.7, 1.0, True, "1"])
    def test_non_integral_seed_rejected(self, seed):
        with pytest.raises(InvalidInputError, match="seed must be an integer, got"):
            split_halves(30, seed)


class TestCluster:
    def test_noiseless_exact(self):
        for m, k in [(12, 2), (30, 3), (40, 4)]:
            ds, _ = noiseless_dataset(m, k)
            labels = cluster(ds.matrix, k, seed=1)
            assert score(labels, ds.truth, k).exact

    def test_duplicated_rows_share_labels(self):
        ds, _ = noiseless_dataset(20, 2)
        stacked = np.vstack([ds.matrix, ds.matrix])
        labels = cluster(stacked, 2, seed=0)
        assert np.array_equal(labels[:20], labels[20:])

    def test_deterministic(self):
        model = bsbm_to_mixture(BsbmParams.balanced(40, 30, 2, 0.45, 0.05))
        ds = sample(model, 40, 5)
        a = cluster(ds.matrix, 2, seed=9)
        b = cluster(ds.matrix, 2, seed=9)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [1.7, True])
    def test_non_integral_seed_rejected(self, seed):
        ds, _ = noiseless_dataset(20, 2)
        with pytest.raises(InvalidInputError, match="seed must be an integer, got"):
            cluster(ds.matrix, 2, seed)

    def test_numpy_integer_seeds_give_int_seed_labels(self):
        ds = sample(bsbm_to_mixture(BsbmParams.balanced(40, 30, 2, 0.45, 0.05)), 40, 5)
        for seed in (np.int64(-3), np.int32(9), np.uint64(2**64 - 1)):
            assert cluster(ds.matrix, 2, seed).tobytes() == cluster(ds.matrix, 2, int(seed)).tobytes()

    def test_requires_two_k_rows(self):
        with pytest.raises(InvalidInputError):
            cluster(np.zeros((3, 4)), 2, seed=0)

    def test_never_reads_truth(self):
        # relabeling the ground truth cannot change the output partition
        model = bsbm_to_mixture(BsbmParams.balanced(30, 20, 2, 0.45, 0.05))
        ds = sample(model, 30, 1)
        labels = cluster(ds.matrix, 2, seed=2)
        flipped_truth = 1 - ds.truth
        assert score(labels, ds.truth, 2).accuracy == score(labels, flipped_truth, 2).accuracy

    def test_detailed_metadata(self):
        ds, _ = noiseless_dataset(24, 3)
        detail = cluster_detailed(ds.matrix, 3, seed=0)
        assert detail.first_half.size == 12 and detail.second_half.size == 12
        assert sorted(detail.matching.tolist()) == [0, 1, 2]
        assert not detail.match_ambiguous
        assert score(detail.labels, ds.truth, 3).exact

    def test_in_regime_recovery_smoke(self):
        params = BsbmParams.balanced(200, 200, 2, 0.5, 0.05)
        model = bsbm_to_mixture(params)
        exact = 0
        for seed in range(5):
            ds = sample(model, 200, seed)
            labels = cluster(ds.matrix, 2, seed=seed)
            exact += score(labels, ds.truth, 2).exact
        assert exact == 5


class TestCenterSetType:
    def test_invariants(self):
        with pytest.raises(InvalidInputError):
            CenterSet(np.array([[0.5, 1.5]]), [1])
        with pytest.raises(InvalidInputError):
            CenterSet(np.array([[0.5, 0.5]]), [0])
        cs = CenterSet(np.array([[0.25, 0.75]]), [4])
        assert cs.k == 1 and cs.n == 2

    def test_separation_helper_consistency(self):
        model = bsbm_to_mixture(BsbmParams.balanced(10, 8, 2, 0.45, 0.05))
        d = separation(model)
        assert d > 0
