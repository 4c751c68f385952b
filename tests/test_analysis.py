import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import binom

from oracles import best_permutation_accuracy
from specluster import (
    BsbmParams,
    CenterSet,
    InvalidInputError,
    MixtureModel,
    assignment_margins,
    bsbm_to_mixture,
    center_error_check,
    column_sum_check,
    condition_report,
    expected_from_truth,
    heuristic_verdicts,
    overlap_check,
    sample,
    score,
    separation,
    spectral_norm,
)


class TestScore:
    def test_identity(self):
        truth = np.array([0, 0, 1, 1])
        sc = score(truth, truth, 2)
        assert sc.exact and sc.accuracy == 1.0

    def test_global_swap_is_exact(self):
        truth = np.array([0, 0, 1, 1])
        sc = score(1 - truth, truth, 2)
        assert sc.exact and sc.accuracy == 1.0
        assert np.array_equal(sc.permutation, [1, 0])

    def test_partial_agreement(self):
        truth = np.array([0, 0, 1, 1])
        predicted = np.array([0, 1, 1, 1])
        sc = score(predicted, truth, 2)
        assert not sc.exact
        assert sc.accuracy == pytest.approx(0.75)
        assert np.array_equal(sc.confusion, [[1, 1], [0, 2]])

    def test_matches_exhaustive_permutation_search(self):
        rs = np.random.RandomState(0)
        for _ in range(50):
            k = rs.randint(2, 5)
            m = rs.randint(k, 20)
            truth = np.concatenate([np.arange(k), rs.randint(0, k, size=m - k)])
            predicted = rs.randint(0, k, size=m)
            sc = score(predicted, truth, k)
            assert sc.accuracy == pytest.approx(
                best_permutation_accuracy(predicted, truth, k), abs=1e-12
            )

    @given(st.integers(0, 5_000))
    def test_invariant_under_joint_relabeling(self, seed):
        rs = np.random.RandomState(seed)
        k = int(rs.randint(2, 5))
        m = int(rs.randint(1, 25))
        truth = rs.randint(0, k, size=m)
        predicted = rs.randint(0, k, size=m)
        relabel = rs.permutation(k)
        a = score(predicted, truth, k)
        b = score(relabel[predicted], relabel[truth], k)
        assert a.accuracy == b.accuracy and a.exact == b.exact

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            score(np.array([0, 1]), np.array([0]), 2)

    @pytest.mark.parametrize(
        "k, message",
        [(2.5, "k must be an integer, got 2.5"), (2.0, "k must be an integer, got 2.0"),
         (True, "k must be an integer, got True"), (0, "k must be at least 1, got 0")],
    )
    def test_non_integral_k_rejected(self, k, message):
        labels = np.array([0, 1, 0, 1])
        for check in (score, overlap_check):
            with pytest.raises(InvalidInputError, match=message):
                check(labels, labels, k)
        assert score(labels, labels, np.int64(2)).exact


class TestConditionReport:
    def make_dataset(self, seed=0):
        params = BsbmParams(20, 10, 2, 0.4, 0.1, (10, 10), np.repeat([0, 1], 5))
        model = bsbm_to_mixture(params)
        ds = sample(model, 20, seed)
        ds.bsbm = params
        return ds, model, params

    def test_noiseless_noise_is_zero(self):
        from specluster import indicator_model

        model = indicator_model(8, 2, [0.5, 0.5])
        ds = sample(model, 10, 0)
        report = condition_report(ds)
        assert report.spectral_noise_sq == 0.0

    def test_paper_separation_value(self):
        ds, _, _ = self.make_dataset()
        report = condition_report(ds)
        assert report.delta_mu ** 2 == pytest.approx(0.9, rel=1e-12)

    def test_fields_and_recompute(self):
        ds, model, params = self.make_dataset(3)
        report = condition_report(ds)
        noise = spectral_norm(ds.matrix - expected_from_truth(model, ds.truth))
        assert report.spectral_noise_sq == pytest.approx(noise ** 2, rel=2e-8)
        dm = separation(model)
        assert report.spectral_threshold == pytest.approx(
            0.01 * 0.5 * 20 * dm * dm / (50 * 2)
        )
        assert report.m_sigma_sq == pytest.approx(20 * model.sigma_sq)
        assert report.sigma_over_wmin_sqrt == pytest.approx(
            np.sqrt(model.sigma_sq / 0.5)
        )
        assert report.bsbm_lhs == pytest.approx((0.4 - 0.1) ** 2 / model.sigma_sq)
        assert report.bsbm_rhs_shape == pytest.approx(2 * 30 / (0.5 * 20 * 10))
        assert report.talagrand_ratio == pytest.approx(
            noise ** 2 / (model.sigma_sq * 30), rel=2e-8
        )

    def test_json_keys(self):
        ds, _, _ = self.make_dataset()
        payload = condition_report(ds).to_json()
        assert set(payload) == {
            "spectral_noise_sq",
            "spectral_threshold",
            "m_sigma_sq",
            "delta_mu",
            "sigma_over_wmin_sqrt",
            "bsbm_lhs",
            "bsbm_rhs_shape",
            "talagrand_ratio",
        }
        assert all(
            v is None or (np.isfinite(v) and v >= 0) for v in payload.values()
        )

    def test_requires_metadata(self):
        from specluster import BinaryDataset

        with pytest.raises(InvalidInputError):
            condition_report(BinaryDataset(np.zeros((2, 2))))

    @pytest.mark.parametrize("m, n", [(20, 10), (120, 90)])
    def test_leaves_the_matrix_unchanged(self, m, n):
        # The CLI writes A - E over a matrix it is done with; the library
        # call must not, on the LAPACK norm path or the blocked one.
        ds = sample(bsbm_to_mixture(BsbmParams.balanced(m, n, 2, 0.4, 0.1)), m, 0)
        matrix, before = ds.matrix, ds.matrix.copy()
        assert condition_report(ds).spectral_noise_sq > 0
        assert ds.matrix is matrix
        assert matrix.tobytes() == before.tobytes()

    def test_talagrand_moderate_constant(self):
        # sigma^2 = 0.5 (p = 0.5): the noise-to-sigma^2(m+n) ratio stays
        # order one across seeds; the distribution is recorded for the log.
        params = BsbmParams.balanced(500, 500, 2, 0.5, 0.05)
        model = bsbm_to_mixture(params)
        ratios = []
        for seed in range(50):
            ds = sample(model, 500, seed)
            ds.bsbm = params
            ratios.append(condition_report(ds).talagrand_ratio)
        ratios = np.asarray(ratios)
        print(
            "talagrand_ratio over 50 seeds:"
            f" min={ratios.min():.4f} median={np.median(ratios):.4f} max={ratios.max():.4f}"
        )
        assert ratios.max() <= 2.0

    def test_heuristic_verdicts(self):
        ds, _, _ = self.make_dataset()
        report = condition_report(ds)
        verdicts = heuristic_verdicts(report, slack=1.0)
        assert set(verdicts) == {
            "spectral_condition_met",
            "m_sigma_sq_heuristic",
            "separation_heuristic",
            "bsbm_heuristic",
        }
        assert verdicts["m_sigma_sq_heuristic"] is (report.m_sigma_sq >= 1.0)


class TestCenterErrorCheck:
    def setup_method(self):
        params = BsbmParams.balanced(40, 20, 2, 0.45, 0.05)
        self.model = bsbm_to_mixture(params)

    def test_exact_centers(self):
        centers = CenterSet(self.model.means, [20, 20])
        report = center_error_check(centers, self.model, noise_norm=1.0, m=40)
        assert np.allclose(report.errors, 0.0)
        assert report.holds

    def test_constructed_violation_of_second_inequality(self):
        dm = separation(self.model)
        bump = np.zeros_like(self.model.means)
        bump[0, 0] = 0.2 * dm
        centers = CenterSet(np.clip(self.model.means + bump, 0, 1), [20, 20])
        report = center_error_check(centers, self.model, noise_norm=100.0, m=40)
        assert report.within_bound  # huge noise budget
        assert not report.within_tenth_separation
        assert not report.holds

    def test_k_mismatch(self):
        centers = CenterSet(np.zeros((3, 20)), [1, 1, 1])
        with pytest.raises(InvalidInputError):
            center_error_check(centers, self.model, 1.0, 40)


class TestOverlapCheck:
    def test_exact_partition(self):
        truth = np.repeat([0, 1, 2], 10)
        assert np.allclose(overlap_check(truth, truth, 3), 1.0)

    def test_one_of_ten_misplaced(self):
        truth = np.repeat([0, 1], 10)
        labels = truth.copy()
        labels[0] = 1
        fractions = overlap_check(labels, truth, 2)
        assert fractions[0] == pytest.approx(0.9)
        assert fractions[1] == pytest.approx(1.0)

    def test_label_names_do_not_matter(self):
        truth = np.repeat([0, 1], 5)
        labels = 1 - truth
        assert np.allclose(overlap_check(labels, truth, 2), 1.0)


class TestColumnSumCheck:
    def test_zero_matrix(self):
        max_sum, ratio = column_sum_check(np.zeros((5, 4)), sigma_sq=1.0)
        assert max_sum == 0.0 and ratio == 0.0

    def test_all_one_column(self):
        max_sum, ratio = column_sum_check(np.ones((7, 1)), sigma_sq=1.0)
        assert max_sum == 7.0 and ratio == pytest.approx(1.0)

    def test_bernoulli_band(self):
        # Bernoulli(0.3) column with m = 1000 and sigma_sq = 0.3: the exact
        # binomial band [240, 360] has mass > 0.99 and the ratio lands in
        # [0.8, 1.2] accordingly.
        expected_rate = binom.cdf(360, 1000, 0.3) - binom.cdf(239, 1000, 0.3)
        assert expected_rate > 0.99
        model = MixtureModel(np.full((1, 1), 0.3), np.array([1.0]))
        inside = 0
        seeds = range(200)
        for s in seeds:
            ds = sample(model, 1000, s)
            _, ratio = column_sum_check(ds.matrix, sigma_sq=0.3)
            inside += 0.8 <= ratio <= 1.2
        assert inside >= 0.99 * len(seeds)


class TestAssignmentMargins:
    def setup_method(self):
        params = BsbmParams.balanced(20, 12, 3, 0.45, 0.05)
        self.model = bsbm_to_mixture(params)
        self.centers = CenterSet(self.model.means, [7, 7, 6])

    def test_zero_cross_terms_at_exact_sample(self):
        margins = assignment_margins(self.model.means[0], 0, self.centers, self.model)
        assert np.allclose(margins.center_cross, 0.0)
        assert np.allclose(margins.sample_cross, 0.0)
        assert np.all(margins.gap_sq > 0)
        assert np.all(margins.part1_holds()) and np.all(margins.part2_holds())

    def test_degenerate_centers_flagged(self):
        means = self.model.means.copy()
        means[1] = means[0]
        centers = CenterSet(means, [7, 7, 6])
        margins = assignment_margins(means[0], 0, centers, self.model)
        assert margins.degenerate[margins.rivals.tolist().index(1)]
        assert margins.gap_sq[margins.rivals.tolist().index(1)] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            assignment_margins(np.zeros(5), 0, self.centers, self.model)


def test_exact_score_implies_assign_consistency():
    # On noiseless data an exact clustering is a fixed point: assigning by
    # the truth-derived centers reproduces the predicted partition.
    from specluster import assign, cluster, indicator_model

    model = indicator_model(9, 3, np.full(3, 1 / 3))
    ds = sample(model, 30, 0)
    predicted = cluster(ds.matrix, 3, seed=0)
    sc = score(predicted, ds.truth, 3)
    assert sc.exact
    truth_centers = CenterSet(model.means, np.bincount(ds.truth))
    reassigned = assign(ds.matrix, truth_centers)
    # same partition: predicted relabels truth-derived assignment bijectively
    assert score(reassigned, predicted, 3).exact


@given(st.integers(0, 10_000))
def test_three_term_distance_identity(seed):
    # ||a - c_s||^2 == ||a - c_r||^2 + ||c_r - c_s||^2 + 2 <a - c_r, c_r - c_s>
    rs = np.random.RandomState(seed)
    n = int(rs.randint(1, 40))
    a, cr, cs = rs.rand(n), rs.rand(n), rs.rand(n)
    lhs = float(np.sum((a - cs) ** 2))
    rhs = (
        float(np.sum((a - cr) ** 2))
        + float(np.sum((cr - cs) ** 2))
        + 2.0 * float(np.dot(a - cr, cr - cs))
    )
    assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, lhs))
