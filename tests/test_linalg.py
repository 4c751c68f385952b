import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import brute_force_matching, jacobi_eigh_reference, mgs_reference
from specluster import linalg
from specluster import (
    ConvergenceError,
    InvalidInputError,
    bsbm_to_mixture,
    BsbmParams,
    cluster,
    expected_from_truth,
    frobenius_norm,
    jacobi_svd,
    match_center_sets,
    sample,
    spectral_norm,
    truncated_svd,
)
from specluster.linalg import _jacobi_eigh, _orthonormal_columns

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0  # sqrt((3 + sqrt 5) / 2), top sigma of [[1,1],[1,0]]


def random_matrix(seed, m, n, scale=1.0):
    return scale * (np.random.RandomState(seed).rand(m, n) - 0.5)


class TestTruncatedSvd:
    def test_diagonal(self):
        approx = truncated_svd(np.diag([3.0, 1.0]), 1)
        assert np.allclose(approx.singular_values, [3.0])
        assert np.allclose(approx.materialize(), np.diag([3.0, 0.0]))

    def test_exact_rank_one(self):
        rs = np.random.RandomState(3)
        a = np.outer(rs.rand(12), rs.rand(7))
        approx = truncated_svd(a, 1)
        assert np.allclose(approx.materialize(), a, atol=1e-8)

    def test_golden_sigma(self):
        a = np.array([[1.0, 1.0], [1.0, 0.0]])
        approx = truncated_svd(a, 1)
        assert approx.singular_values[0] == pytest.approx(GOLDEN, rel=1e-12)

    def test_k_out_of_range(self):
        a = np.eye(3)
        with pytest.raises(InvalidInputError):
            truncated_svd(a, 0)
        with pytest.raises(InvalidInputError):
            truncated_svd(a, 4)

    def test_negative_iteration_budget_rejected(self):
        with pytest.raises(InvalidInputError, match="max_iter"):
            truncated_svd(random_matrix(0, 80, 90), 2, max_iter=-1)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(InvalidInputError, match="tol"):
            truncated_svd(random_matrix(0, 80, 90), 2, tol=float("nan"))

    def test_convergence_failure_reported(self):
        a = random_matrix(0, 80, 90)
        with pytest.raises(ConvergenceError):
            truncated_svd(a, 2, tol=1e-14, max_iter=1, method="subspace")

    def test_degenerate_spectrum_materializes(self):
        # Repeated singular values: factors are free, the product is not.
        a = np.diag([2.0, 2.0, 1.0])
        approx = truncated_svd(a, 2)
        assert np.allclose(approx.materialize(), np.diag([2.0, 2.0, 0.0]), atol=1e-9)

    def test_matches_numpy_reference(self):
        for seed, (m, n, k) in enumerate([(9, 6, 2), (40, 25, 4), (120, 80, 3), (70, 150, 5)]):
            a = random_matrix(seed, m, n)
            approx = truncated_svd(a, k)
            u, s, vt = np.linalg.svd(a)
            assert np.allclose(approx.singular_values, s[:k], atol=1e-8 * s[0])
            ref = (u[:, :k] * s[:k]) @ vt[:k]
            assert np.allclose(approx.materialize(), ref, atol=1e-6 * s[0])

    def test_subspace_matches_jacobi(self):
        for seed in range(10):
            a = random_matrix(100 + seed, 25, 18)
            sub = truncated_svd(a, 3, method="subspace")
            u, s, v = jacobi_svd(a)
            assert np.allclose(sub.singular_values, s[:3], rtol=1e-8, atol=1e-10)

    def test_eckart_young_sampled(self):
        # The truncation never loses to a sampled rank-k competitor.
        rs = np.random.RandomState(7)
        for _ in range(15):
            m, n, k = rs.randint(5, 30), rs.randint(5, 30), rs.randint(1, 4)
            a = rs.rand(m, n)
            approx = truncated_svd(a, k)
            err = spectral_norm(a - approx.materialize())
            competitor = rs.randn(m, k) @ rs.randn(k, n)
            assert err <= spectral_norm(a - competitor) + 10e-8

    def test_never_worse_than_expectation_matrix(self):
        params = BsbmParams.balanced(40, 30, 2, 0.45, 0.05)
        model = bsbm_to_mixture(params)
        for seed in range(5):
            ds = sample(model, 40, seed)
            expected = expected_from_truth(model, ds.truth)
            approx = truncated_svd(ds.matrix, 2)
            assert spectral_norm(ds.matrix - approx.materialize()) <= (
                spectral_norm(ds.matrix - expected) + 1e-7
            )


def cutover_inputs():
    """Inputs on both sides of the 64 cutover between LAPACK and ARPACK,
    plus a rank-1 and an all-zero matrix above it."""
    rs = np.random.RandomState(12)
    shapes = [(30, 20), (64, 200), (65, 300), (300, 65), (400, 400)]
    shaped = [random_matrix(60 + i, m, n) for i, (m, n) in enumerate(shapes)]
    return shaped + [np.outer(rs.rand(100), rs.rand(80)), np.zeros((100, 80))]


class TestNorms:
    def test_spectral_examples(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)
        assert spectral_norm(np.zeros((4, 5))) == 0.0
        assert spectral_norm(np.array([[1.0, 1.0], [1.0, 0.0]])) == pytest.approx(GOLDEN)
        assert spectral_norm(np.zeros((100, 80))) == 0.0
        u, v = np.arange(1.0, 101.0), np.linspace(-1.0, 1.0, 80)
        assert spectral_norm(np.outer(u, v)) == pytest.approx(
            np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12
        )

    def test_frobenius_examples(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)
        assert frobenius_norm(np.zeros((2, 3))) == 0.0
        assert frobenius_norm(np.eye(3)) == pytest.approx(np.sqrt(3.0))

    def test_spectral_accuracy_large(self):
        for seed in range(4):
            a = random_matrix(50 + seed, 150, 220)
            ref = np.linalg.svd(a, compute_uv=False)[0]
            assert spectral_norm(a) == pytest.approx(ref, rel=1e-6)
        for a in cutover_inputs():
            ref = np.linalg.svd(a, compute_uv=False)[0]
            got = spectral_norm(a)
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
            assert spectral_norm(a.copy()) == got  # fixed start vector: bit-stable

    def test_norm_inequalities(self):
        cases = []
        for seed in range(20):
            m, n = np.random.RandomState(seed).randint(2, 40, size=2)
            cases.append(random_matrix(seed, m, n, scale=3.0))
        for a in cases + cutover_inputs():
            m, n = a.shape
            spec, frob = spectral_norm(a), frobenius_norm(a)
            assert spec <= frob + 1e-9
            assert frob <= np.sqrt(min(m, n)) * spec + 1e-9

    def test_spectral_arpack_failure_is_convergence_error(self):
        with pytest.raises(ConvergenceError):
            spectral_norm(random_matrix(50, 150, 220), max_iter=1)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            spectral_norm(np.zeros((0, 3)))

    def test_zero_iteration_budget_rejected(self):
        with pytest.raises(InvalidInputError, match="max_iter"):
            spectral_norm(random_matrix(50, 150, 220), max_iter=0)


class TestOrthonormalColumns:
    def full_rank_inputs(self):
        rs = np.random.RandomState(31)
        data = sample(bsbm_to_mixture(BsbmParams.balanced(400, 400, 4, 0.45, 0.05)), 400, 2).matrix
        return [
            rs.randn(5, 1),
            rs.randn(200, 10),
            rs.randn(200, 12),
            rs.rand(64, 64),
            data[:200] @ rs.randn(400, 12),  # a subspace-iteration step
        ]

    def test_matches_gram_schmidt_on_full_rank_inputs(self):
        for w in self.full_rank_inputs():
            q, ref = _orthonormal_columns(w), mgs_reference(w)
            assert q.shape == ref.shape
            assert np.abs(q - ref).max() <= 1e-13
            assert np.all(np.sum(q * ref, axis=0) > 0.0)  # no column flipped sign

    def test_orthonormal_on_rank_deficient_inputs(self):
        rs = np.random.RandomState(32)
        zero_column = rs.randn(40, 6)
        zero_column[:, 2] = 0.0
        duplicates = rs.randn(40, 3)
        duplicates = np.hstack([duplicates, duplicates[:, :2], duplicates[:, :1]])
        for w in (zero_column, duplicates, np.zeros((40, 6)), np.zeros((6, 6))):
            q = _orthonormal_columns(w)
            assert q.shape == w.shape
            assert np.abs(q.T @ q - np.eye(w.shape[1])).max() <= 1e-14
            assert np.allclose(q @ (q.T @ w), w, atol=1e-12)  # spans the input's columns

    @pytest.mark.parametrize(
        "n, ps, seeds", [(400, (0.1, 0.2, 0.45), (0, 1, 2)), (64, (0.1, 0.45), (7,))]
    )
    def test_labels_match_gram_schmidt(self, monkeypatch, n, ps, seeds):
        # The QR that replaced Gram-Schmidt must not flip a column's sign:
        # k-means seeds from the lexsorted embedding, so a flip moves labels.
        cases = [(k, p, seed) for k in (2, 4) for p in ps for seed in seeds]
        data = [
            sample(bsbm_to_mixture(BsbmParams.balanced(400, n, k, p, 0.05)), 400, seed).matrix
            for k, p, seed in cases
        ]
        labels = [cluster(d, k, seed) for d, (k, _, seed) in zip(data, cases)]
        monkeypatch.setattr(linalg, "_orthonormal_columns", mgs_reference)
        for d, (k, p, seed), got in zip(data, cases, labels):
            assert cluster(d, k, seed).tobytes() == got.tobytes(), (n, k, p, seed)


class TestJacobi:
    def test_eigh_against_numpy(self):
        rs = np.random.RandomState(11)
        for n in (1, 2, 3, 8, 30, 64):
            s = rs.randn(n, n)
            s = s + s.T
            lam, v = _jacobi_eigh(s)
            ref = np.sort(np.linalg.eigvalsh(s))[::-1]
            assert np.allclose(lam, ref, atol=1e-9 * max(1.0, np.abs(ref).max()))
            assert np.allclose(v @ np.diag(lam) @ v.T, s, atol=1e-8 * max(1.0, np.abs(ref).max()))

    def test_eigh_bytes_match_textbook_loop(self):
        rs = np.random.RandomState(23)
        dup = rs.rand(30, 5)
        dup = np.hstack([dup, dup[:, :2], dup[:, :1]])
        bsbm = sample(bsbm_to_mixture(BsbmParams.balanced(400, 64, 2, 0.45, 0.05)), 400, 3).matrix
        ritz = [w.T @ w for w in (rs.randn(400, 12), bsbm[:, :12] @ rs.rand(12, 12))]
        inputs = [
            np.array([[2.5]]),
            np.array([[2.0, 1.0], [1.0, 3.0]]),
            np.zeros((6, 6)),
            np.diag([3.0, 3.0, 3.0, 1.0, 1.0]),
            dup.T @ dup,
            bsbm.T @ bsbm,
            *ritz,
        ]
        q, _ = np.linalg.qr(rs.randn(6, 6))
        inputs.append(q @ np.diag([4.0, 4.0, 1.0, 1.0, 1.0, 0.0]) @ q.T)  # repeated, rotated
        for sym in inputs:
            lam, v = _jacobi_eigh(sym)
            ref_lam, ref_v = jacobi_eigh_reference(sym)
            assert lam.tobytes() == ref_lam.tobytes()
            assert v.tobytes() == ref_v.tobytes()
            assert v.flags.c_contiguous == ref_v.flags.c_contiguous

    @pytest.mark.parametrize("n", [64, 400])
    def test_labels_and_factors_match_textbook_loop(self, monkeypatch, n):
        data = sample(bsbm_to_mixture(BsbmParams.balanced(400, n, 4, 0.45, 0.05)), 400, 7).matrix
        labels = cluster(data, 4, 5)
        approx = truncated_svd(data, 4)
        monkeypatch.setattr(linalg, "_jacobi_eigh", jacobi_eigh_reference)
        ref_approx = truncated_svd(data, 4)
        assert cluster(data, 4, 5).tobytes() == labels.tobytes()
        for name in ("left_vectors", "singular_values", "right_vectors"):
            assert getattr(approx, name).tobytes() == getattr(ref_approx, name).tobytes()

    def test_svd_rank_deficient(self):
        rs = np.random.RandomState(5)
        a = np.outer(rs.rand(10), rs.rand(6))
        u, s, v = jacobi_svd(a)
        assert np.allclose((u * s) @ v.T, a, atol=1e-9)
        assert np.allclose(u.T @ u, np.eye(6), atol=1e-8)
        assert np.allclose(v.T @ v, np.eye(6), atol=1e-8)


class TestMatchCenterSets:
    def test_identity(self):
        c = np.random.RandomState(0).rand(4, 6)
        assert np.array_equal(match_center_sets(c, c), np.arange(4))

    def test_swap(self):
        c = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert np.array_equal(match_center_sets(c, c[::-1]), [1, 0])

    def test_recovers_shuffle_under_noise(self):
        rs = np.random.RandomState(2)
        centers = np.array([[0.2, 0.2, 0.2], [0.8, 0.2, 0.8], [0.2, 0.8, 0.8]])
        sep = min(
            np.linalg.norm(centers[i] - centers[j])
            for i in range(3)
            for j in range(i + 1, 3)
        )
        for _ in range(20):
            shuffle = rs.permutation(3)
            noise = rs.randn(3, 3)
            noise *= (sep / 4.0) * rs.rand() / np.linalg.norm(noise, axis=1, keepdims=True)
            perm = match_center_sets(centers, (centers + noise)[shuffle])
            # perm must invert the shuffle: row r of the first set pairs with
            # the shuffled position holding (a perturbation of) itself.
            assert np.array_equal(shuffle[perm], np.arange(3))

    def test_equals_brute_force(self):
        rs = np.random.RandomState(9)
        for _ in range(60):
            k = rs.randint(2, 6)
            a, b = rs.rand(k, 4), rs.rand(k, 4)
            perm = match_center_sets(a, b)
            cost = float(sum(np.sum((a[r] - b[perm[r]]) ** 2) for r in range(k)))
            _, best = brute_force_matching(a, b)
            assert cost == pytest.approx(best, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            match_center_sets(np.zeros((2, 3)), np.zeros((3, 3)))


@given(st.integers(0, 10_000))
def test_rank_k_product_has_rank_at_most_k(seed):
    rs = np.random.RandomState(seed)
    a = rs.rand(8, 5)
    approx = truncated_svd(a, 2)
    assert np.linalg.matrix_rank(approx.materialize(), tol=1e-8) <= 2
