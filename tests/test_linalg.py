import ctypes
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cli_env
from oracles import (
    assignment_totals,
    brute_force_matching,
    jacobi_eigh_reference,
    mgs_reference,
    subspace_svd_reference,
)
from specluster import linalg, pipeline
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
    noise_matrix,
    sample,
    spectral_norm,
    truncated_svd,
)
from specluster import SweepSpec, rng, run_sweep
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

    @pytest.mark.parametrize("k", [2.0, True])
    def test_non_integral_budget_rejected(self, k):
        with pytest.raises(InvalidInputError, match="k must be an integer, got"):
            truncated_svd(random_matrix(0, 80, 90), k)

    def test_numpy_integer_budgets_accepted(self):
        a = random_matrix(0, 80, 90)
        got = truncated_svd(a, np.int64(2))
        ref = truncated_svd(a, 2)
        assert got.left_vectors.tobytes() == ref.left_vectors.tobytes()

    def test_convergence_failure_reported(self, monkeypatch):
        # The subspace oracle reads linalg.TOL through the Ritz step.
        a = random_matrix(0, 80, 90)
        monkeypatch.setattr(linalg, "TOL", 1e-14)
        with pytest.raises(ConvergenceError, match="did not reach tol=1e-14 in 1 iterations"):
            subspace_svd_reference(a, 2, max_iter=1)

    def test_removed_arguments_are_type_errors(self):
        # The solver takes no tol, max_iter or method.
        a = random_matrix(0, 80, 90)
        with pytest.raises(TypeError):
            truncated_svd(a, 2, 1e-8)
        with pytest.raises(TypeError):
            truncated_svd(a, 2, max_iter=10)
        for method in ("auto", "subspace", "jacobi"):
            with pytest.raises(TypeError):
                truncated_svd(a, 2, method=method)

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
            sub = subspace_svd_reference(a, 3)
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


def counting_gram_svd(monkeypatch):
    """Patch ``linalg._gram_svd`` to record each call's k; return the list."""
    real, calls = linalg._gram_svd, []

    def gram_svd(a, k, tol):
        calls.append(k)
        return real(a, k, tol)

    monkeypatch.setattr(linalg, "_gram_svd", gram_svd)
    return calls


class TestArpackSvd:
    """Above the cutover, ``truncated_svd`` takes the first Ritz step of
    subspace iteration, then ARPACK on the blocked Gram operator, with each
    pair signed by that first step."""

    # One block, tall and wide; then several blocks, tall and wide, once
    # with the shipped block size and once with a small one.
    @pytest.mark.parametrize(
        "m, n, k, block",
        [(400, 300, 3, None), (300, 400, 4, None), (1200, 1000, 2, None),
         (300, 200, 3, 1 << 14), (150, 260, 5, 1 << 13)],
    )
    def test_factors_match_lapack(self, monkeypatch, m, n, k, block):
        if block is not None:
            monkeypatch.setattr(linalg, "_GRAM_BLOCK", block)
        calls = counting_gram_svd(monkeypatch)
        blocks = len(list(rng.row_blocks(max(m, n), min(m, n), linalg._GRAM_BLOCK)))
        assert (blocks > 1) == (block is not None or m * n > 1 << 20)
        for a in (sample(bsbm_to_mixture(BsbmParams.balanced(m, n, k, 0.45, 0.1)), m, 3).matrix,
                  random_matrix(m + n, m, n)):
            approx = truncated_svd(a, k)
            u, s, vt = np.linalg.svd(a, full_matrices=False)
            assert np.allclose(approx.singular_values, s[:k], rtol=1e-12, atol=0.0)
            ref = (u[:, :k] * s[:k]) @ vt[:k]
            assert np.abs(approx.materialize() - ref).max() <= 1e-10 * s[0]
        assert calls == [k, k]

    def test_column_signs_follow_subspace_iteration(self):
        # kmeans lexsorts the embedded rows with column 0 first, so that
        # column's sign decides labels.  Where sigma_1 stands apart (q > 0),
        # truncated_svd must give it the subspace oracle's sign; unsigned
        # ARPACK vectors disagree on some of these inputs.
        cases = [(m, n, k, p, seed) for m, n in [(200, 400), (400, 200), (150, 90)]
                 for k in (2, 3, 4) for p in (0.2, 0.45) for seed in range(3)]
        for m, n, k, p, seed in cases:
            a = sample(bsbm_to_mixture(BsbmParams.balanced(m, n, k, p, 0.05)), m, seed).matrix
            auto, sub = truncated_svd(a, k), subspace_svd_reference(a, k)
            assert np.allclose(auto.singular_values, sub.singular_values, rtol=1e-9)
            assert auto.left_vectors[:, 0] @ sub.left_vectors[:, 0] > 0.99, (m, n, k, p, seed)
            assert auto.right_vectors[:, 0] @ sub.right_vectors[:, 0] > 0.99

    @pytest.mark.parametrize("k", [2, 4])
    def test_zero_input_returns_the_first_ritz_step(self, monkeypatch, k):
        # ARPACK cannot start on a zero operator; the first Ritz step meets
        # the tolerance there, and truncated_svd returns it as the subspace
        # oracle does.
        calls = counting_gram_svd(monkeypatch)
        for a in (np.zeros((100, 80)), np.zeros((70, 300))):
            auto, sub = truncated_svd(a, k), subspace_svd_reference(a, k)
            for name in ("left_vectors", "singular_values", "right_vectors"):
                assert getattr(auto, name).tobytes() == getattr(sub, name).tobytes()
        assert calls == []

    def test_full_start_basis_returns_the_first_ritz_step(self, monkeypatch):
        # A tall input with n <= k + 8 has a full n x n start basis V0, so
        # the first Ritz step is an exact Jacobi solve of A V0 and meets the
        # tolerance: truncated_svd returns it and ARPACK never runs.  A wide
        # input's V0 has at most m < n columns, so ARPACK runs there.
        calls = counting_gram_svd(monkeypatch)
        for m, n, k in [(100, 80, 72), (200, 70, 62)]:
            a = random_matrix(m + n + k, m, n)
            approx = truncated_svd(a, k)
            u, s, v, done = linalg._ritz_step(a, linalg._start_basis(m, n, k), k)
            assert done
            assert approx.left_vectors.tobytes() == u[:, :k].tobytes()
            assert approx.singular_values.tobytes() == s[:k].tobytes()
            assert approx.right_vectors.tobytes() == v[:, :k].tobytes()
        assert calls == []
        truncated_svd(random_matrix(252, 80, 100), 72)
        assert calls == [72]

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_rank_deficient_inputs_match_lapack(self, monkeypatch, k):
        # A random start basis does not hold the row space, so the first
        # Ritz step is not exact on these and ARPACK runs, through the
        # Gram operator's null space where the rank is below k.
        calls = counting_gram_svd(monkeypatch)
        rs = np.random.RandomState(41)
        inputs = [
            np.outer(rs.rand(100), rs.rand(80)),
            rs.rand(200, 3) @ rs.rand(3, 300),
            rs.rand(90, 8) @ rs.rand(8, 70),
            np.ones((120, 90)),
        ]
        for a in inputs:
            approx = truncated_svd(a, k)
            u, s, vt = np.linalg.svd(a, full_matrices=False)
            assert np.abs(approx.singular_values - s[:k]).max() <= 1e-14 * s[0]
            ref = (u[:, :k] * s[:k]) @ vt[:k]
            assert np.abs(approx.materialize() - ref).max() <= 1e-14 * s[0]
        assert calls == [k] * len(inputs)

    @pytest.mark.parametrize("k", [4, 6])
    def test_rank_deficient_factors_are_reproducible(self, k):
        # Below rank k, ARPACK runs out of Krylov space and restarts from a
        # drawn vector, which the spare columns are built from.  The draw
        # comes from a generator seeded by the fixed key, not OS entropy.
        rs = np.random.RandomState(43)
        row = (rs.rand(80) < 0.4).astype(float)
        for a in (np.ones((100, 80)), np.outer(rs.rand(100) < 0.5, row).astype(float)):
            first, second = truncated_svd(a, k), truncated_svd(a, k)
            for name in ("left_vectors", "singular_values", "right_vectors"):
                assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name

    def test_arpack_failure_is_convergence_error(self, monkeypatch):
        import scipy.sparse.linalg as sparse_linalg

        def failing_eigsh(*args, **kwargs):
            raise sparse_linalg.ArpackError(-9999)

        monkeypatch.setattr(sparse_linalg, "eigsh", failing_eigsh)
        with pytest.raises(ConvergenceError, match="truncated SVD: ARPACK error -9999"):
            truncated_svd(random_matrix(0, 150, 120), 2)

    @pytest.mark.parametrize("m, n", [(66, 80), (80, 66)])
    def test_full_rank_k_runs_jacobi(self, monkeypatch, m, n):
        # ARPACK needs k < min(m, n); at k = min(m, n) auto is the full
        # Jacobi SVD, at any size.
        calls = counting_gram_svd(monkeypatch)
        a = random_matrix(m * n, m, n)
        auto = truncated_svd(a, min(m, n))
        u, s, v = jacobi_svd(a)
        assert auto.left_vectors.tobytes() == u.tobytes()
        assert auto.singular_values.tobytes() == s.tobytes()
        assert auto.right_vectors.tobytes() == v.tobytes()
        assert calls == []

    def test_full_rank_k_with_tiny_singular_value(self):
        # sigma_70 = 5e-8 sigma_1: jacobi_svd completes its left vector by
        # QR, so its residual never meets TOL, and the subspace oracle
        # raises ConvergenceError there after 10,000 iterations.
        rs = np.random.RandomState(70)
        u, _ = np.linalg.qr(rs.randn(100, 70))
        v, _ = np.linalg.qr(rs.randn(70, 70))
        s = np.linspace(1.0, 0.1, 70)
        s[-1] = 5e-8
        a = (u * s) @ v.T
        approx = truncated_svd(a, 70)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.abs(approx.singular_values - ref).max() <= 1e-8 * ref[0]
        assert np.abs(approx.materialize() - a).max() <= 1e-7 * ref[0]


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
        column = np.arange(-3.0, 4.0)[:, None]
        assert spectral_norm(column) == pytest.approx(np.linalg.norm(column), rel=1e-15)

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

    @pytest.mark.parametrize(
        "m, n, k, p, seed",
        [(400, 400, 2, 0.2, 0), (400, 400, 4, 0.45, 1), (2000, 300, 3, 0.3, 2)],
    )
    def test_spectral_noise_matches_lapack(self, m, n, k, p, seed):
        # ARPACK stops at a residual of 1e-8; on A - E the top value lies
        # well apart from the next, so its error is still at rounding level.
        model = bsbm_to_mixture(BsbmParams.balanced(m, n, k, p, 0.05))
        ds = sample(model, m, seed)
        noise = noise_matrix(ds.matrix, model, ds.truth)
        ref = np.linalg.norm(noise, 2)
        assert abs(spectral_norm(noise) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("seed", range(6))
    def test_spectral_near_degenerate_within_documented_bound(self, seed):
        # sigma_2 / sigma_1 = 1 - 1e-8: below the stopping residual, ARPACK
        # cannot tell the two apart, and the docstring bounds the relative
        # error by about the gap, 1e-8 (rounding adds ~1e-15).
        rs = np.random.RandomState(seed)
        u, _ = np.linalg.qr(rs.randn(200, 150))
        v, _ = np.linalg.qr(rs.randn(150, 150))
        s = np.sort(rs.uniform(0.0, 0.9, 150))[::-1]
        s[0], s[1] = 1.0, 1.0 - 1e-8
        a = (u * s) @ v.T
        ref = np.linalg.norm(a, 2)
        assert abs(spectral_norm(a) - ref) <= 1e-8 * ref + 1e-14

    def test_spectral_product_count(self, monkeypatch):
        # Stopping at a residual of 1e-8 instead of machine precision takes
        # 103 A.x and A^T.y products on this matrix, where tol=0 took 143;
        # counts move in whole restarts of 20.  Each Gram product A^T(A.x)
        # that eigsh asks for is two of them, and the final A.v is one.
        import scipy.sparse.linalg as sparse_linalg

        real_eigsh = sparse_linalg.eigsh
        grams = []

        def counting_eigsh(op, **kwargs):
            def matvec(x):
                grams.append(None)
                return op.matvec(x)

            counted = sparse_linalg.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
            return real_eigsh(counted, **kwargs)

        monkeypatch.setattr(sparse_linalg, "eigsh", counting_eigsh)
        model = bsbm_to_mixture(BsbmParams.balanced(400, 400, 2, 0.2, 0.05))
        ds = sample(model, 400, 1)
        noise = noise_matrix(ds.matrix, model, ds.truth)
        got = spectral_norm(noise)
        assert abs(got - np.linalg.norm(noise, 2)) <= 1e-13 * got
        assert 0 < len(grams)
        assert 2 * len(grams) + 1 <= 123

    def test_spectral_arpack_failure_is_convergence_error(self, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            spectral_norm(random_matrix(50, 150, 220))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            spectral_norm(np.zeros((0, 3)))


def bsbm_noise(m, n, k, p, seed):
    model = bsbm_to_mixture(BsbmParams.balanced(m, n, k, p, 0.05))
    ds = sample(model, m, seed)
    return noise_matrix(ds.matrix, model, ds.truth)


class TestBlockedNorm:
    """Every ARPACK norm sums each Gram product over the ``_GRAM_BLOCK`` row
    blocks of its input, in its taller orientation, on several threads when
    there is more than one block."""

    @pytest.mark.parametrize("m, n, k, seed", [(1200, 1000, 2, 0), (700, 1600, 3, 1)])
    def test_bytes_do_not_depend_on_thread_count(self, monkeypatch, m, n, k, seed):
        # Half-size blocks make three, so 1, 2 and 3 CPUs give three
        # different thread counts.
        noise = bsbm_noise(m, n, k, 0.3, seed)
        monkeypatch.setattr(linalg, "_GRAM_BLOCK", 1 << 19)
        tall = max(m, n), min(m, n)
        assert len(list(rng.row_blocks(*tall, linalg._GRAM_BLOCK))) == 3
        values = set()
        for cpus in (1, 2, 3):
            monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
            values.add(spectral_norm(noise).hex())
        (value,) = values
        ref = np.linalg.norm(noise, 2)
        assert abs(float.fromhex(value) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("m, n", [(700, 1600), (2000, 300), (20000, 64), (64, 20000)])
    def test_bytes_do_not_depend_on_blas_threads(self, m, n):
        # Every BLAS call of the ARPACK norm runs on one thread, whatever
        # OpenBLAS was started with.  On both its inputs, the wide
        # multi-block one and the one-block 2000x300, products on OpenBLAS's
        # threads change the last digit.  At or below the cutover the norm
        # is the Gram eigenvalue, whose bytes the thread count leaves alone;
        # LAPACK's SVD, the norm before it, changed the last digit at
        # 20000x64 on seed 0 and at 64x20000 on seed 1.
        script = (
            "from specluster import BsbmParams, bsbm_to_mixture, noise_matrix, sample, "
            "spectral_norm\n"
            f"model = bsbm_to_mixture(BsbmParams.balanced({m}, {n}, 2, 0.3, 0.05))\n"
            "for seed in (0, 1):\n"
            f"    ds = sample(model, {m}, seed)\n"
            "    print(spectral_norm(noise_matrix(ds.matrix, model, ds.truth)).hex())\n"
        )
        printed = set()
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
                env=cli_env(OPENBLAS_NUM_THREADS=threads),
            )
            assert proc.returncode == 0, proc.stderr
            printed.add(proc.stdout)
        assert len(printed) == 1

    @pytest.mark.parametrize("m, n, k, p, seed", [(400, 400, 2, 0.2, 0), (2000, 300, 3, 0.3, 2)])
    def test_single_block_is_the_svds_call(self, m, n, k, p, seed):
        # On one block the norm is scipy's svds on one BLAS thread, byte
        # for byte.
        from scipy.sparse.linalg import svds

        noise = bsbm_noise(m, n, k, p, seed)
        key = rng.mix64(rng.TAG_SVD_INIT, m, n, 1)
        v0 = 2.0 * rng.uniform_array(key, np.arange(min(m, n), dtype=np.uint64)) - 1.0
        with linalg._blas_on_one_thread():
            top = svds(noise, k=1, tol=1e-4, v0=v0, maxiter=10_000, return_singular_vectors=False)
        assert spectral_norm(noise) == float(top[0])

    def test_threads_end_with_the_call(self, monkeypatch):
        # A pool left running would hold threads across the fork of a sweep,
        # where Python 3.12+ warns and a held lock can hang a worker.
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)
        before = threading.active_count()
        spectral_norm(bsbm_noise(1200, 1000, 2, 0.3, 0))
        assert threading.active_count() == before
        spec = SweepSpec(
            family="bsbm", axes={"p": [0.45]}, fixed={"m": 40, "n": 30, "k": 2, "q": 0.05},
            trials_per_cell=2, base_seed=0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert len(run_sweep(spec, workers=2).records) == 2

    def test_convergence_failure_on_threads(self, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_ITER", 1)
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)
        before = threading.active_count()
        with pytest.raises(ConvergenceError, match="spectral norm"):
            spectral_norm(random_matrix(221, 1200, 1000))
        assert threading.active_count() == before

    def test_pool_workers_run_the_norm_on_one_thread(self, monkeypatch):
        # Small blocks make the 120x100 noise of each trial two blocks.  The
        # inline sweep runs its norms on two threads; a forked worker, whose
        # CPUs the other workers fill, must start none.
        parent = os.getpid()
        started = []
        real_start = threading.Thread.start

        def start(thread):
            if os.getpid() != parent:
                raise AssertionError("a sweep worker started a thread")
            started.append(thread)
            return real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setattr(linalg, "_GRAM_BLOCK", 1 << 13)
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)
        spec = SweepSpec(
            family="bsbm", axes={"p": [0.3, 0.45]}, fixed={"m": 120, "n": 100, "k": 2, "q": 0.05},
            trials_per_cell=1, base_seed=0, diagnostics=("conditions",),
        )
        inline = run_sweep(spec, workers=1)
        assert len(started) == 2
        assert run_sweep(spec, workers=2).records == inline.records



class TestScipyImports:
    """The one cached scan for OpenBLAS libraries loads LAPACK first, so it
    sees scipy's OpenBLAS however scipy is imported afterwards."""

    def test_repeated_lookups_open_no_library(self, monkeypatch):
        linalg.import_scipy()
        controls = linalg._openblas_thread_controls()

        def no_cdll(*args, **kwargs):
            raise AssertionError("an OpenBLAS was opened again")

        monkeypatch.setattr(ctypes, "CDLL", no_cdll)
        assert linalg._openblas_thread_controls() == controls
        with linalg._blas_on_one_thread():
            pass

    @pytest.mark.skipif(not os.path.isfile("/proc/self/maps"), reason="needs /proc/self/maps")
    def test_openblas_loaded_later_is_found(self):
        # In a fresh process numpy's OpenBLAS is loaded and scipy's is not.
        # The first scan must already see every library the package loads.
        script = (
            "import sys\n"
            "from specluster import linalg\n"
            "assert not any(name.startswith('scipy') for name in sys.modules)\n"
            "first = len(linalg._openblas_thread_controls())\n"
            "linalg.import_scipy()\n"
            "print(first, len(linalg._openblas_thread_controls.__wrapped__()))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
            env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        first, fresh = (int(word) for word in proc.stdout.split())
        assert first == fresh


@pytest.mark.parametrize(
    "shape_a, shape_c", [((30, 4), (5, 4)), ((1, 3), (1, 3)), ((7, 0), (2, 0))]
)
def test_sq_dists_given_row_norms_is_byte_identical(shape_a, shape_c):
    rs = np.random.RandomState(17)
    a, c = rs.randn(*shape_a) * 1e3, rs.randn(*shape_c)
    got = linalg.sq_dists(a, c, a_sq=np.sum(a * a, axis=1))
    assert got.tobytes() == linalg.sq_dists(a, c).tobytes()


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
        # n=400 clusters through the subspace oracle, which looks the QR up
        # on linalg at call time, and n=64 through the Jacobi path.
        if n > linalg.JACOBI_CUTOVER:
            monkeypatch.setattr(pipeline, "truncated_svd", subspace_svd_reference)
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

    # 400x64 runs the Jacobi path, 400x400 the subspace oracle's Ritz steps
    # (which look jacobi_svd up on linalg at call time) and 64x400 the
    # transposed (wide) Jacobi branch, on the data and its halves.
    @pytest.mark.parametrize(
        "m, n, svd",
        [(400, 64, truncated_svd), (400, 400, subspace_svd_reference), (64, 400, truncated_svd)],
        ids=["64", "400", "wide"],
    )
    def test_labels_and_factors_match_textbook_loop(self, monkeypatch, m, n, svd):
        monkeypatch.setattr(pipeline, "truncated_svd", svd)
        data = sample(bsbm_to_mixture(BsbmParams.balanced(m, n, 4, 0.45, 0.05)), m, 7).matrix
        labels = cluster(data, 4, 5)
        approx = svd(data, 4)
        monkeypatch.setattr(linalg, "_jacobi_eigh", jacobi_eigh_reference)
        ref_approx = svd(data, 4)
        assert cluster(data, 4, 5).tobytes() == labels.tobytes()
        for name in ("left_vectors", "singular_values", "right_vectors"):
            assert getattr(approx, name).tobytes() == getattr(ref_approx, name).tobytes()

    @pytest.mark.parametrize("m, n", [(1, 5), (3, 8), (12, 30), (40, 41), (64, 400)])
    def test_wide_svd_is_the_transposed_svd(self, m, n):
        a = random_matrix(m * n, m, n)
        u, s, v = jacobi_svd(a)
        v_t, s_t, u_t = jacobi_svd(a.T)
        assert u.shape == (m, m) and v.shape == (n, m)
        for got, ref in ((u, u_t), (s, s_t), (v, v_t)):
            assert got.tobytes() == ref.tobytes()
        assert np.allclose((u * s) @ v.T, a, atol=1e-10)

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


def assignment_costs(seed: int, count: int = 200):
    """k x k costs with k <= 6: floats with exact zeros and small negatives
    (as rounding leaves in squared distances), and integers (as in score's
    negated confusion counts)."""
    rs = np.random.RandomState(seed)
    for i in range(count):
        k = rs.randint(1, 7)
        if i % 2:
            yield rs.randint(-4, 5, (k, k))
        else:
            cost = rs.rand(k, k)
            cost[rs.rand(k, k) < 0.2] = 0.0
            cost[rs.rand(k, k) < 0.2] *= -1e-12
            yield cost


class TestLinearSumAssignment:
    def solve(self, cost):
        rows, cols = linalg.linear_sum_assignment(cost)
        assert rows.tolist() == list(range(cost.shape[0]))
        return tuple(cols.tolist())

    def assert_optimal(self, cost):
        totals = assignment_totals(cost)
        assert totals[self.solve(cost)] == pytest.approx(min(totals.values()), rel=0, abs=1e-12)

    def test_total_is_the_brute_force_optimum(self):
        for cost in assignment_costs(0):
            self.assert_optimal(cost)

    def test_unique_optimum_is_scipy_optimize_choice(self):
        from scipy.optimize import linear_sum_assignment

        unique = 0
        for cost in assignment_costs(1):
            first, second = (sorted(assignment_totals(cost).values()) + [np.inf])[:2]
            if second - first > 1e-9:
                unique += 1
                assert self.solve(cost) == tuple(linear_sum_assignment(cost)[1].tolist())
        assert unique > 100

    @pytest.mark.parametrize("value", [0, 1, -2, 0.5])
    def test_equal_costs_give_the_identity(self, value):
        for k in range(7):
            assert self.solve(np.full((k, k), value)) == tuple(range(k))

    def test_tied_costs_give_the_identity_where_it_is_optimal(self):
        rs = np.random.RandomState(2)
        tied = 0
        for _ in range(400):
            k = rs.randint(2, 6)
            cost = rs.randint(0, 3, (k, k))
            totals = assignment_totals(cost)
            best = min(totals.values())
            identity = tuple(range(k))
            if totals[identity] == best and list(totals.values()).count(best) > 1:
                tied += 1
                assert self.solve(cost) == identity
        assert tied > 50

    @pytest.mark.parametrize("seed", [211, 222, 502, 987])
    def test_repeated_centers_finish(self, seed):
        # Center sets with repeated centers give near-equal costs.  On these
        # seeds LAPJVsp on the square k x k graph ran for over a minute.
        rs = np.random.RandomState(seed)
        k, n = rs.randint(2, 7), rs.randint(1, 20)
        base = rs.rand(k, n) * rs.choice([1, 1e-3, 1e3])
        base[rs.rand(k) < 0.4] = base[0]
        first = base + rs.randn(k, n) * rs.choice([0, 1e-15, 1e-9, 1e-3])
        second = base[rs.permutation(k)] + rs.randn(k, n) * rs.choice([0, 1e-15, 1e-9, 1e-3])
        self.assert_optimal(linalg.sq_dists(first, second))

    def test_exact_zeros_raise_no_warning(self):
        costs = [np.zeros((3, 3)), np.eye(4), 1.0 - np.eye(4), np.array([[0.0, -0.0], [2.0, 0.0]])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cost in costs + list(assignment_costs(3, 40)):
                self.assert_optimal(cost)


@given(st.integers(0, 10_000))
def test_rank_k_product_has_rank_at_most_k(seed):
    rs = np.random.RandomState(seed)
    a = rs.rand(8, 5)
    approx = truncated_svd(a, 2)
    assert np.linalg.matrix_rank(approx.materialize(), tol=1e-8) <= 2
