import ctypes
import gc
import importlib
import os
import subprocess
import sys
import threading
import types
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cli_env
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
        a = random_matrix(0, 80, 90)
        monkeypatch.setattr(linalg, "TOL", 1e-14)
        monkeypatch.setattr(linalg, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            truncated_svd(a, 2, method="subspace")

    def test_removed_arguments_are_type_errors(self):
        # method is keyword-only, and the solver takes no tol or max_iter.
        a = random_matrix(0, 80, 90)
        with pytest.raises(TypeError):
            truncated_svd(a, 2, 1e-8)
        with pytest.raises(TypeError):
            truncated_svd(a, 2, max_iter=10)
        with pytest.raises(InvalidInputError, match="unknown SVD method 'jacobi'"):
            truncated_svd(a, 2, method="jacobi")

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
        # counts move in whole restarts of 20.
        from scipy.sparse.linalg import LinearOperator

        real_svds = linalg.svds
        products = []

        def counting_svds(a, **kwargs):
            def matvec(x):
                products.append("A")
                return a @ x

            def rmatvec(y):
                products.append("At")
                return a.T @ y

            op = LinearOperator(a.shape, matvec=matvec, rmatvec=rmatvec, dtype=a.dtype)
            return real_svds(op, **kwargs)

        monkeypatch.setattr(linalg, "svds", counting_svds)
        model = bsbm_to_mixture(BsbmParams.balanced(400, 400, 2, 0.2, 0.05))
        ds = sample(model, 400, 1)
        noise = noise_matrix(ds.matrix, model, ds.truth)
        got = spectral_norm(noise)
        assert abs(got - np.linalg.norm(noise, 2)) <= 1e-13 * got
        assert 0 < len(products) <= 123

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


def no_svds(*args, **kwargs):
    raise AssertionError("a multi-block input reached svds")


class TestBlockedNorm:
    """Inputs of more than one ``_GRAM_BLOCK`` row block, in their taller
    orientation, sum each Gram product over the blocks on several threads."""

    @pytest.mark.parametrize("m, n, k, seed", [(1200, 1000, 2, 0), (700, 1600, 3, 1)])
    def test_bytes_do_not_depend_on_thread_count(self, monkeypatch, m, n, k, seed):
        # Half-size blocks make three, so 1, 2 and 3 CPUs give three
        # different thread counts.
        noise = bsbm_noise(m, n, k, 0.3, seed)
        monkeypatch.setattr(linalg, "_GRAM_BLOCK", 1 << 19)
        tall = max(m, n), min(m, n)
        assert len(list(rng.row_blocks(*tall, linalg._GRAM_BLOCK))) == 3
        monkeypatch.setattr(linalg, "svds", no_svds)
        values = set()
        for cpus in (1, 2, 3):
            monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
            values.add(spectral_norm(noise).hex())
        (value,) = values
        ref = np.linalg.norm(noise, 2)
        assert abs(float.fromhex(value) - ref) <= 1e-13 * ref

    def test_bytes_do_not_depend_on_blas_threads(self):
        # Every BLAS call of the blocked path runs on one thread, whatever
        # OpenBLAS was started with; on this wide input a threaded OpenBLAS
        # changed the last digit.
        script = (
            "from specluster import BsbmParams, bsbm_to_mixture, noise_matrix, sample, "
            "spectral_norm\n"
            "model = bsbm_to_mixture(BsbmParams.balanced(700, 1600, 2, 0.3, 0.05))\n"
            "ds = sample(model, 700, 0)\n"
            "print(spectral_norm(noise_matrix(ds.matrix, model, ds.truth)).hex())\n"
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
        from scipy.sparse.linalg import svds

        noise = bsbm_noise(m, n, k, p, seed)
        key = rng.mix64(rng.TAG_SVD_INIT, m, n, 1)
        v0 = 2.0 * rng.uniform_array(key, np.arange(min(m, n), dtype=np.uint64)) - 1.0
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
        monkeypatch.setattr(linalg, "svds", no_svds)
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
        monkeypatch.setattr(linalg, "svds", no_svds)
        spec = SweepSpec(
            family="bsbm", axes={"p": [0.3, 0.45]}, fixed={"m": 120, "n": 100, "k": 2, "q": 0.05},
            trials_per_cell=1, base_seed=0, diagnostics=("conditions",),
        )
        inline = run_sweep(spec, workers=1)
        assert len(started) == 2
        assert run_sweep(spec, workers=2).records == inline.records



class TestScipyImports:
    """Every scipy import goes through ``linalg._scipy``: with the cyclic GC
    paused, and then with the cache of OpenBLAS controls refreshed."""

    @pytest.fixture
    def gc_state(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_paused_during_import_and_restored(self, monkeypatch, gc_state, enabled):
        seen = []

        def import_module(name):
            seen.append(gc.isenabled())
            return types.ModuleType(name)

        monkeypatch.setattr(importlib, "import_module", import_module)
        (gc.enable if enabled else gc.disable)()
        assert linalg._scipy("scipy._not_loaded_here").__name__ == "scipy._not_loaded_here"
        assert seen == [False]
        assert gc.isenabled() == enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_restored_when_the_import_raises(self, gc_state, enabled):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(ModuleNotFoundError):
            linalg._scipy("scipy._no_such_module")
        assert gc.isenabled() == enabled

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
        # In a fresh process numpy's OpenBLAS is loaded and scipy's is not;
        # the first scipy import must refresh the cached controls.
        script = (
            "import sys\n"
            "from specluster import linalg\n"
            "assert not any(name.startswith('scipy') for name in sys.modules)\n"
            "before = len(linalg._openblas_thread_controls())\n"
            "linalg._scipy('scipy.linalg.lapack')\n"
            "after = len(linalg._openblas_thread_controls())\n"
            "print(before, after, len(linalg._openblas_thread_controls.__wrapped__()))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
            env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        before, after, fresh = (int(word) for word in proc.stdout.split())
        if fresh == before:
            pytest.skip("numpy and scipy share one OpenBLAS here")
        assert after == fresh > before


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

    # 400x64 runs the Jacobi path, 400x400 the subspace path's Ritz step and
    # 64x400 the transposed (wide) Jacobi branch, on the data and its halves.
    @pytest.mark.parametrize("m, n", [(400, 64), (400, 400), (64, 400)], ids=["64", "400", "wide"])
    def test_labels_and_factors_match_textbook_loop(self, monkeypatch, m, n):
        data = sample(bsbm_to_mixture(BsbmParams.balanced(m, n, 4, 0.45, 0.05)), m, 7).matrix
        labels = cluster(data, 4, 5)
        approx = truncated_svd(data, 4)
        monkeypatch.setattr(linalg, "_jacobi_eigh", jacobi_eigh_reference)
        ref_approx = truncated_svd(data, 4)
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


@given(st.integers(0, 10_000))
def test_rank_k_product_has_rank_at_most_k(seed):
    rs = np.random.RandomState(seed)
    a = rs.rand(8, 5)
    approx = truncated_svd(a, 2)
    assert np.linalg.matrix_rank(approx.materialize(), tol=1e-8) <= 2
