import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from conftest import cli_env
from oracles import subspace_svd_reference
from specluster import (
    BsbmParams,
    CenterSet,
    ConvergenceError,
    InvalidInputError,
    SweepSpec,
    assign,
    bsbm_to_mixture,
    center_error_check,
    cluster,
    cluster_detailed,
    expected_from_truth,
    find_centers,
    indicator_model,
    linalg,
    margin_batch,
    match_centers_to_means,
    pipeline,
    rng,
    run_sweep,
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
        # No centers at all is an input error, not numpy's empty argmin.
        with pytest.raises(InvalidInputError, match="at least one center"):
            assign(np.zeros((2, 3)), np.empty((0, 3)))

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

    def test_labels_match_subspace_iteration(self, monkeypatch):
        # Above the cutover the halves' SVD runs ARPACK, signed by the first
        # Ritz step of subspace iteration.  Where sigma_1 stands apart
        # (q > 0), the labels keep the subspace oracle's bytes.
        cases = [(m, n, k, p, q, seed) for m, n in [(400, 400), (300, 150), (180, 600)]
                 for k in (2, 3, 4) for p, q in [(0.2, 0.05), (0.45, 0.1)] for seed in (0, 1)]
        data = [sample(bsbm_to_mixture(BsbmParams.balanced(m, n, k, p, q)), m, seed).matrix
                for m, n, k, p, q, seed in cases]
        labels = [cluster(a, case[2], case[5]) for a, case in zip(data, cases)]
        monkeypatch.setattr(pipeline, "truncated_svd", subspace_svd_reference)
        for a, case, got in zip(data, cases, labels):
            assert cluster(a, case[2], case[5]).tobytes() == got.tobytes(), case

    def test_rank_deficient_labels_agree_across_processes(self):
        # Three distinct 0/1 rows at k = 4 and 6: the spare singular
        # columns come from ARPACK's restart draws, and embed as ~1e-16
        # noise columns.  Two fresh interpreters must give equal labels.
        script = (
            "import numpy as np\n"
            "from specluster import cluster\n"
            "for seed in range(4):\n"
            "    rs = np.random.RandomState(seed)\n"
            "    rows = (rs.rand(3, 400) < 0.3).astype(float)\n"
            "    a = rows[rs.randint(0, 3, 400)]\n"
            "    for k in (4, 6):\n"
            "        print(seed, k, cluster(a, k, seed).tobytes().hex())\n"
        )
        printed = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
                env=cli_env(),
            )
            assert proc.returncode == 0, proc.stderr
            printed.append(proc.stdout.splitlines())
        assert len(printed[0]) == 8 and printed[0] == printed[1]

    def test_jacobi_eigh_runs_once_per_half(self, monkeypatch):
        # One Ritz step per half (it signs ARPACK's factors), where the
        # subspace loop took about five.
        real, calls = linalg._jacobi_eigh, []

        def jacobi_eigh(sym):
            calls.append(sym.shape)
            return real(sym)

        monkeypatch.setattr(linalg, "_jacobi_eigh", jacobi_eigh)
        for seed in range(3):
            a = sample(bsbm_to_mixture(BsbmParams.balanced(400, 400, 2, 0.2, 0.05)), 400, seed).matrix
            cluster(a, 2, seed)
            assert calls == [(10, 10)] * 2
            calls.clear()


class TestCenterSetType:
    def test_invariants(self):
        with pytest.raises(InvalidInputError):
            CenterSet(np.array([[0.5, 1.5]]), [1])
        with pytest.raises(InvalidInputError):
            CenterSet(np.array([[0.5, 0.5]]), [0])
        with pytest.raises(InvalidInputError, match="at least one center"):
            CenterSet(np.zeros((0, 2)), [])
        cs = CenterSet(np.array([[0.25, 0.75]]), [4])
        assert cs.k == 1 and cs.n == 2

    def test_separation_helper_consistency(self):
        model = bsbm_to_mixture(BsbmParams.balanced(10, 8, 2, 0.45, 0.05))
        d = separation(model)
        assert d > 0


def bsbm_matrix(m, n, k, seed=0):
    return sample(bsbm_to_mixture(BsbmParams.balanced(m, n, k, 0.3, 0.1)), m, seed).matrix


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def half_seeds(seed):
    return rng.mix64(seed, rng.TAG_HALF, 0), rng.mix64(seed, rng.TAG_HALF, 1)


def failing_halves(monkeypatch, seed, errors):
    """Patch find_centers_detailed to raise ``errors[i]`` in half i of
    ``cluster(..., seed)``, where set."""
    real = pipeline.find_centers_detailed
    seeds = half_seeds(seed)

    def find(a, k, seed):
        for half_seed, error in zip(seeds, errors):
            if seed == half_seed and error is not None:
                raise error
        return real(a, k, seed)

    monkeypatch.setattr(pipeline, "find_centers_detailed", find)


class TestSecondProcess:
    """For Jacobi halves, cluster_detailed estimates the second half's
    centers in a forked child.  No output may depend on whether it did."""

    @pytest.fixture(autouse=True)
    def forks(self, monkeypatch):
        # Two usable CPUs, whatever this host has, and every fork counted.
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)
        counted = []
        real_fork = os.fork

        def fork():
            counted.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        yield counted
        assert_no_child_left()

    @pytest.mark.parametrize("m, n, k", [(400, 64, 2), (64, 400, 3), (160, 66, 66)])
    def test_split_matches_inline_bytes(self, monkeypatch, forks, m, n, k):
        # A tall and a wide input below JACOBI_CUTOVER, and halves above it
        # that take the Jacobi path because k = min(half, n).
        a = bsbm_matrix(m, n, k)
        split = cluster_detailed(a, k, 5)
        assert len(forks) == 1
        monkeypatch.setattr(linalg, "_cpus", 1)
        inline = cluster_detailed(a, k, 5)
        assert len(forks) == 1
        assert split.labels.tobytes() == inline.labels.tobytes()
        assert split.matching.tobytes() == inline.matching.tobytes()
        assert split.match_ambiguous == inline.match_ambiguous
        for got, want in [(split.first_centers, inline.first_centers),
                          (split.second_centers, inline.second_centers)]:
            assert got.centers.tobytes() == want.centers.tobytes()
            assert got.cluster_sizes.tobytes() == want.cluster_sizes.tobytes()

    @pytest.mark.skipif(not os.path.isfile("/proc/self/maps"), reason="needs /proc/self/maps")
    def test_fresh_process_child_runs_scipy_blas_on_one_thread(self):
        # In this process scipy is loaded already.  In a fresh one, the
        # child must inherit LAPACK's OpenBLAS pinned: a library it loaded
        # itself would start on OpenBLAS's default thread count.  The child
        # loads LAPACK, as a Jacobi half's QR does, then scans.
        if not linalg._openblas_thread_controls():
            pytest.skip("numpy does not use OpenBLAS here")
        script = (
            "import os, sys\n"
            "from specluster import BsbmParams, bsbm_to_mixture, linalg, pipeline, sample\n"
            "assert not any(name.startswith('scipy') for name in sys.modules)\n"
            "linalg._usable_cpus = lambda: 2\n"
            "parent, forks, real_fork = os.getpid(), [], os.fork\n"
            "os.fork = lambda: forks.append(1) or real_fork()\n"
            "real_find = pipeline.find_centers_detailed\n"
            "def find(a, k, seed):\n"
            "    if os.getpid() != parent:\n"
            "        linalg._lapack_qr()\n"
            "        counts = [get() for get, _ in linalg._openblas_thread_controls.__wrapped__()]\n"
            "        assert set(counts) == {1}, f'child OpenBLAS threads: {counts}'\n"
            "    return real_find(a, k, seed)\n"
            "pipeline.find_centers_detailed = find\n"
            "model = bsbm_to_mixture(BsbmParams.balanced(400, 64, 2, 0.3, 0.1))\n"
            "pipeline.cluster_detailed(sample(model, 400, 0).matrix, 2, 1)\n"
            "assert forks == [1]\n"
        )
        env = cli_env()
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.pop(var, None)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300, env=env
        )
        assert proc.returncode == 0, proc.stderr

    def test_second_half_error_reaches_the_caller(self, monkeypatch, forks):
        a = bsbm_matrix(400, 64, 2)
        failing_halves(monkeypatch, 3, [None, ConvergenceError("second half did not converge")])
        with pytest.raises(ConvergenceError, match="^second half did not converge$"):
            cluster_detailed(a, 2, 3)
        assert len(forks) == 1
        monkeypatch.setattr(linalg, "_cpus", 1)
        with pytest.raises(ConvergenceError, match="^second half did not converge$"):
            cluster_detailed(a, 2, 3)

    def test_first_half_error_wins(self, monkeypatch, forks):
        a = bsbm_matrix(400, 64, 2)
        failing_halves(monkeypatch, 3, [ConvergenceError("first"), InvalidInputError("second")])
        for cpus in (None, 1):
            monkeypatch.setattr(linalg, "_cpus", cpus)
            with pytest.raises(ConvergenceError, match="^first$"):
                cluster_detailed(a, 2, 3)
            assert_no_child_left()
        assert len(forks) == 1

    def test_first_half_error_kills_the_child(self, monkeypatch, forks):
        # The child would take 30 s; the call returns as soon as the first
        # half fails, and the child is reaped.
        real = pipeline.find_centers_detailed
        first_seed, _ = half_seeds(3)

        def find(a, k, seed):
            if seed == first_seed:
                raise KeyboardInterrupt
            time.sleep(30)
            return real(a, k, seed)

        monkeypatch.setattr(pipeline, "find_centers_detailed", find)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            cluster_detailed(bsbm_matrix(400, 64, 2), 2, 3)
        assert time.monotonic() - start < 10
        assert len(forks) == 1

    def test_dead_child_half_runs_inline(self, monkeypatch, forks):
        a = bsbm_matrix(400, 64, 2)
        want = cluster_detailed(a, 2, 3).labels
        parent = os.getpid()
        real = pipeline.find_centers_detailed

        def find(a, k, seed):
            if os.getpid() != parent:
                os._exit(3)
            return real(a, k, seed)

        monkeypatch.setattr(pipeline, "find_centers_detailed", find)
        assert cluster_detailed(a, 2, 3).labels.tobytes() == want.tobytes()
        assert len(forks) == 2

    def test_failed_fork_runs_inline(self, monkeypatch, forks):
        a = bsbm_matrix(400, 64, 2)
        want = cluster_detailed(a, 2, 3).labels

        def fork():
            forks.append(os.getpid())
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        assert cluster_detailed(a, 2, 3).labels.tobytes() == want.tobytes()
        assert len(forks) == 2
        if fds is not None:
            assert len(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("path", ["inline", "forked", "failed fork", "dead child"])
    def test_input_is_only_read(self, monkeypatch, forks, path, order):
        # Every half is gathered into cluster_detailed's own buffer, whichever
        # process estimates it; the caller's matrix keeps its bytes.
        a = np.asarray(bsbm_matrix(400, 64, 2), order=order)
        before = a.copy(order=order)
        want = cluster_detailed(before.copy(), 2, 3).labels
        if path == "inline":
            monkeypatch.setattr(linalg, "_cpus", 1)
        elif path == "failed fork":
            def fork():
                forks.append(os.getpid())
                raise BlockingIOError(11, "Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", fork)
        elif path == "dead child":
            parent, real = os.getpid(), pipeline.find_centers_detailed

            def find(a, k, seed):
                if os.getpid() != parent:
                    os._exit(3)
                return real(a, k, seed)

            monkeypatch.setattr(pipeline, "find_centers_detailed", find)
        forks.clear()
        assert cluster_detailed(a, 2, 3).labels.tobytes() == want.tobytes()
        assert len(forks) == (0 if path == "inline" else 1)
        assert a.flags.f_contiguous == (order == "F")
        assert a.tobytes(order="A") == before.tobytes(order="A")

    @pytest.mark.parametrize(
        "m, n",
        [(400, 400), (200, 200), (400, 16), (38, 64), (2000, 8), (1200, 1000), (2000, 2000)],
    )
    def test_no_fork_outside_the_jacobi_rule(self, forks, m, n):
        # Halves below _SPLIT_MIN_JACOBI take less time than the fork, and
        # halves above JACOBI_CUTOVER run ARPACK on Gram threads instead.
        cluster_detailed(bsbm_matrix(m, n, 2), 2, 1)
        assert forks == []

    @pytest.mark.parametrize("m, n, cpus", [(1200, 1000, None), (400, 64, 1)])
    def test_inline_halves_run_blas_on_one_thread(self, monkeypatch, forks, m, n, cpus):
        # OpenBLAS on two threads: both inline center estimates, above the
        # cutover or on one CPU, must see every OpenBLAS on one thread, and
        # the two must be restored after.
        controls = linalg._openblas_thread_controls()
        if not controls:
            pytest.skip("numpy does not use OpenBLAS here")
        monkeypatch.setattr(linalg, "_cpus", cpus)
        saved = [get() for get, _ in controls]
        seen = []
        real = pipeline.find_centers_detailed

        def find(a, k, seed):
            seen.append([get() for get, _ in controls])
            return real(a, k, seed)

        monkeypatch.setattr(pipeline, "find_centers_detailed", find)
        try:
            for _, set_threads in controls:
                set_threads(2)
            cluster_detailed(bsbm_matrix(m, n, 2), 2, 1)
            assert [get() for get, _ in controls] == [2] * len(controls)
        finally:
            for (_, set_threads), count in zip(controls, saved):
                set_threads(count)
        assert forks == []
        assert seen == [[1] * len(controls)] * 2

    def test_no_fork_on_one_cpu(self, monkeypatch, forks):
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 1)
        cluster_detailed(bsbm_matrix(400, 64, 2), 2, 1)
        assert forks == []

    def test_no_fork_without_fork(self, monkeypatch, forks):
        monkeypatch.setattr(linalg, "_can_fork", lambda: False)
        cluster_detailed(bsbm_matrix(400, 64, 2), 2, 1)
        assert forks == []

    def test_no_fork_with_a_second_thread(self, forks):
        a = bsbm_matrix(400, 64, 2)
        want = cluster_detailed(a, 2, 1).labels
        assert len(forks) == 1
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            got = cluster_detailed(a, 2, 1).labels
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert len(forks) == 1
        assert got.tobytes() == want.tobytes()

    def test_no_fork_in_sweep_workers(self, monkeypatch, forks):
        # 400 x 64 trials split when the sweep runs inline; forked workers,
        # whose CPUs the other workers fill, must not fork again.
        spec = SweepSpec(
            family="bsbm", axes={"p": [0.3]}, fixed={"m": 400, "n": 64, "k": 2, "q": 0.1},
            trials_per_cell=2, base_seed=0,
        )
        inline = run_sweep(spec, workers=1)
        assert len(forks) == 2
        parent, counted_fork = os.getpid(), os.fork

        def fork():
            if os.getpid() != parent:
                raise AssertionError("a sweep worker forked")
            return counted_fork()

        monkeypatch.setattr(os, "fork", fork)
        assert run_sweep(spec, workers=2).records == inline.records

    def test_labels_do_not_depend_on_blas_threads(self):
        # Each child process clusters a Jacobi input, split and inline, and
        # a 1200 x 1000 input, inline on both CPU counts; all four label sets
        # must agree across OPENBLAS_NUM_THREADS=1 and =2.
        script = (
            "from specluster import BsbmParams, bsbm_to_mixture, cluster, linalg, pipeline, sample\n"
            "linalg._usable_cpus = lambda: 2\n"
            "for m, n, k in [(400, 64, 2), (1200, 1000, 2)]:\n"
            "    a = sample(bsbm_to_mixture(BsbmParams.balanced(m, n, k, 0.3, 0.1)), m, 0).matrix\n"
            "    for cpus in (None, 1):\n"
            "        linalg._cpus = cpus\n"
            "        assert pipeline._split_pays(a.shape, k) == (cpus is None and n == 64)\n"
            "        print(m, n, cluster(a, k, 5).tobytes().hex())\n"
            "    linalg._cpus = None\n"
        )
        printed = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
                env=cli_env(OPENBLAS_NUM_THREADS=threads),
            )
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            assert len(lines) == 4 and lines[0] == lines[1] and lines[2] == lines[3]
            printed.append(lines)
        assert printed[0] == printed[1]
