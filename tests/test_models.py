import json

import numpy as np
import pytest
import scipy.io
from hypothesis import given
from hypothesis import strategies as st
from oracles import min_symmetric_difference_reference
from scipy.stats import binom

from specluster import (
    BinaryDataset,
    BsbmParams,
    InvalidInputError,
    MixtureModel,
    bsbm_sigma_sq,
    bsbm_to_mixture,
    delta_v,
    expected_from_truth,
    indicator_model,
    load_dataset,
    sample,
    save_dataset,
    separation,
)
from specluster.models import read_matrix_market, write_matrix_market


class TestMixtureModel:
    def test_valid(self):
        model = MixtureModel(np.array([[0.2, 0.4], [0.4, 0.1]]), np.array([0.5, 0.5]))
        assert model.k == 2 and model.n == 2
        assert model.sigma_sq == 0.4  # defaults to the largest mean entry
        assert model.w_min == 0.5

    def test_rejects_bad_means(self):
        with pytest.raises(InvalidInputError):
            MixtureModel(np.array([[1.2, 0.0]]), np.array([1.0]))
        with pytest.raises(InvalidInputError):
            MixtureModel(np.array([[0.5, 0.5]]), np.array([0.7]))  # weights != 1
        with pytest.raises(InvalidInputError):
            MixtureModel(np.array([[0.5]]), np.array([1.0]), sigma_sq=0.3)
        for sigma_sq in (np.nan, np.inf):
            with pytest.raises(InvalidInputError, match="sigma_sq must be finite"):
                MixtureModel(np.eye(2), np.array([0.5, 0.5]), sigma_sq=sigma_sq)
        for weights in ([np.nan, np.nan], [np.inf, 0.5]):
            with pytest.raises(InvalidInputError, match="weights must be finite"):
                MixtureModel(np.eye(2), np.array(weights))

    def test_separation_examples(self):
        model = MixtureModel(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, 0.5]))
        assert separation(model) == pytest.approx(np.sqrt(2.0))
        same = MixtureModel(np.array([[0.3, 0.3], [0.3, 0.3]]), np.array([0.5, 0.5]))
        assert separation(same) == 0.0
        single = MixtureModel(np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(InvalidInputError):
            separation(single)


class TestBsbm:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            BsbmParams.balanced(10, 8, 2, 0.7, 0.1)  # p > 0.5
        with pytest.raises(InvalidInputError):
            BsbmParams.balanced(10, 8, 2, 0.3, 0.3)  # p == q
        with pytest.raises(InvalidInputError):
            BsbmParams(10, 4, 2, 0.4, 0.1, (5, 5), np.zeros(4, dtype=int))  # empty V_2

    def test_means_substitution(self):
        params = BsbmParams(4, 4, 2, 0.5, 0.0, (2, 2), np.array([0, 0, 1, 1]))
        model = bsbm_to_mixture(params)
        assert np.array_equal(model.means, [[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])
        assert np.allclose(model.weights, [0.5, 0.5])

    def test_sigma_formula(self):
        assert bsbm_sigma_sq(0.45, 0.05) == pytest.approx(2 * 0.45 * 0.55)
        params = BsbmParams.balanced(10, 8, 2, 0.45, 0.05)
        model = bsbm_to_mixture(params)
        assert model.sigma_sq == pytest.approx(0.495)
        assert model.means.max() <= model.sigma_sq  # variance proxy dominates means

    @given(st.floats(0.0, 0.5), st.floats(0.0, 0.5))
    def test_sigma_range_and_variance_dominance(self, p, q):
        if p == q:
            return
        sigma_sq = bsbm_sigma_sq(p, q)
        assert 0.0 < sigma_sq <= 0.5
        assert sigma_sq >= p * (1 - p) and sigma_sq >= q * (1 - q)

    def test_separation_identity_paper_case(self):
        # Delta_mu^2 = (p - q)^2 * Delta_V; with p=0.4, q=0.1, Delta_V=10 this is 0.9.
        params = BsbmParams(20, 10, 2, 0.4, 0.1, (10, 10), np.repeat([0, 1], 5))
        assert delta_v(params) == 10
        model = bsbm_to_mixture(params)
        assert separation(model) ** 2 == pytest.approx(0.9, rel=1e-12)
        assert separation(model) == pytest.approx(0.3 * np.sqrt(10.0), rel=1e-12)

    @given(
        st.integers(2, 4),
        st.integers(0, 10_000),
    )
    def test_separation_identity_random(self, k, seed):
        rs = np.random.RandomState(seed)
        n = int(rs.randint(k, 4 * k))
        p, q = 0.5 * rs.rand() or 0.25, 0.5 * rs.rand()
        if p == q:
            q = p / 2 if p > 0 else 0.25
        assignment = rs.randint(0, k, size=n)
        assignment[:k] = np.arange(k)  # keep every right cluster nonempty
        m = 2 * k
        params = BsbmParams(m, n, k, p, q, (2,) * k, assignment)
        model = bsbm_to_mixture(params)
        assert separation(model) ** 2 == pytest.approx(
            (p - q) ** 2 * delta_v(params), rel=1e-9
        )

    def test_delta_v_is_the_smallest_symmetric_difference(self):
        rs = np.random.RandomState(6)
        for _ in range(200):
            k = rs.randint(2, 7)
            n = rs.randint(k, 31)
            assignment = rs.permutation(np.concatenate([np.arange(k), rs.randint(0, k, n - k)]))
            params = BsbmParams(2 * k, n, k, 0.4, 0.1, (2,) * k, assignment)
            clusters = [np.flatnonzero(assignment == r) for r in range(k)]
            assert delta_v(params) == min_symmetric_difference_reference(clusters)


class TestSampling:
    def test_degenerate_means(self):
        ones = MixtureModel(np.ones((1, 4)), np.array([1.0]), sigma_sq=1.0)
        assert np.all(sample(ones, 3, 0).matrix == 1.0)
        zeros = MixtureModel(np.zeros((1, 4)), np.array([1.0]), sigma_sq=1.0)
        assert np.all(sample(zeros, 3, 0).matrix == 0.0)

    def test_exact_counts_and_binary_entries(self):
        params = BsbmParams(12, 9, 3, 0.45, 0.05, (6, 4, 2), np.repeat([0, 1, 2], 3))
        model = bsbm_to_mixture(params)
        ds = sample(model, 12, 4)
        assert np.all((ds.matrix == 0) | (ds.matrix == 1))
        assert np.array_equal(np.bincount(ds.truth), [6, 4, 2])

    def test_non_integral_counts_rejected(self):
        model = MixtureModel(
            np.array([[0.2], [0.8]]), np.array([1 / 3, 2 / 3]), sigma_sq=1.0
        )
        with pytest.raises(InvalidInputError):
            sample(model, 10, 0)

    def test_determinism(self):
        model = bsbm_to_mixture(BsbmParams.balanced(20, 15, 2, 0.4, 0.1))
        a, b = sample(model, 20, 9), sample(model, 20, 9)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.truth, b.truth)
        c = sample(model, 20, 10)
        assert not np.array_equal(a.matrix, c.matrix)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True])
    def test_non_integral_seed_rejected(self, seed):
        model = bsbm_to_mixture(BsbmParams.balanced(40, 30, 2, 0.4, 0.1))
        with pytest.raises(InvalidInputError, match="seed must be an integer, got"):
            sample(model, 40, seed)

    @pytest.mark.parametrize(
        "m, message",
        [(40.0, "m must be an integer, got 40.0"), (True, "m must be an integer, got True"),
         (0, "m must be at least 1, got 0")],
    )
    def test_non_integral_m_rejected(self, m, message):
        model = bsbm_to_mixture(BsbmParams.balanced(40, 30, 2, 0.4, 0.1))
        with pytest.raises(InvalidInputError, match=message):
            sample(model, m, 0)

    def test_numpy_integer_seeds_give_int_seed_bytes(self, tmp_path):
        model = bsbm_to_mixture(BsbmParams.balanced(20, 15, 2, 0.4, 0.1))
        for seed in (np.int64(-4), np.uint32(7)):
            ref = sample(model, 20, int(seed))
            got = sample(model, 20, seed)
            assert got.matrix.tobytes() == ref.matrix.tobytes()
            assert got.truth.tobytes() == ref.truth.tobytes()
            assert type(got.seed) is int
            ref_files = save_dataset(ref, tmp_path / "ref")
            got_files = save_dataset(got, tmp_path / "got")
            for a, b in zip(got_files, ref_files):
                assert a.read_bytes() == b.read_bytes()

    def test_column_mean_within_binomial_band(self):
        # One Bernoulli(0.5) column, m = 10_000: the mean falls within 3
        # standard errors with exactly the two-sided binomial probability.
        model = MixtureModel(np.full((1, 1), 0.5), np.array([1.0]))
        m, half_width = 10_000, 3 * np.sqrt(0.25 / 10_000)
        lo, hi = 5_000 - 150, 5_000 + 150
        expected_rate = binom.cdf(hi, m, 0.5) - binom.cdf(lo - 1, m, 0.5)
        assert expected_rate > 0.99
        seeds = range(300)
        hits = sum(
            1
            for s in seeds
            if abs(float(sample(model, m, s).matrix.mean()) - 0.5) <= half_width
        )
        assert hits >= 0.99 * len(seeds)

    def test_row_order_is_shuffled(self):
        model = bsbm_to_mixture(BsbmParams.balanced(40, 10, 2, 0.45, 0.05))
        ds = sample(model, 40, 0)
        assert not np.array_equal(ds.truth, np.sort(ds.truth))


class TestExpectedMatrix:
    def test_single_component(self):
        model = MixtureModel(np.array([[0.3, 0.7]]), np.array([1.0]), sigma_sq=1.0)
        e = expected_from_truth(model, sample(model, 4, 0).truth)
        assert np.array_equal(e, np.tile([0.3, 0.7], (4, 1)))

    def test_rank_at_most_k(self):
        model = bsbm_to_mixture(BsbmParams.balanced(30, 12, 3, 0.4, 0.1))
        e = expected_from_truth(model, sample(model, 30, 5).truth)
        assert np.linalg.matrix_rank(e) <= 3

    def test_pairs_with_sample_placement(self):
        # With every mean 0 or 1 a sample is its own expectation, so E from
        # the sample's truth labels must place each mean on its own row.
        model = indicator_model(10, 2, [0.5, 0.5])
        ds = sample(model, 20, 3)
        assert not np.array_equal(ds.truth, np.sort(ds.truth))
        assert np.array_equal(ds.matrix, expected_from_truth(model, ds.truth))

    def test_monte_carlo_entry_mean(self):
        # Across seeds, each observed entry averages to its paired
        # expectation within 3 exact binomial standard errors.
        model = bsbm_to_mixture(BsbmParams.balanced(10, 6, 2, 0.45, 0.05))
        seeds = range(200)
        i, j = 2, 3
        draws = [sample(model, 10, s) for s in seeds]
        observed = np.array([float(ds.matrix[i, j]) for ds in draws])
        expected = np.array([float(expected_from_truth(model, ds.truth)[i, j]) for ds in draws])
        pooled_se = np.sqrt(np.sum(expected * (1.0 - expected))) / len(observed)
        assert abs(observed.mean() - expected.mean()) <= 3 * pooled_se


class TestIndicatorModel:
    def test_blocks(self):
        model = indicator_model(6, 3, [0.5, 0.25, 0.25])
        assert np.array_equal(
            model.means,
            [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]],
        )
        ds = sample(model, 8, 0)
        assert np.array_equal(ds.matrix, expected_from_truth(model, ds.truth))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        params = BsbmParams.balanced(12, 9, 3, 0.45, 0.05)
        model = bsbm_to_mixture(params)
        ds = sample(model, 12, 7)
        ds.bsbm = params
        prefix = tmp_path / "data"
        mtx_path, json_path = save_dataset(ds, prefix)
        loaded = load_dataset(prefix)
        assert np.array_equal(loaded.matrix, ds.matrix)
        assert np.array_equal(loaded.truth, ds.truth)
        assert loaded.seed == 7
        assert np.array_equal(loaded.model.means, model.means)
        assert loaded.model.sigma_sq == model.sigma_sq
        assert loaded.bsbm.p == params.p
        assert np.array_equal(loaded.bsbm.right_assignment, params.right_assignment)

    def test_matrix_market_interoperates_with_scipy(self, tmp_path):
        model = bsbm_to_mixture(BsbmParams.balanced(8, 5, 2, 0.4, 0.1))
        ds = sample(model, 8, 1)
        prefix = tmp_path / "mm"
        mtx_path, _ = save_dataset(ds, prefix)
        via_scipy = np.asarray(scipy.io.mmread(mtx_path))
        assert np.array_equal(via_scipy, ds.matrix)

    def test_sidecar_derived_values(self, tmp_path):
        params = BsbmParams(20, 10, 2, 0.4, 0.1, (10, 10), np.repeat([0, 1], 5))
        model = bsbm_to_mixture(params)
        ds = sample(model, 20, 0)
        ds.bsbm = params
        _, json_path = save_dataset(ds, tmp_path / "x")
        sidecar = json.loads(json_path.read_text())
        assert sidecar["derived"]["delta_mu_sq"] == pytest.approx(0.9, rel=1e-12)
        assert sidecar["derived"]["delta_v"] == 10
        assert sidecar["derived"]["w_min"] == 0.5

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError):
            load_dataset(tmp_path / "nope")

    def test_malformed_sidecar(self, tmp_path):
        model = bsbm_to_mixture(BsbmParams.balanced(8, 5, 2, 0.4, 0.1))
        ds = sample(model, 8, 1)
        prefix = tmp_path / "bad"
        _, json_path = save_dataset(ds, prefix)
        json_path.write_text("{not json")
        with pytest.raises(InvalidInputError):
            load_dataset(prefix)

    def test_sidecar_seed_is_an_integer_or_null(self, tmp_path):
        model = bsbm_to_mixture(BsbmParams.balanced(8, 5, 2, 0.4, 0.1))
        prefix = tmp_path / "s"
        _, json_path = save_dataset(sample(model, 8, 7), prefix)
        assert load_dataset(prefix).seed == 7
        sidecar = json.loads(json_path.read_text())
        for seed, expected in [(None, None), (-3, -3), (7.0, 7)]:
            json_path.write_text(json.dumps({**sidecar, "seed": seed}))
            assert load_dataset(prefix).seed == expected
        for seed in ["not a seed", 2.5, True, [7]]:
            json_path.write_text(json.dumps({**sidecar, "seed": seed}))
            with pytest.raises(InvalidInputError, match="bad value for 'seed'"):
                load_dataset(prefix)


MTX_HEADER = "%%MatrixMarket matrix array integer general\n"


class TestMatrixMarketGrammar:
    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text(
            MTX_HEADER + "% a comment\n\n  2 3\n1\n\n% mid-body\n0\n  1.0  \n"
            "0 % trailing\n1e0\n\n0\n"
        )
        matrix = read_matrix_market(path)
        assert np.array_equal(matrix, [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])

    def test_real_field_and_empty_matrix(self, tmp_path):
        path = tmp_path / "r.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 1\n0.0\n1.000\n")
        assert np.array_equal(read_matrix_market(path), [[0.0], [1.0]])
        path.write_text(MTX_HEADER + "0 4\n")
        assert read_matrix_market(path).shape == (0, 4)

    @pytest.mark.parametrize(
        "content",
        [
            "",
            "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 1\n",
            MTX_HEADER,
            MTX_HEADER + "-2 2\n1\n1\n1\n1\n",
            MTX_HEADER + "2 -2\n",
            MTX_HEADER + "2.5 2\n1\n",
            MTX_HEADER + "2 x\n1\n",
            MTX_HEADER + "2\n1\n1\n",
            MTX_HEADER + "2 2 4\n1\n1\n1\n1\n",
            MTX_HEADER + "2 1\n1\nzero\n",
            MTX_HEADER + "2 1\n0 1\n",
            MTX_HEADER + "2 2\n1\n0\n1\n",
            MTX_HEADER + "1 1\n1\n0\n",
            MTX_HEADER + "1 1\n\xff\n",
            MTX_HEADER + "2 1\n1\nx\n",
            MTX_HEADER + "2 1\n1\n/\n",
            MTX_HEADER + "2 1\n1\n:\n",
            MTX_HEADER + "2 1\n1\n \n",
        ],
        ids=[
            "empty-file", "coordinate", "no-size-line", "negative-rows",
            "negative-cols", "fractional-size", "non-integer-size", "one-size-token",
            "three-size-tokens", "unparsable-entry", "two-entries-on-a-line",
            "too-few-entries", "too-many-entries", "non-ascii-entry",
            # Bodies of the writer's length with one byte that is no digit;
            # "/" and ":" sit just below "0" and just above "9".
            "letter-in-digit-body", "slash-in-digit-body", "colon-in-digit-body",
            "space-in-digit-body",
        ],
    )
    def test_malformed_rejected(self, tmp_path, content):
        path = tmp_path / "bad.mtx"
        path.write_text(content, encoding="latin-1")
        with pytest.raises(InvalidInputError, match="bad.mtx"):
            read_matrix_market(path)

    @pytest.mark.parametrize(
        "content",
        [
            MTX_HEADER + "2 3\n1\n0\n0\n1\n0\n1\n",
            MTX_HEADER + "2 2\n9\n0\n3\n7\n",
            MTX_HEADER + "% a comment\n2 2\n1\n0\n0\n1\n",
            MTX_HEADER + "2 2\n1\n\n0\n0\n1\n",
            (MTX_HEADER + "2 2\n1\n0\n0\n1\n").replace("\n", "\r\n"),
            MTX_HEADER + "2 2\n1\r\n0\r\n0\r\n1\r\n",
            MTX_HEADER + "2 2\n1\n-0\n0\n-1\n",
            MTX_HEADER + "2 2\n10\n00\n01\n1\n",
            "%%MatrixMarket matrix array real general\n2 2\n1.0\n0.5\n1e0\n0\n",
            MTX_HEADER + "2 2\n 1\n0 \n0\n1\n",
            MTX_HEADER + "2 2\n1\n0\n0\n1",
        ],
        ids=[
            "writer-layout", "other-digits", "header-comment", "blank-line", "crlf",
            "crlf-body", "signs", "multi-digit", "real", "padded", "no-final-newline",
        ],
    )
    def test_reads_as_scipy_does(self, tmp_path, content):
        path = tmp_path / "v.mtx"
        path.write_bytes(content.encode())
        matrix = read_matrix_market(path)
        assert matrix.dtype == np.float64 and matrix.flags.c_contiguous
        assert np.array_equal(matrix, np.asarray(scipy.io.mmread(path), dtype=np.float64))

    def test_writer_output_reads_as_scipy_does(self, tmp_path):
        path = tmp_path / "w.mtx"
        matrix = (np.random.default_rng(3).random((37, 23)) < 0.4).astype(np.float64)
        write_matrix_market(path, matrix)
        assert np.array_equal(read_matrix_market(path), matrix)
        assert np.array_equal(np.asarray(scipy.io.mmread(path), dtype=np.float64), matrix)
        # A trailing comment sends the same entries to the line-by-line parser.
        path.write_bytes(path.read_bytes() + b"% end\n")
        assert np.array_equal(read_matrix_market(path), matrix)

    def test_writer_rejects_non_binary(self, tmp_path):
        for bad in ([[0.0, 0.5]], [[2.0]], [[-1.0, 0.0]]):
            with pytest.raises(InvalidInputError):
                write_matrix_market(tmp_path / "w.mtx", np.array(bad))
        assert not (tmp_path / "w.mtx").exists()

    def test_writer_bytes(self, tmp_path):
        path = tmp_path / "w.mtx"
        write_matrix_market(path, np.array([[1.0, 0.0, -0.0], [0.0, 1.0, 1.0]]))
        assert path.read_bytes() == (MTX_HEADER + "2 3\n1\n0\n0\n1\n0\n1\n").encode()


def test_dataset_rejects_non_binary():
    with pytest.raises(InvalidInputError):
        BinaryDataset(np.array([[0.0, 0.5]]))


@pytest.mark.parametrize(
    "entry, message",
    [
        ("nan", "matrix contains non-finite entries"),
        ("inf", "matrix contains non-finite entries"),
        ("0.5", "dataset entries must be exactly 0 or 1"),
        ("2", "dataset entries must be exactly 0 or 1"),  # a digit: the fast path
    ],
)
def test_dataset_validation_messages(tmp_path, entry, message):
    with pytest.raises(InvalidInputError, match=message):
        BinaryDataset(np.array([[0.0, 1.0], [1.0, float(entry)]]))
    body = "".join(f"{value}\n" for value in ("0", "1", "1", entry))
    (tmp_path / "d.mtx").write_text(f"%%MatrixMarket matrix array real general\n2 2\n{body}")
    with pytest.raises(InvalidInputError, match=message):
        load_dataset(tmp_path / "d")


def test_sample_and_digit_path_skip_the_binary_scan(tmp_path, monkeypatch):
    # Both build a float64 0/1 matrix themselves, so neither rescans it.
    from specluster import models

    model = bsbm_to_mixture(BsbmParams.balanced(40, 30, 2, 0.4, 0.1))
    save_dataset(sample(model, 40, 0), tmp_path / "d")
    shapes = []
    real_as_matrix = models.as_matrix

    def recording_as_matrix(a, *args):
        shapes.append(np.shape(a))
        return real_as_matrix(a, *args)

    monkeypatch.setattr(models, "as_matrix", recording_as_matrix)
    drawn, loaded = sample(model, 40, 0), load_dataset(tmp_path / "d")
    assert (40, 30) not in shapes
    for ds in (drawn, loaded):
        assert ds.matrix.dtype == np.float64 and ds.matrix.flags.c_contiguous
    assert np.array_equal(drawn.matrix, loaded.matrix)


def test_save_dataset_skips_the_writer_checks(tmp_path, monkeypatch):
    # A BinaryDataset's matrix is 0/1 by construction, so saving it runs
    # neither as_matrix nor the 0/1 compare; the bytes are the checked
    # writer's.
    from specluster import models

    model = bsbm_to_mixture(BsbmParams.balanced(40, 30, 2, 0.4, 0.1))
    ds = sample(model, 40, 0)
    write_matrix_market(tmp_path / "checked.mtx", ds.matrix)
    shapes = []
    real_as_matrix = models.as_matrix

    def recording_as_matrix(a, *args):
        shapes.append(np.shape(a))
        return real_as_matrix(a, *args)

    monkeypatch.setattr(models, "as_matrix", recording_as_matrix)
    save_dataset(ds, tmp_path / "d")
    assert (40, 30) not in shapes
    assert (tmp_path / "d.mtx").read_bytes() == (tmp_path / "checked.mtx").read_bytes()
    with pytest.raises(InvalidInputError, match="0/1 entries only"):
        write_matrix_market(tmp_path / "bad.mtx", np.array([[0.0, 0.5]]))
