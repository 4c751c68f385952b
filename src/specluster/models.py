"""Data models: Bernoulli-product mixtures and the bipartite block model.

Provides the parameter types, their exact separation/variance statistics,
seeded samplers with entry-level stream splitting, the noise matrix A - E,
and the on-disk format (Matrix Market array file plus a JSON sidecar for
labels and parameters).

The dense path builds no temporary the size of the matrix: ``sample`` draws
its rows in placed order through :func:`rng.bernoulli_grid`,
``noise_matrix`` subtracts the expectation by :func:`rng.row_blocks`, and
the Matrix Market reader and writer hold the entries as uint8 digits.
``noise_matrix(a, model, truth, out=a)`` writes A - E over the matrix
itself, for a caller that no longer needs A: the CLI's ``generate`` and
``check`` then hold one m x n array where they held two.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import operator
import warnings
from dataclasses import InitVar, dataclass
from pathlib import Path

import numpy as np

from . import rng
from .errors import InvalidInputError
from .linalg import as_int, as_matrix, sq_dists

_WEIGHT_SUM_TOL = 1e-12
_COUNT_TOL = 1e-6
SIDECAR_FORMAT_VERSION = 1
_SIDECAR_KEYS = ("format_version", "seed", "truth", "model", "bsbm", "derived")


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """Mixture of k product-Bernoulli distributions on {0,1}^n.

    Parameters
    ----------
    means : ndarray
        (k, n) matrix whose row r is the mean vector of component r; every
        entry must lie in [0, 1].
    weights : ndarray
        k mixing weights, all positive, summing to 1.
    sigma_sq : float, optional
        Variance proxy dominating every mean entry.  Defaults to the largest
        mean entry; block-model constructors override it with the exact
        two-sided Bernoulli-variance bound.
    """

    means: np.ndarray
    weights: np.ndarray
    sigma_sq: float | None = None

    def __post_init__(self):
        means = as_matrix(self.means, "means")
        weights = np.asarray(self.weights, dtype=np.float64)
        if means.shape[0] < 1:
            raise InvalidInputError("model needs at least one component")
        if np.any(means < 0.0) or np.any(means > 1.0):
            raise InvalidInputError("mean entries must lie in [0, 1]")
        if weights.shape != (means.shape[0],):
            raise InvalidInputError("weights must have one entry per component")
        if not np.all(np.isfinite(weights)):
            raise InvalidInputError("weights must be finite")
        if np.any(weights <= 0.0):
            raise InvalidInputError("weights must be positive")
        if abs(float(weights.sum()) - 1.0) > _WEIGHT_SUM_TOL:
            raise InvalidInputError("weights must sum to 1")
        sigma_sq = self.sigma_sq
        if sigma_sq is None:
            sigma_sq = float(means.max()) if means.size else 0.0
        sigma_sq = float(sigma_sq)
        if not math.isfinite(sigma_sq):
            raise InvalidInputError("sigma_sq must be finite")
        if means.size and float(means.max()) > sigma_sq + 1e-12:
            raise InvalidInputError("sigma_sq must dominate every mean entry")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "sigma_sq", sigma_sq)

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def n(self) -> int:
        return self.means.shape[1]

    @property
    def w_min(self) -> float:
        return float(self.weights.min())


@dataclass(frozen=True, eq=False)
class BsbmParams:
    """Bipartite stochastic block model instance.

    m left vertices in k clusters of sizes ``left_sizes``; n right vertices
    partitioned by ``right_assignment`` (vertex j belongs to right cluster
    ``right_assignment[j]``).  Matched cluster pairs connect with probability
    p, all others with q; both are constrained to [0, 0.5] so that the
    variance proxy ``2 max{p(1-p), q(1-q)}`` dominates both edge means.
    """

    m: int
    n: int
    k: int
    p: float
    q: float
    left_sizes: tuple[int, ...]
    right_assignment: np.ndarray

    def __post_init__(self):
        if self.k < 2:
            raise InvalidInputError("B-SBM needs at least two clusters")
        if not (0.0 <= self.p <= 0.5 and 0.0 <= self.q <= 0.5):
            raise InvalidInputError("p and q must lie in [0, 0.5]")
        if self.p == self.q:
            raise InvalidInputError("p and q must differ")
        sizes = tuple(int(s) for s in self.left_sizes)
        if len(sizes) != self.k or any(s < 1 for s in sizes):
            raise InvalidInputError("left_sizes must be k positive counts")
        if sum(sizes) != self.m:
            raise InvalidInputError("left_sizes must sum to m")
        assignment = np.asarray(self.right_assignment, dtype=np.int64)
        if assignment.shape != (self.n,):
            raise InvalidInputError("right_assignment must have one entry per right vertex")
        if assignment.size and (assignment.min() < 0 or assignment.max() >= self.k):
            raise InvalidInputError("right_assignment labels must lie in [0, k)")
        present = np.bincount(assignment, minlength=self.k)
        if np.any(present == 0):
            raise InvalidInputError("every right cluster must be nonempty")
        object.__setattr__(self, "left_sizes", sizes)
        object.__setattr__(self, "right_assignment", assignment)

    @classmethod
    def balanced(cls, m: int, n: int, k: int, p: float, q: float) -> "BsbmParams":
        """Near-equal left sizes and contiguous near-equal right blocks."""
        if n < k:
            raise InvalidInputError("every right cluster must be nonempty")
        right = np.repeat(np.arange(k), _block_sizes(n, k))
        return cls(m, n, k, p, q, tuple(_block_sizes(m, k)), right)


def _block_sizes(total: int, k: int) -> list[int]:
    """k near-equal sizes summing to ``total``; the first ``total % k`` are one larger."""
    return [total // k + (1 if r < total % k else 0) for r in range(k)]


def separation(model: MixtureModel) -> float:
    """Minimum Euclidean distance between any two component means."""
    if model.k < 2:
        raise InvalidInputError("separation needs at least two components")
    d = sq_dists(model.means, model.means)
    iu = np.triu_indices(model.k, 1)
    return float(np.sqrt(max(float(d[iu].min()), 0.0)))


def min_symmetric_difference(sets) -> int:
    """Smallest symmetric-difference size over all pairs of vertex sets."""
    families = [frozenset(int(v) for v in s) for s in sets]
    if len(families) < 2:
        raise InvalidInputError("need at least two sets")
    return min(len(a ^ b) for a, b in itertools.combinations(families, 2))


def delta_v(params: BsbmParams) -> int:
    """Minimum number of right vertices distinguishing two clusters: they
    are disjoint, so |V_r Δ V_s| = |V_r| + |V_s|, least for the two smallest."""
    sizes = np.sort(np.bincount(params.right_assignment, minlength=params.k))
    return int(sizes[0] + sizes[1])


def bsbm_sigma_sq(p: float, q: float) -> float:
    """Variance proxy for edge indicators: twice the larger Bernoulli variance."""
    return 2.0 * max(p * (1.0 - p), q * (1.0 - q))


def bsbm_to_mixture(params: BsbmParams) -> MixtureModel:
    """Mean vectors in {p, q}^n induced by the right clustering.

    The resulting separation satisfies
    ``separation(model)**2 == (p - q)**2 * delta_v(params)`` exactly.
    """
    means = np.full((params.k, params.n), params.q, dtype=np.float64)
    for r in range(params.k):
        means[r, params.right_assignment == r] = params.p
    weights = np.asarray(params.left_sizes, dtype=np.float64) / params.m
    return MixtureModel(means, weights, sigma_sq=bsbm_sigma_sq(params.p, params.q))


def indicator_model(n: int, k: int, weights) -> MixtureModel:
    """Noiseless block means in {0, 1}: contiguous right blocks, indicator rows.

    Sampling from this model is deterministic, which makes it the zero-noise
    limit of the block model for sanity checks.
    """
    if k < 1 or n < k:
        raise InvalidInputError("need n >= k >= 1 for indicator blocks")
    assignment = np.repeat(np.arange(k), _block_sizes(n, k))
    means = np.zeros((k, n))
    for r in range(k):
        means[r, assignment == r] = 1.0
    return MixtureModel(means, np.asarray(weights, dtype=np.float64), sigma_sq=1.0)


def cluster_counts(model: MixtureModel, m: int) -> np.ndarray:
    """Exact per-component sample counts w_r * m; rejects non-integral counts."""
    raw = model.weights * m
    counts = np.rint(raw)
    if np.any(np.abs(raw - counts) > _COUNT_TOL):
        raise InvalidInputError(
            f"weights {model.weights.tolist()} do not give whole sample counts for m={m}"
        )
    counts = counts.astype(np.int64)
    if counts.sum() != m or np.any(counts < 1):
        raise InvalidInputError("every component must contribute at least one sample")
    return counts


@dataclass(eq=False)
class BinaryDataset:
    """An m x n 0/1 sample matrix with optional ground truth and provenance.

    ``matrix`` is checked to be finite and 0/1, except where this module
    builds it as a 2-D float64 0/1 array: ``sample`` and the Matrix Market
    reader's digit path pass ``_binary=True`` and skip the scan.
    """

    matrix: np.ndarray
    truth: np.ndarray | None = None
    model: MixtureModel | None = None
    bsbm: BsbmParams | None = None
    seed: int | None = None
    _binary: InitVar[bool] = False

    def __post_init__(self, _binary: bool):
        if not _binary:
            self.matrix = as_matrix(self.matrix)
            if not np.all((self.matrix == 0.0) | (self.matrix == 1.0)):
                raise InvalidInputError("dataset entries must be exactly 0 or 1")
        if self.truth is not None:
            truth = np.asarray(self.truth, dtype=np.int64)
            if truth.shape != (self.matrix.shape[0],):
                raise InvalidInputError("truth must have one label per row")
            if truth.size and truth.min() < 0:
                raise InvalidInputError("truth labels must be nonnegative")
            self.truth = truth

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


def _placement(model: MixtureModel, m: int, seed: int):
    """The checked seed, canonical truth order (component blocks) and its
    seeded placement."""
    seed = as_int(seed, "seed")
    counts = cluster_counts(model, m)
    truth_blocks = np.repeat(np.arange(model.k), counts)
    perm = rng.permutation(rng.mix64(seed, rng.TAG_SAMPLE_ORDER, m), m)
    return seed, truth_blocks, perm


def sample(model: MixtureModel, m: int, seed: int) -> BinaryDataset:
    """Draw exactly w_r * m rows from each component, in seeded random order.

    Entry (i, j) of the canonical (block-ordered) matrix is a Bernoulli draw
    addressed by hash(seed, i, j), so the dataset is reproducible bit for
    bit regardless of platform or generation schedule.  The rows are drawn
    in their placed order: row i of the result hashes canonical row
    ``perm[i]`` through :func:`rng.bernoulli_grid`, which tests each draw
    against its mean as an integer threshold, by row blocks, so no
    canonical-order copy or (m, n) matrix of means is built.
    """
    seed, truth_blocks, perm = _placement(model, m, seed)
    truth = truth_blocks[perm]
    matrix = rng.bernoulli_grid(
        rng.mix64(seed, rng.TAG_SAMPLE_ENTRIES, m), perm, model.means, truth
    )
    return BinaryDataset(matrix=matrix, truth=truth, model=model, seed=seed, _binary=True)


def expected_matrix(model: MixtureModel, m: int, seed: int) -> np.ndarray:
    """Row-wise expectation of ``sample(model, m, seed)``: row i is the mean
    of the component that generated row i under the same placement."""
    _, truth_blocks, perm = _placement(model, m, seed)
    return model.means[truth_blocks[perm]]


def _checked_truth(model: MixtureModel, truth) -> np.ndarray:
    truth = np.asarray(truth, dtype=np.int64)
    if truth.size and (truth.min() < 0 or truth.max() >= model.k):
        raise InvalidInputError("truth labels out of range for model")
    return truth


def expected_from_truth(model: MixtureModel, truth) -> np.ndarray:
    """Expectation matrix for an explicit per-row truth labeling."""
    return model.means[_checked_truth(model, truth)]


def noise_matrix(matrix, model: MixtureModel, truth, *, out=None) -> np.ndarray:
    """The noise ``A - E``: ``matrix - expected_from_truth(model, truth)``.

    Built by :func:`rng.row_blocks`, so E is never held in full; the bytes
    are those of the full subtraction.  Finiteness is left to the consumer
    (``spectral_norm`` checks it), so ``matrix`` is read once.

    ``out``, a float64 array of the matrix's shape, receives the result in
    place of a new array.  It may be the float64 ``matrix`` itself: each
    block is read before it is written, so a caller done with A holds one
    m x n array instead of two.  It must not otherwise overlap ``matrix``.
    Every check runs before ``out`` is written.
    """
    a = np.asarray(matrix, dtype=np.float64)
    truth = _checked_truth(model, truth)
    if truth.ndim != 1 or a.shape != (truth.size, model.n):
        raise InvalidInputError(
            f"matrix shape {a.shape} does not match {truth.size} truth labels "
            f"and {model.n} model columns"
        )
    if out is None:
        out = np.empty_like(a)
    elif not (
        isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == a.shape
    ):
        raise InvalidInputError(f"out must be a float64 array of shape {a.shape}")
    elif out is not a and np.may_share_memory(out, a):
        raise InvalidInputError("out must be the matrix itself or not overlap it")
    for rows in rng.row_blocks(*a.shape):
        np.subtract(a[rows], model.means[truth[rows]], out=out[rows])
    return out


# ---------------------------------------------------------------------------
# Serialization: Matrix Market array file + JSON sidecar.
# ---------------------------------------------------------------------------


def write_matrix_market(path, matrix: np.ndarray) -> None:
    """Write a dense 0/1 matrix in Matrix Market array format (column-major).

    Each entry is one line holding the digit 0 or 1; any other entry raises
    :class:`InvalidInputError`.  The body is one uint8 buffer of digit and
    newline bytes, written after the header as it stands.
    """
    matrix = as_matrix(matrix)
    ones = matrix == 1.0
    if not np.all(ones | (matrix == 0.0)):
        raise InvalidInputError("Matrix Market output takes 0/1 entries only")
    _write_digits(path, ones)


def _write_digits(path, ones: np.ndarray) -> None:
    """:func:`write_matrix_market` of the 0/1 matrix whose 1 entries are
    ``ones``, without checking it."""
    m, n = ones.shape
    lines = np.full((n, m, 2), ord("\n"), dtype=np.uint8)
    digits = lines[:, :, 0]
    digits[...] = ones.T
    digits += np.uint8(ord("0"))
    with open(path, "wb") as fh:
        fh.write(f"%%MatrixMarket matrix array integer general\n{m} {n}\n".encode())
        fh.write(lines)


def _digit_lines(data: bytes, start: int, count: int) -> tuple[np.ndarray, bool] | None:
    """The (count, 1) uint8 entries of ``data[start:]``, and whether all are
    0 or 1, if it is exactly ``count`` lines of one ASCII digit and a
    newline each, else None."""
    if count == 0 or len(data) - start != 2 * count:
        return None
    lines = np.frombuffer(data, dtype=np.uint8, offset=start).reshape(count, 2)
    digits = lines[:, 0] - np.uint8(ord("0"))  # bytes below "0" wrap to above 9
    top = int(digits.max())
    if not (np.all(lines[:, 1] == ord("\n")) and top <= 9):
        return None
    return digits.reshape(count, 1), top <= 1


def read_matrix_market(path) -> np.ndarray:
    """Read a dense Matrix Market array file (integer or real field).

    After the header, blank lines and ``%`` comments are skipped; the first
    line left holds the sizes ``m n`` and each later one a single entry, in
    column-major order.  A malformed file raises :class:`InvalidInputError`.

    The file is read once.  A body of exactly ``m*n`` lines, each one ASCII
    digit and a newline (the layout :func:`write_matrix_market` writes), is
    decoded in one numpy pass once every byte is checked, and its digits
    stay uint8 until one conversion into the C-order float64 result.  Any
    other body, with comments, blank lines, CRLF, signs, or multi-digit or
    real entries, goes to ``np.loadtxt``, which reads digit lines as the
    same values.
    """
    return _read_matrix_market(path)[0]


def _read_matrix_market(path) -> tuple[np.ndarray, bool]:
    """:func:`read_matrix_market`'s matrix, and whether the digit path
    found every entry to be 0 or 1 (False from ``np.loadtxt``)."""
    data = Path(path).read_bytes()
    # latin-1 decodes any byte, so a binary file fails the checks below.
    fh = io.TextIOWrapper(io.BytesIO(data), encoding="latin-1")
    header = fh.readline()
    if not header.startswith("%%MatrixMarket"):
        raise InvalidInputError(f"{path}: missing MatrixMarket header")
    tokens = header.lower().split()
    if len(tokens) < 4 or tokens[1] != "matrix" or tokens[2] != "array":
        raise InvalidInputError(f"{path}: expected a dense 'matrix array' file")
    consumed = len(header)
    line = fh.readline()
    consumed += len(line)
    while line and (not line.strip() or line.lstrip().startswith("%")):
        line = fh.readline()
        consumed += len(line)
    sizes = line.split()
    if len(sizes) != 2 or not all(tok.isdecimal() for tok in sizes):
        raise InvalidInputError(
            f"{path}: size line must be two nonnegative integers 'm n', got {line.strip()!r}"
        )
    m, n = int(sizes[0]), int(sizes[1])
    # Text mode turns "\r" and "\r\n" into "\n"; without them in the lines
    # read so far, ``consumed`` characters are as many bytes.
    fast = None if data.find(b"\r", 0, consumed) >= 0 else _digit_lines(data, consumed, m * n)
    if fast is not None:
        values, binary = fast
    else:
        binary = False
        try:
            with warnings.catch_warnings():
                # An empty body is reported by the entry count below.
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(fh, dtype=np.float64, comments="%", ndmin=2)
        except ValueError as exc:
            raise InvalidInputError(f"{path}: malformed Matrix Market entry: {exc}") from exc
    if values.shape != (m * n, 1):
        raise InvalidInputError(
            f"{path}: expected {m * n} entries, one per line, found {values.size}"
        )
    return np.ascontiguousarray(values.reshape((n, m)).T, dtype=np.float64), binary


def _model_to_json(model: MixtureModel) -> dict:
    return {
        "means": model.means.tolist(),
        "weights": model.weights.tolist(),
        "sigma_sq": model.sigma_sq,
    }


def read_json(path, what: str):
    """Parse the JSON file ``path``; an unreadable or malformed one raises InvalidInputError."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise InvalidInputError(f"cannot read {what} {path}: {exc}") from exc


def _json_object(spec, where: str) -> dict:
    if not isinstance(spec, dict):
        raise InvalidInputError(f"{where} must hold a JSON object, got {type(spec).__name__}")
    return spec


def check_keys(spec, allowed, where: str) -> None:
    """Reject the first key of a JSON-object spec that is not in ``allowed``
    with ``<where>: unknown key '<key>'``, so a misspelled key is not ignored."""
    for key in _json_object(spec, where):
        if key not in allowed:
            raise InvalidInputError(f"{where}: unknown key {key!r}")


def spec_value(spec: dict, key: str, convert, where: str):
    """``convert(spec[key])`` for a JSON-object spec, else InvalidInputError.

    A spec that is not an object, a missing key (``<where>: missing '<key>'``)
    and a value ``convert`` rejects all raise InvalidInputError naming ``where``.
    """
    if key not in _json_object(spec, where):
        raise InvalidInputError(f"{where}: missing {key!r}")
    try:
        return convert(spec[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{where}: bad value for {key!r}: {exc}") from exc


def strict_int(value) -> int:
    """An int, an integral float or a decimal string as int; anything else, bool
    included, raises TypeError or ValueError (``int()`` would truncate 2.7 to 2)."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"expected an integer, got {value!r}")
        return int(value)
    if isinstance(value, str):
        return int(value)
    return operator.index(value)


def _strict_float(value) -> float:
    """``float(value)``, a decimal string included; a bool raises TypeError,
    as in :func:`strict_int` (``float(False)`` would read it as 0.0)."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _float_array(value) -> np.ndarray:
    """``value`` as a float64 array; a bool in it raises TypeError, as in
    :func:`_strict_float` (numpy reads it as 0.0 or 1.0, among numbers too)."""
    items = np.asarray(value, dtype=object).flat
    if (found := next((v for v in items if isinstance(v, bool)), None)) is not None:
        raise TypeError(f"expected numbers, got {found!r}")
    return np.asarray(value, dtype=np.float64)


def _int_array(value) -> np.ndarray:
    """A list of :func:`strict_int` values; a JSON string or object raises
    TypeError rather than being read one character or key at a time."""
    if isinstance(value, (str, dict)):
        raise TypeError(f"expected a list of integers, got {type(value).__name__}")
    return np.asarray([strict_int(v) for v in value], dtype=np.int64)


# Keys of a B-SBM and of a mixture spec.  The B-SBM's two list-valued keys
# come last: an inline ``key=value`` spec cannot hold them.
BSBM_KEYS = ("m", "n", "k", "p", "q", "left_sizes", "right_assignment")
MIXTURE_KEYS = ("means", "weights", "sigma_sq")


def mixture_from_spec(spec: dict, where: str, extra=()) -> MixtureModel:
    """Mixture from a JSON spec's ``means``, ``weights`` and optional
    ``sigma_sq``; then any key outside these and ``extra`` is rejected."""
    means = spec_value(spec, "means", _float_array, where)
    weights = spec_value(spec, "weights", _float_array, where)
    sigma_sq = spec.get("sigma_sq")  # spec is an object: spec_value checked it
    if sigma_sq is not None:
        sigma_sq = spec_value(spec, "sigma_sq", _strict_float, where)
    model = MixtureModel(means, weights, sigma_sq=sigma_sq)
    check_keys(spec, (*MIXTURE_KEYS, *extra), where)
    return model


def _bsbm_to_json(params: BsbmParams) -> dict:
    return {
        "m": params.m,
        "n": params.n,
        "k": params.k,
        "p": params.p,
        "q": params.q,
        "left_sizes": list(params.left_sizes),
        "right_assignment": params.right_assignment.tolist(),
    }


def bsbm_from_spec(spec: dict, where: str, extra=()) -> BsbmParams:
    """B-SBM from a JSON spec's m, n, k, p and q; then any key outside
    ``BSBM_KEYS`` and ``extra`` is rejected.

    With ``left_sizes`` or ``right_assignment`` present both are read;
    otherwise the clusters are balanced (:meth:`BsbmParams.balanced`).
    """
    m, n, k = (spec_value(spec, key, strict_int, where) for key in ("m", "n", "k"))
    p, q = (spec_value(spec, key, _strict_float, where) for key in ("p", "q"))
    if "left_sizes" not in spec and "right_assignment" not in spec:
        params = BsbmParams.balanced(m, n, k, p, q)
    else:
        left_sizes, right_assignment = (
            spec_value(spec, key, _int_array, where) for key in BSBM_KEYS[5:]
        )
        params = BsbmParams(m, n, k, p, q, left_sizes, right_assignment)
    check_keys(spec, (*BSBM_KEYS, *extra), where)
    return params


def model_from_spec(spec, kind: str, where: str, extra=()):
    """``(model, m, bsbm or None)`` of a "bsbm" or "mixture" spec, which may
    hold the keys ``extra`` besides its family's (and ``m`` for a mixture).

    The one reader of model files, sweep cells and inline ``--bsbm``: every
    value is checked before the keys.
    """
    if kind == "bsbm":
        params = bsbm_from_spec(spec, where, extra)
        return bsbm_to_mixture(params), params.m, params
    if kind == "mixture":
        m = spec_value(spec, "m", strict_int, where)
        return mixture_from_spec(spec, where, ("m", *extra)), m, None
    raise InvalidInputError(f"{where}: 'kind' must be 'bsbm' or 'mixture'")


def dataset_paths(prefix) -> tuple[Path, Path]:
    prefix = Path(prefix)
    return prefix.with_suffix(".mtx"), prefix.with_suffix(".json")


def save_dataset(dataset: BinaryDataset, prefix) -> tuple[Path, Path]:
    """Write ``<prefix>.mtx`` and ``<prefix>.json``; returns both paths.

    The matrix of a :class:`BinaryDataset` is a float64 0/1 array by
    construction, so it is written without :func:`write_matrix_market`'s
    checks, in the same bytes.
    """
    mtx_path, json_path = dataset_paths(prefix)
    _write_digits(mtx_path, dataset.matrix == 1.0)
    sidecar: dict = {
        "format_version": SIDECAR_FORMAT_VERSION,
        "seed": dataset.seed,
        "truth": None if dataset.truth is None else dataset.truth.tolist(),
        "model": None if dataset.model is None else _model_to_json(dataset.model),
        "bsbm": None if dataset.bsbm is None else _bsbm_to_json(dataset.bsbm),
    }
    if dataset.model is not None:
        derived = {
            "sigma_sq": dataset.model.sigma_sq,
            "w_min": dataset.model.w_min,
        }
        if dataset.model.k >= 2:
            dm = separation(dataset.model)
            derived["delta_mu"] = dm
            derived["delta_mu_sq"] = dm * dm
        if dataset.bsbm is not None:
            derived["delta_v"] = delta_v(dataset.bsbm)
        sidecar["derived"] = derived
    json_path.write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    return mtx_path, json_path


def load_dataset(prefix) -> BinaryDataset:
    """Load a dataset written by :func:`save_dataset`.

    A sidecar key that :func:`save_dataset` does not write, or another
    ``format_version``, raises InvalidInputError rather than being ignored,
    as does a ``bsbm`` unlike the matrix's shape or, exactly, the ``model``.
    """
    mtx_path, json_path = dataset_paths(prefix)
    if not mtx_path.exists():
        raise InvalidInputError(f"missing dataset file {mtx_path}")
    matrix, binary = _read_matrix_market(mtx_path)
    truth = model = bsbm = seed = None
    if json_path.exists():
        where = f"sidecar {json_path}"
        sidecar = read_json(json_path, "sidecar")
        check_keys(sidecar, _SIDECAR_KEYS, where)
        version = sidecar.get("format_version", SIDECAR_FORMAT_VERSION)
        if version != SIDECAR_FORMAT_VERSION or isinstance(version, bool):
            raise InvalidInputError(f"{where}: unsupported format_version {version!r}")
        if sidecar.get("seed") is not None:
            seed = spec_value(sidecar, "seed", strict_int, where)
        if sidecar.get("truth") is not None:
            truth = spec_value(sidecar, "truth", _int_array, where)
        if sidecar.get("model") is not None:
            model = mixture_from_spec(sidecar["model"], f"{where} model")
        if sidecar.get("bsbm") is not None:
            bsbm = bsbm_from_spec(sidecar["bsbm"], f"{where} bsbm")
            if (bsbm.m, bsbm.n) != matrix.shape:
                raise InvalidInputError(f"{where}: bsbm is {bsbm.m}x{bsbm.n}, the matrix "
                                        f"{matrix.shape[0]}x{matrix.shape[1]}")
            implied = bsbm_to_mixture(bsbm)
            for key in MIXTURE_KEYS if model is not None else ():
                if not np.array_equal(getattr(implied, key), getattr(model, key)):
                    raise InvalidInputError(f"{where}: bsbm and model differ in {key!r}")
    return BinaryDataset(
        matrix=matrix, truth=truth, model=model, bsbm=bsbm, seed=seed, _binary=binary
    )
