"""Dense linear-algebra kernels: truncated SVD, norms, squared distances and
center matching.

The truncated SVD takes one of two paths.  It is ``jacobi_svd``, a cyclic
Jacobi eigendecomposition of the explicit smaller Gram matrix AᵀA (AAᵀ for a
wide input), when the small dimension is at most ``JACOBI_CUTOVER`` or k
equals it.  Otherwise it is ARPACK on the blocked Gram operator, computed to
machine precision, whose pairs take their signs from one Rayleigh-Ritz step,
``jacobi_svd(A·V₀)`` on a fixed start basis V₀: ``kmeans`` lexsorts the
embedded rows, so a sign reaches the labels, and with these signs the labels
keep the bytes that subspace iteration gave (see ``_arpack_svd``).  Where
V₀ spans all of Rⁿ, or A is zero, that step is exact and is the result.
Subspace iteration, block power iteration re-orthonormalized by LAPACK's
Householder QR, is not a library path: it is ``subspace_svd_reference`` in
``tests/oracles.py``, the oracle of acceptance criterion 7, built from this
module's start basis, QR and Jacobi SVD; its Ritz step and residual test
live there too.  So it shares the Jacobi kernel with both paths and is not
an independent oracle for it; LAPACK is the oracle of both paths in the
tests.  The Jacobi kernel is checked on its own
against numpy's ``eigh`` and, bit for bit, against the textbook loop in
``tests/oracles.py``: each rotation runs in place on a two-row and a
two-column view.  The QR signs its columns as the Gram-Schmidt loop there
does.  The spectral norm decides no label: it is the top eigenvalue of the
explicit Gram matrix for small inputs, and for large ones the ARPACK kernel
for the top triplet alone, stopped at a relative residual of 1e-8: σ₁'s
relative error is at worst about 1e-8.  Each Gram product AᵀA·x is summed
over fixed row blocks of ``_GRAM_BLOCK`` (2²⁰) entries, in order, on every
usable CPU, so ARPACK's bytes do not depend on the CPU, thread or BLAS
thread count.

This is the only module that uses scipy, and each function imports what it
needs in its own body: the QR loads LAPACK (``scipy.linalg.lapack``), and
so does the OpenBLAS scan, whose libraries LAPACK brings; the SVD loads
``scipy.linalg`` and, above the cutover, ``scipy.sparse.linalg``;
``spectral_norm`` loads ``scipy.sparse.linalg`` above the cutover; the
assignment solver ``scipy.sparse.csgraph`` (which loads
``scipy.sparse.linalg`` too).  No function loads
``scipy.optimize``: on top of LAPACK, on a 2-vCPU host, it took about
85 ms and 21 MB to import, and csgraph about 12 ms and 5 MB.

The module also holds the process plumbing that the parallel paths share:
``_cpus``, the CPUs this process may use (the affinity mask, or 1 in a
forked sweep worker), which decides both whether ARPACK's Gram products
run their blocks on threads and whether ``pipeline.cluster_detailed``
forks a child for the second of its Jacobi halves; ``_can_fork``; and
``_blas_on_one_thread``, which pins every loaded OpenBLAS to one thread
around the Gram products, so their bytes do not depend on the BLAS thread
count, and around each of cluster's center estimates, so idle BLAS threads
do not spin against the Gram threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConvergenceError, InvalidInputError

JACOBI_CUTOVER = 64
MAX_ITER = 10_000  # ARPACK's restarts

_OVERSAMPLE = 8
_JACOBI_TOL = 1e-13  # off-diagonal Frobenius mass, relative, at which Jacobi stops
_JACOBI_SWEEPS = 64
_NORM_TOL = 1e-8  # relative residual on AᵀA at which spectral_norm's ARPACK stops
_GRAM_BLOCK = 1 << 20  # entries per row block of ARPACK's Gram product
# CPUs this process may use: None reads the affinity mask (``_usable_cpus``).
# Forked sweep workers set 1 (see ``_one_thread``), so ARPACK's blocks and
# cluster's halves run inline there.
_cpus: int | None = None


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a 2-D float64 array with finite entries."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {out.shape}")
    if out.size and not np.all(np.isfinite(out)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return out


def as_int(value, name: str) -> int:
    """An int or numpy integer, of any sign, as int: the check for seeds.

    Anything else, bool and integral floats included, raises
    :class:`InvalidInputError` naming ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_count(value, name: str, minimum: int) -> int:
    """:func:`as_int` of at least ``minimum``: the check for budgets and counts."""
    value = as_int(value, name)
    if value < minimum:
        raise InvalidInputError(f"{name} must be at least {minimum}, got {value}")
    return value


def sq_dists(a: np.ndarray, c: np.ndarray, a_sq: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and of ``c``.

    Expanded as ``|a|^2 + |c|^2 - 2 a.c``, so entries can fall slightly
    below zero through rounding; callers that need a true distance clamp.
    ``a_sq``, if given, must be ``np.sum(a * a, axis=1)``: a caller that
    measures many ``c`` against one ``a`` computes it once.  Otherwise a
    C-ordered ``a`` is summed by :func:`rng.row_blocks`, without a temporary
    the size of ``a``: each row reduces as it would in the whole matrix.
    Other layouts take the whole-matrix expression, because numpy orders a
    row's sum by the layout and a one-row block of them is C-ordered.
    """
    if a_sq is None and a.flags.c_contiguous:
        a_sq = np.empty(a.shape[0])
        for rows in rng.row_blocks(*a.shape):
            block = a[rows]
            (block * block).sum(axis=1, out=a_sq[rows])
    elif a_sq is None:
        a_sq = (a * a).sum(axis=1)
    return a_sq[:, None] + (c * c).sum(axis=1)[None, :] - 2.0 * (a @ c.T)


@dataclass(frozen=True, eq=False)
class RankKApprox:
    """Rank-k factorization ``left_vectors @ diag(singular_values) @ right_vectors.T``.

    Columns of both factor matrices are orthonormal and singular values are
    nonnegative and sorted in descending order.  Factors of a degenerate
    spectrum are not unique; compare materialized products, never factors.
    """

    k: int
    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray

    def __post_init__(self):
        s = self.singular_values
        if s.shape != (self.k,):
            raise InvalidInputError("singular_values must have length k")
        if np.any(s < 0) or np.any(s[:-1] < s[1:]):
            raise InvalidInputError("singular values must be descending and nonnegative")
        for mat, side in ((self.left_vectors, "left"), (self.right_vectors, "right")):
            if mat.ndim != 2 or mat.shape[1] != self.k:
                raise InvalidInputError(f"{side} factor must have k columns")
            gram = mat.T @ mat
            if not np.allclose(gram, np.eye(self.k), atol=1e-8):
                raise InvalidInputError(f"{side} factor columns are not orthonormal")

    def materialize(self) -> np.ndarray:
        return (self.left_vectors * self.singular_values) @ self.right_vectors.T


def _orthonormal_columns(w: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the columns of ``w`` (m >= b) by Householder QR.

    Each column of Q is signed so that R's diagonal is nonnegative, the
    convention Gram-Schmidt produces.  Q is orthonormal for every input:
    where ``w`` is rank deficient, the reflectors complete the basis.
    """
    from scipy.linalg.lapack import dgeqrf, dorgqr

    qr, tau, _, _ = dgeqrf(w)
    signs = np.where(qr.diagonal() < 0.0, -1.0, 1.0)
    q, _, _ = dorgqr(qr, tau, overwrite_a=True)
    q *= signs
    return q


def _jacobi_eigh(sym: np.ndarray):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns eigenvalues in descending order and the matching eigenvector
    columns.  Convergence: off-diagonal Frobenius mass at most
    ``_JACOBI_TOL`` times the Frobenius norm of the input, or
    ``_JACOBI_SWEEPS`` sweeps.

    Each rotation runs in place on rows p and q of the matrix, then on
    columns p and q of the matrix and eigenvectors, stacked in one
    ``(2n, n)`` array.  Both views of every pair (p, q) are built once per
    call, before the first sweep.  IEEE rounds ``c*x + (-s)*y`` as
    ``c*x - s*y`` and addition commutes, so the bytes match the textbook
    loop ``jacobi_eigh_reference`` in ``tests/oracles.py``.
    """
    n = sym.shape[0]
    av = np.empty((2 * n, n))
    a, v = av[:n], av[n:]
    a[...] = sym
    v[...] = np.eye(n)
    fro = float(np.sqrt(np.sum(a * a))) or 1.0
    skip = _JACOBI_TOL * fro / max(4 * n, 4)
    # rot = [[c, -s], [s, c]] rotates a (2, L) pair x into
    # rot3[:, 0] * x[0] + rot3[:, 1] * x[1]: one multiply, one add.
    rot = np.empty((2, 2))
    rot3 = rot[:, :, None]
    row_prod, col_prod = np.empty((2, 2, n)), np.empty((2, 2, 2 * n))
    row_x, row_y = row_prod[:, 0], row_prod[:, 1]
    col_x, col_y = col_prod[:, 0], col_prod[:, 1]
    avt = av.T
    pairs = [
        (p, q, a[p : q + 1 : q - p], avt[p : q + 1 : q - p])
        for p in range(n - 1)
        for q in range(p + 1, n)
    ]
    for _ in range(_JACOBI_SWEEPS):
        off = a - np.diag(np.diag(a))
        if float(np.sqrt(np.sum(off * off))) <= _JACOBI_TOL * fro:
            break
        for p, q, rows, cols in pairs:
            apq = a.item(p, q)
            if abs(apq) <= skip:
                continue
            tau = (a.item(q, q) - a.item(p, p)) / (2.0 * apq)
            sgn = 1.0 if tau >= 0 else -1.0
            t = sgn / (abs(tau) + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            rot[0, 0] = rot[1, 1] = c
            rot[0, 1] = -s
            rot[1, 0] = s
            np.multiply(rot3, rows, out=row_prod)
            np.add(row_x, row_y, out=rows)
            np.multiply(rot3, cols, out=col_prod)
            np.add(col_x, col_y, out=cols)
    eigvals = np.diag(a).copy()
    order = np.argsort(-eigvals, kind="stable")
    return eigvals[order], v[:, order]


def jacobi_svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD via Jacobi eigendecomposition of the smaller Gram matrix.

    Returns ``(u, s, v)`` with ``min(m, n)`` columns each.  This is the one
    full-SVD kernel: ``truncated_svd`` calls it on small inputs, at k =
    min(m, n), and in the Rayleigh-Ritz step that signs the ARPACK path's
    factors, or is the result where the start basis spans Rⁿ.  It stays
    the path for min(m, n) <= ``JACOBI_CUTOVER``: its signs cannot be
    predicted without running it, so no other solver there keeps the
    labels' bytes.  A wide input is solved as its transpose, with
    the factors swapped back.

    Cost: each sweep makes one Python-level rotation per pair of columns,
    so the time grows about as the cube of min(m, n).  On uniform square
    matrices with one BLAS thread it took 0.38 s at 64 x 64, 2.63 s at
    200 x 200 and 19.6 s at 400 x 400.  ``truncated_svd`` runs it above
    ``JACOBI_CUTOVER`` (64) only at k = min(m, n), as the full SVD it is;
    nothing stops a larger call.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m == 0 or n == 0:
        raise InvalidInputError("matrix must be nonempty")
    if n > m:
        v, s, u = jacobi_svd(a.T)
        return u, s, v
    lam, v = _jacobi_eigh(a.T @ a)
    s = np.sqrt(np.clip(lam, 0.0, None))
    # u = a v / s.  The QR completes the columns of negligible s and kills
    # the O(eps/sigma) drift of near-null ones.
    u = np.zeros((m, n))
    keep = s > float(s[0]) * 1e-7 + 1e-300
    u[:, keep] = (a @ v)[:, keep] / s[keep]
    return _orthonormal_columns(u), s, v


def _start_basis(m: int, n: int, k: int) -> np.ndarray:
    """The orthonormal n x b start basis V₀ of the first Ritz step, b =
    min(k + 8, m, n), derived from a fixed internal key rather than global
    random state.  b = n, a basis of all of Rⁿ, exactly when m >= n and
    n <= k + 8."""
    b = min(k + _OVERSAMPLE, m, n)
    init_key = rng.mix64(rng.TAG_SVD_INIT, m, n, b)
    return _orthonormal_columns(2.0 * rng.uniform_grid(init_key, n, b) - 1.0)


def _arpack_svd(a: np.ndarray, k: int):
    """``(u, s, v)`` of ``truncated_svd`` for min(m, n) > ``JACOBI_CUTOVER``
    and k < min(m, n).

    Both paths take the first Rayleigh-Ritz step of subspace iteration on
    the start basis V₀ of :func:`_start_basis`: ``jacobi_svd(A·V₀)`` gives
    Ritz values and left vectors, and its right factor Q rotates V₀ into
    the right Ritz basis ``_orthonormal_columns(V₀·Q)``.

    - Where V₀ spans all of Rⁿ (a tall input with n <= k + 8), the step is
      an exact n x n Jacobi solve of A·V₀; on an all-zero input, where
      ARPACK cannot start, it is exact too.  The step is then the result,
      with the bytes subspace iteration returns.  A nonzero wide input's V₀
      has at most m < n columns, so it always goes on to ARPACK.
    - Otherwise :func:`_gram_svd` runs at ``tol=0``, ARPACK to machine
      precision on the blocked Gram operator, and each pair (u_j, v_j)
      whose v_j has a negative dot product with column j of the right
      Ritz basis is negated.

    ``kmeans`` lexsorts the embedded rows, column 0 first, so the sign of
    σ₁'s pair reaches the labels; negating another column leaves every
    distance byte as it was.  Once σ₁ stands apart from σ₂, each later QR
    step of subspace iteration (``subspace_svd_reference`` in
    ``tests/oracles.py``) scales column 0 by a positive multiple of AᵀA and
    each later Ritz rotation is near the identity on it, so the loop ends
    with the first step's sign there.  ARPACK's σ₁ pair then differs from
    the loop's by about 1e-12, too little to move a k-means++ draw or a
    Lloyd assignment: the labels keep the loop's bytes (the README gives
    the census).
    """
    m, n = a.shape
    v0 = _start_basis(m, n, k)
    u, s, q = jacobi_svd(a @ v0)
    first = _orthonormal_columns(v0 @ q)
    if v0.shape[1] == n or not a.any():
        return u, s, first
    u, s, v = _gram_svd(a, k, 0.0, "truncated SVD")
    signs = np.where(np.sum(v * first[:, :k], axis=0) < 0.0, -1.0, 1.0)
    return u * signs, s, v * signs


def takes_jacobi(shape: tuple[int, int], k: int) -> bool:
    """Whether :func:`truncated_svd` of rank ``k`` on a matrix of ``shape``
    is :func:`jacobi_svd`'s."""
    return min(shape) <= JACOBI_CUTOVER or k == min(shape)


def truncated_svd(a, k: int) -> RankKApprox:
    """Best rank-k approximation of ``a`` as a :class:`RankKApprox`.

    Parameters
    ----------
    a : array_like
        Dense real matrix, shape (m, n).
    k : int
        Target rank, 1 <= k <= min(m, n).

    There are two paths.  The result is :func:`jacobi_svd` when min(m, n)
    <= JACOBI_CUTOVER or k = min(m, n).  Otherwise it is ARPACK on the
    blocked Gram operator to machine precision, with each pair signed by
    the first Rayleigh-Ritz step of subspace iteration; that step is the
    result where its start basis spans Rⁿ (m >= n and n <= k + 8) or the
    input is all zero (:func:`_arpack_svd`).

    The result is deterministic: the Ritz step and ARPACK start from bases
    derived from fixed internal keys, ARPACK draws the restarts of a
    rank-deficient input from a generator seeded by one, and neither reads
    global random state or OS entropy.  ARPACK's bytes do not depend on the
    CPU, thread or BLAS thread count.  Where σ₁ stands apart from σ₂, σ₁'s
    pair has the sign subspace iteration gives it; over the README's census
    of B-SBM inputs with q > 0, ``cluster``'s labels kept every byte.  If
    ARPACK fails, including running out of its ``MAX_ITER`` restarts, it
    raises :class:`ConvergenceError`.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m == 0 or n == 0:
        raise InvalidInputError("matrix must be nonempty")
    k = as_count(k, "k", 1)
    if k > min(m, n):
        raise InvalidInputError(f"k={k} out of range for shape {a.shape}")
    if takes_jacobi(a.shape, k):
        u, s, v = jacobi_svd(a)
    else:
        u, s, v = _arpack_svd(a, k)
    return RankKApprox(k, u[:, :k].copy(), s[:k].copy(), v[:, :k].copy())


def import_scipy() -> None:
    """Import every scipy module this package uses: LAPACK, ARPACK and
    csgraph's assignment solver, never ``scipy.optimize``.

    For a caller about to fork workers that will need them: each worker
    then inherits the modules instead of importing them on its own.
    """
    import scipy.linalg.lapack  # noqa: F401
    import scipy.sparse.csgraph  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401


def linear_sum_assignment(cost):
    """Minimum-cost matching of a square cost matrix, as ``(rows, cols)``
    with ``rows = arange(k)``: row r is matched to column ``cols[r]``.

    The solver is LAPJVsp, ``scipy.sparse.csgraph``'s
    ``min_weight_full_bipartite_matching``, on a k x (k + 1) CSR graph: the
    k² costs and one extra column, which costs more than any optimum pays.
    On the square graph alone LAPJVsp ran for over a minute on some float
    costs with near-equal entries (7 of 2,000 fuzzed center sets with
    repeated centers); on the k x (k + 1) graph none of 24,000 fuzzed cost
    matrices, those included, took more than a millisecond.  csgraph drops
    stored zeros, and a dropped entry is a missing edge, so an exact zero
    is given the smallest positive float; every other cost keeps its bytes.
    Where the identity costs the optimum, the identity is returned, so that
    equal center sets keep their order.  Other ties take LAPJVsp's choice,
    which may differ from ``scipy.optimize.linear_sum_assignment``'s.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    cost = np.asarray(cost, dtype=np.float64)
    k = cost.shape[0]
    # A matching through the extra column costs more than k times the
    # largest |cost|, which any matching without it stays under.
    extra = np.full((k, 1), 2.0 * k * (np.abs(cost).max(initial=0.0) + 1.0))
    weights = np.hstack([np.where(cost == 0.0, np.nextafter(0.0, 1.0), cost), extra]).ravel()
    indptr = np.arange(0, weights.size + 1, k + 1)
    graph = csr_array((weights, np.tile(np.arange(k + 1), k), indptr), (k, k + 1))
    rows, cols = min_weight_full_bipartite_matching(graph)
    if cost.diagonal().sum() <= cost[rows, cols].sum():
        cols = rows
    return rows, cols


def _usable_cpus() -> int:
    """CPUs this process may run on (the affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _can_fork() -> bool:
    """Whether this platform can fork: the sweep pool and cluster's second
    half run in forked processes only where it can."""
    return hasattr(os, "fork")


@functools.cache
def _openblas_thread_controls() -> tuple:
    """``(get, set)`` thread-count functions of every OpenBLAS in this process.

    numpy and scipy may each bundle their own OpenBLAS, so there may be
    several.  A library exports them plain, with a 64-bit-integer suffix, or
    with the scipy-openblas wheels' prefix.  The libraries are found in
    ``/proc/self/maps``; where it is absent there are none.  The function
    imports LAPACK before its one scan: LAPACK brings scipy's OpenBLAS, and
    the other scipy modules the package uses bring none, so the scan sees
    every library and its result is cached for good.  Reading the maps and
    opening the libraries costs about a millisecond.
    """
    import scipy.linalg.lapack  # noqa: F401

    try:
        with open("/proc/self/maps") as maps:
            fields = (line.split(maxsplit=5) for line in maps)
            paths = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]}
    except OSError:
        return ()
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a library file deleted since it was loaded
            continue
        for prefix, suffix in itertools.product(("", "scipy_"), ("", "64_")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
    return tuple(controls)


def _one_thread() -> None:
    """Run every loaded OpenBLAS on one thread, and count this process as
    one CPU, so that ``spectral_norm`` and ``cluster`` run inline.

    The initializer of the sweep's forked workers: the workers already fill
    the CPUs, and threads or processes on top of them oversubscribe them.
    """
    global _cpus
    _cpus = 1
    for _, set_threads in _openblas_thread_controls():
        set_threads(1)


@contextlib.contextmanager
def _blas_on_one_thread():
    """Run every loaded OpenBLAS on one thread inside the block, then restore
    each thread count."""
    saved = [(set_threads, get()) for get, set_threads in _openblas_thread_controls()]
    for set_threads, _ in saved:
        set_threads(1)
    try:
        yield
    finally:
        for set_threads, count in saved:
            set_threads(count)


def _gram_svd(a: np.ndarray, k: int, tol: float, what: str):
    """``(u, s, v)``: the top k singular triplets of ``a`` (k < min(m, n)),
    sorted descending, from ARPACK on its blocked Gram operator.

    ``a`` is taken in its taller orientation, ``tall``, and cut into the
    row blocks of about ``_GRAM_BLOCK`` entries that :func:`rng.row_blocks`
    gives.  ``eigsh`` finds the top k eigenvectors of ``tallᵀ·tall`` at
    ``tol``, from a start vector and a restart generator derived from a
    fixed internal key; as in ``scipy.sparse.linalg.svds``, the triplets
    are then ``svd(tall·Q)`` of the QR ``Q`` of those Ritz vectors, with
    right vectors ``Q·Wᵀ``.  Block b computes ``A_bᵀ(A_b·x)`` into slot b,
    and the slots are summed in block order.  The calling thread and a pool
    of ``threads - 1`` more, which lives only for the call, take blocks t,
    t + threads, ...  Every
    OpenBLAS found in ``/proc/self/maps`` runs on one thread meanwhile, so
    the bytes depend on the shape alone.  An ARPACK failure, running out
    of ``MAX_ITER`` restarts included, raises :class:`ConvergenceError`
    with the message ``"{what}: {ARPACK's message}"``.
    """
    import scipy.sparse.linalg as sparse_linalg
    from scipy.linalg import svd

    m, n = a.shape
    tall = a if m >= n else a.T
    small = tall.shape[1]
    blocks = [tall[rows] for rows in rng.row_blocks(*tall.shape, _GRAM_BLOCK)]
    v0_key = rng.mix64(rng.TAG_SVD_INIT, m, n, k)
    v0 = 2.0 * rng.uniform_array(v0_key, np.arange(small, dtype=np.uint64)) - 1.0
    threads = min(len(blocks), _cpus or _usable_cpus())
    slots = np.empty((len(blocks), small))

    def products(first: int, x: np.ndarray) -> None:
        for b in range(first, len(blocks), threads):
            np.matmul(blocks[b].T, blocks[b] @ x, out=slots[b])

    def gram(x: np.ndarray) -> np.ndarray:
        others = [pool.submit(products, t, x) for t in range(1, threads)]
        products(0, x)
        for other in others:
            other.result()
        total = slots[0].copy()
        for slot in slots[1:]:
            total += slot
        return total

    from concurrent.futures import ThreadPoolExecutor

    # One thread submits nothing, so its pool starts no thread.
    with _blas_on_one_thread(), ThreadPoolExecutor(max(threads - 1, 1)) as pool:
        op = sparse_linalg.LinearOperator((small, small), matvec=gram, dtype=np.float64)
        # Where the Krylov space runs out (Gram rank below ARPACK's basis
        # size), ARPACK restarts from a vector drawn from ``rng``; without a
        # seeded generator scipy draws it from OS entropy, and the spare
        # columns of a rank-deficient input change from run to run.
        restarts = np.random.default_rng(v0_key)
        try:
            _, vec = sparse_linalg.eigsh(op, k=k, tol=tol, maxiter=MAX_ITER, v0=v0, rng=restarts)
        except sparse_linalg.ArpackError as exc:
            raise ConvergenceError(f"{what}: {exc}") from exc
        vec, _ = np.linalg.qr(vec)
        u, s, wt = svd(tall @ vec, full_matrices=False, overwrite_a=True)
    v = vec @ wt.T
    return (u, s, v) if m >= n else (v, s, u)


def spectral_norm(a) -> float:
    """Largest singular value of ``a``.

    When min(m, n) <= ``JACOBI_CUTOVER`` (64) this is the square root of
    the top eigenvalue (``np.linalg.eigvalsh``) of the explicit min(m, n)²
    Gram matrix: squaring loses accuracy only in the small singular values,
    and on B-SBM noise matrices σ₁ stayed within 2.4e-15 of LAPACK's
    ``np.linalg.norm(a, 2)``, whose bytes, unlike these, moved with the BLAS
    thread count at 20000×64.  Larger inputs go to :func:`_gram_svd` with
    k=1: ARPACK runs Lanczos on the Gram operator AᵀA (AAᵀ for a wide input)
    for the top value alone, from a start vector derived from a fixed
    internal key rather than global random state, and stops at a relative
    residual of ``_NORM_TOL`` (1e-8) on the Gram operator.  σ₁'s relative
    error is then about 1e-16 over the relative gap (σ₁² − σ₂²)/σ₁², and at
    most that gap when it is below 1e-8, where ARPACK cannot tell σ₁ from
    σ₂: at worst about 1e-8.

    Above the cutover the arithmetic depends on the shape alone.  The
    input, in its taller orientation, is cut into row blocks of about
    ``_GRAM_BLOCK`` (2²⁰) entries by :func:`rng.row_blocks`: one block at
    400×400 or 2000×300, four at 2000×2000.  The blocks run on min(blocks, usable CPUs) threads,
    one BLAS thread each, and their bytes do not depend on the CPU, thread
    or BLAS thread count.  Forked sweep workers run them on one thread.

    An all-zero input returns 0.0.  ARPACK failures, including running out
    of its ``MAX_ITER`` restarts, raise :class:`ConvergenceError`.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m == 0 or n == 0:
        raise InvalidInputError("matrix must be nonempty")
    if min(m, n) <= JACOBI_CUTOVER:
        gram = a.T @ a if m >= n else a @ a.T
        return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))
    if not a.any():
        # ARPACK cannot start from the zero residual a zero operator gives.
        return 0.0
    return float(_gram_svd(a, 1, _NORM_TOL, "spectral norm")[1][0])


def _center_rows(c) -> np.ndarray:
    centers = getattr(c, "centers", c)
    return as_matrix(centers, "centers")


def match_center_sets(first, second) -> np.ndarray:
    """Permutation ``pi`` minimizing sum_r ||first_r - second_{pi[r]}||^2.

    Accepts CenterSet-like objects (anything with a ``centers`` attribute)
    or plain (k, n) arrays.  Solved exactly as a linear assignment problem
    on the k x k squared-distance cost matrix.
    """
    a = _center_rows(first)
    b = _center_rows(second)
    if a.shape != b.shape:
        raise InvalidInputError(f"center sets differ in shape: {a.shape} vs {b.shape}")
    rows, cols = linear_sum_assignment(sq_dists(a, b))
    perm = np.empty(a.shape[0], dtype=np.int64)
    perm[rows] = cols
    return perm
