"""Dense linear-algebra kernels: truncated SVD, norms, squared distances and
center matching.

The truncated SVD is ``jacobi_svd`` when the small dimension is at most
``JACOBI_CUTOVER``, and block power iteration (subspace iteration),
re-orthonormalized by LAPACK's Householder QR, for larger inputs.
``jacobi_svd`` is the one small-SVD kernel: a cyclic Jacobi
eigendecomposition of the smaller Gram matrix.  The Rayleigh-Ritz step of
subspace iteration is ``jacobi_svd(A·V)``, so the two paths share that
kernel and neither is an independent oracle for the other.  The kernel is
checked on its own against numpy's ``eigh`` and, bit for bit, against the
textbook loop in ``tests/oracles.py``: each rotation runs in place on a
two-row and a two-column view.  The QR signs its columns as the
Gram-Schmidt loop there does.  The spectral norm decides no label, so it
runs on LAPACK for small inputs and ARPACK for the top singular value of
large ones.  ARPACK stops at a relative residual of 1e-8 on AᵀA, not at
machine precision: σ₁'s relative error is about that residual squared
over the relative gap, at worst about 1e-8.  On B-SBM noise it was within
3e-15 of LAPACK at 400×400 and 6.2e-15 at 2000×2000, with 103 instead of
143 products per call at 400×400 and 173 instead of 263 at 2000×2000 (see
``spectral_norm``).  An input of more
than one row block of ``_GRAM_BLOCK`` (2²⁰) entries, in its taller
orientation, computes each Gram product AᵀA·x block by block on every
usable CPU and sums the blocks in order, so its bytes do not depend on the
CPU, thread or BLAS thread count.

This is the only module that uses scipy, and it imports scipy on first use,
through ``_scipy`` with the cyclic GC paused: the SVD loads
``scipy.linalg``, ``spectral_norm`` ``scipy.sparse.linalg`` and the
assignment solver ``scipy.optimize``.  ``concurrent.futures`` is imported
only by a multi-block ``spectral_norm``.

The module also holds the process plumbing that the parallel paths share:
``_cpus``, the CPUs this process may use (the affinity mask, or 1 in a
forked sweep worker), which decides both whether a multi-block
``spectral_norm`` runs on threads and whether ``pipeline.cluster_detailed``
forks a child for its second half; ``_can_fork``; and
``_blas_on_one_thread``, which pins every loaded OpenBLAS to one thread
while either runs, so that their bytes do not depend on the BLAS thread
count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import gc
import importlib
import itertools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConvergenceError, InvalidInputError

JACOBI_CUTOVER = 64
TOL = 1e-8  # relative residual at which subspace iteration stops
MAX_ITER = 10_000  # subspace iterations, and ARPACK restarts in spectral_norm

_OVERSAMPLE = 8
_CHECK_EVERY = 8
_NORM_TOL = 1e-4  # svds squares it: ARPACK stops at a relative residual of 1e-8
_GRAM_BLOCK = 1 << 20  # entries per row block of spectral_norm's Gram product
# CPUs this process may use: None reads the affinity mask (``_usable_cpus``).
# Forked sweep workers set 1 (see ``_one_thread``), so a multi-block
# spectral_norm and cluster's halves run inline there.
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


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries."""
    a = as_matrix(a)
    return float(np.sqrt(np.sum(a * a)))


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
    geqrf, orgqr = _lapack_qr()
    qr, tau, _, _ = geqrf(w)
    signs = np.where(qr.diagonal() < 0.0, -1.0, 1.0)
    q, _, _ = orgqr(qr, tau, overwrite_a=True)
    q *= signs
    return q


def _jacobi_eigh(sym: np.ndarray, tol: float = 1e-13, max_sweeps: int = 64):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns eigenvalues in descending order and the matching eigenvector
    columns.  Convergence: off-diagonal Frobenius mass at most ``tol`` times
    the Frobenius norm of the input.

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
    skip = tol * fro / max(4 * n, 4)
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
    for _ in range(max_sweeps):
        off = a - np.diag(np.diag(a))
        if float(np.sqrt(np.sum(off * off))) <= tol * fro:
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
    small-SVD kernel: ``truncated_svd`` calls it on small inputs and on the
    Rayleigh-Ritz step of subspace iteration.  A wide input is solved as
    its transpose, with the factors swapped back.

    Cost: each sweep makes one Python-level rotation per pair of columns,
    so the time grows about as the cube of min(m, n).  On uniform square
    matrices with one BLAS thread it took 0.38 s at 64 x 64, 2.63 s at
    200 x 200 and 19.6 s at 400 x 400.  ``truncated_svd``'s ``auto`` method
    keeps it to min(m, n) <= ``JACOBI_CUTOVER`` (64) and to the Ritz step's
    small projected matrix; nothing stops a larger call.
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


def _subspace_svd(a: np.ndarray, k: int):
    """``(u, s, v)`` of block power iteration with Rayleigh-Ritz extraction.

    The Ritz step is ``jacobi_svd(a @ v)``: its left factor and singular
    values are the Ritz triplets, and its right factor rotates ``v``.
    Stops at a relative residual of ``TOL``, or raises
    :class:`ConvergenceError` after ``MAX_ITER`` iterations.
    """
    m, n = a.shape
    b = min(k + _OVERSAMPLE, m, n)
    init_key = rng.mix64(rng.TAG_SVD_INIT, m, n, b)
    v = _orthonormal_columns(
        2.0 * rng.uniform_grid(init_key, n, b) - 1.0
    )
    last_residual = np.inf
    root_tol = np.sqrt(TOL)
    for it in range(MAX_ITER + 1):
        if it % _CHECK_EVERY == 0 or it == MAX_ITER:
            u_r, s, q = jacobi_svd(a @ v)
            v_r = _orthonormal_columns(v @ q)
            # a @ v_r == s * u_r by construction, so the informative
            # residual is the transposed side.
            resid = a.T @ u_r[:, :k] - v_r[:, :k] * s[:k]
            resid_norms = np.sqrt(np.sum(resid * resid, axis=0))
            last_residual = float(resid_norms.max())
            scale = max(float(s[0]), 1e-300)
            strict = resid_norms <= TOL * scale
            done = bool(np.all(strict))
            if not done and b > k:
                # Singular values tied at the cut position keep their Ritz
                # vectors rotating inside the tied cluster forever, yet any
                # basis of that cluster yields an equally good rank-k
                # approximation (within the cluster width).  Accept once
                # every value is tol-accurate (quadratic in the residual)
                # and all unconverged pairs sit against the boundary.
                loose = resid_norms <= root_tol * scale
                near_boundary = (s[:k] - s[k]) <= 8.0 * root_tol * scale
                done = bool(np.all(loose) and np.all(strict | near_boundary))
            if done:
                return u_r, s, v_r
            v = v_r
        if it == MAX_ITER:
            break
        u = _orthonormal_columns(a @ v)
        v = _orthonormal_columns(a.T @ u)
    raise ConvergenceError(
        f"subspace iteration did not reach tol={TOL} in {MAX_ITER} iterations "
        f"(last residual {last_residual:.3e})"
    )


def truncated_svd(a, k: int, *, method: str = "auto") -> RankKApprox:
    """Best rank-k approximation of ``a`` as a :class:`RankKApprox`.

    Parameters
    ----------
    a : array_like
        Dense real matrix, shape (m, n).
    k : int
        Target rank, 1 <= k <= min(m, n).
    method : str
        "auto" (:func:`jacobi_svd` when min(m, n) <= JACOBI_CUTOVER, else
        subspace iteration re-orthonormalized by Householder QR), or
        "subspace" to force subspace iteration at any size.

    The result is deterministic: subspace iteration starts from a basis
    derived from a fixed internal key, not from global random state.  If it
    has not converged after ``MAX_ITER`` iterations, it raises
    :class:`ConvergenceError`.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m == 0 or n == 0:
        raise InvalidInputError("matrix must be nonempty")
    k = as_count(k, "k", 1)
    if k > min(m, n):
        raise InvalidInputError(f"k={k} out of range for shape {a.shape}")
    if method == "auto" and min(m, n) <= JACOBI_CUTOVER:
        u, s, v = jacobi_svd(a)
    elif method in ("auto", "subspace"):
        u, s, v = _subspace_svd(a, k)
    else:
        raise InvalidInputError(f"unknown SVD method {method!r}")
    return RankKApprox(k, u[:, :k].copy(), s[:k].copy(), v[:, :k].copy())


def _scipy(name: str):
    """The scipy module ``name``, imported on first use with the cyclic GC
    paused.

    Every scipy import of the package goes through here.  An import creates
    many objects and little garbage, so the collections it would trigger
    find almost nothing; the caller's GC state is restored, also when the
    import raises.  A first import may load scipy's own OpenBLAS, so it
    empties the cache of ``_openblas_thread_controls``.
    """
    if name in sys.modules:
        return sys.modules[name]
    enabled = gc.isenabled()
    gc.disable()
    try:
        module = importlib.import_module(name)
    finally:
        if enabled:
            gc.enable()
    _openblas_thread_controls.cache_clear()
    return module


def import_scipy() -> None:
    """Import every scipy module this package uses.

    For a caller about to fork workers that will need them: each worker
    then inherits the modules instead of importing them on its own.
    """
    for name in ("scipy.linalg.lapack", "scipy.optimize", "scipy.sparse.linalg"):
        _scipy(name)


@functools.cache
def _lapack_qr():
    """LAPACK's ``dgeqrf`` and ``dorgqr``, looked up on the first call only."""
    lapack = _scipy("scipy.linalg.lapack")
    return lapack.dgeqrf, lapack.dorgqr


def svds(a, **kwargs):
    """``scipy.sparse.linalg.svds``, imported on first call."""
    return _scipy("scipy.sparse.linalg").svds(a, **kwargs)


def linear_sum_assignment(cost):
    """``scipy.optimize.linear_sum_assignment``, imported on first call."""
    return _scipy("scipy.optimize").linear_sum_assignment(cost)


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
    ``/proc/self/maps``; where it is absent there are none.  The result is
    cached, because reading the maps and opening the libraries costs about a
    millisecond; :func:`_scipy` empties the cache after each first import,
    which is how scipy's OpenBLAS loads after numpy's.
    """
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


def _blocked_norm(tall: np.ndarray, blocks: list, v0: np.ndarray) -> float:
    """``svds``'s top singular value of ``tall`` (m >= n), with each Gram
    product summed over the row blocks ``blocks``.

    This is ``svds``'s ARPACK path with its own arguments: ``eigsh`` on the
    Gram operator at ``tol=_NORM_TOL**2``, then the QR of the Ritz vector
    and ``svd(A·v)``.  Block b computes ``A_bᵀ(A_b·x)`` into slot b, and the
    slots are summed in block order.  The calling thread and a pool of
    ``threads - 1`` more, which lives only for the call, take blocks
    t, t + threads, ...  Every OpenBLAS found in ``/proc/self/maps`` runs on
    one thread meanwhile, so the bytes depend on the blocks alone.
    """
    sparse_linalg = _scipy("scipy.sparse.linalg")
    svd = _scipy("scipy.linalg").svd

    n = tall.shape[1]
    threads = min(len(blocks), _cpus or _usable_cpus())
    slots = np.empty((len(blocks), n))

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
        op = sparse_linalg.LinearOperator((n, n), matvec=gram, dtype=np.float64)
        _, vec = sparse_linalg.eigsh(op, k=1, tol=_NORM_TOL**2, maxiter=MAX_ITER, v0=v0)
        vec, _ = np.linalg.qr(vec)
        return float(svd(tall @ vec, compute_uv=False, overwrite_a=True)[0])


def spectral_norm(a) -> float:
    """Largest singular value of ``a``.

    When min(m, n) <= 64 this is LAPACK's full SVD (``np.linalg.norm(a, 2)``).
    Larger inputs go to ARPACK, which runs Lanczos on the Gram operator AᵀA
    (AAᵀ for a wide input) for the top value alone, from a start vector
    derived from a fixed internal key rather than global random state.
    ``svds`` squares its ``tol``, so ``_NORM_TOL`` = 1e-4 stops ARPACK at a
    relative residual of 1e-8 on the Gram operator.  σ₁'s relative error is
    then about 1e-16 over the relative gap (σ₁² − σ₂²)/σ₁², and at most that
    gap when it is below 1e-8, where ARPACK cannot tell σ₁ from σ₂: at worst
    about 1e-8.  On B-SBM noise matrices A − E it was within 3e-15 of
    ``np.linalg.norm(a, 2)`` at 400×400 (3.1e-15 at ``tol=0``) and within
    6.2e-15 at 2000×2000 (16 matrices), with 103 A·x and Aᵀ·y products per
    call instead of 143 at 400×400 (medians of 20 matrices) and 173 instead
    of 263 at 2000×2000 (medians of 4).

    The arithmetic depends on the shape alone.  The input, in its taller
    orientation, is cut into row blocks of about ``_GRAM_BLOCK`` (2²⁰)
    entries by :func:`rng.row_blocks`.  An input of one block, such as
    400×400 or 2000×300, is ``scipy.sparse.linalg.svds(a, k=1, ...)``.  An
    input of more blocks, such as 2000×2000 (four), runs ``svds``'s ARPACK
    path with the Gram product fused by blocks (``_blocked_norm``) on
    min(blocks, usable CPUs) threads, one BLAS thread each.  Its bytes do
    not depend on the CPU, thread or BLAS thread count; they may differ
    from the whole-matrix ``svds`` in the last digits: by at most 4.4e-16
    relative over the 16 2000×2000 datasets of the ``cli`` bench.  Forked
    sweep workers run it on one thread.  At 2000×2000 with 2 CPUs and one
    BLAS thread it took 0.13 s instead of 0.22 s, and the ``generate`` and
    ``check`` commands 0.47 and 0.44 s instead of 0.55 and 0.52 s.

    An all-zero input returns 0.0.  ARPACK failures, including running out
    of its ``MAX_ITER`` restarts, raise :class:`ConvergenceError`.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m == 0 or n == 0:
        raise InvalidInputError("matrix must be nonempty")
    if min(m, n) <= JACOBI_CUTOVER:
        return float(np.linalg.norm(a, 2))
    if not a.any():
        # ARPACK cannot start from the zero residual a zero operator gives.
        return 0.0
    v0_key = rng.mix64(rng.TAG_SVD_INIT, m, n, 1)
    v0 = 2.0 * rng.uniform_array(v0_key, np.arange(min(m, n), dtype=np.uint64)) - 1.0
    tall = a if m >= n else a.T
    blocks = [tall[rows] for rows in rng.row_blocks(*tall.shape, _GRAM_BLOCK)]
    arpack_error = _scipy("scipy.sparse.linalg").ArpackError
    try:
        if len(blocks) > 1:
            return _blocked_norm(tall, blocks, v0)
        top = svds(a, k=1, tol=_NORM_TOL, v0=v0, maxiter=MAX_ITER, return_singular_vectors=False)
    except arpack_error as exc:
        raise ConvergenceError(f"spectral norm: {exc}") from exc
    return float(top[0])


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
