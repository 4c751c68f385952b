"""Dense linear-algebra kernels: truncated SVD, norms, squared distances and
center matching.

The truncated SVD is block power iteration (subspace iteration),
re-orthonormalized by LAPACK's Householder QR, for large inputs, and a full
eigendecomposition of the Gram matrix by cyclic Jacobi rotations when the
small dimension is at most ``JACOBI_CUTOVER``.  The Jacobi path doubles as
an independent oracle for the iterative path, which is why both are kept
side by side.  Each Jacobi rotation runs in place on a two-row and a
two-column view, bit-identical to the textbook loop in ``tests/oracles.py``;
the QR signs its columns as the Gram-Schmidt loop there does.  The spectral
norm decides no label, so it runs on LAPACK for small inputs and ARPACK for
the top singular value of large ones.

This is the only module that uses scipy, and it imports scipy on first use:
the SVD loads ``scipy.linalg``, ``spectral_norm`` ``scipy.sparse.linalg``
and the assignment solver ``scipy.optimize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConvergenceError, InvalidInputError

JACOBI_CUTOVER = 64
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10_000

_OVERSAMPLE = 8
_CHECK_EVERY = 8


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a 2-D float64 array with finite entries."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {out.shape}")
    if out.size and not np.all(np.isfinite(out)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return out


def sq_dists(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and of ``c``.

    Expanded as ``|a|^2 + |c|^2 - 2 a.c``, so entries can fall slightly
    below zero through rounding; callers that need a true distance clamp.
    """
    return np.sum(a * a, axis=1)[:, None] + np.sum(c * c, axis=1)[None, :] - 2.0 * (a @ c.T)


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
    signs = np.where(np.diag(qr) < 0.0, -1.0, 1.0)
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
    ``(2n, n)`` array.  IEEE rounds ``c*x + (-s)*y`` as ``c*x - s*y`` and
    addition commutes, so the bytes match the textbook loop
    ``jacobi_eigh_reference`` in ``tests/oracles.py``.
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
    for _ in range(max_sweeps):
        off = a - np.diag(np.diag(a))
        if float(np.sqrt(np.sum(off * off))) <= tol * fro:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
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
                rows = a[p : q + 1 : q - p]
                np.multiply(rot3, rows, out=row_prod)
                np.add(row_x, row_y, out=rows)
                cols = avt[p : q + 1 : q - p]
                np.multiply(rot3, cols, out=col_prod)
                np.add(col_x, col_y, out=cols)
    eigvals = np.diag(a).copy()
    order = np.argsort(-eigvals, kind="stable")
    return eigvals[order], v[:, order]


def _left_vectors(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Orthonormal columns ``w / s``; QR completes the columns of negligible s."""
    q = np.zeros_like(w)
    keep = s > (float(s[0]) if s.size else 0.0) * 1e-7 + 1e-300
    q[:, keep] = w[:, keep] / s[keep]
    # Re-orthonormalize to kill the O(eps/sigma) drift of near-null columns.
    return _orthonormal_columns(q)


def jacobi_svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD via Jacobi eigendecomposition of the smaller Gram matrix.

    Returns ``(u, s, v)`` with ``min(m, n)`` columns each.  Intended for
    small matrices and as the oracle for the iterative path.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m == 0 or n == 0:
        raise InvalidInputError("matrix must be nonempty")
    if n <= m:
        lam, v = _jacobi_eigh(a.T @ a)
        s = np.sqrt(np.clip(lam, 0.0, None))
        u = _left_vectors(a @ v, s)
    else:
        lam, u = _jacobi_eigh(a @ a.T)
        s = np.sqrt(np.clip(lam, 0.0, None))
        v = _left_vectors(a.T @ u, s)
    return u, s, v


def _ritz_pairs(a: np.ndarray, v: np.ndarray):
    """Rayleigh-Ritz extraction of singular triplets from the subspace ``v``."""
    w = a @ v
    lam, q = _jacobi_eigh(w.T @ w)
    s = np.sqrt(np.clip(lam, 0.0, None))
    v_r = _orthonormal_columns(v @ q)
    u_r = _left_vectors(w @ q, s)
    return u_r, s, v_r


def _subspace_svd(a: np.ndarray, k: int, tol: float, max_iter: int) -> RankKApprox:
    m, n = a.shape
    b = min(k + _OVERSAMPLE, m, n)
    init_key = rng.mix64(rng.TAG_SVD_INIT, m, n, b)
    v = _orthonormal_columns(
        2.0 * rng.uniform_grid(init_key, n, b) - 1.0
    )
    last_residual = np.inf
    root_tol = np.sqrt(tol)
    for it in range(max_iter + 1):
        if it % _CHECK_EVERY == 0 or it == max_iter:
            u_r, s, v_r = _ritz_pairs(a, v)
            # a @ v_r == s * u_r by construction, so the informative
            # residual is the transposed side.
            resid = a.T @ u_r[:, :k] - v_r[:, :k] * s[:k]
            resid_norms = np.sqrt(np.sum(resid * resid, axis=0))
            last_residual = float(resid_norms.max())
            scale = max(float(s[0]), 1e-300)
            strict = resid_norms <= tol * scale
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
                return RankKApprox(k, u_r[:, :k].copy(), s[:k].copy(), v_r[:, :k].copy())
            v = v_r
        if it == max_iter:
            break
        u = _orthonormal_columns(a @ v)
        v = _orthonormal_columns(a.T @ u)
    raise ConvergenceError(
        f"subspace iteration did not reach tol={tol} in {max_iter} iterations "
        f"(last residual {last_residual:.3e})"
    )


def truncated_svd(
    a,
    k: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    method: str = "auto",
) -> RankKApprox:
    """Best rank-k approximation of ``a`` as a :class:`RankKApprox`.

    Parameters
    ----------
    a : array_like
        Dense real matrix, shape (m, n).
    k : int
        Target rank, 1 <= k <= min(m, n).
    tol : float
        Relative residual tolerance for the iterative path; positive.
    max_iter : int
        Iteration budget (>= 0); exceeding it raises :class:`ConvergenceError`
        rather than silently returning an unconverged answer.
    method : str
        "auto" (Jacobi when min(m, n) <= JACOBI_CUTOVER, else subspace
        iteration re-orthonormalized by Householder QR), or force "jacobi" /
        "subspace".

    The result is deterministic: subspace iteration starts from a basis
    derived from a fixed internal key, not from global random state.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m == 0 or n == 0:
        raise InvalidInputError("matrix must be nonempty")
    if not 1 <= k <= min(m, n):
        raise InvalidInputError(f"k={k} out of range for shape {a.shape}")
    if not tol > 0:
        raise InvalidInputError(f"tol must be positive, got {tol}")
    if max_iter < 0:
        raise InvalidInputError(f"max_iter must be nonnegative, got {max_iter}")
    if method == "auto":
        method = "jacobi" if min(m, n) <= JACOBI_CUTOVER else "subspace"
    if method == "jacobi":
        u, s, v = jacobi_svd(a)
        return RankKApprox(k, u[:, :k].copy(), s[:k].copy(), v[:, :k].copy())
    if method == "subspace":
        return _subspace_svd(a, k, tol, max_iter)
    raise InvalidInputError(f"unknown SVD method {method!r}")


def import_scipy() -> None:
    """Import every scipy module this package uses.

    For a caller about to fork workers that will need them: each worker
    then inherits the modules instead of importing them on its own.
    """
    import scipy.linalg.lapack  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401


def _lapack_qr():
    """LAPACK's ``dgeqrf`` and ``dorgqr``, imported on first call."""
    from scipy.linalg.lapack import dgeqrf, dorgqr

    return dgeqrf, dorgqr


def svds(a, **kwargs):
    """``scipy.sparse.linalg.svds``, imported on first call."""
    from scipy.sparse.linalg import svds as scipy_svds

    return scipy_svds(a, **kwargs)


def linear_sum_assignment(cost):
    """``scipy.optimize.linear_sum_assignment``, imported on first call."""
    from scipy.optimize import linear_sum_assignment as scipy_lsa

    return scipy_lsa(cost)


def spectral_norm(a, max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Largest singular value of ``a``, accurate to machine precision.

    When min(m, n) <= 64 this is LAPACK's full SVD (``np.linalg.norm(a, 2)``).
    Larger inputs go to ARPACK through ``scipy.sparse.linalg.svds``, which
    runs Lanczos on the Gram operator for the top value alone, to machine
    precision (``tol=0``), from a start vector derived from a fixed internal
    key rather than global random state.  An all-zero input returns 0.0.
    ARPACK failures, including running out of its ``max_iter`` restarts,
    raise :class:`ConvergenceError`.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m == 0 or n == 0:
        raise InvalidInputError("matrix must be nonempty")
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be at least 1, got {max_iter}")
    if min(m, n) <= JACOBI_CUTOVER:
        return float(np.linalg.norm(a, 2))
    if not a.any():
        # ARPACK cannot start from the zero residual a zero operator gives.
        return 0.0
    v0_key = rng.mix64(rng.TAG_SVD_INIT, m, n, 1)
    v0 = 2.0 * rng.uniform_array(v0_key, np.arange(min(m, n), dtype=np.uint64)) - 1.0
    from scipy.sparse.linalg import ArpackError

    try:
        top = svds(a, k=1, tol=0, v0=v0, maxiter=max_iter, return_singular_vectors=False)
    except ArpackError as exc:
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
