"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own code paths: objectives come from
exhaustive enumeration and matchings from trying every permutation, so they
can certify the optimized implementations.  The Jacobi eigensolver is the
textbook loop the library's in-place version must match bit for bit, the
Gram-Schmidt loop is the one the library's Householder QR replaced, and
the k-means loop is the one the library's k-means must match bit for bit.
The subspace-iteration loop is the exception: it is built from the
library's start basis, QR and Ritz step, whose first step signs ARPACK's
pairs, so it is the reference acceptance criterion 7 checks, not an
independent one.
The dense-path oracles keep the whole-matrix expressions that the library's
block-wise kernels replaced: a float grid compared with the row means and
then reordered, ``A - E`` with E in full, the ``np.where`` Matrix Market
writer, the transposing reader and the full ``a * a`` row norms.
"""

from itertools import permutations, product
from pathlib import Path

import numpy as np

from specluster import linalg, rng
from specluster.errors import ConvergenceError
from specluster.kmeans import KMeansResult
from specluster.models import cluster_counts, expected_from_truth


def exhaustive_kmeans_objective(points: np.ndarray, k: int) -> float:
    """Minimum k-means objective over every assignment of points to k groups.

    Uses the exact identity sum ||x - c_r||^2 = sum ||x||^2 - sum_r
    ||group sum_r||^2 / n_r, evaluated for all k^m labelings at once.
    """
    m = points.shape[0]
    labelings = np.array(list(product(range(k), repeat=m)), dtype=np.int64)
    one_hot = labelings[:, :, None] == np.arange(k)[None, None, :]
    counts = one_hot.sum(axis=1).astype(np.float64)
    sums = np.einsum("bmk,md->bkd", one_hot.astype(np.float64), points)
    with np.errstate(divide="ignore", invalid="ignore"):
        explained = np.where(counts > 0, np.sum(sums * sums, axis=2) / counts, 0.0)
    total_sq = float(np.sum(points * points))
    return float((total_sq - explained.sum(axis=1)).min())


def assignment_totals(cost: np.ndarray) -> dict[tuple[int, ...], float]:
    """Total of every permutation of a square cost matrix, summed in row order:
    ``perm`` pairs row r with column ``perm[r]``."""
    k = cost.shape[0]
    return {
        perm: float(sum(cost[r, perm[r]] for r in range(k))) for perm in permutations(range(k))
    }


def brute_force_matching(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, float]:
    """Optimal permutation and cost by trying all k! pairings."""
    totals = assignment_totals(np.array([[np.sum((a - b) ** 2) for b in second] for a in first]))
    best = min(totals, key=totals.get)
    return np.asarray(best), totals[best]


def best_permutation_accuracy(predicted: np.ndarray, truth: np.ndarray, k: int) -> float:
    """Accuracy under the best label permutation, by exhaustive search."""
    m = truth.size
    best = 0.0
    for perm in permutations(range(k)):
        mapped = np.asarray(perm)[predicted]
        best = max(best, float(np.count_nonzero(mapped == truth)) / m)
    return best


def jacobi_eigh_reference(sym: np.ndarray, tol: float = 1e-13, max_sweeps: int = 64):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns eigenvalues in descending order and the matching eigenvector
    columns.  Convergence: off-diagonal Frobenius mass at most ``tol`` times
    the Frobenius norm of the input.
    """
    a = np.array(sym, dtype=np.float64, copy=True)
    n = a.shape[0]
    v = np.eye(n)
    fro = float(np.sqrt(np.sum(a * a))) or 1.0
    skip = tol * fro / max(4 * n, 4)
    for _ in range(max_sweeps):
        off = a - np.diag(np.diag(a))
        if float(np.sqrt(np.sum(off * off))) <= tol * fro:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                sgn = 1.0 if tau >= 0 else -1.0
                t = sgn / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    eigvals = np.diag(a).copy()
    order = np.argsort(-eigvals, kind="stable")
    return eigvals[order], v[:, order]


def subspace_svd_reference(a, k: int, max_iter: int = 10_000) -> linalg.RankKApprox:
    """Rank-k SVD of ``a`` by block power iteration with Rayleigh-Ritz
    extraction: the oracle that acceptance criterion 7 checks against.

    It starts from ``linalg._start_basis``, re-orthonormalizes each power
    step by ``linalg._orthonormal_columns`` (Householder QR), and takes a
    ``linalg._ritz_step`` every 8 iterations, stopping once the step meets
    ``linalg.TOL``.  The three are looked up on the module at call time, so
    a test that patches the QR or the Jacobi kernel reaches them here too.
    The first Ritz step is the one that signs the library's ARPACK pairs,
    and the Ritz step runs ``jacobi_svd``, so this loop is not an
    independent oracle for the Jacobi kernel.

    After ``max_iter`` iterations it raises :class:`ConvergenceError`.  It
    does at k = min(m, n) when some σ_j lies in (1e-8, 1e-7]·σ₁, as on a
    100 x 70 input with σ₇₀ = 5e-8·σ₁: ``jacobi_svd`` completes the left
    vector of every σ_j <= 1e-7·σ₁ by QR, so that column's residual never
    meets ``TOL``.  The library runs ``jacobi_svd`` alone at k = min(m, n).
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    v = linalg._start_basis(m, n, k)
    for it in range(max_iter + 1):
        if it % 8 == 0 or it == max_iter:
            u_r, s, v_r, done = linalg._ritz_step(a, v, k)
            if done:
                return linalg.RankKApprox(k, u_r[:, :k].copy(), s[:k].copy(), v_r[:, :k].copy())
            v = v_r
        if it == max_iter:
            break
        u = linalg._orthonormal_columns(a @ v)
        v = linalg._orthonormal_columns(a.T @ u)
    raise ConvergenceError(
        f"subspace iteration did not reach tol={linalg.TOL} in {max_iter} iterations"
    )


def mgs_reference(w: np.ndarray) -> np.ndarray:
    """Two-pass modified Gram-Schmidt on the columns of ``w``.

    Columns that turn out linearly dependent are replaced by the first
    canonical basis vector with a usable component outside the span of the
    columns already accepted, keeping the output a full orthonormal set.
    """
    m, b = w.shape
    q = np.array(w, dtype=np.float64, copy=True)
    col_norms = np.sqrt(np.sum(q * q, axis=0))
    drop = 1e-12 * (float(col_norms.max()) if b else 0.0) + 1e-300

    def project_out(v, j):
        for _ in range(2):
            if j:
                v = v - q[:, :j] @ (q[:, :j].T @ v)
        return v, float(np.sqrt(v @ v))

    for j in range(b):
        v, nv = project_out(q[:, j], j)
        if nv <= drop:
            for t in range(m):
                e = np.zeros(m)
                e[t] = 1.0
                v, nv = project_out(e, j)
                if nv > 1e-3:
                    break
            else:
                raise ArithmeticError("could not complete an orthonormal basis")
        q[:, j] = v / nv
    return q


def kmeans_reference(rows, k: int, restarts: int = 10, max_iter: int = 300, seed: int = 0):
    """Best of ``restarts`` k-means++ runs of Lloyd's loop, as a KMeansResult.

    Each seeding draw is read from the vectorized ``Stream.uniforms``, group
    sums come from ``np.add.at``, and every distance evaluation recomputes
    the row norms.  Inputs are assumed valid.
    """
    x = np.asarray(rows, dtype=np.float64)
    m = x.shape[0]

    def pairwise_sq(x, c):
        d = np.sum(x * x, axis=1)[:, None] + np.sum(c * c, axis=1)[None, :] - 2.0 * (x @ c.T)
        return np.maximum(d, 0.0)

    def draw(stream):
        return float(stream.uniforms(1)[0])

    def plus_plus_init(x, stream):
        first = min(int(draw(stream) * m), m - 1)
        chosen = [first]
        d2 = pairwise_sq(x, x[first : first + 1])[:, 0]
        for t in range(1, k):
            total = float(d2.sum())
            if total <= 0.0:
                nxt = (first + t) % m
            else:
                target = draw(stream) * total
                nxt = int(np.searchsorted(np.cumsum(d2), target, side="right"))
                nxt = min(nxt, m - 1)
            chosen.append(nxt)
            d2 = np.minimum(d2, pairwise_sq(x, x[nxt : nxt + 1])[:, 0])
        return x[chosen].copy()

    def fix_empty(x, labels, c, d):
        counts = np.bincount(labels, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return labels, c
        labels = labels.copy()
        c = c.copy()
        own = d[np.arange(x.shape[0]), labels].copy()
        for e in empties:
            eligible = counts[labels] > 1
            masked = np.where(eligible, own, -1.0)
            i = int(np.argmax(masked))
            counts[labels[i]] -= 1
            labels[i] = e
            counts[e] = 1
            c[e] = x[i]
            own[i] = 0.0
        return labels, c

    def lloyd(x, c0):
        c = c0.copy()
        labels = None
        trace = []
        iterations = 0
        for _ in range(max_iter):
            iterations += 1
            d = pairwise_sq(x, c)
            new_labels = np.argmin(d, axis=1)
            new_labels, c = fix_empty(x, new_labels, c, d)
            converged = labels is not None and np.array_equal(labels, new_labels)
            labels = new_labels
            sums = np.zeros((k, x.shape[1]))
            np.add.at(sums, labels, x)
            counts = np.bincount(labels, minlength=k).astype(np.float64)
            c = sums / counts[:, None]
            diff = x - c[labels]
            trace.append(float(np.sum(diff * diff)))
            if converged:
                break
        return labels, c, trace[-1], iterations, tuple(trace)

    order = np.lexsort(x.T[::-1]) if x.shape[1] else np.arange(m)
    xc = np.ascontiguousarray(x[order])
    if m > 1:
        distinct = 1 + int(np.count_nonzero(np.any(xc[1:] != xc[:-1], axis=1)))
    else:
        distinct = 1

    best = None
    for j in range(restarts):
        stream = rng.Stream(seed, rng.TAG_KMEANS, j)
        labels_c, c, obj, iters, trace = lloyd(xc, plus_plus_init(xc, stream))
        if best is None or obj < best[0]:
            best = (obj, labels_c, c, iters, trace)

    obj, labels_c, c, iters, trace = best
    labels = np.empty(m, dtype=np.int64)
    labels[order] = labels_c
    return KMeansResult(labels, c, obj, iters, trace, distinct < k)


def sample_reference(model, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``(matrix, truth)`` of ``sample``: the canonical block-ordered grid
    of uniforms compared as floats with each row's means, then placed."""
    truth_blocks = np.repeat(np.arange(model.k), cluster_counts(model, m))
    perm = rng.permutation(rng.mix64(seed, rng.TAG_SAMPLE_ORDER, m), m)
    grid = rng.uniform_grid(rng.mix64(seed, rng.TAG_SAMPLE_ENTRIES, m), m, model.n)
    bits = (grid < model.means[truth_blocks]).astype(np.float64)
    return bits[perm], truth_blocks[perm]


def noise_reference(matrix, model, truth) -> np.ndarray:
    """``A - E`` with the expectation matrix built in full."""
    return matrix - expected_from_truth(model, truth)


def matrix_market_bytes_reference(matrix) -> bytes:
    """The writer's file bytes: ``np.where`` digits, header plus ``tobytes``."""
    m, n = matrix.shape
    lines = np.full((n, m, 2), ord("\n"), dtype=np.uint8)
    lines[:, :, 0] = np.where(matrix.T == 1.0, ord("1"), ord("0"))
    header = f"%%MatrixMarket matrix array integer general\n{m} {n}\n"
    return header.encode() + lines.tobytes()


def read_matrix_market_reference(path) -> np.ndarray:
    """A dense Matrix Market file parsed line by line into a float (m*n, 1)
    column, then transposed from column-major and copied."""
    lines = Path(path).read_text().splitlines()[1:]
    body = [line.split("%")[0] for line in lines if not line.lstrip().startswith("%")]
    body = [line for line in body if line.strip()]
    m, n = (int(tok) for tok in body[0].split())
    values = np.array([float(line) for line in body[1:]]).reshape(m * n, 1)
    return values.reshape((n, m)).T.copy()


def sq_dists_reference(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared distances with the row norms of ``a`` from the full ``a * a``."""
    return (a * a).sum(axis=1)[:, None] + (c * c).sum(axis=1)[None, :] - 2.0 * (a @ c.T)


def cluster_means_reference(a: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Each cluster's mean row through a copy of the cluster's rows."""
    centers = np.empty((k, a.shape[1]))
    for r in range(k):
        centers[r] = a[labels == r].mean(axis=0)
    return centers
