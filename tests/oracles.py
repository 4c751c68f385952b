"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own code paths: objectives come from
exhaustive enumeration and matchings from trying every permutation, so they
can certify the optimized implementations.  The Jacobi eigensolver is the
textbook loop the library's in-place version must match bit for bit.
"""

from itertools import permutations, product

import numpy as np


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


def brute_force_matching(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, float]:
    """Optimal permutation and cost by trying all k! pairings."""
    k = first.shape[0]
    best_perm, best_cost = None, np.inf
    for perm in permutations(range(k)):
        cost = float(sum(np.sum((first[r] - second[perm[r]]) ** 2) for r in range(k)))
        if cost < best_cost:
            best_perm, best_cost = np.asarray(perm), cost
    return best_perm, best_cost


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
