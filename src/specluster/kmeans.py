"""Lloyd's k-means with k-means++ seeding and deterministic restarts.

Rows are canonicalized (sorted lexicographically) before any randomness is
consumed, so the returned partition of the row multiset does not depend on
input row order; labels are scattered back to the caller's order at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InvalidInputError
from .linalg import as_matrix, sq_dists

DEFAULT_RESTARTS = 10
DEFAULT_MAX_ITER = 300


@dataclass(eq=False)
class KMeansResult:
    """Outcome of one k-means solve.

    ``objective`` is exactly the sum of squared distances from each row to
    its labeled centroid, recomputable from ``labels`` and ``centroids``.
    ``objective_trace`` records the objective after every Lloyd iteration of
    the winning restart (non-increasing).  ``degenerate`` flags inputs with
    fewer distinct rows than k, where surplus centers were placed on
    arbitrary rows.
    """

    labels: np.ndarray
    centroids: np.ndarray
    objective: float
    iterations: int
    objective_trace: tuple[float, ...]
    degenerate: bool


def _pairwise_sq(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.maximum(sq_dists(x, c), 0.0)


def _sse(x: np.ndarray, labels: np.ndarray, c: np.ndarray) -> float:
    diff = x - c[labels]
    return float(np.sum(diff * diff))


def _group_means(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    sums = np.zeros((k, x.shape[1]))
    np.add.at(sums, labels, x)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    return sums / counts[:, None]


def _plus_plus_init(x: np.ndarray, k: int, stream: rng.Stream) -> np.ndarray:
    """k-means++ D^2 seeding; surplus picks fall back to cyclic rows when
    every remaining squared distance is zero (fewer distinct rows than k)."""
    m = x.shape[0]
    first = stream.index_below(m)
    chosen = [first]
    d2 = _pairwise_sq(x, x[first : first + 1])[:, 0]
    for t in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            nxt = (first + t) % m
        else:
            target = stream.uniform() * total
            nxt = int(np.searchsorted(np.cumsum(d2), target, side="right"))
            nxt = min(nxt, m - 1)
        chosen.append(nxt)
        d2 = np.minimum(d2, _pairwise_sq(x, x[nxt : nxt + 1])[:, 0])
    return x[chosen].copy()


def _fix_empty(x, labels, c, d):
    """Re-seed empty clusters with the point farthest from its centroid.

    Never steals a cluster's sole member; ties go to the lowest row index.
    """
    k = c.shape[0]
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


def _lloyd(x: np.ndarray, c0: np.ndarray, max_iter: int):
    k = c0.shape[0]
    c = c0.copy()
    labels = None
    trace: list[float] = []
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        d = _pairwise_sq(x, c)
        new_labels = np.argmin(d, axis=1)
        new_labels, c = _fix_empty(x, new_labels, c, d)
        converged = labels is not None and np.array_equal(labels, new_labels)
        labels = new_labels
        c = _group_means(x, labels, k)
        trace.append(_sse(x, labels, c))
        if converged:
            break
    return labels, c, trace[-1], iterations, tuple(trace)


def kmeans(
    rows,
    k: int,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
) -> KMeansResult:
    """Best of ``restarts`` independent k-means++ runs of Lloyd's algorithm.

    Deterministic given ``seed``: restart j draws from its own counter
    stream keyed by (seed, j).  Nearest-centroid ties break toward the
    lowest cluster index.  Requires at least k rows; fewer than k distinct
    rows is handled (flagged), not an error.
    """
    x = as_matrix(rows, "rows")
    m = x.shape[0]
    if m == 0:
        raise InvalidInputError("kmeans requires at least one row")
    if k < 1:
        raise InvalidInputError("k must be at least 1")
    if k > m:
        raise InvalidInputError(f"k={k} exceeds number of rows {m}")
    if restarts < 1:
        raise InvalidInputError("restarts must be at least 1")
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be at least 1, got {max_iter}")

    order = np.lexsort(x.T[::-1]) if x.shape[1] else np.arange(m)
    xc = np.ascontiguousarray(x[order])
    if m > 1:
        distinct = 1 + int(np.count_nonzero(np.any(xc[1:] != xc[:-1], axis=1)))
    else:
        distinct = 1
    degenerate = distinct < k

    best = None
    for j in range(restarts):
        stream = rng.Stream(seed, rng.TAG_KMEANS, j)
        c0 = _plus_plus_init(xc, k, stream)
        labels_c, c, obj, iters, trace = _lloyd(xc, c0, max_iter)
        if best is None or obj < best[0]:
            best = (obj, labels_c, c, iters, trace)

    obj, labels_c, c, iters, trace = best
    labels = np.empty(m, dtype=np.int64)
    labels[order] = labels_c
    return KMeansResult(labels, c, obj, iters, trace, degenerate)
