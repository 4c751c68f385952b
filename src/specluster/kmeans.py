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
from .linalg import as_count, as_int, as_matrix, sq_dists

RESTARTS = 10
MAX_ITER = 300  # Lloyd iterations per restart


@dataclass(eq=False)
class KMeansResult:
    """Outcome of one k-means solve.

    ``objective`` is exactly the sum of squared distances from each row to
    its labeled centroid, recomputable from ``labels`` and ``centroids``.
    ``degenerate`` flags inputs with fewer distinct rows than k, where
    surplus centers were placed on arbitrary rows.
    """

    labels: np.ndarray
    centroids: np.ndarray
    objective: float
    iterations: int
    degenerate: bool


def _pairwise_sq(x: np.ndarray, c: np.ndarray, x_sq: np.ndarray) -> np.ndarray:
    return np.maximum(sq_dists(x, c, x_sq), 0.0)


def _sse(x: np.ndarray, labels: np.ndarray, c: np.ndarray) -> float:
    diff = x - c[labels]
    return float((diff * diff).sum())


def _group_means(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    # bincount adds each group's rows in row order, as np.add.at does.
    sums = np.empty((k, x.shape[1]))
    for j in range(x.shape[1]):
        sums[:, j] = np.bincount(labels, weights=x[:, j], minlength=k)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    return sums / counts[:, None]


def _plus_plus_init(x: np.ndarray, x_sq: np.ndarray, k: int, stream: rng.Stream) -> np.ndarray:
    """k-means++ D^2 seeding; surplus picks fall back to cyclic rows when
    every remaining squared distance is zero (fewer distinct rows than k).
    ``x_sq`` holds the squared row norms of ``x``."""
    m = x.shape[0]
    first = stream.index_below(m)
    chosen = [first]
    d2 = _pairwise_sq(x, x[first : first + 1], x_sq)[:, 0]
    for t in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            nxt = (first + t) % m
        else:
            target = stream.uniform() * total
            nxt = int(np.searchsorted(np.cumsum(d2), target, side="right"))
            nxt = min(nxt, m - 1)
        chosen.append(nxt)
        d2 = np.minimum(d2, _pairwise_sq(x, x[nxt : nxt + 1], x_sq)[:, 0])
    return x[chosen].copy()


def _fix_empty(x, labels, c, d):
    """Re-seed empty clusters with the point farthest from its centroid.

    Never steals a cluster's sole member; ties go to the lowest row index.
    """
    k = c.shape[0]
    counts = np.bincount(labels, minlength=k)
    if counts.all():
        return labels, c
    empties = np.flatnonzero(counts == 0)
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


def _lloyd(x: np.ndarray, x_sq: np.ndarray, c0: np.ndarray):
    k = c0.shape[0]
    c = c0.copy()
    labels = None
    iterations = 0
    for _ in range(MAX_ITER):
        iterations += 1
        d = _pairwise_sq(x, c, x_sq)
        new_labels = np.argmin(d, axis=1)
        new_labels, c = _fix_empty(x, new_labels, c, d)
        converged = labels is not None and bool((labels == new_labels).all())
        labels = new_labels
        c = _group_means(x, labels, k)
        if converged:
            break
    return labels, c, iterations


def kmeans(rows, k: int, *, seed: int = 0) -> KMeansResult:
    """Best of ``RESTARTS`` independent k-means++ runs of Lloyd's algorithm,
    each of at most ``MAX_ITER`` iterations.

    Deterministic given ``seed``: restart j draws from its own counter
    stream keyed by (seed, j).  Nearest-centroid ties break toward the
    lowest cluster index.  Requires at least k rows; fewer than k distinct
    rows is handled (flagged), not an error.
    """
    x = as_matrix(rows, "rows")
    m = x.shape[0]
    if m == 0:
        raise InvalidInputError("kmeans requires at least one row")
    k = as_count(k, "k", 1)
    if k > m:
        raise InvalidInputError(f"k={k} exceeds number of rows {m}")
    seed = as_int(seed, "seed")

    order = np.lexsort(x.T[::-1]) if x.shape[1] else np.arange(m)
    xc = np.ascontiguousarray(x[order])
    distinct = 1 + int(np.count_nonzero(np.any(xc[1:] != xc[:-1], axis=1)))
    degenerate = distinct < k
    xc_sq = np.sum(xc * xc, axis=1)

    best = None
    for j in range(RESTARTS):
        stream = rng.Stream(seed, rng.TAG_KMEANS, j)
        c0 = _plus_plus_init(xc, xc_sq, k, stream)
        labels_c, c, iters = _lloyd(xc, xc_sq, c0)
        obj = _sse(xc, labels_c, c)
        if best is None or obj < best[0]:
            best = (obj, labels_c, c, iters)

    obj, labels_c, c, iters = best
    labels = np.empty(m, dtype=np.int64)
    labels[order] = labels_c
    return KMeansResult(labels, c, obj, iters, degenerate)
