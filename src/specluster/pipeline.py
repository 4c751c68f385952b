"""The two-phase clustering pipeline.

``find_centers`` estimates k cluster means from one batch of rows (rank-k
SVD, k-means on the projected rows, then averaging of the original rows per
cluster).  ``assign`` labels rows by the nearest estimated center.
``cluster`` splits the data into two seeded halves, runs centers/assignment
cross-wise, and merges the two labelings after matching the center sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InvalidInputError
from .kmeans import KMeansResult, kmeans
from .linalg import RankKApprox, as_int, as_matrix, match_center_sets, sq_dists, truncated_svd


@dataclass(frozen=True, eq=False)
class CenterSet:
    """k estimated center rows (each an average of 0/1 rows) with cluster sizes."""

    centers: np.ndarray
    cluster_sizes: np.ndarray

    def __post_init__(self):
        centers = as_matrix(self.centers, "centers")
        sizes = np.asarray(self.cluster_sizes, dtype=np.int64)
        if sizes.shape != (centers.shape[0],):
            raise InvalidInputError("cluster_sizes must have one entry per center")
        if np.any(sizes < 1):
            raise InvalidInputError("every cluster must be nonempty")
        if centers.size and (centers.min() < -1e-9 or centers.max() > 1.0 + 1e-9):
            raise InvalidInputError("center entries must lie in [0, 1]")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "cluster_sizes", sizes)

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def n(self) -> int:
        return self.centers.shape[1]


@dataclass(eq=False)
class CentersDetail:
    """Center estimation plus its internals, for diagnostics."""

    center_set: CenterSet
    labels: np.ndarray
    kmeans_result: KMeansResult
    approx: RankKApprox


@dataclass(eq=False)
class ClusterDetail:
    """Full outcome of the split/centers/assign/merge pipeline."""

    labels: np.ndarray
    first_half: np.ndarray
    second_half: np.ndarray
    first_centers: CenterSet
    second_centers: CenterSet
    matching: np.ndarray
    match_ambiguous: bool


def split_halves(m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform split of range(m) into halves of ceil/floor(m/2)."""
    perm = rng.permutation(rng.mix64(as_int(seed, "seed"), rng.TAG_SPLIT), m)
    h = (m + 1) // 2
    return perm[:h].copy(), perm[h:].copy()


def find_centers_detailed(matrix, k: int, seed: int) -> CentersDetail:
    a = as_matrix(matrix)
    m, n = a.shape
    if k > m:
        raise InvalidInputError(f"k={k} exceeds number of rows {m}")
    if k > n:
        raise InvalidInputError(f"k={k} exceeds number of columns {n}")
    approx = truncated_svd(a, k)
    # Rows of the rank-k matrix expressed in its right-singular basis: the
    # map is an isometry on the row space, so k-means sees identical
    # geometry in k dimensions instead of n.
    embedded = approx.left_vectors * approx.singular_values
    km = kmeans(embedded, k, seed=seed)
    sizes = np.bincount(km.labels, minlength=k)
    centers = np.empty((k, n))
    for r in range(k):
        centers[r] = a[km.labels == r].mean(axis=0)
    return CentersDetail(CenterSet(centers, sizes), km.labels, km, approx)


def find_centers(matrix, k: int, seed: int) -> CenterSet:
    """Estimate k centers: rank-k SVD, k-means on its rows, then averaging
    the corresponding rows of the original matrix."""
    return find_centers_detailed(matrix, k, seed).center_set


def assign(matrix, centers) -> np.ndarray:
    """Label each row by its nearest center in Euclidean distance.

    Ties break toward the lowest center index.  Pure per-row function:
    idempotent and invariant to row order.
    """
    a = as_matrix(matrix)
    c = centers.centers if isinstance(centers, CenterSet) else as_matrix(centers, "centers")
    if a.shape[1] != c.shape[1]:
        raise InvalidInputError(
            f"dimension mismatch: rows have {a.shape[1]} columns, centers {c.shape[1]}"
        )
    return np.argmin(sq_dists(a, c), axis=1).astype(np.int64)


def cluster_detailed(matrix, k: int, seed: int) -> ClusterDetail:
    a = as_matrix(matrix)
    m = a.shape[0]
    if m < 2 * k:
        raise InvalidInputError(f"need m >= 2k rows, got m={m}, k={k}")
    first, second = split_halves(m, seed)
    d1 = find_centers_detailed(a[first], k, rng.mix64(seed, rng.TAG_HALF, 0))
    d2 = find_centers_detailed(a[second], k, rng.mix64(seed, rng.TAG_HALF, 1))

    labels_second = assign(a[second], d1.center_set)
    labels_first_raw = assign(a[first], d2.center_set)

    # matching[r] is the second-half center paired with first-half center r;
    # merged labels are reported in the first half's indexing.
    matching = match_center_sets(d1.center_set, d2.center_set)
    inverse = np.empty(k, dtype=np.int64)
    inverse[matching] = np.arange(k)

    labels = np.empty(m, dtype=np.int64)
    labels[second] = labels_second
    labels[first] = inverse[labels_first_raw]

    dists = sq_dists(d1.center_set.centers, d2.center_set.centers)
    matched = dists[np.arange(k), matching]
    ambiguous = bool(np.any(matched > dists.min(axis=1) + 1e-12))

    return ClusterDetail(
        labels=labels,
        first_half=first,
        second_half=second,
        first_centers=d1.center_set,
        second_centers=d2.center_set,
        matching=matching,
        match_ambiguous=ambiguous,
    )


def cluster(matrix, k: int, seed: int) -> np.ndarray:
    """Cluster all rows: split into seeded halves, estimate centers on each,
    assign each half with the other half's centers, and merge the labelings
    through the optimal matching of the two center sets."""
    return cluster_detailed(matrix, k, seed).labels
