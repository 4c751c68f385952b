"""The two-phase clustering pipeline.

``find_centers`` estimates k cluster means from one batch of rows (rank-k
SVD, k-means on the projected rows, then averaging of the original rows per
cluster).  ``assign`` labels rows by the nearest estimated center.
``cluster`` splits the data into two seeded halves, runs centers/assignment
cross-wise, and merges the two labelings after matching the center sets.
Both halves' centers are estimated with OpenBLAS on one thread; for halves
on the Jacobi path, the second half's are estimated in a forked child
process while the parent estimates the first half's (see
``cluster_detailed``).
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np

from . import linalg, rng
from .errors import InvalidInputError
from .kmeans import KMeansResult, kmeans
from .linalg import RankKApprox, as_int, as_matrix, match_center_sets, sq_dists, truncated_svd

# A half of at least this many rows and columns on the Jacobi path is worth
# a second process; smaller ones take less time than the fork.
_SPLIT_MIN_JACOBI = 20


@dataclass(frozen=True, eq=False)
class CenterSet:
    """k estimated center rows (each an average of 0/1 rows) with cluster sizes."""

    centers: np.ndarray
    cluster_sizes: np.ndarray

    def __post_init__(self):
        centers = as_matrix(self.centers, "centers")
        sizes = np.asarray(self.cluster_sizes, dtype=np.int64)
        if centers.shape[0] == 0:
            raise InvalidInputError("a center set needs at least one center")
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
    centers = _cluster_means(a, km.labels, sizes)
    return CentersDetail(CenterSet(centers, sizes), km.labels, km, approx)


def _cluster_means(a: np.ndarray, labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Row r is ``a[labels == r].mean(axis=0)``, with the same bytes.

    numpy sums axis 0 of a C-ordered matrix of n >= 2 columns one row after
    another, so a C-ordered ``a`` is summed by :func:`rng.row_blocks`: each
    block's rows of cluster r are copied into one buffer behind the running
    sum, and the buffer is reduced.  No copy of a whole cluster is made.  A
    single column reduces pairwise, and other layouts in layout order, so
    they take the whole-matrix expression.
    """
    k = sizes.shape[0]
    m, n = a.shape
    if n == 1 or not a.flags.c_contiguous:
        return np.stack([a[labels == r].mean(axis=0) for r in range(k)])
    sums = np.zeros((k, n))
    started = np.zeros(k, dtype=bool)
    blocks = list(rng.row_blocks(m, n))
    buffer = np.empty((blocks[0].stop + 1, n))
    for rows in blocks:
        block, block_labels = a[rows], labels[rows]
        for r in range(k):
            mask = block_labels == r
            count = int(np.count_nonzero(mask))
            if count == 0:
                continue
            first = 0 if started[r] else 1  # the running sum leads once it exists
            buffer[0] = sums[r]
            np.compress(mask, block, axis=0, out=buffer[1 : count + 1])
            np.add.reduce(buffer[first : count + 1], axis=0, out=sums[r])
            started[r] = True
    return sums / sizes[:, None]


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
    if c.shape[0] == 0:
        raise InvalidInputError("need at least one center to assign rows to")
    return np.argmin(sq_dists(a, c), axis=1).astype(np.int64)


def _split_pays(shape: tuple[int, int]) -> bool:
    """Whether cluster's second half should run in a forked child.

    It must pay: the halves take the Python-bound Jacobi path with at least
    ``_SPLIT_MIN_JACOBI`` rows and columns (larger halves run ARPACK, which
    puts Gram products of more than one row block on threads).  And it must
    be safe: the platform can fork, the process may use more than one CPU
    (sweep workers count one), and no other Python thread is alive, since a
    lock it holds would stay held in the child.
    """
    m, n = shape
    return (
        _SPLIT_MIN_JACOBI <= min((m + 1) // 2, n) <= linalg.JACOBI_CUTOVER
        and linalg._can_fork()
        and (linalg._cpus or linalg._usable_cpus()) > 1
        and threading.active_count() == 1
    )


def _in_two_processes(task, first: tuple, second: tuple) -> tuple:
    """``task(*first), task(*second)``, the second computed in a forked child.

    The child reads the parent's memory by copy-on-write, sends back its
    result or its exception pickled through a pipe, and leaves through
    ``os._exit``, so it runs no exit handler and flushes no parent buffer.
    The first call's exception wins, as it would inline.  If the fork
    fails, or the child dies without sending either, the parent makes the
    second call itself.  The child is always reaped, and killed first if
    the parent leaves early, by an exception or KeyboardInterrupt.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # e.g. out of processes or memory
        os.close(read_fd)
        os.close(write_fd)
        return task(*first), task(*second)
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, task(*second)))
            except Exception as exc:
                payload = pickle.dumps((False, exc))
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    waited = False
    try:
        os.close(write_fd)
        with open(read_fd, "rb") as pipe:
            first_result = task(*first)
            payload = pipe.read()
        status = os.waitpid(pid, 0)[1]
        waited = True
    finally:
        if not waited:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        return first_result, task(*second)
    ok, second_result = pickle.loads(payload)
    if not ok:
        raise second_result
    return first_result, second_result


def cluster_detailed(matrix, k: int, seed: int) -> ClusterDetail:
    """:func:`cluster` with the halves, both center sets and the matching.

    The two halves' centers are independent, as in the cross-split scheme
    the paper analyses.  Both are estimated with every OpenBLAS on one
    thread; where :func:`_split_pays`, the second half's are estimated in a
    forked child while this process estimates the first half's.  The child
    computes exactly what this process would, so no output depends on where
    it ran, and a first-half error is raised before a second-half one.

    Each of the four uses of a half (two center estimates, two assignments)
    gathers its rows into one C-ordered buffer of ceil(m/2) rows, allocated
    once before any fork and dropped before the matching, which imports
    ``scipy.sparse.csgraph`` on first use: with a new copy per use, the
    allocator kept a freed one resident through the matching's import.  The
    input is only read.
    """
    a = as_matrix(matrix)
    m, n = a.shape
    if m < 2 * k:
        raise InvalidInputError(f"need m >= 2k rows, got m={m}, k={k}")
    first, second = split_halves(m, seed)
    buffer = np.empty((first.size, n))

    def gather(rows: np.ndarray) -> np.ndarray:
        # "clip" skips the index check (split_halves' rows are in range),
        # and with it the temporary of the out's size that "raise" writes
        # through.
        return np.take(a, rows, axis=0, out=buffer[: rows.size], mode="clip")

    def centers(rows: np.ndarray, half: int) -> CentersDetail:
        return find_centers_detailed(gather(rows), k, rng.mix64(seed, rng.TAG_HALF, half))

    with linalg._blas_on_one_thread():
        if _split_pays(a.shape):
            d1, d2 = _in_two_processes(centers, (first, 0), (second, 1))
        else:
            d1, d2 = centers(first, 0), centers(second, 1)

    labels_second = assign(gather(second), d1.center_set)
    labels_first_raw = assign(gather(first), d2.center_set)
    del buffer

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
