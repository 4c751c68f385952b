"""Deterministic 64-bit hashing and key-addressed uniforms.

Every random choice in this package derives from explicit integer keys fed
through the SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA 2014), so
outputs are bit-identical across platforms, processes, and execution
schedules.  There is no hidden global state: a value is a pure function of
its key, and independent consumers are separated by the stream tags below.

The vectorized finalizer runs in place on uint64 buffers.  Kernels that
build a full (m, n) result, such as :func:`bernoulli_grid`, work through it
in :func:`row_blocks` of about ``BLOCK_ENTRIES`` entries, so their
temporaries stay block-sized whatever the matrix size.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_CHAIN_INIT = 0x8AC7230489E7FFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Entries per row block of the blocked kernels (512 KiB of uint64).
BLOCK_ENTRIES = 1 << 16

# Stream tags.  Distinct consumers mix distinct tags into their keys so that
# no two subsystems ever read the same stream for the same user seed.
TAG_SVD_INIT = 11
TAG_SAMPLE_ENTRIES = 101
TAG_SAMPLE_ORDER = 102
TAG_SPLIT = 201
TAG_HALF = 202
TAG_KMEANS = 301
TAG_TRIAL = 401
TAG_DIAG = 402
TAG_FRESH = 403


def _mix_int(x: int) -> int:
    """SplitMix64 finalizer on one 64-bit integer."""
    x = (x + _GAMMA) & _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


def _mix_inplace(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on the uint64 array ``x``, in place.

    ``scratch`` is a uint64 array of the same shape whose contents are
    overwritten; uint64 arithmetic wraps modulo 2**64 as the finalizer needs.
    """
    x += np.uint64(_GAMMA)
    x ^= np.right_shift(x, np.uint64(30), out=scratch)
    x *= np.uint64(_MIX1)
    x ^= np.right_shift(x, np.uint64(27), out=scratch)
    x *= np.uint64(_MIX2)
    x ^= np.right_shift(x, np.uint64(31), out=scratch)
    return x


def _mix_array(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer into a new array; input must be uint64.

    A 0-d input gives a numpy scalar, as numpy arithmetic on it would.
    """
    out = np.array(x, dtype=np.uint64)
    return _mix_inplace(out, np.empty_like(out))[()]


def mix64(*parts: int) -> int:
    """Fold integers into a single 64-bit hash (order-sensitive)."""
    h = _CHAIN_INIT
    for p in parts:
        h = _mix_int(h ^ _mix_int(int(p) & _MASK))
    return h


def mix64_array(prefix: int, values: np.ndarray) -> np.ndarray:
    """Vectorized ``mix64``: extends a scalar prefix by each value.

    ``mix64_array(mix64(a, b), v)[i] == mix64(a, b, v[i])`` for integer v.
    """
    v = np.asarray(values, dtype=np.uint64)
    return _mix_array(np.uint64(prefix & _MASK) ^ _mix_array(v))


def _to_unit(h: np.ndarray) -> np.ndarray:
    """Map uint64 hashes to float64 in [0, 1) using the top 53 bits."""
    return (h >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def uniform_array(prefix: int, indices: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) addressed by integer index under a key prefix."""
    return _to_unit(mix64_array(prefix, indices))


def uniform_grid(prefix: int, n_rows: int, n_cols: int) -> np.ndarray:
    """An (n_rows, n_cols) grid of uniforms addressed by (row, column).

    Entry (i, j) equals the scalar chain ``mix64(prefix_parts..., i, j)``
    mapped to [0, 1), so single entries are reproducible independently of
    how the grid is tiled or parallelized.
    """
    rows = mix64_array(prefix, np.arange(n_rows, dtype=np.uint64))
    cols = _mix_array(np.arange(n_cols, dtype=np.uint64))
    return _to_unit(_mix_array(rows[:, None] ^ cols[None, :]))


def row_blocks(n_rows: int, n_cols: int, entries: int | None = None):
    """Row slices covering range(n_rows), each of about ``entries`` (default
    ``BLOCK_ENTRIES``) entries of an (n_rows, n_cols) matrix and at least
    one row.

    The one blocking of every row-block kernel in the package: a per-row
    result does not depend on how many rows share its block.
    """
    step = max(1, (entries or BLOCK_ENTRIES) // max(n_cols, 1))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def bernoulli_grid(prefix: int, rows, means: np.ndarray, labels) -> np.ndarray:
    """0/1 float64 matrix of Bernoulli draws addressed by (row id, column).

    Entry (i, j) is 1.0 exactly when ``uniform_grid``'s uniform at
    (``rows[i]``, j) under ``prefix`` is below ``means[labels[i], j]``; the
    row ids need not be sorted, so a caller draws rows in any placed order.
    ``means`` is a (k, n) array with entries in [0, 1].

    The test is on integers: the uniform is ``(h >> 11) * 2**-53`` and
    ``means * 2**53`` is exact, so ``u < mu`` holds exactly when
    ``(h >> 11) < ceil(mu * 2**53)``.  Rows are hashed in place in
    :func:`row_blocks`, in one uint64 buffer with one scratch buffer, and
    each block's outcome is written straight into the result.
    """
    rows = np.asarray(rows, dtype=np.uint64)
    labels = np.asarray(labels, dtype=np.intp)
    means = np.asarray(means, dtype=np.float64)
    n_cols = means.shape[1]
    thresholds = np.ceil(means * 2.0**53).astype(np.uint64)
    row_keys = mix64_array(prefix, rows)
    col_keys = _mix_array(np.arange(n_cols, dtype=np.uint64))
    out = np.empty((rows.size, n_cols))
    blocks = list(row_blocks(rows.size, n_cols))
    size = (blocks[0].stop if blocks else 0, n_cols)
    hashes, scratch = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
    for block in blocks:
        h, t = hashes[: block.stop - block.start], scratch[: block.stop - block.start]
        np.bitwise_xor(row_keys[block, None], col_keys, out=h)
        _mix_inplace(h, t)
        h >>= np.uint64(11)
        np.less(h, np.take(thresholds, labels[block], axis=0, out=t), out=out[block])
    return out


def permutation(key: int, n: int) -> np.ndarray:
    """Seeded permutation of range(n): ranks of per-index hash keys."""
    keys = mix64_array(key, np.arange(n, dtype=np.uint64))
    return np.argsort(keys, kind="stable")

