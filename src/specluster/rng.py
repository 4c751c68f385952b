"""Deterministic 64-bit hashing and counter-based random streams.

Every random choice in this package derives from explicit integer keys fed
through the SplitMix64 finalizer, so outputs are bit-identical across
platforms, processes, and execution schedules.  There is no hidden global
state: a value is a pure function of its key, and independent consumers are
separated by the stream tags below.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_CHAIN_INIT = 0x8AC7230489E7FFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

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


def _mix_array(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer; input must already be uint64."""
    x = x + np.uint64(_GAMMA)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
    return x ^ (x >> np.uint64(31))


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


def mix64_parts(*parts) -> np.ndarray:
    """``mix64`` generalized to numpy inputs, broadcasting over array parts.

    Scalar integers and uint64-convertible arrays may be mixed freely; the
    result has the broadcast shape and agrees elementwise with the scalar
    chain.
    """
    arrays = [np.asarray(p).astype(np.uint64, copy=False) for p in parts]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    h = np.full(shape, _CHAIN_INIT, dtype=np.uint64)
    for a in arrays:
        h = _mix_array(h ^ _mix_array(np.broadcast_to(a, shape)))
    return h


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


def permutation(key: int, n: int) -> np.ndarray:
    """Seeded permutation of range(n): ranks of per-index hash keys."""
    keys = mix64_array(key, np.arange(n, dtype=np.uint64))
    return np.argsort(keys, kind="stable")


class Stream:
    """Sequential uniform stream backed by a counter under a fixed key.

    Draw i is ``uniform_array(key, [i])[0]``, whichever method reads it.
    ``uniform`` computes a single draw on Python ints through the scalar
    SplitMix64 chain: the top 53 bits convert to float64 exactly, so it
    equals the vectorized draw bit for bit at a small part of its cost.
    """

    __slots__ = ("_key", "_counter")

    def __init__(self, *key_parts: int):
        self._key = mix64(*key_parts)
        self._counter = 0

    def uniforms(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        self._counter += n
        return _to_unit(mix64_array(self._key, idx))

    def uniform(self) -> float:
        h = _mix_int(self._key ^ _mix_int(self._counter))
        self._counter += 1
        return (h >> 11) * 2.0**-53

    def index_below(self, n: int) -> int:
        """Uniform index in [0, n); bias is below 2**-53 per draw."""
        return min(int(self.uniform() * n), n - 1)
