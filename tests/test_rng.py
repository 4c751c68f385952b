import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from specluster import rng

KEYS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3)
COUNTERS = st.one_of(
    st.integers(0, 2**20),
    st.integers(2**32 - 2, 2**32 + 2**20),
    st.integers(2**63 - 2, 2**63 + 2**20),
    st.just(2**64 - 1),
)


def stream_at(key, counter):
    s = rng.Stream(*key)
    s._counter = counter
    return s


def vectorized_draws(key, counters):
    """The stream's draws at ``counters``, from ``rng.uniform_array``."""
    return rng.uniform_array(rng.mix64(*key), np.asarray(counters, dtype=np.uint64))


@given(KEYS, COUNTERS)
def test_uniform_equals_vectorized_draw(key, counter):
    got = stream_at(key, counter)
    u = got.uniform()
    assert type(u) is float
    assert np.float64(u).tobytes() == vectorized_draws(key, [counter])[0].tobytes()
    assert got._counter == counter + 1


@given(KEYS, COUNTERS, st.integers(1, 10**6))
def test_index_below_equals_vectorized_draw(key, counter, n):
    got = stream_at(key, counter)
    assert got.index_below(n) == min(int(vectorized_draws(key, [counter])[0] * n), n - 1)
    assert got._counter == counter + 1


def test_interleaved_draws_keep_counter_in_step():
    key = (7, rng.TAG_KMEANS, 3)
    ref = vectorized_draws(key, range(30))
    s = rng.Stream(*key)
    got = [s.uniform() for _ in range(8)]
    assert s.index_below(1000) == min(int(ref[8] * 1000), 999)
    got += [s.uniform() for _ in range(21)]
    assert np.array(got).tobytes() == np.concatenate([ref[:8], ref[9:]]).tobytes()
