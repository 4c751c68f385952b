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


@given(KEYS, COUNTERS)
def test_uniform_equals_vectorized_draw(key, counter):
    got, ref = stream_at(key, counter), stream_at(key, counter)
    u = got.uniform()
    assert type(u) is float
    assert np.float64(u).tobytes() == ref.uniforms(1)[0].tobytes()
    assert got._counter == ref._counter == counter + 1


@given(KEYS, COUNTERS, st.integers(1, 10**6))
def test_index_below_equals_vectorized_draw(key, counter, n):
    got, ref = stream_at(key, counter), stream_at(key, counter)
    assert got.index_below(n) == min(int(ref.uniforms(1)[0] * n), n - 1)
    assert got._counter == counter + 1


def test_interleaved_draws_keep_counter_in_step():
    ref = rng.Stream(7, rng.TAG_KMEANS, 3).uniforms(30)
    s = rng.Stream(7, rng.TAG_KMEANS, 3)
    got = [s.uniform(), *s.uniforms(4), s.uniform(), s.uniform(), *s.uniforms(1)]
    assert s.index_below(1000) == min(int(ref[8] * 1000), 999)
    got += [*s.uniforms(20), s.uniform()]
    assert np.array(got).tobytes() == np.concatenate([ref[:8], ref[9:]]).tobytes()
