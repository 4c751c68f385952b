"""Traced memory of the dense-path kernels, as a multiple of the matrix bytes.

numpy reports its array buffers to ``tracemalloc``, and the traced peak of
a call repeats exactly, so each bound below checks that a kernel builds no
temporary the size of its matrix.  The matrix is 1000 x 1000 float64 (8 MB),
so the fixed row-block buffers (about 1 MB) stay a small share of it.  The
peak counts what the kernel returns, but not inputs that were live before.
"""

import tracemalloc

import numpy as np
import pytest

from specluster import linalg
from specluster.models import (
    BsbmParams,
    bsbm_to_mixture,
    noise_matrix,
    read_matrix_market,
    sample,
    write_matrix_market,
)
from specluster.pipeline import cluster_detailed

M = N = 1000
# The cli workload's number of clusters.  find_centers_detailed averages each
# cluster through a copy of its rows, (M / 2K) x N entries, on top of the half.
K = 3


def traced_peak(fn, *args) -> int:
    """Peak traced bytes while ``fn(*args)`` runs, above those live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def dataset():
    model = bsbm_to_mixture(BsbmParams.balanced(M, N, K, 0.3, 0.1))
    # Load scipy and fill lazy caches before anything is traced.
    linalg.import_scipy()
    cluster_detailed(np.eye(12)[np.arange(24) % 12], K, 0)
    return sample(model, M, 1), model


def test_sample_holds_its_matrix_and_block_buffers(dataset):
    ds, model = dataset
    assert traced_peak(sample, model, M, 1) <= 1.5 * ds.matrix.nbytes


def test_noise_matrix_holds_its_result_and_one_block(dataset):
    ds, model = dataset
    peak = traced_peak(noise_matrix, ds.matrix, model, ds.truth)
    assert peak <= 1.5 * ds.matrix.nbytes


def test_matrix_market_write_holds_uint8_digits(dataset, tmp_path):
    ds, _ = dataset
    peak = traced_peak(write_matrix_market, tmp_path / "a.mtx", ds.matrix)
    assert peak <= 0.75 * ds.matrix.nbytes


def test_matrix_market_read_converts_once(dataset, tmp_path):
    ds, _ = dataset
    write_matrix_market(tmp_path / "a.mtx", ds.matrix)
    assert traced_peak(read_matrix_market, tmp_path / "a.mtx") <= 1.75 * ds.matrix.nbytes


def test_cluster_detailed_holds_a_half_beyond_its_input(dataset):
    ds, _ = dataset
    assert traced_peak(cluster_detailed, ds.matrix, K, 1) <= 0.75 * ds.matrix.nbytes
