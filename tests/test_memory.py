"""Traced memory of the dense-path kernels, as a multiple of the matrix bytes.

numpy reports its array buffers to ``tracemalloc``, and the traced peak of
a call repeats exactly, so each bound below checks that a kernel builds no
temporary the size of its matrix.  The matrix is 1000 x 1000 float64 (8 MB),
so the fixed row-block buffers (about 1 MB) stay a small share of it.  The
peak counts what the kernel returns, but not inputs that were live before.

The CLI commands are held to the same bounds, from argument parsing to the
printed report.  Where tracemalloc cannot see what a command keeps resident
(memory freed to the allocator but not returned to the system), a child
process's resident size is read instead.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import cli_env
from specluster import cli, linalg, pipeline
from specluster.models import (
    BsbmParams,
    bsbm_to_mixture,
    noise_matrix,
    read_matrix_market,
    sample,
    save_dataset,
    write_matrix_market,
)
from specluster.pipeline import cluster_detailed

M = N = 1000
# The cli workload's number of clusters.
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
    # 1000 x 1000 has halves above JACOBI_CUTOVER, which do not fork, so
    # both run in this process.  Each cluster is averaged by row blocks, not
    # through a copy of its rows.
    ds, _ = dataset
    assert not pipeline._split_pays(ds.matrix.shape)
    assert traced_peak(cluster_detailed, ds.matrix, K, 1) <= 0.65 * ds.matrix.nbytes


def test_cluster_detailed_with_two_clusters_holds_a_half_beyond_its_input(dataset):
    ds, _ = dataset
    assert traced_peak(cluster_detailed, ds.matrix, 2, 1) <= 0.65 * ds.matrix.nbytes


def test_generate_holds_one_matrix(dataset, tmp_path, capsys):
    # A - E is written over the sampled matrix once it is saved.
    ds, _ = dataset
    bsbm = f"m={M},n={N},k={K},p=0.3,q=0.1"
    argv = ["generate", "--bsbm", bsbm, "--seed", "1", "--out", str(tmp_path / "d")]
    assert traced_peak(cli.main, argv) <= 1.5 * ds.matrix.nbytes
    assert "spectral_noise_sq" in capsys.readouterr().out


def test_check_holds_one_matrix(dataset, tmp_path, capsys):
    # A - E is written over the loaded matrix.
    ds, _ = dataset
    save_dataset(ds, tmp_path / "d")
    argv = ["check", "--data", str(tmp_path / "d")]
    assert traced_peak(cli.main, argv) <= 1.5 * ds.matrix.nbytes
    assert "spectral_noise_sq" in capsys.readouterr().out


# Defines resident(): this process's VmRSS in bytes.
RESIDENT = (
    "def resident():\n"
    "    with open('/proc/self/status') as status:\n"
    "        kb = next(line.split()[1] for line in status if line.startswith('VmRSS:'))\n"
    "    return int(kb) * 1024\n"
)


def resident_bytes(script: str, *args) -> int:
    """The last number ``python -c SCRIPT ARGS`` prints, with ``resident()``
    defined, in a process of its own."""
    proc = subprocess.run(
        [sys.executable, "-c", RESIDENT + script, *args],
        capture_output=True, text=True, timeout=300, env=cli_env(OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


@pytest.mark.skipif(not os.path.isfile("/proc/self/status"), reason="reads VmRSS")
def test_cluster_command_keeps_no_freed_half_resident(tmp_path):
    # tracemalloc sees a freed half copy as gone, but the allocator may keep
    # it resident.  The command peaks while it estimates the halves, so the
    # resident size is read just after the matching, which loads csgraph.
    # The baseline makes one small call each of ARPACK's eigsh and LAPACK's
    # svd, which the halves' SVD runs: their first calls map about 2 MB.
    # With one half buffer, dropped before the matching, the command holds
    # about 1.11 matrices above that baseline there; with the buffer dropped
    # after the matching, about 1.62.
    m = n = 2000
    ds = sample(bsbm_to_mixture(BsbmParams.balanced(m, n, K, 0.3, 0.1)), m, 5)
    save_dataset(ds, tmp_path / "d")
    matrix_bytes = ds.matrix.nbytes
    del ds
    imports = resident_bytes(
        "import numpy as np, scipy.linalg, scipy.sparse.csgraph, scipy.sparse.linalg\n"
        "import specluster.cli\n"
        "gram = np.diag(np.arange(1.0, 21.0))\n"
        "scipy.sparse.linalg.eigsh(gram, k=2)\n"
        "scipy.linalg.svd(gram)\n"
        "print(resident())\n"
    )
    at_matching = resident_bytes(
        "import sys\n"
        "from specluster import cli, pipeline\n"
        "matched = []\n"
        "real_match = pipeline.match_center_sets\n"
        "def match(first, second):\n"
        "    perm = real_match(first, second)\n"
        "    matched.append(resident())\n"
        "    return perm\n"
        "pipeline.match_center_sets = match\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print(*matched)\n",
        "cluster", "--data", str(tmp_path / "d"), "--k", str(K), "--seed", "5",
        "--out", str(tmp_path / "labels.json"), "--diagnostics",
    )
    assert at_matching - imports <= 1.2 * matrix_bytes
