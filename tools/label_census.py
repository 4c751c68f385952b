"""Label census: does ``cluster`` still give the recorded labels?

Usage, from the repository root:

    python3 tools/label_census.py                  # compare with the record
    python3 tools/label_census.py --record PATH    # write a new record to PATH

The script runs ``cluster_detailed`` on a fixed catalogue of inputs and
prints one sha256 per input over the labels and both halves' center sets
(centers and cluster sizes), each marked ``same`` or ``DIFFERS`` against
``tools/label_census.json``.  It exits 1 if any digest differs from the
record, and 0 otherwise.  It imports the package from this checkout's
``src/``, whatever is installed.

The catalogue covers tall, wide and square shapes; halves of one and of two
row blocks of ARPACK's Gram product; every path of ``truncated_svd`` (the
Jacobi SVD at a side of at most 64 and at k = min(m, n), ARPACK, and the
first Ritz step of a full start basis or an all-zero input); k up to 6 on
B-SBMs with q > 0 and q = 0; and rank-deficient and all-zero inputs.  It
runs in about 4 s on a 2-vCPU x86-64 host.

Labels may differ by CPU family (README), so a differing digest on other
hardware is not by itself a fault: the record names the host and library
versions it was made with.  Like ``bench/reference``, the record is written
once, at a commit whose labels are the accepted ones, and never re-recorded
to make a change pass; ``--record`` refuses to overwrite a file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tools" / "label_census.json"
sys.path.insert(0, str(ROOT / "src"))

from specluster import BsbmParams, bsbm_to_mixture, cluster_detailed, rng, sample  # noqa: E402

# Keys of the census's own random 0/1 inputs, apart from every library tag.
_TAG_BITS = 0xCE5505


def bsbm(m, n, k, p, q, seed=1):
    return sample(bsbm_to_mixture(BsbmParams.balanced(m, n, k, p, q)), m, seed).matrix


def bits(m, n, seed):
    """Entries 0 or 1 with probability 1/2 each."""
    return (rng.uniform_grid(rng.mix64(_TAG_BITS, seed), m, n) < 0.5).astype(np.float64)


def three_rows(m, n, seed):
    """Rank at most 3: every row is one of three random 0/1 rows."""
    return bits(3, n, seed)[np.arange(m) % 3]


# name -> (input builder, k, cluster seed).  Each half has ceil(m/2) or
# floor(m/2) rows; the comment says which path each half's SVD takes.
CATALOGUE = {
    # Jacobi: min(m/2, n) <= 64.
    "bsbm-400x64-k2": (lambda: bsbm(400, 64, 2, 0.3, 0.1), 2, 1),
    "bsbm-64x400-k2": (lambda: bsbm(64, 400, 2, 0.3, 0.1), 2, 1),
    "bsbm-300x50-k4": (lambda: bsbm(300, 50, 4, 0.45, 0.05), 4, 2),
    "bsbm-400x64-k2-q0": (lambda: bsbm(400, 64, 2, 0.3, 0.0), 2, 3),
    "three-rows-400x64-k3": (lambda: three_rows(400, 64, 1), 3, 1),
    "zeros-400x64-k2": (lambda: np.zeros((400, 64)), 2, 1),
    # ARPACK, halves of one Gram row block.
    "bsbm-400x400-k2": (lambda: bsbm(400, 400, 2, 0.3, 0.1), 2, 1),
    "bsbm-400x400-k3": (lambda: bsbm(400, 400, 3, 0.2, 0.05), 3, 2),
    "bsbm-400x400-k6": (lambda: bsbm(400, 400, 6, 0.45, 0.05), 6, 3),
    "bsbm-400x400-k3-q0": (lambda: bsbm(400, 400, 3, 0.3, 0.0), 3, 4),
    "bsbm-2000x300-k3": (lambda: bsbm(2000, 300, 3, 0.3, 0.05), 3, 2),
    "bsbm-300x2000-k3": (lambda: bsbm(300, 2000, 3, 0.3, 0.05), 3, 2),
    "bsbm-1200x1000-k2": (lambda: bsbm(1200, 1000, 2, 0.3, 0.05), 2, 5),
    "bsbm-600x130-k6": (lambda: bsbm(600, 130, 6, 0.45, 0.05), 6, 6),
    "bits-400x300-k4": (lambda: bits(400, 300, 1), 4, 1),
    "three-rows-400x300-k3": (lambda: three_rows(400, 300, 2), 3, 1),
    "three-rows-400x300-k4": (lambda: three_rows(400, 300, 3), 4, 1),
    # ARPACK with k near the small side: n = k + 9, and a wide half.
    "bits-300x71-k62": (lambda: bits(300, 71, 4), 62, 1),
    "bits-140x80-k62": (lambda: bits(140, 80, 5), 62, 1),
    # ARPACK, halves of two Gram row blocks.
    "bsbm-2400x1000-k3": (lambda: bsbm(2400, 1000, 3, 0.3, 0.05), 3, 2),
    # The first Ritz step alone: a full start basis (tall, n <= k + 8) or
    # an all-zero input.
    "bits-300x70-k62": (lambda: bits(300, 70, 6), 62, 1),
    "zeros-400x300-k2": (lambda: np.zeros((400, 300)), 2, 1),
    "zeros-140x400-k2": (lambda: np.zeros((140, 400)), 2, 1),
    # The full Jacobi SVD above the cutover: k = min(m/2, n).
    "bits-200x66-k66": (lambda: bits(200, 66, 7), 66, 1),
}


def digest(build, k, seed) -> str:
    detail = cluster_detailed(build(), k, seed)
    h = hashlib.sha256(detail.labels.tobytes())
    for centers in (detail.first_centers, detail.second_centers):
        h.update(centers.centers.tobytes())
        h.update(centers.cluster_sizes.tobytes())
    return h.hexdigest()


def _blas() -> dict:
    out = {}
    for module in ("numpy", "scipy"):
        config = __import__(module).show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        out[module] = f"{blas['name']} {blas.get('version', '?')}"
    return out


def host() -> dict:
    import scipy

    cpu = "?"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), "?")
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", type=Path, help="write a new record here instead")
    args = parser.parse_args(argv)
    if args.record is not None and args.record.exists():
        parser.error(f"{args.record} exists; a record is never overwritten")
    recorded = {} if args.record else json.loads(RECORD.read_text())["digests"]

    start = time.perf_counter()
    digests, differ = {}, 0
    for name, (build, k, seed) in CATALOGUE.items():
        digests[name] = digest(build, k, seed)
        if args.record:
            status = "recorded"
        elif digests[name] == recorded.get(name):
            status = "same"
        else:
            status, differ = "DIFFERS", differ + 1
        print(f"{digests[name]}  {name}  {status}", flush=True)
    seconds = time.perf_counter() - start

    if args.record:
        record = {"host": host(), "digests": digests}
        args.record.write_text(json.dumps(record, indent=1) + "\n")
        print(f"recorded {len(digests)} inputs in {seconds:.1f} s to {args.record}")
        return 0
    print(f"{len(digests) - differ} of {len(digests)} inputs match the record "
          f"({seconds:.1f} s)")
    if differ:
        print("record made on: " + json.dumps(json.loads(RECORD.read_text())["host"]))
        print("this host:      " + json.dumps(host()))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
