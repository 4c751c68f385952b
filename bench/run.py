"""specluster benchmark: one workload per run, closed loop, outputs checked.

Usage, from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
program's layer functions with spans (see ``spans.py``) and prints the
per-layer metrics instead.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Reported times
are scaled to a reference host's speed (see ``ReferenceKernel``).  Every run
also appends its raw samples, unscaled values and environment to
``bench/results/runs.jsonl``.

The program is imported from ``src/`` of the checkout and nowhere else; BLAS
and OpenMP are pinned to one thread for this process and its children.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results" / "runs.jsonl"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# Seconds one ReferenceKernel.run() takes on the reference host (2-vCPU VM,
# BLAS on one thread).  Reported times are scaled to that host's speed.
REFERENCE_S = 0.008
REFERENCE_SHARE = 0.02  # kernel time after each op, as a share of the op's time
PROBE_REFERENCE_S = 0.05  # kernel time in each set-up probe

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


def pin_threads() -> None:
    """Pin BLAS/OpenMP to one thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import specluster from the checkout's ``src/``, or exit non-zero."""
    package = SRC / "specluster"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import specluster

    if Path(specluster.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported specluster from {specluster.__file__}, not {package}")
    return specluster


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def layer_unit(name: str) -> str:
    for suffix, unit in (
        (".calls", "calls/op"),
        (".self_s", "s/op"),
        (".iterations", "iters/op"),
        (".degenerate", "results/op"),
        ("_mb", "MB/op"),
        ("_frac", "fraction"),
        ("p50_s", "s"),
    ):
        if name.endswith(suffix):
            return unit
    return "s/op"


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, but never
    below p90, and that percentile.  Under 100 samples it is p90, with fewer
    than ten beyond it; a fixed percentile keeps short runs comparable."""
    import numpy

    pct = max(90.0, 100.0 * (1.0 - 10.0 / len(samples)))
    return float(numpy.percentile(samples, pct)), pct


def environment(working_set: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        libc.sysconf.argtypes = [ctypes.c_int]
        # glibc's _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE.
        l2, l3 = libc.sysconf(191), libc.sysconf(194)
    except (OSError, AttributeError):
        l2 = l3 = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2_bytes": l2,
        "l3_bytes": l3,
        "working_set_bytes": working_set,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def setup_probe(workload: str, seed: int, env: dict) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its inputs being ready,
    and the reference kernel's median time in that interpreter just after."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload,
         "--seed", str(seed)],
        env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    ready, kernel_s = (float(word) for word in proc.stdout.split()[-2:])
    return ready - t0, kernel_s


def end_to_end(ops, cli: bool) -> tuple[dict, dict]:
    count = sum(op.count for op in ops)
    latencies = [op.seconds / op.count for op in ops]
    tail_s, tail_pct = tail(latencies)
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    values = {
        "ops_per_s": count / sum(op.seconds for op in ops),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    return values, {"op_tail_percentile": tail_pct, "op_samples": len(latencies)}


def per_layer(spans, wl, tables, ops) -> dict:
    count = sum(op.count for op in ops)
    values = spans.layer_metrics(tables, count, sum(op.seconds for op in ops))
    values["models.mtx_mb"] = getattr(wl, "mtx_bytes", 0) / 1e6 / count
    shim = getattr(wl, "shim_overhead", [])
    values["cli.interpreter_s"] = sum(s[0] for s in shim) / count
    values["cli.import_s"] = sum(s[1] for s in shim) / count
    for kind in ("generate", "cluster", "check"):
        times = [op.seconds for op in ops if op.kind == kind]
        values[f"cli.{kind}_p50_s"] = statistics.median(times) if times else 0.0
    values["failed_frac"] = sum(op.failed for op in ops) / count
    return values


class ReferenceKernel:
    """A fixed mix of BLAS, memory-bound and interpreter work.

    The host's speed drifts by up to 1.7x within minutes (see NOTES.md), and
    every part of the program drifts with it.  No change to the program can
    alter this kernel, so its time, measured between the timed units of the
    same run, tells how fast the host was during that run.
    """

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        self.square = rng.random((200, 200))
        self.stream = rng.random(500_000)  # 4 MB, beyond L2
        self.samples: list[float] = []
        self.run()  # warm up BLAS and the caches; not a sample

    def run(self) -> float:
        t0 = time.perf_counter()
        for _ in range(10):
            self.square @ self.square
        for _ in range(6):
            self.stream.sum()
        total = 0
        for i in range(40_000):
            total += i * i
        return time.perf_counter() - t0

    def sample(self, budget_s: float) -> None:
        """Run the kernel at least once and until ``budget_s`` is spent."""
        spent = 0.0
        while not spent or spent < budget_s:
            self.samples.append(self.run())
            spent += self.samples[-1]

    def scale(self) -> float:
        """Factor that turns this run's seconds into reference-host seconds."""
        return REFERENCE_S / statistics.median(self.samples)


def to_reference_speed(values: dict, units: dict, scale: float) -> None:
    for name in values:
        unit = units[name]
        if unit in ("s", "s/op"):
            values[name] *= scale
        elif unit == "1/s":
            values[name] /= scale


def closed_loop(wl, seconds: float, tracer, reference: ReferenceKernel) -> list:
    """Run timed units back to back until ``seconds`` have passed, sampling
    the reference kernel after each op."""
    if tracer is not None:
        tracer.install()
    try:
        ops, i, start = [], 0, time.perf_counter()
        while not ops or time.perf_counter() - start < seconds:
            for op in wl.step(i):
                ops.append(op)
                reference.sample(REFERENCE_SHARE * op.seconds)
            i += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    return ops


def run_workload(args, sp) -> dict:
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    env = child_env()
    setup = [] if args.trace else [setup_probe(args.workload, args.seed, env) for _ in range(SETUP_PROBES)]
    wl = cls(sp, args.seed)
    wl.env = env
    wl.workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    wl.workdir.mkdir(parents=True, exist_ok=True)
    spans = tracer = None
    if args.trace:
        import spans

        if cls is workloads.Cli:
            wl.traced = True
        else:
            tracer = wl.tracer = spans.Tracer()
    try:
        reference = ReferenceKernel()
        ops = closed_loop(wl, args.seconds, tracer, reference)
        wl.check(ops, workloads.load_reference(args.workload))
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)

    extra = {}
    if args.trace:
        tables = [tracer.table()] if tracer is not None else wl.child_tables
        values = per_layer(spans, wl, tables, ops)
        units = {name: layer_unit(name) for name in values}
    else:
        values, extra = end_to_end(ops, cls is workloads.Cli)
        units = END_TO_END_UNITS
    measured = dict(values)
    to_reference_speed(values, units, reference.scale())
    if setup:
        # Each probe is scaled by the kernel timed in its own interpreter.
        values = {"setup_s": statistics.median(s * REFERENCE_S / k for s, k in setup), **values}
        measured["setup_s"] = statistics.median(s for s, _ in setup)
    attempted = sum(op.count for op in ops)
    failed = sum(op.failed for op in ops)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    raw = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "unix_time": time.time(),
        "environment": environment(workloads.WORKING_SET_BYTES[args.workload]),
        "result": result,
        "samples": {
            "setup_s": setup,
            "ops": [[op.kind, op.entry, op.seconds, op.count, op.failed] for op in ops],
            "reference_s": reference.samples,
            "measured": measured,
            **extra,
        },
    }
    RESULTS.parent.mkdir(exist_ok=True)
    with open(RESULTS, "a") as handle:
        handle.write(json.dumps(raw) + "\n")
    return result


def run_all(args) -> dict:
    """Each workload in a fresh process; metrics are prefixed by workload."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        for metric, entry in result["metrics"].items():
            print(f"{name:<11} {metric:<46} {entry['value']:>14.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "sweep-diag", "narrow", "cli", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_threads()
    sp = import_program()
    sys.path.insert(0, str(BENCH_DIR))
    if args.probe:
        import workloads

        workloads.WORKLOADS[args.workload](sp, args.seed)
        ready = time.perf_counter()
        reference = ReferenceKernel()
        reference.sample(PROBE_REFERENCE_S)
        print(ready, statistics.median(reference.samples))
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args, sp)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
