"""The benchmark's workloads: seeded inputs, closed-loop ops and output checks.

Every input is drawn from a fixed catalogue (sweep base seeds, narrow
sample seeds, CLI dataset seeds).  The run's ``--seed`` picks the order in
which the catalogue is visited, and, for ``narrow``, which entries are
sampled.  Because the catalogue is finite, every output can be compared
with the bytes or values recorded from the reference commit in
``reference/<workload>.json`` (see ``record_reference.py``).

Each workload is a closed loop with one caller: the next op starts when the
previous one has returned.  ``step`` runs one timed unit and gives its ops
in order, each as soon as it has ended (``cli`` yields them one command at
a time); ``check`` runs after the timed phase and marks each op correct or
not.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent

FLOAT_RTOL = 1e-6  # spectral_norm is only tol=1e-8 accurate; solver swaps move last digits
CHILD_TIMEOUT_S = 170

SWEEP_AXES = {"k": [2, 4], "p": [0.1, 0.15, 0.2, 0.3, 0.45]}
SWEEP_FIXED = {"m": 400, "n": 400, "q": 0.05}
SWEEP_BASES = tuple(range(32))
SWEEP_DIAGNOSTICS = ("conditions", "center_error", "overlap", "margins")

NARROW_CELLS = ((2, 0.2), (2, 0.45), (4, 0.2), (4, 0.45))
NARROW_M, NARROW_N, NARROW_Q = 400, 64, 0.05
NARROW_SEEDS = tuple(range(16))
NARROW_PER_CELL = 2

CLI_BSBM = "m=2000,n=2000,k=3,p=0.3,q=0.1"
CLI_K = 3
CLI_SEEDS = tuple(range(16))

# float64 bytes of the matrix each workload's ops work on.
WORKING_SET_BYTES = {
    "sweep": 400 * 400 * 8,
    "sweep-diag": 400 * 400 * 8,
    "narrow": NARROW_M * NARROW_N * 8,
    "cli": 2000 * 2000 * 8,
}


@dataclass
class Op:
    """One timed unit: ``count`` ops of one kind that took ``seconds``."""

    kind: str
    entry: str
    seconds: float
    count: int
    outputs: object = None
    oks: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.oks if not ok)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def same(got, want, rtol: float) -> bool:
    """Exact match for bools, ints, strings and None; floats within ``rtol``."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            same(got[key], want[key], rtol) for key in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            same(g, w, rtol) for g, w in zip(got, want)
        )
    if isinstance(want, float) and type(got) is float:
        if got == want:
            return True
        return math.isfinite(want) and abs(got - want) <= rtol * max(abs(got), abs(want))
    return type(got) is type(want) and got == want


def _csv_cell(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _run_op(kind: str, entry: str, count: int, fn, tracer):
    """Time ``fn()``; an exception fails the op instead of ending the run."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            outputs = fn()
        else:
            with tracer.span("op"):
                outputs = fn()
    except Exception:
        traceback.print_exc()
        outputs = None
    return Op(kind, entry, time.perf_counter() - t0, count, outputs)


class Sweep:
    """``run_sweep`` over the 400x400 B-SBM grid, then both writers; one op is one trial."""

    name = "sweep"
    diagnostics: tuple = ()

    def __init__(self, sp, seed: int):
        self.sp = sp
        self.order = random.Random(seed).sample(SWEEP_BASES, len(SWEEP_BASES))
        self.trials = len(self.spec(0).cells())
        self.tracer = None
        self.workdir = None

    def spec(self, base: int):
        return self.sp.SweepSpec(
            family="bsbm",
            axes=SWEEP_AXES,
            fixed=SWEEP_FIXED,
            trials_per_cell=1,
            base_seed=base,
            diagnostics=self.diagnostics,
        )

    def produce(self, base: int) -> Op:
        csv_path = self.workdir / "sweep.csv"
        jsonl_path = self.workdir / "sweep.jsonl"

        def op():
            result = self.sp.run_sweep(self.spec(base))
            self.sp.write_csv(result, csv_path)
            self.sp.write_records_jsonl(result, jsonl_path)
            return True

        done = _run_op("trial", str(base), self.trials, op, self.tracer)
        if done.outputs:
            done.outputs = {"csv": csv_path.read_text(), "jsonl": jsonl_path.read_text()}
        for path in (csv_path, jsonl_path):
            path.unlink(missing_ok=True)
        return done

    def step(self, i: int) -> list[Op]:
        return [self.produce(self.order[i % len(self.order)])]

    def reference_entries(self):
        return [str(b) for b in SWEEP_BASES]

    def record(self, entry: str) -> dict:
        op = self.produce(int(entry))
        if op.outputs is None:
            raise RuntimeError(f"{self.name} entry {entry} failed")
        return op.outputs

    def same_row(self, got_csv, want_csv, got_json, want_json) -> bool:
        return got_csv == want_csv and got_json == want_json

    def check(self, ops: list[Op], reference: dict) -> None:
        for op in ops:
            want = reference.get(op.entry)
            if op.outputs is None or want is None:
                op.oks = [False] * op.count
                continue
            got_csv, want_csv = op.outputs["csv"].splitlines(), want["csv"].splitlines()
            got_js, want_js = op.outputs["jsonl"].splitlines(), want["jsonl"].splitlines()
            if (
                len(got_csv) != len(want_csv)
                or len(got_js) != len(want_js)
                or got_csv[0] != want_csv[0]
            ):
                op.oks = [False] * op.count
                continue
            op.oks = [
                self.same_row(got_csv[i + 1], want_csv[i + 1], got_js[i], want_js[i])
                for i in range(op.count)
            ]


class SweepDiag(Sweep):
    """The ``sweep`` grid and base seeds with all four diagnostics."""

    name = "sweep-diag"
    diagnostics = SWEEP_DIAGNOSTICS

    def same_row(self, got_csv, want_csv, got_json, want_json) -> bool:
        got_cells = [_csv_cell(c) for c in next(csv.reader([got_csv]))]
        want_cells = [_csv_cell(c) for c in next(csv.reader([want_csv]))]
        return same(got_cells, want_cells, FLOAT_RTOL) and same(
            json.loads(got_json), json.loads(want_json), FLOAT_RTOL
        )

    def check(self, ops: list[Op], reference: dict) -> None:
        super().check(ops, reference)
        # Independent oracle for the spectral noise ||A - E||, on the first
        # pass: regenerate each trial's matrix and take LAPACK's 2-norm.
        first = ops[0]
        if first.outputs is None:
            return
        for i, line in enumerate(first.outputs["jsonl"].splitlines()):
            rec = json.loads(line)
            params = rec["parameters"]
            bsbm = self.sp.BsbmParams.balanced(
                params["m"], params["n"], params["k"], params["p"], params["q"]
            )
            model = self.sp.bsbm_to_mixture(bsbm)
            data = self.sp.sample(model, params["m"], rec["seed"])
            oracle = float(np.linalg.norm(data.matrix - model.means[data.truth], 2))
            talagrand = rec["diagnostics"]["talagrand_ratio"]
            noise = math.sqrt(talagrand * model.sigma_sq * (params["m"] + params["n"]))
            if not abs(noise - oracle) <= FLOAT_RTOL * oracle:
                print(f"spectral noise {noise!r} != oracle {oracle!r}", file=sys.stderr)
                first.oks[i] = False


class Narrow:
    """``cluster`` then ``score`` on 400x64 matrices: the Jacobi Gram path."""

    name = "narrow"

    def __init__(self, sp, seed: int):
        self.sp = sp
        self.tracer = None
        self.workdir = None
        rnd = random.Random(seed)
        picks = [rnd.sample(NARROW_SEEDS, NARROW_PER_CELL) for _ in NARROW_CELLS]
        entries = [(cell, picks[c][j]) for j in range(NARROW_PER_CELL) for c, cell in enumerate(NARROW_CELLS)]
        offset = rnd.randrange(len(entries))
        self.pool = [self.sample(*e) for e in entries[offset:] + entries[:offset]]

    def sample(self, cell, sample_seed: int):
        k, p = cell
        bsbm = self.sp.BsbmParams.balanced(NARROW_M, NARROW_N, k, p, NARROW_Q)
        data = self.sp.sample(self.sp.bsbm_to_mixture(bsbm), NARROW_M, sample_seed)
        return f"{k}-{p}-{sample_seed}", k, sample_seed, data.matrix, data.truth

    def produce(self, entry, k, seed, matrix, truth) -> Op:
        def op():
            labels = self.sp.cluster(matrix, k, seed)
            result = self.sp.score(labels, truth, k)
            return labels, result

        done = _run_op("cluster_score", entry, 1, op, self.tracer)
        if done.outputs is not None:
            labels, result = done.outputs
            done.outputs = {
                "labels_sha256": digest(np.asarray(labels, dtype="<i8").tobytes()),
                "exact": bool(result.exact),
                "accuracy": float(result.accuracy),
            }
        return done

    def step(self, i: int) -> list[Op]:
        return [self.produce(*self.pool[i % len(self.pool)])]

    def reference_entries(self):
        return [f"{k}-{p}-{s}" for k, p in NARROW_CELLS for s in NARROW_SEEDS]

    def record(self, entry: str) -> dict:
        k, p, s = entry.split("-")
        op = self.produce(*self.sample((int(k), float(p)), int(s)))
        if op.outputs is None:
            raise RuntimeError(f"narrow entry {entry} failed")
        return op.outputs

    def check(self, ops: list[Op], reference: dict) -> None:
        for op in ops:
            op.oks = [op.outputs is not None and op.outputs == reference.get(op.entry)]


class Cli:
    """Rounds of ``generate``, ``cluster --diagnostics`` and ``check`` in child processes."""

    name = "cli"

    def __init__(self, sp, seed: int):
        self.sp = sp
        self.order = random.Random(seed).sample(CLI_SEEDS, len(CLI_SEEDS))
        self.traced = False
        self.tracer = None
        self.workdir = None
        self.env = None
        self.child_tables: list[dict] = []
        self.shim_overhead: list[tuple[float, float]] = []  # (wall - shim_s, import_s)
        self.mtx_bytes = 0
        self.kept = None  # dataset prefix and reports of round 0, for the oracle

    def command(self, args: list[str], spans_path: Path) -> list[str]:
        if self.traced:
            return [sys.executable, str(BENCH_DIR / "cli_shim.py"), str(spans_path), *args]
        return [sys.executable, "-m", "specluster", *args]

    def invoke(self, kind: str, entry: str, args: list[str], mtx: Path, outputs) -> Op:
        """Run one command.  ``outputs(report)`` reads what it wrote; if the
        command fails in any way, ``op.outputs`` stays None."""
        spans_path = self.workdir / "spans.json"
        cmd = self.command(args, spans_path)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            traceback.print_exc()
            return Op(kind, entry, time.perf_counter() - t0, 1)
        op = Op(kind, entry, time.perf_counter() - t0, 1)
        if proc.returncode != 0:
            print(f"{kind} exited {proc.returncode}: {proc.stderr}", file=sys.stderr)
            return op
        try:
            if self.traced:
                table = json.loads(spans_path.read_text())
                spans_path.unlink()
                self.child_tables.append(table)
                self.shim_overhead.append((op.seconds - table["shim_s"], table["import_s"]))
            report = json.loads(proc.stdout)
            if not isinstance(report, dict):
                raise ValueError(f"{kind} printed {proc.stdout!r}, not a JSON object")
            op.outputs = outputs(report)
            self.mtx_bytes += mtx.stat().st_size
        except (OSError, ValueError):
            traceback.print_exc()
            op.outputs = None
        return op

    def produce(self, seed: int, tag: str):
        """Yield the round's three ops, each as soon as its command ends."""
        entry = str(seed)
        prefix = self.workdir / f"data{tag}"
        mtx, sidecar = prefix.with_suffix(".mtx"), prefix.with_suffix(".json")
        labels_path = self.workdir / f"labels{tag}.json"
        yield self.invoke(
            "generate",
            entry,
            ["generate", "--bsbm", CLI_BSBM, "--seed", entry, "--out", str(prefix)],
            mtx,
            lambda report: {
                "report": report,
                "mtx_sha256": digest(mtx.read_bytes()),
                "json_sha256": digest(sidecar.read_bytes()),
            },
        )
        yield self.invoke(
            "cluster",
            entry,
            ["cluster", "--data", str(prefix), "--k", str(CLI_K), "--seed", entry,
             "--out", str(labels_path), "--diagnostics"],
            mtx,
            # The echoed path differs per run, so it is popped before the
            # report is kept for comparison.
            lambda report: {
                "labels_path_echoed": report.pop("labels_path", None) == str(labels_path),
                "report": report,
                "labels_sha256": digest(labels_path.read_bytes()),
            },
        )
        yield self.invoke(
            "check", entry, ["check", "--data", str(prefix)], mtx, lambda report: {"report": report}
        )

    def step(self, i: int):
        ops = []
        for op in self.produce(self.order[i % len(self.order)], str(i)):
            ops.append(op)
            yield op
        prefix = self.workdir / f"data{i}"
        if i == 0:
            self.kept = (prefix, ops)
        else:
            for path in (prefix.with_suffix(".mtx"), prefix.with_suffix(".json")):
                path.unlink(missing_ok=True)
        (self.workdir / f"labels{i}.json").unlink(missing_ok=True)

    def reference_entries(self):
        return [str(s) for s in CLI_SEEDS]

    def record(self, entry: str) -> dict:
        ops = list(self.produce(int(entry), "ref"))
        for path in self.workdir.glob("*ref*"):
            path.unlink()
        if any(op.outputs is None for op in ops):
            raise RuntimeError(f"cli entry {entry} failed")
        return {op.kind: op.outputs for op in ops}

    def check(self, ops: list[Op], reference: dict) -> None:
        for op in ops:
            want = reference.get(op.entry, {}).get(op.kind)
            rtol = 0.0 if op.kind == "cluster" else FLOAT_RTOL
            op.oks = [op.outputs is not None and want is not None and same(op.outputs, want, rtol)]
        # Independent oracle: LAPACK's 2-norm of A - E for the kept dataset.
        prefix, round_ops = self.kept
        if round_ops[0].outputs is None:
            return
        import scipy.io  # here, not at the top: set-up probes import this module

        try:
            matrix = scipy.io.mmread(prefix.with_suffix(".mtx"))
            sidecar = json.loads(prefix.with_suffix(".json").read_text())
            expected = np.asarray(sidecar["model"]["means"])[np.asarray(sidecar["truth"])]
        except (OSError, ValueError, KeyError):
            traceback.print_exc()
            for op in round_ops:
                op.oks = [False]
            return
        oracle = float(np.linalg.norm(matrix - expected, 2))
        for op in round_ops:
            if op.kind in ("generate", "check") and op.outputs is not None:
                noise = math.sqrt(op.outputs["report"]["spectral_noise_sq"])
                if not abs(noise - oracle) <= FLOAT_RTOL * oracle:
                    print(f"spectral noise {noise!r} != oracle {oracle!r}", file=sys.stderr)
                    op.oks = [False]


WORKLOADS = {w.name: w for w in (Sweep, SweepDiag, Narrow, Cli)}


def load_reference(name: str) -> dict:
    return json.loads((BENCH_DIR / "reference" / f"{name}.json").read_text())
