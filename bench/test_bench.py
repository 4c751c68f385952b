"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.pin_threads()
sp = run.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402

SMALL_SPEC = dict(
    family="bsbm",
    axes={"k": [2], "p": [0.3, 0.45]},
    fixed={"m": 160, "n": 160, "q": 0.05},
    trials_per_cell=2,
    base_seed=3,
    diagnostics=workloads.SWEEP_DIAGNOSTICS,
)


def sweep_bytes(tmp_path: Path, tag: str) -> tuple[bytes, bytes]:
    result = sp.run_sweep(sp.SweepSpec(**SMALL_SPEC))
    sp.write_csv(result, tmp_path / f"{tag}.csv")
    sp.write_records_jsonl(result, tmp_path / f"{tag}.jsonl")
    return (tmp_path / f"{tag}.csv").read_bytes(), (tmp_path / f"{tag}.jsonl").read_bytes()


def test_traced_sweep_outputs_are_byte_identical(tmp_path):
    plain = sweep_bytes(tmp_path, "plain")
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = sweep_bytes(tmp_path, "traced")
    finally:
        tracer.uninstall()
    assert traced == plain
    assert "linalg.spectral_norm" in tracer.names
    assert sp.harness.spectral_norm is sp.linalg.spectral_norm  # uninstall restored it


def test_traced_cli_outputs_are_byte_identical(tmp_path):
    env = run.child_env()
    prefix = tmp_path / "d"
    commands = (
        ["generate", "--bsbm", "m=60,n=60,k=2,p=0.45,q=0.05", "--seed", "4", "--out", str(prefix)],
        ["cluster", "--data", str(prefix), "--k", "2", "--seed", "4", "--out", str(tmp_path / "l.json"),
         "--diagnostics"],
        ["check", "--data", str(prefix)],
    )
    launchers = {
        "plain": lambda: [sys.executable, "-m", "specluster"],
        "traced": lambda: [sys.executable, str(BENCH_DIR / "cli_shim.py"), str(tmp_path / "spans.json")],
    }
    outputs = {}
    for tag, launcher in launchers.items():
        seen = []
        for args in commands:
            proc = subprocess.run(launcher() + args, env=env, capture_output=True, check=True)
            seen.append(proc.stdout)
        for name in ("d.mtx", "d.json", "l.json"):
            seen.append((tmp_path / name).read_bytes())
        outputs[tag] = seen
    assert outputs["traced"] == outputs["plain"]
    table = json.loads((tmp_path / "spans.json").read_text())
    assert table["names"][0] == "cli.main" and table["import_s"] > 0


@pytest.mark.parametrize(
    "child",
    [
        "print('not json')",  # stdout is not JSON
        "print('{}')",  # exits 0 without writing its output files
        "import time; time.sleep(5)",  # outlives the child timeout
    ],
)
def test_failed_cli_command_fails_its_op_and_the_run_goes_on(tmp_path, monkeypatch, child):
    monkeypatch.setattr(workloads, "CHILD_TIMEOUT_S", 1)
    wl = workloads.Cli(sp, 0)
    wl.env, wl.workdir = run.child_env(), tmp_path
    wl.command = lambda args, spans_path: [sys.executable, "-c", child]
    ops = [*wl.step(0), *wl.step(1)]
    wl.check(ops, workloads.load_reference("cli"))
    assert [op.kind for op in ops] == ["generate", "cluster", "check"] * 2
    assert all(op.outputs is None and op.failed == 1 for op in ops)


def test_self_times_sum_to_at_most_op_wall():
    tracer = spans.Tracer()
    bsbm = sp.BsbmParams.balanced(120, 40, 2, 0.45, 0.05)
    data = sp.sample(sp.bsbm_to_mixture(bsbm), 120, 5)
    tracer.install()
    try:
        for seed in range(3):
            with tracer.span(spans.OP):
                sp.score(sp.cluster(data.matrix, 2, seed), data.truth, 2)
            with tracer.span(spans.OP):
                sp.run_sweep(sp.SweepSpec(**{**SMALL_SPEC, "trials_per_cell": 1}))
    finally:
        tracer.uninstall()
    table = tracer.table()
    own = spans.self_times(table)
    assert min(own) >= 0.0

    def root(idx):
        while table["parents"][idx] >= 0:
            idx = table["parents"][idx]
        return idx

    inside = {}
    for idx, name in enumerate(table["names"]):
        if name != spans.OP:
            inside[root(idx)] = inside.get(root(idx), 0.0) + own[idx]
    ops = [i for i, name in enumerate(table["names"]) if name == spans.OP]
    assert len(ops) == 6 and set(inside) == set(ops)
    for idx in ops:
        assert inside[idx] <= table["ends"][idx] - table["starts"][idx]
    calls, _, _, _ = spans.aggregate([table])
    # 60x40 halves take the Jacobi path; each sweep trial runs two 80x160
    # halves and one 160x160 diagnostic SVD on the subspace path.
    assert calls["linalg.truncated_svd.jacobi"] == 3 * 2
    assert calls["linalg.truncated_svd.subspace"] == 3 * 2 * 3


def copy_checkout(dest: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH_DIR, dest / "bench", ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(tmp_path, trace, section):
    checkout = copy_checkout(tmp_path, with_src=True)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "narrow", "--seed", "2", "--seconds", "0.1",
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    assert (checkout / "bench" / "results" / "runs.jsonl").is_file()


def test_refuses_to_run_without_the_program(tmp_path):
    checkout = copy_checkout(tmp_path, with_src=False)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": ""},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_same_compares_floats_within_tolerance_and_the_rest_exactly():
    assert workloads.same({"a": [1.0, True, 3]}, {"a": [1.0 + 1e-9, True, 3]}, 1e-6)
    assert not workloads.same({"a": 1.0 + 1e-5}, {"a": 1.0}, 1e-6)
    assert not workloads.same(1.0 + 1e-9, 1.0, 0.0)
    assert not workloads.same(1, True, 1e-6)
    assert not workloads.same(2, 3, 1e-6)


def test_tail_keeps_ten_samples_beyond_it_and_never_drops_below_p90():
    samples = [float(i) for i in range(1, 401)]
    value, pct = run.tail(samples)
    assert pct == 97.5 and sum(s > value for s in samples) == 10
    assert run.tail(samples[:100])[1] == 90.0
    assert run.tail([1.0, 5.0, 2.0]) == (pytest.approx(4.4), 90.0)


def test_reference_speed_scales_times_and_rates_only():
    values = {"a": 2.0, "b": 3.0, "c": 4.0, "d": 5.0}
    run.to_reference_speed(values, {"a": "s", "b": "s/op", "c": "1/s", "d": "MB"}, 0.5)
    assert values == {"a": 1.0, "b": 1.5, "c": 8.0, "d": 5.0}
