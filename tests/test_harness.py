import ctypes
import json
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from conftest import cli_env

from specluster import (
    ConvergenceError,
    InvalidInputError,
    SweepSpec,
    cell_index,
    derive,
    harness,
    rng,
    run_sweep,
)
from specluster.harness import DIAGNOSTICS, csv_columns, write_csv, write_records_jsonl
from specluster.rng import TAG_TRIAL, mix64


def openblas_paths() -> set[str]:
    """Files of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as maps:
        fields = (line.split(maxsplit=5) for line in maps)
        return {f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]}


def openblas_thread_counts() -> list[int]:
    """Thread count of every OpenBLAS loaded in this process."""
    counts = []
    for path in sorted(openblas_paths()):
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if getter is not None:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    counts.append(getter())
    return counts


def noiseless_spec(trials=5, **overrides):
    base = dict(
        family="general",
        axes={"m": [20]},
        fixed={
            "means": [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]],
            "weights": [0.5, 0.5],
            "sigma_sq": 1.0,
        },
        trials_per_cell=trials,
        base_seed=0,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestDerive:
    def test_scalar_distinctness(self):
        seen = set()
        for c in range(10):
            for t in range(1000):
                seen.add(derive(0, c, t))
        assert len(seen) == 10_000

    def test_trial_separation_over_many_base_seeds(self):
        # derive's chain mix64(TAG_TRIAL, seed, 0, trial), vectorized over seeds.
        def extend(h, part):
            return rng._mix_array(h ^ rng._mix_array(np.uint64(part)))

        by_seed = rng.mix64_array(mix64(TAG_TRIAL), np.arange(1_000_000, dtype=np.uint64))
        by_cell = extend(by_seed, 0)
        mask = np.uint64((1 << 63) - 1)
        first = extend(by_cell, 0) & mask
        second = extend(by_cell, 1) & mask
        assert np.all(first != second)
        # the vectorized chain agrees with derive
        assert first[12345] == derive(12345, 0, 0)
        assert second[98765] == derive(98765, 0, 1)

    def test_stable_values(self):
        # Frozen: guards cross-platform stability of the seed derivation.
        assert derive(0, 0, 0) == 1331919477298220701
        assert derive(0, 0, 1) == 603140544734441799
        assert derive(1, 2, 3) == 1436303227977069778

    def test_matches_spec_chain(self):
        assert derive(7, 8, 9) == mix64(TAG_TRIAL, 7, 8, 9) & ((1 << 63) - 1)


class TestCellIndex:
    def test_depends_only_on_values(self):
        a = cell_index({"p": 0.4, "q": 0.1, "m": 40})
        b = cell_index({"m": 40, "q": 0.1, "p": 0.4})
        assert a == b
        assert a != cell_index({"m": 40, "q": 0.1, "p": 0.45})

    def test_stable_value(self):
        assert cell_index({"p": 0.4}) == 2290697493469145602


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            noiseless_spec(family="nope")
        with pytest.raises(InvalidInputError):
            noiseless_spec(axes={})
        with pytest.raises(InvalidInputError):
            noiseless_spec(trials=0)
        with pytest.raises(InvalidInputError):
            noiseless_spec(diagnostics=("bogus",))
        with pytest.raises(InvalidInputError, match=r"axes must be a dict, got \[\('m', \[20\]\)\]"):
            noiseless_spec(axes=[("m", [20])])
        with pytest.raises(InvalidInputError, match=r"fixed must be a dict, got \[1\]"):
            noiseless_spec(fixed=[1])

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("base_seed", 2.5, "base_seed must be an integer, got 2.5"),
            ("base_seed", True, "base_seed must be an integer, got True"),
            ("trials_per_cell", 1.5, "trials_per_cell must be an integer, got 1.5"),
            ("trials_per_cell", True, "trials_per_cell must be an integer, got True"),
            ("trials_per_cell", 0, "trials_per_cell must be at least 1, got 0"),
            ("margin_draws", 2.5, "margin_draws must be an integer, got 2.5"),
            ("margin_draws", True, "margin_draws must be an integer, got True"),
            ("margin_draws", 0, "margin_draws must be at least 1, got 0"),
        ],
    )
    def test_rejects_non_integral_seed_and_counts(self, field, value, message):
        with pytest.raises(InvalidInputError, match=message):
            noiseless_spec(**{field: value})

    def test_numpy_integer_seed_and_counts_give_int_bytes(self, tmp_path):
        outputs = []
        for cast in (int, np.int64):
            spec = noiseless_spec(
                trials=cast(2), base_seed=cast(-5), diagnostics=("margins",), margin_draws=cast(7)
            )
            assert type(spec.base_seed) is type(spec.trials_per_cell) is int
            result = run_sweep(spec, workers=1)
            csv_path, jsonl_path = tmp_path / f"{cast.__name__}.csv", tmp_path / "r.jsonl"
            write_csv(result, csv_path)
            write_records_jsonl(result, jsonl_path)
            outputs.append((csv_path.read_bytes(), jsonl_path.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = {
            "family": "bsbm",
            "axes": {"p": [0.4]},
            "fixed": {"m": 10, "n": 8, "k": 2, "q": 0.1},
            "trials_per_cell": 1,
        }
        for key, value in (("diagnostic", ["margins"]), ("margin_draw", 5), ("seed", 1)):
            path.write_text(json.dumps({**spec, key: value}))
            with pytest.raises(InvalidInputError, match=f": unknown key '{key}'"):
                SweepSpec.from_json(path)

    @pytest.mark.parametrize(
        "family, fixed, key",
        [
            ("bsbm", {"m": 20, "n": 10, "k": 2, "q": 0.1, "left_size": [5, 15]}, "left_size"),
            ("bsbm", {"m": 20, "n": 10, "k": 2, "q": 0.1, "trials": 99}, "trials"),
            ("general", {"means": [[1, 0], [0, 1]], "weights": [0.5, 0.5], "k": 2}, "k"),
            ("general", {"means": [[1, 0], [0, 1]], "weights": [0.5, 0.5],
                         "mean_accuracy": "x"}, "mean_accuracy"),
        ],
    )
    def test_cell_keys_checked_before_any_trial(self, monkeypatch, family, fixed, key):
        # A cell takes only its family's keys: a typo would otherwise run
        # the wrong model silently, and an aggregate column's name would
        # duplicate a CSV header.
        axis = {"p": [0.4]} if family == "bsbm" else {"m": [20]}
        spec = SweepSpec(family=family, axes=axis, fixed=fixed, trials_per_cell=1, base_seed=0)

        def no_trial(*args):
            raise AssertionError("a trial ran before the cells were checked")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        with pytest.raises(InvalidInputError, match=rf"^cell \{{.*\}}: unknown key '{key}'$"):
            run_sweep(spec, workers=1)

    def test_diagnostics_must_be_a_list(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "family": "bsbm",
                    "axes": {"p": [0.4]},
                    "fixed": {"m": 10, "n": 8, "k": 2, "q": 0.1},
                    "trials_per_cell": 1,
                    "diagnostics": "margins",
                }
            )
        )
        with pytest.raises(InvalidInputError, match="diagnostics must be a list of names"):
            SweepSpec.from_json(path)
        with pytest.raises(InvalidInputError, match="diagnostics must be a list of names"):
            noiseless_spec(diagnostics="margins")

    def test_cells_are_cartesian_product(self):
        spec = SweepSpec(
            family="bsbm",
            axes={"p": [0.3, 0.4], "n": [10, 20]},
            fixed={"m": 10, "k": 2, "q": 0.1},
            trials_per_cell=1,
            base_seed=0,
        )
        cells = spec.cells()
        assert len(cells) == 4
        assert {(c["n"], c["p"]) for c in cells} == {(10, 0.3), (10, 0.4), (20, 0.3), (20, 0.4)}

    def test_from_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "family": "bsbm",
                    "axes": {"p": [0.4]},
                    "fixed": {"m": 10, "n": 8, "k": 2, "q": 0.1},
                    "trials_per_cell": 2,
                    "base_seed": 3,
                }
            )
        )
        spec = SweepSpec.from_json(path)
        assert spec.family == "bsbm" and spec.trials_per_cell == 2 and spec.base_seed == 3

    def test_invalid_cells_abort_before_running(self):
        spec = SweepSpec(
            family="bsbm",
            axes={"p": [0.4, 0.9]},  # second cell violates p <= 0.5
            fixed={"m": 10, "n": 8, "k": 2, "q": 0.1},
            trials_per_cell=1,
            base_seed=0,
        )
        with pytest.raises(InvalidInputError):
            run_sweep(spec)


class TestRunSweep:
    def test_noiseless_cell_all_exact(self):
        result = run_sweep(noiseless_spec(trials=5))
        (cell,) = result.cells
        assert cell.trials == 5
        assert cell.exact_count == 5
        assert cell.mean_accuracy == 1.0

    def test_deterministic_rerun(self, tmp_path):
        spec = noiseless_spec(trials=3)
        r1, r2 = run_sweep(spec), run_sweep(spec)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(r1, p1)
        write_csv(r2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        j1, j2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_records_jsonl(r1, j1)
        write_records_jsonl(r2, j2)
        assert j1.read_bytes() == j2.read_bytes()

    def test_grid_edit_stability(self):
        spec_small = SweepSpec(
            family="bsbm",
            axes={"p": [0.35, 0.45]},
            fixed={"m": 16, "n": 12, "k": 2, "q": 0.05},
            trials_per_cell=2,
            base_seed=0,
        )
        spec_big = SweepSpec(
            family="bsbm",
            axes={"p": [0.25, 0.35, 0.45]},
            fixed={"m": 16, "n": 12, "k": 2, "q": 0.05},
            trials_per_cell=2,
            base_seed=0,
        )
        small = {json.dumps(r.parameters, sort_keys=True): r for r in run_sweep(spec_small).records}
        big = {json.dumps(r.parameters, sort_keys=True): r for r in run_sweep(spec_big).records}
        # records for shared cells are identical: seeds depend on values only
        for key, record in small.items():
            twin = big[key]
            assert record.seed == twin.seed
            assert record.exact == twin.exact
            assert record.accuracy == twin.accuracy

    def test_worker_count_does_not_change_outputs(self, tmp_path):
        spec = SweepSpec(
            family="bsbm",
            axes={"p": [0.35, 0.45]},
            fixed={"m": 40, "n": 30, "k": 2, "q": 0.05},
            trials_per_cell=3,
            base_seed=1,
            diagnostics=DIAGNOSTICS,
            margin_draws=50,
        )
        outputs = set()
        for workers in (1, 2, 3):
            result = run_sweep(spec, workers=workers)
            csv_path, jsonl_path = tmp_path / f"w{workers}.csv", tmp_path / f"w{workers}.jsonl"
            write_csv(result, csv_path)
            write_records_jsonl(result, jsonl_path)
            outputs.add((csv_path.read_bytes(), jsonl_path.read_bytes()))
        assert len(outputs) == 1

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_worker_count_below_one(self, workers):
        with pytest.raises(InvalidInputError, match="workers must be at least 1"):
            run_sweep(noiseless_spec(trials=2), workers=workers)

    @pytest.mark.parametrize("workers", [1.5, 2.0, True])
    def test_rejects_non_integral_worker_count(self, workers):
        with pytest.raises(InvalidInputError, match="workers must be an integer, got"):
            run_sweep(noiseless_spec(trials=2), workers=workers)

    def test_pool_error_is_first_failure_in_grid_order(self, monkeypatch):
        spec = noiseless_spec(trials=3, axes={"m": [20, 24]})
        seeds = [derive(0, cell_index(params), t) for params in spec.cells() for t in range(3)]
        real_cluster = harness.cluster

        def failing_cluster(matrix, k, seed):
            if seed == seeds[1]:
                time.sleep(0.6)  # fails after the later trial below
                raise ConvergenceError(f"trial seed {seed} did not converge")
            if seed == seeds[3]:
                raise ConvergenceError(f"trial seed {seed} did not converge")
            time.sleep(0.2)
            return real_cluster(matrix, k, seed)

        monkeypatch.setattr(harness, "cluster", failing_cluster)
        messages = []
        for workers in (1, 2):
            with pytest.raises(ConvergenceError) as info:
                run_sweep(spec, workers=workers)
            messages.append(str(info.value))
        assert messages == [f"trial seed {seeds[1]} did not converge"] * 2

    def test_pool_cancels_queued_trials_after_a_failure(self, monkeypatch, tmp_path):
        spec = noiseless_spec(trials=12)
        first = derive(0, cell_index(spec.cells()[0]), 0)
        real_cluster = harness.cluster

        def failing_cluster(matrix, k, seed):
            (tmp_path / str(seed)).touch()
            if seed == first:
                raise ConvergenceError("first trial failed")
            time.sleep(0.2)
            return real_cluster(matrix, k, seed)

        monkeypatch.setattr(harness, "cluster", failing_cluster)
        with pytest.raises(ConvergenceError, match="first trial failed"):
            run_sweep(spec, workers=2)
        assert len(list(tmp_path.iterdir())) < 12

    @pytest.mark.skipif(not os.path.isfile("/proc/self/maps"), reason="needs /proc/self/maps")
    def test_pool_workers_run_blas_on_one_thread(self, monkeypatch):
        if not openblas_thread_counts():
            pytest.skip("numpy does not use OpenBLAS here")
        real_cluster = harness.cluster

        def checked_cluster(matrix, k, seed):
            counts = openblas_thread_counts()
            assert set(counts) == {1}, f"worker OpenBLAS threads: {counts}"
            return real_cluster(matrix, k, seed)

        monkeypatch.setattr(harness, "cluster", checked_cluster)
        run_sweep(noiseless_spec(trials=2), workers=2)

    @pytest.mark.skipif(not os.path.isfile("/proc/self/maps"), reason="needs /proc/self/maps")
    def test_fresh_process_pool_workers_share_scipy_blas_on_one_thread(self):
        # In this process scipy is loaded already; a child that has not
        # imported it shows whether the pool imports scipy before it forks.
        import scipy.optimize  # noqa: F401
        import scipy.sparse.linalg  # noqa: F401

        libraries = openblas_paths()
        if len(libraries) < 2:
            pytest.skip("numpy and scipy do not bundle separate OpenBLAS builds here")
        script = textwrap.dedent(
            """
            import sys
            sys.path.insert(0, sys.argv[1])
            from specluster import harness, run_sweep
            import test_harness

            assert not any(name.startswith("scipy") for name in sys.modules)
            libraries = set(sys.argv[2:])
            real_cluster = harness.cluster

            def checked_cluster(matrix, k, seed):
                assert "scipy.linalg.lapack" in sys.modules, "LAPACK not imported before fork"
                mapped = test_harness.openblas_paths()
                assert libraries <= mapped, f"worker maps {mapped}, not all of {libraries}"
                counts = test_harness.openblas_thread_counts()
                assert set(counts) == {1}, f"worker OpenBLAS threads: {counts}"
                return real_cluster(matrix, k, seed)

            harness.cluster = checked_cluster
            run_sweep(test_harness.noiseless_spec(trials=2), workers=2)
            """
        )
        env = cli_env()
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.pop(var, None)
        proc = subprocess.run(
            [sys.executable, "-c", script, os.path.dirname(__file__), *sorted(libraries)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    def test_aggregates_recomputable_from_records(self, tmp_path):
        spec = noiseless_spec(trials=4)
        result = run_sweep(spec)
        (cell,) = result.cells
        records = [r for r in result.records]
        assert cell.exact_count == sum(r.exact for r in records)
        assert cell.mean_accuracy == pytest.approx(
            sum(r.accuracy for r in records) / len(records)
        )

        # Every aggregate column is its reducer over the cell's records in
        # record order, bit for bit, and the CSV holds repr of that value.
        spec = SweepSpec(
            family="bsbm",
            axes={"p": [0.3, 0.45]},
            fixed={"m": 40, "n": 30, "k": 2, "q": 0.05},
            trials_per_cell=3,
            base_seed=0,
            diagnostics=DIAGNOSTICS,
            margin_draws=50,
        )
        result = run_sweep(spec, workers=1)
        path = tmp_path / "out.csv"
        write_csv(result, path)
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        assert header == csv_columns(spec)
        assert len(rows) == len(result.cells) == 2
        for ci, (cell, row) in enumerate(zip(result.cells, rows)):
            records = result.records[3 * ci : 3 * ci + 3]
            assert all(r.parameters == cell.parameters for r in records)

            def mean(values):
                return sum(values) / 3

            def count(key):
                return sum(1 for r in records if r.diagnostics[key])

            def diag_mean(key):
                return mean([r.diagnostics[key] for r in records])

            expected = {
                "trials": 3,
                "exact_count": sum(1 for r in records if r.exact),
                "mean_accuracy": mean([r.accuracy for r in records]),
                "mean_talagrand_ratio": diag_mean("talagrand_ratio"),
                "mean_noise_to_threshold": diag_mean("noise_to_threshold"),
                "center_error_hold_count": count("center_error_holds"),
                "mean_max_center_error": diag_mean("max_center_error"),
                "overlap_hold_count": count("overlap_holds"),
                "mean_min_overlap": diag_mean("min_overlap"),
                "margin_correct_fraction": diag_mean("margin_correct_fraction"),
                "margin_part1_fraction": diag_mean("margin_part1_fraction"),
                "margin_part2_fraction": diag_mean("margin_part2_fraction"),
            }
            aggregates = {
                "trials": cell.trials,
                "exact_count": cell.exact_count,
                "mean_accuracy": cell.mean_accuracy,
                **cell.diagnostics,
            }
            assert aggregates == expected
            for column, value in expected.items():
                assert type(aggregates[column]) is type(value), column
            params = sorted(cell.parameters)
            assert header == params + list(expected)
            assert row == [repr(cell.parameters[name]) for name in params] + [
                repr(value) for value in expected.values()
            ]

    def test_diagnostics_recorded(self):
        spec = SweepSpec(
            family="bsbm",
            axes={"p": [0.45]},
            fixed={"m": 40, "n": 30, "k": 2, "q": 0.05},
            trials_per_cell=2,
            base_seed=0,
            diagnostics=("conditions", "center_error", "overlap", "margins"),
            margin_draws=50,
        )
        result = run_sweep(spec)
        (cell,) = result.cells
        assert set(cell.diagnostics) == {
            "mean_talagrand_ratio",
            "mean_noise_to_threshold",
            "center_error_hold_count",
            "mean_max_center_error",
            "overlap_hold_count",
            "mean_min_overlap",
            "margin_correct_fraction",
            "margin_part1_fraction",
            "margin_part2_fraction",
        }
        record = result.records[0]
        assert 0.0 <= record.diagnostics["margin_correct_fraction"] <= 1.0

    @pytest.mark.parametrize(
        "diagnostics, norms",
        [(("overlap",), 0), (("margins",), 0), (("conditions",), 2), (("center_error",), 2)],
    )
    def test_spectral_norm_only_for_diagnostics_that_read_it(
        self, monkeypatch, diagnostics, norms
    ):
        calls = []
        real_norm = harness.spectral_norm

        def counting_norm(a):
            calls.append(a.shape)
            return real_norm(a)

        monkeypatch.setattr(harness, "spectral_norm", counting_norm)
        spec = SweepSpec(
            family="bsbm",
            axes={"p": [0.45]},
            fixed={"m": 40, "n": 30, "k": 2, "q": 0.05},
            trials_per_cell=2,
            base_seed=0,
            diagnostics=diagnostics,
            margin_draws=50,
        )
        run_sweep(spec, workers=1)
        assert len(calls) == norms

    def test_csv_columns_documented_order(self, tmp_path):
        spec = SweepSpec(
            family="bsbm",
            axes={"p": [0.45]},
            fixed={"m": 16, "n": 12, "k": 2, "q": 0.05},
            trials_per_cell=1,
            base_seed=0,
            diagnostics=("overlap",),
        )
        assert csv_columns(spec) == [
            "k",
            "m",
            "n",
            "p",
            "q",
            "trials",
            "exact_count",
            "mean_accuracy",
            "overlap_hold_count",
            "mean_min_overlap",
        ]
        result = run_sweep(spec)
        path = tmp_path / "out.csv"
        write_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(csv_columns(spec))
        assert len(lines) == 2
