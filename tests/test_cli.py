import json
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from conftest import cli_env


def run_cli(*args, env_extra=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "specluster", *args],
        capture_output=True,
        text=True,
        env=cli_env(**(env_extra or {})),
        cwd=cwd,
    )


BSBM = "m=20,n=10,k=2,p=0.4,q=0.1"


class TestGenerate:
    def test_writes_files_and_report(self, tmp_path):
        out = tmp_path / "data"
        proc = run_cli("generate", "--bsbm", BSBM, "--seed", "0", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["delta_mu"] ** 2 == pytest.approx(0.9, rel=1e-12)
        assert (tmp_path / "data.mtx").exists() and (tmp_path / "data.json").exists()
        sidecar = json.loads((tmp_path / "data.json").read_text())
        assert sidecar["derived"]["delta_mu_sq"] == pytest.approx(0.9, rel=1e-12)

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            proc = run_cli("generate", "--bsbm", BSBM, "--seed", "5", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "a.mtx").read_bytes() == (tmp_path / "b.mtx").read_bytes()
        ja = json.loads((tmp_path / "a.json").read_text())
        jb = json.loads((tmp_path / "b.json").read_text())
        assert ja == jb

    def test_model_file(self, tmp_path):
        model_file = tmp_path / "model.json"
        model_file.write_text(
            json.dumps(
                {
                    "kind": "mixture",
                    "means": [[1, 1, 0, 0], [0, 0, 1, 1]],
                    "weights": [0.5, 0.5],
                    "sigma_sq": 1.0,
                    "m": 8,
                }
            )
        )
        proc = run_cli("generate", "--model", str(model_file), "--out", str(tmp_path / "d"))
        assert proc.returncode == 0, proc.stderr

    def test_invalid_model_exits_2(self, tmp_path, capsys):
        from specluster.cli import main

        proc = run_cli(
            "generate", "--bsbm", "m=10,n=8,k=2,p=0.7,q=0.1", "--out", str(tmp_path / "x")
        )
        assert proc.returncode == 2
        assert "error" in proc.stderr.lower()
        for inline, message in [
            ("m=10,n=8,k=2,p=0.4", "--bsbm: missing 'q'"),
            ("m=10.5,n=8,k=2,p=0.4,q=0.1", "--bsbm: bad value for 'm'"),
            ("m=10,n=8,k=2,p=nan,q=0.1", "p and q must lie in [0, 0.5]"),
            ("m=10,n=8,k=2,p=0.4,q=inf", "p and q must lie in [0, 0.5]"),
            ("m=10,n=8,k=2,p=0.4,q=0.1,x=3", "--bsbm: unknown key 'x'"),
            ("m=10,n=8,k=2,p=0.4,q=0.1,left_sizes=55", "--bsbm: unknown key 'left_sizes'"),
            ("m=40,n=30,k=2,p=0.4,q=0.1,m=60", "repeated key 'm'"),
        ]:
            assert main(["generate", "--bsbm", inline, "--out", str(tmp_path / "y")]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, field",
        [
            ([{"kind": "bsbm"}], "JSON object"),
            ({"kind": "bsbm", "m": "x", "n": 10, "k": 2, "p": 0.4, "q": 0.1}, "'m'"),
            ({"kind": "mixture", "means": [[0.5, 0.5], [0.5]], "weights": [0.5, 0.5], "m": 8}, "'means'"),
            ({"kind": "mixture", "means": [[0.5]], "weights": [1.0], "sigma_sq": "x", "m": 8}, "'sigma_sq'"),
            ({"kind": "mixture", "means": [[0.5]], "weights": [1.0], "m": "x"}, "'m'"),
            ({"kind": "bsbm", "m": 20.9, "n": 10, "k": 2.7, "p": 0.4, "q": 0.1}, "'m'"),
            ({"kind": "bsbm", "m": 20, "n": 10, "k": 2.7, "p": 0.4, "q": 0.1}, "'k'"),
            ({"kind": "bsbm", "m": 20, "n": True, "k": 2, "p": 0.4, "q": 0.1}, "'n'"),
            ({"kind": "mixture", "means": [[0.5]], "weights": [1.0], "m": 8.5}, "'m'"),
            (
                {"kind": "bsbm", "m": 3, "n": 2, "k": 2, "p": 0.4, "q": 0.1,
                 "left_sizes": [1.5, 1.5], "right_assignment": [0, 1]},
                "'left_sizes'",
            ),
            (
                {"kind": "bsbm", "m": 3, "n": 2, "k": 2, "p": 0.4, "q": 0.1,
                 "left_sizes": [2, 1], "right_assignment": [0, 1.5]},
                "'right_assignment'",
            ),
            ({"kind": "bsbm", "m": 20, "n": 10, "k": 2, "p": 0.4}, ": missing 'q'"),
            ({"kind": "bsbm", "m": 20, "n": -1, "k": 2, "p": 0.4, "q": 0.1}, "nonempty"),
            (
                {"kind": "mixture", "means": [[1, 0], [0, 1]], "weights": [0.5, 0.5],
                 "sigma_sq": math.nan, "m": 4},
                "sigma_sq must be finite",
            ),
            (
                {"kind": "mixture", "means": [[1, 0], [0, 1]], "weights": [0.5, 0.5],
                 "sigma_sq": math.inf, "m": 4},
                "sigma_sq must be finite",
            ),
            (
                {"kind": "mixture", "means": [[1, 0], [0, 1]], "weights": [math.nan, math.nan],
                 "m": 4},
                "weights must be finite",
            ),
            (
                {"kind": "bsbm", "m": 40, "n": 10, "k": 2, "p": 0.4, "q": 0.1,
                 "left_size": [10, 30]},
                ": unknown key 'left_size'",
            ),
            (
                {"kind": "mixture", "means": [[1, 0], [0, 1]], "weights": [0.5, 0.5],
                 "sigma": 1.0, "m": 4},
                ": unknown key 'sigma'",
            ),
            (
                {"kind": "mixture", "means": [[1, 0], [0, 1]], "weights": [0.5, 0.5],
                 "m": 4, "p": 0.4},
                ": unknown key 'p'",
            ),
            # A string was read one character at a time: left_sizes [5, 5].
            (
                {"kind": "bsbm", "m": 10, "n": 4, "k": 2, "p": 0.4, "q": 0.1,
                 "left_sizes": "55", "right_assignment": [0, 0, 1, 1]},
                ": bad value for 'left_sizes': expected a list of integers, got str",
            ),
            (
                {"kind": "bsbm", "m": 10, "n": 4, "k": 2, "p": 0.4, "q": 0.1,
                 "left_sizes": [5, 5], "right_assignment": "0011"},
                ": bad value for 'right_assignment'",
            ),
            # A bool was read as 0.0 or 1.0.
            (
                {"kind": "bsbm", "m": 40, "n": 40, "k": 2, "p": 0.4, "q": False},
                ": bad value for 'q': expected a number, got False",
            ),
            (
                {"kind": "mixture", "means": [[1, 0], [0, 1]], "weights": [0.5, 0.5],
                 "sigma_sq": True, "m": 4},
                ": bad value for 'sigma_sq': expected a number, got True",
            ),
            # Bools in means or weights were read as 0.0 and 1.0, mixed with
            # numbers too.
            (
                {"kind": "mixture", "means": [[True, False], [False, True]],
                 "weights": [0.5, 0.5], "m": 4},
                ": bad value for 'means': expected numbers, got ",
            ),
            (
                {"kind": "mixture", "means": [[0.5, True], [0, 1]], "weights": [0.5, 0.5],
                 "m": 4},
                ": bad value for 'means': expected numbers, got True",
            ),
            (
                {"kind": "mixture", "means": [[1, 0], [0, 1]], "weights": [0.5, True], "m": 4},
                ": bad value for 'weights': expected numbers, got True",
            ),
        ],
    )
    def test_malformed_model_file_exits_2(self, tmp_path, capsys, model, field):
        from specluster.cli import main

        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(model))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["generate", "--model", str(model_file), "--out", str(tmp_path / "d")])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "d.json").exists()

    def test_seed_precedence(self, tmp_path):
        flag = tmp_path / "flag"
        env = tmp_path / "env"
        env5 = tmp_path / "env5"
        default = tmp_path / "default"
        run_cli("generate", "--bsbm", BSBM, "--seed", "7", "--out", str(flag),
                env_extra={"SPECLUSTER_SEED": "5"})
        run_cli("generate", "--bsbm", BSBM, "--out", str(env5),
                env_extra={"SPECLUSTER_SEED": "5"})
        run_cli("generate", "--bsbm", BSBM, "--seed", "5", "--out", str(env))
        run_cli("generate", "--bsbm", BSBM, "--out", str(default))
        run_cli("generate", "--bsbm", BSBM, "--seed", "0", "--out", str(tmp_path / "zero"))
        # flag beats env: seed 7 differs from env's 5
        assert (tmp_path / "flag.mtx").read_bytes() != (tmp_path / "env5.mtx").read_bytes()
        # env equals explicit --seed 5
        assert (tmp_path / "env5.mtx").read_bytes() == (tmp_path / "env.mtx").read_bytes()
        # default is seed 0
        assert (tmp_path / "default.mtx").read_bytes() == (tmp_path / "zero.mtx").read_bytes()


def generate_noiseless(tmp_path, m=16, k=2, seed=0):
    model_file = tmp_path / "model.json"
    means = np.zeros((k, 3 * k), dtype=int)
    for r in range(k):
        means[r, 3 * r : 3 * r + 3] = 1
    model_file.write_text(
        json.dumps(
            {
                "kind": "mixture",
                "means": means.tolist(),
                "weights": [1.0 / k] * k,
                "sigma_sq": 1.0,
                "m": m,
            }
        )
    )
    out = tmp_path / "noiseless"
    proc = run_cli("generate", "--model", str(model_file), "--seed", str(seed), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out


class TestCluster:
    def test_noiseless_exact(self, tmp_path):
        prefix = generate_noiseless(tmp_path)
        labels_path = tmp_path / "labels.json"
        proc = run_cli(
            "cluster", "--data", str(prefix), "--k", "2", "--seed", "0",
            "--out", str(labels_path),
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["exact"] is True
        labels = json.loads(labels_path.read_text())
        assert len(labels) == 16
        assert "warning" not in proc.stderr

    def test_empty_clusters_warn_on_stderr_only(self, tmp_path):
        from specluster.models import BinaryDataset, save_dataset

        prefix = tmp_path / "zero"
        save_dataset(BinaryDataset(matrix=np.zeros((40, 10)), truth=None), prefix)
        labels_path = tmp_path / "labels.json"
        proc = run_cli("cluster", "--data", str(prefix), "--k", "2", "--out", str(labels_path))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"labels_path": str(labels_path)}
        assert json.loads(labels_path.read_text()) == [0] * 40
        assert "warning: 1 of the 2 clusters are empty" in proc.stderr

    def test_diagnostics_flag(self, tmp_path):
        prefix = generate_noiseless(tmp_path)
        proc = run_cli(
            "cluster", "--data", str(prefix), "--k", "2", "--seed", "0",
            "--out", str(tmp_path / "l.json"), "--diagnostics",
        )
        out = json.loads(proc.stdout)
        assert out["diagnostics"]["match_ambiguous"] is False
        assert out["diagnostics"]["half_sizes"] == [8, 8]

    def test_k_below_the_truth_clusters_scores(self, tmp_path):
        # Three true clusters clustered into two: the labels are scored on
        # a 3 x 3 confusion matrix and cannot be exact.
        prefix = tmp_path / "three"
        generate = run_cli(
            "generate", "--bsbm", "m=200,n=200,k=3,p=0.3,q=0.1", "--out", str(prefix)
        )
        assert generate.returncode == 0, generate.stderr
        labels_path = tmp_path / "labels.json"
        proc = run_cli("cluster", "--data", str(prefix), "--k", "2", "--out", str(labels_path))
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["exact"] is False
        assert np.array(out["confusion"]).shape == (3, 3)
        assert max(json.loads(labels_path.read_text())) <= 1

    def test_k_too_large_exits_2(self, tmp_path):
        prefix = generate_noiseless(tmp_path, m=16, k=2)
        proc = run_cli(
            "cluster", "--data", str(prefix), "--k", "16",
            "--out", str(tmp_path / "l.json"),
        )
        assert proc.returncode == 2

    def test_missing_file_exits_2(self, tmp_path):
        proc = run_cli(
            "cluster", "--data", str(tmp_path / "missing"), "--k", "2",
            "--out", str(tmp_path / "l.json"),
        )
        assert proc.returncode == 2

    def test_deterministic_outputs(self, tmp_path):
        prefix = generate_noiseless(tmp_path)
        outs = []
        for name in ("l1.json", "l2.json"):
            proc = run_cli(
                "cluster", "--data", str(prefix), "--k", "2", "--seed", "3",
                "--out", str(tmp_path / name),
            )
            outs.append((proc.stdout, (tmp_path / name).read_bytes()))
        assert outs[0][0].replace("l1", "l") == outs[1][0].replace("l2", "l")
        assert outs[0][1] == outs[1][1]


class TestCheck:
    def test_noiseless_zero_noise(self, tmp_path):
        prefix = generate_noiseless(tmp_path)
        proc = run_cli("check", "--data", str(prefix))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["spectral_noise_sq"] == 0.0

    def test_bsbm_lhs_matches_hand_value(self, tmp_path):
        out = tmp_path / "b"
        run_cli("generate", "--bsbm", BSBM, "--seed", "0", "--out", str(out))
        proc = run_cli("check", "--data", str(out))
        report = json.loads(proc.stdout)
        sigma_sq = 2 * 0.4 * 0.6
        assert report["bsbm_lhs"] == pytest.approx((0.4 - 0.1) ** 2 / sigma_sq)

    def test_malformed_sidecar_exits_2(self, tmp_path, capsys):
        from specluster.cli import main

        prefix = generate_noiseless(tmp_path)
        sidecar = json.loads((tmp_path / "noiseless.json").read_text())
        (tmp_path / "noiseless.json").write_text("{broken")
        proc = run_cli("check", "--data", str(prefix))
        assert proc.returncode == 2
        bsbm = {"m": 16, "n": 6, "k": 2, "p": 0.4}
        for update, message in [
            ({"model": [1, 2]}, "model must hold a JSON object, got list"),
            ({"bsbm": bsbm}, "bsbm: missing 'q'"),
            ({"truth": [0.5] * 16}, "bad value for 'truth'"),
            ({"seed": "not a seed"}, "bad value for 'seed'"),
            ({"seed": 2.5}, "bad value for 'seed'"),
            ({"truth": "0" * 8 + "1" * 8}, "bad value for 'truth'"),
            (
                {"bsbm": {**bsbm, "q": 0.1, "left_sizes": "88", "right_assignment": [0, 1] * 3}},
                "bad value for 'left_sizes'",
            ),
            (
                {"model": {**sidecar["model"], "means": [[True] * 3 + [0] * 3, [0.0] * 6]}},
                "model: bad value for 'means'",
            ),
            (
                {"model": {**sidecar["model"], "weights": [0.5, True]}},
                "model: bad value for 'weights'",
            ),
        ]:
            (tmp_path / "noiseless.json").write_text(json.dumps({**sidecar, **update}))
            for command in (["check"], ["cluster", "--k", "2", "--out", str(tmp_path / "l")]):
                assert main([*command, "--data", str(prefix)]) == 2
                assert message in capsys.readouterr().err

        # A sidecar bsbm of another shape than the matrix, or with another
        # p than its model, was read as written, and check exited 0.
        prefix = tmp_path / "b"
        assert main(["generate", "--bsbm", "m=40,n=20,k=2,p=0.4,q=0.1", "--out", str(prefix)]) == 0
        sidecar = json.loads((tmp_path / "b.json").read_text())
        for update, message in [
            ({"m": 30, "left_sizes": [15, 15]}, "bsbm is 30x20, the matrix 40x20"),
            ({"p": 0.45}, "bsbm and model differ in 'means'"),
        ]:
            edited = {**sidecar, "bsbm": {**sidecar["bsbm"], **update}}
            (tmp_path / "b.json").write_text(json.dumps(edited))
            for command in (["check"], ["cluster", "--k", "2", "--out", str(tmp_path / "l")]):
                assert main([*command, "--data", str(prefix)]) == 2
                assert message in capsys.readouterr().err

    @pytest.mark.parametrize("part, key, value, message", [
        (None, "trut", [0], "unknown key 'trut'"),
        ("model", "sigma", 0.2, "model: unknown key 'sigma'"),
        ("bsbm", "left_size", [20, 20, 20], "bsbm: unknown key 'left_size'"),
        (None, "format_version", 99, "unsupported format_version 99"),
    ], ids=["top-level", "model", "bsbm", "version"])
    def test_unknown_sidecar_key_or_version_exits_2(self, tmp_path, capsys, part, key, value,
                                                    message):
        # Misspelled list keys were ignored, and the B-SBM below was rebuilt
        # as balanced: check printed bsbm_rhs_shape 0.675 instead of 1.35.
        from specluster.cli import main

        model_file, prefix = tmp_path / "model.json", tmp_path / "d"
        model_file.write_text(json.dumps({
            "kind": "bsbm", "m": 60, "n": 30, "k": 3, "p": 0.5, "q": 0.1,
            "left_sizes": [20, 20, 20], "right_assignment": [0] * 2 + [1] * 8 + [2] * 20,
        }))
        assert main(["generate", "--model", str(model_file), "--out", str(prefix)]) == 0
        sidecar = json.loads((tmp_path / "d.json").read_text())
        del sidecar["format_version"]
        (tmp_path / "d.json").write_text(json.dumps(sidecar))
        capsys.readouterr()
        assert main(["check", "--data", str(prefix)]) == 0
        assert json.loads(capsys.readouterr().out)["bsbm_rhs_shape"] == 1.35
        (sidecar[part] if part else sidecar)[key] = value
        (tmp_path / "d.json").write_text(json.dumps(sidecar))
        assert main(["check", "--data", str(prefix)]) == 2
        assert message in capsys.readouterr().err

    def test_missing_sidecar_exits_2(self, tmp_path):
        prefix = generate_noiseless(tmp_path)
        (tmp_path / "noiseless.json").unlink()
        proc = run_cli("check", "--data", str(prefix))
        assert proc.returncode == 2

    @pytest.mark.parametrize("k, sidecar, message", [
        (2, False, "error: condition report needs model metadata and truth labels\n"),
        (1, True, "error: condition report needs at least two components\n"),
    ], ids=["no sidecar", "one component"])
    def test_report_input_errors_come_before_the_noise(self, tmp_path, monkeypatch, capsys,
                                                       k, sidecar, message):
        # check writes A - E over its matrix; a dataset the report refuses
        # exits 2 before the noise is built or its norm taken.
        from specluster import analysis, cli

        calls = []
        for module in (cli, analysis):
            for name in ("noise_matrix", "spectral_norm"):
                real = getattr(module, name)

                def counted(*args, _real=real, _name=name, **kwargs):
                    calls.append(_name)
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        prefix = generate_noiseless(tmp_path, k=k)
        if not sidecar:
            (tmp_path / "noiseless.json").unlink()
        assert cli.main(["check", "--data", str(prefix)]) == 2
        assert capsys.readouterr().err == message
        assert calls == []

    def test_malformed_mtx_exits_2(self, tmp_path):
        prefix = generate_noiseless(tmp_path)
        (tmp_path / "noiseless.mtx").write_text(
            "%%MatrixMarket matrix array integer general\n-4 -2\n" + "0\n" * 8
        )
        proc = run_cli("check", "--data", str(prefix))
        assert proc.returncode == 2
        assert "size line must be two nonnegative integers" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_arpack_failure_exits_1(self, tmp_path, monkeypatch, capsys):
        import scipy.sparse.linalg

        from specluster.cli import main

        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("No convergence", [], [])

        # 200x200: the norm and the halves' SVD (100x200) both run ARPACK.
        out = tmp_path / "big"
        run_cli("generate", "--bsbm", "m=200,n=200,k=2,p=0.4,q=0.1", "--out", str(out))
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        assert main(["check", "--data", str(out)]) == 1
        assert "convergence failure: spectral norm" in capsys.readouterr().err
        labels = tmp_path / "labels.json"
        assert main(["cluster", "--data", str(out), "--k", "2", "--out", str(labels)]) == 1
        assert "convergence failure: truncated SVD" in capsys.readouterr().err
        assert not labels.exists()


def test_generate_and_check_do_not_load_scipy_optimize(tmp_path):
    # A fresh interpreter: in this one other tests have loaded scipy.  No
    # command, matching or sweep worker loads scipy.optimize; generate and
    # check load no matching module at all, and on a side of at most 64 no
    # scipy module.
    script = textwrap.dedent(
        """
        import os
        import sys

        import numpy as np

        from specluster import SweepSpec, harness, run_sweep
        from specluster.analysis import match_centers_to_means
        from specluster.cli import main
        from specluster.models import load_dataset
        from specluster.pipeline import CenterSet

        def loaded():
            names = {"scipy.optimize", "scipy.sparse.csgraph", "scipy.sparse.linalg"}
            return names & set(sys.modules)

        assert not loaded(), loaded()
        out = sys.argv[1]
        assert main(["generate", "--bsbm", "m=400,n=64,k=2,p=0.4,q=0.1", "--out", out]) == 0
        assert main(["check", "--data", out]) == 0
        assert not [name for name in sys.modules if name.startswith("scipy")]
        assert main(["generate", "--bsbm", "m=80,n=80,k=2,p=0.4,q=0.1", "--out", out]) == 0
        assert main(["check", "--data", out]) == 0
        assert loaded() == {"scipy.sparse.linalg"}, loaded()

        # The dataset has truth, so cluster matches both the centers and,
        # in score, the labels.
        argv = ["cluster", "--data", out, "--k", "2", "--out", out + ".labels.json"]
        assert main(argv + ["--diagnostics"]) == 0
        assert loaded() == {"scipy.sparse.csgraph", "scipy.sparse.linalg"}, loaded()

        model = load_dataset(out).model
        flipped = CenterSet(model.means[::-1].copy(), np.array([40, 40]))
        assert np.array_equal(match_centers_to_means(flipped, model).centers, model.means)

        parent = os.getpid()
        real_trial = harness.run_trial

        def checked_trial(*args):
            record = real_trial(*args)
            assert os.getpid() != parent, "the trial ran in the parent"
            assert "scipy.optimize" not in sys.modules, "a sweep worker loaded scipy.optimize"
            return record

        harness.run_trial = checked_trial
        spec = SweepSpec(
            family="bsbm", axes={"p": [0.4]}, fixed={"m": 40, "n": 40, "k": 2, "q": 0.1},
            trials_per_cell=2, base_seed=0, diagnostics=harness.DIAGNOSTICS,
        )
        assert len(run_sweep(spec, workers=2).records) == 2
        assert "scipy.optimize" not in sys.modules
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "d")],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_the_sweep_harness_unloaded():
    # A fresh interpreter: in this one other tests have loaded the harness.
    script = textwrap.dedent(
        """
        import sys
        import specluster.cli

        unwanted = {"specluster.harness", "multiprocessing"} & set(sys.modules)
        assert not unwanted, unwanted
        import specluster

        run_sweep = specluster.run_sweep  # loads the harness
        assert run_sweep is sys.modules["specluster.harness"].run_sweep
        assert not hasattr(specluster, "no_such_name")
        namespace = {}
        exec("from specluster import *", namespace)
        assert set(specluster.__all__) <= set(namespace), set(specluster.__all__) - set(namespace)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=cli_env()
    )
    assert proc.returncode == 0, proc.stderr


class TestSweep:
    def spec_file(self, tmp_path, trials=1):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "family": "bsbm",
                    "axes": {"p": [0.45]},
                    "fixed": {"m": 16, "n": 12, "k": 2, "q": 0.05},
                    "trials_per_cell": trials,
                    "base_seed": 0,
                }
            )
        )
        return path

    def test_single_cell_csv(self, tmp_path):
        spec = self.spec_file(tmp_path)
        proc = run_cli("sweep", "--spec", str(spec), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert len(lines) == 2  # header + one cell

    def test_rerun_identical(self, tmp_path):
        spec = self.spec_file(tmp_path, trials=2)
        run_cli("sweep", "--spec", str(spec), "--out", str(tmp_path / "a"), "--trial-log")
        run_cli("sweep", "--spec", str(spec), "--out", str(tmp_path / "b"), "--trial-log")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_invalid_spec_exits_2(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"family": "bsbm", "axes": {}, "trials_per_cell": 1}))
        proc = run_cli("sweep", "--spec", str(path), "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_cell_key_exits_2(self, tmp_path, capsys):
        from specluster.cli import main

        path = tmp_path / "spec.json"
        fixed = {"m": 20, "n": 10, "k": 2, "q": 0.1}
        for extra, key in (({"left_size": [5, 15]}, "left_size"), ({"trials": 99}, "trials")):
            spec = {"family": "bsbm", "axes": {"p": [0.4]}, "fixed": {**fixed, **extra},
                    "trials_per_cell": 1}
            path.write_text(json.dumps(spec))
            assert main(["sweep", "--spec", str(path), "--out", str(tmp_path / "x")]) == 2
            assert f": unknown key '{key}'" in capsys.readouterr().err
            assert not (tmp_path / "x.csv").exists()

    def test_malformed_cell_value_exits_2(self, tmp_path, capsys):
        from specluster.cli import main

        path = tmp_path / "spec.json"
        spec = {
            "family": "bsbm",
            "axes": {"p": [0.45]},
            "fixed": {"m": "x", "n": 12, "k": 2, "q": 0.05},
            "trials_per_cell": 1,
        }
        path.write_text(json.dumps(spec))
        assert main(["sweep", "--spec", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "bad value for 'm'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

        fixed = {"m": 16, "n": 12, "k": 2, "q": 0.05}

        def general(**fields):
            mixture = {"m": 8, "means": [[1, 0], [0, 1]], "weights": [0.5, 0.5]}
            return {"family": "general", "fixed": {**mixture, **fields}}

        for update, message in [
            ({"fixed": {**fixed, "m": 20.9, "k": 2.7}}, "bad value for 'm'"),
            ({"fixed": {**fixed, "k": 2.7}}, "bad value for 'k'"),
            ({"fixed": {"m": 16, "n": 12, "k": 2}}, ": missing 'q'"),
            ({"trials_per_cell": 1.5}, "bad value for 'trials_per_cell'"),
            ({"base_seed": True}, "bad value for 'base_seed'"),
            ({"margin_draws": 2.5}, "bad value for 'margin_draws'"),
            (general(sigma_sq=math.nan), "sigma_sq must be finite"),
            (general(sigma_sq=math.inf), "sigma_sq must be finite"),
            (general(weights=[math.nan, math.nan]), "weights must be finite"),
            ({"diagnostic": ["conditions"]}, ": unknown key 'diagnostic'"),
            ({"margin_draw": 5}, ": unknown key 'margin_draw'"),
            (
                {"fixed": {**fixed, "left_sizes": "88", "right_assignment": [0] * 6 + [1] * 6}},
                "bad value for 'left_sizes'",
            ),
            ({"fixed": {**fixed, "q": False}}, "bad value for 'q'"),
            (general(sigma_sq=True), "bad value for 'sigma_sq'"),
            (general(means=[[True, False], [False, True]]), "bad value for 'means'"),
            (general(weights=[0.5, True]), "bad value for 'weights'"),
        ]:
            path.write_text(json.dumps({**spec, "fixed": fixed, **update}))
            assert main(["sweep", "--spec", str(path), "--out", str(tmp_path / "x")]) == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "x.csv").exists()

    def test_axis_named_in_fixed_exits_2(self, tmp_path, monkeypatch, capsys):
        # The axis used to win silently: p = 0.3 ran, and the fixed p = 0.1 never did.
        from specluster import harness
        from specluster.cli import main

        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "family": "bsbm", "axes": {"p": [0.3]},
            "fixed": {"m": 16, "n": 12, "k": 2, "p": 0.1, "q": 0.05}, "trials_per_cell": 1,
        }))
        assert main(["sweep", "--spec", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "'p' is both a grid axis and a fixed parameter" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_exits_2(self, tmp_path, workers):
        spec = self.spec_file(tmp_path)
        proc = run_cli(
            "sweep", "--spec", str(spec), "--out", str(tmp_path / "x"), "--workers", workers
        )
        assert proc.returncode == 2
        assert f"workers must be at least 1, got {workers}" in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    def test_failing_trial_in_a_worker_exits_1(self, tmp_path, monkeypatch, capsys):
        from specluster import ConvergenceError, harness
        from specluster.cli import main

        def no_convergence(matrix, k, seed):
            raise ConvergenceError(f"trial seed {seed} did not converge")

        spec = self.spec_file(tmp_path, trials=3)
        monkeypatch.setattr(harness, "cluster", no_convergence)
        out = tmp_path / "x"
        assert main(["sweep", "--spec", str(spec), "--out", str(out), "--workers", "2"]) == 1
        (params,) = harness.SweepSpec.from_json(spec).cells()
        first = harness.derive(0, harness.cell_index(params), 0)
        err = capsys.readouterr().err
        assert f"convergence failure: trial seed {first} did not converge" in err
        assert not (tmp_path / "x.csv").exists()

    def test_blas_threads_do_not_change_outputs(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "family": "bsbm",
                    "axes": {"p": [0.2, 0.45], "k": [2, 4]},
                    "fixed": {"m": 400, "n": 400, "q": 0.05},
                    "trials_per_cell": 1,
                    "base_seed": 0,
                    "diagnostics": ["conditions", "center_error", "overlap", "margins"],
                }
            )
        )
        for threads in ("1", "2"):
            proc = run_cli(
                "sweep", "--spec", str(spec), "--out", str(tmp_path / f"t{threads}"),
                "--trial-log", "--workers", "2", env_extra={"OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
        assert (tmp_path / "t1.jsonl").read_bytes() == (tmp_path / "t2.jsonl").read_bytes()

    def test_pool_completes_with_blas_unpinned(self, tmp_path):
        # The parent forks its workers while OpenBLAS's own threads are
        # alive; the pool must neither hang nor change the outputs.
        script = textwrap.dedent(
            """
            import sys
            from pathlib import Path
            import numpy as np
            from specluster import SweepSpec, run_sweep, write_csv, write_records_jsonl
            a = np.ones((400, 400)); a @ a
            status = Path("/proc/self/status")
            if status.is_file():
                print(status.read_text().split("Threads:")[1].split()[0])
            spec = SweepSpec(
                family="bsbm", axes={"p": [0.2, 0.45], "k": [2, 4]},
                fixed={"m": 400, "n": 400, "q": 0.05}, trials_per_cell=1, base_seed=0,
                diagnostics=("conditions", "center_error", "overlap", "margins"),
            )
            result = run_sweep(spec, workers=int(sys.argv[1]))
            write_csv(result, sys.argv[2] + ".csv")
            write_records_jsonl(result, sys.argv[2] + ".jsonl")
            """
        )
        env = cli_env()
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.pop(var, None)
        for workers, extra in (("1", {"OPENBLAS_NUM_THREADS": "1"}), ("2", {})):
            proc = subprocess.run(
                [sys.executable, "-c", script, workers, str(tmp_path / f"w{workers}")],
                capture_output=True, text=True, env={**env, **extra}, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
        threads = proc.stdout.split()
        if threads and len(os.sched_getaffinity(0)) > 1:
            assert int(threads[0]) > 1  # BLAS threads were running at the fork
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()
        assert (tmp_path / "w1.jsonl").read_bytes() == (tmp_path / "w2.jsonl").read_bytes()


class TestRoundTrip:
    def test_matrix_survives_cycle(self, tmp_path):
        from specluster import load_dataset

        out = tmp_path / "cycle"
        run_cli("generate", "--bsbm", BSBM, "--seed", "3", "--out", str(out))
        ds = load_dataset(out)
        from specluster import save_dataset

        save_dataset(ds, tmp_path / "again")
        assert (tmp_path / "again.mtx").read_bytes() == (tmp_path / "cycle.mtx").read_bytes()


# One valid spec of each family, in model-file keys without "kind".
SPECS = {
    "bsbm": {"m": 12, "n": 6, "k": 2, "p": 0.4, "q": 0.1, "left_sizes": [4, 8],
             "right_assignment": [0, 1, 0, 1, 1, 0]},
    "mixture": {"m": 8, "means": [[1, 0.5, 0], [0, 0.5, 1]], "weights": [0.25, 0.75],
                "sigma_sq": 1.0},
}


class TestSpecReaders:
    """A model file, a sweep cell and a sidecar read one spec alike."""

    @staticmethod
    def readers(tmp_path, kind, spec):
        """Each entry point's reader of ``spec`` as (where, read), where ``read``
        returns the (model, bsbm) it builds."""
        from specluster import SweepSpec, bsbm_to_mixture, load_dataset
        from specluster.cli import _model_from_file
        from specluster.harness import build_cell
        from specluster.models import write_matrix_market

        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps({"kind": kind, **spec}))

        family = "general" if kind == "mixture" else kind
        fixed = {key: value for key, value in spec.items() if key != "m"}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(
            {"family": family, "axes": {"m": [spec["m"]]}, "fixed": fixed, "trials_per_cell": 1}
        ))
        cell = SweepSpec.from_json(spec_file).cells()[0]

        # A sidecar holds a B-SBM whole, and a mixture without m.
        part = "bsbm" if kind == "bsbm" else "model"
        n = spec["n"] if kind == "bsbm" else len(spec["means"][0])
        write_matrix_market(tmp_path / "d.mtx", np.zeros((spec["m"], n)))
        (tmp_path / "d.json").write_text(json.dumps({part: spec if kind == "bsbm" else fixed}))

        def from_sidecar():
            dataset = load_dataset(tmp_path / "d")
            if dataset.bsbm is None:
                return dataset.model, None
            return bsbm_to_mixture(dataset.bsbm), dataset.bsbm

        return [
            (f"model file {model_file}", lambda: _model_from_file(model_file)[::2]),
            (f"cell {cell}", lambda: build_cell(family, cell)[::2]),
            (f"sidecar {tmp_path / 'd.json'} {part}", from_sidecar),
        ]

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_same_model_at_every_entry(self, tmp_path, kind):
        def fingerprint(model, bsbm):
            out = [model.means.tobytes(), model.weights.tobytes(), repr(model.sigma_sq)]
            if bsbm is not None:
                out += [bsbm.m, bsbm.n, bsbm.k, repr(bsbm.p), repr(bsbm.q), bsbm.left_sizes,
                        bsbm.right_assignment.tobytes()]
            return out

        prints = [fingerprint(*read()) for _, read in self.readers(tmp_path, kind, SPECS[kind])]
        assert prints[0] == prints[1] == prints[2]

    @pytest.mark.parametrize("kind, update, message", [
        ("bsbm", {"q": None}, "missing 'q'"),
        ("bsbm", {"q": False}, "bad value for 'q'"),
        ("bsbm", {"p": 0.7}, "p and q must lie in [0, 0.5]"),
        ("bsbm", {"left_sizes": "48"}, "bad value for 'left_sizes'"),
        ("bsbm", {"right_assignment": [0, 1, 0, 1, 1, 2]}, "labels must lie in [0, k)"),
        ("bsbm", {"left_size": [4, 8]}, "unknown key 'left_size'"),
        ("mixture", {"weights": None}, "missing 'weights'"),
        ("mixture", {"sigma_sq": True}, "bad value for 'sigma_sq'"),
        ("mixture", {"weights": [0.5, 0.6]}, "weights must sum to 1"),
        ("mixture", {"sigma": 1.0}, "unknown key 'sigma'"),
        # Values come before keys: the bad value is named, not the unknown key.
        ("bsbm", {"q": "x", "trials": 1}, "bad value for 'q'"),
        ("mixture", {"means": "x", "k": 2}, "bad value for 'means'"),
        # A bool among numbers was read as 1.0.
        ("mixture", {"means": [[1, 0.5, 0], [0, True, 1]]}, "bad value for 'means'"),
    ])
    def test_same_message_at_every_entry(self, tmp_path, kind, update, message):
        from specluster import InvalidInputError

        spec = {**SPECS[kind], **update}
        spec = {key: value for key, value in spec.items() if value is not None}
        messages = set()
        for where, read in self.readers(tmp_path, kind, spec):
            with pytest.raises(InvalidInputError) as error:
                read()
            text = str(error.value)
            messages.add(text.removeprefix(f"{where}: "))
        assert len(messages) == 1, messages
        assert message in messages.pop()


class TestEntry:
    """``python -m specluster`` and the console script go through ``cli.run``,
    which freezes the heap before exit; ``main`` is the in-process entry."""

    BIG = "m=80,n=80,k=2,p=0.4,q=0.1"  # above the LAPACK cutover: ARPACK runs

    def commands(self, spec_path):
        return [
            ["generate", "--bsbm", self.BIG, "--seed", "4", "--out", "data"],
            ["cluster", "--data", "data", "--k", "2", "--seed", "4", "--out", "labels.json",
             "--diagnostics"],
            ["check", "--data", "data"],
            ["sweep", "--spec", str(spec_path), "--out", "sweep", "--trial-log",
             "--workers", "2"],
        ]

    def test_commands_leave_no_unclosed_file(self, tmp_path, monkeypatch):
        # run() freezes the heap instead of collecting it at exit, which is
        # safe only if no command leaves a file for the collector to close.
        import gc

        from specluster.cli import main

        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            for argv in self.commands(TestSweep().spec_file(tmp_path, trials=2)):
                assert main(argv) == 0, argv
            gc.collect()
        assert [str(u.exc_value) for u in unraisable] == []

    def test_module_entry_matches_in_process_main(self, tmp_path, monkeypatch, capsys):
        from specluster.cli import main

        spec = TestSweep().spec_file(tmp_path, trials=2)
        child, here = tmp_path / "child", tmp_path / "here"
        child.mkdir()
        here.mkdir()
        monkeypatch.chdir(here)
        failing = [
            ["check", "--data", "missing"],  # InvalidInputError: main returns 2
            ["cluster", "--data", "data"],  # argparse: main raises SystemExit(2)
        ]
        for argv in self.commands(spec) + failing:
            proc = run_cli(*argv, cwd=child)
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
            assert proc.returncode == status == (0 if argv not in failing else 2), argv
            assert proc.stdout == capsys.readouterr().out, argv
        names = sorted(p.name for p in here.iterdir())
        assert names == sorted(p.name for p in child.iterdir())
        assert names == [
            "data.json", "data.mtx", "labels.json", "sweep.csv", "sweep.jsonl"
        ]
        for name in names:
            assert (child / name).read_bytes() == (here / name).read_bytes(), name

    def test_console_script_is_run(self):
        from pathlib import Path

        from specluster.cli import run

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = pyproject.read_text().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert scripts.strip().splitlines() == ['specluster = "specluster.cli:run"']
        assert callable(run)
