"""Command-line front end: generate / cluster / check / sweep.

Machine-parseable JSON goes to stdout, human logs to stderr.  Exit codes:
0 success, 1 runtime or convergence failure, 2 invalid input.  The default
seed is 0; the SPECLUSTER_SEED environment variable overrides it, and an
explicit --seed flag overrides both.

:func:`run` is the process entry (``python -m specluster`` and the
``specluster`` console script); :func:`main` is the one to call in-process.
``run`` calls ``gc.freeze()`` after ``main`` returns and before the
interpreter exits.  Finalization otherwise ends with a full garbage
collection that walks every object of the numpy and scipy import graph:
60–100 ms of each command at 2000×2000 on a 2-vCPU host.  The command
needs none of it, since every file it writes is closed before ``main``
returns, so nothing is left for that collection to finalize.  ``main``
does not freeze, because an in-process caller goes on using its heap, and
a frozen heap is never collected.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import NoReturn

from .analysis import condition_report, report_model, score
from .errors import ConvergenceError, InvalidInputError, SpeclusterError
from .linalg import spectral_norm
from .models import (
    BSBM_KEYS,
    MIXTURE_KEYS,
    BinaryDataset,
    BsbmParams,
    MixtureModel,
    bsbm_from_spec,
    bsbm_to_mixture,
    check_keys,
    load_dataset,
    mixture_from_spec,
    noise_matrix,
    read_json,
    sample,
    save_dataset,
    spec_value,
    strict_int,
)
from .pipeline import cluster_detailed

ENV_SEED = "SPECLUSTER_SEED"


def _log(args, message: str) -> None:
    if getattr(args, "verbose", False):
        print(message, file=sys.stderr)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(ENV_SEED)
    if raw is not None:
        try:
            return int(raw)
        except ValueError as exc:
            raise InvalidInputError(f"{ENV_SEED} must be an integer, got {raw!r}") from exc
    return 0


def _parse_kv(text: str) -> dict:
    out = {}
    for item in text.split(","):
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise InvalidInputError(f"expected key=value, got {item!r}")
        key = key.strip()
        if key in out:
            raise InvalidInputError(f"repeated key {key!r}")
        out[key] = value.strip()
    return out


def _model_from_file(path) -> tuple[MixtureModel, int, BsbmParams | None]:
    obj = read_json(path, "model file")
    where = f"model file {path}"
    kind = spec_value(obj, "kind", str, where)
    if kind == "bsbm":
        check_keys(obj, ("kind", *BSBM_KEYS), where)
        params = bsbm_from_spec(obj, where)
        return bsbm_to_mixture(params), params.m, params
    if kind == "mixture":
        check_keys(obj, ("kind", "m", *MIXTURE_KEYS), where)
        return mixture_from_spec(obj, where), spec_value(obj, "m", strict_int, where), None
    raise InvalidInputError(f"{where}: 'kind' must be 'bsbm' or 'mixture'")


def _report_over_matrix(dataset: BinaryDataset) -> dict:
    """``condition_report(dataset).to_json()``, with A - E written over
    ``dataset.matrix``, which the command no longer needs: one m x n array
    is held, not two.  The report's own input errors are raised first,
    before anything is overwritten."""
    model = report_model(dataset)
    noise = noise_matrix(dataset.matrix, model, dataset.truth, out=dataset.matrix)
    return condition_report(dataset, spectral_noise=spectral_norm(noise)).to_json()


def cmd_generate(args) -> int:
    seed = _resolve_seed(args)
    if (args.bsbm is None) == (args.model is None):
        raise InvalidInputError("generate needs exactly one of --bsbm or --model")
    if args.bsbm is not None:
        spec = _parse_kv(args.bsbm)
        check_keys(spec, BSBM_KEYS[:5], "--bsbm")
        params = bsbm_from_spec(spec, "--bsbm")
        model, m, bsbm = bsbm_to_mixture(params), params.m, params
    else:
        model, m, bsbm = _model_from_file(args.model)
    dataset = sample(model, m, seed)
    dataset.bsbm = bsbm
    mtx_path, json_path = save_dataset(dataset, args.out)
    _log(args, f"wrote {mtx_path} and {json_path}")
    if model.k >= 2:
        _emit(_report_over_matrix(dataset))
    else:
        _emit({"note": "condition report needs at least two components"})
    return 0


def cmd_cluster(args) -> int:
    seed = _resolve_seed(args)
    dataset = load_dataset(args.data)
    detail = cluster_detailed(dataset.matrix, args.k, seed)
    labels = detail.labels.tolist()
    Path(args.out).write_text(json.dumps(labels) + "\n")
    _log(args, f"wrote labels to {args.out}")
    empty = args.k - len(set(labels))
    if empty:
        print(f"warning: {empty} of the {args.k} clusters are empty", file=sys.stderr)
    out: dict = {"labels_path": str(args.out)}
    if dataset.truth is not None:
        out.update(score(detail.labels, dataset.truth, args.k).to_json())
    if args.diagnostics:
        out["diagnostics"] = {
            "match_ambiguous": detail.match_ambiguous,
            "matching": detail.matching.tolist(),
            "half_sizes": [int(detail.first_half.size), int(detail.second_half.size)],
            "first_cluster_sizes": detail.first_centers.cluster_sizes.tolist(),
            "second_cluster_sizes": detail.second_centers.cluster_sizes.tolist(),
        }
    _emit(out)
    return 0


def cmd_check(args) -> int:
    dataset = load_dataset(args.data)
    _emit(_report_over_matrix(dataset))
    return 0


def cmd_sweep(args) -> int:
    # Imported here: only sweeps need the harness and its process pool.
    from .harness import SweepSpec, run_sweep, write_csv, write_records_jsonl

    spec = SweepSpec.from_json(args.spec)
    result = run_sweep(spec, workers=args.workers)
    csv_path = Path(args.out).with_suffix(".csv")
    write_csv(result, csv_path)
    out = {
        "csv": str(csv_path),
        "cells": len(result.cells),
        "trials_per_cell": spec.trials_per_cell,
        "records": None,
    }
    if args.trial_log:
        jsonl_path = Path(args.out).with_suffix(".jsonl")
        write_records_jsonl(result, jsonl_path)
        out["records"] = str(jsonl_path)
    _log(args, f"wrote {csv_path}")
    _emit(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specluster",
        description="Two-phase spectral clustering of binary data: generators, "
        "clustering, recovery-condition checks, and Monte-Carlo sweeps.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample a dataset and write it to disk")
    gen.add_argument("--bsbm", help="inline block model, e.g. m=400,n=400,k=2,p=0.45,q=0.05")
    gen.add_argument("--model", help="JSON model file (kind: bsbm | mixture)")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True, help="output path prefix")
    gen.set_defaults(func=cmd_generate)

    clu = sub.add_parser("cluster", help="cluster a dataset file")
    clu.add_argument("--data", required=True, help="dataset path prefix")
    clu.add_argument("--k", type=int, required=True)
    clu.add_argument("--seed", type=int, default=None)
    clu.add_argument("--out", required=True, help="labels JSON output path")
    clu.add_argument("--diagnostics", action="store_true")
    clu.set_defaults(func=cmd_cluster)

    chk = sub.add_parser("check", help="print the recovery-condition report")
    chk.add_argument("--data", required=True, help="dataset path prefix")
    chk.set_defaults(func=cmd_check)

    swp = sub.add_parser("sweep", help="run a Monte-Carlo parameter sweep")
    swp.add_argument("--spec", required=True, help="sweep spec JSON file")
    swp.add_argument("--out", required=True, help="output path prefix")
    swp.add_argument(
        "--workers", type=int, help="trial processes (default: usable CPUs, at most one per trial)"
    )
    swp.add_argument("--trial-log", action="store_true", help="also write per-trial JSON Lines")
    swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 1
    except SpeclusterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Run :func:`main` on ``sys.argv`` and exit with its status, skipping the
    exit-time collection of the heap (see the module docstring)."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
