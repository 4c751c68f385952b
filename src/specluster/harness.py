"""Seeded Monte-Carlo sweeps over model-parameter grids.

A sweep evaluates the full pipeline (and optional bound diagnostics) on
every cell of a parameter grid, ``trials_per_cell`` times.  Trial seeds
depend only on (base_seed, cell parameters, trial index) — the cell key is
a hash of the parameter values, not the grid position — so editing the grid
never shifts the seeds of surviving cells, and trials can run concurrently
with a deterministic reduction.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import rng
from .analysis import (
    center_error_check,
    condition_report,
    margin_batch,
    match_centers_to_means,
    overlap_check,
    score,
)
from .errors import InvalidInputError
from .linalg import (
    _can_fork,
    _one_thread,
    _usable_cpus,
    as_count,
    as_int,
    import_scipy,
    spectral_norm,
)
from .models import (
    BinaryDataset,
    check_keys,
    model_from_spec,
    noise_matrix,
    read_json,
    sample,
    spec_value,
    strict_int,
)
from .pipeline import cluster, find_centers_detailed


def _mean(values) -> float:
    return sum(values) / len(values)


def _count(values) -> int:
    return sum(1 for v in values if v)


# Aggregate CSV columns of each diagnostic, in stable order, as
# (column, per-trial diagnostics key, reducer over the cell's trials).
_DIAG_COLUMNS = {
    "conditions": (
        ("mean_talagrand_ratio", "talagrand_ratio", _mean),
        ("mean_noise_to_threshold", "noise_to_threshold", _mean),
    ),
    "center_error": (
        ("center_error_hold_count", "center_error_holds", _count),
        ("mean_max_center_error", "max_center_error", _mean),
    ),
    "overlap": (
        ("overlap_hold_count", "overlap_holds", _count),
        ("mean_min_overlap", "min_overlap", _mean),
    ),
    "margins": (
        ("margin_correct_fraction", "margin_correct_fraction", _mean),
        ("margin_part1_fraction", "margin_part1_fraction", _mean),
        ("margin_part2_fraction", "margin_part2_fraction", _mean),
    ),
}

DIAGNOSTICS = tuple(_DIAG_COLUMNS)

_BASE_COLUMNS = ("trials", "exact_count", "mean_accuracy")

# The model spec kind of each sweep family.
_FAMILY_KINDS = {"bsbm": "bsbm", "general": "mixture"}


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one sweep.

    ``axes`` maps parameter names to value lists; cells are the cartesian
    product of the axes merged with ``fixed``, which may name no axis.
    ``family`` selects the model builder: "bsbm" (parameters m, n, k, p, q;
    balanced clusters unless left_sizes and right_assignment are given, as
    in a model file) or "general" (parameters m, means, weights, and
    optionally sigma_sq).
    """

    family: str
    axes: dict
    fixed: dict
    trials_per_cell: int
    base_seed: int
    diagnostics: tuple[str, ...] = ()
    margin_draws: int = 200

    def __post_init__(self):
        if self.family not in ("bsbm", "general"):
            raise InvalidInputError(f"unknown model family {self.family!r}")
        if not self.axes:
            raise InvalidInputError("sweep needs at least one grid axis")
        for name, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise InvalidInputError(f"axis {name!r} must be a nonempty list")
            if name in self.fixed:
                raise InvalidInputError(f"{name!r} is both a grid axis and a fixed parameter")
        for name in ("trials_per_cell", "margin_draws"):
            object.__setattr__(self, name, as_count(getattr(self, name), name, 1))
        object.__setattr__(self, "base_seed", as_int(self.base_seed, "base_seed"))
        if not isinstance(self.diagnostics, (list, tuple)) or not all(
            isinstance(name, str) for name in self.diagnostics
        ):
            raise InvalidInputError(
                f"diagnostics must be a list of names, got {self.diagnostics!r}"
            )
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))
        unknown = set(self.diagnostics) - set(DIAGNOSTICS)
        if unknown:
            raise InvalidInputError(f"unknown diagnostics: {sorted(unknown)}")

    @classmethod
    def from_json(cls, path) -> "SweepSpec":
        where = f"sweep spec {path}"
        obj = read_json(path, "sweep spec")
        family = spec_value(obj, "family", str, where)  # also checks obj is an object
        check_keys(obj, [f.name for f in fields(cls)], where)
        obj = {"fixed": {}, "base_seed": 0, "diagnostics": (), "margin_draws": 200, **obj}
        return cls(
            family=family,
            axes=spec_value(obj, "axes", dict, where),
            fixed=spec_value(obj, "fixed", dict, where),
            trials_per_cell=spec_value(obj, "trials_per_cell", strict_int, where),
            base_seed=spec_value(obj, "base_seed", strict_int, where),
            diagnostics=obj["diagnostics"],
            margin_draws=spec_value(obj, "margin_draws", strict_int, where),
        )

    def cells(self) -> list[dict]:
        """Cell parameter dicts in deterministic grid order."""
        names = sorted(self.axes)
        out = []
        for combo in itertools.product(*(self.axes[name] for name in names)):
            params = dict(self.fixed)
            params.update(dict(zip(names, combo)))
            out.append(params)
        return out


def cell_index(params: dict) -> int:
    """Stable 64-bit key of a cell's canonical JSON-encoded parameters."""
    payload = json.dumps(params, sort_keys=True, separators=(",", ":")).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


def derive(base_seed: int, cell: int, trial: int) -> int:
    """Collision-resistant 63-bit trial seed from the integers (base_seed, cell, trial)."""
    return rng.mix64(rng.TAG_TRIAL, base_seed, cell, trial) & ((1 << 63) - 1)


def build_cell(family: str, params: dict):
    """(model, m, bsbm-or-None) of one cell, read as a model file of its
    family is, without ``kind``: a typo or a parameter named like a CSV
    column raises InvalidInputError once the values are checked."""
    return model_from_spec(params, _FAMILY_KINDS[family], f"cell {params}")


@dataclass(frozen=True)
class TrialRecord:
    parameters: dict
    trial: int
    seed: int
    exact: bool
    accuracy: float
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CellAggregate:
    parameters: dict
    trials: int
    exact_count: int
    mean_accuracy: float
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    cells: tuple[CellAggregate, ...]
    records: tuple[TrialRecord, ...]


def run_trial(spec: SweepSpec, params: dict, trial: int) -> TrialRecord:
    model, m, bsbm = build_cell(spec.family, params)
    k = model.k
    seed = derive(spec.base_seed, cell_index(params), trial)
    dataset = sample(model, m, seed)
    dataset.bsbm = bsbm
    labels = cluster(dataset.matrix, k, seed)
    sc = score(labels, dataset.truth, k)
    diag: dict = {}
    if spec.diagnostics:
        diag = _run_diagnostics(spec, dataset, model, k, seed)
    return TrialRecord(
        parameters=params,
        trial=trial,
        seed=seed,
        exact=sc.exact,
        accuracy=sc.accuracy,
        diagnostics=diag,
    )


def _run_diagnostics(spec, dataset: BinaryDataset, model, k, seed) -> dict:
    out: dict = {}
    if {"conditions", "center_error"} & set(spec.diagnostics):
        noise = spectral_norm(noise_matrix(dataset.matrix, model, dataset.truth))
    if "conditions" in spec.diagnostics:
        report = condition_report(dataset, spectral_noise=noise)
        out["talagrand_ratio"] = report.talagrand_ratio
        out["noise_to_threshold"] = (
            report.spectral_noise_sq / report.spectral_threshold
            if report.spectral_threshold > 0
            else float("inf")
        )
    needs_centers = {"center_error", "overlap", "margins"} & set(spec.diagnostics)
    if needs_centers:
        detail = find_centers_detailed(dataset.matrix, k, rng.mix64(seed, rng.TAG_DIAG))
        matched = match_centers_to_means(detail.center_set, model)
        if "center_error" in spec.diagnostics:
            rep = center_error_check(matched, model, noise, dataset.m)
            out["center_error_holds"] = rep.within_bound
            out["max_center_error"] = float(rep.errors.max())
        if "overlap" in spec.diagnostics:
            fractions = overlap_check(detail.labels, dataset.truth, k)
            out["overlap_holds"] = bool(np.all(fractions >= 0.9))
            out["min_overlap"] = float(fractions.min())
        if "margins" in spec.diagnostics:
            draws = correct = part1 = part2 = 0
            for r in range(k):
                fresh = rng.bernoulli_grid(
                    rng.mix64(seed, rng.TAG_FRESH, r),
                    np.arange(spec.margin_draws),
                    model.means,
                    np.full(spec.margin_draws, r),
                )
                batch = margin_batch(fresh, r, matched, model)
                draws += batch.draws
                correct += batch.correct
                part1 += batch.part1_all
                part2 += batch.part2_all
            out["margin_correct_fraction"] = correct / draws
            out["margin_part1_fraction"] = part1 / draws
            out["margin_part2_fraction"] = part2 / draws
    return out


def _diag_columns(spec: SweepSpec) -> list[tuple]:
    """The (column, key, reducer) entries of the spec's diagnostics, in CSV order."""
    return [entry for d in DIAGNOSTICS if d in spec.diagnostics for entry in _DIAG_COLUMNS[d]]


def _aggregate(spec: SweepSpec, params: dict, records: list[TrialRecord]) -> CellAggregate:
    diag = {
        column: reduce([r.diagnostics[key] for r in records])
        for column, key, reduce in _diag_columns(spec)
    }
    return CellAggregate(
        params,
        len(records),
        _count([r.exact for r in records]),
        _mean([r.accuracy for r in records]),
        diag,
    )


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepResult:
    """Run every (cell, trial) and aggregate per cell.

    All cells are validated before any trial runs.  With the ``conditions``
    or ``center_error`` diagnostic, a cell whose model has one component is
    rejected, since it has no separation; with ``conditions``, so is one
    whose model has sigma_sq = 0, since its Talagrand ratio would divide by
    zero.  Trials run in a pool of ``workers`` processes (default: the CPUs
    this process may use, capped at the number of trials).  Workers are
    forked rather than spawned, so they do not pay the package import again;
    with one worker, or where ``fork`` is unavailable, trials run inline.  The package imports scipy on first
    use, so the pool branch imports it before forking, and the workers
    inherit it instead of each importing it again.  Records are collected
    in grid order, so the result is the same for every worker count.  When
    trials raise, the queued ones are cancelled and the error of the first
    failing trial in grid order is re-raised, as the inline run would raise
    it.

    Forking copies only the calling thread.  A caller that has other
    threads running should pass ``workers=1``: a lock one of them holds at
    the fork stays held in the workers, and Python 3.12+ warns.  OpenBLAS
    stops its own thread pool before a fork, so unpinned BLAS threads are
    safe; each worker then runs OpenBLAS and ARPACK's Gram products on one
    thread, and both halves of ``cluster`` inline.
    """
    if workers is not None:
        workers = as_count(workers, "workers", 1)
    cells = spec.cells()
    for params in cells:
        model = build_cell(spec.family, params)[0]
        for diagnostic in ("conditions", "center_error"):
            if diagnostic in spec.diagnostics and model.k < 2:
                raise InvalidInputError(
                    f"cell {params}: the {diagnostic} diagnostic needs at least two components"
                )
        if "conditions" in spec.diagnostics and model.sigma_sq <= 0:
            raise InvalidInputError(f"cell {params}: the conditions diagnostic needs sigma_sq > 0")

    tasks = [(params, t) for params in cells for t in range(spec.trials_per_cell)]
    workers = min(workers or _usable_cpus(), len(tasks))
    if workers > 1 and _can_fork():
        import_scipy()
        pool = ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"), initializer=_one_thread
        )
        try:
            records = tuple(
                pool.map(run_trial, itertools.repeat(spec), *zip(*tasks), chunksize=1)
            )
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        records = tuple(run_trial(spec, params, t) for params, t in tasks)

    per_cell = spec.trials_per_cell
    aggregates = tuple(
        _aggregate(spec, params, list(records[ci * per_cell : (ci + 1) * per_cell]))
        for ci, params in enumerate(cells)
    )
    return SweepResult(spec, aggregates, records)


def csv_columns(spec: SweepSpec) -> list[str]:
    """Stable CSV header: sorted parameter names, then aggregate columns."""
    names = sorted(set(spec.fixed) | set(spec.axes))
    return names + list(_BASE_COLUMNS) + [column for column, _, _ in _diag_columns(spec)]


def _csv_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(result: SweepResult, path) -> None:
    """One row per cell; column set and order given by :func:`csv_columns`."""
    columns = csv_columns(result.spec)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for cell in result.cells:
            # Every parameter name is a key of each cell's parameters, so the
            # columns split by position, whatever the names.
            n_params = len(cell.parameters)
            values = [cell.parameters[name] for name in columns[:n_params]]
            values += [cell.trials, cell.exact_count, cell.mean_accuracy]
            values += [cell.diagnostics[name] for name in columns[n_params + len(_BASE_COLUMNS) :]]
            writer.writerow([_csv_value(v) for v in values])


def write_records_jsonl(result: SweepResult, path) -> None:
    """Per-trial records as JSON Lines, in deterministic (cell, trial) order."""
    with open(path, "w") as handle:
        for record in result.records:
            handle.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
