"""Layer spans for the traced benchmark run.

Spans are recorded from outside the program: ``Tracer.install`` replaces,
at run time, every module-level binding of a traced function inside the
``specluster`` package with a wrapper that records (name, start, end,
parent).  ``from .x import f`` creates one binding per importing module, so
each binding is found by identity and wrapped, e.g. ``harness.spectral_norm``
and ``analysis.spectral_norm`` both report as ``linalg.spectral_norm``.

Only the traced run imports this module.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# Layer modules and the public functions whose calls are spanned.
TARGETS = (
    ("rng", ("uniform_grid", "permutation")),
    ("models", ("sample", "save_dataset", "load_dataset", "expected_from_truth")),
    ("linalg", ("truncated_svd", "spectral_norm", "match_center_sets")),
    ("kmeans", ("kmeans",)),
    ("pipeline", ("cluster_detailed", "find_centers_detailed", "assign")),
    (
        "analysis",
        (
            "score",
            "condition_report",
            "match_centers_to_means",
            "center_error_check",
            "overlap_check",
            "margin_batch",
        ),
    ),
    ("harness", ("run_trial", "run_sweep", "write_csv", "write_records_jsonl")),
    ("cli", ("main",)),
)

PACKAGE = "specluster"
OP = "op"  # the benchmark's own span around each timed op
CALIBRATION_CALLS = 20000


def span_names() -> list[str]:
    """Every name a layer span can carry; truncated_svd is split by path."""
    names = []
    for layer, funcs in TARGETS:
        for func in funcs:
            if func == "truncated_svd":
                names += [f"{layer}.{func}.subspace", f"{layer}.{func}.jacobi"]
            else:
                names.append(f"{layer}.{func}")
    return names


def _svd_path(args, kwargs) -> str:
    """Which truncated_svd path a call takes, from its input shape."""
    linalg = sys.modules["specluster.linalg"]
    a = args[0] if args else kwargs["a"]
    method = kwargs.get("method", args[4] if len(args) > 4 else "auto")
    if method == "auto":
        cutover = getattr(linalg, "JACOBI_CUTOVER", 64)
        method = "jacobi" if min(np.shape(a)) <= cutover else "subspace"
    return f"linalg.truncated_svd.{method}"


class Tracer:
    """In-memory span table plus counters read from returned values."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(_svd_path(args, kwargs) if name == "linalg.truncated_svd" else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if name == "kmeans.kmeans":
                self.counters["kmeans.kmeans.iterations"] += int(result.iterations)
                self.counters["kmeans.kmeans.degenerate"] += int(bool(result.degenerate))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of a traced function in the loaded package."""
        wrappers = {}
        for layer, funcs in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for func in funcs:
                fn = getattr(module, func, None)
                if fn is not None:
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{func}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def table(self) -> dict:
        return {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "counters": dict(self.counters),
        }


def self_times(table: dict) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    durations = [e - s for s, e in zip(table["starts"], table["ends"])]
    own = list(durations)
    for idx, parent in enumerate(table["parents"]):
        if parent >= 0:
            own[parent] -= durations[idx]
    return own


def aggregate(tables: list[dict]) -> tuple[Counter, Counter, dict, Counter]:
    """Calls, self seconds and durations per span name, and summed counters."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    durations: dict[str, list[float]] = {}
    counters: Counter = Counter()
    for table in tables:
        for name, start, end, own in zip(
            table["names"], table["starts"], table["ends"], self_times(table)
        ):
            calls[name] += 1
            self_s[name] += own
            durations.setdefault(name, []).append(end - start)
        counters.update(table["counters"])
    return calls, self_s, durations, counters


def span_cost() -> float:
    """Seconds one wrapped call adds over a plain call, measured here."""

    def noop():
        return None

    wrapped = Tracer().wrap("calibration", noop)
    elapsed = []
    for fn in (noop, wrapped):
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            fn()
        elapsed.append(time.perf_counter() - t0)
    return max(elapsed[1] - elapsed[0], 0.0) / CALIBRATION_CALLS


def layer_metrics(tables: list[dict], ops: int, op_seconds: float) -> dict[str, float]:
    """Per-op layer metrics from span tables of one run."""
    calls, self_s, durations, counters = aggregate(tables)
    out: dict[str, float] = {}
    for name in span_names():
        out[f"{name}.calls"] = calls[name] / ops
        out[f"{name}.self_s"] = self_s[name] / ops
    for name in ("kmeans.kmeans.iterations", "kmeans.kmeans.degenerate"):
        out[name] = counters[name] / ops
    trials = durations.get("harness.run_trial", [])
    out["harness.run_trial.p50_s"] = statistics.median(trials) if trials else 0.0
    layer_spans = sum(n for name, n in calls.items() if name != OP)
    out["trace.overhead_frac"] = span_cost() * layer_spans / op_seconds
    return out
