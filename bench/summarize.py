"""Median, quartiles and spread of each metric over recorded runs.

Usage:  python3 bench/summarize.py [RUNS_JSONL]   (default bench/results/runs.jsonl)

Groups the raw run records by workload and trace mode and prints, for each
metric, the run count, median, first and third quartile, and the spread
(Q3 - Q1) / median that the benchmark's bounds are compared against.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent / "results" / "runs.jsonl"


def main(path: Path) -> int:
    groups = defaultdict(lambda: defaultdict(list))
    for line in path.read_text().splitlines():
        raw = json.loads(line)
        key = (raw["workload"], raw["trace"], raw["seconds"])
        for name, entry in raw["result"]["metrics"].items():
            groups[key][name].append(entry["value"])
    for (workload, trace, seconds), metrics in sorted(groups.items()):
        print(f"# {workload}  trace={trace}  seconds={seconds:g}")
        for name, values in metrics.items():
            if len(values) < 2:
                print(f"{name:<44} n=1 value={values[0]:.6g}")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(
                f"{name:<44} n={len(values):<3} median={med:<12.6g} "
                f"q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.4f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT))
