"""Record the reference outputs that every benchmark run is checked against.

Usage, from the repository root:  python3 bench/record_reference.py [WORKLOAD...]

Runs every catalogue entry of each named workload (all four by default)
once, untimed, and writes ``bench/reference/<workload>.json``.  Run it only
at a commit whose outputs are the accepted ones: a later change that alters
outputs must fail the benchmark's check, not re-record.
"""

import json
import shutil
import sys

import run


def main(names) -> int:
    run.pin_threads()
    sp = run.import_program()
    import workloads

    for name in names or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name](sp, 0)
        wl.env = run.child_env()
        wl.workdir = run.BENCH_DIR / ".work" / f"record-{name}"
        wl.workdir.mkdir(parents=True, exist_ok=True)
        try:
            reference = {}
            for entry in wl.reference_entries():
                reference[entry] = wl.record(entry)
                print(f"{name} {entry}", file=sys.stderr)
        finally:
            shutil.rmtree(wl.workdir, ignore_errors=True)
        path = run.BENCH_DIR / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
