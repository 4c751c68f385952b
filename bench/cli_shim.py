"""Traced stand-in for ``python -m specluster``.

Usage: ``python cli_shim.py SPANS_JSON CLI_ARG...``.  Imports specluster
(timed), wraps its layer functions with the benchmark's spans, runs
``specluster.cli.main`` on the remaining arguments and writes the span
table, the import time and the shim's own wall time to SPANS_JSON.
"""

import time

SHIM_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import specluster.cli

    import_s = time.perf_counter() - t0
    import spans  # after the timed import: it loads numpy too

    tracer = spans.Tracer()
    tracer.install()
    try:
        code = specluster.cli.main(argv)
    finally:
        tracer.uninstall()
        record = tracer.table()
        record["import_s"] = import_s
        record["shim_s"] = time.perf_counter() - SHIM_START
        with open(out_path, "w") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
