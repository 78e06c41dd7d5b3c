"""The bicatom CLI with the benchmark's tracing installed.

    python perfbench/traced_cli.py TRACE_OUT.json SUBCOMMAND [ARGS...]

Behaves like ``python -m bicatom SUBCOMMAND [ARGS...]`` (same output, same
exit code) and also writes the recorded spans and counters, plus the
CLOCK_MONOTONIC stamp at which ``main`` was ready to run, to TRACE_OUT.json.
"""

import json
import sys
import time

from bicatom import cli
from tracer import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    traced_main = tracer.wrap("cli.main", cli.main)
    ready_ns = time.monotonic_ns()
    try:
        return traced_main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"ready_ns": ready_ns, **tracer.export()}, fh)


if __name__ == "__main__":
    sys.exit(main())
