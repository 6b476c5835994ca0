"""Run one mzteleport command line with every layer wrapped, then write its trace.

    PYTHONPATH=src python3 bench/trace_child.py TRACE_JSON [mzteleport arguments...]

The trace holds the span totals, call counts and outermost spans, plus
``ready``: the monotonic clock reading after the interpreter started and
the package was imported. The parent reads the same clock, so its launch
time and ``ready`` bound the start-up span.
"""

import json
import sys
import time

import mzteleport.cli
from tracer import LayerPatches, Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    LayerPatches(tracer).apply()
    ready = time.perf_counter()
    try:
        return mzteleport.cli.main(argv)
    finally:
        with open(trace_path, "w", encoding="ascii") as handle:
            json.dump({"ready": ready, **tracer.dump()}, handle)


if __name__ == "__main__":
    sys.exit(main())
