"""One fresh process running one bicomet command, optionally traced.

Usage: python3 perfbench/child.py COMMAND CONFIG TRACE SPANS

Runs ``bicomet <command> --config CONFIG`` through ``bicomet.cli.main`` from
the checkout's ``src/`` and prints one JSON line: exit code, wall seconds of
the command, peak resident memory of this process, the seconds of every
stage call, and with TRACE=1 the span aggregates and counters (the spans
themselves go to SPANS).  Imports happen before the clock starts.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def main(argv) -> int:
    command, config, trace_flag, spans_path = argv
    sys.path.insert(0, str(SRC))
    import bicomet
    import bicomet.cli

    if Path(bicomet.__file__).resolve().parent != SRC / "bicomet":
        print(f"bicomet imported from {bicomet.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from spans import Tracer, install

    tracer = Tracer()
    full = trace_flag == "1"
    install(tracer, bicomet, full)
    start = time.perf_counter()
    code = bicomet.cli.main([command, "--config", config])
    wall = time.perf_counter() - start
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "exit": code,
        "wall_s": wall,
        "peak_rss_mb": rss_kib / 1024.0,
        "stages": tracer.durations("cli.cmd_"),
    }
    if full:
        tracer.save(spans_path)
        report["spans"] = tracer.aggregate()
        report["counters"] = dict(tracer.counters)
        report["maxima"] = tracer.maxima
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
