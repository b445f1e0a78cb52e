"""Run a workload's stages inside this one process, through `qpaug.cli.main`
(and encode.py's `main`), optionally with tracing installed.

    python3 perfbench/traced.py STAGES_JSON OUT_JSON TRACE

STAGES_JSON lists {"name", "argv"} in order; TRACE is 1 to record spans.
OUT_JSON receives each stage's exit code and wall time, the sum of those
times, and with tracing the spans and counts. Each stage (`cli.<command>`,
or `encode`) is the parent span of the layer spans under it.
"""
from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from pathlib import Path

import encode
import tracing
from qpaug import cli


def main(argv) -> int:
    stages = json.loads(Path(argv[0]).read_text())
    out, trace = Path(argv[1]), argv[2] == "1"
    tracer = tracing.Tracer(run_id=f"{os.getpid()}-{time.time_ns()}")
    if trace:
        tracing.install(tracer)
    done = []
    # the CLI prints a report per command; keep it out of this run's output
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for stage in stages:
            name = "encode" if stage["name"] == "encode" else f"cli.{stage['name']}"
            span = tracer.begin(name) if trace else None
            t0 = time.perf_counter()
            if stage["name"] == "encode":
                code = encode.main(stage["argv"][1:])
            else:
                code = cli.main(list(stage["argv"]))
            wall = time.perf_counter() - t0
            if span is not None:
                tracer.end(span)
            done.append({"name": stage["name"], "code": code, "wall_s": wall})
    doc = {"stages": done, "pipeline_s": sum(s["wall_s"] for s in done)}
    if trace:
        doc["trace"] = tracer.to_doc()
    out.write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
