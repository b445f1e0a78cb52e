"""qpaug benchmark: run one workload of the CLI pipeline and report metrics.

    python3 perfbench/run.py --workload qp-m --seed 0 --seconds 35 --trace 0

Run it from the root of a checkout; it imports the program from ./src and
writes only under ./.perfbench. With --trace 0 it repeats the workload's
stages, each as its own process, until --seconds have passed, and reports
end-to-end metrics as medians over the repeats, with times scaled to a
reference speed of the machine (REFERENCE_PROBE). With --trace 1 it runs the
stages twice in one child process each, once plain and once with spans
around the program's layers, and reports per-layer metrics and the tracing
overhead. Every repeat passes the correctness gate or the run fails: the
last line then has "correct": false and no metrics, and the exit code is 1.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are the full
report (also written to .perfbench/reports/).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import pipeline
import stats
from tracing import self_times
from workloads import WORKLOADS, Workload, stages

RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s it is allowed
SETUP_PROBES = 7
# A fresh interpreter importing what every stage imports, except the program.
# The machine is shared and its speed drifts by a quarter within minutes;
# the median of this probe over a run tracks that drift, and every time is
# scaled by REFERENCE_S over it (README.md, "Times at reference speed").
REFERENCE_PROBE = ("-c", "import json, numpy, scipy.linalg, scipy.sparse.linalg")
REFERENCE_S = 0.4
STAGES = ("generate", "augment", "solve", "verify", "graph", "encode")

# End-to-end metrics gated in BENCHMARK.json: name -> (unit, better).
# Every workload reports each of them, and none is ever 0.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "instances_per_s": ("1/s", "higher"),
    "instance_bytes": ("B", "lower"),
    "graph_bytes": ("B", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Reported by every run that has them, not gated: a workload lacks some
# stages, and single stage times vary across runs by more than any bound
# (perfbench/README.md).
REPORTED = {f"{stage}_s": "s" for stage in STAGES}
REPORTED["fail_frac"] = "ratio"

# layers timed by spans: "<name>.s" (time inside the span) and "<name>.calls"
LAYERS = (
    "generators.gen", "solver.solve", "solver.dense_lu", "solver.splu",
    "core.psd_certificate", "core.kkt_residuals",
    "transforms.apply_policy", "transforms.map_solution",
    "fileio.save_instance", "fileio.load_instance", "fileio.save_graph",
    "graphenc.to_bipartite_graph", "graphenc.mpnn_forward",
)
CLI_STAGES = STAGES[:-1]  # encode belongs to the benchmark
COUNTS = ("solver.iterations", "solver.polished", "transforms.records",
          "fileio.bytes_written", "fileio.bytes_read", "graphenc.edges")
STATUSES = ("ok", "unconverged", "unbounded", "infeasible_or_unbounded", "kkt_check_failed")


def per_layer_units() -> dict:
    units = {f"cli.{s}.self_s": "s" for s in CLI_STAGES}
    for layer in LAYERS:
        units[f"{layer}.s"] = "s"
        units[f"{layer}.calls"] = "count"
    units["solver.solve.self_s"] = "s"
    for key in ("p50", "tail", "max"):
        units[f"solver.solve_ms.{key}"] = "ms"
    for key in COUNTS:
        units[key] = "B" if key.startswith("fileio.bytes") else "count"
    units["solver.attempts"] = "count"
    for status in STATUSES:
        units[f"solver.status.{status}"] = "count"
    units["fail_frac"] = "ratio"
    for stage in STAGES:
        units[f"stage.{stage}_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def environment(seed: int) -> dict:
    """What the numbers depend on besides the code."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    threads = {k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads if any(threads.values())
        else "library default (unset: one per core)",
        "caches": caches,
        "loadavg_at_start": loadavg,
        "seed": seed,
        "jobs": 1,
    }


def pass_times(done: list[dict], outputs: int) -> dict:
    """Stage times, pipeline_s and instances_per_s of one pass."""
    times: dict[str, float] = {}
    for s in done:
        key = f"{s['name']}_s"
        times[key] = times.get(key, 0.0) + s["wall_s"]
    total = sum(times.values())
    return {**times, "pipeline_s": total, "instances_per_s": outputs / total}


class GateFailure(Exception):
    """A pass broke the correctness gate."""


def run_once(w: Workload, seed: int, root: Path, work: Path, runner) -> tuple[dict, dict]:
    """One pass over the workload's stages in a fresh data directory; returns
    the runner's result and the gate's facts, with the artifact digest."""
    data = work / "data"
    shutil.rmtree(data, ignore_errors=True)
    data.mkdir(parents=True)
    try:
        result = runner(stages(w, seed, data))
        facts = pipeline.check(w, data, [(s["name"], s["code"]) for s in result["stages"]])
        if facts["problems"]:
            raise GateFailure("; ".join(facts["problems"]))
        facts["digest"] = pipeline.digest(data)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    return result, facts


def fail_frac(facts: dict) -> float:
    return facts["failed"] / facts["attempts"] if facts["attempts"] else 0.0


def end_to_end(w, seed, seconds, root, work, log, deadline) -> tuple[dict, dict]:
    t_start = time.perf_counter()
    probe = [sys.executable, "-m", "qpaug", "--help"]
    reference_probe = [sys.executable, *REFERENCE_PROBE]
    setup, reference = [], []

    def measure(cmd, into):
        into.append(pipeline.run_process(cmd, root, log, deadline)[1])

    for _ in range(SETUP_PROBES):
        measure(reference_probe, reference)
        measure(probe, setup)

    def runner(stage_list):
        return {"stages": pipeline.run_stages(stage_list, root, log, deadline)}

    reps = []
    while True:
        t0 = time.perf_counter()
        result, facts = run_once(w, seed, root, work, runner)
        reps.append((result["stages"], facts))
        for _ in range(2):
            measure(reference_probe, reference)
        now = time.perf_counter()
        # stop once measured long enough, or when another pass might not fit
        if now - t_start >= seconds or now + 1.5 * (now - t0) > deadline:
            break
    digests = {f["digest"] for _, f in reps}
    if len(digests) != 1:
        raise GateFailure(f"artifacts differ between repeats of seed {seed}")

    samples = {"setup_s": setup, "peak_rss_mb": []}
    for done, facts in reps:
        samples["peak_rss_mb"].append(max(s["rss_mb"] for s in done))
        for name, value in pass_times(done, facts["outputs"]).items():
            samples.setdefault(name, []).append(value)
    facts = reps[0][1]
    wall = {k: statistics.median(v) for k, v in samples.items()}
    speed = REFERENCE_S / statistics.median(reference)
    values = {k: v * speed if k.endswith("_s") else v for k, v in wall.items()}
    values["instances_per_s"] = wall["instances_per_s"] / speed
    values["instance_bytes"] = facts["instance_bytes"]
    values["graph_bytes"] = facts["graph_bytes"]
    if w.labeled:
        values["fail_frac"] = fail_frac(facts)

    units = {**{k: u for k, (u, _) in END_TO_END.items()}, **REPORTED}
    report = {
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
        "wall_metrics": wall,
        "speed": {"factor": speed, "reference_s": reference},
        "samples": samples,
        "repeats": len(reps),
        "gate": gate_summary(facts),
    }
    last = {k: report["metrics"][k] for k in END_TO_END}
    attempted = sum(f["output_attempts"] for _, f in reps)
    failed = attempted - sum(f["outputs"] for _, f in reps)
    return report, {"attempted": attempted, "failed": failed, "metrics": last}


def gate_summary(facts: dict) -> dict:
    out = {k: facts[k] for k in ("statuses", "digest") if k in facts}
    if facts["attempts"]:
        out["fail_frac"] = {"failed": facts["failed"], "attempts": facts["attempts"],
                            "value": fail_frac(facts)}
        out["failures"] = facts["failures"]
        out["worst_objective_gap"] = facts["worst_objective_gap"]
    out["outputs"] = {"passed": facts["outputs"], "attempted": facts["output_attempts"]}
    return out


def layer_metrics(doc: dict) -> tuple[dict, dict]:
    """Per-layer values from a traced run's spans and counts, plus the
    percentile summary of solve durations and the self time of each module
    (the first part of a span name; stage spans count as `cli`)."""
    spans = doc["spans"]
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    solve_ms = []
    for sp, self_s in zip(spans, selfs):
        name, dur = sp["name"], sp["end"] - sp["start"]
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        if name == "solver.solve":
            solve_ms.append(dur * 1000.0)
    values = {f"cli.{s}.self_s": own.get(f"cli.{s}", 0.0) for s in CLI_STAGES}
    for layer in LAYERS:
        values[f"{layer}.s"] = total.get(layer, 0.0)
        values[f"{layer}.calls"] = calls.get(layer, 0)
    values["solver.solve.self_s"] = own.get("solver.solve", 0.0)
    summary = stats.summarize(solve_ms)
    for key in ("p50", "tail", "max"):
        values[f"solver.solve_ms.{key}"] = summary[key]
    for key in COUNTS:
        values[key] = doc["counts"].get(key, 0)
    by_module: dict[str, float] = {}
    for name, self_s in own.items():
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + self_s
    return values, {"solve_ms": summary, "self_s_by_module": by_module}


def per_layer(w, seed, root, work, log, deadline) -> tuple[dict, dict]:
    def child(trace):
        def runner(stage_list):
            dest = work / f"inproc-{int(trace)}.json"
            return pipeline.run_in_process(stage_list, root, dest, log, deadline, trace)
        return run_once(w, seed, root, work, runner)

    plain, plain_facts = child(False)
    traced, traced_facts = child(True)
    if plain_facts["digest"] != traced_facts["digest"]:
        raise GateFailure("tracing changed the artifacts")
    values, extra = layer_metrics(traced["trace"])
    statuses: dict[str, int] = {}
    for counts in traced_facts["statuses"].values():
        for status, n in counts.items():
            statuses[status] = statuses.get(status, 0) + n
    values["solver.attempts"] = sum(statuses.values())
    for status in STATUSES:
        values[f"solver.status.{status}"] = statuses.get(status, 0)
    values["fail_frac"] = fail_frac(traced_facts)
    times = pass_times(plain["stages"], plain_facts["outputs"])
    for stage in STAGES:
        values[f"stage.{stage}_s"] = times.get(f"{stage}_s", 0.0)
    values["trace.overhead_frac"] = traced["pipeline_s"] / plain["pipeline_s"] - 1.0
    units = per_layer_units()
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    report = {
        "metrics": metrics,
        **extra,
        "spans": len(traced["trace"]["spans"]),
        "run_id": traced["trace"]["run_id"],
        "untraced_pipeline_s": plain["pipeline_s"],
        "traced_pipeline_s": traced["pipeline_s"],
        "gate": gate_summary(traced_facts),
    }
    (work / "spans.json").write_text(json.dumps(traced["trace"]))
    attempted = plain_facts["output_attempts"] + traced_facts["output_attempts"]
    failed = attempted - plain_facts["outputs"] - traced_facts["outputs"]
    return report, {"attempted": attempted, "failed": failed, "metrics": metrics}


def checkout_ok(root: Path) -> bool:
    return all((root / "src" / "qpaug" / f).is_file() for f in ("__init__.py", "cli.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    root = Path.cwd()
    if not checkout_ok(root):
        print(f"error: {root} holds no src/qpaug; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # a terminated run unwinds, so that it can stop its stage process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    w = WORKLOADS[args.workload]
    tag = f"{w.name}-s{args.seed}-t{args.trace}"
    base = root / ".perfbench"
    work = base / "work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    (base / "logs").mkdir(exist_ok=True)
    (base / "reports").mkdir(exist_ok=True)
    log = base / "logs" / f"{tag}.log"
    log.write_bytes(b"")
    env = environment(args.seed)
    try:
        if args.trace:
            report, last = per_layer(w, args.seed, root, work, log, deadline)
            env["trace_overhead_frac"] = report["metrics"]["trace.overhead_frac"]["value"]
            shutil.copy(work / "spans.json", base / "reports" / f"{tag}.spans.json")
        else:
            report, last = end_to_end(w, args.seed, args.seconds, root, work, log, deadline)
            env["trace_overhead_frac"] = "not measured: tracing is off in this run"
        correct = True
    except (GateFailure, pipeline.StageError) as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        report, correct = {"error": str(exc)}, False
        last = {"attempted": 1, "failed": 1, "metrics": {}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = {"workload": w.name, "why": w.why, "trace": args.trace,
              "environment": env, **report}
    text = json.dumps(report, indent=2)
    (base / "reports" / f"{tag}.json").write_text(text + "\n")
    print(text)
    for name, m in report.get("metrics", {}).items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, **last}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
