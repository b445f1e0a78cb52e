"""Running a workload's stages and checking what they wrote.

`run_stages` runs each stage as its own process (`python -m qpaug ...` or
perfbench/encode.py) and times it; this is the untraced measurement.
`run_in_process` runs the same stages in one child process through
`qpaug.cli.main` (perfbench/traced.py), with or without tracing.
`check` is the correctness gate; `digest` fingerprints the artifacts.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import Stage, Workload

HERE = Path(__file__).resolve().parent
FAILURE_BUDGET = 0.1  # the CLI's default --failure-budget
OBJECTIVE_RTOL = 1e-6


class StageError(RuntimeError):
    """A stage process could not be run to completion."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(cmd, root: Path, log: Path, deadline: float) -> tuple[int, float, float]:
    """Run `cmd` from `root` with output to `log`; returns (exit code, wall
    seconds, peak resident MB). Killed once `deadline` (perf_counter) passes."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise StageError(f"no time left to run {cmd[1:4]}")
    with open(log, "ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=out,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise StageError(f"{cmd[1:4]} killed by signal {-proc.returncode}, see {log}")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def stage_command(stage: Stage) -> list:
    if stage.name == "encode":
        return [sys.executable, str(HERE / "encode.py"), *stage.argv[1:]]
    return [sys.executable, "-m", "qpaug", *stage.argv]


def run_stages(stages, root: Path, log: Path, deadline: float) -> list[dict]:
    done = []
    for stage in stages:
        code, wall, rss = run_process(stage_command(stage), root, log, deadline)
        done.append({"name": stage.name, "code": code, "wall_s": wall, "rss_mb": rss})
    return done


def run_in_process(stages, root: Path, out: Path, log: Path, deadline: float,
                   trace: bool) -> dict:
    """Run every stage inside one child process; returns its result document
    (stage codes and wall times, and with `trace` the spans and counts)."""
    spec = out.with_suffix(".stages.json")
    spec.write_text(json.dumps([{"name": s.name, "argv": list(s.argv)} for s in stages]))
    cmd = [sys.executable, str(HERE / "traced.py"), str(spec), str(out), str(int(trace))]
    code, _, _ = run_process(cmd, root, log, deadline)
    if code != 0:
        raise StageError(f"in-process run exited {code}, see {log}")
    return json.loads(out.read_text())


def digest(data: Path) -> str:
    """sha256 over every artifact's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in data.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(data)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _statuses(manifest: Path) -> dict:
    counts: dict[str, int] = {}
    for e in json.loads(manifest.read_text()):
        counts[e["solver_status"]] = counts.get(e["solver_status"], 0) + 1
    return counts


def _expected_code(statuses: dict) -> int:
    total = sum(statuses.values())
    failed = total - statuses.get("ok", 0)
    return 3 if total and failed / total > FAILURE_BUDGET else 0


def _objective(path: Path) -> float:
    return float(json.loads(path.read_text())["solution"]["objective"])


def _mean_size(paths) -> float:
    sizes = [p.stat().st_size for p in paths]
    return sum(sizes) / len(sizes) if sizes else 0.0


def check(w: Workload, data: Path, codes: list[tuple[str, int]]) -> dict:
    """The correctness gate. `codes` pairs each stage name with its exit code.

    Returns the facts the report needs; `problems` lists every broken
    condition and is empty when the run passes.
    """
    problems = []
    expected: dict[str, int] = {}  # a stage not listed must exit 0
    facts: dict = {"statuses": {}}
    if w.labeled:
        for stage, sub in (("generate", "gen"), ("solve", "sol")):
            manifest = data / sub / "manifest.json"
            if manifest.is_file():
                facts["statuses"][stage] = _statuses(manifest)
                expected[stage] = _expected_code(facts["statuses"][stage])
    for name, code in codes:
        if code != expected.get(name, 0):
            problems.append(f"{name} exited {code}, expected {expected.get(name, 0)}")
    if problems:
        facts["problems"] = problems
        return facts

    aug = [p for p in (data / "aug").glob("*.json") if p.name != "manifest.json"]
    graphs = sorted((data / "graphs").glob("*.graph.json"))
    facts["instance_bytes"] = _mean_size(aug)
    facts["graph_bytes"] = _mean_size(graphs)
    if len(graphs) != len(aug):
        problems.append(f"{len(graphs)} graphs for {len(aug)} augmented instances")
    if w.labeled:
        attempts = {k: sum(v.values()) for k, v in facts["statuses"].items()}
        ok = {k: v.get("ok", 0) for k, v in facts["statuses"].items()}
        facts["attempts"] = sum(attempts.values())
        facts["failed"] = facts["attempts"] - sum(ok.values())
        worst, failures = 0.0, []
        for e in json.loads((data / "sol" / "manifest.json").read_text()):
            if e["solver_status"] != "ok":
                failures.append({"path": e["path"], "status": e["solver_status"]})
                continue
            mapped = _objective(data / "aug" / e["path"])
            gap = abs(_objective(data / "sol" / e["path"]) - mapped) / max(1.0, abs(mapped))
            worst = max(worst, gap)
        if worst > OBJECTIVE_RTOL:
            problems.append(f"re-solved objective is {worst:.3g} off the mapped one")
        facts["failures"] = failures
        facts["worst_objective_gap"] = worst
        facts["outputs"] = ok["solve"]
        facts["output_attempts"] = attempts["solve"]
    else:
        enc = json.loads((data / "embeddings.json").read_text())
        if enc["count"] != len(aug):
            problems.append(f"{enc['count']} embeddings for {len(aug)} views")
        if not enc["finite"]:
            problems.append("an embedding is not finite")
        facts["outputs"] = enc["count"] if enc["finite"] else 0
        facts["output_attempts"] = len(aug)
        facts["attempts"] = facts["failed"] = 0
    facts["problems"] = problems
    return facts
