"""Tests of the benchmark's own helpers, and a reduced-size run of every
workload through the correctness gate.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import dataclasses
import json
import time
from pathlib import Path

import pytest

import pipeline
import run
import stats
from tracing import Tracer, self_times
from workloads import WORKLOADS, stages

ROOT = Path(__file__).resolve().parents[1]

SMALL = {
    "qp-m": dict(rows=12, cols=10, count=3, density_a=0.3, density_q=0.3),
    "views": dict(rows=12, cols=10, count=3, density_a=0.3, density_q=0.3, copies=2),
    "lp-label": dict(rows=8, cols=4, count=3, density_a=0.5),
}


def small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


def deadline():
    return time.perf_counter() + 120.0


# ------------------------------------------------------------------ percentiles

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (49, 50.0), (50, 80.0), (99, 80.0),
    (100, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    p = stats.tail_percentile(n)
    assert p == expected
    if p is not None:
        assert n - stats.rank(p, n) >= 10
        higher = [q for q in stats.LADDER if q > p]
        assert all(n - stats.rank(q, n) < 10 for q in higher)


def test_summarize_reports_median_tail_and_count():
    samples = [float(i) for i in range(1, 101)]  # 1..100
    s = stats.summarize(samples)
    assert s["n"] == 100 and s["p50"] == 50.0 and s["max"] == 100.0
    assert s["tail_p"] == 90.0 and s["tail"] == 90.0
    few = stats.summarize([3.0, 1.0, 2.0])
    assert few["tail_p"] is None and few["tail"] == 3.0 and few["p50"] == 2.0
    assert stats.summarize([])["n"] == 0


# -------------------------------------------------------------------- self time

def test_self_time_subtracts_direct_children_only():
    spans = [
        {"name": "cli.solve", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "solver.solve", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "solver.splu", "start": 2.0, "end": 3.0, "parent": 1},
        {"name": "fileio.save_instance", "start": 5.0, "end": 6.0, "parent": 0},
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(self_times(spans)) == 10.0


def test_wrapped_calls_nest_inside_the_open_span():
    tracer = Tracer("t")

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap("leaf", leaf)
    outer = tracer.wrap("outer", lambda x: traced_leaf(x) * 2)
    stage = tracer.begin("cli.generate")
    assert outer(1) == 4
    tracer.end(stage)
    doc = tracer.to_doc()
    names = [(s["name"], s["parent"]) for s in doc["spans"]]
    assert names == [("cli.generate", None), ("outer", 0), ("leaf", 1)]
    assert_nested(doc["spans"])


def assert_nested(spans):
    for sp in spans:
        assert sp["start"] <= sp["end"]
        if sp["parent"] is None:
            assert sp["name"].startswith("cli.") or sp["name"] == "encode", sp
            continue
        parent = spans[sp["parent"]]
        assert parent["start"] <= sp["start"] and sp["end"] <= parent["end"]


# --------------------------------------------------------------- gate and runs

def test_gate_rejects_a_relabel_that_moves_the_objective(tmp_path):
    w = small("qp-m")
    data = tmp_path / "data"
    done = pipeline.run_stages(stages(w, 0, data), ROOT, tmp_path / "log", deadline())
    codes = [(s["name"], s["code"]) for s in done]
    assert pipeline.check(w, data, codes)["problems"] == []

    path = next(p for p in (data / "sol").glob("*.json") if p.name != "manifest.json")
    doc = json.loads(path.read_text())
    doc["solution"]["objective"] = doc["solution"]["objective"] * 1.001 + 1e-3
    path.write_text(json.dumps(doc))
    problems = pipeline.check(w, data, codes)["problems"]
    assert any("mapped" in p for p in problems)

    wrong = [(name, 5 if name == "verify" else code) for name, code in codes]
    assert any("verify exited 5" in p for p in pipeline.check(w, data, wrong)["problems"])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_reduced_run_passes_the_gate(name, tmp_path):
    w = small(name)
    seed = 7 if name == "lp-label" else 0
    report, last = run.end_to_end(w, seed, 0.0, ROOT, tmp_path, tmp_path / "log", deadline())
    assert set(last["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in last["metrics"].values())
    assert report["repeats"] == 1 and len(report["gate"]["digest"]) == 64
    assert last["attempted"] == w.count * w.copies
    stage_names = {s.name for s in stages(w, seed, tmp_path)}
    assert {k[:-2] for k in report["metrics"] if k.endswith("_s")} >= stage_names

    report, last = run.per_layer(w, seed, ROOT, tmp_path, tmp_path / "log", deadline())
    values = {k: m["value"] for k, m in last["metrics"].items()}
    assert set(values) == set(run.per_layer_units())
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert_nested(spans)
    assert values["fileio.load_instance.calls"] > 0
    assert values["graphenc.to_bipartite_graph.calls"] >= w.count * w.copies
    if w.labeled:
        assert values["solver.solve.calls"] == values["solver.attempts"] == w.count * (1 + w.copies)
        assert values["transforms.map_solution.calls"] > 0
    else:
        assert values["solver.solve.calls"] == 0
        assert values["graphenc.mpnn_forward.calls"] == w.count * w.copies


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "views"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for m in spec["end_to_end"]:
        assert (m["unit"], m["better"]) == run.END_TO_END[m["name"]]
        assert 0 < m["bound"] <= 0.25
    units = run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
