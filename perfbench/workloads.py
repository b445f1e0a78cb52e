"""The benchmark's workloads: which CLI stages each one runs, on what inputs.

A workload is one closed loop with a single client: its stages run back to
back, one program process at a time, each with `--jobs 1`. The seed given
to the benchmark reaches the program only as `generate --seed S` and
`augment --seed S+1`; the program sees nothing else of it.

perfbench/README.md gives the reason for each workload and its sizing.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str
    rows: int
    cols: int
    count: int
    density_a: float
    density_q: float | None = None  # None for LPs
    bounded: bool = False
    labeled: bool = True  # solve path; False is the unlabeled views path
    copies: int = 3  # --per-instance when labeled, --views otherwise


WORKLOADS = {
    "qp-m": Workload(
        name="qp-m",
        why="300x300 QPs through generate --solve, augment, solve, verify, graph: "
            "sparse KKT factorization, psd_certificate and large-JSON encode lead",
        family="qp", rows=300, cols=300, count=8, density_a=0.05, density_q=0.05,
    ),
    "views": Workload(
        name="views",
        why="unlabeled 100x100 QPs into 4 contrastive views each, graph export and "
            "encoding: transforms, file I/O and mpnn_forward, never the solver",
        family="qp", rows=100, cols=100, count=80, density_a=0.05, density_q=0.05,
        labeled=False, copies=4,
    ),
    # Not named in BENCHMARK.json: its stage times vary across seeds by more
    # than any bound the benchmark may set (perfbench/README.md has the data).
    "lp-label": Workload(
        name="lp-label",
        why="the paper's 100x100 bounded LPs labeled, augmented and re-solved: "
            "dense polish leads, and seed 0 holds two known unconverged re-solves",
        family="lp", rows=100, cols=100, count=20, density_a=0.05, bounded=True,
    ),
}


@dataclass(frozen=True)
class Stage:
    name: str  # metric group: generate, augment, solve, verify, graph, encode
    argv: tuple  # arguments after `python -m qpaug`, or after encode.py


def stages(w: Workload, seed: int, data: Path) -> list[Stage]:
    """The workload's stages in order, writing under `data`."""
    gen = [
        "generate", "--family", w.family, "--rows", str(w.rows), "--cols", str(w.cols),
        "--density-a", str(w.density_a), "--count", str(w.count),
        "--seed", str(seed), "--jobs", "1", "--out", str(data / "gen"),
    ]
    if w.density_q is not None:
        gen += ["--density-q", str(w.density_q)]
    if w.bounded:
        gen.append("--bounded")
    aug = ["augment", "--manifest", str(data / "gen" / "manifest.json"),
           "--seed", str(seed + 1), "--out", str(data / "aug")]
    if not w.labeled:
        aug += ["--views", str(w.copies)]
        return [
            Stage("generate", tuple(gen)),
            Stage("augment", tuple(aug)),
            Stage("graph", ("graph", "--manifest", str(data / "aug" / "manifest.json"),
                            "--out", str(data / "graphs"))),
            Stage("encode", ("encode", str(data / "aug" / "manifest.json"),
                             str(data / "embeddings.json"))),
        ]
    gen.append("--solve")
    aug += ["--per-instance", str(w.copies)]
    return [
        Stage("generate", tuple(gen)),
        Stage("augment", tuple(aug)),
        Stage("solve", ("solve", "--manifest", str(data / "aug" / "manifest.json"),
                        "--jobs", "1", "--out", str(data / "sol"))),
        Stage("verify", ("verify", "--manifest", str(data / "aug" / "manifest.json"))),
        Stage("verify", ("verify", "--manifest", str(data / "sol" / "manifest.json"))),
        Stage("graph", ("graph", "--manifest", str(data / "sol" / "manifest.json"),
                        "--out", str(data / "graphs"))),
    ]
