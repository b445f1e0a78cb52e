"""Spans around the program's layers, recorded from outside the program.

`install` replaces public functions of `qpaug` at the names their callers
look them up, with wrappers that record a span (name, start, end, parent,
run id) and a few counts. Spans stay in memory until the run writes them
out. Nothing under src/ changes; spans inside the program are later work.
"""
from __future__ import annotations

import functools
import os
import time
from collections import Counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span; `after(counts, args, result)` adds counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(self.counts, args, result)
            return result
        return traced

    def to_doc(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self.spans],
            "counts": dict(self.counts),
        }


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] is not None:
            child[sp["parent"]] += sp["end"] - sp["start"]
    return [sp["end"] - sp["start"] - c for sp, c in zip(spans, child)]


class _Proxy:
    """Stands in for a module: `overrides` first, everything else forwarded."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _size_of(counts, key, path):
    counts[key] += os.path.getsize(path)


def _bytes_read(counts, args, result):
    _size_of(counts, "fileio.bytes_read", args[0])


def _bytes_written(counts, args, result):
    _size_of(counts, "fileio.bytes_written", args[0])


def _records(counts, args, result):
    counts["transforms.records"] += len(result[2])


def _edges(counts, args, result):
    counts["graphenc.edges"] += len(result.ca_edges) + len(result.vv_edges)


def install(tracer: Tracer):
    """Wrap the layers the CLI pipeline and the encode stage call.

    Each entry names the module whose global the caller reads; a function
    imported into two modules is wrapped in both. The wrappers stay for the
    life of the process, which runs one traced pass.
    """
    import scipy
    import scipy.sparse.linalg

    from qpaug import cli, fileio, generators, graphenc, solver, transforms

    def wrap(module, attr, name, after=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), after))

    families = generators.GENERATOR_FAMILIES
    for family, maker in list(families.items()):
        families[family] = tracer.wrap("generators.gen", maker)
    for module in (cli, generators):
        wrap(module, "solve_splitting", "solver.solve")
        wrap(module, "save_instance", "fileio.save_instance", _bytes_written)
        wrap(module, "kkt_residuals", "core.kkt_residuals")
    wrap(cli, "kkt_residuals_raw", "core.kkt_residuals")
    wrap(solver, "kkt_residuals", "core.kkt_residuals")
    wrap(solver, "psd_certificate", "core.psd_certificate")
    wrap(transforms, "psd_certificate", "core.psd_certificate")
    wrap(cli, "apply_policy", "transforms.apply_policy", _records)
    wrap(transforms, "map_solution", "transforms.map_solution")
    wrap(cli, "load_instance", "fileio.load_instance", _bytes_read)
    wrap(cli, "load_instance_unchecked", "fileio.load_instance", _bytes_read)
    wrap(fileio, "load_instance", "fileio.load_instance", _bytes_read)
    wrap(cli, "save_graph", "fileio.save_graph", _bytes_written)
    wrap(cli, "to_bipartite_graph", "graphenc.to_bipartite_graph", _edges)
    wrap(graphenc, "to_bipartite_graph", "graphenc.to_bipartite_graph", _edges)
    wrap(graphenc, "mpnn_forward", "graphenc.mpnn_forward")
    # the solver reaches its factorizations through module attributes
    solver.spla = _Proxy(
        scipy.sparse.linalg,
        splu=tracer.wrap("solver.splu", scipy.sparse.linalg.splu))
    solver.scipy = _Proxy(scipy, linalg=_Proxy(
        scipy.linalg,
        lu_factor=tracer.wrap("solver.dense_lu", scipy.linalg.lu_factor)))

    # effort counts from the detailed entry point solve_splitting calls
    detailed = solver.solve_splitting_detailed
    max_iter = solver.SolverConfig().max_iter

    @functools.wraps(detailed)
    def counted(*args, **kwargs):
        try:
            sol, stats = detailed(*args, **kwargs)
        except solver.Unconverged:
            tracer.counts["solver.iterations"] += max_iter
            raise
        tracer.counts["solver.iterations"] += stats.iterations
        tracer.counts["solver.polished"] += int(stats.polished)
        return sol, stats

    solver.solve_splitting_detailed = counted
