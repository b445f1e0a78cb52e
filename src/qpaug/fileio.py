"""Instance and manifest serialization.

One instance per JSON file: name, kind, n, m, q/a as parallel COO arrays,
b, c, an optional solution {x, lam, objective}, and optional provenance
(the transform records that produced the instance).  Floats keep Python's
shortest round-trip representation, and every write lands atomically via a
temp file so readers never observe a partial document.
"""
from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .core import InputError, LcqpInstance, ProblemKind, Solution, SparseMatrix
from .transforms import MapKind, SolutionMap, TransformRecord


def _atomic_write(path, text: str):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _reject_constant(token):
    raise InputError(f"non-finite literal {token!r} is not allowed in instance files")


def _parse(path) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc


def _matrix_to_doc(mat: SparseMatrix) -> dict:
    return {"rows": mat.rows.tolist(), "cols": mat.cols.tolist(), "vals": mat.vals.tolist()}


def _matrix_from_doc(doc, n_rows, n_cols, label) -> SparseMatrix:
    if not isinstance(doc, dict) or set(doc) - {"rows", "cols", "vals"}:
        raise InputError(f"field {label}: expected rows/cols/vals arrays")
    try:
        rows = np.asarray(doc["rows"], dtype=np.int64)
        cols = np.asarray(doc["cols"], dtype=np.int64)
        vals = np.asarray(doc["vals"], dtype=np.float64)
    except (KeyError, TypeError, OverflowError) as exc:
        raise InputError(f"field {label}: {exc}") from exc
    if not (rows.shape == cols.shape == vals.shape):
        raise InputError(f"field {label}: rows/cols/vals lengths differ")
    return SparseMatrix(n_rows, n_cols, rows, cols, vals)


def _record_to_doc(rec: TransformRecord) -> dict:
    sm = rec.solution_map
    return {
        "op": rec.op_name,
        "params": rec.params,
        "solution_map": {
            "kind": sm.kind.value,
            "side": sm.side,
            "values": None if sm.values is None else list(sm.values),
            "indices": None if sm.indices is None else list(sm.indices),
        },
    }


def _record_from_doc(doc) -> TransformRecord:
    try:
        sm_doc = doc["solution_map"]
        sm = SolutionMap(
            kind=MapKind(sm_doc["kind"]),
            side=sm_doc["side"],
            values=sm_doc["values"],
            indices=sm_doc["indices"],
        )
        return TransformRecord(str(doc["op"]), dict(doc["params"]), sm)
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed provenance record: {exc}") from exc


def save_instance(path, inst: LcqpInstance, sol: Solution | None = None):
    doc = {
        "name": inst.name,
        "kind": inst.kind.value,
        "n": inst.n,
        "m": inst.m,
        "q": _matrix_to_doc(inst.q),
        "a": _matrix_to_doc(inst.a),
        "b": inst.b.tolist(),
        "c": inst.c.tolist(),
    }
    if sol is not None:
        doc["solution"] = {
            "x": sol.x.tolist(),
            "lam": sol.lam.tolist(),
            "objective": sol.objective,
        }
    if inst.provenance:
        doc["provenance"] = [_record_to_doc(r) for r in inst.provenance]
    _atomic_write(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")


def load_instance(path) -> tuple[LcqpInstance, Solution | None]:
    inst, arrays = load_instance_unchecked(path)
    if arrays is None:
        return inst, None
    x, lam, stored_obj = arrays
    try:
        sol = Solution.from_primal_dual(inst, x, lam)
    except InputError as exc:
        raise InputError(f"{path}: bad solution ({exc})") from exc
    if abs(stored_obj - sol.objective) > 1e-6 * (1.0 + abs(stored_obj)):
        raise InputError(
            f"{path}: stored objective {stored_obj} disagrees with "
            f"recomputed {sol.objective}"
        )
    return inst, sol


def load_instance_unchecked(path):
    """Like load_instance, but hands back the raw (x, lam, objective) arrays
    without dual-feasibility or objective checks, for verification tooling
    that must score bad labels instead of refusing to read them."""
    doc = _parse(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: instance file must hold a single object")
    missing = {"name", "kind", "n", "m", "q", "a", "b", "c"} - set(doc)
    if missing:
        raise InputError(f"{path}: missing fields {sorted(missing)}")
    try:
        kind = ProblemKind(doc["kind"])
    except ValueError as exc:
        raise InputError(f"{path}: unknown kind {doc['kind']!r}") from exc
    try:
        n, m = int(doc["n"]), int(doc["m"])
        q = _matrix_from_doc(doc["q"], n, n, "q")
        a = _matrix_from_doc(doc["a"], m, n, "a")
        b = np.asarray(doc["b"], dtype=np.float64)
        c = np.asarray(doc["c"], dtype=np.float64)
        provenance = tuple(_record_from_doc(r) for r in doc.get("provenance", []))
        inst = LcqpInstance(
            q=q, a=a, b=b, c=c, kind=kind, name=str(doc["name"]), provenance=provenance
        )
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed field ({exc})") from exc
    if "solution" not in doc:
        return inst, None
    sd = doc["solution"]
    try:
        x = np.asarray(sd["x"], dtype=np.float64)
        lam = np.asarray(sd["lam"], dtype=np.float64)
        stored_obj = float(sd["objective"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad solution ({exc})") from exc
    return inst, (x, lam, stored_obj)


def save_graph(path, graph):
    """Graph export: node arrays (side, feature) and flat edge arrays, vv
    edges first, with constraint nodes numbered after the variable nodes."""
    n, n_vv = graph.n_var_nodes, len(graph.vv_edges)
    edges = np.concatenate([graph.vv_edges, graph.ca_edges])
    edges["src"][n_vv:] += n
    kind = ["vv"] * n_vv + ["ca"] * len(graph.ca_edges)
    doc = {
        "nodes": {
            "side": ["var"] * n + ["con"] * graph.n_con_nodes,
            "feature": graph.var_features.tolist() + graph.con_features.tolist(),
        },
        "edges": {**{key: edges[key].tolist() for key in edges.dtype.names}, "kind": kind},
    }
    _atomic_write(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _edge_field(edges, key, dtype) -> np.ndarray:
    vals = np.asarray(edges[key])
    if vals.ndim != 1 or (vals.size and not np.can_cast(vals.dtype, dtype)):
        raise InputError(f"edges.{key} must be a flat array of {dtype.__name__} values")
    return vals.astype(dtype)


def load_graph(path):
    from .graphenc import BipartiteGraph, edge_array

    doc = _parse(path)
    try:
        side = doc["nodes"]["side"]
        feature = np.asarray(doc["nodes"]["feature"], dtype=np.float64)
        n_var = side.count("var")
        n_con = side.count("con")
        if side != ["var"] * n_var + ["con"] * n_con or len(feature) != len(side):
            raise InputError("node arrays must list all var nodes, then all con nodes")
        src, dst = (_edge_field(doc["edges"], key, np.int64) for key in ("src", "dst"))
        weight = _edge_field(doc["edges"], "weight", np.float64)
        kind = _edge_field(doc["edges"], "kind", np.str_)
        if not src.shape == dst.shape == weight.shape == kind.shape:
            raise InputError("edges.src, dst, weight and kind differ in length")
        is_ca = kind == "ca"
        if not np.all(is_ca | (kind == "vv")):
            raise InputError(f"unknown edge kinds {sorted(set(kind.tolist()) - {'ca', 'vv'})}")
        return BipartiteGraph(
            n_var_nodes=n_var, n_con_nodes=n_con,
            var_features=feature[:n_var], con_features=feature[n_var:],
            ca_edges=edge_array(src[is_ca] - n_var, dst[is_ca], weight[is_ca]),
            vv_edges=edge_array(src[~is_ca], dst[~is_ca], weight[~is_ca]),
        )
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"{path}: malformed graph file ({exc})") from exc


def save_manifest(path, entries: list):
    _atomic_write(path, json.dumps(list(entries), indent=2, allow_nan=False) + "\n")


def load_manifest(path) -> list:
    doc = _parse(path)
    if not isinstance(doc, list):
        raise InputError(f"{path}: manifest must be an array")
    return doc
