"""Instance, graph and manifest serialization.

One instance per JSON file: name, kind, n, m, q/a as packed keys and
values, b, c, an optional solution {x, lam, objective}, and optional
provenance (the transform records that produced the instance).  Every file
is compact JSON, written atomically via a temp file so readers never observe
a partial document.

Fixed-schema float64 arrays (q/a vals, b, c, the solution's x and lam, a
solution map's values, a graph's node features and edge weights) are each
one string: the base64 of their little-endian float64 bytes, which
round-trips every value bit for bit.  A sparse matrix's coordinates are
one string too: the keys row * n_cols + col of its entries, in canonical
(strictly increasing) order, packed in the narrowest of <u2, <u4 and <i8
that holds n_rows * n_cols - 1, so the reader, which knows the shape, needs
no dtype tag.  Dimensions, solution map indices, the objective and
free-form params stay plain JSON.  Every numeric field goes through one
checked reader: a packed string must decode strictly to a whole number of
finite float64 values or of keys that strictly increase below
n_rows * n_cols, and a list must hold JSON numbers only (integers for an
index), never booleans or strings.

A symmetric matrix is stored once per pair: an instance's q keeps the
entries with row <= col, a graph's variable-variable edges those with
src <= dst, and loading mirrors the rest back.  Storage holding any entry
below the diagonal is the earlier full form and must itself be symmetric.
A graph file gives its node counts (n_var, n_con) and keys its edges over
the square of all n_var + n_con nodes, constraint nodes numbered after the
variable nodes; an edge leaving a constraint node (src >= n_var) is a
constraint edge.

Files written by earlier versions load to equal objects: indented files,
float arrays as JSON lists, coordinates as rows/cols or src/dst lists, full
storage, graphs with a per-node side list (all var entries, then all con
entries) or a per-edge kind list.  A solution map's values and indices must
be flat arrays of numbers and of nonnegative integers.  An earlier dense
add_variable_constrained map (null indices, values c_new then all of a_col)
loads in the sparse form; an earlier drop record's `dropped` param loads as
read and is never replayed.
"""
from __future__ import annotations

import base64
import json
import os
from pathlib import Path

import numpy as np

from .core import InputError, LcqpInstance, ProblemKind, Solution, SparseMatrix
from .transforms import MapKind, SolutionMap, TransformRecord


def _write_json(path, doc):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    text = json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n"
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _reject_constant(token):
    raise InputError(f"non-finite literal {token!r} is not allowed in instance files")


def _parse(path) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc


def _packed(arr, dtype="<f8") -> str:
    """`arr` as the base64 of its little-endian `dtype` bytes."""
    arr = np.ascontiguousarray(arr, dtype=dtype)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite values cannot be stored")
    return base64.b64encode(arr.tobytes()).decode("ascii")


def _unpacked(text, dtype) -> np.ndarray:
    """The `dtype` values whose bytes `text` holds in strict base64."""
    raw = base64.b64decode(text, validate=True)
    if len(raw) % np.dtype(dtype).itemsize:
        raise ValueError(f"{len(raw)} bytes is not a whole number of {dtype} values")
    return np.frombuffer(raw, dtype=dtype)


def _key_dtype(n_rows, n_cols) -> str:
    """The narrowest of <u2, <u4 and <i8 that holds every key of the shape."""
    top = n_rows * n_cols - 1
    return "<u2" if top < 2**16 else "<u4" if top < 2**32 else "<i8"


def _packed_keys(rows, cols, n_rows, n_cols) -> str:
    """Entries (rows, cols) of an n_rows x n_cols matrix as packed keys."""
    return _packed(rows * n_cols + cols, _key_dtype(n_rows, n_cols))


def _keys_field(value, label, n_rows, n_cols):
    """(rows, cols) int64 arrays from a `_packed_keys` string, which must
    decode strictly to keys that strictly increase within [0, n_rows * n_cols)."""
    try:  # b64decode raises TypeError on a value that is not a string
        keys = _unpacked(value, _key_dtype(n_rows, n_cols)).astype(np.int64)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise InputError(f"{label} must be packed keys ({exc})") from exc
    size = n_rows * n_cols
    if keys.size and not (keys[0] >= 0 and keys[-1] < size and np.all(keys[1:] > keys[:-1])):
        raise InputError(f"{label} must strictly increase within [0, {size})")
    return np.divmod(keys, n_cols)


# the JSON types a list of each dtype may hold: bool is an int subclass and a
# string would be parsed, so neither counts as a number
_JSON_TYPES = {np.int64: {int}, np.float64: {int, float}, np.str_: {str}}


def _array_field(value, label, dtype, ndim=1) -> np.ndarray:
    """`value` as an array of `dtype`: a single JSON value (ndim 0), a flat
    JSON list, or for float64 a `_packed` string.  Refuses values that would
    be truncated, reinterpreted or parsed on the way (2.5 or true as an
    index, "1.0" as a number) and non-finite floats."""
    try:
        if isinstance(value, str) and dtype is np.float64 and ndim == 1:
            vals = _unpacked(value, "<f8").astype(np.float64)
        else:
            items = value if ndim else [value]
            if not (isinstance(items, list) and set(map(type, items)) <= _JSON_TYPES[dtype]):
                raise TypeError
            vals = np.array(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:  # binascii.Error is a ValueError
        shape = "a single" if ndim == 0 else "a flat array of"
        reason = f" ({exc})" if str(exc) else ""
        raise InputError(f"{label} must be {shape} {np.dtype(dtype).name} value(s){reason}") from exc
    if dtype is np.float64 and not np.all(np.isfinite(vals)):
        raise InputError(f"{label} must hold finite values")
    return vals


def _mirrored(rows, cols, vals):
    """Both triangles from a stored upper triangle.  Storage with an entry
    below the diagonal is the earlier full form and is returned as is, for
    the caller's symmetry check to judge."""
    if np.any(rows > cols):
        return rows, cols, vals
    off = rows != cols
    return (np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]))


def _matrix_to_doc(mat: SparseMatrix, upper=False) -> dict:
    """Packed keys and values of `mat`; with `upper`, only its entries with
    row <= col."""
    keep = mat.rows <= mat.cols if upper else slice(None)
    return {"keys": _packed_keys(mat.rows[keep], mat.cols[keep], *mat.shape),
            "vals": _packed(mat.vals[keep])}


def _matrix_from_doc(doc, n_rows, n_cols, label, upper=False) -> SparseMatrix:
    """A matrix from packed keys and vals, or from earlier rows/cols/vals."""
    keyed = isinstance(doc, dict) and "keys" in doc
    fields = {"keys", "vals"} if keyed else {"rows", "cols", "vals"}
    if not isinstance(doc, dict) or set(doc) != fields:
        raise InputError(f"field {label}: expected keys/vals or rows/cols/vals arrays")
    if keyed:
        rows, cols = _keys_field(doc["keys"], f"{label}.keys", n_rows, n_cols)
    else:
        rows, cols = (_array_field(doc[k], f"{label}.{k}", np.int64) for k in ("rows", "cols"))
    vals = _array_field(doc["vals"], f"{label}.vals", np.float64)
    if not (rows.shape == cols.shape == vals.shape):
        raise InputError(f"field {label}: coordinate and value counts differ")
    if upper:
        rows, cols, vals = _mirrored(rows, cols, vals)
    return SparseMatrix(n_rows, n_cols, rows, cols, vals)


def _record_to_doc(rec: TransformRecord) -> dict:
    sm = rec.solution_map
    return {
        "op": rec.op_name,
        "params": rec.params,
        "solution_map": {
            "kind": sm.kind.value,
            "side": sm.side,
            "values": None if sm.values is None else _packed(sm.values),
            "indices": None if sm.indices is None else sm.indices.tolist(),
        },
    }


def _record_from_doc(doc) -> TransformRecord:
    try:
        sm_doc = doc["solution_map"]
        kind = MapKind(sm_doc["kind"])
        values, indices = (
            None if sm_doc[key] is None else _array_field(sm_doc[key], f"solution_map.{key}", dtype)
            for key, dtype in (("values", np.float64), ("indices", np.int64)))
        if kind is MapKind.EXPLICIT_DUAL and indices is None:  # earlier dense (c_new, *a_col)
            indices = np.flatnonzero(values[1:])
            values = np.append(values[0], values[1:][indices])
        return TransformRecord(str(doc["op"]), dict(doc["params"]),
                               SolutionMap(kind, sm_doc["side"], values, indices))
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise InputError(f"malformed provenance record: {exc}") from exc


def save_instance(path, inst: LcqpInstance, sol: Solution | None = None):
    doc = {
        "name": inst.name,
        "kind": inst.kind.value,
        "n": inst.n,
        "m": inst.m,
        "q": _matrix_to_doc(inst.q, upper=True),
        "a": _matrix_to_doc(inst.a),
        "b": _packed(inst.b),
        "c": _packed(inst.c),
    }
    if sol is not None:
        doc["solution"] = {
            "x": _packed(sol.x),
            "lam": _packed(sol.lam),
            "objective": sol.objective,
        }
    if inst.provenance:
        doc["provenance"] = [_record_to_doc(r) for r in inst.provenance]
    _write_json(path, doc)


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
        n, m = (int(_array_field(doc[key], key, np.int64, ndim=0)) for key in ("n", "m"))
        q = _matrix_from_doc(doc["q"], n, n, "q", upper=True)
        a = _matrix_from_doc(doc["a"], m, n, "a")
        b, c = (_array_field(doc[key], key, np.float64) for key in ("b", "c"))
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
        x, lam = (_array_field(sd[key], f"solution.{key}", np.float64) for key in ("x", "lam"))
        stored_obj = float(_array_field(sd["objective"], "solution.objective", np.float64, ndim=0))
        if x.shape != (inst.n,) or lam.shape != (inst.m,):
            raise InputError(f"x and lam must have {inst.n} and {inst.m} entries")
    except (KeyError, TypeError, InputError) as exc:
        raise InputError(f"{path}: bad solution ({exc})") from exc
    return inst, (x, lam, stored_obj)


def save_graph(path, graph):
    """Graph export: node counts and features, and the edges keyed over the
    square of all nodes, constraint nodes numbered after the variable nodes:
    vv edges first, stored one way (src <= dst), then ca edges, so the keys
    strictly increase."""
    n, q, a = graph.n_var_nodes, graph.q, graph.a
    side = n + graph.n_con_nodes
    upper = q.rows <= q.cols
    doc = {
        "nodes": {
            "n_var": n,
            "n_con": graph.n_con_nodes,
            "feature": _packed(np.concatenate([graph.var_features, graph.con_features])),
        },
        "edges": {
            "keys": _packed_keys(np.concatenate([q.rows[upper], a.rows + n]),
                                 np.concatenate([q.cols[upper], a.cols]), side, side),
            "weight": _packed(np.concatenate([q.vals[upper], a.vals])),
        },
    }
    _write_json(path, doc)


def load_graph(path):
    from .graphenc import BipartiteGraph

    doc = _parse(path)
    try:
        nodes = doc["nodes"]
        feature = _array_field(nodes["feature"], "nodes.feature", np.float64)
        if "side" in nodes:  # earlier files list each node's side
            side = nodes["side"]
            n_var, n_con = side.count("var"), side.count("con")
            if side != ["var"] * n_var + ["con"] * n_con:
                raise InputError("nodes.side must list all var nodes, then all con nodes")
        else:
            n_var, n_con = (int(_array_field(nodes[key], f"nodes.{key}", np.int64, ndim=0))
                            for key in ("n_var", "n_con"))
        if min(n_var, n_con) < 0 or len(feature) != n_var + n_con:
            raise InputError("nodes.feature must hold one value per node")
        edges = doc["edges"]
        if "keys" in edges:
            if set(edges) != {"keys", "weight"}:
                raise InputError("edges with keys hold keys and weight only")
            side = n_var + n_con
            src, dst = _keys_field(edges["keys"], "edges.keys", side, side)
        else:  # earlier files list src and dst
            src, dst = (_array_field(edges[k], f"edges.{k}", np.int64) for k in ("src", "dst"))
        weight = _array_field(edges["weight"], "edges.weight", np.float64)
        if not src.shape == dst.shape == weight.shape:
            raise InputError("edges: coordinate and weight counts differ")
        is_ca = src >= n_var
        if "kind" in edges:  # earlier files list each edge's kind
            kind = _array_field(edges["kind"], "edges.kind", np.str_)
            if not np.array_equal(kind, np.where(is_ca, "ca", "vv")):
                raise InputError("edges.kind must be 'ca' exactly where src >= the variable count")
        if not np.all(weight):  # SparseMatrix would drop an explicit zero
            raise InputError("edges must have nonzero weights")
        vv = ~is_ca
        return BipartiteGraph(
            var_features=feature[:n_var], con_features=feature[n_var:],
            a=SparseMatrix(n_con, n_var, src[is_ca] - n_var, dst[is_ca], weight[is_ca]),
            q=SparseMatrix(n_var, n_var, *_mirrored(src[vv], dst[vv], weight[vv])))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"{path}: malformed graph file ({exc})") from exc


def save_manifest(path, entries: list):
    _write_json(path, list(entries))


# the keys every manifest entry written by this program carries
_MANIFEST_KEYS = {
    "path": str, "split": str, "family": str, "seed": int, "labeled": bool,
    "solver_status": str,
}


def load_manifest(path) -> list:
    doc = _parse(path)
    if not isinstance(doc, list):
        raise InputError(f"{path}: manifest must be an array")
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise InputError(f"{path}: entry {i} must be an object")
        for key, kind in _MANIFEST_KEYS.items():
            val = entry.get(key)
            # bool is an int subclass; a seed of true is not a seed
            if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
                raise InputError(f"{path}: entry {i} needs a {kind.__name__} {key!r}")
    return doc
