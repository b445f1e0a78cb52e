"""Instance, graph and manifest serialization.

One instance per JSON file: name, kind, and its data n, m, q/a as packed
gaps and values, b, c; then an optional solution {x, lam, objective}, and
optional provenance (the transform records that produced the instance).  A
graph file holds exactly the data members n, m, q, a, b, c of its
instance's file: c is the variable nodes' features, b the constraint
nodes', q (its upper triangle) the variable-variable (vv) edges and a the
constraint-variable (ca) edges; both writers and both readers share that
code.  Every file is compact JSON, written atomically via a temp file so
readers never observe a partial document.

Today's form.  Fixed-schema float64 arrays (q/a vals, b, c, the solution's x
and lam, a solution map's values, a generator record's witness) are each one
string: the base64 of their little-endian float64 bytes, which round-trips
every value bit for bit.  Every sparse field (q, a) is {"gaps", "vals"}: the
gaps k0, k1 - k0 - 1, ... between the strictly increasing keys
k = row * n_cols + col of its entries, in the narrowest of <u1, <u2, <u4 and
<u8 that holds the largest.  The width is the byte count over the values'
count, so the file needs no tag.  q is symmetric and stored once per pair,
the entries with row <= col, and loading mirrors the rest back.

One reader reads today's form, and builds every matrix from what it proved
(SparseMatrix._canonical): keys = cumsum(gaps + 1) - 1 strictly increase,
and must be below n_rows * n_cols, so the entries are in range and in order;
values are finite and nonzero; a q mirrored from its upper triangle is
symmetric.  It refuses a sparse field with any other field, gaps wider than
needed, unequal counts or an explicit zero; an entry of q below the
diagonal; a negative n or m; b or c of the wrong length; a graph file with
a member other than n, m, q, a, b, c; and a solution map without the
values or indices its kind replays.  A float array is a packed string that
must decode strictly to a whole number of values; an index list is a JSON
list of integers, never booleans or strings; n, m and the objective are
single JSON numbers.

Earlier forms are not read.  Files written before the format settled on
this one form (coordinates as packed keys or lists, q in full storage,
float arrays as JSON lists, a dense add_variable_constrained map, graphs
as `nodes` and `edges`) are refused like any malformed file: the error
names the first field that is not today's, and every refusal of a file's
contents says to regenerate it.  Every file is a pure function of its
seeds, so it regenerates from them.
"""
from __future__ import annotations

import base64
import json
import os
from pathlib import Path

import numpy as np

from .core import InputError, LcqpInstance, ProblemKind, Solution, SparseMatrix, _operand
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
        # strict UTF-8 as read_text gives it, without the newline translation
        # that takes about a fifth of read_text's time
        text = Path(path).read_bytes().decode("utf-8")
        return json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc


def _packed(arr) -> str:
    """`arr` as the base64 of its little-endian float64 bytes."""
    arr = np.ascontiguousarray(arr, dtype="<f8")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite values cannot be stored")
    return base64.b64encode(arr.tobytes()).decode("ascii")


def _unpacked(text, label, dtype="<f8") -> np.ndarray:
    """The `dtype` values whose bytes `text` holds in strict base64."""
    try:  # b64decode raises TypeError on a value that is not a string
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise InputError(f"{label} must be a packed string ({exc})") from exc
    if len(raw) % np.dtype(dtype).itemsize:
        raise InputError(f"{label} holds {len(raw)} bytes, not whole {np.dtype(dtype).str} values")
    return np.frombuffer(raw, dtype)


def _keys_from_gaps(text, label, nnz, size) -> np.ndarray:
    """The int64 keys whose `nnz` gaps `text` packs, at the width its byte
    count gives, which must be the narrowest that holds the largest gap (one
    encoding per matrix); the keys strictly increase and must be below size."""
    raw = _unpacked(text, label, "u1")
    width = raw.size // max(nnz, 1)
    if raw.size != nnz * width or (nnz and width not in (1, 2, 4, 8)):
        raise InputError(f"{label} holds {raw.size} bytes, not {nnz} gaps of 1, 2, 4 or 8 bytes")
    if not nnz:
        return np.zeros(0, np.int64)
    gaps = raw.view(f"<u{width}")
    top = int(gaps.max())
    if np.min_scalar_type(top).itemsize != width:
        raise InputError(f"{label} stores gaps up to {top} in {width} bytes, wider than needed")
    # with every gap below size, a key that wraps past int64 comes out
    # negative, or as the largest int64 when it is the last
    keys = np.cumsum(gaps, dtype=np.int64) + np.arange(nnz)
    if not (top < size and keys.min() >= 0 and keys[-1] < size):
        raise InputError(f"{label} must give keys within [0, {size})")
    return keys


# the JSON types a value or list of each dtype may hold: bool is an int
# subclass and a string would be parsed, so neither counts as a number
_JSON_TYPES = {np.int64: {int}, np.float64: {int, float}, np.str_: {str}}


def _array_field(value, label, dtype, ndim=1) -> np.ndarray:
    """`value` as an array of `dtype`: for a float64 array a `_packed`
    string, else a single JSON value (ndim 0) or a flat JSON list.  Refuses
    values that would be truncated, reinterpreted or parsed on the way (2.5
    or true as an index, "1.0" as a number) and non-finite floats."""
    if dtype is np.float64 and ndim == 1:
        vals = _unpacked(value, label).astype(np.float64)
    else:
        try:
            items = value if ndim else [value]
            if not (isinstance(items, list) and set(map(type, items)) <= _JSON_TYPES[dtype]):
                raise TypeError
            vals = np.array(value, dtype=dtype)
        except (TypeError, ValueError, OverflowError) as exc:
            shape = "a single" if ndim == 0 else "a flat array of"
            reason = f" ({exc})" if str(exc) else ""
            raise InputError(f"{label} must be {shape} {np.dtype(dtype).name} value(s){reason}") from exc
    if dtype is np.float64 and not np.all(np.isfinite(vals)):
        raise InputError(f"{label} must hold finite values")
    return vals


def _count(value, label) -> int:
    """`value` as a nonnegative JSON integer: a dimension or a node count."""
    count = int(_array_field(value, label, np.int64, ndim=0))
    if count < 0:
        raise InputError(f"{label} must be nonnegative")
    return count


def _mirrored(rows, cols, vals, n):
    """Both triangles of an n x n matrix from its upper triangle, in
    canonical order when the upper triangle is."""
    # the lower entries are the off-diagonal upper ones in column order: one
    # stable argsort by column alone, by radix in the narrowest unsigned dtype
    off = np.flatnonzero(rows != cols)
    cols_off = cols[off]
    lower = off[np.argsort(cols_off.astype(np.min_scalar_type(n)), kind="stable")]
    # each row holds its lower entries, then its upper ones: an upper entry
    # moves down by the lower entries of its row and of every row above it
    n_lower = np.bincount(cols_off, minlength=n)
    upper_at = np.arange(rows.size) + np.cumsum(n_lower)[rows]
    in_lower = np.ones(rows.size + lower.size, bool)
    in_lower[upper_at] = False
    full_rows = np.repeat(np.arange(n), n_lower + np.bincount(rows, minlength=n))
    full_cols, full_vals = np.empty_like(full_rows), np.empty(full_rows.size)
    full_cols[upper_at], full_cols[in_lower] = cols, rows[lower]
    full_vals[upper_at], full_vals[in_lower] = vals, vals[lower]
    return full_rows, full_cols, full_vals


def _sparse_field(doc, label, n_rows, n_cols):
    """(rows, cols, vals) of an n_rows x n_cols sparse field: exactly packed
    gaps and values.  The keys strictly increase below n_rows * n_cols, so
    the rows and columns are in range and in canonical order."""
    if set(doc) != {"gaps", "vals"}:
        raise InputError(f"{label} must hold {label}.gaps and vals only")
    vals = _array_field(doc["vals"], f"{label}.vals", np.float64)
    if not np.all(vals):  # SparseMatrix would drop it, so the file would not round-trip
        raise InputError(f"{label}.vals holds a zero; stored entries need nonzero weights")
    keys = _keys_from_gaps(doc["gaps"], f"{label}.gaps", vals.size, n_rows * n_cols)
    rows = keys // n_cols  # np.divmod takes about three times as long
    return rows, keys - rows * n_cols, vals


def _matrix_to_doc(mat: SparseMatrix, upper=False) -> dict:
    """A sparse field: the strictly increasing keys of `mat`'s entries (with
    `upper`, only those with row <= col) as the base64 of their gaps k0,
    k1 - k0 - 1, ..., little-endian in the narrowest of <u1, <u2, <u4 and
    <u8 that holds the largest, and the entries' values packed."""
    keep = mat.rows <= mat.cols if upper else slice(None)
    gaps = np.diff(mat.rows[keep] * mat.n_cols + mat.cols[keep], prepend=-1) - 1
    dtype = np.dtype(np.min_scalar_type(gaps.max(initial=0))).newbyteorder("<")
    return {"gaps": base64.b64encode(gaps.astype(dtype).tobytes()).decode("ascii"),
            "vals": _packed(mat.vals[keep])}


def _matrix_from_doc(doc, n_rows, n_cols, label) -> SparseMatrix:
    """A matrix from its sparse field, built on what the reader proved."""
    return SparseMatrix._canonical(n_rows, n_cols, *_sparse_field(doc, label, n_rows, n_cols))


# the members an instance file and its graph file both hold, and all a
# graph file holds
_DATA_MEMBERS = {"n", "m", "q", "a", "b", "c"}


def _data_to_doc(q: SparseMatrix, a: SparseMatrix, b, c) -> dict:
    """The members n, m, q, a, b, c that an instance file and its graph file
    both hold: q as its upper triangle."""
    return {"n": q.n_rows, "m": a.n_rows, "q": _matrix_to_doc(q, upper=True),
            "a": _matrix_to_doc(a), "b": _packed(b), "c": _packed(c)}


def _data_from_doc(doc):
    """(q, a, b, c) from the members n, m, q, a, b, c in today's form."""
    n, m = (_count(doc[key], key) for key in ("n", "m"))
    rows, cols, vals = _sparse_field(doc["q"], "q", n, n)
    if np.any(rows > cols):
        raise InputError("q.gaps holds an entry below the diagonal; only the upper "
                         "triangle is stored")
    q = SparseMatrix._canonical(n, n, *_mirrored(rows, cols, vals, n), symmetric=True)
    a = _matrix_from_doc(doc["a"], m, n, "a")
    b, c = (_operand(_array_field(doc[key], key, np.float64), size, key)
            for key, size in (("b", m), ("c", n)))
    return q, a, b, c


def _record_to_doc(rec: TransformRecord) -> dict:
    sm = rec.solution_map
    params = rec.params
    if "witness" in params:  # a generator record's float array
        params = {**params, "witness": _packed(params["witness"])}
    return {
        "op": rec.op_name,
        "params": params,
        "solution_map": {
            "kind": sm.kind.value,
            "side": sm.side,
            "values": None if sm.values is None else _packed(sm.values),
            "indices": None if sm.indices is None else sm.indices.tolist(),
        },
    }


def _record_from_doc(doc) -> TransformRecord:
    sm_doc = doc["solution_map"]
    values, indices = (
        None if sm_doc[key] is None else _array_field(sm_doc[key], f"solution_map.{key}", dtype)
        for key, dtype in (("values", np.float64), ("indices", np.int64)))
    params = dict(doc["params"])
    if "witness" in params:  # a generator record's float array
        params["witness"] = _array_field(params["witness"], "params.witness", np.float64).tolist()
    return TransformRecord(str(doc["op"]), params,
                           SolutionMap(MapKind(sm_doc["kind"]), sm_doc["side"], values, indices))


# the end of every refusal of a file's contents: an earlier form is refused
# as malformed, and every file regenerates from its seeds
_REGENERATE = "; a file in an earlier form is not read: regenerate it from its seeds"


def _refused(path, reason) -> InputError:
    return InputError(f"{path}: {reason}{_REGENERATE}")


def save_instance(path, inst: LcqpInstance, sol: Solution | None = None):
    doc = {"name": inst.name, "kind": inst.kind.value,
           **_data_to_doc(inst.q, inst.a, inst.b, inst.c)}
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
        raise _refused(path, "instance file must hold a single object")
    missing = {"name", "kind", *_DATA_MEMBERS} - set(doc)
    if missing:
        raise _refused(path, f"missing fields {sorted(missing)}")
    try:
        kind = ProblemKind(doc["kind"])
        q, a, b, c = _data_from_doc(doc)
        provenance = tuple(_record_from_doc(r) for r in doc.get("provenance", []))
        inst = LcqpInstance(
            q=q, a=a, b=b, c=c, kind=kind, name=str(doc["name"]), provenance=provenance
        )
    except InputError as exc:
        raise _refused(path, exc) from exc
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # a malformed record too
        raise _refused(path, f"malformed field ({exc})") from exc
    if "solution" not in doc:
        return inst, None
    sd = doc["solution"]
    try:
        x, lam = (_array_field(sd[key], f"solution.{key}", np.float64) for key in ("x", "lam"))
        stored_obj = float(_array_field(sd["objective"], "solution.objective", np.float64, ndim=0))
        if x.shape != (inst.n,) or lam.shape != (inst.m,):
            raise InputError(f"x and lam must have {inst.n} and {inst.m} entries")
    except (KeyError, TypeError, InputError) as exc:
        raise _refused(path, f"bad solution ({exc})") from exc
    return inst, (x, lam, stored_obj)


def save_graph(path, graph):
    """Graph export: the members n, m, q, a, b, c of the graph's instance
    file, c and b the variable and constraint nodes' features, q the vv
    edges and a the ca edges."""
    _write_json(path, _data_to_doc(graph.q, graph.a, graph.con_features, graph.var_features))


def load_graph(path):
    from .graphenc import BipartiteGraph

    doc = _parse(path)
    try:
        missing, unknown = _DATA_MEMBERS - set(doc), set(doc) - _DATA_MEMBERS
        if missing or unknown:
            named = {"missing": missing, "unknown": unknown}
            raise InputError(", ".join(f"{k} fields {sorted(v)}" for k, v in named.items() if v))
        q, a, b, c = _data_from_doc(doc)
        return BipartiteGraph(var_features=c, con_features=b, a=a, q=q)
    except InputError as exc:
        raise _refused(path, exc) from exc
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise _refused(path, f"malformed graph file ({exc})") from exc


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
            # matched exactly, as _array_field does: a seed of true is not a seed
            if type(val) is not kind:
                raise InputError(f"{path}: entry {i} needs a {kind.__name__} {key!r}")
    return doc
