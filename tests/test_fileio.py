"""Instance file round-trips: the on-disk schema is a contract, so one test
pins the literal JSON layout and the rest check bitwise reconstruction."""
import ast
import base64
import dataclasses
import enum
import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import qpaug
from qpaug import (
    InputError, LcqpInstance, ProblemKind, Solution, SparseMatrix, gen_lasso, gen_lp,
    gen_portfolio, gen_qp, gen_svm, kkt_residuals, solve_splitting, to_bipartite_graph,
)
from qpaug.fileio import (
    _matrix_from_doc, _matrix_to_doc, _mirrored, load_graph, load_instance,
    load_instance_unchecked, load_manifest, save_graph, save_instance, save_manifest,
)
from qpaug.transforms import (
    COMBO_STRENGTHS, SSL_STRENGTHS_QP, AugmentPolicy, MapKind, SolutionMap, TransformRecord,
    apply_policy, map_solution, scale_variables,
)

from conftest import (
    DATA, GRAPH_CASES, GRAPH_MEMBERS, MALFORMED_NUMBERS, labeled_e1, make_instance,
    malformed_graph_file, malformed_instance_file, packed, packed_gaps, repacked, unpacked,
    unpacked_gaps,
)


def test_schema_frozen(tmp_path, e1):
    path = tmp_path / "e1.json"
    save_instance(path, e1)
    doc = json.loads(path.read_text())
    assert set(doc) == {"name", "kind", "n", "m", "q", "a", "b", "c"}
    assert doc["kind"] == "qp"
    assert doc["name"] == "e1"
    assert doc["n"] == 2 and doc["m"] == 3
    assert doc["q"] == {"gaps": "AAI=", "vals": "AAAAAAAAAEAAAAAAAAAAQA=="}
    assert doc["a"] == {
        "gaps": "AAAAAg==",
        "vals": "AAAAAAAA8D8AAAAAAADwPwAAAAAAAPC/AAAAAAAA8L8=",
    }
    assert doc["b"] == "AAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAA"
    assert doc["c"] == "AAAAAAAAAMAAAAAAAAAAwA=="
    # each gaps string holds one byte per entry, the gaps (0, 2) and
    # (0, 0, 0, 2) between the keys row * n + col of (0, 0), (1, 1) in q and
    # (0, 0), (0, 1), (1, 0), (2, 1) in a
    assert base64.b64decode(doc["q"]["gaps"]) == bytes([0, 2])
    assert unpacked_gaps(doc["q"]["gaps"], 2) == [0, 3]
    assert unpacked_gaps(doc["a"]["gaps"], 4) == [0, 1, 2, 5]
    # each packed string holds the little-endian float64 bytes of the values
    assert unpacked(doc["q"]["vals"]) == [2.0, 2.0]
    assert unpacked(doc["a"]["vals"]) == [1.0, 1.0, -1.0, -1.0]
    assert unpacked(doc["b"]) == [1.0, 0.0, 0.0]
    assert unpacked(doc["c"]) == [-2.0, -2.0]


def test_round_trip_unlabeled(tmp_path, e1):
    path = tmp_path / "inst.json"
    save_instance(path, e1)
    inst, sol = load_instance(path)
    assert sol is None
    assert inst.data_equal(e1)
    assert inst.name == e1.name
    assert inst.kind is ProblemKind.QP
    assert np.array_equal(inst.q.vals, e1.q.vals)
    assert np.array_equal(inst.b, e1.b)


def test_round_trip_labeled_bitwise(tmp_path, e1, e1_sol):
    path = tmp_path / "inst.json"
    save_instance(path, e1, e1_sol)
    inst, sol = load_instance(path)
    assert sol is not None
    assert np.array_equal(sol.x, e1_sol.x)
    assert np.array_equal(sol.lam, e1_sol.lam)
    assert sol.objective == e1_sol.objective
    assert kkt_residuals(inst, sol).max_residual <= 1e-12


def test_round_trip_lp_kind(tmp_path):
    inst = make_instance(
        np.zeros((2, 2)), [[1.0, 2.0]], [3.0], [-1.0, 0.5],
        kind=ProblemKind.LP, name="little-lp",
    )
    path = tmp_path / "lp.json"
    save_instance(path, inst)
    back, _ = load_instance(path)
    assert back.kind is ProblemKind.LP
    assert back.data_equal(inst)


def test_provenance_round_trip(tmp_path, e1, e1_sol):
    transformed, rec = scale_variables(e1, np.array([2.0, 1.0]))
    path = tmp_path / "scaled.json"
    save_instance(path, transformed, map_solution(rec, transformed, e1_sol))
    inst, sol = load_instance(path)
    assert len(inst.provenance) == 1
    back = inst.provenance[0]
    assert back.op_name == "scale_variables"
    assert back.params == rec.params
    assert back.solution_map.kind is MapKind.PRIMAL_SCALED
    assert back.solution_map.side == "primal"
    assert np.array_equal(back.solution_map.values, rec.solution_map.values)
    assert back.solution_map == rec.solution_map
    assert back.solution_map.indices is None
    # the loaded record still drives solution reconstruction
    remapped = map_solution(back, inst, e1_sol)
    assert np.array_equal(remapped.x, sol.x)


# save_instance of e1 scaled by alpha = (2, 1), with its mapped solution and
# one provenance record, frozen: compact JSON, coordinates as gaps and float
# arrays packed, and the scale vector stored once, as the map's 1/alpha values
E1_SCALED_FILE = (
    '{"name":"e1","kind":"qp","n":2,"m":3,"q":{"gaps":"AAI=",'
    '"vals":"AAAAAAAAIEAAAAAAAAAAQA=="},"a":{"gaps":"AAAAAg==",'
    '"vals":"AAAAAAAAAEAAAAAAAADwPwAAAAAAAADAAAAAAAAA8L8="},'
    '"b":"AAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAA","c":"AAAAAAAAEMAAAAAAAAAAwA==",'
    '"solution":{"x":"AAAAAAAA0D8AAAAAAADgPw==","lam":"AAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAA",'
    '"objective":-1.5},"provenance":[{"op":"scale_variables","params":{},"solution_map":'
    '{"kind":"primal_scaled","side":"primal","values":"AAAAAAAA4D8AAAAAAADwPw==",'
    '"indices":null}}]}\n'
)


def _as_lists(doc):
    """An instance file's JSON with every packed field decoded to the list
    form earlier versions wrote: gaps to rows and cols, floats to floats."""
    doc = json.loads(json.dumps(doc))
    for part in (doc["q"], doc["a"]):
        part["vals"] = unpacked(part["vals"])
        keys = unpacked_gaps(part.pop("gaps"), len(part["vals"]))
        part["rows"], part["cols"] = (k.tolist() for k in np.divmod(keys, doc["n"]))
    for part, keys in ((doc, ("b", "c")), (doc.get("solution", {}), ("x", "lam"))):
        for key in keys:
            part[key] = unpacked(part[key])
    for rec in doc.get("provenance", []):
        if rec["solution_map"]["values"] is not None:
            rec["solution_map"]["values"] = unpacked(rec["solution_map"]["values"])
        if "witness" in rec["params"]:
            rec["params"]["witness"] = unpacked(rec["params"]["witness"])
    return doc


def test_instance_file_exact_text(tmp_path, e1, e1_sol):
    transformed, rec = scale_variables(e1, np.array([2.0, 1.0]))
    path = tmp_path / "scaled.json"
    save_instance(path, transformed, map_solution(rec, transformed, e1_sol))
    assert path.read_text() == E1_SCALED_FILE
    # the same values as the list form an earlier version wrote
    assert _as_lists(json.loads(E1_SCALED_FILE)) == {
        "name": "e1", "kind": "qp", "n": 2, "m": 3,
        "q": {"rows": [0, 1], "cols": [0, 1], "vals": [8.0, 2.0]},
        "a": {"rows": [0, 0, 1, 2], "cols": [0, 1, 0, 1], "vals": [2.0, 1.0, -2.0, -1.0]},
        "b": [1.0, 0.0, 0.0], "c": [-4.0, -2.0],
        "solution": {"x": [0.25, 0.5], "lam": [1.0, 0.0, 0.0], "objective": -1.5},
        "provenance": [{"op": "scale_variables", "params": {}, "solution_map": {
            "kind": "primal_scaled", "side": "primal", "values": [0.5, 1.0], "indices": None}}],
    }


# (record, key, value) of the labeled fixture, whose records 0, 2 and 3 are
# primal_scaled, explicit_dual and extended_with_zeros maps.  An earlier
# version loaded the first three as the value in the comment.  The last four
# lack a field their kind replays, or hold one value too few for it.
MALFORMED_MAPS = {
    "bool-index": (3, "indices", [True]),  # [1]
    "negative-index": (3, "indices", [-3, 2, 3]),  # counted from the end
    "fractional-index": (3, "indices", [0, 2.7, 3]),  # [0, 2, 3]
    "string-value": (0, "values", ["0.5", 2.0]),
    "nested-values": (0, "values", [[0.5, 2.0]]),
    "scaled-without-values": (0, "values", None),
    "extended-without-indices": (3, "indices", None),
    "explicit-dual-without-indices": (2, "indices", None),
    "explicit-dual-values-short": (2, "values", packed([-0.5, -0.75])),
}


def malformed_map_file(tmp_path, case):
    path = tmp_path / "bad.json"
    save_instance(path, *labeled_e1())
    doc = json.loads(path.read_text())
    record, key, value = MALFORMED_MAPS[case]
    doc["provenance"][record]["solution_map"][key] = value
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("case", sorted(MALFORMED_MAPS))
def test_load_rejects_malformed_solution_maps(tmp_path, case):
    with pytest.raises(InputError, match="solution.map"):
        load_instance(malformed_map_file(tmp_path, case))


def _augmented(strengths, labeled):
    inst = gen_qp(12, 8, 0.4, 0.5, seed=1)
    sol = solve_splitting(inst) if labeled else None
    policy = AugmentPolicy(strengths, ops_per_instance=4, interpolate=labeled, seed=3)
    return apply_policy(inst, policy, sol)[:2]


FORMAT_CASES = {
    "lp": lambda: (gen_lp(10, 6, 0.4, seed=2, bounded=True), None),
    "qp": lambda: (gen_qp(10, 6, 0.4, 0.6, seed=2), None),
    "svm": lambda: (gen_svm(8, 3, 1.0, 0.5, seed=1), None),
    "portfolio": lambda: (gen_portfolio(6, 0.4, seed=0), None),
    "lasso": lambda: (gen_lasso(8, 4, 0.5, 0.5, seed=0), None),
    "combo": lambda: _augmented(COMBO_STRENGTHS, labeled=True),
    "views": lambda: _augmented(SSL_STRENGTHS_QP, labeled=False),
}


@pytest.mark.parametrize("case", sorted(FORMAT_CASES))
def test_symmetric_pairs_stored_once(tmp_path, case):
    inst, sol = FORMAT_CASES[case]()
    path = tmp_path / "inst.json"
    save_instance(path, inst, sol)
    doc = json.loads(path.read_text())
    # the generator record's witness is one packed float string
    witness = inst.provenance[0].params["witness"]
    assert unpacked(doc["provenance"][0]["params"]["witness"]) == witness
    q = doc["q"]
    keys = unpacked_gaps(q["gaps"], len(unpacked(q["vals"])))
    assert all(np.diff(keys) > 0)
    assert all(r <= c for r, c in zip(*np.divmod(keys, inst.n)))
    upper = inst.q.rows <= inst.q.cols
    assert unpacked(q["vals"]) == inst.q.vals[upper].tolist()
    # mirrored straight into canonical order, so loading sorts nothing
    mirrored = _mirrored(inst.q.rows[upper], inst.q.cols[upper], inst.q.vals[upper], inst.n)
    for got, want in zip(mirrored, (inst.q.rows, inst.q.cols, inst.q.vals), strict=True):
        assert got.tobytes() == want.tobytes()
    back, back_sol = load_instance(path)
    assert back.data_equal(inst) and back.name == inst.name
    assert back.provenance == inst.provenance
    if sol is not None:
        assert np.array_equal(back_sol.x, sol.x) and np.array_equal(back_sol.lam, sol.lam)

    # the graph file is the instance file's n, m, q, a, b, c, byte for byte
    # and in the same order: q's upper triangle holds the vv edges
    graph = to_bipartite_graph(inst)
    gpath = tmp_path / "inst.graph.json"
    save_graph(gpath, graph)
    members = {key: doc[key] for key in GRAPH_MEMBERS}
    assert gpath.read_text() == json.dumps(members, separators=(",", ":")) + "\n"
    assert list(json.loads(gpath.read_text())) == list(GRAPH_MEMBERS)
    gback = load_graph(gpath)
    assert gback == graph
    assert gback.vv_edges.tolist() == graph.vv_edges.tolist()
    assert gback.ca_edges.tolist() == graph.ca_edges.tolist()
    assert np.array_equal(gback.var_features, graph.var_features)
    assert np.array_equal(gback.con_features, graph.con_features)


def _described(value):
    """A loaded object as text: every array as its dtype, shape and the
    sha256 of its bytes, every float as hex, every other scalar as its type
    and value, and every dataclass, list and dict field by field."""
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        return f"{value.dtype.str}{list(value.shape)}:{digest}"
    if isinstance(value, float):
        return f"{type(value).__name__}:{value.hex()}"
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return f"{type(value).__name__}({_described(fields)})"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_described, value)) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k!r}:{_described(v)}" for k, v in sorted(value.items())) + "}"
    return f"{type(value).__name__}:{value!r}"


def test_labeled_fixture_is_the_pinned_object():
    """The labeled fixture, built from e1 by LABELED_STEPS, is the object its
    earlier file (e1_labeled_lists_v3.json) loaded to, down to each array's
    bytes and each float's bits."""
    text = _described(labeled_e1())
    pin = "a33deb906f8baf54a0cfd69042ae19628e99b8bfc4b900561f86ac96c12fd040"
    assert hashlib.sha256(text.encode()).hexdigest() == pin, text


# each file in tests/data, written in an earlier form, and the refusal that
# names its first field that is not today's: a sparse field as lists or
# keys, or a graph's nodes and edges in place of its instance's members
GRAPH_REFUSAL = "missing fields ['a', 'b', 'c', 'm', 'n', 'q'], unknown fields ['edges', 'nodes']"
REFUSAL_FIXTURES = {
    "e1_dense_provenance_v2.json": "q must hold q.gaps and vals only",
    "e1_indented_v0.json": "q must hold q.gaps and vals only",
    "e1_labeled_gaps_v5.graph.json": GRAPH_REFUSAL,
    "e1_labeled_keys_v4.graph.json": GRAPH_REFUSAL,
    "e1_labeled_keys_v4.json": "q must hold q.gaps and vals only",
    "e1_labeled_lists_v3.graph.json": GRAPH_REFUSAL,
    "e1_labeled_lists_v3.json": "q must hold q.gaps and vals only",
    "qp_s0_full_storage_v1.graph.json": GRAPH_REFUSAL,
    "qp_s0_full_storage_v1.json": "q must hold q.gaps and vals only",
}


def test_every_data_file_is_refused():
    """Every file in tests/data is a refusal fixture: an earlier form, which
    the one reader refuses by the field, with the hint to regenerate it."""
    assert sorted(REFUSAL_FIXTURES) == sorted(p.name for p in DATA.glob("*.json"))
    for name, field in REFUSAL_FIXTURES.items():
        load = load_graph if name.endswith(".graph.json") else load_instance_unchecked
        with pytest.raises(InputError) as info:
            load(DATA / name)
        assert str(info.value).startswith(f"{DATA / name}: {field}")
        assert str(info.value).endswith("regenerate it from its seeds")


def test_no_module_reads_an_earlier_form():
    """No module of the package defines or names an upgrade of an earlier
    file form: the one reader reads today's form only."""
    gone = {"_upgrade", "_upgrade_graph", "_upgraded_field", "_earlier_keys"}
    found = []
    for path in sorted(Path(qpaug.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, attr, None) for attr in ("name", "id", "attr", "asname")}
            found += [(path.name, name) for name in sorted(names & gone)]
    assert found == []


EXTREMES = np.array([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e-300])


def _bits(arr):
    return np.asarray(arr, dtype=np.float64).tobytes()


def test_packed_round_trip_is_bit_exact(tmp_path):
    """Signed zero, the smallest subnormal, the largest finite magnitudes and
    a tiny normal survive save and load bit for bit in every packed field."""
    diag = np.arange(4)
    inst = LcqpInstance(
        q=SparseMatrix(5, 5, diag, diag, np.abs(EXTREMES[1:])),
        a=SparseMatrix(5, 5, diag + 1, diag, EXTREMES[1:]),
        b=EXTREMES, c=EXTREMES[::-1], kind=ProblemKind.QP, name="extremes",
        provenance=(TransformRecord(
            "scale_variables", {}, SolutionMap(MapKind.PRIMAL_SCALED, "primal", EXTREMES)),),
    )
    lam = np.array([-0.0, 5e-324, 1.7976931348623157e308, 1e-300, 0.0])
    sol = Solution(x=EXTREMES, lam=lam, slack=np.zeros(5), objective=0.0)
    path = tmp_path / "x.json"
    save_instance(path, inst, sol)
    doc = json.loads(path.read_text())
    assert _bits(unpacked(doc["b"])) == _bits(EXTREMES)
    back, (x, back_lam, objective) = load_instance_unchecked(path)
    assert back.data_equal(inst) and objective == 0.0
    for got, want in ((back.q.vals, inst.q.vals), (back.a.vals, inst.a.vals),
                      (back.b, inst.b), (back.c, inst.c), (x, EXTREMES), (back_lam, lam),
                      (back.provenance[0].solution_map.values, EXTREMES)):
        assert _bits(got) == _bits(want)

    graph = to_bipartite_graph(inst)
    save_graph(path, graph)
    gback = load_graph(path)
    assert _bits(gback.var_features) == _bits(inst.c)
    assert _bits(gback.con_features) == _bits(inst.b)
    assert _bits(gback.vv_edges["weight"]) == _bits(graph.vv_edges["weight"])
    assert _bits(gback.ca_edges["weight"]) == _bits(graph.ca_edges["weight"])


@pytest.mark.parametrize("shape, dtype", [
    ((256, 256), "<u2"),  # the largest key is 2**16 - 1
    ((256, 257), "<u4"),
    ((2**16 + 1, 1), "<u4"),  # the largest key is 2**16
    ((2**16, 2**16), "<u4"),  # the largest key is 2**32 - 1
    ((2**16, 2**16 + 1), "<i8"),
    ((2**32 + 1, 1), "<i8"),  # a tall column, still sparse
])
def test_keys_take_the_narrowest_width(shape, dtype):
    """Each shape puts the key of its last cell, n_rows * n_cols - 1, at a
    boundary of the widths <u2, <u4 and <i8 (dtype, the narrowest that holds
    it), and the matrix holds that cell: its gaps load back to the same
    matrix."""
    n_rows, n_cols = shape
    mat = SparseMatrix(n_rows, n_cols, [0, n_rows // 2, n_rows - 1], [n_cols - 1, 0, n_cols - 1],
                       [1.0, -2.0, 3.0])
    keys = mat.rows * n_cols + mat.cols
    assert keys[-1] == n_rows * n_cols - 1
    assert _matrix_from_doc(_matrix_to_doc(mat), n_rows, n_cols, "a") == mat


# the largest gap each width holds, and the smallest the next one needs
WIDTH_BOUNDARIES = (255, 256, 2**16 - 1, 2**16, 2**32 - 1, 2**32)


@given(gaps=st.lists(st.integers(0, 3) | st.sampled_from(WIDTH_BOUNDARIES), max_size=40),
       n_cols=st.sampled_from([1, 2, 7, 300]))
@example(gaps=[], n_cols=3)  # no entries: an empty string
@example(gaps=[2**32], n_cols=1)  # <u8 in a tall 2**32 + 1 x 1 column
@example(gaps=[1, 255, 0], n_cols=7)
@example(gaps=[1, 256, 0], n_cols=7)
@example(gaps=[1, 2**16 - 1, 0], n_cols=7)
@example(gaps=[1, 2**16, 0], n_cols=7)
@example(gaps=[1, 2**32 - 1, 0], n_cols=7)
@example(gaps=[1, 2**32, 0], n_cols=7)
def test_gaps_round_trip_at_the_narrowest_width(gaps, n_cols):
    """A matrix's coordinates are stored as the gaps between its keys, one
    byte string in the narrowest of 1, 2, 4 and 8 bytes per gap that holds
    the largest; they load back to the same matrix, and the same gaps one
    width wider are refused, so each matrix has one encoding."""
    keys = np.cumsum(np.array(gaps, dtype=np.int64) + 1) - 1
    n_rows = int(keys[-1]) // n_cols + 1 if gaps else 4
    mat = SparseMatrix(n_rows, n_cols, *np.divmod(keys, n_cols), np.arange(1.0, len(gaps) + 1))
    width = next(w for w in (1, 2, 4, 8) if max(gaps, default=0) < 256**w)
    doc = _matrix_to_doc(mat)
    assert base64.b64decode(doc["gaps"]) == b"".join(g.to_bytes(width, "little") for g in gaps)
    assert _matrix_from_doc(doc, n_rows, n_cols, "a") == mat
    if gaps and width < 8:
        wider = np.array(gaps, dtype=f"<u{2 * width}").tobytes()
        with pytest.raises(InputError, match="a.gaps"):
            _matrix_from_doc({**doc, "gaps": base64.b64encode(wider).decode()}, n_rows, n_cols, "a")


def test_gaps_refuse_keys_that_wrap_past_int64():
    """Gaps that each fit a huge matrix but sum past the largest int64 wrap
    to keys that would seem in range; the reader refuses them."""
    n_rows = 2**62  # one column, so a key is its row
    gaps = [2**62 - 1] * 4 + [5]  # the keys wrap to 2**64 + 5, read as 5
    doc = {"gaps": base64.b64encode(np.array(gaps, dtype="<u8").tobytes()).decode(),
           "vals": packed(np.ones(5))}
    assert (np.cumsum(np.array(gaps, dtype=np.int64)) + np.arange(5))[-1] == 5
    with pytest.raises(InputError, match="a.gaps"):
        _matrix_from_doc(doc, n_rows, 1, "a")


@pytest.mark.parametrize("case", sorted(MALFORMED_NUMBERS))
def test_load_rejects_malformed_numbers(tmp_path, case):
    """Bad packed strings (not base64, a partial value, NaN or infinity, the
    wrong count), gaps of a wrong or too wide width, gaps that are not a
    packed string or leave the matrix, gaps beside another field, booleans
    among indices, and strings among numbers."""
    path = malformed_instance_file(tmp_path / "bad.json", case)
    # the gaps reader itself, not a later check, refuses a bad gaps field
    field = case.split("-")[0]
    match = re.escape(field) if field.endswith(".gaps") else None
    with pytest.raises(InputError, match=match):
        load_instance(path)
    with pytest.raises(InputError, match=match):
        load_instance_unchecked(path)


@pytest.mark.parametrize("case", GRAPH_CASES)
def test_graph_load_rejects_malformed_numbers(tmp_path, case):
    """The MALFORMED_NUMBERS cases that edit n, m, q, a, b or c, applied to a
    saved graph file: load_graph refuses each, and the error names the file
    and the member, and a bad gaps field itself, as load_instance's do."""
    path = malformed_graph_file(tmp_path / "bad.graph.json", case)
    field = case.split("-")[0]
    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}: {field.split('.')[0]}\b") as info:
        load_graph(path)
    assert not field.endswith(".gaps") or field in str(info.value)


@pytest.mark.parametrize("field, value", [("n", 2.9), ("m", "3"), ("n", -2), ("m", -3)])
def test_graph_load_rejects_bad_counts(tmp_path, e1, field, value):
    """A graph file's n and m are counts, read as an instance file's are."""
    path = tmp_path / "e1.graph.json"
    save_graph(path, to_bipartite_graph(e1))
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}: {field}\b"):
        load_graph(path)


@pytest.mark.parametrize("edit", [lambda s: "!" + s[1:], lambda s: s[:-4],
                                  lambda s: repacked(s, lambda v: [float("nan"), *v[1:]])],
                         ids=["bad-base64", "partial-value", "nan"])
def test_load_rejects_malformed_witness(tmp_path, edit):
    path = tmp_path / "gen.json"
    save_instance(path, gen_qp(6, 4, 0.5, 0.5, seed=0))
    doc = json.loads(path.read_text())
    params = doc["provenance"][0]["params"]
    params["witness"] = edit(params["witness"])
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="params.witness"):
        load_instance(path)


def test_save_refuses_non_finite_values(tmp_path, e1):
    bad = LcqpInstance(q=e1.q, a=e1.a, b=e1.b, c=e1.c, kind=e1.kind, name="bad", provenance=(
        TransformRecord("scale_variables", {}, SolutionMap(
            MapKind.PRIMAL_SCALED, "primal", [np.inf, 1.0])),))
    with pytest.raises(ValueError):
        save_instance(tmp_path / "bad.json", bad)


def test_loaded_matrices_are_not_checked_again(tmp_path, monkeypatch):
    """A file's q is symmetric by construction: loading it and its graph
    never runs the symmetry computation, and every loaded matrix owns
    read-only arrays."""
    inst = gen_qp(300, 300, 0.05, 0.05, seed=0)  # one qp-m benchmark instance
    path, gpath = tmp_path / "qp.json", tmp_path / "qp.graph.json"
    save_instance(path, inst)
    save_graph(gpath, to_bipartite_graph(inst))

    def symmetry_computed(mat):
        raise AssertionError("the symmetry of a loaded matrix was computed")

    monkeypatch.setattr(SparseMatrix.__dict__["_symmetric"], "func", symmetry_computed)
    back, _ = load_instance(path)
    graph = load_graph(gpath)
    assert back.data_equal(inst) and graph == to_bipartite_graph(inst)
    assert back.q.is_symmetric() and graph.q.is_symmetric()
    arrays = [getattr(mat, name) for mat in (back.q, back.a, graph.q, graph.a)
              for name in ("rows", "cols", "vals")]
    assert not any(arr.flags.writeable for arr in arrays)
    for i, first in enumerate(arrays):
        assert not any(np.shares_memory(first, other) for other in arrays[i + 1:])


def test_save_is_byte_deterministic(tmp_path, e1, e1_sol):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_instance(p1, e1, e1_sol)
    save_instance(p2, e1, e1_sol)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_leaves_no_temp_files(tmp_path, e1):
    save_instance(tmp_path / "x.json", e1)
    assert sorted(os.listdir(tmp_path)) == ["x.json"]


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("this is not json")
    with pytest.raises(InputError):
        load_instance(path)


def test_load_rejects_bad_kind(tmp_path, e1):
    path = tmp_path / "inst.json"
    save_instance(path, e1)
    doc = json.loads(path.read_text())
    doc["kind"] = "socp"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        load_instance(path)


def test_load_rejects_length_mismatch(tmp_path, e1):
    path = tmp_path / "inst.json"
    save_instance(path, e1)
    doc = json.loads(path.read_text())
    doc["b"] = repacked(doc["b"], lambda b: b[:-1])
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        load_instance(path)


@pytest.mark.parametrize("field, value", [
    ("n", 2.9),  # used to load as n = 2
    ("m", "3"),
    # the earlier list form, with a non-integer index: refused whole, as its
    # coordinates are not packed gaps
    ("a", {"rows": [0, 0, 1, 2], "cols": [0, 1.7, 0, 1], "vals": [1.0, 1.0, -1.0, -1.0]}),
    ("q", {"rows": [0.0, 1.0], "cols": [0, 1], "vals": [2.0, 2.0]}),
    ("n", -2),  # n * n is positive, so q's keys alone would pass
    ("m", -3),
    # keys 0, 2, 3 are (0, 0), (1, 0), (1, 1): an entry below the diagonal of
    # a gaps-form q, which no version wrote
    ("q", {"gaps": packed_gaps([0, 2, 3]), "vals": packed([2.0, 1.0, 2.0])}),
])
def test_load_rejects_non_integer_indices_and_dims(tmp_path, e1, field, value):
    path = tmp_path / "inst.json"
    save_instance(path, e1)
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    # the error names the field it refuses, as the reader's own checks do
    with pytest.raises(InputError, match=rf": {field}\b"):
        load_instance(path)


def test_load_rejects_missing_field(tmp_path, e1):
    path = tmp_path / "inst.json"
    save_instance(path, e1)
    doc = json.loads(path.read_text())
    del doc["c"]
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        load_instance(path)


def test_unchecked_loader_tolerates_bad_duals(tmp_path, e1, e1_sol):
    from qpaug.fileio import load_instance_unchecked

    path = tmp_path / "inst.json"
    save_instance(path, e1, e1_sol)
    doc = json.loads(path.read_text())
    doc["solution"]["lam"] = repacked(doc["solution"]["lam"], lambda lam: [-1.0, *lam[1:]])
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        load_instance(path)
    inst, arrays = load_instance_unchecked(path)
    assert inst.data_equal(e1)
    x, lam, stored = arrays
    assert lam[0] == -1.0
    assert stored == e1_sol.objective


def test_manifest_round_trip(tmp_path):
    entries = [
        {"path": "lp_00000.json", "split": "train", "family": "lp",
         "seed": 123, "labeled": True, "solver_status": "ok"},
        {"path": "lp_00001.json", "split": "val", "family": "lp",
         "seed": 456, "labeled": False, "solver_status": "unbounded"},
    ]
    path = tmp_path / "manifest.json"
    save_manifest(path, entries)
    assert load_manifest(path) == entries
    assert path.read_text() == json.dumps(entries, separators=(",", ":")) + "\n"
    assert sorted(os.listdir(tmp_path)) == ["manifest.json"]


def test_manifest_rejects_garbage(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("{42:")
    with pytest.raises(InputError):
        load_manifest(path)
    path.write_bytes(b'[{"path": "\xff.json"}]')  # not UTF-8
    with pytest.raises(InputError):
        load_manifest(path)


GOOD_ENTRY = {"path": "a.json", "split": "train", "family": "lp",
              "seed": 1, "labeled": True, "solver_status": "ok"}


@pytest.mark.parametrize("entry", [
    {"path": "a.json"},
    ["a.json", "train"],
    "a.json",
    {**GOOD_ENTRY, "path": 3},
    {**GOOD_ENTRY, "split": None},
    {**GOOD_ENTRY, "seed": 1.5},
    {**GOOD_ENTRY, "seed": True},
    {**GOOD_ENTRY, "labeled": 1},
    {k: v for k, v in GOOD_ENTRY.items() if k != "solver_status"},
])
def test_manifest_rejects_malformed_entries(tmp_path, entry):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([GOOD_ENTRY, entry]))
    with pytest.raises(InputError):
        load_manifest(path)
