"""Instance file round-trips: the on-disk schema is a contract, so one test
pins the literal JSON layout and the rest check bitwise reconstruction."""
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

from qpaug import (
    InputError, LcqpInstance, ProblemKind, Solution, SparseMatrix, gen_lasso, gen_lp,
    gen_portfolio, gen_qp, gen_svm, kkt_residuals, solve_splitting, to_bipartite_graph,
)
from qpaug.fileio import (
    _matrix_from_doc, _matrix_to_doc, _mirrored, _upgraded_field, load_graph, load_instance,
    load_instance_unchecked, load_manifest, save_graph, save_instance, save_manifest,
)
from qpaug.transforms import (
    COMBO_STRENGTHS, SSL_STRENGTHS_QP, AugmentPolicy, MapKind, SolutionMap, TransformRecord,
    _drop_constraints, add_constraints, add_variable_constrained, apply_policy, bias_instance,
    map_solution, remove_inactive_constraints, scale_variables,
)

from conftest import (
    DATA, GRAPH_CASES, GRAPH_MEMBERS, MALFORMED_NUMBERS, make_instance, malformed_graph_file,
    malformed_instance_file, packed, packed_gaps, repacked, unpacked, unpacked_gaps, unpacked_keys,
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


def test_loads_indented_file_with_dense_provenance(e1, e1_sol):
    """A file written by an earlier version: indented JSON, the scale vector
    stored twice (params alpha and map values), dense add_constraints weights."""
    inst, sol = load_instance(Path(__file__).parent / "data" / "e1_indented_v0.json")
    scale, add = inst.provenance
    assert scale.params == {"alpha": [2.0, 0.5]}
    assert add.params == {"weights": [[0.5, 0.5, 0.0], [0.0, 0.25, 0.75]]}
    scaled, _ = scale_variables(e1, np.array([2.0, 0.5]))
    mid = map_solution(scale, scaled, e1_sol)
    added, _ = add_constraints(scaled, add.params["weights"])
    assert added.data_equal(inst)
    # the stored records replay the stored solution bit for bit
    replayed = map_solution(add, inst, mid)
    assert np.array_equal(replayed.x, sol.x) and np.array_equal(replayed.lam, sol.lam)
    assert replayed.objective == sol.objective


def test_loads_dense_explicit_dual_and_dropped_partition(e1, e1_sol):
    """A file written by an earlier version: add_variable_constrained with the
    dense map (c_new, *a_col), and drop records listing `dropped` next to the
    kept indices.  It loads with the sparse map and replays its solution."""
    path = DATA / "e1_dense_provenance_v2.json"
    inst, sol = load_instance(path)
    add, remove, drop = inst.provenance
    stored = json.loads(path.read_text())["provenance"]
    assert stored[0]["solution_map"]["values"] == [-0.5, -0.75, 0.0, -0.25]
    assert stored[0]["solution_map"]["indices"] is None
    assert add.solution_map.indices.tolist() == [0, 2]
    assert add.solution_map.values.tolist() == [-0.5, -0.75, -0.25]
    assert remove.params == {"dropped": [1], "tol": 1e-6, "fraction": 0.5, "seed": 3}
    assert remove.solution_map.indices.tolist() == [0, 2, 3]
    assert drop.params == {"dropped": [1]}
    assert drop.solution_map.indices.tolist() == [0, 2]

    # today's ops rebuild the same data and maps, without `dropped`
    step, rec = add_variable_constrained(
        e1, q_diag=0.5, a_col=np.array([-0.75, 0.0, -0.25]), c_new=-0.5)
    assert rec.solution_map == add.solution_map
    step_sol = map_solution(add, step, e1_sol)
    dense = np.array(stored[0]["solution_map"]["values"])
    assert step_sol.lam[-1] == pytest.approx(-(dense[0] + dense[1:] @ e1_sol.lam), rel=1e-12)
    step, rec = remove_inactive_constraints(step, step_sol, fraction=0.5, seed=3)
    assert rec.solution_map == remove.solution_map
    assert rec.params == {"tol": 1e-6, "fraction": 0.5, "seed": 3}
    step_sol = map_solution(remove, step, step_sol)
    step, rec = _drop_constraints(step, [1])
    assert rec.solution_map == drop.solution_map and rec.params == {}
    step_sol = map_solution(drop, step, step_sol)
    assert step.data_equal(inst)
    # the stored solution was mapped with the dense formula
    np.testing.assert_allclose(step_sol.x, sol.x, rtol=1e-12, atol=0)
    np.testing.assert_allclose(step_sol.lam, sol.lam, rtol=1e-12, atol=0)


# (record, key, value); an earlier version loaded the first four, as the
# value in the comment
MALFORMED_MAPS = {
    "bool-index": (1, "indices", [True]),  # [1]
    "negative-index": (1, "indices", [-3, 2, 3]),  # counted from the end
    "fractional-index": (1, "indices", [0, 2.7, 3]),  # [0, 2, 3]
    "string-value": (0, "values", ["-0.5", -0.75, 0.0, -0.25]),  # -0.5
    "nested-values": (0, "values", [[-0.5, -0.75, 0.0, -0.25]]),
}


def malformed_map_file(tmp_path, case):
    doc = json.loads((DATA / "e1_dense_provenance_v2.json").read_text())
    record, key, value = MALFORMED_MAPS[case]
    doc["provenance"][record]["solution_map"][key] = value
    path = tmp_path / "bad.json"
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


def test_loads_full_storage_files(tmp_path):
    """Files written by an earlier version: q with both triangles, and a graph
    with vv edges both ways and an edges.kind list."""
    inst, sol = load_instance(DATA / "qp_s0_full_storage_v1.json")
    expected = gen_qp(3, 3, 0.7, 0.7, seed=0)  # the fixtures' instance
    assert inst.data_equal(expected) and inst.name == expected.name
    assert inst.provenance[0].params == expected.provenance[0].params
    assert sol is not None
    graph = load_graph(DATA / "qp_s0_full_storage_v1.graph.json")
    want = to_bipartite_graph(expected)
    assert graph == want
    assert graph.vv_edges.tolist() == want.vv_edges.tolist()
    assert graph.ca_edges.tolist() == want.ca_edges.tolist()
    assert np.array_equal(graph.var_features, want.var_features)
    assert np.array_equal(graph.con_features, want.con_features)

    # saving again stores the upper triangle and changes nothing else
    path = tmp_path / "again.json"
    save_instance(path, inst, sol)
    old = json.loads((DATA / "qp_s0_full_storage_v1.json").read_text())
    new = _as_lists(json.loads(path.read_text()))
    assert new["q"] == {"rows": [0, 0, 1, 1, 2], "cols": [0, 1, 1, 2, 2],
                        "vals": [old["q"]["vals"][i] for i in (0, 1, 3, 4, 6)]}
    assert {k: v for k, v in new.items() if k != "q"} == {
        k: v for k, v in old.items() if k != "q"}


# the steps from e1 that wrote tests/data/e1_labeled_lists_v3.json
V3_STEPS = (
    lambda inst, sol: scale_variables(inst, np.array([2.0, 0.5])),
    lambda inst, sol: bias_instance(inst, sol, rank=1, magnitude=0.5, seed=3),
    lambda inst, sol: add_variable_constrained(
        inst, q_diag=0.5, a_col=np.array([-0.75, 0.0, -0.25]), c_new=-0.5),
    lambda inst, sol: add_constraints(inst, [[0.5, 0.5, 0.0, 0.0], [0.0, 0.25, 0.75, 0.0]]),
)


def test_loads_float_lists_v3(tmp_path, e1, e1_sol):
    """Files written by an earlier version, every float array a JSON list: a
    labeled QP with four provenance records, and its graph with a side list.
    They load to today's objects, replay their solution, and save packed."""
    stored = json.loads((DATA / "e1_labeled_lists_v3.json").read_text())
    assert isinstance(stored["b"], list) and isinstance(stored["solution"]["lam"], list)
    inst, sol = load_instance(DATA / "e1_labeled_lists_v3.json")
    step, step_sol = e1, e1_sol
    for rec, op in zip(inst.provenance, V3_STEPS, strict=True):
        step, want = op(step, step_sol)
        assert (rec.op_name, rec.params, rec.solution_map) == (
            want.op_name, want.params, want.solution_map)
        step_sol = map_solution(rec, step, step_sol)
    assert step.data_equal(inst) and step.name == inst.name
    assert np.array_equal(step_sol.x, sol.x) and np.array_equal(step_sol.lam, sol.lam)
    assert step_sol.objective == sol.objective

    graph = load_graph(DATA / "e1_labeled_lists_v3.graph.json")
    want = to_bipartite_graph(step)
    assert graph == want
    assert graph.vv_edges.tolist() == want.vv_edges.tolist()
    assert graph.ca_edges.tolist() == want.ca_edges.tolist()
    assert np.array_equal(graph.var_features, want.var_features)
    assert np.array_equal(graph.con_features, want.con_features)

    # saving again packs every float array and changes no value
    path = tmp_path / "again.json"
    save_instance(path, inst, sol)
    assert isinstance(json.loads(path.read_text())["b"], str)
    assert _as_lists(json.loads(path.read_text())) == stored
    # the graph saves as the instance's members, the same values as its
    # node features (c, then b) and its edges (vv, then ca from node 3 + row)
    gpath = tmp_path / "again.graph.json"
    save_graph(gpath, graph)
    new = json.loads(gpath.read_text())
    assert new == {key: json.loads(path.read_text())[key] for key in GRAPH_MEMBERS}
    old = json.loads((DATA / "e1_labeled_lists_v3.graph.json").read_text())
    assert (new["n"], new["m"]) == (3, 6)
    assert unpacked(new["c"]) + unpacked(new["b"]) == old["nodes"]["feature"]
    (q_rows, q_cols), (a_rows, a_cols) = (
        np.divmod(unpacked_gaps(new[key]["gaps"], nnz), 3) for key, nnz in (("q", 4), ("a", 15)))
    assert {"src": [*q_rows.tolist(), *(a_rows + 3).tolist()],
            "dst": [*q_cols.tolist(), *a_cols.tolist()],
            "weight": unpacked(new["q"]["vals"]) + unpacked(new["a"]["vals"])} == old["edges"]


def test_loads_packed_keys_v4(tmp_path):
    """Files written by an earlier version, coordinates as packed keys: the
    v3 instance and graph saved again.  They load to the v3 objects, and
    saving again stores the same entries as gaps."""
    inst, sol = load_instance(DATA / "e1_labeled_keys_v4.json")
    v3, v3_sol = load_instance(DATA / "e1_labeled_lists_v3.json")
    assert inst.data_equal(v3) and inst.name == v3.name and inst.provenance == v3.provenance
    assert np.array_equal(sol.x, v3_sol.x) and np.array_equal(sol.lam, v3_sol.lam)
    graph = load_graph(DATA / "e1_labeled_keys_v4.graph.json")
    assert graph == load_graph(DATA / "e1_labeled_lists_v3.graph.json")

    stored = json.loads((DATA / "e1_labeled_keys_v4.json").read_text())
    path = tmp_path / "again.json"
    save_instance(path, inst, sol)
    new = json.loads(path.read_text())
    for key, nnz in (("q", 4), ("a", 15)):
        assert unpacked_gaps(new[key].pop("gaps"), nnz) == unpacked_keys(stored[key].pop("keys"))
    assert new == stored
    # the graph saves as the instance's members: the same features (c, then
    # b) and the same edges, keyed src * 9 + dst over the 9 nodes
    gpath = tmp_path / "again.graph.json"
    save_graph(gpath, graph)
    new = json.loads(gpath.read_text())
    assert new == {key: json.loads(path.read_text())[key] for key in GRAPH_MEMBERS}
    old = json.loads((DATA / "e1_labeled_keys_v4.graph.json").read_text())

    def raw(*texts):  # the bytes the packed strings hold, one after another
        return b"".join(base64.b64decode(text) for text in texts)

    assert raw(new["c"], new["b"]) == raw(old["nodes"]["feature"])
    assert raw(new["q"]["vals"], new["a"]["vals"]) == raw(old["edges"]["weight"])
    (q_rows, q_cols), (a_rows, a_cols) = (
        np.divmod(unpacked_gaps(new[key]["gaps"], nnz), 3) for key, nnz in (("q", 4), ("a", 15)))
    src, dst = np.concatenate([q_rows, a_rows + 3]), np.concatenate([q_cols, a_cols])
    assert (src * 9 + dst).tolist() == unpacked_keys(old["edges"]["keys"])


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


# the sha256 of _described(the object each earlier-form file in tests/data
# loads to): load_instance's (instance, solution) pair, or load_graph's graph
PINNED_DATA_OBJECTS = {
    "e1_dense_provenance_v2.json": "d80fec707c811485e531af0a2f762dd6f2a6d43e8b3e6df782b2b1e1d37d0fae",
    "e1_indented_v0.json": "78c065dc8ae5a76f032868bd4290de478fad7284ebc7afcb70c6f323446d850c",
    "e1_labeled_gaps_v5.graph.json": "4d85a0bf4973f5a17c34ebe94c3fef1a2e25d106bf2d2b2067af6fe9090394f7",
    "e1_labeled_keys_v4.graph.json": "4d85a0bf4973f5a17c34ebe94c3fef1a2e25d106bf2d2b2067af6fe9090394f7",
    "e1_labeled_keys_v4.json": "a33deb906f8baf54a0cfd69042ae19628e99b8bfc4b900561f86ac96c12fd040",
    "e1_labeled_lists_v3.graph.json": "4d85a0bf4973f5a17c34ebe94c3fef1a2e25d106bf2d2b2067af6fe9090394f7",
    "e1_labeled_lists_v3.json": "a33deb906f8baf54a0cfd69042ae19628e99b8bfc4b900561f86ac96c12fd040",
    "qp_s0_full_storage_v1.graph.json": "349db4b84b6b332901e30080dbbd8a2ae09334cac230db360c5023dd94bcf5f1",
    "qp_s0_full_storage_v1.json": "e3fe3e9651cae4fe845e62392b06ab36411b4acde2ff43827c8cf27c069f1c55",
}


@pytest.mark.parametrize("name", sorted(PINNED_DATA_OBJECTS))
def test_earlier_forms_load_to_pinned_objects(name):
    """Every fixture of an earlier file form loads to the same objects, down
    to each array's bytes and each float's bits."""
    load = load_graph if name.endswith(".graph.json") else load_instance
    text = _described(load(DATA / name))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DATA_OBJECTS[name], text


def test_every_data_file_is_pinned():
    assert sorted(PINNED_DATA_OBJECTS) == sorted(p.name for p in DATA.glob("*.json"))


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
    """Earlier files pack keys in the narrowest of <u2, <u4 and <i8 that
    holds n_rows * n_cols - 1, the key of the last cell, which each matrix
    holds.  They load at that width and no other, to the matrix today's
    gaps give."""
    n_rows, n_cols = shape
    mat = SparseMatrix(n_rows, n_cols, [0, n_rows // 2, n_rows - 1], [n_cols - 1, 0, n_cols - 1],
                       [1.0, -2.0, 3.0])
    keys = mat.rows * n_cols + mat.cols
    assert keys[-1] == n_rows * n_cols - 1

    def earlier(doc):  # upgraded to today's form, then read
        return _matrix_from_doc(_upgraded_field(doc, "a", n_rows, n_cols, 0), n_rows, n_cols, "a")

    for width in ("<u2", "<u4", "<i8"):
        doc = {"keys": base64.b64encode(keys.astype(width).tobytes()).decode(),
               "vals": packed(mat.vals)}
        if width == dtype:
            assert earlier(doc) == mat
        else:
            with pytest.raises(InputError):
                earlier(doc)
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
    wrong count), gaps of a wrong or too wide width, gaps or earlier keys
    that are not a packed string or leave the matrix, gaps beside keys,
    keys that repeat or decrease, booleans among indices, and strings among
    numbers."""
    path = malformed_instance_file(tmp_path / "bad.json", case)
    # the gaps or keys reader itself, not a later check, refuses a bad field
    field = case.split("-")[0]
    match = re.escape(field) if field.endswith((".gaps", ".keys")) else None
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
    """A current-form file's q is symmetric by construction: loading it and
    its graph never runs the symmetry computation, and every loaded matrix
    owns read-only arrays.  A full-storage file still has its q checked."""
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
    with pytest.raises(AssertionError, match="symmetry of a loaded matrix"):
        load_instance(DATA / "qp_s0_full_storage_v1.json")
    with pytest.raises(AssertionError, match="symmetry of a loaded matrix"):
        load_graph(DATA / "qp_s0_full_storage_v1.graph.json")


@pytest.mark.parametrize("edit", ["value", "missing"])
def test_load_rejects_asymmetric_full_storage(tmp_path, edit):
    doc = json.loads((DATA / "qp_s0_full_storage_v1.json").read_text())
    q = doc["q"]
    assert (q["rows"][2], q["cols"][2]) == (1, 0)
    if edit == "value":
        q["vals"][2] += 1.0  # (1, 0) no longer mirrors (0, 1)
    else:
        for key in q:  # (2, 1) still marks full storage, (0, 1) lost its mirror
            del q[key][2]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="symmetric"):
        load_instance(path)


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
