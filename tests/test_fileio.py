"""Instance file round-trips: the on-disk schema is a contract, so one test
pins the literal JSON layout and the rest check bitwise reconstruction."""
import json
import os
from pathlib import Path

import numpy as np
import pytest

from qpaug import InputError, ProblemKind, kkt_residuals
from qpaug.fileio import load_instance, load_manifest, save_instance, save_manifest
from qpaug.transforms import MapKind, add_constraints, map_solution, scale_variables

from conftest import make_instance


def test_schema_frozen(tmp_path, e1):
    path = tmp_path / "e1.json"
    save_instance(path, e1)
    doc = json.loads(path.read_text())
    assert set(doc) == {"name", "kind", "n", "m", "q", "a", "b", "c"}
    assert doc["kind"] == "qp"
    assert doc["name"] == "e1"
    assert doc["n"] == 2 and doc["m"] == 3
    assert doc["q"] == {"rows": [0, 1], "cols": [0, 1], "vals": [2.0, 2.0]}
    assert doc["a"] == {
        "rows": [0, 0, 1, 2],
        "cols": [0, 1, 0, 1],
        "vals": [1.0, 1.0, -1.0, -1.0],
    }
    assert doc["b"] == [1.0, 0.0, 0.0]
    assert doc["c"] == [-2.0, -2.0]


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
    assert back.solution_map.values == rec.solution_map.values
    assert back.solution_map.indices is None
    # the loaded record still drives solution reconstruction
    remapped = map_solution(back, inst, e1_sol)
    assert np.array_equal(remapped.x, sol.x)


# save_instance of e1 scaled by alpha = (2, 1), with its mapped solution and
# one provenance record, frozen: compact JSON, and the scale vector stored
# once, as the map's 1/alpha values
E1_SCALED_FILE = (
    '{"name":"e1","kind":"qp","n":2,"m":3,"q":{"rows":[0,1],"cols":[0,1],"vals":[8.0,2.0]},'
    '"a":{"rows":[0,0,1,2],"cols":[0,1,0,1],"vals":[2.0,1.0,-2.0,-1.0]},"b":[1.0,0.0,0.0],'
    '"c":[-4.0,-2.0],"solution":{"x":[0.25,0.5],"lam":[1.0,0.0,0.0],"objective":-1.5},'
    '"provenance":[{"op":"scale_variables","params":{},"solution_map":{"kind":"primal_scaled",'
    '"side":"primal","values":[0.5,1.0],"indices":null}}]}\n'
)


def test_instance_file_exact_text(tmp_path, e1, e1_sol):
    transformed, rec = scale_variables(e1, np.array([2.0, 1.0]))
    path = tmp_path / "scaled.json"
    save_instance(path, transformed, map_solution(rec, transformed, e1_sol))
    assert path.read_text() == E1_SCALED_FILE


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
    doc["b"] = doc["b"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        load_instance(path)


@pytest.mark.parametrize("field, value", [
    ("n", 2.9),  # used to load as n = 2
    ("m", "3"),
    ("a", {"rows": [0, 0, 1, 2], "cols": [0, 1.7, 0, 1], "vals": [1.0, 1.0, -1.0, -1.0]}),
    ("q", {"rows": [0.0, 1.0], "cols": [0, 1], "vals": [2.0, 2.0]}),
])
def test_load_rejects_non_integer_indices_and_dims(tmp_path, e1, field, value):
    path = tmp_path / "inst.json"
    save_instance(path, e1)
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError):
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
    doc["solution"]["lam"][0] = -1.0
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
