"""Shared fixtures: the two hand-checked instances used throughout the suite.

E1 is a 2-variable QP whose optimum sits on the first constraint; E2 has one
variable pinned at zero by an active bound.  Both optima were verified by hand
against the first-order conditions and by exhaustive active-set enumeration.
"""
import base64
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from qpaug import (
    LcqpInstance,
    ProblemKind,
    Solution,
    SparseMatrix,
    add_constraints,
    gen_qp,
    scale_constraints,
    scale_variables,
    solve_splitting,
    to_bipartite_graph,
)
from qpaug.fileio import load_instance, save_graph, save_instance

DATA = Path(__file__).parent / "data"

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def unpacked(text):
    """A packed float field of a file (base64 of little-endian float64 bytes)
    as a list of floats, decoded here without the package's reader."""
    return np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8").tolist()


def packed(values):
    """`values` as a packed float field, encoded here without the package."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def repacked(text, edit):
    """The packed float field `text` with `edit` applied to its decoded list:
    the one way tests corrupt or rewrite a packed field of a file."""
    return packed(edit(unpacked(text)))


def unpacked_gaps(text, nnz):
    """A packed gaps field of `nnz` entries as the list of its keys
    (row * n_cols + col per entry), decoded here without the package's
    reader: the byte count gives the width, and each key is the previous
    one plus its gap plus one."""
    raw = base64.b64decode(text, validate=True)
    gaps = np.frombuffer(raw, dtype=f"<u{len(raw) // nnz}") if nnz else []
    return [int(k) for k in np.cumsum(np.asarray(gaps, dtype=object) + 1) - 1]


def gaps_of(keys):
    """The gaps k0, k1 - k0 - 1, ... of strictly increasing `keys`."""
    return [k - before - 1 for before, k in zip([-1, *keys], keys)]


def packed_gaps(keys, width=None):
    """`keys` as a packed gaps field, encoded here without the package: by
    default in the narrowest of 1, 2, 4 and 8 bytes that holds every gap."""
    gaps = gaps_of(keys)
    width = width or next(w for w in (1, 2, 4, 8) if max(gaps, default=0) < 256**w)
    return base64.b64encode(b"".join(g.to_bytes(width, "little") for g in gaps)).decode()


def regapped(text, nnz, edit):
    """The packed gaps field `text` with `edit` applied to its decoded keys."""
    return packed_gaps(edit(unpacked_gaps(text, nnz)))


# the key width of every matrix in the earlier keyed fixtures, which have
# fewer than 2**16 cells
KEY_DTYPE = "<u2"


def unpacked_keys(text):
    """A packed keys field of an earlier file (row * n_cols + col per entry)
    as a list of ints, decoded here without the package's reader."""
    return np.frombuffer(base64.b64decode(text, validate=True), dtype=KEY_DTYPE).tolist()


def packed_keys(keys):
    """`keys` as an earlier file's packed keys field, encoded here without
    the package."""
    return base64.b64encode(np.asarray(keys, dtype=KEY_DTYPE).tobytes()).decode("ascii")


def rekeyed(text, edit):
    """The packed keys field `text` with `edit` applied to its decoded list."""
    return packed_keys(edit(unpacked_keys(text)))


def _first_as_string(text):
    values = unpacked(text)
    return [str(values[0]), *values[1:]]


# the labeled fixture's a is 6 x 3, so 18 is the first key out of its range;
# it has A_NNZ entries, and q, stored as its upper triangle, Q_NNZ
A_CELLS, A_NNZ, Q_NNZ = 18, 15, 4

# (path of a field in an instance file, edit of its stored value): each edit
# of the labeled fixture, saved in today's form (or, for a field only an
# earlier form has, in that form as stored: EARLIER_FORMS), must make loading
# raise InputError.  An earlier version loaded each list case but
# map-values-string: true as 1, a string parsed as the number it spells.
MALFORMED_NUMBERS = {
    "b-bad-base64": (("b",), lambda s: "!" + s[1:]),
    "x-partial-value": (("solution", "x"), lambda s: base64.b64encode(bytes(12)).decode()),
    "lam-nan": (("solution", "lam"), lambda s: repacked(s, lambda v: [float("nan"), *v[1:]])),
    "c-inf": (("c",), lambda s: repacked(s, lambda v: [*v[:-1], float("inf")])),
    "q.vals-minus-inf": (("q", "vals"), lambda s: repacked(s, lambda v: [-float("inf"), *v[1:]])),
    "map-values-nan": (("provenance", 0, "solution_map", "values"),
                       lambda s: repacked(s, lambda v: [float("nan"), *v[1:]])),
    "b-short": (("b",), lambda s: repacked(s, lambda v: v[:-1])),
    "x-long": (("solution", "x"), lambda s: repacked(s, lambda v: [*v, 0.0])),
    "a.vals-short": (("a", "vals"), lambda s: repacked(s, lambda v: v[:-1])),
    "c-long": (("c",), lambda s: repacked(s, lambda v: [*v, 1.0])),
    "q.rows-bool": (("q", "rows"), lambda v: [True if r == 1 else r for r in v]),
    "a.cols-bool": (("a", "cols"), lambda v: [True if c == 1 else c for c in v]),
    "indices-bool": (("provenance", 2, "solution_map", "indices"),
                     lambda v: [False if i == 0 else i for i in v]),
    "b-string": (("b",), _first_as_string),
    "c-string": (("c",), _first_as_string),
    "q.vals-string": (("q", "vals"), _first_as_string),
    "a.vals-string": (("a", "vals"), _first_as_string),
    "x-string": (("solution", "x"), _first_as_string),
    "lam-string": (("solution", "lam"), _first_as_string),
    "map-values-string": (("provenance", 0, "solution_map", "values"), _first_as_string),
    "objective-string": (("solution", "objective"), str),
    "q.keys-bad-base64": (("q", "keys"), lambda s: "!" + s[1:]),
    "a.keys-partial-key": (("a", "keys"), lambda s: base64.b64encode(
        base64.b64decode(s) + bytes(1)).decode()),
    "q.keys-duplicate": (("q", "keys"), lambda s: rekeyed(s, lambda k: [k[0], *k[:-1]])),
    "a.keys-duplicate": (("a", "keys"), lambda s: rekeyed(s, lambda k: [k[0], k[0], *k[2:]])),
    "a.keys-decreasing": (("a", "keys"), lambda s: rekeyed(s, lambda k: [k[1], k[0], *k[2:]])),
    "a.keys-out-of-range": (("a", "keys"), lambda s: rekeyed(s, lambda k: [*k[:-1], A_CELLS])),
    "q.keys-list": (("q", "keys"), unpacked_keys),
    "q.gaps-bad-base64": (("q", "gaps"), lambda s: "!" + s[1:]),
    "a.gaps-byte-count-off-by-one": (("a", "gaps"), lambda s: base64.b64encode(
        base64.b64decode(s) + bytes(1)).decode()),
    "a.gaps-width-3": (("a", "gaps"), lambda s: packed_gaps(unpacked_gaps(s, A_NNZ), 3)),
    "a.gaps-wider-than-needed": (("a", "gaps"), lambda s: packed_gaps(unpacked_gaps(s, A_NNZ), 2)),
    "a.gaps-out-of-range": (("a", "gaps"), lambda s: regapped(
        s, A_NNZ, lambda k: [*k[:-1], A_CELLS])),
    # 2**64 - 1 wraps to -1 in int64, so the key after it would repeat
    "a.gaps-u8-overflow": (("a", "gaps"), lambda s: base64.b64encode(np.array(
        [0, 2**64 - 1, *range(1, A_NNZ - 1)], dtype="<u8").tobytes()).decode()),
    "q.gaps-list": (("q", "gaps"), lambda s: gaps_of(unpacked_gaps(s, Q_NNZ))),
    "a.gaps-beside-keys": (("a",), lambda a: {**a, "keys": packed_keys(
        unpacked_gaps(a["gaps"], A_NNZ))}),
    # an earlier version loaded these, dropping the entry the zero stands for
    "a.vals-explicit-zero": (("a", "vals"), lambda s: repacked(s, lambda v: [0.0, *v[1:]])),
    "q.vals-explicit-zero": (("q", "vals"), lambda s: repacked(s, lambda v: [*v[:-1], 0.0])),
}

# the earlier fixtures of the labeled instance, by the field only they hold;
# each loads as it stands
EARLIER_FORMS = {"rows": "e1_labeled_lists_v3.json", "cols": "e1_labeled_lists_v3.json",
                 "keys": "e1_labeled_keys_v4.json"}


# the members of an instance file that its graph file holds, and only those
GRAPH_MEMBERS = ("n", "m", "q", "a", "b", "c")

# the MALFORMED_NUMBERS cases that edit one of those members in today's form,
# so they apply to a saved graph file too
GRAPH_CASES = sorted(case for case, ((first, *rest), _) in MALFORMED_NUMBERS.items()
                     if first in GRAPH_MEMBERS and [first, *rest][-1] not in EARLIER_FORMS)


def malformed_instance_file(path, case):
    """Write the labeled fixture to `path` in today's form (in an earlier
    form as stored, for a field of EARLIER_FORMS), with one field edited as
    MALFORMED_NUMBERS[case] says."""
    (*outer, key), edit = MALFORMED_NUMBERS[case]
    source = DATA / EARLIER_FORMS.get(key, "e1_labeled_lists_v3.json")
    if key not in EARLIER_FORMS:
        save_instance(path, *load_instance(source))
        source = path
    return _edited(path, json.loads(source.read_text()), case)


def malformed_graph_file(path, case):
    """Write the labeled fixture's graph file to `path`, as save_graph writes
    it, with one member edited as MALFORMED_NUMBERS[case] (of GRAPH_CASES)
    says."""
    save_graph(path, to_bipartite_graph(load_instance(DATA / "e1_labeled_lists_v3.json")[0]))
    return _edited(path, json.loads(path.read_text()), case)


def _edited(path, doc, case):
    """Write `doc` to `path` with the field MALFORMED_NUMBERS[case] names
    edited as it says."""
    (*outer, key), edit = MALFORMED_NUMBERS[case]
    assert doc["m"] * doc["n"] == A_CELLS
    field = doc
    for step in outer:
        field = field[step]
    field[key] = edit(field[key])
    path.write_text(json.dumps(doc))
    return path


def make_instance(q, a, b, c, kind=ProblemKind.QP, name=""):
    return LcqpInstance(
        q=SparseMatrix.from_dense(np.asarray(q, dtype=float)),
        a=SparseMatrix.from_dense(np.asarray(a, dtype=float)),
        b=np.asarray(b, dtype=float),
        c=np.asarray(c, dtype=float),
        kind=kind,
        name=name,
    )


def stress_copy(seed, d, scale_vars):
    """(base, its label, copy): gen_qp(100, 100) at seed, plus five
    add_constraints rows, each a positive combination of three rows active
    at the label with weights U(0, 1) + 0.1, then every row scaled by d and,
    with scale_vars, every variable by 1/d.  The added rows make the active
    sets linearly dependent and the scaling makes them large; both keep the
    optimum, so the copy's objective is the label's."""
    base = gen_qp(100, 100, 0.05, 0.05, seed)
    label = solve_splitting(base)
    active = np.flatnonzero(label.lam > 1e-9)
    rng = np.random.default_rng(seed)
    weights = np.zeros((5, base.m))
    for row in weights:
        pick = rng.choice(active, size=3, replace=False)
        row[pick] = rng.random(3) + 0.1
    inst, _ = add_constraints(base, weights)
    inst, _ = scale_constraints(inst, np.full(inst.m, d))
    if scale_vars:
        inst, _ = scale_variables(inst, np.full(inst.n, 1.0 / d))
    return base, label, inst


@pytest.fixture
def e1():
    # min x'x - 2(x1+x2)  s.t.  x1+x2 <= 1, x >= 0; optimum (0.5, 0.5)
    return make_instance(
        q=[[2.0, 0.0], [0.0, 2.0]],
        a=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        b=[1.0, 0.0, 0.0],
        c=[-2.0, -2.0],
        name="e1",
    )


@pytest.fixture
def e1_sol(e1):
    return Solution.from_primal_dual(e1, np.array([0.5, 0.5]), np.array([1.0, 0.0, 0.0]))


@pytest.fixture
def e2():
    # min 0.5 x'x - x1 + x2  s.t.  x >= 0; optimum (1, 0) with the second
    # bound active at dual 1
    return make_instance(
        q=[[1.0, 0.0], [0.0, 1.0]],
        a=[[-1.0, 0.0], [0.0, -1.0]],
        b=[0.0, 0.0],
        c=[-1.0, 1.0],
        name="e2",
    )


@pytest.fixture
def e2_sol(e2):
    return Solution.from_primal_dual(e2, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
