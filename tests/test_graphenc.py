"""Bipartite encoding, the forward-only message passer, pooling, and the
contrastive loss.  The loss has a brute-force double-loop oracle here; the
network itself is locked by structural properties plus a frozen snapshot."""
import base64

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpaug import InputError, ProblemKind, SparseMatrix, gen_lp, gen_qp, permute_instance
from qpaug.fileio import load_graph, save_graph, save_instance
from qpaug.graphenc import (
    EDGE_DTYPE,
    BipartiteGraph,
    MpnnWeights,
    encode_instance,
    init_mpnn_weights,
    mpnn_forward,
    nt_xent_loss,
    pooled_embedding,
    to_bipartite_graph,
)
from qpaug.transforms import AugmentPolicy, SSL_STRENGTHS_QP, apply_policy, scale_variables

from conftest import (
    DATA, make_instance, packed, packed_gaps, packed_keys, unpacked, unpacked_gaps,
)


# ---------------------------------------------------------------- graph building

def test_bipartite_e1(e1):
    g = to_bipartite_graph(e1)
    assert g.n_var_nodes == 2
    assert g.n_con_nodes == 3
    assert np.array_equal(g.var_features, e1.c)
    assert np.array_equal(g.con_features, e1.b)
    assert len(g.ca_edges) == 4
    assert len(g.vv_edges) == 2
    assert set(g.ca_edges.tolist()) == {(0, 0, 1.0), (0, 1, 1.0), (1, 0, -1.0), (2, 1, -1.0)}
    assert set(g.vv_edges.tolist()) == {(0, 0, 2.0), (1, 1, 2.0)}
    assert not g.ca_edges.flags.writeable and not g.vv_edges.flags.writeable


def test_bipartite_lp_has_no_vv_edges():
    inst = make_instance(
        np.zeros((2, 2)), [[1.0, 1.0]], [1.0], [-1.0, -1.0], kind=ProblemKind.LP
    )
    g = to_bipartite_graph(inst)
    assert g.vv_edges.tolist() == []
    assert len(g.ca_edges) == 2


def test_bipartite_offdiagonal_q_symmetric():
    q = [[2.0, 0.5], [0.5, 2.0]]
    inst = make_instance(q, [[1.0, 0.0]], [1.0], [0.0, 0.0])
    g = to_bipartite_graph(inst)
    assert (0, 1, 0.5) in g.vv_edges.tolist() and (1, 0, 0.5) in g.vv_edges.tolist()
    assert len(g.vv_edges) == 4


def test_bipartite_weight_multiset_permutation_invariant(e1):
    g1 = to_bipartite_graph(e1)
    g2 = to_bipartite_graph(permute_instance(e1, [1, 0], [2, 0, 1]))
    assert sorted(g1.ca_edges["weight"]) == sorted(g2.ca_edges["weight"])
    assert sorted(g1.vv_edges["weight"]) == sorted(g2.vv_edges["weight"])


NO_A = SparseMatrix.zeros(1, 2)
NO_Q = SparseMatrix.zeros(2, 2)


BAD_GRAPHS = [
    ("a with the wrong column count", {"a": SparseMatrix.zeros(1, 3)}),
    ("non-square q", {"q": SparseMatrix.zeros(2, 3)}),
    ("missing mirror entry", {"q": SparseMatrix(2, 2, [0], [1], [3.0])}),
    ("mirror weight differs", {"q": SparseMatrix(2, 2, [0, 1], [1, 0], [3.0, 2.0])}),
    ("edge array for a", {"a": np.zeros(0, dtype=EDGE_DTYPE)}),
    ("edge array for q", {"q": np.zeros(0, dtype=EDGE_DTYPE)}),
    ("tuple rows", {"a": ((0, 1, 1.0),)}),
    ("plain matrix", {"a": np.zeros((1, 2))}),
    ("var feature length mismatch", {"var_features": np.zeros(3)}),
    ("con feature length mismatch", {"con_features": np.zeros(2)}),
    ("2-D features", {"var_features": np.zeros((2, 1))}),
    ("non-finite feature", {"con_features": np.array([np.inf])}),
]


def test_bipartite_validates_edges():
    """Bad a/q inputs and feature lengths are refused; out-of-range,
    duplicate and non-finite entries never reach here, since SparseMatrix
    refuses them itself."""
    for label, bad in BAD_GRAPHS:
        parts = {"var_features": np.zeros(2), "con_features": np.zeros(1),
                 "a": NO_A, "q": NO_Q, **bad}
        with pytest.raises(InputError):
            BipartiteGraph(**parts)
            pytest.fail(f"accepted {label}")


def test_bipartite_shares_instance_matrices(e1):
    """The edges are the instance's own matrices, which are immutable."""
    g = to_bipartite_graph(e1)
    assert g.a is e1.a and g.q is e1.q
    assert (g.n_con_nodes, g.n_var_nodes) == e1.a.shape


def test_bipartite_freezes_feature_copies():
    vf, cf = np.array([1.0, 2.0]), np.array([3.0])
    g = BipartiteGraph(var_features=vf, con_features=cf, a=NO_A, q=NO_Q)
    for mine, held in ((vf, g.var_features), (cf, g.con_features)):
        assert mine.flags.writeable and not np.shares_memory(mine, held)
        assert not held.flags.writeable
    vf[0] = 5.0
    assert g.var_features.tolist() == [1.0, 2.0]


def test_bipartite_equality(e1, e2):
    g = to_bipartite_graph(e1)
    same = BipartiteGraph(var_features=e1.c.copy(), con_features=e1.b.copy(),
                          a=SparseMatrix.from_dense(e1.a.to_dense()), q=e1.q)
    assert g == same and not g != same
    assert g != to_bipartite_graph(e2)
    assert g != BipartiteGraph(var_features=e1.c + 1.0, con_features=e1.b, a=e1.a, q=e1.q)
    assert g != BipartiteGraph(var_features=e1.c, con_features=e1.b + 1.0, a=e1.a, q=e1.q)
    assert g != BipartiteGraph(var_features=e1.c, con_features=e1.b,
                               a=SparseMatrix.from_dense(2.0 * e1.a.to_dense()), q=e1.q)
    assert g != BipartiteGraph(var_features=e1.c, con_features=e1.b, a=e1.a,
                               q=SparseMatrix.from_dense(2.0 * e1.q.to_dense()))
    assert g != "graph"


# -------------------------------------------------------------------- forward

def test_mpnn_zero_weights_collapse(e1):
    w = init_mpnn_weights(seed=0, width=4, layers=2).scaled(0.0)
    hv, hc = mpnn_forward(to_bipartite_graph(e1), w)
    assert hv.shape == (2, 4) and hc.shape == (3, 4)
    assert np.array_equal(hv, np.zeros_like(hv))
    assert np.array_equal(hc, np.zeros_like(hc))


def test_mpnn_deterministic(e1):
    w = init_mpnn_weights(seed=3, width=8, layers=2)
    g = to_bipartite_graph(e1)
    hv1, hc1 = mpnn_forward(g, w)
    hv2, hc2 = mpnn_forward(g, w)
    assert np.array_equal(hv1, hv2) and np.array_equal(hc1, hc2)


def test_mpnn_equivariant_under_permutation(e1):
    w = init_mpnn_weights(seed=5, width=8, layers=3)
    var_perm, con_perm = [1, 0], [2, 0, 1]
    hv, hc = mpnn_forward(to_bipartite_graph(e1), w)
    hv_p, hc_p = mpnn_forward(
        to_bipartite_graph(permute_instance(e1, var_perm, con_perm)), w
    )
    # row j of the permuted output is old row i where perm[i] = j
    assert np.allclose(hv_p[var_perm], hv, atol=1e-12)
    assert np.allclose(hc_p[con_perm], hc, atol=1e-12)


def test_mpnn_distinguishes_instances(e1, e2):
    w = init_mpnn_weights(seed=1, width=8, layers=2)
    z1 = encode_instance(e1, w)
    z2 = encode_instance(e2, w)
    assert not np.allclose(z1, z2)


def test_mpnn_snapshot_e1(e1):
    # regression lock: frozen output of the seed-0 width-4 network at first build
    z = encode_instance(e1, init_mpnn_weights(seed=0, width=4, layers=2))
    frozen = np.array(SNAPSHOT_E1)
    assert np.allclose(z, frozen, atol=1e-12)


SNAPSHOT_E1 = [
    0.03920470165806145,
    2.215658090562893,
    -0.44187420502205194,
    0.38059497247797514,
]


def _reference_forward(graph, weights):
    """The forward pass with per-edge accumulation loops over the edge lists,
    the aggregation mpnn_forward computes with sparse products."""
    d = weights.width
    wv, bv = weights.var_lift
    wc, bc = weights.con_lift
    hv = graph.var_features[:, None] * wv + bv
    hc = graph.con_features[:, None] * wc + bc
    ca, vv = graph.ca_edges.tolist(), graph.vv_edges.tolist()
    for (cw, cb), (vw, vb) in zip(weights.con_updates, weights.var_updates):
        agg_a = np.zeros((graph.n_con_nodes, d))
        for c, v, w in ca:
            agg_a[c] += w * hv[v]
        hc = np.tanh(np.concatenate([hc, agg_a], axis=1) @ cw.T + cb)
        agg_q = np.zeros((graph.n_var_nodes, d))
        for u, v, w in vv:
            agg_q[v] += w * hv[u]
        agg_c = np.zeros((graph.n_var_nodes, d))
        for c, v, w in ca:
            agg_c[v] += w * hc[c]
        hv = np.tanh(np.concatenate([hv, agg_q, agg_c], axis=1) @ vw.T + vb)
    return hv, hc


def _qp_view():
    inst = gen_qp(100, 100, 0.05, 0.05, seed=3, name="qp")
    policy = AugmentPolicy(strengths=dict(SSL_STRENGTHS_QP), interpolate=False, seed=4)
    return apply_policy(inst, policy)[0]


@pytest.mark.parametrize("make, has_vv", [
    (_qp_view, True),
    (lambda: gen_lp(100, 100, 0.05, seed=3, bounded=True, name="lp"), False),
])
def test_mpnn_matches_per_edge_reference(make, has_vv):
    g = to_bipartite_graph(make())
    assert (len(g.vv_edges) > 0) == has_vv
    w = init_mpnn_weights(seed=0)
    hv, hc = mpnn_forward(g, w)
    ref_hv, ref_hc = _reference_forward(g, w)
    assert np.abs(hv - ref_hv).max() <= 1e-12
    assert np.abs(hc - ref_hc).max() <= 1e-12


# -------------------------------------------------------------------- pooling

def test_pooled_is_sum_then_readout(e1):
    w = init_mpnn_weights(seed=2, width=4, layers=1)
    g = to_bipartite_graph(e1)
    hv, hc = mpnn_forward(g, w)
    z = pooled_embedding(hv, hc, w)
    rw, rb = w.readout
    expect = rw @ np.concatenate([hv.sum(axis=0), hc.sum(axis=0)]) + rb
    assert np.allclose(z, expect, atol=1e-14)
    assert z.shape == (4,)


def test_pooled_single_node_graph():
    inst = make_instance([[1.0]], [[1.0]], [1.0], [-1.0])
    w = init_mpnn_weights(seed=7, width=4, layers=2)
    hv, hc = mpnn_forward(to_bipartite_graph(inst), w)
    z = pooled_embedding(hv, hc, w)
    rw, rb = w.readout
    assert np.allclose(z, rw @ np.concatenate([hv[0], hc[0]]) + rb, atol=1e-14)


def test_pooled_permutation_invariant(e1):
    w = init_mpnn_weights(seed=4, width=8, layers=2)
    base = encode_instance(e1, w)
    rng = np.random.default_rng(0)
    for _ in range(10):
        vp = rng.permutation(2).tolist()
        cp = rng.permutation(3).tolist()
        z = encode_instance(permute_instance(e1, vp, cp), w)
        assert np.abs(z - base).max() <= 1e-12


def test_pooled_not_invariant_to_node_duplication(e1):
    w = init_mpnn_weights(seed=4, width=8, layers=2)
    g = to_bipartite_graph(e1)
    a = g.a
    doubled = BipartiteGraph(
        var_features=g.var_features,
        con_features=np.concatenate([g.con_features, g.con_features]),
        a=SparseMatrix(2 * a.n_rows, a.n_cols, np.concatenate([a.rows, a.rows + a.n_rows]),
                       np.concatenate([a.cols, a.cols]), np.concatenate([a.vals, a.vals / 2.0])),
        q=g.q,
    )
    z1 = pooled_embedding(*mpnn_forward(g, w), w)
    z2 = pooled_embedding(*mpnn_forward(doubled, w), w)
    assert not np.allclose(z1, z2)


def test_pooled_validates_embeddings():
    w = init_mpnn_weights(0)
    for h_var, h_con in (
        (np.ones((3, 5)), np.ones((2, 16))),  # h_var too narrow
        (np.ones((3, 16)), np.ones((2, 5))),  # h_con too narrow
        (np.ones(16), np.ones((2, 16))),  # not (nodes, width)
        (np.ones((3, 16)), np.ones(16)),
    ):
        with pytest.raises(InputError, match="embeddings must be"):
            pooled_embedding(h_var, h_con, w)


# --------------------------------------------------------------------- nt-xent

def test_ntxent_single_identical_pair_is_zero():
    z = np.array([[0.3, -0.4], [0.3, -0.4]])
    assert nt_xent_loss(z, [(0, 1)], tau=0.5) == 0.0


def test_ntxent_two_pair_frozen_value():
    z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    loss = nt_xent_loss(z, [(0, 1), (2, 3)], tau=1.0)
    expected = -np.log(np.e / (np.e + 2.0))
    assert loss == pytest.approx(expected, abs=1e-12)


def test_ntxent_scale_invariant():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((6, 4))
    pairs = [(0, 3), (1, 4), (2, 5)]
    a = nt_xent_loss(z, pairs, tau=0.7)
    b = nt_xent_loss(10.0 * z, pairs, tau=0.7)
    assert abs(a - b) <= 1e-12


def _brute_force_ntxent(z, pairs, tau):
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    total = 0.0
    for i, j in pairs:
        num = np.exp(z[i] @ z[j] / tau)
        den = sum(np.exp(z[i] @ z[k] / tau) for k in range(len(z)) if k != i)
        total += -np.log(num / den)
    return total / len(pairs)


@given(st.integers(0, 200))
def test_ntxent_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n_pairs = int(rng.integers(1, 9))
    d = int(rng.integers(1, 6))
    z = rng.standard_normal((2 * n_pairs, d))
    z[np.linalg.norm(z, axis=1) < 1e-6] += 1.0
    order = rng.permutation(2 * n_pairs)
    pairs = [(int(order[2 * k]), int(order[2 * k + 1])) for k in range(n_pairs)]
    tau = float(rng.uniform(0.1, 2.0))
    got = nt_xent_loss(z, pairs, tau=tau)
    want = _brute_force_ntxent(z, pairs, tau=tau)
    assert abs(got - want) <= 1e-10


def test_ntxent_rejects_zero_norm():
    z = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(InputError):
        nt_xent_loss(z, [(0, 1)], tau=1.0)


def test_ntxent_validates_inputs():
    z = np.eye(4)
    with pytest.raises(InputError):
        nt_xent_loss(z, [(0, 1)], tau=0.0)
    with pytest.raises(InputError):
        nt_xent_loss(z, [(0, 9)], tau=1.0)
    with pytest.raises(InputError):
        nt_xent_loss(z, [(2, 2)], tau=1.0)
    with pytest.raises(InputError):
        nt_xent_loss(z, [], tau=1.0)


# ------------------------------------------------------------- view smoke tests

def test_near_identity_views_give_near_zero_loss(e1):
    w = init_mpnn_weights(seed=9, width=8, layers=2)
    rng = np.random.default_rng(1)
    v1, _ = scale_variables(e1, np.exp(rng.uniform(-1e-6, 1e-6, 2)))
    v2, _ = scale_variables(e1, np.exp(rng.uniform(-1e-6, 1e-6, 2)))
    z = np.stack([encode_instance(v1, w), encode_instance(v2, w)])
    assert nt_xent_loss(z, [(0, 1)], tau=1.0) <= 1e-6


def test_graph_file_round_trip(tmp_path, e1):
    g = to_bipartite_graph(e1)
    path = tmp_path / "e1.graph.json"
    save_graph(path, g)
    back = load_graph(path)
    assert back.n_var_nodes == g.n_var_nodes
    assert back.n_con_nodes == g.n_con_nodes
    assert np.array_equal(back.var_features, g.var_features)
    assert np.array_equal(back.con_features, g.con_features)
    assert back.ca_edges.tolist() == g.ca_edges.tolist()
    assert back.vv_edges.tolist() == g.vv_edges.tolist()
    assert back == g


def test_graph_file_schema_and_determinism(tmp_path, e1):
    import json

    g = to_bipartite_graph(e1)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(p1, g)
    save_graph(p2, g)
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert list(doc) == ["n", "m", "q", "a", "b", "c"]
    assert set(doc["q"]) == set(doc["a"]) == {"gaps", "vals"}
    assert (doc["n"], doc["m"]) == (2, 3)
    # the variable nodes' features are c, the constraint nodes' b
    assert unpacked(doc["c"]) == [-2.0, -2.0]
    assert unpacked(doc["b"]) == [1.0, 0.0, 0.0]
    # the vv edges (0, 0), (1, 1) are q's upper triangle, keys row * 2 + col;
    # the ca edges from constraint 0 to variables 0, 1, from 1 to 0 and from
    # 2 to 1 are a's entries, keys row * 2 + col; one byte per gap
    assert unpacked_gaps(doc["q"]["gaps"], 2) == [0, 3]
    assert unpacked(doc["q"]["vals"]) == [2.0, 2.0]
    assert unpacked_gaps(doc["a"]["gaps"], 4) == [0, 1, 2, 5]
    assert unpacked(doc["a"]["vals"]) == [1.0, 1.0, -1.0, -1.0]
    assert p1.read_text() == E1_GRAPH_FILE
    # exactly the members of the instance's own file
    save_instance(p2, e1)
    inst_doc = json.loads(p2.read_text())
    assert doc == {key: inst_doc[key] for key in doc}


# save_graph(to_bipartite_graph(e1)), frozen: compact JSON, the members n,
# m, q (upper triangle), a, b, c of e1's instance file, gaps and floats packed
E1_GRAPH_FILE = (
    '{"n":2,"m":3,"q":{"gaps":"AAI=","vals":"AAAAAAAAAEAAAAAAAAAAQA=="},'
    '"a":{"gaps":"AAAAAg==",'
    '"vals":"AAAAAAAA8D8AAAAAAADwPwAAAAAAAPC/AAAAAAAA8L8="},'
    '"b":"AAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAA","c":"AAAAAAAAAMAAAAAAAAAAwA=="}\n'
)

# two var nodes and one con node in the earlier form, with a side list
SIDE_NODES = {"side": ["var", "var", "con"], "feature": [0.0, 0.0, 1.0]}


def _graph_doc(nodes=SIDE_NODES, **edges):
    """Two ca edges in the earlier form with a kind list; a field set to None
    is left out."""
    edges = {"src": [2, 2], "dst": [0, 1], "weight": [1.0, 2.0], "kind": ["ca", "ca"], **edges}
    return {
        "nodes": nodes,
        "edges": {key: val for key, val in edges.items() if val is not None},
    }


def test_graph_file_loads_hand_written_edges(tmp_path):
    import json

    def expected(vv, var_features=(0.0, 0.0)):
        return BipartiteGraph(var_features=var_features, con_features=[1.0],
                              a=SparseMatrix(1, 2, [0], [1], [4.0]),
                              q=SparseMatrix.from_dense(vv))

    offdiag = expected([[0.0, 0.5], [0.5, 0.0]])
    full = expected([[2.0, 0.5], [0.5, 3.0]])
    path = tmp_path / "g.json"
    path.write_text(json.dumps(_graph_doc(
        src=[2, 0, 1], dst=[1, 1, 0], weight=[4, 0.5, 0.5], kind=["ca", "vv", "vv"])))
    g = load_graph(path)
    assert g == offdiag
    assert g.ca_edges.tolist() == [(0, 1, 4.0)]
    assert g.vv_edges.tolist() == [(0, 1, 0.5), (1, 0, 0.5)]
    # today's form: vv edges one way, kind derived from src >= 2 var nodes
    path.write_text(json.dumps(_graph_doc(
        src=[1, 2, 0, 0], dst=[1, 1, 1, 0], weight=[3, 4, 0.5, 2], kind=None)))
    g = load_graph(path)
    assert g == full
    assert g.ca_edges.tolist() == [(0, 1, 4.0)]
    assert g.vv_edges.tolist() == [(0, 0, 2.0), (0, 1, 0.5), (1, 0, 0.5), (1, 1, 3.0)]
    assert g.con_features.tolist() == [1.0]
    # node counts, and packed features and weights
    path.write_text(json.dumps(_graph_doc(
        nodes={"n_var": 2, "n_con": 1, "feature": packed([0.0, 0.5, 1.0])},
        src=[1, 2, 0, 0], dst=[1, 1, 1, 0], kind=None,
        weight=packed([3.0, 4.0, 0.5, 2.0]))))
    g = load_graph(path)
    assert g == expected([[2.0, 0.5], [0.5, 3.0]], var_features=(0.0, 0.5))
    assert g.ca_edges.tolist() == [(0, 1, 4.0)]
    assert g.vv_edges.tolist() == [(0, 0, 2.0), (0, 1, 0.5), (1, 0, 0.5), (1, 1, 3.0)]
    assert g.var_features.tolist() == [0.0, 0.5] and g.con_features.tolist() == [1.0]
    # the same edges keyed src * 3 + dst over the 3 nodes, packed as keys
    # (an earlier form) and as today's gaps
    for doc in (_keyed_doc(packed_keys([0, 1, 4, 7]), weight=[2, 0.5, 3, 4]),
                _gapped_doc(packed_gaps([0, 1, 4, 7]), weight=[2, 0.5, 3, 4])):
        path.write_text(json.dumps(doc))
        g = load_graph(path)
        assert g == full
        assert g.ca_edges.tolist() == [(0, 1, 4.0)]
        assert g.vv_edges.tolist() == [(0, 0, 2.0), (0, 1, 0.5), (1, 0, 0.5), (1, 1, 3.0)]


def _keyed_doc(keys, **edges):
    """Two var nodes and one con node, and edges keyed over the 3 x 3 node
    square: by default the ca edges (2, 0) and (2, 1), keys 6 and 7."""
    return _graph_doc(nodes={"n_var": 2, "n_con": 1, "feature": packed([0.0, 0.0, 1.0])},
                      **{"src": None, "dst": None, "kind": None, "keys": keys, **edges})


@pytest.mark.parametrize("keys, edges, message", [
    (packed_keys([6, 7]), {}, None),  # loads
    ("!" + packed_keys([6, 7])[1:], {}, "edges.keys"),  # not base64
    (base64.b64encode(bytes(3)).decode(), {}, "edges.keys"),  # a partial key
    (packed_keys([6, 6]), {}, "edges.keys"),  # a duplicate key
    (packed_keys([7, 6]), {}, "edges.keys"),  # decreasing keys
    (packed_keys([6, 9]), {}, "edges.keys"),  # 9, the node square's cell count
    ([6, 7], {}, "edges.keys"),  # not a packed string
    (packed_keys([6, 7]), {"src": [2, 2]}, "keys and weight only"),
    (packed_keys([6, 7]), {"kind": ["ca", "ca"]}, "keys and weight only"),
    (packed_keys([6]), {}, "coordinate and weight counts differ"),
    (packed_keys([6, 7]), {"weight": [1.0, 0.0]}, "nonzero weights"),  # an explicit zero
    (packed_keys([1, 6, 7]), {"weight": packed([0.0, 1.0, 2.0])}, "nonzero weights"),  # vv pair
])
def test_graph_file_checks_edge_keys(tmp_path, keys, edges, message):
    import json

    path = tmp_path / "g.json"
    path.write_text(json.dumps(_keyed_doc(keys, **edges)))
    if message is None:
        assert load_graph(path).ca_edges.tolist() == [(0, 0, 1.0), (0, 1, 2.0)]
        return
    with pytest.raises(InputError, match=message):
        load_graph(path)


def _gapped_doc(gaps, **edges):
    """_keyed_doc with the edges packed as gaps: by default those of the ca
    edges (2, 0) and (2, 1), keys 6 and 7."""
    return _graph_doc(nodes=_keyed_doc(None)["nodes"],
                      **{"src": None, "dst": None, "kind": None, "gaps": gaps, **edges})


@pytest.mark.parametrize("gaps, edges, message", [
    (packed_gaps([6, 7]), {}, None),  # loads
    ("!" + packed_gaps([6, 7])[1:], {}, "edges.gaps"),  # not base64
    (base64.b64encode(bytes(3)).decode(), {}, "edges.gaps"),  # 3 bytes for 2 gaps
    (base64.b64encode(bytes(6)).decode(), {}, "edges.gaps"),  # a width of 3
    (packed_gaps([6, 7], width=2), {}, "edges.gaps"),  # wider than needed
    (packed_gaps([6, 9]), {}, "edges.gaps"),  # 9, the node square's cell count
    (base64.b64encode(np.array([6, 2**64 - 1], "<u8").tobytes()).decode(), {},
     "edges.gaps"),  # wraps to a repeat of key 6 in int64
    ([6, 0], {}, "edges.gaps"),  # not a packed string
    (packed_gaps([6, 7]), {"keys": packed_keys([6, 7])}, "gaps and weight only"),
    (packed_gaps([6, 7]), {"src": [2, 2]}, "gaps and weight only"),
    (packed_gaps([6, 7]), {"weight": [1.0, 0.0]}, "nonzero weights"),  # an explicit zero
    ("", {"weight": []}, None),  # no edges
    # key 2 is (0, 2): a vv edge that ends at the constraint node
    (packed_gaps([2, 7]), {}, "ends at a constraint node"),
    # key 8 is (2, 2): a ca edge that ends at the constraint node
    (packed_gaps([7, 8]), {}, "ends at a constraint node"),
    # key 3 is (1, 0): a vv edge below the diagonal, which no version wrote
    (packed_gaps([3, 6]), {}, "edges.gaps holds an entry below the diagonal"),
])
def test_graph_file_checks_edge_gaps(tmp_path, gaps, edges, message):
    import json

    path = tmp_path / "g.json"
    path.write_text(json.dumps(_gapped_doc(gaps, **edges)))
    if message is None:
        want = [(0, 0, 1.0), (0, 1, 2.0)] if gaps else []
        assert load_graph(path).ca_edges.tolist() == want
        return
    with pytest.raises(InputError, match=message):
        load_graph(path)


@pytest.mark.parametrize("edges", [
    {"kind": ["ca"]},  # shorter kind array used to drop the second edge
    {"src": [2]},
    {"weight": [1.0, 2.0, 3.0]},
    {"src": [2, 2.5]},  # non-integer index
    {"dst": [False, True]},
    {"dst": [0, "1"]},
    {"dst": [0, None]},
    {"src": [2, 2**64]},
    {"src": [[2], [2]]},  # wrong-shaped fields
    {"src": [[2, 2], [2]]},
    {"weight": 1.0},
    {"weight": [1.0, "x"]},
    {"kind": ["ca", "xy"]},  # unknown edge kind
    {"kind": [1, 2]},
    {"kind": ["vv", "ca"]},  # kind disagrees with src >= 2 var nodes
    {"src": [0, 2], "dst": [0, 1], "kind": ["ca", "ca"]},
    {"src": [0, 1], "dst": [1, 0], "weight": [1.0, 2.0], "kind": ["vv", "vv"]},  # asymmetric
    {"src": [0, 1], "dst": [1, 0], "weight": [1.0, 2.0], "kind": None},
    {"src": [0, 0], "dst": [1, 1], "kind": None},  # duplicate one-way edge
    {"src": [2, 2], "kind": None, "weight": [1.0]},  # lengths differ without kind
    {"dst": [0, True]},  # a boolean among integers used to load as 1
    {"weight": [1.0, "2.0"]},
    {"weight": "AAAAAAAA8D8=!"},  # not base64
    {"weight": "AAAAAAAA8D8AAAAAAAAAQAAA"},  # 18 bytes, not whole float64 values
    {"weight": packed([1.0, float("nan")])},
    {"weight": packed([1.0, float("inf")])},
    {"weight": packed([1.0, 2.0, 3.0])},  # one value too many
    {"weight": [0.0, 2.0]},  # an explicit zero
    {"src": [2, 0, 1], "dst": [1, 1, 0], "weight": [4, 0.0, 0.0], "kind": ["ca", "vv", "vv"]},
    {"foo": "bar"},  # an unknown field beside the lists used to load
    {"kind": None, "foo": "bar"},
])
def test_graph_file_rejects_malformed_edges(tmp_path, edges):
    import json

    path = tmp_path / "g.json"
    path.write_text(json.dumps(_graph_doc(**edges)))
    with pytest.raises(InputError):
        load_graph(path)


@pytest.mark.parametrize("nodes", [
    {"side": ["con", "var", "var"], "feature": [0.0, 0.0, 1.0]},  # con before var
    {"side": ["var", "var", "con", "var"], "feature": [0.0, 0.0, 1.0, 2.0]},
    {"side": ["var", "var", "con"], "feature": [0.0, 0.0]},
    {"side": ["var", "var", "con"], "feature": [0.0, "0.5", 1.0]},  # used to load as 0.5
    {"n_var": 2, "n_con": 1, "feature": [0.0, 0.0]},
    {"n_var": 2, "n_con": 2, "feature": [0.0, 0.0, 1.0]},
    {"n_var": 3, "n_con": -1, "feature": [0.0, 0.0, 1.0]},
    {"n_var": 2, "n_con": True, "feature": [0.0, 0.0, 1.0]},
    {"n_var": 2.0, "n_con": 1, "feature": [0.0, 0.0, 1.0]},
    {"n_var": 2, "feature": [0.0, 0.0, 1.0]},
    {"n_var": 2, "n_con": 1, "feature": "AAAAAAAAAAA"},  # bad padding
    {"n_var": 2, "n_con": 1, "feature": packed([0.0, float("-inf"), 1.0])},
])
def test_graph_file_rejects_malformed_nodes(tmp_path, nodes):
    import json

    path = tmp_path / "g.json"
    path.write_text(json.dumps(_graph_doc(nodes=nodes)))
    with pytest.raises(InputError):
        load_graph(path)


def test_graph_file_errors_name_the_file(tmp_path, e1):
    """An inner check's error carries the file path, as load_instance's do."""
    import json
    import re

    path = tmp_path / "e1.graph.json"
    save_graph(path, to_bipartite_graph(e1))
    doc = json.loads(path.read_text())
    doc["c"] = packed([-2.0, -2.0, 0.0])  # one feature more than variable nodes
    path.write_text(json.dumps(doc))
    message = f"{path}: c must have shape (2,), got (3,)"
    with pytest.raises(InputError, match=re.escape(message)):
        load_graph(path)
    # the same check in the earlier nodes/edges form
    doc = json.loads((DATA / "e1_labeled_gaps_v5.graph.json").read_text())
    doc["nodes"]["n_var"] = 4
    path.write_text(json.dumps(doc))
    message = f"{path}: nodes.feature must hold one value per node"
    with pytest.raises(InputError, match=re.escape(message)):
        load_graph(path)


def test_graph_file_sorts_vv_edges_like_lexsort(tmp_path):
    """load_graph's vv edges come in q's canonical storage order, the
    (src, dst) lexicographic order, checked on edges stored shuffled."""
    import json

    rng = np.random.default_rng(5)
    n = 7
    upper = [(i, j) for i in range(n) for j in range(i, n) if rng.random() < 0.5]
    order = rng.permutation(len(upper))
    src = [upper[k][0] for k in order]
    dst = [upper[k][1] for k in order]
    weight = rng.uniform(0.5, 1.5, len(upper))
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "nodes": {"n_var": n, "n_con": 0, "feature": [0.0] * n},
        "edges": {"src": src, "dst": dst, "weight": weight.tolist()},
    }))
    g = load_graph(path)
    both = np.array([(s, d) for s, d in zip(src, dst)] + [(d, s) for s, d in zip(src, dst) if s != d])
    ref = np.lexsort((both[:, 1], both[:, 0]))
    assert [(s, d) for s, d, _ in g.vv_edges.tolist()] == [tuple(both[k]) for k in ref]


def test_policy_views_give_finite_loss(e1):
    w = init_mpnn_weights(seed=9, width=8, layers=2)
    views = []
    for seed in (21, 22):
        policy = AugmentPolicy(
            strengths=dict(SSL_STRENGTHS_QP), ops_per_instance=2,
            interpolate=False, seed=seed,
        )
        out, _, _ = apply_policy(e1, policy)
        views.append(encode_instance(out, w))
    loss = nt_xent_loss(np.stack(views), [(0, 1)], tau=0.5)
    assert np.isfinite(loss)
