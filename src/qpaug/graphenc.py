"""Bipartite instance encoding and a deterministic forward-only message passer.

The graph carries all instance data losslessly: variable nodes hold c,
constraint nodes hold b, and the edges are the instance's own matrices, A
between constraints and variables and Q among variables (its diagonal as
self-loops).  The network is a reference forward pass, not a trainable
model: fixed tanh updates with a constraint half-step feeding the variable
update, then sum pooling per side and an affine readout.  Everything is
reproducible from integer seeds.  Message passing runs on numpy alone: each
aggregate is a scatter sum through core's ordered sum, bit-identical to
scipy's CSR products.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import InputError, LcqpInstance, SparseMatrix, _as_float_vector, _ordered_sum, _row_keys
from .rng import derive_rng


EDGE_DTYPE = np.dtype([("src", np.int64), ("dst", np.int64), ("weight", np.float64)])


def _edges(mat: SparseMatrix) -> np.ndarray:
    """The entries of `mat` as a read-only EDGE_DTYPE array, in storage order."""
    edges = np.empty(mat.nnz, dtype=EDGE_DTYPE)
    edges["src"], edges["dst"], edges["weight"] = mat.rows, mat.cols, mat.vals
    edges.flags.writeable = False
    return edges


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    var_features: np.ndarray  # c, one per variable node
    con_features: np.ndarray  # b, one per constraint node
    a: SparseMatrix  # constraint-variable edges, n_con x n_var
    q: SparseMatrix  # variable-variable edges, symmetric, n_var x n_var

    def __post_init__(self):
        if not (isinstance(self.a, SparseMatrix) and isinstance(self.q, SparseMatrix)):
            raise InputError("a and q must be SparseMatrix objects")
        if not self.q.is_symmetric():
            raise InputError("q must be square and symmetric")
        if self.a.n_cols != self.q.n_rows:
            raise InputError("a must have one column per variable node")
        for name, count in (("var_features", self.n_var_nodes), ("con_features", self.n_con_nodes)):
            object.__setattr__(self, name, _as_float_vector(getattr(self, name), count, name))

    @property
    def n_var_nodes(self) -> int:
        return self.q.n_rows

    @property
    def n_con_nodes(self) -> int:
        return self.a.n_rows

    @property
    def ca_edges(self) -> np.ndarray:  # (con, var, weight), one per nonzero of a
        return _edges(self.a)

    @property
    def vv_edges(self) -> np.ndarray:  # (u, v, weight), one per nonzero of q, mirrored
        return _edges(self.q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (np.array_equal(self.var_features, other.var_features)
                and np.array_equal(self.con_features, other.con_features)
                and self.a == other.a and self.q == other.q)


def to_bipartite_graph(inst: LcqpInstance) -> BipartiteGraph:
    """The instance's graph, sharing its immutable matrices as the edges."""
    return BipartiteGraph(var_features=inst.c, con_features=inst.b, a=inst.a, q=inst.q)


@dataclass(frozen=True)
class MpnnWeights:
    """All parameter blocks of the reference network, reproducible from seed.

    Lifts map each scalar node feature to width d; per layer, the constraint
    update consumes (h_c, A-aggregate) and the variable update consumes
    (h_v, Q-aggregate, A-aggregate of fresh h_c); the readout maps the two
    pooled sums to the final vector.
    """

    seed: int
    width: int
    layers: int
    var_lift: tuple  # (w: (d,), b: (d,))
    con_lift: tuple
    con_updates: tuple  # per layer (W: (d, 2d), b: (d,))
    var_updates: tuple  # per layer (W: (d, 3d), b: (d,))
    readout: tuple  # (W: (d, 2d), b: (d,))

    def __post_init__(self):
        if self.layers < 1:
            raise InputError("layer count must be at least 1")
        for arr in self._all_arrays():
            if not np.all(np.isfinite(arr)):
                raise InputError("weights must be finite")

    def _all_arrays(self):
        out = [*self.var_lift, *self.con_lift, *self.readout]
        for w, b in (*self.con_updates, *self.var_updates):
            out += [w, b]
        return out

    def scaled(self, factor: float) -> "MpnnWeights":
        f = float(factor)
        pair = lambda p: (p[0] * f, p[1] * f)
        return MpnnWeights(
            seed=self.seed, width=self.width, layers=self.layers,
            var_lift=pair(self.var_lift), con_lift=pair(self.con_lift),
            con_updates=tuple(pair(p) for p in self.con_updates),
            var_updates=tuple(pair(p) for p in self.var_updates),
            readout=pair(self.readout),
        )


def init_mpnn_weights(seed: int, width: int = 16, layers: int = 2) -> MpnnWeights:
    if width < 1 or layers < 1:
        raise InputError("width and layers must be at least 1")
    rng = derive_rng(seed, "mpnn-init")

    def block(rows, cols):
        return rng.standard_normal((rows, cols)) / np.sqrt(cols)

    def bias():
        return rng.standard_normal(width) / np.sqrt(width)

    return MpnnWeights(
        seed=seed, width=width, layers=layers,
        var_lift=(rng.standard_normal(width), bias()),
        con_lift=(rng.standard_normal(width), bias()),
        con_updates=tuple((block(width, 2 * width), bias()) for _ in range(layers)),
        var_updates=tuple((block(width, 3 * width), bias()) for _ in range(layers)),
        readout=(block(width, 2 * width), bias()),
    )


def mpnn_forward(graph: BipartiteGraph, weights: MpnnWeights):
    """Run the fixed-depth forward pass; returns (h_var, h_con).

    The aggregates A h_v, Q h_v and A' h_c are scatter sums over the
    matrices' entries (core._ordered_sum): each output row adds its terms in
    storage order from 0.0, as scipy's CSR and CSC kernels add them."""
    d = weights.width
    wv, bv = weights.var_lift
    wc, bc = weights.con_lift
    hv = graph.var_features[:, None] * wv + bv
    hc = graph.con_features[:, None] * wc + bc
    a, q = graph.a, graph.q
    # per aggregate, built once: its flat keys, the rows it gathers, the
    # entries' weights and its row count
    a_hv = (_row_keys(a.rows, d), a.cols, a.vals[:, None], a.n_rows)
    q_hv = (_row_keys(q.rows, d), q.cols, q.vals[:, None], q.n_rows)
    at_hc = (_row_keys(a.cols, d), a.rows, a.vals[:, None], a.n_cols)

    def aggregate(product, h):
        keys, gather, vals, length = product
        return _ordered_sum(keys, vals * np.take(h, gather, axis=0), length)

    for (cw, cb), (vw, vb) in zip(weights.con_updates, weights.var_updates):
        hc = np.tanh(np.concatenate([hc, aggregate(a_hv, hv)], axis=1) @ cw.T + cb)
        hv = np.tanh(np.concatenate([hv, aggregate(q_hv, hv), aggregate(at_hc, hc)], axis=1)
                     @ vw.T + vb)
    return hv, hc


def pooled_embedding(h_var, h_con, weights: MpnnWeights) -> np.ndarray:
    """Sum per side, concatenate, apply the affine readout."""
    h_var = np.asarray(h_var, dtype=np.float64)
    h_con = np.asarray(h_con, dtype=np.float64)
    if not (h_var.ndim == h_con.ndim == 2 and h_var.shape[1] == h_con.shape[1] == weights.width):
        raise InputError("embeddings must be (nodes, width) arrays")
    rw, rb = weights.readout
    return rw @ np.concatenate([h_var.sum(axis=0), h_con.sum(axis=0)]) + rb


def encode_instance(inst: LcqpInstance, weights: MpnnWeights) -> np.ndarray:
    h_var, h_con = mpnn_forward(to_bipartite_graph(inst), weights)
    return pooled_embedding(h_var, h_con, weights)


def nt_xent_loss(embeddings, positive_pairs: Sequence, tau: float) -> float:
    """Contrastive loss over pooled vectors: for each anchor i with positive
    j, -log of exp(cos(z_i, z_j)/tau) against all exp(cos(z_i, z_k)/tau),
    k != i, averaged over the anchors.  Evaluated via shifted logsumexp."""
    z = np.asarray(embeddings, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 2:
        raise InputError("embeddings must be a (count >= 2, dim) array")
    if not np.all(np.isfinite(z)):
        raise InputError("embeddings must be finite")
    if not tau > 0:
        raise InputError("tau must be positive")
    pairs = [(int(i), int(j)) for i, j in positive_pairs]
    if not pairs:
        raise InputError("need at least one positive pair")
    count = z.shape[0]
    for i, j in pairs:
        if not (0 <= i < count and 0 <= j < count) or i == j:
            raise InputError(f"bad positive pair ({i}, {j})")
    norms = np.linalg.norm(z, axis=1)
    if norms.min() <= 0.0:
        raise InputError("zero-norm embedding has no cosine similarity")
    zn = z / norms[:, None]
    logits = (zn @ zn.T) / tau
    total = 0.0
    for i, j in pairs:
        row = np.delete(logits[i], i)
        peak = row.max()
        denom = peak + np.log(np.exp(row - peak).sum())
        total += logits[i, j] - denom
    return float(-total / len(pairs))
