"""Optimality-preserving instance transformations.

Every operation returns a new instance together with a TransformRecord whose
solution_map rebuilds the transformed optimum from the original one in linear
time.  Ops that never look at the solution (scaling, convex-combination rows,
the constrained extra variable) are safe on unlabeled data; the rest take the
Solution explicitly.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    Definiteness,
    InputError,
    LcqpInstance,
    ProblemKind,
    Solution,
    SparseMatrix,
    _operand,
    partition_constraints,
    psd_certificate,
)
from .rng import derive_rng


class MapKind(enum.Enum):
    IDENTITY = "identity"
    PRIMAL_SCALED = "primal_scaled"
    DUAL_SCALED = "dual_scaled"
    EXTENDED_WITH_ZEROS = "extended_with_zeros"
    RESTRICTED_TO = "restricted_to"
    EXPLICIT_DUAL = "explicit_dual"


# the fields each kind's replay reads, so a map without them is refused
_MAP_NEEDS = {
    MapKind.PRIMAL_SCALED: ("values",), MapKind.DUAL_SCALED: ("values",),
    MapKind.RESTRICTED_TO: ("indices",), MapKind.EXTENDED_WITH_ZEROS: ("indices",),
    MapKind.EXPLICIT_DUAL: ("values", "indices"),
}


@dataclass(frozen=True, eq=False)
class SolutionMap:
    """Closed-form recipe mapping the old optimum to the new one.

    side selects the vector the indices refer to.  values (float64) and
    indices (int64) are read-only arrays or None: scale factors, kept or fresh
    positions, or for EXPLICIT_DUAL the support of the new column a_col and
    (c_new, a_col[indices]), whose multiplier is -(c_new + a_col . lam).
    A map holds the fields its kind's replay reads (_MAP_NEEDS).
    """

    kind: MapKind
    side: str = "primal"
    values: np.ndarray | None = None
    indices: np.ndarray | None = None

    def __post_init__(self):
        if self.side not in ("primal", "dual"):
            raise InputError(f"side must be primal or dual, got {self.side!r}")
        for name, dtype in (("values", np.float64), ("indices", np.int64)):
            if getattr(self, name) is not None:
                arr = np.array(getattr(self, name), dtype=dtype)
                if arr.ndim != 1:
                    raise InputError(f"solution map {name} must be a flat array")
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)
        if self.indices is not None and self.indices.min(initial=0) < 0:
            raise InputError("solution map indices must be nonnegative")
        for name in _MAP_NEEDS.get(self.kind, ()):
            if getattr(self, name) is None:
                raise InputError(f"solution map {self.kind.value} needs {name}")
        if self.kind is MapKind.EXPLICIT_DUAL and self.values.size != self.indices.size + 1:
            raise InputError("solution map explicit_dual needs c_new and one value per index")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SolutionMap):
            return NotImplemented
        # None is only array_equal to None, since a stored array is 1-D
        return (
            self.kind is other.kind
            and self.side == other.side
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.indices, other.indices)
        )


@dataclass(frozen=True)
class TransformRecord:
    op_name: str
    params: dict
    solution_map: SolutionMap


def map_solution(
    record: TransformRecord | Sequence[TransformRecord], new_inst: LcqpInstance, sol: Solution,
) -> Solution:
    """Reconstruct the transformed Solution from the original one.

    `record` is one TransformRecord or several applied in order, such as
    the records of one policy op; this is the one way a label crosses a
    transform, and each EXPLICIT_DUAL reads the duals the records before it
    leave."""
    records = (record,) if isinstance(record, TransformRecord) else record
    x, lam = sol.x, sol.lam
    for rec in records:
        x, lam = _map_pair(rec.solution_map, x, lam)
    return Solution.from_primal_dual(new_inst, x, lam)


def _map_pair(sm: SolutionMap, x, lam):
    """One map applied to the bare (x, lam) pair; a fresh position adds one
    to the length, so the new sizes follow from the map alone."""
    if sm.kind is MapKind.PRIMAL_SCALED:
        x = x * sm.values
    elif sm.kind is MapKind.DUAL_SCALED:
        lam = lam * sm.values
    elif sm.kind is MapKind.RESTRICTED_TO:
        if sm.side == "primal":
            x = x[sm.indices]
        else:
            lam = lam[sm.indices]
    elif sm.kind is MapKind.EXTENDED_WITH_ZEROS:
        if sm.side == "primal":
            x = _with_zeros(x, sm.indices)
        else:
            lam = _with_zeros(lam, sm.indices)
    elif sm.kind is MapKind.EXPLICIT_DUAL:
        v = sm.values
        x = np.append(x, 0.0)
        lam = np.append(lam, -(v[0] + v[1:] @ lam[sm.indices]))
    elif sm.kind is not MapKind.IDENTITY:  # pragma: no cover
        raise InputError(f"unknown map kind {sm.kind}")
    return x, lam


def _with_zeros(vec, fresh):
    """`vec` spread over the positions of range(len(vec) + len(fresh)) not in `fresh`."""
    size = vec.size + fresh.size
    out = np.zeros(size)
    out[_kept(size, fresh, "fresh")[0]] = vec
    return out


def _emit(inst, *records, **parts):
    """The one place a transform builds its output: `inst` with the named
    parts (q, a, b, c, kind) replaced and `records` added to its provenance."""
    data = {"q": inst.q, "a": inst.a, "b": inst.b, "c": inst.c, "kind": inst.kind, **parts}
    return LcqpInstance(**data, name=inst.name, provenance=inst.provenance + records)


def _check_sol(inst: LcqpInstance, sol: Solution):
    if sol.x.shape != (inst.n,) or sol.lam.shape != (inst.m,):
        raise InputError("solution does not match instance dimensions")


# ----------------------------------------------------------------- scaling ops

def scale_variables(inst: LcqpInstance, alpha) -> tuple[LcqpInstance, TransformRecord]:
    """Rescale variable j by alpha_j > 0; the optimum moves to x_j / alpha_j."""
    alpha = _operand(np.asarray(alpha, dtype=np.float64), inst.n, "alpha")
    if not np.all(np.isfinite(alpha)) or alpha.min(initial=np.inf) <= 0:
        raise InputError("alpha entries must be positive")
    q = inst.q
    # pair products first so (i,j) and (j,i) stay bitwise equal
    q_new = SparseMatrix(inst.n, inst.n, q.rows, q.cols, q.vals * (alpha[q.rows] * alpha[q.cols]))
    a = inst.a
    a_new = SparseMatrix(inst.m, inst.n, a.rows, a.cols, a.vals * alpha[a.cols])
    record = TransformRecord(
        "scale_variables",
        {},
        SolutionMap(MapKind.PRIMAL_SCALED, values=1.0 / alpha),
    )
    return _emit(inst, record, q=q_new, a=a_new, c=inst.c * alpha), record


def scale_constraints(inst: LcqpInstance, d) -> tuple[LcqpInstance, TransformRecord]:
    """Rescale row i by d_i > 0; dual i moves to lam_i / d_i, primal untouched."""
    d = _operand(np.asarray(d, dtype=np.float64), inst.m, "d")
    if not np.all(np.isfinite(d)) or d.min(initial=np.inf) <= 0:
        raise InputError("d entries must be positive")
    a = inst.a
    a_new = SparseMatrix(inst.m, inst.n, a.rows, a.cols, a.vals * d[a.rows])
    record = TransformRecord(
        "scale_constraints",
        {},
        SolutionMap(MapKind.DUAL_SCALED, side="dual", values=1.0 / d),
    )
    return _emit(inst, record, a=a_new, b=inst.b * d), record


# ----------------------------------------------------------------- removal ops

def _kept(size, drop, label):
    """Keep-mask of range(size) without `drop`, and each kept index's new position."""
    drop = np.asarray(drop, dtype=np.int64)
    if drop.size and (drop.min() < 0 or drop.max() >= size):
        raise InputError(f"{label} index out of range")
    keep = np.ones(size, dtype=bool)
    keep[drop] = False
    return keep, np.cumsum(keep) - 1


def _drop_variables(inst, drop: Sequence[int], op_name="drop_variables", params=None):
    keep, pos = _kept(inst.n, drop, "variable")
    n_kept = int(keep.sum())
    if not n_kept:
        raise InputError("cannot drop every variable")
    q = inst.q
    qmask = keep[q.rows] & keep[q.cols]
    q_new = SparseMatrix(n_kept, n_kept, pos[q.rows[qmask]], pos[q.cols[qmask]], q.vals[qmask])
    a = inst.a
    amask = keep[a.cols]
    a_new = SparseMatrix(inst.m, n_kept, a.rows[amask], pos[a.cols[amask]], a.vals[amask])
    record = TransformRecord(
        op_name, params or {},
        SolutionMap(MapKind.RESTRICTED_TO, side="primal", indices=np.flatnonzero(keep)),
    )
    return _emit(inst, record, q=q_new, a=a_new, c=inst.c[keep]), record


def _drop_constraints(inst, drop: Sequence[int], op_name="drop_constraints", params=None):
    keep, pos = _kept(inst.m, drop, "constraint")
    a = inst.a
    amask = keep[a.rows]
    a_new = SparseMatrix(int(keep.sum()), inst.n, pos[a.rows[amask]], a.cols[amask], a.vals[amask])
    record = TransformRecord(
        op_name, params or {},
        SolutionMap(MapKind.RESTRICTED_TO, side="dual", indices=np.flatnonzero(keep)),
    )
    return _emit(inst, record, a=a_new, b=inst.b[keep]), record


def _idle(x, tol=1e-8):
    """Variables whose optimal value is zero relative to 1 + max |x_j|."""
    return np.flatnonzero(np.abs(x) <= tol * (1.0 + np.abs(x).max()))


def remove_idle_variables(inst: LcqpInstance, sol: Solution, tol: float = 1e-8):
    """Drop every variable whose optimal value is (relatively) zero."""
    _check_sol(inst, sol)
    if not tol >= 0:  # NaN too: it would call no variable idle
        raise InputError("tol must be nonnegative")
    idle = _idle(sol.x, tol)
    if idle.size == inst.n:
        raise InputError("every variable is idle; refusing to emit an empty instance")
    return _drop_variables(inst, idle, op_name="remove_idle_variables", params={"tol": tol})


def remove_inactive_constraints(
    inst: LcqpInstance, sol: Solution, tol: float = 1e-6,
    fraction: float = 1.0, seed: int = 0,
):
    """Drop a sampled fraction of the rows partition_constraints calls inactive."""
    _check_sol(inst, sol)
    if not 0.0 <= fraction <= 1.0:
        raise InputError("fraction must lie in [0, 1]")
    inactive = np.asarray(partition_constraints(inst, sol, tol).inactive, dtype=np.int64)
    count = int(fraction * inactive.size)
    rng = derive_rng(seed, "remove_inactive_constraints")
    drop = np.sort(rng.choice(inactive, size=count, replace=False)) if count else np.empty(0, dtype=int)
    return _drop_constraints(
        inst, drop, op_name="remove_inactive_constraints",
        params={"tol": tol, "fraction": fraction, "seed": seed},
    )


# ---------------------------------------------------------------- addition ops

def _grown(mat, shape, blocks):
    """`mat` resized to `shape`, the (rows, cols, vals) blocks appended."""
    rows, cols, vals = (np.concatenate(v) for v in zip((mat.rows, mat.cols, mat.vals), *blocks))
    return SparseMatrix(*shape, rows, cols, vals)


def _diagonal(row, col, vals):
    """The entry block putting `vals` on the diagonal that starts at (row, col)."""
    k = np.arange(len(vals))
    return row + k, col + k, vals


def _append(inst, *records, a_new, q_new=(), c_new=(), b_new=(), kind=None):
    """`inst` with len(c_new) more variables and len(b_new) more rows, built
    once: rows and columns alike are (rows, cols, vals) blocks, indexed in
    the grown instance, concatenated onto the stored entries.  q_new holds
    Q's new entries on or above the diagonal and is mirrored here."""
    n, m = inst.n + len(c_new), inst.m + len(b_new)
    q = inst.q
    if q_new:
        rows, cols, vals = (np.concatenate(v) for v in zip(*q_new))
        off = rows != cols
        q = _grown(q, (n, n), [(rows, cols, vals), (cols[off], rows[off], vals[off])])
    return _emit(
        inst, *records, q=q, a=_grown(inst.a, (m, n), a_new),
        b=np.concatenate([inst.b, b_new]), c=np.concatenate([inst.c, c_new]),
        kind=kind or inst.kind,
    )


def _column(vec, col):
    """A dense vector as the entry block of column `col`."""
    return np.arange(vec.size), np.full(vec.size, col), vec


def add_variables(inst: LcqpInstance, q_vec, ridge: float | None = None):
    """Append a variable whose data is the q_vec-combination of existing ones.

    The extension [[Q, Qq], [q'Q, q'Qq]] is only positive semidefinite, so a
    small ridge (default 1e-2 * trace(Q)/n) lands on the new diagonal entry to
    keep the quadratic term PD; the mapped optimum has the new coordinate at 0
    either way.  Q is certified at unit diagonal, D^-1/2 Q D^-1/2 with
    D = diag(Q), a matrix that scaling the variables leaves alone.
    """
    q_vec = _operand(np.asarray(q_vec, dtype=np.float64), inst.n, "q_vec")
    q = inst.q
    on = q.rows == q.cols
    diag = np.zeros(inst.n)
    diag[q.rows[on]] = q.vals[on]
    if np.any(diag <= 0):
        raise InputError("add_variables needs a positive definite quadratic term")
    root = 1.0 / np.sqrt(diag)
    # pair products first so (i,j) and (j,i) stay bitwise equal
    unit = SparseMatrix(inst.n, inst.n, q.rows, q.cols, q.vals * (root[q.rows] * root[q.cols]))
    if psd_certificate(unit) is not Definiteness.PD:
        raise InputError("add_variables needs a positive definite quadratic term")
    trace = float(q.vals[on].sum())
    if ridge is None:
        ridge = 1e-2 * trace / inst.n
    if not 0 <= ridge < np.inf:  # NaN fails the comparison too
        raise InputError(f"ridge must be nonnegative and finite, got {ridge}")
    qq = inst.q.matvec(q_vec)
    record = TransformRecord(
        "add_variables",
        {"q_vec": q_vec.tolist(), "ridge": float(ridge)},
        SolutionMap(MapKind.EXTENDED_WITH_ZEROS, side="primal", indices=[inst.n]),
    )
    out = _append(
        inst, record, c_new=[float(q_vec @ inst.c)],
        q_new=[_column(np.append(qq, float(q_vec @ qq) + ridge), inst.n)],
        a_new=[_column(inst.a.matvec(q_vec), inst.n)],
    )
    return out, record


def add_variable_biased(inst: LcqpInstance, sol: Solution, q_diag: float, a_col):
    """Append a decoupled variable; its cost is chosen so the stationarity row
    closes at zero, which needs the optimal duals.  Its q_diag > 0 makes the
    result a QP, from an LP too."""
    _check_sol(inst, sol)
    if not 0 < q_diag < np.inf:
        raise InputError(f"q_diag must be positive and finite, got {q_diag}")
    a_col = _operand(np.asarray(a_col, dtype=np.float64), inst.m, "a_col")
    record = TransformRecord(
        "add_variable_biased",
        {"q_diag": float(q_diag), "a_col": a_col.tolist()},
        SolutionMap(MapKind.EXTENDED_WITH_ZEROS, side="primal", indices=[inst.n]),
    )
    out = _append(
        inst, record, c_new=[-float(a_col @ sol.lam)], kind=ProblemKind.QP,
        q_new=[([inst.n], [inst.n], [float(q_diag)])], a_new=[_column(a_col, inst.n)],
    )
    return out, record


def _pinned(inst, q_diag, cols, c_new):
    """`inst` with one add_variable_constrained variable per entry of c_new,
    appended in one build: variable n + i has Q diagonal q_diag[i], column
    entries cols[i] = (rows, vals), cost c_new[i], and row m + i pinning it at
    zero.  The sign checks keep each appended multiplier -(c_new + a_col . lam)
    nonnegative; each map holds its column's support as indices, and c_new
    with the entries there as values."""
    records = []
    for d, (rows, vals), c in zip(q_diag, cols, c_new):
        if not 0 <= d < np.inf:
            raise InputError(f"q_diag must be nonnegative and finite, got {d}")
        if vals.max(initial=0.0) > 0:
            raise InputError("a_col entries must be nonpositive")
        if not -np.inf < c <= 0:
            raise InputError(f"c_new must be nonpositive and finite, got {c}")
        support = vals != 0.0
        records.append(TransformRecord(
            "add_variable_constrained",
            {"q_diag": float(d)},
            SolutionMap(
                MapKind.EXPLICIT_DUAL, side="dual",
                values=np.append(float(c), vals[support]), indices=rows[support],
            ),
        ))
    new = inst.n + np.arange(len(c_new))
    out = _append(
        inst, *records, c_new=c_new, b_new=np.zeros(len(c_new)),
        # a nonzero diagonal makes an LP a QP; zeros keep LPs LPs
        kind=ProblemKind.QP if np.any(q_diag) else inst.kind,
        q_new=[_diagonal(inst.n, inst.n, q_diag)],
        a_new=[*((rows, np.full(rows.size, j), vals) for j, (rows, vals) in zip(new, cols)),
               _diagonal(inst.m, inst.n, np.ones(len(c_new)))],
    )
    return out, records


def add_variable_constrained(inst: LcqpInstance, q_diag: float, a_col, c_new: float):
    """Append a variable pinned at zero by an extra x' <= 0 row.

    The sign restrictions a_col <= 0, c_new <= 0 make the appended multiplier
    -(c_new + a_col . lam) nonnegative for every dual vector, so the op stays
    solution-independent.  q_diag = 0 is accepted so LPs stay LPs.  The map
    stores a_col sparsely: its support as indices, c_new and those entries
    as values.
    """
    a_col = _operand(np.asarray(a_col, dtype=np.float64), inst.m, "a_col")
    out, [record] = _pinned(inst, [q_diag], [(np.arange(inst.m), a_col)], [c_new])
    return out, record


def add_constraints(inst: LcqpInstance, weights: Sequence):
    """Append one row per weight vector: the w-convex-combination of existing
    rows, slack w . s >= 0 at any feasible point, dual 0 at the optimum.

    `weights` is a (k, m) array or k vectors of length m; the record stores it
    as sparse rows/cols/vals, row r being the weights of new row m + r.
    """
    m = inst.m
    try:
        w = np.asarray(weights, dtype=np.float64).reshape(len(weights), m)
    except (TypeError, ValueError) as exc:
        raise InputError(f"weights must form a ({len(weights)}, {m}) array") from exc
    if not np.all(np.isfinite(w)) or w.min(initial=0.0) < 0:
        raise InputError("weights must be nonnegative")
    if not np.all(w.max(axis=1, initial=0.0) > 0):
        raise InputError("weight vector must not be all zero")
    new_rows = np.array([inst.a.rmatvec(wr) for wr in w]).reshape(len(w), inst.n)
    rows, cols = np.nonzero(new_rows)
    w_rows, w_cols = np.nonzero(w)
    record = TransformRecord(
        "add_constraints",
        {"weights": {
            "rows": w_rows.tolist(), "cols": w_cols.tolist(),
            "vals": w[w_rows, w_cols].tolist(),
        }},
        SolutionMap(
            MapKind.EXTENDED_WITH_ZEROS, side="dual",
            indices=np.arange(m, m + len(w)),
        ),
    )
    out = _append(
        inst, record,
        # per-row dots: one W @ b would round differently from w . b
        b_new=[float(row @ inst.b) for row in w],
        a_new=[(m + rows, cols, new_rows[rows, cols])],
    )
    return out, record


# ------------------------------------------------------------------- bias terms

def bias_instance(inst: LcqpInstance, sol: Solution, rank: int, magnitude: float, seed: int):
    """Add a random PSD block to Q and a dense shift to A, compensating b and c
    so the original primal-dual pair stays optimal."""
    if rank < 1:
        raise InputError("rank must be at least 1")
    if not np.isfinite(magnitude):
        raise InputError(f"magnitude must be finite, got {magnitude}")
    _check_sol(inst, sol)
    rng = derive_rng(seed, "bias_instance")
    r = magnitude * rng.standard_normal((inst.n, rank))
    b21 = magnitude * rng.standard_normal((inst.m, inst.n))
    b11 = r @ r.T
    b11 = (b11 + b11.T) / 2.0  # exactly symmetric whatever the product rounds
    q_new = SparseMatrix.from_dense(inst.q.to_dense() + b11)
    record = TransformRecord(
        "bias_instance",
        {"rank": int(rank), "magnitude": float(magnitude), "seed": int(seed)},
        SolutionMap(MapKind.IDENTITY),
    )
    out = _emit(
        inst, record, q=q_new, a=SparseMatrix.from_dense(inst.a.to_dense() + b21),
        b=inst.b + b21 @ sol.x, c=inst.c - b11 @ sol.x - b21.T @ sol.lam,
        kind=ProblemKind.QP if q_new.nnz else inst.kind,
    )
    return out, record


# ------------------------------------------------------------ inactive heuristic

def heuristic_scores(inst: LcqpInstance, step: float | None = None) -> np.ndarray:
    """Normalized slack of each row at a trial step along the descent ray -c.

    Larger means more likely inactive at the optimum.  The step length
    defaults to 1 for QPs and 4 sqrt(n) for LPs, where optima sit far from the
    origin and the right-hand side would otherwise dominate the direction
    term.  Rows with no entries are vacuous and score +inf.
    """
    norms = inst.a.row_norms()
    if step is None:
        step = 1.0 if inst.kind is ProblemKind.QP else 4.0 * np.sqrt(inst.n)
    if not np.isfinite(step):
        raise InputError(f"step must be finite, got {step}")
    cnorm = float(np.linalg.norm(inst.c))
    if cnorm == 0.0:
        raw = inst.b.astype(np.float64)
    else:
        raw = inst.b + step * inst.a.matvec(inst.c) / cnorm
    with np.errstate(divide="ignore", invalid="ignore"):
        h = raw / norms
    h[norms == 0.0] = np.inf
    return h


def heuristic_inactive(inst: LcqpInstance, k: int, step: float | None = None) -> tuple[int, ...]:
    """Indices of the k rows most likely inactive; ties go to smaller index."""
    if not 0 <= k <= inst.m:
        raise InputError(f"k must lie in [0, {inst.m}]")
    if k == 0:
        return ()
    h = heuristic_scores(inst, step=step)
    order = np.argsort(-h, kind="stable")
    return tuple(sorted(int(i) for i in order[:k]))


def heuristic_accuracy(gt_inactive, heu_inactive) -> float:
    heu = set(heu_inactive)
    if not heu:
        raise InputError("heuristic index set must be nonempty")
    return len(set(gt_inactive) & heu) / len(heu)


# ----------------------------------------------------------------------- policy

# two-op combination strengths used for supervised-style augmentation
COMBO_STRENGTHS = {
    "drop-vars": 0.0, "drop-cons": 0.5, "scale-cons": 0.5,
    "scale-vars": 0.5, "add-cons": 0.6, "add-vars": 0.0,
}

# fixed strengths for contrastive view generation (no interpolation)
SSL_STRENGTHS_LP = {
    "drop-cons": 0.05, "scale-cons": 0.40, "scale-vars": 1.07,
    "add-cons": 0.36, "add-vars": 0.46,
}
SSL_STRENGTHS_QP = {
    "drop-cons": 0.07, "scale-cons": 1.03, "scale-vars": 0.65,
    "add-cons": 0.33, "add-vars": 0.26,
}

# single-op strengths tuned per problem kind
PER_OP_STRENGTHS_LP = {
    "drop-vars": 0.99, "drop-cons": 0.99, "scale-cons": 1.0,
    "scale-vars": 1.0, "add-cons": 0.5, "add-vars": 0.8,
}
PER_OP_STRENGTHS_QP = {
    "drop-vars": 0.99, "drop-cons": 0.99, "scale-cons": 1.0,
    "scale-vars": 1.0, "add-cons": 0.5, "add-vars": 0.6,
}

_SOLUTION_DEPENDENT = ("drop-vars",)


@dataclass(frozen=True)
class AugmentPolicy:
    """Which ops to sample, how hard to push them, and the stream seed."""

    strengths: Mapping[str, float]
    ops_per_instance: int = 2
    interpolate: bool = True
    seed: int = 0

    def __post_init__(self):
        s = {}
        for op, val in dict(self.strengths).items():
            if op not in CATALOG_ORDER:
                raise InputError(f"unknown augmentation op {op!r}")
            val = float(val)
            if not np.isfinite(val) or val < 0:
                raise InputError(f"strength for {op!r} must be finite and nonnegative")
            s[op] = val
        if self.ops_per_instance < 1:
            raise InputError("ops_per_instance must be at least 1")
        object.__setattr__(self, "strengths", s)


def _listed(result):
    """A one-record op's (instance, record) in the policy table's shape."""
    out, record = result
    return out, [record]


def _drawn(eligible, aprime, rng, cap):
    """A sorted draw, without replacement, of frac * |eligible| of `eligible`
    and at most `cap`, with frac ~ U(0, aprime) capped at 1; None if empty."""
    frac = min(1.0, rng.uniform(0.0, aprime))
    k = min(int(frac * eligible.size), cap)
    if k <= 0:
        return None
    return np.sort(rng.choice(eligible, size=k, replace=False))


def _policy_drop_vars(inst, sol, aprime, rng):
    drop = _drawn(_idle(sol.x), aprime, rng, inst.n - 1)
    return None if drop is None else _listed(_drop_variables(inst, drop))


def _policy_drop_cons(inst, sol, aprime, rng):
    if sol is not None:
        eligible = partition_constraints(inst, sol).inactive
    else:
        k_guess = inst.m - inst.n if inst.m > inst.n else inst.m // 2
        eligible = heuristic_inactive(inst, k_guess)
    drop = _drawn(np.asarray(eligible, dtype=np.int64), aprime, rng, inst.m)
    return None if drop is None else _listed(_drop_constraints(inst, drop))


def _policy_scale_cons(inst, sol, aprime, rng):
    return _listed(scale_constraints(inst, np.exp(rng.uniform(-aprime, aprime, size=inst.m))))


def _policy_scale_vars(inst, sol, aprime, rng):
    return _listed(scale_variables(inst, np.exp(rng.uniform(-aprime, aprime, size=inst.n))))


def _policy_add_cons(inst, sol, aprime, rng):
    """int(aprime * m) rows, each a convex combination of min(3, m) distinct
    rows with raw weights U(0, 1) + 1e-9, from one draw for all of them: the
    rows whose m keys are smallest, taken in row order, and then the weights."""
    count = int(aprime * inst.m)
    if count <= 0 or inst.m == 0:
        return None
    take = min(3, inst.m)
    keys = rng.random((count, inst.m + take))
    # distinct keys pick a unique set; sorting it keeps the set's order free
    # of how argpartition orders its first `take`
    picked = np.sort(np.argpartition(keys[:, :inst.m], take - 1, axis=1)[:, :take], axis=1)
    raw = keys[:, inst.m:] + 1e-9
    weights = np.zeros((count, inst.m))
    np.put_along_axis(weights, picked, raw / raw.sum(axis=1, keepdims=True), axis=1)
    return _listed(add_constraints(inst, weights))


def _policy_add_vars(inst, sol, aprime, rng):
    """int(aprime * n) constrained variables, drawn in sequence and appended
    in one build: draw i sees the m + i rows and n + i variables the draws
    before it leave, so its rows may include their pin rows, and its q_diag
    is 1e-2 * trace / (n + i) summed over the diagonal Q would store by then."""
    count = int(aprime * inst.n)
    if count <= 0:
        return None
    n, m, q = inst.n, inst.m, inst.q
    stored = q.vals[q.rows == q.cols]
    diag = np.concatenate([stored, np.empty(count)])
    top = stored.size
    q_diag, c_new, cols = np.zeros(count), np.empty(count), []
    for i in range(count):
        if inst.kind is not ProblemKind.LP:
            # np.sum over the array a stored diagonal holds; a running
            # scalar would round differently
            q_diag[i] = 1e-2 * float(diag[:top].sum()) / (n + i)
            if q_diag[i] != 0.0:  # Q stores no explicit zero
                diag[top] = q_diag[i]
                top += 1
        rows, vals = np.empty(0, dtype=np.int64), np.empty(0)
        if m + i:
            rows = rng.choice(m + i, size=min(3, m + i), replace=False)
            vals = -np.abs(rng.standard_normal(rows.size))
            order = np.argsort(rows)
            rows, vals = rows[order], vals[order]
        c_new[i] = -abs(rng.standard_normal())
        cols.append((rows, vals))
    return _pinned(inst, q_diag, cols, c_new)


# op name -> fn(inst, sol, aprime, rng) giving (instance, [records]), or
# None when its draw changes nothing; its order is the catalog order
_POLICY_OPS = {
    "drop-vars": _policy_drop_vars,
    "drop-cons": _policy_drop_cons,
    "scale-cons": _policy_scale_cons,
    "scale-vars": _policy_scale_vars,
    "add-cons": _policy_add_cons,
    "add-vars": _policy_add_vars,
}
CATALOG_ORDER = tuple(_POLICY_OPS)


def apply_policy(
    inst: LcqpInstance, policy: AugmentPolicy, sol: Solution | None = None,
) -> tuple[LcqpInstance, Solution | None, list[TransformRecord]]:
    """Sample ops (probability proportional to strength, no replacement) and
    apply them in catalog order; deterministic given (seed, instance name).

    add-vars draws its variables in sequence and appends them in one build,
    one record per variable; instance, records and mapped solution are
    byte-identical to one add_variable_constrained and map_solution call per
    variable."""
    strengths = policy.strengths
    for op in _SOLUTION_DEPENDENT:
        if strengths.get(op, 0.0) > 0.0 and sol is None:
            raise InputError(f"op {op} requires a labeled instance")
    eligible = [op for op in CATALOG_ORDER if strengths.get(op, 0.0) > 0.0]
    records: list[TransformRecord] = []
    cur, cur_sol = inst, sol
    if not eligible:
        return cur, cur_sol, records
    sel = derive_rng(policy.seed, inst.name, "select")
    count = min(policy.ops_per_instance, len(eligible))
    w = np.array([strengths[op] for op in eligible])
    chosen_idx = sel.choice(len(eligible), size=count, replace=False, p=w / w.sum())
    for op in (eligible[i] for i in np.sort(chosen_idx)):  # eligible is in catalog order
        rng = derive_rng(policy.seed, inst.name, op)
        aprime = strengths[op] * rng.uniform() if policy.interpolate else strengths[op]
        drawn = _POLICY_OPS[op](cur, cur_sol, aprime, rng)
        if drawn is None:
            continue
        cur, recs = drawn
        records.extend(recs)
        if cur_sol is not None:
            cur_sol = map_solution(recs, cur, cur_sol)
    return cur, cur_sol, records
