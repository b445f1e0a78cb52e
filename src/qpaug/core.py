"""Core problem types and optimality checks.

Instances are linearly-constrained quadratic programs

    minimize    0.5 * x' Q x + c' x
    subject to  A x <= b

with Q symmetric positive semidefinite (zero for pure LPs).  A primal-dual
pair (x, lam) is optimal iff the standard first-order conditions hold:
stationarity Q x + A' lam + c = 0, primal feasibility A x <= b, dual
feasibility lam >= 0, and complementary slackness lam_i * (A x - b)_i = 0.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .transforms import TransformRecord


class InputError(ValueError):
    """An argument violated a documented precondition."""


class ProblemKind(enum.Enum):
    LP = "lp"
    QP = "qp"


class Definiteness(enum.Enum):
    PD = "pd"
    PSD = "psd"
    INDEFINITE = "indefinite"


# psd_certificate's default pivot tol, relative to max(1, max |q_jj|), which
# scaling the variables moves; the solver's unpivoted test takes it relative
# to each q_jj, and add_variables certifies Q at unit diagonal
_PSD_TOL = 1e-10


def _as_float_vector(v, length: int, label: str) -> np.ndarray:
    """A read-only float64 copy of `v`; the caller's array stays writeable."""
    arr = _operand(np.array(v, dtype=np.float64), length, label)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{label} contains non-finite entries")
    arr.flags.writeable = False
    return arr


def _operand(v, length: int, label: str) -> np.ndarray:
    v = np.asarray(v)
    if v.shape != (length,):
        raise InputError(f"{label} must have shape ({length},), got {v.shape}")
    return v


def _ordered_sum(keys: np.ndarray, terms: np.ndarray, length: int) -> np.ndarray:
    """out[k] = the sum of terms[keys == k], added in array order from 0.0.
    (nnz, d) terms sum into a (length, d) out, each column on its own: keys
    are then their flat keys, `_row_keys` of the rows they add into."""
    width = terms.shape[1:]
    size = length * width[0] if width else length
    # bincount gives integer zeros when there are no terms
    out = np.bincount(keys, terms.ravel(), minlength=size).astype(np.float64, copy=False)
    return out.reshape(length, *width)


def _row_keys(rows: np.ndarray, width: int) -> np.ndarray:
    """The flat keys that `_ordered_sum` adds (nnz, width) terms by: term
    [e, j] into row rows[e], column j."""
    return (rows[:, None] * width + np.arange(width)).ravel()


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Real sparse matrix in canonical coordinate form.

    Entries are kept sorted by (row, col), duplicates are rejected, and
    explicit zeros are dropped, so that equal matrices have identical
    storage.  Files refuse an explicit zero in any sparse field instead.
    """

    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64).ravel()
        cols = np.asarray(self.cols, dtype=np.int64).ravel()
        vals = np.asarray(self.vals, dtype=np.float64).ravel()
        if not (rows.shape == cols.shape == vals.shape):
            raise InputError("rows, cols, vals must have equal length")
        if self.n_rows < 0 or self.n_cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.n_rows:
                raise InputError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.n_cols:
                raise InputError("column index out of range")
            if not np.all(np.isfinite(vals)):
                raise InputError("matrix values must be finite")
            # the mask copies, so storage never aliases the caller's arrays
            keep = vals != 0.0
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
            flat = rows * self.n_cols + cols  # (row, col) order as one key
            if np.any(flat[1:] <= flat[:-1]):  # not already in canonical order
                order = np.argsort(flat, kind="stable")
                rows, cols, vals, flat = rows[order], cols[order], vals[order], flat[order]
                if np.any(flat[1:] == flat[:-1]):
                    raise InputError("duplicate (row, col) entry")
        for name, arr in (("rows", rows), ("cols", cols), ("vals", vals)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def _canonical(cls, n_rows, n_cols, rows, cols, vals, symmetric=None) -> "SparseMatrix":
        """A matrix on arrays a file reader has proved canonical: int64 rows
        and cols within the shape, in strictly increasing (row, col) order,
        and finite nonzero float64 vals, none of them shared.  They are
        frozen in place, neither checked nor copied, and a known `symmetric`
        verdict is kept.  Every other caller goes through the checks above."""
        mat = object.__new__(cls)
        for arr in (rows, cols, vals):
            arr.flags.writeable = False
        mat.__dict__.update(n_rows=n_rows, n_cols=n_cols, rows=rows, cols=cols, vals=vals)
        if symmetric is not None:
            mat.__dict__["_symmetric"] = symmetric
        return mat

    @classmethod
    def from_dense(cls, arr) -> "SparseMatrix":
        dense = np.asarray(arr, dtype=np.float64)
        if dense.ndim != 2:
            raise InputError("dense input must be 2-D")
        rows, cols = np.nonzero(dense)
        return cls(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols])

    @classmethod
    def from_scipy(cls, mat) -> "SparseMatrix":
        """A copy of a scipy sparse matrix.  This alone in the package needs
        scipy, which it imports here: its caller already holds the matrix."""
        import scipy.sparse as sp

        coo = sp.coo_matrix(mat)
        coo.sum_duplicates()
        return cls(coo.shape[0], coo.shape[1], coo.row, coo.col, coo.data)

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "SparseMatrix":
        e = np.empty(0)
        return cls(n_rows, n_cols, e, e, e)

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.rows, self.cols] = self.vals
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x.  Each row is summed in storage order from 0.0, as scipy's CSR
        kernel sums it, so the result is bit-identical to scipy's `csr @ x`."""
        x = _operand(x, self.n_cols, "x")
        return _ordered_sum(self.rows, self.vals * x[self.cols], self.n_rows)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """A' y, bit-identical to scipy's `csr.T @ y` (each column summed in
        row order)."""
        y = _operand(y, self.n_rows, "y")
        return _ordered_sum(self.cols, self.vals * y[self.rows], self.n_cols)

    def row_norms(self) -> np.ndarray:
        return np.sqrt(_ordered_sum(self.rows, self.vals**2, self.n_rows))

    def is_symmetric(self) -> bool:
        """Exact structural symmetry: (i, j, v) stored iff (j, i, v) stored."""
        return self._symmetric

    @cached_property
    def _symmetric(self) -> bool:
        """The verdict of `is_symmetric`, found once: storage never changes."""
        if self.n_rows != self.n_cols:
            return False
        # rows increase within each column of canonical storage, so a stable
        # sort by column alone gives the (col, row) order; in the narrowest
        # unsigned dtype numpy sorts it by radix, in O(nnz)
        order = np.argsort(self.cols.astype(np.min_scalar_type(self.n_cols)), kind="stable")
        return (
            np.array_equal(self.rows, self.cols[order])
            and np.array_equal(self.cols, self.rows[order])
            and np.array_equal(self.vals, self.vals[order])
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
            and np.array_equal(self.vals, other.vals)
        )

    def __repr__(self) -> str:
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


@dataclass(frozen=True, eq=False)
class LcqpInstance:
    """One constrained program: 0.5 x'Qx + c'x subject to Ax <= b."""

    q: SparseMatrix
    a: SparseMatrix
    b: np.ndarray
    c: np.ndarray
    kind: ProblemKind
    name: str = ""
    provenance: tuple["TransformRecord", ...] = field(default=())

    def __post_init__(self):
        if self.q.n_rows != self.q.n_cols:
            raise InputError("q must be square")
        n = self.q.n_rows
        if n < 1:
            raise InputError("instance needs at least one variable")
        if self.a.n_cols != n:
            raise InputError(f"a has {self.a.n_cols} columns, expected {n}")
        object.__setattr__(self, "b", _as_float_vector(self.b, self.a.n_rows, "b"))
        object.__setattr__(self, "c", _as_float_vector(self.c, n, "c"))
        if not self.q.is_symmetric():
            raise InputError("q must be stored symmetrically")
        if self.kind is ProblemKind.LP and self.q.nnz != 0:
            raise InputError("LP instances must have an empty quadratic term")
        object.__setattr__(self, "provenance", tuple(self.provenance))

    @property
    def n(self) -> int:
        return self.q.n_rows

    @property
    def m(self) -> int:
        return self.a.n_rows

    def data_equal(self, other: "LcqpInstance") -> bool:
        """Equality of problem data (name and provenance excluded)."""
        return (
            self.kind is other.kind
            and self.q == other.q
            and self.a == other.a
            and np.array_equal(self.b, other.b)
            and np.array_equal(self.c, other.c)
        )

    def __repr__(self) -> str:
        return (
            f"LcqpInstance({self.kind.value}, n={self.n}, m={self.m}, "
            f"name={self.name!r})"
        )


@dataclass(frozen=True, eq=False)
class Solution:
    """Primal-dual pair with cached slack and objective value."""

    x: np.ndarray
    lam: np.ndarray
    slack: np.ndarray
    objective: float

    def __post_init__(self):
        # copies: the stored arrays are frozen, the caller's stay writeable
        x = np.array(self.x, dtype=np.float64)
        lam = np.array(self.lam, dtype=np.float64)
        slack = np.array(self.slack, dtype=np.float64)
        if lam.shape != slack.shape:
            raise InputError("lam and slack must have equal length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(lam))):
            raise InputError("solution vectors must be finite")
        if lam.size and lam.min() < -1e-12:
            raise InputError(f"negative dual value {lam.min()}")
        for name, arr in (("x", x), ("lam", lam), ("slack", slack)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "objective", float(self.objective))

    @classmethod
    def from_primal_dual(cls, inst: LcqpInstance, x, lam) -> "Solution":
        x = np.asarray(x, dtype=np.float64)
        lam = np.asarray(lam, dtype=np.float64)
        if x.shape != (inst.n,):
            raise InputError(f"x must have shape ({inst.n},)")
        if lam.shape != (inst.m,):
            raise InputError(f"lam must have shape ({inst.m},)")
        slack = inst.b - inst.a.matvec(x)
        return cls(x=x, lam=lam, slack=slack, objective=objective(inst, x))


@dataclass(frozen=True)
class KktReport:
    """Worst-case first-order optimality residuals for one (instance, solution)."""

    stationarity_inf_norm: float
    primal_violation: float
    dual_violation: float
    complementarity: float
    relative: bool

    @property
    def max_residual(self) -> float:
        return max(
            self.stationarity_inf_norm,
            self.primal_violation,
            self.dual_violation,
            self.complementarity,
        )


@dataclass(frozen=True)
class ActivePartition:
    active: tuple[int, ...]
    inactive: tuple[int, ...]
    tolerance: float


def objective(inst: LcqpInstance, x: np.ndarray) -> float:
    """0.5 x'Qx + c'x evaluated through the sparse storage."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (inst.n,):
        raise InputError(f"x must have shape ({inst.n},)")
    return float(0.5 * (x @ inst.q.matvec(x)) + inst.c @ x)


def kkt_residuals(inst: LcqpInstance, sol: Solution, relative: bool = False) -> KktReport:
    """Evaluate the four first-order residuals; scaling divides the
    stationarity norm by (1 + ||c||_inf) and the primal violation by
    (1 + ||b||_inf)."""
    return kkt_residuals_raw(inst, sol.x, sol.lam, relative=relative)


def kkt_residuals_raw(inst: LcqpInstance, x, lam, relative: bool = False) -> KktReport:
    """As kkt_residuals, but on bare arrays, so candidate points that violate
    dual feasibility outright can still be scored rather than rejected."""
    x = np.asarray(x, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    if x.shape != (inst.n,) or lam.shape != (inst.m,):
        raise InputError("solution shape mismatch with instance")
    stat = inst.q.matvec(x) + inst.a.rmatvec(lam) + inst.c
    stat_norm = float(np.abs(stat).max()) if stat.size else 0.0
    resid = inst.a.matvec(x) - inst.b
    primal = float(max(0.0, resid.max())) if resid.size else 0.0
    dual = float(max(0.0, -lam.min())) if lam.size else 0.0
    compl = float(np.abs(lam * resid).max()) if resid.size else 0.0
    if relative:
        stat_norm /= 1.0 + (float(np.abs(inst.c).max()) if inst.c.size else 0.0)
        primal /= 1.0 + (float(np.abs(inst.b).max()) if inst.b.size else 0.0)
    return KktReport(
        stationarity_inf_norm=stat_norm,
        primal_violation=primal,
        dual_violation=dual,
        complementarity=compl,
        relative=relative,
    )


def partition_constraints(
    inst: LcqpInstance, sol: Solution, tol: float = 1e-6
) -> ActivePartition:
    """Split rows into active (slack <= tol * (1 + |b_i|)) and inactive."""
    if not tol >= 0:  # NaN too: it would call every row inactive
        raise InputError("tol must be nonnegative")
    slack = sol.slack
    if slack.shape != (inst.m,):
        raise InputError("solution slack length mismatch")
    thresh = tol * (1.0 + np.abs(inst.b))
    active_mask = slack <= thresh
    idx = np.arange(inst.m)
    return ActivePartition(
        active=tuple(int(i) for i in idx[active_mask]),
        inactive=tuple(int(i) for i in idx[~active_mask]),
        tolerance=tol,
    )


def psd_certificate(q: SparseMatrix, tol: float | None = None) -> Definiteness:
    """Classify a symmetric matrix via greedy-pivot Cholesky elimination.

    PD when all pivots clear tol, PSD when elimination stalls on a residual
    block that is itself negligible, indefinite otherwise.  The elimination
    is left-looking (Hammarling, Higham & Lucas, 2007): d holds the diagonal
    of the remaining Schur complement, each step takes its largest entry as
    the pivot and forms the pivot's column of L with one matrix-vector
    product, and it stops at the first pivot <= tol, about n^3 / 6 flops
    over at most n steps.  The default tol is _PSD_TOL times
    max(1, max |q_jj|).
    """
    if q.n_rows != q.n_cols:
        raise InputError("matrix must be square")
    if not q.is_symmetric():
        raise InputError("matrix must be stored symmetrically")
    n = q.n_rows
    h = q.to_dense()
    d = np.diag(h).copy()
    scale = max(1.0, float(np.abs(d).max()) if n else 1.0)
    if tol is None:
        tol = _PSD_TOL * scale
    if not tol >= 0:  # NaN fails the comparison too
        raise InputError(f"tol must be nonnegative, got {tol}")
    low = np.zeros((n, n))
    perm = np.arange(n)
    for k in range(n):
        j = k + int(np.argmax(d[k:]))
        if d[j] <= tol:
            break
        for arr in (perm, d, low):
            arr[[k, j]] = arr[[j, k]]
        low[k, k] = piv = np.sqrt(d[k])
        col = (h[perm[k], perm[k + 1 :]] - low[k + 1 :, :k] @ low[k, :k]) / piv
        low[k + 1 :, k] = col
        d[k + 1 :] -= col * col
    else:
        return Definiteness.PD
    # limit for off-diagonal mass of a PSD matrix whose diagonal is below tol
    off_limit = max(tol, np.sqrt(tol * scale))
    # the Schur complement H22 - L21 L21' of the stalled elimination, formed
    # from h itself
    rest = perm[k:]
    sub = h[np.ix_(rest, rest)] - low[k:, :k] @ low[k:, :k].T
    d = np.diag(sub)
    off = sub - np.diag(d)
    if d.min() < -tol or (off.size and np.abs(off).max() > off_limit):
        return Definiteness.INDEFINITE
    return Definiteness.PSD


def permute_instance(
    inst: LcqpInstance, var_perm: np.ndarray, con_perm: np.ndarray
) -> LcqpInstance:
    """Relabel variables and constraints; var_perm[j] is the new index of
    old variable j (likewise con_perm for rows)."""
    var_perm = np.asarray(var_perm, dtype=np.int64)
    con_perm = np.asarray(con_perm, dtype=np.int64)
    if sorted(var_perm.tolist()) != list(range(inst.n)):
        raise InputError("var_perm is not a permutation")
    if sorted(con_perm.tolist()) != list(range(inst.m)):
        raise InputError("con_perm is not a permutation")
    q = SparseMatrix(
        inst.n, inst.n, var_perm[inst.q.rows], var_perm[inst.q.cols], inst.q.vals
    )
    a = SparseMatrix(
        inst.m, inst.n, con_perm[inst.a.rows], var_perm[inst.a.cols], inst.a.vals
    )
    b = np.empty(inst.m)
    b[con_perm] = inst.b
    c = np.empty(inst.n)
    c[var_perm] = inst.c
    return LcqpInstance(q=q, a=a, b=b, c=c, kind=inst.kind, name=inst.name)
