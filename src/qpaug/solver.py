"""Reference solvers used to label and verify instances.

solve_splitting is an operator-splitting (ADMM) method with a one-time sparse
factorization and an equality-system polish step; solve_enumeration checks
every candidate active set and is the ground-truth oracle at toy sizes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import (
    Definiteness,
    InputError,
    KktReport,
    LcqpInstance,
    ProblemKind,
    Solution,
    kkt_residuals,
    kkt_residuals_raw,
    objective,
    psd_certificate,
)


class Unbounded(RuntimeError):
    """The objective decreases without limit along a feasible ray."""


class InfeasibleOrUnbounded(RuntimeError):
    """No optimal point: enumeration found no optimal active set, or the
    splitting solver found a certificate that A x <= b has no solution."""


class Unconverged(RuntimeError):
    """Iteration budget exhausted; carries the best iterate seen."""

    def __init__(self, message: str, best: Solution | None, report: KktReport | None):
        super().__init__(message)
        self.best = best
        self.report = report


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8
    max_iter: int = 50000
    penalty: float = 1.0
    polish: bool = True


@dataclass(frozen=True)
class SolveStats:
    iterations: int
    polished: bool
    report: KktReport


_SIGMA = 1e-6
_RELAX = 1.6
_CHECK_EVERY = 25
_ACTIVE_SLACK_TOL = 1e-5
_CERT_TOL = 1e-5
_POLISH_REG = 1e-9
_RHO_MIN = 1e-6
_RHO_MAX = 1e6


def _kkt_equality_solve(kkt: np.ndarray, rhs: np.ndarray, n: int) -> np.ndarray | None:
    """Solve the (possibly singular) equality KKT system.

    A quasi-definite shift (+d on the primal block, -d on the dual block)
    makes the matrix nonsingular; two refinement steps against the unshifted
    system remove the perturbation to working precision.
    """
    reg = kkt.copy()
    diag = np.arange(kkt.shape[0])
    reg[diag, diag] += np.where(diag < n, _POLISH_REG, -_POLISH_REG)
    try:
        fac = scipy.linalg.lu_factor(reg, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError):
        return None
    w = scipy.linalg.lu_solve(fac, rhs, check_finite=False)
    for _ in range(2):
        resid = rhs - kkt @ w
        w = w + scipy.linalg.lu_solve(fac, resid, check_finite=False)
    if not np.all(np.isfinite(w)):
        return None
    return w


def _kkt_entries(inst: LcqpInstance, place: np.ndarray):
    """Rows, cols and values of [[Q, A_S'], [A_S, 0]]: row i of A goes to row
    place[i] of the system (and its transpose to that column), and rows with
    place[i] < 0 are left out."""
    q, a = inst.q, inst.a
    keep = place[a.rows] >= 0
    ar, ac, av = place[a.rows][keep], a.cols[keep], a.vals[keep]
    return (np.concatenate([q.rows, ac, ar]), np.concatenate([q.cols, ar, ac]),
            np.concatenate([q.vals, av, av]))


def _polish(inst: LcqpInstance, x: np.ndarray, y: np.ndarray):
    """Re-solve the equality system on the estimated active set.

    Repair rounds add every violated row at once but retire negative duals
    one at a time, which avoids add/drop cycling.
    """
    n, m = inst.n, inst.m
    slack = inst.b - inst.a.matvec(x)
    near = slack <= _ACTIVE_SLACK_TOL * (1.0 + np.abs(inst.b))
    pushed = y > 1e-10 * (1.0 + np.abs(y).max() if m else 1.0)
    active = np.flatnonzero(near | pushed)
    b_scale = 1.0 + (np.abs(inst.b).max() if m else 0.0)
    lam_tol = 1e-9 * (1.0 + (np.abs(y).max() if m else 0.0))
    for _ in range(60):
        k = active.size
        place = np.full(m, -1)
        place[active] = n + np.arange(k)
        rows, cols, vals = _kkt_entries(inst, place)
        kkt = np.zeros((n + k, n + k))
        kkt[rows, cols] = vals
        rhs = np.concatenate([-inst.c, inst.b[active]])
        sol = _kkt_equality_solve(kkt, rhs, n)
        if sol is None:
            return None
        xp = sol[:n]
        lam_act = sol[n:]
        viol = inst.a.matvec(xp) - inst.b
        grow = np.flatnonzero(viol > 1e-9 * b_scale)
        grow = np.setdiff1d(grow, active, assume_unique=False)
        if grow.size:
            active = np.unique(np.concatenate([active, grow]))
            continue
        if k and lam_act.min() < -lam_tol:
            active = np.delete(active, int(np.argmin(lam_act)))
            continue
        lam = np.zeros(m)
        if k:
            lam[active] = np.maximum(lam_act, 0.0)
        return Solution.from_primal_dual(inst, xp, lam)
    return None


def solve_splitting_detailed(
    inst: LcqpInstance, cfg: SolverConfig = SolverConfig()
) -> tuple[Solution, SolveStats]:
    """Solve and also report iteration count and whether polish produced the
    returned point."""
    # NaN fails these comparisons too
    if not (0.0 < cfg.tol < np.inf and 0.0 < cfg.penalty < np.inf) or cfg.max_iter < 1:
        raise InputError("tol and penalty must be positive and finite, max_iter >= 1")
    if inst.kind is ProblemKind.QP:
        if psd_certificate(inst.q) is Definiteness.INDEFINITE:
            raise InputError("quadratic term must be positive semidefinite")
    n, m = inst.n, inst.m
    q, a, b, c = inst.q, inst.a, inst.b, inst.c
    rho = cfg.penalty

    def factor(r):
        rows, cols, vals = _kkt_entries(inst, n + np.arange(m))
        diag = np.arange(n + m)
        vals = np.concatenate([vals, np.full(n, _SIGMA), np.full(m, -1.0 / r)])
        kkt = sp.csc_matrix((vals, (np.concatenate([rows, diag]), np.concatenate([cols, diag]))),
                            shape=(n + m, n + m))
        # quasi-definite (+sigma primal block, -1/r dual block), so it factors
        # under any symmetric ordering without pivoting (Vanderbei 1995)
        return spla.splu(kkt, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})

    lu = factor(rho)
    x = x_prev = np.zeros(n)
    y = y_prev = np.zeros(m)
    z = np.zeros(m)
    cert_hits = np.zeros(2, dtype=int)  # checks in a row each certificate held
    best_xy: tuple[np.ndarray, np.ndarray] | None = None
    best_polished = False  # whether polish, not an iterate, gave best_xy
    best_max = np.inf
    last_polish_at = np.inf
    c_scale = 1.0 + (np.abs(c).max() if n else 0.0)
    b_scale = 1.0 + (np.abs(b).max() if m else 0.0)

    def as_solution(xv, yv) -> Solution:
        return Solution.from_primal_dual(inst, xv, np.maximum(yv, 0.0))

    def polish(xv, yv):
        """Polish (xv, yv), score it, and keep it as the best point if it
        beats it; the polished point and its report, or (None, None)."""
        nonlocal best_max, best_xy, best_polished
        pol = _polish(inst, xv, yv)
        if pol is None:
            return None, None
        prep = kkt_residuals(inst, pol, relative=True)
        if prep.max_residual < best_max:
            best_max = prep.max_residual
            best_xy, best_polished = (pol.x.copy(), pol.lam.copy()), True
        return pol, prep

    it = 0
    while it < cfg.max_iter:
        it += 1
        rhs = np.concatenate([_SIGMA * x - c, z - y / rho])
        w = lu.solve(rhs)
        xt = w[:n]
        nu = w[n:]
        zt = z + (nu - y) / rho
        x = _RELAX * xt + (1.0 - _RELAX) * x
        u = _RELAX * zt + (1.0 - _RELAX) * z + y / rho
        z = np.minimum(u, b)
        y = rho * (u - z)

        if it % _CHECK_EVERY == 0 or it == cfg.max_iter:
            # y >= 0 by construction, so the dual term is 0
            cur_max = kkt_residuals_raw(inst, x, y, relative=True).max_residual
            if cur_max < best_max:
                best_max = cur_max
                best_xy, best_polished = (x.copy(), y.copy()), False
            if cur_max <= cfg.tol:
                sol = as_solution(x, y)
                return sol, SolveStats(it, False, kkt_residuals(inst, sol, relative=True))
            want_polish = cur_max < 0.31 * last_polish_at or it % 2500 == 0
            if cfg.polish and want_polish:
                last_polish_at = min(last_polish_at, cur_max)
                pol, prep = polish(x, y)
                if pol is not None and prep.max_residual <= cfg.tol:
                    return pol, SolveStats(it, True, prep)
            # OSQP's certificates (Stellato et al. 2020, section 3.4) on the
            # steps since the last check: a descent ray d (Q d ~ 0, c'd < 0,
            # A d <= 0) means unbounded below, and a dual step dy >= 0 with
            # A'dy ~ 0 and b'dy < 0 means A x <= b is infeasible (Farkas)
            delta, dy = x - x_prev, np.maximum(y - y_prev, 0.0)
            x_prev, y_prev = x, y
            nd, ny = np.abs(delta).max(), dy.max(initial=0.0)
            d, e = delta / max(nd, 1e-12), dy / max(ny, 1e-12)
            ray = (nd > 1e-12 and np.abs(q.matvec(d)).max() <= _CERT_TOL and c @ d <= -_CERT_TOL
                   and a.matvec(d).max(initial=-np.inf) <= _CERT_TOL)
            farkas = ny > 1e-12 and np.abs(a.rmatvec(e)).max() <= _CERT_TOL and b @ e <= -_CERT_TOL
            cert_hits = np.where([ray, farkas], cert_hits + 1, 0)
            if cert_hits[0] >= 2:
                raise Unbounded("descent ray certificate found")
            if cert_hits[1] >= 2:
                raise InfeasibleOrUnbounded("primal infeasibility certificate found")
            # rebalance the penalty toward equal primal/dual progress
            if m and it % 100 == 0:
                prim = np.abs(a.matvec(x) - z).max() / b_scale
                dual = np.abs(q.matvec(x) + a.rmatvec(y) + c).max() / c_scale
                if prim > 1e-14 and dual > 1e-14:
                    new_rho = float(np.clip(rho * np.sqrt(prim / dual), _RHO_MIN, _RHO_MAX))
                    if new_rho > 5.0 * rho or new_rho < rho / 5.0:
                        rho = new_rho
                        lu = factor(rho)

    if cfg.polish:
        polish(x, y)
    if best_xy is not None and best_max <= 10.0 * cfg.tol:
        sol = as_solution(*best_xy)
        return sol, SolveStats(cfg.max_iter, best_polished, kkt_residuals(inst, sol, relative=True))
    best_sol = as_solution(*best_xy) if best_xy is not None else None
    raise Unconverged(
        f"no solution within {10.0 * cfg.tol:g} after {cfg.max_iter} iterations",
        best_sol,
        kkt_residuals(inst, best_sol, relative=True) if best_sol is not None else None,
    )


def solve_splitting(inst: LcqpInstance, cfg: SolverConfig = SolverConfig()) -> Solution:
    sol, _ = solve_splitting_detailed(inst, cfg)
    return sol


@dataclass(frozen=True)
class Candidate:
    active_set: tuple[int, ...]
    x: np.ndarray
    lam: np.ndarray
    objective: float


_ENUM_MAX_ROWS = 20
_ENUM_MAX_COLS = 10


def enumerate_candidates(inst: LcqpInstance, tol: float = 1e-9):
    """Yield every active set whose equality system has a consistent,
    feasible, dual-nonnegative solution."""
    if inst.m > _ENUM_MAX_ROWS or inst.n > _ENUM_MAX_COLS:
        raise InputError(
            f"enumeration limited to m <= {_ENUM_MAX_ROWS}, n <= {_ENUM_MAX_COLS}"
        )
    n, m = inst.n, inst.m
    q = inst.q.to_dense()
    a = inst.a.to_dense()
    b, c = inst.b, inst.c
    b_scale = 1.0 + (np.abs(b).max() if m else 0.0)
    for k in range(min(n, m) + 1):
        for subset in itertools.combinations(range(m), k):
            s = list(subset)
            kkt = np.zeros((n + k, n + k))
            kkt[:n, :n] = q
            if k:
                kkt[:n, n:] = a[s].T
                kkt[n:, :n] = a[s]
            rhs = np.concatenate([-c, b[s]])
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            if np.abs(kkt @ sol - rhs).max() > tol * (1.0 + np.abs(rhs).max()):
                continue
            x = sol[:n]
            lam_s = sol[n:]
            if k and lam_s.min() < -tol:
                continue
            if m and (a @ x - b).max() > tol * b_scale:
                continue
            lam = np.zeros(m)
            if k:
                lam[s] = np.maximum(lam_s, 0.0)
            yield Candidate(subset, x, lam, objective(inst, x))


def solve_enumeration(inst: LcqpInstance) -> Solution:
    """Exhaustive oracle; ties on the objective go to the lexicographically
    smallest active set."""
    best: Candidate | None = None
    for cand in enumerate_candidates(inst):
        if best is None:
            best = cand
            continue
        tie = 1e-9 * (1.0 + abs(best.objective))
        if cand.objective < best.objective - tie:
            best = cand
        elif abs(cand.objective - best.objective) <= tie and cand.active_set < best.active_set:
            best = cand
    if best is None:
        raise InfeasibleOrUnbounded("no active set yields an optimal point")
    return Solution.from_primal_dual(inst, best.x, best.lam)
