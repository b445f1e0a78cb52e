"""Reference solvers used to label and verify instances.

solve_splitting is an operator-splitting (ADMM) method whose linear step is
the reduced n x n system, factored by a dense Cholesky that is refactored
only when the penalty moves.  Its polish step re-solves the equality system
of the estimated active set, a boolean mask over the rows, and repairs the
set by the primal-dual active-set rule: every violated row enters and every
negative dual leaves in one round, with a conservative step of one dual at
a time where that rule would return to a set it has solved.  Every problem
kind solves that system on one path, the Schur complement of Q's factor
from _pd_factor: of Q itself when Q is clearly positive definite, else of
Q + d I, which for an LP is d I.  A row with a weak pivot in the factor of
the Schur system leaves the round's set, and the point of an accepted set
is refined against the unshifted KKT.  SolveStats counts the polish calls
and their rounds.  solve_enumeration checks every candidate active set and
is the ground-truth oracle at toy sizes.

Every dense factor, of the ADMM system, of Q and of each Schur system, is
made by one rule, _factor: shift, factor, and grow the shift a hundredfold
where the factor fails; its weak pivots are the one test of a dependent
row.  The Cholesky factors and their triangular solves (_chol, _tri), and
psd_certificate's pivoted elimination, are numpy's own: the solver imports
no scipy.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    _PSD_TOL,
    Definiteness,
    InputError,
    KktReport,
    LcqpInstance,
    Solution,
    SparseMatrix,
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
    """Iteration budget exhausted, or the step system would not factor;
    carries the best iterate seen."""

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
    """A solve's effort: ADMM iterations, whether polish gave the point, its
    KKT report, the polish calls made and their equality solves (rounds)."""
    iterations: int
    polished: bool
    report: KktReport
    polish_attempts: int = 0
    polish_rounds: int = 0


_SIGMA = 1e-6
_RELAX = 1.6
_CHECK_EVERY = 25
_ACTIVE_SLACK_TOL = 1e-5
_CERT_TOL = 1e-5
_POLISH_REG = 1e-9
_POLISH_ROUNDS = 20
_RHO_MIN = 1e-6
_RHO_MAX = 1e6
_GRAM_BLOCK = 64  # rows of A made dense at a time, and columns of a Cholesky strip


def _gram(a: SparseMatrix) -> np.ndarray:
    """A'A in the lower triangle of an n x n array, summed over blocks of
    _GRAM_BLOCK rows of A, each added one strip of _GRAM_BLOCK columns at a
    time, so the work space is one such block and one strip: no m x n array
    and no n x n temporary is formed."""
    n = a.n_cols
    gram = np.zeros((n, n))
    block = np.zeros((_GRAM_BLOCK, n))
    bounds = np.searchsorted(a.rows, np.arange(0, a.n_rows + _GRAM_BLOCK, _GRAM_BLOCK))
    for k, (s, e) in enumerate(zip(bounds[:-1], bounds[1:])):
        block[a.rows[s:e] - k * _GRAM_BLOCK, a.cols[s:e]] = a.vals[s:e]
        for j in range(0, n, _GRAM_BLOCK):
            gram[j:, j:j + _GRAM_BLOCK] += block[:, j:].T @ block[:, j:j + _GRAM_BLOCK]
        block.fill(0.0)
    return gram


def _chol(p: np.ndarray):
    """(p, inverses): P = L L' with L written over p's lower triangle, and
    the inverse of each diagonal block of L; None when P is not numerically
    positive definite, which a non-finite entry makes it too.

    Left-looking over strips of _GRAM_BLOCK columns: each strip takes the
    update from the columns left of it, its diagonal block is factored by
    np.linalg.cholesky and inverted, and the panel below is scaled by that
    inverse.  Only the lower triangle is read or written, and the work space
    is one strip.
    """
    n = p.shape[0]
    inverses = []
    for j in range(0, n, _GRAM_BLOCK):
        e = min(j + _GRAM_BLOCK, n)
        block, panel = p[j:e, j:e], p[e:, j:e]
        lower = np.tri(e - j, dtype=bool)
        if j:
            np.subtract(block, p[j:e, :j] @ p[j:e, :j].T, out=block, where=lower)
            panel -= p[e:, :j] @ p[j:e, :j].T
        try:
            low = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(low.diagonal()).all():
            return None  # potrf passes a NaN pivot, which any NaN entry leads to
        inv = _tri_inv(low)
        np.copyto(block, low, where=lower)
        panel[...] = panel @ inv.T
        inverses.append(inv)
    return p, inverses


def _tri_inv(low: np.ndarray) -> np.ndarray:
    """The inverse of a lower triangular block, from the inverses of its two
    halves: [[A, 0], [B, D]]^-1 = [[A^-1, 0], [-D^-1 B A^-1, D^-1]]."""
    k = low.shape[0]
    if k <= _GRAM_BLOCK // 2:
        return np.linalg.inv(low)
    h = k // 2
    head, tail = _tri_inv(low[:h, :h]), _tri_inv(low[h:, h:])
    inv = np.zeros((k, k))
    inv[:h, :h] = head
    inv[h:, h:] = tail
    inv[h:, :h] = -(tail @ low[h:, :h]) @ head
    return inv


def _tri(fac, rhs: np.ndarray, trans: bool = False) -> np.ndarray:
    """L^-1 rhs, or L^-T rhs with trans, for fac = (p, inverses) from _chol
    and a 1-D or 2-D rhs, by block substitution with the inverted diagonal
    blocks (Higham, Accuracy and Stability of Numerical Algorithms, 2002)."""
    low, inverses = fac
    out = np.empty(rhs.shape)
    starts = range(0, len(low), _GRAM_BLOCK)
    if not trans:
        for j, inv in zip(starts, inverses):
            e = j + len(inv)
            out[j:e] = inv @ (rhs[j:e] - low[j:e, :j] @ out[:j] if j else rhs[:e])
    else:
        for j, inv in zip(reversed(starts), reversed(inverses)):
            e = j + len(inv)
            out[j:e] = inv.T @ (rhs[j:e] - low[e:, j:e].T @ out[e:] if e < len(low) else rhs[j:])
    return out


def _factor(build, shift: float):
    """(fac, shift, weak): fac = _chol(M + shift I) for M = build(), the shift
    it took, and weak, the pivots with L_jj^2 <= _PSD_TOL (M_jj + shift),
    each a row the rows before it nearly span; None when no shift factors.

    The solver's one factorization rule, for P, Q and every Schur system.
    build makes M afresh for each try, as _chol works in place.  A shift of
    0 is tried once.  A positive shift grows a hundredfold while the factor
    fails, and the rule gives up once it reaches max(1, M's largest diagonal
    entry), the scale psd_certificate uses: by then a finite positive
    semidefinite M has factored.
    """
    while True:
        m = build()
        top = max(1.0, m.diagonal().max(initial=0.0))
        diag = m.diagonal() + shift
        np.fill_diagonal(m, diag)
        fac = _chol(m)
        if fac is not None:
            return fac, shift, fac[0].diagonal() ** 2 <= _PSD_TOL * diag
        if not 0.0 < shift < top < np.inf:
            return None
        shift *= 100.0


def _admm_factor(q: SparseMatrix, gram: np.ndarray, rho: float):
    """(_chol of P = Q + sigma I + rho A'A, sigma), with gram from _gram and
    sigma from _factor, starting at _SIGMA.

    P is positive definite for every kind because Q is PSD and sigma > 0,
    but once Q + rho A'A is about sigma / eps in size, sigma is lost to
    rounding and a singular Q + rho A'A needs a larger one.  _admm_step takes
    its sigma from the pair, so the step always matches P.  Unconverged if P
    will not factor, which only non-finite entries cause.
    """
    def build():
        p = rho * gram
        p[q.rows, q.cols] += q.vals
        return p

    if (got := _factor(build, _SIGMA)) is None:
        raise Unconverged(f"the step system will not factor at penalty {rho:g}", None, None)
    return got[:2]


def _admm_step(fac, a: SparseMatrix, rho: float, x: np.ndarray, c: np.ndarray, r2: np.ndarray):
    """The next x: the x-part of the quasi-definite [[Q + sigma I, A'],
    [A, -I/rho]] [x'; nu] = [sigma x - c; r2], through its reduced system
    P x' = sigma x - c + rho A' r2, with fac = (factor, sigma) from
    _admm_factor (Stellato et al., OSQP, Math. Prog. Comp. 2020, section
    3.1).  nu = rho (A x' - r2) is not formed: the iteration needs only A x'."""
    low, sigma = fac
    return _tri(low, _tri(low, sigma * x - c + rho * a.rmatvec(r2)), trans=True)


def _pd_factor(q: SparseMatrix):
    """_chol of Q when Q is clearly positive definite, else of Q + d I, both
    made by _factor.

    Q counts as positive definite when _factor gives it at shift 0 with no
    weak pivot, a test that scaling the variables leaves alone.  Otherwise
    psd_certificate decides, InputError when Q is indefinite, and d starts at
    _SIGMA max(1, max Q_jj): every Q the certificate accepts factors so.  An
    LP's Q, which is empty, needs no certificate and gives _chol(1e-6 I).
    The polish solves on this factor and refines against Q itself, so a
    label meets the unshifted KKT.
    """
    if q.vals.size:
        got = _factor(q.to_dense, 0.0)
        if got is not None and not got[2].any():
            return got[0]
        if psd_certificate(q) is Definiteness.INDEFINITE:
            raise InputError("quadratic term must be positive semidefinite")
    if (got := _factor(q.to_dense, _SIGMA * q.vals[q.rows == q.cols].max(initial=1.0))) is None:
        raise InputError("quadratic term must be positive semidefinite")
    return got[0]


def _schur_rounds(inst: LcqpInstance, fac):
    """Equality solves on the Schur complement of Q, or of Q + d I.

    fac = (L, inverses) from _pd_factor, with L L' = Q, or Q + d I where Q
    is not clearly positive definite, and the columns of V_S = L^-1 A_S'
    have the Gram matrix G_S = A_S (L L')^-1 A_S' (the range-space method,
    Nocedal & Wright, Numerical Optimization, 16.2).  The equality KKT
    [[L L', A_S'], [A_S, 0]] [dx; dlam] = [r1; r2] is solved by
    y = L^-1 r1, dlam = (G_S + d I)^-1 (V_S' y - r2) refined twice against
    G_S, and dx = L^-T (y - V_S dlam).  G_S + d I is made by _factor from
    d = _POLISH_REG, and solve gives None where it will not factor, which
    only non-finite entries bring about.  A row with a weak pivot in that
    factor is spanned by the rows before it: it leaves the set with
    lam = 0, and the rest are factored again.  Otherwise solve(active)
    gives (x, lam, refined): the point from r1 = -c, r2 = b_S, and
    refined(x, lam), which takes two more steps with the same factors on
    the residuals r1 = -c - Q x - A_S' lam and r2 = b_S - A_S x of the
    unshifted Q, refining the point against the full KKT as OSQP's polish
    does (Stellato et al., OSQP, Math. Prog. Comp. 2020), so no (n+k)^2
    system is formed.  The columns of V and their Gram entries are made
    once for each row that enters a set: the work space is O(n k + k^2) in
    the k rows that have entered.
    """
    n, m = inst.n, inst.m
    q, a, b, c = inst.q, inst.a, inst.b, inst.c
    slot = np.full(m, -1)  # row -> its column in basis and gram
    basis = np.empty((n, 0))
    gram = np.empty((0, 0))

    def solve(active):
        nonlocal basis, gram
        new = active[slot[active] < 0]
        if new.size:
            place = np.full(m, -1)
            place[new] = np.arange(new.size)
            keep = place[a.rows] >= 0
            v = np.zeros((n, new.size))
            v[a.cols[keep], place[a.rows[keep]]] = a.vals[keep]
            v = _tri(fac, v)
            cross = basis.T @ v
            gram = np.block([[gram, cross], [cross.T, v.T @ v]])
            slot[new] = basis.shape[1] + np.arange(new.size)
            basis = np.hstack([basis, v])
        keep = np.ones(active.size, dtype=bool)  # the rows no earlier row spans
        while True:
            pick = slot[active[keep]]
            g_s = gram[np.ix_(pick, pick)]
            if (got := _factor(g_s.copy, _POLISH_REG)) is None:
                return None
            g_fac, _, dependent = got
            if not dependent.any():
                break
            keep[np.flatnonzero(keep)[dependent]] = False
        along = np.zeros(basis.shape[1])

        def g_solve(rhs):
            return _tri(g_fac, _tri(g_fac, rhs), trans=True)

        def step(r1, r2):
            y = _tri(fac, r1)
            rhs = (basis.T @ y)[pick] - r2[keep]
            dlam = g_solve(rhs)
            for _ in range(2):
                dlam = dlam + g_solve(rhs - g_s @ dlam)
            along[pick] = dlam
            return _tri(fac, y - basis @ along, trans=True), along[slot[active]]

        def refined(x, lam):
            lam_rows = np.zeros(m)
            for _ in range(2):
                lam_rows[active] = lam
                dx, dlam = step(-c - q.matvec(x) - a.rmatvec(lam_rows), (b - a.matvec(x))[active])
                x, lam = x + dx, lam + dlam
            return x, lam

        return *step(-c, b[active]), refined

    return solve


def _polish(inst: LcqpInstance, x: np.ndarray, y: np.ndarray, chol, effort=None):
    """Re-solve the equality system on the estimated active set.

    The set is a boolean mask over the m rows, repaired by the primal-dual
    active-set rule (Hintermüller, Ito & Kunisch, SIAM J. Optim. 2002): the
    next set drops every row whose dual is below -lam_tol and takes in every
    row violated beyond 1e-9 b_scale, all in one round.  Where that set, or
    the current one, was solved before in this polish, the round takes the
    conservative step instead: add the violated rows if there are any, or
    else retire the one most negative dual.  chol is Q's factor from
    _pd_factor; every round solves the Schur complement on it, and the
    point of a set the rule accepts is then refined against the full KKT
    with the same factors and checked again: if it fails, the rounds go on
    from its repaired set.  None when a system will not factor, a point is
    not finite, or _POLISH_ROUNDS rounds accept no set.  effort, a list, is
    given the number of rounds made.
    """
    m = inst.m
    slack = inst.b - inst.a.matvec(x)
    near = slack <= _ACTIVE_SLACK_TOL * (1.0 + np.abs(inst.b))
    pushed = y > 1e-10 * (1.0 + np.abs(y).max() if m else 1.0)
    mask = near | pushed
    b_scale = 1.0 + (np.abs(inst.b).max() if m else 0.0)
    lam_tol = 1e-9 * (1.0 + (np.abs(y).max() if m else 0.0))
    solve = _schur_rounds(inst, chol)
    seen = set()  # the masks solved so far, as bytes

    def repaired(xp, lam_act, revisit):
        """The next round's mask, or None when (xp, lam_act) passes."""
        violated = ~mask & (inst.a.matvec(xp) - inst.b > 1e-9 * b_scale)
        negative = lam_act < -lam_tol
        if not (violated.any() or negative.any()):
            return None
        nxt = mask | violated
        nxt[active[negative]] = False
        if revisit or nxt.tobytes() in seen:
            nxt = mask | violated
            if not violated.any():
                nxt[active[np.argmin(lam_act)]] = False
        return nxt

    pol = None
    for rounds in range(1, _POLISH_ROUNDS + 1):
        active = np.flatnonzero(mask)
        revisit = mask.tobytes() in seen
        seen.add(mask.tobytes())
        sol = solve(active)
        if sol is None:
            break
        xp, lam_act, refined = sol
        nxt = repaired(xp, lam_act, revisit)
        if nxt is None:
            xp, lam_act = refined(xp, lam_act)
            nxt = repaired(xp, lam_act, revisit)
        if not (np.all(np.isfinite(xp)) and np.all(np.isfinite(lam_act))):
            break
        if nxt is None:
            lam = np.zeros(m)
            lam[active] = np.maximum(lam_act, 0.0)
            pol = Solution.from_primal_dual(inst, xp, lam)
            break
        mask = nxt
    if effort is not None:
        effort.append(rounds)
    return pol


def solve_splitting_detailed(
    inst: LcqpInstance, cfg: SolverConfig = SolverConfig()
) -> tuple[Solution, SolveStats]:
    """Solve and also report iteration count and whether polish produced the
    returned point."""
    # NaN fails these comparisons too
    if not (0.0 < cfg.tol < np.inf and 0.0 < cfg.penalty < np.inf):
        raise InputError("tol and penalty must be positive and finite")
    # a bool is an int, and NaN or 2.5 would run a fractional budget
    max_iter = cfg.max_iter
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise InputError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    chol = _pd_factor(inst.q)
    n, m = inst.n, inst.m
    q, a, b, c = inst.q, inst.a, inst.b, inst.c
    rho = cfg.penalty
    gram = _gram(a)
    fac = _admm_factor(q, gram, rho)
    x = x_prev = np.zeros(n)
    y = y_prev = np.zeros(m)
    z = np.zeros(m)
    cert_hits = np.zeros(2, dtype=int)  # checks in a row each certificate held
    best_xy: tuple[np.ndarray, np.ndarray] | None = None
    best_polished = False  # whether polish, not an iterate, gave best_xy
    best_max = np.inf
    last_polish_at = np.inf
    effort: list[int] = []  # each polish's rounds
    c_scale = 1.0 + (np.abs(c).max() if n else 0.0)
    b_scale = 1.0 + (np.abs(b).max() if m else 0.0)

    def as_solution(xv, yv) -> Solution:
        return Solution.from_primal_dual(inst, xv, np.maximum(yv, 0.0))

    def stats(iterations, polished, report) -> SolveStats:
        return SolveStats(iterations, polished, report, len(effort), sum(effort))

    def polish(xv, yv):
        """Polish (xv, yv), score it, and keep it as the best point if it
        beats it; the polished point and its report, or (None, None)."""
        nonlocal best_max, best_xy, best_polished
        pol = _polish(inst, xv, yv, chol, effort)
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
        xt = _admm_step(fac, a, rho, x, c, z - y / rho)
        zt = a.matvec(xt)
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
                return sol, stats(it, False, kkt_residuals(inst, sol, relative=True))
            want_polish = cur_max < 0.31 * last_polish_at or it % 2500 == 0
            if cfg.polish and want_polish:
                last_polish_at = min(last_polish_at, cur_max)
                pol, prep = polish(x, y)
                if pol is not None and prep.max_residual <= cfg.tol:
                    return pol, stats(it, True, prep)
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
                        fac = _admm_factor(q, gram, rho)

    if cfg.polish:
        polish(x, y)
    if best_xy is not None and best_max <= 10.0 * cfg.tol:
        sol = as_solution(*best_xy)
        return sol, stats(cfg.max_iter, best_polished, kkt_residuals(inst, sol, relative=True))
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
