"""Splitting solver vs the exhaustive enumeration oracle."""
import gc
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st

from qpaug import (
    AugmentPolicy,
    Definiteness,
    InfeasibleOrUnbounded,
    InputError,
    ProblemKind,
    SolverConfig,
    SparseMatrix,
    Unbounded,
    add_constraints,
    add_variable_constrained,
    apply_policy,
    gen_portfolio,
    kkt_residuals,
    objective,
    psd_certificate,
    scale_variables,
    solve_enumeration,
    solve_splitting,
    solve_splitting_detailed,
)
from qpaug import solver
from qpaug.generators import _label, gen_lp, gen_qp
from qpaug.solver import Unconverged, enumerate_candidates
from qpaug.transforms import COMBO_STRENGTHS

from conftest import generated_parity_matrices, make_instance, parity_matrices, stress_copy


def random_feasible_qp(seed, n_max=4, m_max=6):
    """Small PD QP with a constructed interior point, so it is feasible and
    bounded by construction."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    g = rng.standard_normal((n, n))
    q = g @ g.T + 0.5 * np.eye(n)
    q = (q + q.T) / 2
    a = rng.standard_normal((m, n))
    xhat = rng.standard_normal(n)
    b = a @ xhat + np.abs(rng.standard_normal(m))
    c = rng.standard_normal(n)
    return make_instance(q, a, b, c, name=f"rand{seed}")


# ------------------------------------------------------------------ oracles E1

def test_enumeration_e1(e1):
    sol = solve_enumeration(e1)
    assert np.allclose(sol.x, [0.5, 0.5], atol=1e-9)
    assert np.allclose(sol.lam, [1.0, 0.0, 0.0], atol=1e-9)
    assert sol.objective == pytest.approx(-1.5, abs=1e-12)


def test_splitting_e1(e1):
    sol = solve_splitting(e1)
    assert np.allclose(sol.x, [0.5, 0.5], atol=1e-6)
    assert np.allclose(sol.lam, [1.0, 0.0, 0.0], atol=1e-6)
    assert kkt_residuals(e1, sol, relative=True).max_residual <= 1e-7


def test_splitting_e2(e2):
    sol = solve_splitting(e2)
    assert np.allclose(sol.x, [1.0, 0.0], atol=1e-6)
    assert np.allclose(sol.lam, [0.0, 1.0], atol=1e-6)


def test_enumeration_e2(e2):
    sol = solve_enumeration(e2)
    assert np.allclose(sol.x, [1.0, 0.0], atol=1e-9)
    assert np.allclose(sol.lam, [0.0, 1.0], atol=1e-9)
    assert sol.objective == pytest.approx(-0.5, abs=1e-12)


def test_one_var_active_bound():
    # stationarity x + lam - 1 = 0 at the bound x = 0.3 gives lam = 0.7
    inst = make_instance([[1.0]], [[1.0]], [0.3], [-1.0])
    for sol in (solve_splitting(inst), solve_enumeration(inst)):
        assert sol.x[0] == pytest.approx(0.3, abs=1e-6)
        assert sol.lam[0] == pytest.approx(0.7, abs=1e-6)


def test_unconstrained_optimum_inside():
    inst = make_instance(np.eye(2), [[1.0, 0.0]], [5.0], [0.0, 0.0])
    sol = solve_splitting(inst)
    assert np.allclose(sol.x, [0.0, 0.0], atol=1e-6)
    assert sol.lam[0] == pytest.approx(0.0, abs=1e-8)


def test_lp_tie_break_smallest_active_set():
    # every point on x1 + x2 = 1 is optimal; the bare-sum active set {0}
    # sorts before {0,1} and {0,2}, so its least-squares point wins
    inst = make_instance(
        np.zeros((2, 2)),
        [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        [1.0, 0.0, 0.0],
        [-1.0, -1.0],
        kind=ProblemKind.LP,
    )
    sol = solve_enumeration(inst)
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)
    assert np.allclose(sol.x, [0.5, 0.5], atol=1e-9)
    assert np.allclose(sol.lam, [1.0, 0.0, 0.0], atol=1e-9)


def test_lp_splitting_matches_optimal_value():
    inst = make_instance(
        np.zeros((2, 2)),
        [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        [1.0, 0.0, 0.0],
        [-1.0, -1.0],
        kind=ProblemKind.LP,
    )
    sol = solve_splitting(inst)
    assert sol.objective == pytest.approx(-1.0, abs=1e-6)
    assert kkt_residuals(inst, sol, relative=True).max_residual <= 1e-7


# ---------------------------------------------------------------- error paths

def test_unbounded_lp_detected():
    # min -x subject to -x <= 0 walks off to +inf
    inst = make_instance(np.zeros((1, 1)), [[-1.0]], [0.0], [-1.0], kind=ProblemKind.LP)
    with pytest.raises(Unbounded):
        solve_splitting(inst)
    with pytest.raises(InfeasibleOrUnbounded):
        solve_enumeration(inst)


def test_unbounded_two_var_lp():
    inst = make_instance(
        np.zeros((2, 2)), [[1.0, 0.0]], [1.0], [-1.0, -1.0], kind=ProblemKind.LP
    )
    with pytest.raises(Unbounded):
        solve_splitting(inst)


@pytest.mark.parametrize(
    "inst",
    [
        # x <= -1 and -x <= -1 (x >= 1)
        make_instance([[1.0]], [[1.0], [-1.0]], [-1.0, -1.0], [0.0]),
        # x1 + x2 <= -1 with x >= 0
        make_instance(
            np.zeros((2, 2)),
            [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            [-1.0, 0.0, 0.0],
            [1.0, 1.0],
            kind=ProblemKind.LP,
        ),
    ],
    ids=["qp-1var", "lp-2var"],
)
def test_infeasible_input_raises_within_budget(inst):
    """The primal infeasibility certificate ends the solve well inside 1,000
    iterations; without it the solver ran out its budget (Unconverged)."""
    with pytest.raises(InfeasibleOrUnbounded):
        solve_splitting(inst, SolverConfig(max_iter=1000))
    with pytest.raises(InfeasibleOrUnbounded):
        solve_enumeration(inst)


def test_indefinite_q_rejected():
    inst = make_instance([[0.0, 1.0], [1.0, 0.0]], [[1.0, 1.0]], [1.0], [0.0, 0.0])
    with pytest.raises(InputError):
        solve_splitting(inst)


def test_enumeration_guard():
    rng = np.random.default_rng(0)
    n = 11
    inst = make_instance(np.eye(n), rng.standard_normal((2, n)), [10.0, 10.0], np.zeros(n))
    with pytest.raises(InputError):
        solve_enumeration(inst)


def test_bad_config_rejected(e1):
    """NaN and infinite tol or penalty are refused up front; NaN passed the
    old `<= 0` checks, and then ran out the budget (tol) or reached scipy's
    singular-factor error (penalty)."""
    with pytest.raises(InputError):
        solve_splitting(e1, SolverConfig(tol=0.0))
    with pytest.raises(InputError):
        solve_splitting(e1, SolverConfig(max_iter=0))
    inst = gen_qp(6, 4, 0.8, 0.9, seed=1)
    for bad in (np.nan, np.inf):
        for cfg in (SolverConfig(tol=bad), SolverConfig(penalty=bad)):
            with pytest.raises(InputError):
                solve_splitting(inst, cfg)


@pytest.mark.parametrize("bad", [np.nan, 2.5, True, 0, -3, np.int64(0), "5"],
                         ids=["nan", "fraction", "bool", "zero", "negative", "np-zero", "str"])
def test_max_iter_must_be_an_integer_of_at_least_one(e1, bad):
    """max_iter is refused by name unless it is an integer >= 1: NaN ran no
    iteration and returned ok with NaN iterations, 2.5 reported 2.5
    iterations, and True counted as 1.  A numpy integer is accepted."""
    with pytest.raises(InputError, match="max_iter"):
        solve_splitting(e1, SolverConfig(max_iter=bad))
    _, stats = solve_splitting_detailed(e1, SolverConfig(max_iter=np.int64(1000)))
    assert stats.report.max_residual <= 1e-8


def test_unconverged_carries_best_iterate(e1):
    with pytest.raises(Unconverged) as exc:
        solve_splitting(e1, SolverConfig(tol=1e-14, max_iter=2, polish=False))
    assert exc.value.best is not None
    assert exc.value.report is not None


def test_max_iter_fallback_reports_where_its_point_came_from():
    """At the iteration cap the solver returns its best point when that is
    within 10 * tol; `polished` says whether polish gave it.  With polish
    off, it is an ADMM iterate (an earlier version reported True here); with
    a tol just below what polish reaches, it is the polished point."""
    inst = gen_qp(30, 30, 0.2, 0.2, seed=0)
    # unpolished, this QP meets tol at iteration 100, so a cap of 75 binds
    cfg = SolverConfig(max_iter=75, polish=False, tol=1e-9)
    _, stats = solve_splitting_detailed(inst, cfg)
    assert stats.iterations == cfg.max_iter
    assert cfg.tol < stats.report.max_residual <= 10.0 * cfg.tol
    assert stats.polished is False
    reached = solve_splitting_detailed(inst)[1].report.max_residual
    cfg = SolverConfig(max_iter=400, tol=reached / 2)
    _, stats = solve_splitting_detailed(inst, cfg)
    assert stats.iterations == cfg.max_iter
    assert stats.report.max_residual == reached
    assert stats.polished is True


# ------------------------------------------------------------------ agreement

@given(st.integers(0, 60))
def test_oracle_agreement_random_qp(seed):
    inst = random_feasible_qp(seed)
    enum = solve_enumeration(inst)
    split = solve_splitting(inst)
    tie = 1e-6 * (1.0 + abs(enum.objective))
    assert abs(split.objective - enum.objective) <= tie
    # PD quadratic: the minimizer is unique, so primal vectors agree too
    assert np.abs(split.x - enum.x).max() <= 1e-5


@given(st.integers(0, 40))
def test_splitting_residuals_within_contract(seed):
    inst = random_feasible_qp(seed)
    cfg = SolverConfig(tol=1e-8)
    sol, stats = solve_splitting_detailed(inst, cfg)
    rep = kkt_residuals(inst, sol, relative=True)
    assert rep.max_residual <= 10.0 * cfg.tol
    assert rep.primal_violation <= 10.0 * cfg.tol
    assert stats.iterations >= 1


@pytest.mark.parametrize(
    "a, b",
    [(np.zeros((0, 2)), []), ([[1.0, 1.0], [0.0, 0.0], [-1.0, 0.0]], [1.0, 2.0, 0.0])],
    ids=["no-rows", "all-zero-row"],
)
def test_oracle_agreement_edge_shapes(a, b):
    """No constraint rows (x = -Q^-1 c), and an all-zero row of A beside an
    active row: the KKT assembly must handle both."""
    q, c = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([-3.0, -1.0])
    inst = make_instance(q, a, b, c)
    enum = solve_enumeration(inst)
    split = solve_splitting(inst)
    assert abs(split.objective - enum.objective) <= 1e-6 * (1.0 + abs(enum.objective))
    assert np.abs(split.x - enum.x).max() <= 1e-5
    assert np.abs(split.lam - enum.lam).max(initial=0.0) <= 1e-5
    if not inst.m:
        assert np.abs(split.x - np.linalg.solve(q, -c)).max() <= 1e-6
    else:
        assert split.lam[0] > 0.1  # the constraint x1 + x2 <= 1 is active


def test_determinism_bitwise(e1):
    a1 = solve_splitting(e1)
    a2 = solve_splitting(e1)
    assert np.array_equal(a1.x, a2.x)
    assert np.array_equal(a1.lam, a2.lam)


def test_enumerate_candidates_yields_feasible_only(e1):
    for cand in enumerate_candidates(e1):
        assert (e1.a.to_dense() @ cand.x - e1.b).max() <= 1e-8
        assert cand.lam.min() >= -1e-12


def test_degenerate_duplicate_rows():
    # duplicated active row: the equality system is rank-deficient but the
    # least-squares path still produces a valid certificate
    inst = make_instance(
        [[1.0]], [[1.0], [1.0]], [0.5, 0.5], [-1.0]
    )
    enum = solve_enumeration(inst)
    split = solve_splitting(inst)
    assert enum.x[0] == pytest.approx(0.5, abs=1e-9)
    assert split.x[0] == pytest.approx(0.5, abs=1e-6)
    assert kkt_residuals(inst, split, relative=True).max_residual <= 1e-7


def test_equality_encoded_as_pair():
    # x1 + x2 = 1 written as two opposing inequalities
    inst = make_instance(
        np.eye(2),
        [[1.0, 1.0], [-1.0, -1.0]],
        [1.0, -1.0],
        [0.0, 0.0],
    )
    sol = solve_splitting(inst)
    assert sol.x.sum() == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(sol.x, [0.5, 0.5], atol=1e-5)


# ------------------------------------------------- polish on the Schur complement


def redundant_qp(seed, m, n, density):
    """gen_qp plus three add_constraints rows, each a positive combination of
    up to two rows active at the optimum, so the polish's active sets hold
    linearly dependent rows; the optimum found on the base QP comes along."""
    base = gen_qp(m, n, density, density, seed=seed)
    sol = solve_enumeration(base) if n <= 10 else solve_splitting(base)
    active = np.flatnonzero(sol.lam > 1e-9)
    assert active.size
    rng = np.random.default_rng(seed)
    weights = np.zeros((3, m))
    for row in weights:
        pick = rng.choice(active, size=min(2, active.size), replace=False)
        row[pick] = rng.random(pick.size) + 0.1
    inst, _ = add_constraints(base, weights)
    return inst, sol.x, np.concatenate([sol.lam, np.zeros(3)])


def own_factor(q):
    """_pd_factor of a positive definite Q, checked to be the factor of Q
    itself: L L' reproduces Q, with no shift."""
    chol = solver._pd_factor(q)
    low = np.tril(chol[0])
    dense = q.to_dense()
    assert np.abs(low @ low.T - dense).max() <= 1e-12 * np.abs(dense).max()
    return chol


def dense_kkt_x(inst, active):
    """x of the equality KKT [[Q, A_S'], [A_S, 0]] [x; lam_S] = [-c; b_S] of the
    set, written densely and solved by least squares with two refinement
    steps.  For a positive definite Q this x is unique, even where the rows
    of A_S are dependent and lam_S is not."""
    n, k = inst.n, active.size
    a_s = inst.a.to_dense()[active]
    kkt = np.block([[inst.q.to_dense(), a_s.T], [a_s, np.zeros((k, k))]])
    rhs = np.concatenate([-inst.c, inst.b[active]])
    w = np.zeros(n + k)
    for _ in range(3):
        w = w + np.linalg.lstsq(kkt, rhs - kkt @ w, rcond=None)[0]
    return w[:n]


def record_sets(monkeypatch):
    """The sets the polish's rounds solve from here on, in order: the last of
    a polish that gives a point is the set it accepted."""
    sets = []
    rounds = solver._schur_rounds

    def recording(*args):
        solve = rounds(*args)

        def solve_recorded(active):
            sets.append(active)
            return solve(active)
        return solve_recorded

    monkeypatch.setattr(solver, "_schur_rounds", recording)
    return sets


def assert_matches_dense_kkt(inst, pol, accepted):
    """The polished point against the dense KKT solve of the set it accepted:
    x is unique for a positive definite Q, so it matches to 1e-13 relative,
    and so does the objective.  lam is not compared: on the rank-deficient
    sets the added rows make, the optimal dual is not unique, and the KKT
    residual covers it."""
    x_ref = dense_kkt_x(inst, accepted)
    assert np.abs(pol.x - x_ref).max() <= 1e-13 * np.abs(x_ref).max()
    assert kkt_residuals(inst, pol, relative=True).max_residual <= 1e-12
    assert pol.objective == pytest.approx(objective(inst, x_ref), rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("m, n", [(6, 4), (9, 6)])
def test_schur_polish_matches_full_kkt_at_toy_size(seed, m, n, monkeypatch):
    """From a cold start (many rounds) and from the base optimum, the Schur
    rounds, refined against the full KKT, land on the x and objective of a
    dense solve of the full KKT of the set they accept, and agree with the
    enumeration oracle."""
    inst, x_opt, y_opt = redundant_qp(seed, m, n, 0.6)
    assert psd_certificate(inst.q) is Definiteness.PD
    chol = own_factor(inst.q)
    oracle = solve_enumeration(inst)
    sets = record_sets(monkeypatch)
    for x, y in ((np.zeros(inst.n), np.zeros(inst.m)), (x_opt, y_opt)):
        pol = solver._polish(inst, x, y, chol)
        assert_matches_dense_kkt(inst, pol, sets[-1])
        np.testing.assert_allclose(pol.x, oracle.x, rtol=0, atol=1e-9)
        assert objective(inst, pol.x) == pytest.approx(objective(inst, oracle.x), abs=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_schur_polish_one_dense_lu_at_size(seed, monkeypatch):
    """At 63 x 40 a cold start takes the rounds several rounds, within the
    cap, to a set whose point matches one dense solve of that set's full KKT,
    and the solve from the same instance labels it with that objective."""
    inst, _, _ = redundant_qp(seed, 60, 40, 0.15)
    sets, effort = record_sets(monkeypatch), []
    pol = solver._polish(inst, np.zeros(inst.n), np.zeros(inst.m), own_factor(inst.q), effort)
    assert 1 < effort[0] <= solver._POLISH_ROUNDS
    assert_matches_dense_kkt(inst, pol, sets[-1])
    assert pol.objective == pytest.approx(solve_splitting(inst).objective, rel=1e-12)


def test_schur_polish_memory_is_order_n_k():
    """From the optimum of a 300 x 300 PD QP, 119 rows active, the polish
    holds the Schur columns and their Gram, O(n k + k^2), below three n x n
    arrays; the dense (n+k)^2 KKT with its shifted copy and LU took 6.2."""
    inst = gen_qp(300, 300, 0.05, 0.05, seed=0)
    sol = solve_splitting(inst)
    assert np.count_nonzero(sol.lam > 1e-9) == 119
    chol = solver._pd_factor(inst.q)
    pol, peak = traced_peak(lambda: solver._polish(inst, sol.x, sol.lam, chol))
    assert kkt_residuals(inst, pol, relative=True).max_residual <= 1e-12
    assert peak < 3 * 8 * inst.n ** 2


def test_schur_polish_empty_active_set():
    """Where the unconstrained minimizer is strictly feasible, no row is
    active and the polish returns x = -Q^-1 c from Q's factor, lam = 0."""
    base = gen_qp(20, 12, 0.3, 0.3, seed=1)
    q = base.q.to_dense()
    x_free = np.linalg.solve(q, -base.c)
    inst = make_instance(q, base.a.to_dense(), base.a.matvec(x_free) + 1.0, base.c)
    pol = solver._polish(inst, x_free, np.zeros(inst.m), own_factor(inst.q))
    assert np.abs(pol.x - x_free).max() <= 1e-12 * np.abs(x_free).max()
    assert np.array_equal(pol.lam, np.zeros(inst.m))


@pytest.mark.parametrize("refuse", ["factor", "refined"])
def test_schur_polish_recovers_on_the_schur_path(refuse, monkeypatch):
    """When the k x k Schur system will not factor at the first shift, the
    shift grows a hundredfold and the system factors; when the refined point
    of an accepted set fails the repair rules, the rounds go on from its
    repaired set.  Either way the polish lands on the x of a dense solve of
    the full KKT of the set it accepts."""
    inst, x, y = redundant_qp(0, 9, 6, 0.6)
    chol = own_factor(inst.q)
    refused, asked = [], []
    if refuse == "factor":
        # Q's factor is made above, so every factorization _polish asks for
        # is that of a shifted k x k Schur system; the first of each set is
        # refused, the second accepted
        real_chol = solver._chol

        def first_shift_refused(g):
            asked.append(g.copy())
            if len(asked) % 2:
                refused.append(g.shape[0])
                return None
            return real_chol(g)

        monkeypatch.setattr(solver, "_chol", first_shift_refused)
    else:
        rounds = solver._schur_rounds

        def first_refined_point_refused(*args):
            solve = rounds(*args)

            def refusing(active):
                sol = solve(active)
                if sol is None or refused:
                    return sol

                def refined(xp, lam):
                    xp, lam = sol[2](xp, lam)
                    refused.append(active.size)
                    return xp, np.where(lam == lam.max(), -1.0, lam)
                return sol[0], sol[1], refined
            return refusing

        monkeypatch.setattr(solver, "_schur_rounds", first_refined_point_refused)
    sets = record_sets(monkeypatch)
    schur = solver._polish(inst, x, y, chol)
    assert refused and refused[0] > 0
    for first, second in zip(asked[::2], asked[1::2]):
        grown = second - first - 99 * solver._POLISH_REG * np.eye(len(first))
        assert np.abs(grown).max() <= 4 * np.finfo(float).eps * np.abs(first).max()
    assert_matches_dense_kkt(inst, schur, sets[-1])


def test_schur_polish_gives_up_on_a_non_finite_refined_point(monkeypatch):
    """A refined point that is not finite ends the polish with None, and the
    iteration goes on."""
    inst, x, y = redundant_qp(0, 9, 6, 0.6)
    chol = solver._pd_factor(inst.q)
    rounds = solver._schur_rounds
    refined_points = []

    def non_finite(*args):
        solve = rounds(*args)

        def solve_nan(active):
            sol = solve(active)
            refined_points.append(active.size)
            return sol[0], sol[1], lambda xp, lam: (xp * np.nan, lam)
        return solve_nan

    monkeypatch.setattr(solver, "_schur_rounds", non_finite)
    assert solver._polish(inst, x, y, chol) is None
    assert refined_points


@pytest.mark.parametrize("seed", range(2))
def test_scaled_dependent_rows_solve_without_a_dense_lu(seed):
    """A stress copy: five dependent combination rows, every row scaled by
    1e5 and every variable by 1e-5.  The Schur rounds stay on Q's own
    factor, and the copy solves, polished, to the base label's objective.
    The polish once fell back to the dense full KKT here, made hundreds of
    LUs per solve and ended Unconverged."""
    _, label, inst = stress_copy(seed, 1e5, scale_vars=True)
    own_factor(inst.q)
    sol, stats = solve_splitting_detailed(inst)
    assert stats.polished
    assert kkt_residuals(inst, sol, relative=True).max_residual <= 1e-12
    assert sol.objective == pytest.approx(label.objective, rel=1e-9)


def test_stress_copy_is_polished_at_its_first_polish():
    """The stress copy at seed 1, rows scaled by 1e5 and variables not: the
    primal-dual active-set rule swaps every wrong row of the ADMM's guess in
    one round, so the first polish, at iteration 25, lands within 20 rounds.
    Retiring one negative dual per round ran all 60 rounds of an earlier
    cap there, gave None, and the solve took 300 iterations."""
    _, label, inst = stress_copy(1, 1e5, scale_vars=False)
    sol, stats = solve_splitting_detailed(inst)
    assert stats.polished and stats.iterations == 25
    assert stats.polish_attempts == 1 and 1 <= stats.polish_rounds <= 20
    assert kkt_residuals(inst, sol, relative=True).max_residual <= 1e-12
    assert sol.objective == pytest.approx(label.objective, rel=1e-9)


def test_solve_stats_count_the_polish_effort():
    """polish_attempts counts the polish calls of one solve and
    polish_rounds their equality solves, at least one per call; both are 0
    when polish is off."""
    inst = pd_qp()
    _, stats = solve_splitting_detailed(inst)
    assert stats.polished and 1 <= stats.polish_attempts <= stats.polish_rounds
    _, stats = solve_splitting_detailed(inst, SolverConfig(polish=False))
    assert (stats.polished, stats.polish_attempts, stats.polish_rounds) == (False, 0, 0)


def test_polish_takes_the_conservative_step_at_a_revisited_set(monkeypatch):
    """min 0.5|x|^2 - t'x over x <= 1, t = (3, 2.5, 2): every row is active
    at the optimum, with duals t - 1, and a row left out of the set is
    violated with no other row moved.  The Schur solve is made to report
    the two largest duals of the full set {0, 1, 2} as negative until the
    set {1, 2} has been solved.  The primal-dual step from {0, 1, 2} is
    then {2}, whose violated rows lead back to {0, 1, 2}: alone, that rule
    would swing between the two sets for all its rounds.  At the revisit the
    polish retires the one most negative dual instead, solves {1, 2}, and
    accepts {0, 1, 2} with the point x = 1, lam = t - 1."""
    t = np.array([3.0, 2.5, 2.0])
    inst = make_instance(np.eye(3), np.eye(3), np.ones(3), -t)
    x, y = np.ones(3), t - 1.0
    chol = own_factor(inst.q)
    rounds, path = solver._schur_rounds, []

    def swinging(*args):
        solve = rounds(*args)

        def reported(active):
            path.append(active.tolist())
            xp, lam, refined = solve(active)
            if path[-1] == [0, 1, 2] and [1, 2] not in path:
                lam = np.array([-2.0, -1.0, lam[2]])
            return xp, lam, refined
        return reported

    monkeypatch.setattr(solver, "_schur_rounds", swinging)
    schur = solver._polish(inst, x, y, chol)
    assert path == [[0, 1, 2], [2], [0, 1, 2], [1, 2], [0, 1, 2]]
    assert_matches_dense_kkt(inst, schur, np.arange(3))
    np.testing.assert_allclose(schur.x, np.ones(3), rtol=1e-14)
    np.testing.assert_allclose(schur.lam, t - 1.0, rtol=1e-14)


def test_positive_definite_solves_never_reach_the_full_kkt():
    """Every positive definite QP in a small mixed corpus, from generated QPs
    and their combo copies to portfolios and stress copies with scaled
    dependent rows, is polished on the Schur complement of Q's own factor,
    not of a shifted Q."""
    corpus = []
    for seed in range(3):
        base = gen_qp(40, 30, 0.2, 0.2, seed=seed)
        corpus += [base, gen_portfolio(20, 0.3, seed)]
        corpus += [apply_policy(base, AugmentPolicy(COMBO_STRENGTHS, seed=copy))[0]
                   for copy in range(2)]
        corpus += [stress_copy(seed, d, scale_vars)[2]
                   for d, scale_vars in ((1e4, False), (1e5, False), (1e5, True))]
    for inst in corpus:
        own_factor(inst.q)
        sol, stats = solve_splitting_detailed(inst)
        assert stats.polished
        assert kkt_residuals(inst, sol, relative=True).max_residual <= 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_pd_factor_is_q_own_under_strong_variable_scaling(seed):
    """Q = D Q0 D with D_jj = e^8 or e^-8 is positive definite with Q0, and
    its unpivoted pivots clear their own diagonals, L_jj^2 > 1e-10 Q_jj, at
    any D; against 1e-10 max |Q_jj| they did not, and such a Q was factored
    shifted, or polished on the dense full KKT."""
    base = gen_qp(60, 40, 0.1, 0.1, seed=seed)
    assert psd_certificate(base.q) is Definiteness.PD
    alpha = np.exp(8.0 * np.random.default_rng(seed).choice([-1.0, 1.0], base.n))
    own_factor(scale_variables(base, alpha)[0].q)


def psd_qp(lp=None):
    """An LP, bounded_lp() by default, with one appended variable of Q
    diagonal 1: Q is PSD."""
    lp = bounded_lp() if lp is None else lp
    return add_variable_constrained(lp, 1.0, -np.ones(lp.m), -1.0)[0]


def test_pd_factor_shifts_a_semidefinite_or_empty_q():
    """Where Q is not clearly positive definite, the factor is that of
    Q + d I, d = 1e-6 max(1, max |Q_jj|): an LP's empty Q gives 1e-6 I, with
    no psd_certificate call, and a PSD Q its own shift.  An indefinite Q is
    refused."""
    lp = gen_lp(6, 4, 0.5, seed=0, bounded=True)
    low = np.tril(solver._pd_factor(lp.q)[0])
    np.testing.assert_allclose(low @ low.T, 1e-6 * np.eye(lp.n), rtol=1e-15)
    psd = psd_qp(lp)
    assert psd_certificate(psd.q) is Definiteness.PSD
    low = np.tril(solver._pd_factor(psd.q)[0])
    want = psd.q.to_dense() + 1e-6 * max(1.0, np.abs(psd.q.vals).max()) * np.eye(psd.n)
    assert np.abs(low @ low.T - want).max() <= 1e-15 * np.abs(want).max()
    with pytest.raises(InputError, match="semidefinite"):
        solver._pd_factor(SparseMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]])))


def stalled_pairs():
    """600 seeded Q of size 2 to 8: a Gram matrix scaled by e^-6 to e^6, two
    of whose variables are emptied but for an off-diagonal e drawn from
    (1e-6, 1e-5) max(1, max q_jj).  Q + 1e-6 max(1, max q_jj) I is then
    indefinite, while e is within psd_certificate's stalled off-diagonal
    limit, sqrt(tol scale) = 1e-5 max(1, max |q_jj|)."""
    out = {}
    for seed in range(600):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        g = rng.standard_normal((n, n)) * np.exp(rng.uniform(-3.0, 3.0))
        h = g @ g.T
        h = (h + h.T) / 2
        pair = rng.choice(n, 2, replace=False)
        h[pair] = 0.0
        h[:, pair] = 0.0
        h[pair[0], pair[1]] = h[pair[1], pair[0]] = (
            rng.uniform(1e-6, 1e-5) * max(1.0, np.diag(h).max()))
        out[f"stalled_{seed}"] = SparseMatrix.from_dense(h)
    return out


@pytest.mark.parametrize("family", ["parity", "generated", "stalled"])
def test_pd_factor_refuses_exactly_what_the_certificate_calls_indefinite(family):
    """On the certificate's parity matrices, the generators' Q and the
    stalled pairs, _pd_factor raises InputError exactly where psd_certificate
    reads INDEFINITE: every Q it calls PD or PSD is factored, at shift 0 or
    at a grown shift.  With one fixed shift of 1e-6 max(1, max q_jj) the
    solver refused every stalled pair."""
    qs = {"parity": lambda: {name: SparseMatrix.from_dense((d + d.T) / 2)
                             for name, d in parity_matrices().items()},
          "generated": generated_parity_matrices, "stalled": stalled_pairs}[family]()
    for name, q in qs.items():
        verdict = psd_certificate(q)
        assert family != "stalled" or verdict is Definiteness.PSD, name
        try:
            solver._pd_factor(q)
        except InputError:
            assert verdict is Definiteness.INDEFINITE, name
        else:
            assert verdict is not Definiteness.INDEFINITE, name


def test_stalled_pair_q_labels_on_the_oracle():
    """Q = [[1, 0, 0], [0, 0, e], [0, e, 0]], e = 5e-6, reads PSD although
    Q + 1e-6 I will not factor.  Over the box -1 <= x <= 1 with
    c = (1, -1, 0.5) it labels ok, on the enumeration oracle's objective
    -2.000005."""
    e = 5e-6
    inst = make_instance([[1.0, 0.0, 0.0], [0.0, 0.0, e], [0.0, e, 0.0]],
                         np.vstack([np.eye(3), -np.eye(3)]), np.ones(6), [1.0, -1.0, 0.5])
    assert psd_certificate(inst.q) is Definiteness.PSD
    status, sol = _label(inst)
    assert status == "ok"
    oracle = solve_enumeration(inst)
    assert oracle.objective == pytest.approx(-2.000005, rel=1e-12)
    assert sol.objective == pytest.approx(oracle.objective, rel=1e-9)
    assert np.abs(sol.x - oracle.x).max() <= 1e-6


@pytest.mark.parametrize("make", [
    lambda seed: gen_lp(6, 4, 0.5, seed=seed, bounded=True),
    lambda seed: psd_qp(gen_lp(6, 4, 0.5, seed=seed, bounded=True)),
], ids=["lp", "psd-qp"])
def test_lp_and_psd_solves_end_polished_on_the_oracle(make):
    """LPs and PSD Q polish on the shifted factor, refined against the true
    KKT: at toy size (m = 14, n = 4 or 5) every seed ends polished, within
    1e-12 of the KKT and on the enumeration oracle's objective."""
    for seed in range(6):
        inst = make(seed)
        sol, stats = solve_splitting_detailed(inst)
        assert stats.polished
        assert kkt_residuals(inst, sol, relative=True).max_residual <= 1e-12
        oracle = solve_enumeration(inst)
        assert sol.objective == pytest.approx(oracle.objective, rel=1e-9, abs=1e-12)


def degenerate_vertex_lp():
    """min -x1 - x2 over x1 <= 1, x2 <= 1, x1 + x2 <= 2, x1 + 2 x2 <= 3 and
    x >= 0: at the optimum (1, 1) four rows are active, twice n."""
    return make_instance(np.zeros((2, 2)),
                         [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 2.0], [-1.0, 0.0], [0.0, -1.0]],
                         [1.0, 1.0, 2.0, 3.0, 0.0, 0.0], [-1.0, -1.0], kind=ProblemKind.LP)


def dependent_rows_lp():
    """A bounded toy LP plus three rows, each a positive combination of two
    rows active at its optimum: the guessed active set is rank-deficient."""
    base = gen_lp(6, 4, 0.5, seed=1, bounded=True)
    sol = solve_enumeration(base)
    active = np.flatnonzero(sol.lam > 1e-9)
    assert active.size >= 2
    rng = np.random.default_rng(1)
    weights = np.zeros((3, base.m))
    for row in weights:
        row[rng.choice(active, size=2, replace=False)] = rng.random(2) + 0.1
    return add_constraints(base, weights)[0]


@pytest.mark.parametrize("make", [degenerate_vertex_lp, dependent_rows_lp],
                         ids=["more-than-n-active", "rank-deficient"])
def test_degenerate_lp_ends_polished_on_the_oracle(make):
    """Degenerate LPs, the case a shifted KKT turned into duals near -6e9:
    a row the Schur factor finds spanned by the rows before it leaves the
    round's set with lam = 0, so the solve ends on a polished point, which
    agrees with the enumeration oracle."""
    inst = make()
    rows = inst.a.to_dense()
    oracle = solve_enumeration(inst)
    tight = np.abs(rows @ oracle.x - inst.b) <= 1e-9
    assert np.linalg.matrix_rank(rows[tight]) < tight.sum()
    sol, stats = solve_splitting_detailed(inst)
    assert stats.polished
    assert kkt_residuals(inst, sol, relative=True).max_residual <= 1e-12
    assert sol.objective == pytest.approx(oracle.objective, rel=1e-12, abs=1e-12)


# ------------------------------------------------- HiGHS as an LP oracle


def highs(inst):
    """HiGHS's dual simplex (Huangfu & Hall, Math. Prog. Comp. 2018) on
    min c'x over A x <= b with x free: the one oracle call, options fixed."""
    res = scipy.optimize.linprog(
        inst.c, A_ub=inst.a.to_dense(), b_ub=inst.b, bounds=(None, None), method="highs-ds",
        options={"presolve": True, "primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return res


@pytest.mark.parametrize("seed", range(3))
def test_lp_labels_match_highs(seed):
    """A bounded 100 x 100 LP and two combo-augmented copies: the label the
    solver gives the LP, the labels the augmenter maps onto the copies and
    the labels re-solving the copies gives, where ok, each have HiGHS's
    objective to 1e-6 relative and a feasible x."""
    base = gen_lp(100, 100, 0.05, seed=seed, bounded=True)
    status, sol = _label(base)
    assert status == "ok"
    labeled = [(base, sol)]
    for copy in range(2):
        policy = AugmentPolicy(COMBO_STRENGTHS, seed=10 * seed + copy)
        inst, mapped, _ = apply_policy(base, policy, sol)
        labeled.append((inst, mapped))
        status, resolved = _label(inst)
        if status == "ok":
            labeled.append((inst, resolved))
    assert len(labeled) >= 4
    for inst, label in labeled:
        want = highs(inst).fun
        assert label.objective == pytest.approx(want, rel=1e-6)
        assert (inst.a.matvec(label.x) - inst.b).max() <= 1e-6 * (1.0 + np.abs(inst.b).max())


# ------------------------------------------------- the ADMM step's reduced system


def pd_qp():
    return gen_qp(30, 20, 0.2, 0.2, seed=0)


def bounded_lp():
    return gen_lp(30, 20, 0.2, seed=0, bounded=True)


def step_case(name):
    """Small instances for the reduced step: a PD QP, an LP, a bounded LP
    (m = 3n), a PD QP with an empty row of A, and a PD QP with no rows."""
    rng = np.random.default_rng(5)
    g = rng.standard_normal((6, 6))
    a = rng.standard_normal((7, 6))
    a[3] = 0.0
    return {
        "pd-qp": lambda: gen_qp(9, 6, 0.5, 0.5, seed=1),
        "lp": lambda: gen_lp(9, 6, 0.5, seed=1),
        "bounded-lp": lambda: gen_lp(8, 8, 0.5, seed=2, bounded=True),
        "empty-row": lambda: make_instance(g @ g.T + np.eye(6), a, np.ones(7), np.ones(6)),
        "no-rows": lambda: make_instance(g @ g.T + np.eye(6), np.zeros((0, 6)), [], np.ones(6)),
    }[name]()


@pytest.mark.parametrize("rho", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("name", ["pd-qp", "lp", "bounded-lp", "empty-row", "no-rows"])
def test_reduced_step_solves_the_quasi_definite_kkt(name, rho):
    """The step from the Cholesky factor of Q + sigma I + rho A'A solves the
    (n+m) x (n+m) system [[Q + sigma I, A'], [A, -I/rho]] [x'; nu] =
    [sigma x - c; r2] it stands for, at random x, c and r2 and at both ends
    of rho's range, and A x' is the z-step r2 + nu / rho."""
    inst = step_case(name)
    n, m = inst.n, inst.m
    assert name != "bounded-lp" or m == 3 * n
    assert name != "empty-row" or not np.any(inst.a.rows == 3)
    fac = solver._admm_factor(inst.q, solver._gram(inst.a), rho)
    sigma = fac[1]
    assert sigma == solver._SIGMA
    a = inst.a.to_dense()
    kkt = np.block([[inst.q.to_dense() + sigma * np.eye(n), a.T], [a, -np.eye(m) / rho]])
    rng = np.random.default_rng(0)
    x, c, r2 = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(m)
    want = np.linalg.solve(kkt, np.concatenate([sigma * x - c, r2]))
    got = solver._admm_step(fac, inst.a, rho, x, c, r2)
    assert np.abs(got - want[:n]).max() <= 1e-9 * np.abs(want).max()
    z = r2 + want[n:] / rho
    assert np.abs(inst.a.matvec(got) - z).max(initial=0.0) <= 1e-9 * max(np.abs(z).max(initial=0.0), 1.0)


def test_step_takes_sigma_from_the_factor():
    """The step's sigma x term uses the sigma P was made with, which
    _admm_factor grows past _SIGMA where P will not factor otherwise."""
    inst, rho, sigma = step_case("lp"), 1.0, 1e-2
    n, m = inst.n, inst.m
    a = inst.a.to_dense()
    fac = solver._chol(sigma * np.eye(n) + rho * a.T @ a), sigma
    rng = np.random.default_rng(1)
    x, c, r2 = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(m)
    kkt = np.block([[sigma * np.eye(n), a.T], [a, -np.eye(m) / rho]])
    want = np.linalg.solve(kkt, np.concatenate([sigma * x - c, r2]))[:n]
    got = solver._admm_step(fac, inst.a, rho, x, c, r2)
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


@pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 200])
def test_gram_sums_ata_over_row_blocks(m):
    """_gram's lower triangle is that of A'A, for row counts below, at and
    across the block size, and not a multiple of it."""
    rng = np.random.default_rng(m)
    dense = rng.standard_normal((m, 40)) * (rng.random((m, 40)) < 0.2)
    got = np.tril(solver._gram(SparseMatrix.from_dense(dense)))
    want = np.tril(dense.T @ dense)
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


def traced_peak(build):
    """(build(), the peak bytes tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_admm_setup_memory_is_order_n_squared():
    """A'A for a bounded 300-column LP (900 rows), and P's factor from it,
    each peak below two n x n arrays: no m x n array, no product temporary
    and no expansion of the pairs of entries that share a row."""
    inst = gen_lp(300, 300, 0.05, seed=0, bounded=True)
    assert inst.m == 900
    gram, gram_peak = traced_peak(lambda: solver._gram(inst.a))
    _, factor_peak = traced_peak(lambda: solver._admm_factor(inst.q, gram, 1.0))
    assert max(gram_peak, factor_peak) < 2 * 8 * inst.n ** 2


def rank_deficient_lp(scale):
    """min -x1 - x2 over x1 + x2 <= 1, the row scaled by `scale`: A'A is
    singular, so sigma alone keeps P positive definite."""
    return make_instance(np.zeros((2, 2)), [[scale, scale]], [scale], [-1.0, -1.0],
                         kind=ProblemKind.LP)


@pytest.mark.parametrize("scale, penalty", [(1.0, 1e12), (1e3, 1e6)], ids=["penalty-1e12", "rows-1e3"])
def test_step_factors_where_sigma_is_lost_to_rounding(scale, penalty):
    """Where rho A'A is so large that sigma vanishes beside it in P's
    diagonal, P is singular as stored; sigma grows until P factors, and the
    solve returns the optimum instead of raising LinAlgError."""
    inst = rank_deficient_lp(scale)
    _, sigma = solver._admm_factor(inst.q, solver._gram(inst.a), penalty)
    assert sigma > solver._SIGMA
    sol, _ = solve_splitting_detailed(inst, SolverConfig(penalty=penalty))
    assert sol.objective == pytest.approx(-1.0, abs=1e-8)
    assert kkt_residuals(inst, sol, relative=True).max_residual <= 1e-8


def test_huge_semidefinite_q_gives_a_status():
    """A singular Q of size 1e12 hides sigma once rho falls: the solve ends in
    one of the solver's statuses, which labeling reads, not in LinAlgError."""
    inst = make_instance(1e12 * np.ones((2, 2)), np.eye(2), [1.0, 1.0], [1.0, -1.0])
    with pytest.raises(Unconverged):
        solve_splitting_detailed(inst, SolverConfig(max_iter=1000))


@pytest.mark.parametrize("make", [pd_qp, psd_qp, bounded_lp], ids=["pd-qp", "psd-qp", "lp"])
def test_solve_leaves_no_cyclic_garbage(make):
    """A solve's arrays are freed when it returns, not left for the cyclic
    collector, which would raise a process's peak memory."""
    inst = make()
    gc.collect()
    gc.disable()
    try:
        solve_splitting_detailed(inst)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ------------------------------------------------- the blocked Cholesky factor


def spd(n, seed):
    """A well conditioned n x n symmetric positive definite matrix."""
    g = np.random.default_rng(seed).standard_normal((n, n))
    return g @ g.T / n + np.eye(n)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_chol_and_tri_solve_like_numpy(n):
    """L L' = P, and _tri's block substitution gives L^-1 rhs and L^-T rhs,
    and with both P^-1 rhs, as np.linalg.solve does, for 1-D and 2-D rhs,
    at sizes below, at and across the strip width."""
    p = spd(n, n)
    fac = solver._chol(p.copy())
    low = np.tril(fac[0])
    assert np.abs(low @ low.T - p).max() <= 1e-12 * np.abs(p).max()
    rng = np.random.default_rng(0)
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        for trans in (False, True):
            want = np.linalg.solve(low.T if trans else low, rhs)
            got = solver._tri(fac, rhs, trans)
            assert got.shape == rhs.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        want = np.linalg.solve(p, rhs)
        got = solver._tri(fac, solver._tri(fac, rhs), trans=True)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n, where", [(3, (2, 0)), (70, (69, 3)), (70, (66, 65))])
def test_chol_refuses_indefinite_and_nan(n, where):
    """An indefinite matrix and a NaN in the lower triangle, in the first
    strip or a later one, give None, although the potrf numpy calls passes
    a NaN pivot without an error."""
    indefinite = spd(n, 1)
    indefinite[where[0], where[0]] = -1.0
    assert solver._chol(indefinite) is None
    nan = spd(n, 1)
    nan[where] = np.nan
    assert solver._chol(nan) is None


@pytest.mark.parametrize("n", [5, 130])
def test_chol_reads_only_the_lower_triangle(n):
    """Garbage above the diagonal, NaN and infinities included, leaves the
    factor's lower triangle and the block inverses bit for bit the same,
    and is itself left as it was."""
    p = spd(n, 2)
    clean = solver._chol(np.tril(p))
    garbage = np.tril(p)
    upper = np.triu_indices(n, 1)
    garbage[upper] = np.random.default_rng(3).choice([np.nan, np.inf, -np.inf, 1e300, 7.0], upper[0].size)
    before = garbage[upper].copy()
    dirty = solver._chol(garbage)
    assert np.array_equal(np.tril(dirty[0]), np.tril(clean[0]))
    assert all(np.array_equal(a, b) for a, b in zip(dirty[1], clean[1]))
    assert np.array_equal(garbage[upper], before, equal_nan=True)


def test_chol_memory_is_one_strip():
    """_chol works in place: at n = 300 it holds one strip, its update and
    the block inverses beside P, 0.40 n x n arrays; np.linalg.cholesky(P)
    alone allocates a whole L beside P, 1.0."""
    n = 300
    p = spd(n, 4)
    fac, peak = traced_peak(lambda: solver._chol(p))
    assert fac[0] is p
    assert peak < 0.75 * 8 * n ** 2


def test_nearly_singular_q_the_unpivoted_factor_accepts():
    """Q = [[1, b], [b, 100]] with det 5e-7: its unpivoted pivots 1 and 5e-7
    clear 1e-10 times their own diagonals, while the pivoted elimination
    stalls at 5e-9 after the pivot 100 and calls Q semidefinite.  The solve
    takes the Schur polish on Q's own factor, is ok within the 1e-8 gate
    and agrees with the enumeration oracle."""
    b = np.sqrt(100.0 - 5e-7)
    q = [[1.0, b], [b, 100.0]]
    inst = make_instance(q, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                         [1.0, 1.0, 1.0, 1.0], [1.0, -1.0])
    assert psd_certificate(inst.q) is Definiteness.PSD
    own_factor(inst.q)
    status, sol = _label(inst)
    assert status == "ok"
    assert kkt_residuals(inst, sol, relative=True).max_residual <= 1e-8
    oracle = solve_enumeration(inst)
    assert sol.objective == pytest.approx(oracle.objective, rel=1e-9)
    assert np.abs(sol.x - oracle.x).max() <= 1e-6
