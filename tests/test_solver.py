"""Splitting solver vs the exhaustive enumeration oracle."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpaug import (
    InfeasibleOrUnbounded,
    InputError,
    ProblemKind,
    SolverConfig,
    Unbounded,
    kkt_residuals,
    solve_enumeration,
    solve_splitting,
    solve_splitting_detailed,
)
from qpaug.generators import gen_qp
from qpaug.solver import Unconverged, enumerate_candidates

from conftest import make_instance


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
    with pytest.raises(InputError):
        solve_splitting(e1, SolverConfig(tol=0.0))
    with pytest.raises(InputError):
        solve_splitting(e1, SolverConfig(max_iter=0))


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
    cfg = SolverConfig(max_iter=400, polish=False, tol=1e-9)
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
