"""Augmentation ops: frozen algebraic expectations plus the preservation
properties that make them safe to use on labeled data.

Most expected values here were worked out by hand on the e1/e2 fixtures and
cross-checked with solve_enumeration before the ops were written.
"""
import hashlib
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpaug import (
    Definiteness,
    InputError,
    ProblemKind,
    Solution,
    gen_lp,
    gen_qp,
    kkt_residuals,
    objective,
    psd_certificate,
    solve_enumeration,
    solve_splitting,
)
from qpaug.transforms import (
    CATALOG_ORDER,
    COMBO_STRENGTHS,
    PER_OP_STRENGTHS_LP,
    PER_OP_STRENGTHS_QP,
    SSL_STRENGTHS_LP,
    SSL_STRENGTHS_QP,
    AugmentPolicy,
    MapKind,
    SolutionMap,
    _drop_constraints,
    _drop_variables,
    add_constraints,
    add_variable_biased,
    add_variable_constrained,
    add_variables,
    apply_policy,
    bias_instance,
    heuristic_accuracy,
    heuristic_inactive,
    heuristic_scores,
    map_solution,
    remove_idle_variables,
    remove_inactive_constraints,
    scale_constraints,
    scale_variables,
)

import qpaug.transforms as transforms_module
from qpaug.fileio import save_instance
from qpaug.rng import derive_rng
from conftest import make_instance


def tiny_qp(seed, n_max=4, m_max=6):
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
    return make_instance(q, a, b, c, name=f"tiny{seed}")


def assert_kkt_clean(inst, sol, tol=1e-9):
    assert kkt_residuals(inst, sol).max_residual <= tol


# ------------------------------------------------------------- scale_variables

def test_scale_variables_e1(e1, e1_sol):
    out, rec = scale_variables(e1, np.array([2.0, 1.0]))
    assert np.array_equal(out.q.to_dense(), [[8.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(out.c, [-4.0, -2.0])
    assert np.array_equal(out.a.to_dense(), [[2.0, 1.0], [-2.0, 0.0], [0.0, -1.0]])
    assert np.array_equal(out.b, e1.b)
    assert rec.op_name == "scale_variables"
    assert rec.solution_map.kind is MapKind.PRIMAL_SCALED
    assert np.array_equal(rec.solution_map.values, [0.5, 1.0])
    mapped = map_solution(rec, out, e1_sol)
    assert np.array_equal(mapped.x, [0.25, 0.5])
    assert np.array_equal(mapped.lam, e1_sol.lam)
    assert mapped.objective == pytest.approx(-1.5, abs=1e-14)
    assert_kkt_clean(out, mapped, 1e-12)


def test_scale_variables_identity(e1):
    out, rec = scale_variables(e1, np.ones(2))
    assert out.data_equal(e1)
    assert len(out.provenance) == len(e1.provenance) + 1


def test_scale_variables_one_var():
    inst = make_instance([[2.0]], [[1.0]], [5.0], [-2.0])
    out, rec = scale_variables(inst, np.array([2.0]))
    assert out.q.to_dense()[0, 0] == 8.0
    assert out.c[0] == -4.0
    sol = Solution.from_primal_dual(inst, np.array([1.0]), np.zeros(1))
    mapped = map_solution(rec, out, sol)
    assert mapped.x[0] == 0.5


def test_scale_variables_rejects_nonpositive(e1):
    with pytest.raises(InputError):
        scale_variables(e1, np.array([1.0, 0.0]))
    with pytest.raises(InputError):
        scale_variables(e1, np.array([-1.0, 1.0]))


@given(st.integers(0, 50))
def test_scale_variables_objective_preserved(seed):
    inst = tiny_qp(seed)
    sol = solve_enumeration(inst)
    rng = np.random.default_rng(seed + 1)
    alpha = np.exp(rng.uniform(-1, 1, size=inst.n))
    out, rec = scale_variables(inst, alpha)
    mapped = map_solution(rec, out, sol)
    assert mapped.objective == pytest.approx(sol.objective, rel=1e-12, abs=1e-12)
    assert np.array_equal(mapped.x, sol.x * (1.0 / alpha))


# ----------------------------------------------------------- scale_constraints

def test_scale_constraints_e1(e1, e1_sol):
    out, rec = scale_constraints(e1, np.array([2.0, 1.0, 1.0]))
    assert np.array_equal(out.a.to_dense()[0], [2.0, 2.0])
    assert np.array_equal(out.b, [2.0, 0.0, 0.0])
    assert rec.solution_map.kind is MapKind.DUAL_SCALED
    mapped = map_solution(rec, out, e1_sol)
    assert np.array_equal(mapped.x, e1_sol.x)
    assert np.array_equal(mapped.lam, [0.5, 0.0, 0.0])
    assert_kkt_clean(out, mapped, 1e-12)


def test_scale_constraints_identity(e1):
    out, _ = scale_constraints(e1, np.ones(3))
    assert out.data_equal(e1)


def test_scale_constraints_power_of_two_exact_complementarity():
    # b and d chosen so every product is a dyadic rational: complementarity
    # stays exactly zero after scaling
    inst = make_instance([[1.0]], [[1.0]], [0.25], [-1.0])
    sol = Solution.from_primal_dual(inst, np.array([0.25]), np.array([0.75]))
    assert_kkt_clean(inst, sol, 0.0)
    out, rec = scale_constraints(inst, np.array([8.0]))
    mapped = map_solution(rec, out, sol)
    assert mapped.lam[0] == 0.09375
    assert mapped.slack[0] == 0.0
    assert kkt_residuals(out, mapped).complementarity == 0.0


def test_scale_constraints_rejects_nonpositive(e1):
    with pytest.raises(InputError):
        scale_constraints(e1, np.array([1.0, -2.0, 1.0]))
    with pytest.raises(InputError):
        scale_constraints(e1, np.array([0.0, 1.0, 1.0]))


@given(st.integers(0, 50))
def test_scale_constraints_primal_bitwise(seed):
    inst = tiny_qp(seed)
    sol = solve_enumeration(inst)
    rng = np.random.default_rng(seed + 7)
    d = np.exp(rng.uniform(-2, 2, size=inst.m))
    out, rec = scale_constraints(inst, d)
    mapped = map_solution(rec, out, sol)
    assert np.array_equal(mapped.x, sol.x)
    assert np.array_equal(rec.solution_map.values, 1.0 / d)
    assert np.abs(mapped.lam - sol.lam / d).max() <= 1e-14


# -------------------------------------------------------- remove_idle_variables

def test_remove_idle_e2(e2, e2_sol):
    out, rec = remove_idle_variables(e2, e2_sol, tol=1e-8)
    assert out.n == 1
    assert np.array_equal(out.q.to_dense(), [[1.0]])
    assert np.array_equal(out.a.to_dense(), [[-1.0], [0.0]])
    assert np.array_equal(out.c, [-1.0])
    assert np.array_equal(out.b, e2.b)
    assert rec.solution_map.kind is MapKind.RESTRICTED_TO
    assert rec.solution_map.indices.tolist() == [0]
    assert rec.params == {"tol": 1e-8}  # the kept indices are the one partition
    mapped = map_solution(rec, out, e2_sol)
    assert np.array_equal(mapped.x, [1.0])
    assert np.array_equal(mapped.lam, [0.0, 1.0])
    assert_kkt_clean(out, mapped, 1e-12)


def test_remove_idle_none_idle(e1, e1_sol):
    out, rec = remove_idle_variables(e1, e1_sol, tol=1e-8)
    assert out.data_equal(e1)
    assert rec.solution_map.indices.tolist() == [0, 1]


def test_remove_idle_all_idle_refused():
    inst = make_instance([[1.0]], [[1.0]], [1.0], [0.0])
    sol = Solution.from_primal_dual(inst, np.zeros(1), np.zeros(1))
    with pytest.raises(InputError):
        remove_idle_variables(inst, sol, tol=1e-8)


# -------------------------------------------------- remove_inactive_constraints

def test_remove_inactive_e1_full(e1, e1_sol):
    out, rec = remove_inactive_constraints(e1, e1_sol, tol=1e-6, fraction=1.0)
    assert out.m == 1
    assert np.array_equal(out.a.to_dense(), [[1.0, 1.0]])
    assert np.array_equal(out.b, [1.0])
    mapped = map_solution(rec, out, e1_sol)
    assert np.array_equal(mapped.x, e1_sol.x)
    assert np.array_equal(mapped.lam, [1.0])
    assert_kkt_clean(out, mapped, 1e-12)


def test_remove_inactive_zero_fraction(e1, e1_sol):
    out, rec = remove_inactive_constraints(e1, e1_sol, fraction=0.0)
    assert out.data_equal(e1)
    assert rec.solution_map.indices.tolist() == [0, 1, 2]
    assert rec.params == {"tol": 1e-6, "fraction": 0.0, "seed": 0}


def test_remove_inactive_all_active():
    inst = make_instance(np.eye(2), [[1.0, 1.0], [-1.0, -1.0]], [1.0, -1.0], [0.0, 0.0])
    sol = solve_splitting(inst)
    out, _ = remove_inactive_constraints(inst, sol, fraction=1.0)
    assert out.data_equal(inst)


def test_remove_inactive_fraction_validated(e1, e1_sol):
    with pytest.raises(InputError):
        remove_inactive_constraints(e1, e1_sol, fraction=1.5)
    with pytest.raises(InputError):
        remove_inactive_constraints(e1, e1_sol, fraction=-0.1)
    # tol < 0 would count active rows as inactive and drop them
    with pytest.raises(InputError, match="tol must be nonnegative"):
        remove_inactive_constraints(e1, e1_sol, tol=-1.0)
    # so would NaN, which no comparison calls active
    with pytest.raises(InputError, match="tol must be nonnegative"):
        remove_inactive_constraints(e1, e1_sol, tol=float("nan"))


def test_remove_inactive_partial_deterministic(e1, e1_sol):
    out1, rec1 = remove_inactive_constraints(e1, e1_sol, fraction=0.5, seed=3)
    out2, rec2 = remove_inactive_constraints(e1, e1_sol, fraction=0.5, seed=3)
    assert out1.data_equal(out2)
    assert rec1.solution_map == rec2.solution_map
    assert rec1.solution_map.indices.size == e1.m - 1  # floor(0.5 * 2 inactive) dropped
    assert out1.m == 2


# ---------------------------------------------------------------- add_variables

def test_add_variables_e1(e1, e1_sol):
    out, rec = add_variables(e1, np.array([1.0, 0.0]), ridge=0.0)
    assert np.array_equal(
        out.q.to_dense(), [[2.0, 0.0, 2.0], [0.0, 2.0, 0.0], [2.0, 0.0, 2.0]]
    )
    assert np.array_equal(
        out.a.to_dense(), [[1.0, 1.0, 1.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 0.0]]
    )
    assert np.array_equal(out.c, [-2.0, -2.0, -2.0])
    assert rec.solution_map.kind is MapKind.EXTENDED_WITH_ZEROS
    assert rec.solution_map.indices.tolist() == [2]
    mapped = map_solution(rec, out, e1_sol)
    assert np.array_equal(mapped.x, [0.5, 0.5, 0.0])
    assert np.array_equal(mapped.lam, e1_sol.lam)
    assert mapped.objective == pytest.approx(-1.5, abs=1e-14)
    assert_kkt_clean(out, mapped, 1e-12)
    assert psd_certificate(out.q) is Definiteness.PSD


def test_add_variables_default_ridge_is_pd(e1, e1_sol):
    out, rec = add_variables(e1, np.array([1.0, 0.0]))
    # default ridge 1e-2 * trace(Q) / n = 0.02 on the new diagonal entry
    assert out.q.to_dense()[2, 2] == pytest.approx(2.02, abs=1e-15)
    assert psd_certificate(out.q) is Definiteness.PD
    mapped = map_solution(rec, out, e1_sol)
    assert mapped.objective == pytest.approx(-1.5, abs=1e-14)
    assert_kkt_clean(out, mapped, 1e-12)


def test_add_variables_decoupled(e1, e1_sol):
    out, rec = add_variables(e1, np.zeros(2), ridge=1.0)
    dense = out.q.to_dense()
    assert dense[2, 2] == 1.0
    assert np.array_equal(dense[:2, 2], [0.0, 0.0])
    assert out.c[2] == 0.0
    mapped = map_solution(rec, out, e1_sol)
    assert np.array_equal(mapped.x, [0.5, 0.5, 0.0])


def test_add_variables_requires_pd():
    lp = make_instance(np.zeros((2, 2)), [[1.0, 1.0]], [1.0], [-1.0, -1.0], kind=ProblemKind.LP)
    with pytest.raises(InputError):
        add_variables(lp, np.zeros(2))
    psd_only = make_instance([[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0]], [1.0], [0.0, 0.0])
    with pytest.raises(InputError):
        add_variables(psd_only, np.zeros(2))


@pytest.mark.parametrize("a", [6.0, 8.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_add_variables_accepts_pd_q_after_scale_variables(a, seed):
    """D Q D stays positive definite for a positive diagonal D.  Scaled by
    e^a and e^-a in turn, its pivots fell below a tolerance relative to its
    largest diagonal entry, and the copy was refused."""
    inst = gen_qp(100, 100, 0.05, 0.05, seed)
    scaled, _ = scale_variables(inst, np.exp(np.resize([a, -a], inst.n)))
    out, _ = add_variables(scaled, np.zeros(inst.n))
    assert out.n == inst.n + 1


# ---------------------------------------------------------- add_variable_biased

def test_add_variable_biased_e1(e1, e1_sol):
    out, rec = add_variable_biased(e1, e1_sol, q_diag=1.0, a_col=np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(out.c, [-2.0, -2.0, -1.0])
    dense_q = out.q.to_dense()
    assert dense_q[2, 2] == 1.0
    assert np.array_equal(dense_q[:2, 2], [0.0, 0.0])
    assert np.array_equal(out.a.to_dense()[:, 2], [1.0, 0.0, 0.0])
    mapped = map_solution(rec, out, e1_sol)
    assert np.array_equal(mapped.x, [0.5, 0.5, 0.0])
    assert np.array_equal(mapped.lam, e1_sol.lam)
    assert_kkt_clean(out, mapped, 1e-12)


def test_add_variable_biased_zero_column(e1, e1_sol):
    out, _ = add_variable_biased(e1, e1_sol, q_diag=2.0, a_col=np.zeros(3))
    assert out.c[2] == 0.0


def test_add_variable_biased_needs_positive_diag(e1, e1_sol):
    with pytest.raises(InputError):
        add_variable_biased(e1, e1_sol, q_diag=0.0, a_col=np.zeros(3))


def test_add_variable_biased_upgrades_lp_to_qp():
    """Its positive q_diag makes an LP's result a QP, as add_variable_constrained
    and bias_instance do; the mapped pair stays optimal."""
    inst = gen_lp(12, 8, 0.4, 21, bounded=True)
    sol = solve_splitting(inst)
    a_col = np.random.default_rng(5).standard_normal(inst.m)
    out, rec = add_variable_biased(inst, sol, 0.7, a_col)
    assert inst.kind is ProblemKind.LP and out.kind is ProblemKind.QP
    assert out.q.nnz == 1 and out.q.to_dense()[inst.n, inst.n] == 0.7
    mapped = map_solution(rec, out, sol)
    assert np.array_equal(mapped.x, np.append(sol.x, 0.0))
    assert np.array_equal(mapped.lam, sol.lam)
    assert kkt_residuals(out, mapped, relative=True).max_residual <= 1e-6


# ----------------------------------------------------- add_variable_constrained

def test_add_variable_constrained_e1(e1, e1_sol):
    out, rec = add_variable_constrained(e1, q_diag=1.0, a_col=np.zeros(3), c_new=-0.5)
    assert out.n == 3 and out.m == 4
    assert np.array_equal(out.b, [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(out.a.to_dense()[3], [0.0, 0.0, 1.0])
    assert out.c[2] == -0.5
    assert rec.solution_map.kind is MapKind.EXPLICIT_DUAL
    assert rec.params == {"q_diag": 1.0}  # c_new and a_col live in the map values
    # a_col is all zero: the sparse map keeps no index and only c_new
    assert rec.solution_map.indices.tolist() == [] and rec.solution_map.values.tolist() == [-0.5]
    mapped = map_solution(rec, out, e1_sol)
    assert np.array_equal(mapped.x, [0.5, 0.5, 0.0])
    assert np.array_equal(mapped.lam, [1.0, 0.0, 0.0, 0.5])
    assert_kkt_clean(out, mapped, 1e-12)


def test_add_variable_constrained_coupled_dual(e1, e1_sol):
    out, rec = add_variable_constrained(
        e1, q_diag=1.0, a_col=np.array([-1.0, 0.0, 0.0]), c_new=0.0
    )
    assert rec.solution_map.indices.tolist() == [0]
    assert rec.solution_map.values.tolist() == [0.0, -1.0]
    mapped = map_solution(rec, out, e1_sol)
    assert mapped.lam[3] == 1.0
    assert_kkt_clean(out, mapped, 1e-12)


def test_add_variable_constrained_idle_case(e1, e1_sol):
    out, rec = add_variable_constrained(e1, q_diag=1.0, a_col=np.zeros(3), c_new=0.0)
    mapped = map_solution(rec, out, e1_sol)
    assert mapped.lam[3] == 0.0


def test_add_variable_constrained_sign_checks(e1):
    with pytest.raises(InputError):
        add_variable_constrained(e1, q_diag=1.0, a_col=np.array([1.0, 0.0, 0.0]), c_new=0.0)
    with pytest.raises(InputError):
        add_variable_constrained(e1, q_diag=1.0, a_col=np.zeros(3), c_new=0.5)
    with pytest.raises(InputError):
        add_variable_constrained(e1, q_diag=-1.0, a_col=np.zeros(3), c_new=0.0)


def test_add_variable_constrained_keeps_lp_kind():
    lp = make_instance(
        np.zeros((2, 2)),
        [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        [1.0, 0.0, 0.0],
        [-1.0, -2.0],
        kind=ProblemKind.LP,
    )
    out, rec = add_variable_constrained(lp, q_diag=0.0, a_col=np.zeros(3), c_new=-0.25)
    assert out.kind is ProblemKind.LP
    assert out.q.nnz == 0
    sol = solve_enumeration(lp)
    mapped = map_solution(rec, out, sol)
    assert mapped.lam[3] == 0.25
    assert_kkt_clean(out, mapped, 1e-12)


# -------------------------------------------------------------- add_constraints

def test_add_constraints_e1(e1, e1_sol):
    out, rec = add_constraints(e1, [np.array([0.5, 0.5, 0.0])])
    assert out.m == 4
    assert np.array_equal(out.a.to_dense()[3], [0.0, 0.5])
    assert out.b[3] == 0.5
    assert rec.solution_map.kind is MapKind.EXTENDED_WITH_ZEROS
    assert rec.solution_map.indices.tolist() == [3]
    mapped = map_solution(rec, out, e1_sol)
    assert np.array_equal(mapped.lam, [1.0, 0.0, 0.0, 0.0])
    assert mapped.slack[3] == 0.25
    assert_kkt_clean(out, mapped, 1e-12)


def test_add_constraints_duplicate_active_row(e1, e1_sol):
    out, rec = add_constraints(e1, [np.array([1.0, 0.0, 0.0])])
    mapped = map_solution(rec, out, e1_sol)
    assert mapped.slack[3] == 0.0
    assert mapped.lam[3] == 0.0
    assert kkt_residuals(out, mapped).complementarity == 0.0


def test_add_constraints_empty(e1):
    out, rec = add_constraints(e1, [])
    assert out.data_equal(e1)
    assert rec.solution_map.indices.tolist() == []


def test_add_constraints_validation(e1):
    with pytest.raises(InputError):
        add_constraints(e1, [np.array([-0.5, 1.0, 0.0])])
    with pytest.raises(InputError):
        add_constraints(e1, [np.zeros(3)])
    with pytest.raises(InputError):
        add_constraints(e1, [np.ones(3), np.zeros(3)])
    for bad_shape in ([np.ones(2)], [np.ones(3), np.ones(2)], np.ones(3), np.ones((1, 4))):
        with pytest.raises(InputError):
            add_constraints(e1, bad_shape)


def test_add_constraints_sparse_record_and_per_row_reference():
    """The record's sparse weights expand to exactly the weights passed in,
    and each new row and right-hand side equals the per-weight A' w and w . b
    bit for bit."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        m, n = (int(v) for v in rng.integers(5, 40, size=2))
        a = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.2)
        inst = make_instance(np.eye(n), a, rng.standard_normal(m), rng.standard_normal(n))
        weights = np.zeros((int(rng.integers(1, 6)), m))
        for w in weights:
            w[rng.choice(m, size=3, replace=False)] = rng.random(3) + 1e-9
        out, rec = add_constraints(inst, weights)
        stored = rec.params["weights"]
        expanded = np.zeros_like(weights)
        expanded[stored["rows"], stored["cols"]] = stored["vals"]
        assert len(stored["vals"]) == np.count_nonzero(weights)
        assert np.array_equal(expanded, weights)
        for w, row, rhs in zip(weights, out.a.to_dense()[m:], out.b[m:]):
            assert np.array_equal(row, inst.a.rmatvec(w))
            assert rhs == float(w @ inst.b)


def test_add_then_drop_round_trip(e1):
    out, _ = add_constraints(e1, [np.array([0.5, 0.5, 0.0]), np.array([0.0, 1.0, 2.0])])
    back, _ = _drop_constraints(out, [3, 4])
    assert back.data_equal(e1)
    assert back.q == e1.q and back.a == e1.a


# ----------------------------------------------------------------- bias terms

def _bias_with_draws(monkeypatch, inst, sol, r, b21):
    """bias_instance at magnitude 1 with its two normal draws replaced by r
    (n x rank, so the Q block is r r') and b21 (m x n)."""
    draws = iter([np.asarray(r, dtype=np.float64), np.asarray(b21, dtype=np.float64)])

    def standard_normal(shape):
        out = next(draws)
        assert out.shape == shape
        return out

    fake = SimpleNamespace(standard_normal=standard_normal)
    monkeypatch.setattr(transforms_module, "derive_rng", lambda *key: fake)
    return bias_instance(inst, sol, rank=np.shape(r)[1], magnitude=1.0, seed=0)


def test_bias_instance_quadratic_only(monkeypatch, e1, e1_sol):
    out, rec = _bias_with_draws(monkeypatch, e1, e1_sol, [[1.0], [0.0]], np.zeros((3, 2)))
    assert np.array_equal(out.q.to_dense(), [[3.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(out.c, [-2.5, -2.0])
    assert np.array_equal(out.b, e1.b)
    mapped = map_solution(rec, out, e1_sol)
    assert np.array_equal(mapped.x, e1_sol.x)
    assert np.array_equal(mapped.lam, e1_sol.lam)
    assert_kkt_clean(out, mapped, 1e-12)


def test_bias_instance_constraint_shift(monkeypatch, e1, e1_sol):
    b21 = np.zeros((3, 2))
    b21[0, 0] = 1.0
    out, rec = _bias_with_draws(monkeypatch, e1, e1_sol, np.zeros((2, 1)), b21)
    assert np.array_equal(out.a.to_dense()[0], [2.0, 1.0])
    assert np.array_equal(out.b, [1.5, 0.0, 0.0])
    assert np.array_equal(out.c, [-3.0, -2.0])
    mapped = map_solution(rec, out, e1_sol)
    assert_kkt_clean(out, mapped, 1e-12)


def test_bias_instance_zero_magnitude(e1, e1_sol):
    out, _ = bias_instance(e1, e1_sol, rank=2, magnitude=0.0, seed=5)
    assert out.data_equal(e1)


def test_bias_instance_deterministic(e1, e1_sol):
    out1, _ = bias_instance(e1, e1_sol, rank=2, magnitude=0.1, seed=5)
    out2, _ = bias_instance(e1, e1_sol, rank=2, magnitude=0.1, seed=5)
    out3, _ = bias_instance(e1, e1_sol, rank=2, magnitude=0.1, seed=6)
    assert out1.data_equal(out2)
    assert not out1.data_equal(out3)


def test_bias_instance_rank_validated(e1, e1_sol):
    with pytest.raises(InputError):
        bias_instance(e1, e1_sol, rank=0, magnitude=0.1, seed=1)


def test_bias_instance_upgrades_lp_to_qp():
    lp = make_instance(
        np.zeros((2, 2)),
        [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        [1.0, 0.0, 0.0],
        [-1.0, -1.0],
        kind=ProblemKind.LP,
    )
    sol = solve_enumeration(lp)
    out, rec = bias_instance(lp, sol, rank=1, magnitude=0.5, seed=2)
    assert out.kind is ProblemKind.QP
    assert out.q.is_symmetric()
    assert psd_certificate(out.q) in (Definiteness.PD, Definiteness.PSD)
    mapped = map_solution(rec, out, sol)
    assert_kkt_clean(out, mapped, 1e-9)


@given(st.integers(0, 40))
def test_bias_instance_preserves_kkt(seed):
    inst = tiny_qp(seed)
    sol = solve_enumeration(inst)
    out, rec = bias_instance(inst, sol, rank=2, magnitude=0.3, seed=seed)
    mapped = map_solution(rec, out, sol)
    assert np.array_equal(mapped.x, sol.x)
    assert_kkt_clean(out, mapped, 1e-9)


NAN = float("nan")


@pytest.mark.parametrize("call, param", [
    (lambda inst, sol: add_variables(inst, np.ones(inst.n), ridge=NAN), "ridge"),
    (lambda inst, sol: add_variable_biased(inst, sol, NAN, np.ones(inst.m)), "q_diag"),
    (lambda inst, sol: add_variable_constrained(inst, NAN, -np.ones(inst.m), -1.0), "q_diag"),
    (lambda inst, sol: add_variable_constrained(inst, 1.0, -np.ones(inst.m), NAN), "c_new"),
    (lambda inst, sol: bias_instance(inst, sol, 2, NAN, seed=0), "magnitude"),
    (lambda inst, sol: bias_instance(inst, sol, 2, np.inf, seed=0), "magnitude"),
    (lambda inst, sol: add_variables(inst, np.ones(inst.n), ridge=np.inf), "ridge"),
    (lambda inst, sol: add_variable_biased(inst, sol, np.inf, np.ones(inst.m)), "q_diag"),
    (lambda inst, sol: add_variable_constrained(inst, np.inf, -np.ones(inst.m), -1.0), "q_diag"),
    (lambda inst, sol: add_variable_constrained(inst, 1.0, -np.ones(inst.m), -np.inf), "c_new"),
], ids=["ridge-nan", "biased-q_diag-nan", "constrained-q_diag-nan", "c_new-nan",
        "magnitude-nan", "magnitude-inf", "ridge-inf", "biased-q_diag-inf",
        "constrained-q_diag-inf", "c_new-minus-inf"])
def test_non_finite_parameter_refused_by_name(call, param):
    """Before, each was refused only by its effect, as "matrix values must
    be finite" or "c contains non-finite entries"; the infinite cases were
    still refused that way after the NaN ones were named."""
    inst = gen_qp(6, 4, 0.6, 0.6, seed=1)
    with pytest.raises(InputError, match=f"^{param} must be "):
        call(inst, solve_enumeration(inst))


# -------------------------------------------------------------- heuristic score

def test_heuristic_scores_e1(e1):
    h = heuristic_scores(e1)
    assert h[0] == pytest.approx((1.0 - np.sqrt(2.0)) / np.sqrt(2.0), abs=1e-12)
    assert h[1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert h[2] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_heuristic_inactive_e1(e1):
    assert heuristic_inactive(e1, 2) == (1, 2)


def test_heuristic_k_edges(e1):
    assert heuristic_inactive(e1, 0) == ()
    assert heuristic_inactive(e1, 3) == (0, 1, 2)
    with pytest.raises(InputError):
        heuristic_inactive(e1, 4)


def test_heuristic_tie_smaller_index(e1):
    # rows 1 and 2 tie; k = 1 must take the smaller index
    assert heuristic_inactive(e1, 1) == (1,)


def test_heuristic_zero_row_most_inactive():
    inst = make_instance(
        np.eye(2), [[0.0, 0.0], [1.0, 1.0]], [1.0, 1.0], [-1.0, -1.0]
    )
    h = heuristic_scores(inst)
    assert np.isposinf(h[0])
    assert heuristic_inactive(inst, 1) == (0,)


def test_heuristic_zero_cost_fallback():
    inst = make_instance(
        np.zeros((2, 2)),
        [[1.0, 0.0], [0.0, 2.0]],
        [3.0, 4.0],
        [0.0, 0.0],
        kind=ProblemKind.LP,
    )
    h = heuristic_scores(inst)
    assert np.allclose(h, [3.0, 2.0])


def test_heuristic_step_defaults():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal(5)
    c = rng.standard_normal(4)
    lp = make_instance(np.zeros((4, 4)), a, b, c, kind=ProblemKind.LP)
    qp = make_instance(np.eye(4), a, b, c)
    assert np.array_equal(heuristic_scores(lp), heuristic_scores(lp, step=8.0))
    assert np.array_equal(heuristic_scores(qp), heuristic_scores(qp, step=1.0))


@given(st.integers(0, 50))
def test_heuristic_invariant_to_row_and_cost_rescaling(seed):
    rng = np.random.default_rng(seed)
    n, m = 3, 7
    inst = make_instance(
        np.eye(n), rng.standard_normal((m, n)), rng.standard_normal(m), rng.standard_normal(n)
    )
    base = heuristic_inactive(inst, 3)
    d = np.exp(rng.uniform(-3, 3, size=m))
    scaled, _ = scale_constraints(inst, d)
    assert heuristic_inactive(scaled, 3) == base
    boosted = make_instance(
        inst.q.to_dense(), inst.a.to_dense(), inst.b, 7.5 * np.asarray(inst.c)
    )
    assert heuristic_inactive(boosted, 3) == base


@pytest.mark.parametrize("step", [NAN, np.inf, -np.inf])
def test_heuristic_non_finite_step_refused(step):
    """Before, NaN made every score NaN and the k rows an arbitrary pick."""
    inst = gen_qp(6, 4, 0.6, 0.6, seed=1)
    with pytest.raises(InputError, match="^step must be finite"):
        heuristic_scores(inst, step=step)
    with pytest.raises(InputError, match="^step must be finite"):
        heuristic_inactive(inst, 2, step=step)


def test_heuristic_accuracy_values():
    assert heuristic_accuracy({1, 2, 3}, {1, 2, 3}) == 1.0
    assert heuristic_accuracy({1, 2}, {3, 4}) == 0.0
    assert heuristic_accuracy({1, 2, 3, 9}, {1, 2, 3, 4}) == 0.75
    with pytest.raises(InputError):
        heuristic_accuracy({1}, set())


# ---------------------------------------------------------------------- policy

def test_strength_tables_frozen():
    assert CATALOG_ORDER == (
        "drop-vars", "drop-cons", "scale-cons", "scale-vars", "add-cons", "add-vars",
    )
    assert COMBO_STRENGTHS == {
        "drop-vars": 0.0, "drop-cons": 0.5, "scale-cons": 0.5,
        "scale-vars": 0.5, "add-cons": 0.6, "add-vars": 0.0,
    }
    assert SSL_STRENGTHS_LP == {
        "drop-cons": 0.05, "scale-cons": 0.40, "scale-vars": 1.07,
        "add-cons": 0.36, "add-vars": 0.46,
    }
    assert SSL_STRENGTHS_QP == {
        "drop-cons": 0.07, "scale-cons": 1.03, "scale-vars": 0.65,
        "add-cons": 0.33, "add-vars": 0.26,
    }
    assert PER_OP_STRENGTHS_LP["add-vars"] == 0.80
    assert PER_OP_STRENGTHS_QP["add-vars"] == 0.60
    assert PER_OP_STRENGTHS_LP["scale-cons"] == 1.0


def test_policy_all_zero_is_identity(e1, e1_sol):
    policy = AugmentPolicy(strengths={op: 0.0 for op in CATALOG_ORDER}, seed=1)
    out, mapped, recs = apply_policy(e1, policy, sol=e1_sol)
    assert out.data_equal(e1)
    assert recs == []
    assert np.array_equal(mapped.x, e1_sol.x)


def test_policy_validation():
    with pytest.raises(InputError):
        AugmentPolicy(strengths={"scale-vars": -0.5}, seed=0)
    with pytest.raises(InputError):
        AugmentPolicy(strengths={"no-such-op": 1.0}, seed=0)
    with pytest.raises(InputError):
        AugmentPolicy(strengths={}, ops_per_instance=0, seed=0)


def test_policy_deterministic(e1, e1_sol):
    policy = AugmentPolicy(strengths=dict(COMBO_STRENGTHS), seed=11)
    out1, sol1, recs1 = apply_policy(e1, policy, sol=e1_sol)
    out2, sol2, recs2 = apply_policy(e1, policy, sol=e1_sol)
    assert out1.data_equal(out2)
    assert np.array_equal(sol1.x, sol2.x)
    assert np.array_equal(sol1.lam, sol2.lam)
    assert [r.op_name for r in recs1] == [r.op_name for r in recs2]


def test_policy_seed_changes_output(e1, e1_sol):
    strengths = {"scale-vars": 1.0, "scale-cons": 1.0}
    p1 = AugmentPolicy(strengths=strengths, seed=11)
    p2 = AugmentPolicy(strengths=strengths, seed=12)
    out1, _, _ = apply_policy(e1, p1, sol=e1_sol)
    out2, _, _ = apply_policy(e1, p2, sol=e1_sol)
    assert not out1.data_equal(out2)


@pytest.mark.parametrize("m", [1, 2, 3, 40])
def test_policy_add_cons_rows_are_convex_combinations(m):
    """Each of the int(strength * m) appended rows combines min(3, m)
    distinct rows, with weights that are positive and sum to one, and the
    row sets vary from row to row."""
    inst = gen_qp(m, 6, 0.6, 0.5, seed=m)
    policy = AugmentPolicy(strengths={"add-cons": 1.5}, ops_per_instance=1,
                           interpolate=False, seed=4)
    out, _, (rec,) = apply_policy(inst, policy)
    count = int(1.5 * m)
    assert rec.op_name == "add_constraints" and out.m == m + count
    weights = rec.params["weights"]
    dense = np.zeros((count, m))
    dense[weights["rows"], weights["cols"]] = weights["vals"]
    assert np.array_equal(np.count_nonzero(dense, axis=1), np.full(count, min(3, m)))
    assert dense.min(initial=1.0, where=dense != 0.0) > 0.0
    assert np.abs(dense.sum(axis=1) - 1.0).max() <= 1e-15
    if m == 40:
        assert len({tuple(np.flatnonzero(row)) for row in dense}) > count // 2


def test_policy_solution_dependent_requires_labels(e1):
    policy = AugmentPolicy(strengths={"drop-vars": 1.0}, ops_per_instance=1, seed=0)
    with pytest.raises(InputError, match="drop-vars"):
        apply_policy(e1, policy)


def test_policy_unlabeled_solution_independent_ok(e1):
    total = 0
    for seed in range(6):
        policy = AugmentPolicy(
            strengths=dict(SSL_STRENGTHS_QP), ops_per_instance=2,
            interpolate=False, seed=seed,
        )
        out, mapped, recs = apply_policy(e1, policy)
        assert mapped is None
        assert out.provenance[len(e1.provenance):] == tuple(recs)
        total += len(recs)
    assert total >= 1


@given(st.integers(0, 30))
def test_policy_preserves_kkt(seed):
    inst = tiny_qp(seed)
    sol = solve_enumeration(inst)
    policy = AugmentPolicy(strengths=dict(COMBO_STRENGTHS), seed=seed)
    out, mapped, recs = apply_policy(inst, policy, sol=sol)
    assert mapped is not None
    assert_kkt_clean(out, mapped, 1e-9)


@given(st.integers(0, 20))
def test_policy_ssl_views_preserve_kkt(seed):
    inst = tiny_qp(seed)
    sol = solve_enumeration(inst)
    policy = AugmentPolicy(
        strengths=dict(SSL_STRENGTHS_QP), interpolate=False, seed=seed + 100
    )
    out, mapped, recs = apply_policy(inst, policy, sol=sol)
    assert_kkt_clean(out, mapped, 1e-9)


def nonneg_qp(seed, n=5, m=3):
    """A QP over x >= 0 whose cost pushes some coordinates onto their bound."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    a = np.vstack([-np.eye(n), rng.standard_normal((m, n))])
    b = np.concatenate([np.zeros(n), 1.0 + np.abs(rng.standard_normal(m))])
    return make_instance(g @ g.T + 0.5 * np.eye(n), a, b, rng.standard_normal(n),
                         name=f"nonneg{seed}")


def test_policy_drop_vars_drops_only_idle_variables():
    dropped = 0
    for seed in range(12):
        inst = nonneg_qp(seed)
        sol = solve_enumeration(inst)
        idle = set(np.flatnonzero(np.abs(sol.x) <= 1e-8 * (1.0 + np.abs(sol.x).max())).tolist())
        policy = AugmentPolicy({"drop-vars": 3.0}, ops_per_instance=1, seed=seed)
        out, mapped, recs = apply_policy(inst, policy, sol)
        assert_kkt_clean(out, mapped, 1e-9)
        if recs:
            [rec] = recs
            assert rec.op_name == "drop_variables"
            gone = set(range(inst.n)) - set(rec.solution_map.indices.tolist())
            assert gone and gone <= idle and out.n == inst.n - len(gone)
            dropped += 1
    assert dropped >= 4
    # min x'x + 1'x over x >= 0 has every variable idle: one must stay
    inst = make_instance(2.0 * np.eye(3), -np.eye(3), np.zeros(3), np.ones(3), name="idle")
    sol = solve_enumeration(inst)
    policy = AugmentPolicy({"drop-vars": 1e6}, ops_per_instance=1, interpolate=False, seed=0)
    out, mapped, recs = apply_policy(inst, policy, sol)
    assert out.n == 1 and len(recs) == 1
    assert_kkt_clean(out, mapped, 1e-9)


# ------------------------------------------------------------ master properties

ALL_OPS = [
    "scale_variables", "scale_constraints", "remove_idle_variables",
    "remove_inactive_constraints", "add_variables", "add_variable_biased",
    "add_variable_constrained", "add_constraints", "bias_instance",
]


def apply_named(op, inst, sol, rng):
    if op == "scale_variables":
        return scale_variables(inst, np.exp(rng.uniform(-0.7, 0.7, inst.n)))
    if op == "scale_constraints":
        return scale_constraints(inst, np.exp(rng.uniform(-0.7, 0.7, inst.m)))
    if op == "remove_idle_variables":
        return remove_idle_variables(inst, sol, tol=1e-9)
    if op == "remove_inactive_constraints":
        return remove_inactive_constraints(inst, sol, fraction=0.5, seed=int(rng.integers(1 << 30)))
    if op == "add_variables":
        return add_variables(inst, rng.standard_normal(inst.n))
    if op == "add_variable_biased":
        return add_variable_biased(inst, sol, q_diag=1.0, a_col=rng.standard_normal(inst.m))
    if op == "add_variable_constrained":
        return add_variable_constrained(
            inst, q_diag=0.5, a_col=-np.abs(rng.standard_normal(inst.m)),
            c_new=-abs(rng.standard_normal()),
        )
    if op == "add_constraints":
        w = np.abs(rng.standard_normal(inst.m)) + 1e-3
        return add_constraints(inst, [w / w.sum()])
    if op == "bias_instance":
        return bias_instance(inst, sol, rank=2, magnitude=0.25, seed=int(rng.integers(1 << 30)))
    raise AssertionError(op)


@pytest.mark.parametrize("op", ALL_OPS)
@given(seed=st.integers(0, 25))
def test_master_kkt_preservation(op, seed):
    inst = tiny_qp(seed)
    sol = solve_enumeration(inst)
    rng = np.random.default_rng(seed + 1000)
    try:
        out, rec = apply_named(op, inst, sol, rng)
    except InputError:
        # remove_idle refuses when every variable sits at zero
        assert op == "remove_idle_variables"
        return
    mapped = map_solution(rec, out, sol)
    assert kkt_residuals(out, mapped).max_residual <= 1e-9


@pytest.mark.parametrize("op", ALL_OPS)
def test_transformed_instances_resolve_to_mapped_objective(op, e1, e1_sol):
    rng = np.random.default_rng(zlib.crc32(op.encode()))
    out, rec = apply_named(op, e1, e1_sol, rng)
    mapped = map_solution(rec, out, e1_sol)
    fresh = solve_splitting(out)
    assert fresh.objective == pytest.approx(
        mapped.objective, rel=1e-6, abs=1e-6
    )
    if out.n <= 10 and out.m <= 20:
        enum = solve_enumeration(out)
        assert enum.objective == pytest.approx(mapped.objective, rel=1e-6, abs=1e-6)


def test_provenance_chain(e1, e1_sol):
    s1, r1 = scale_variables(e1, np.array([2.0, 1.0]))
    s2, r2 = scale_constraints(s1, np.array([2.0, 1.0, 1.0]))
    assert len(s2.provenance) == 2
    assert s2.provenance[0].op_name == "scale_variables"
    assert s2.provenance[1].op_name == "scale_constraints"
    # the scale vectors live only in the maps' values
    assert r1.params == r2.params == {}
    mapped = map_solution(r2, s2, map_solution(r1, s1, e1_sol))
    assert_kkt_clean(s2, mapped, 1e-12)


def test_drop_variables_helper(e1, e1_sol):
    # dropping a non-idle variable is allowed at the helper level; the public
    # op is the one that restricts to idle coordinates
    out, rec = _drop_variables(e1, [1])
    assert out.n == 1
    assert rec.solution_map.indices.tolist() == [0]
    assert rec.params == {}


# ------------------------------------------------------------ solution maps

def test_solution_map_holds_read_only_arrays():
    src = np.array([0.5, 2.0])
    sm = SolutionMap(MapKind.PRIMAL_SCALED, values=src)
    src[0] = 9.0  # the map holds its own copy
    assert sm.values.tolist() == [0.5, 2.0] and sm.values.dtype == np.float64
    assert sm.indices is None
    with pytest.raises(ValueError):
        sm.values[0] = 1.0
    kept = SolutionMap(MapKind.RESTRICTED_TO, side="dual", indices=(2, 0, 5))
    assert kept.indices.dtype == np.int64 and kept.indices.tolist() == [2, 0, 5]
    assert not kept.indices.flags.writeable


def test_solution_map_equality():
    sm = SolutionMap(MapKind.EXPLICIT_DUAL, side="dual", values=[-1.0, -0.5], indices=[3])
    assert sm == SolutionMap(MapKind.EXPLICIT_DUAL, side="dual", values=(-1.0, -0.5),
                             indices=np.array([3]))
    for other in (
        SolutionMap(MapKind.EXPLICIT_DUAL, side="primal", values=[-1.0, -0.5], indices=[3]),
        SolutionMap(MapKind.EXPLICIT_DUAL, side="dual", values=[-1.0, -0.25], indices=[3]),
        SolutionMap(MapKind.EXPLICIT_DUAL, side="dual", values=[-1.0, -0.5], indices=[2]),
        SolutionMap(MapKind.EXPLICIT_DUAL, side="dual", values=[-1.0], indices=[]),
        SolutionMap(MapKind.DUAL_SCALED, side="dual", values=[-1.0, -0.5], indices=[3]),
    ):
        assert sm != other
    assert SolutionMap(MapKind.IDENTITY) == SolutionMap(MapKind.IDENTITY)
    # an empty array is not None; a kind that reads no indices may hold either
    assert SolutionMap(MapKind.IDENTITY, indices=[]) != SolutionMap(MapKind.IDENTITY)



@pytest.mark.parametrize("kwargs", [
    {"indices": [-1]},
    {"indices": [0, -3]},
    {"indices": [[0, 1]]},
    {"values": 2.0},
    {"values": [[1.0]]},
    {"side": "both"},
])
def test_solution_map_rejects_bad_fields(kwargs):
    with pytest.raises(InputError):
        SolutionMap(MapKind.RESTRICTED_TO, **kwargs)


def _replay_loop(sm, x, lam):
    """Test-only reference: the replay as it was written on tuples, one entry
    at a time, with EXPLICIT_DUAL's a_col expanded to a dense m-vector."""
    x, lam = x.tolist(), lam.tolist()
    values = None if sm.values is None else sm.values.tolist()
    indices = None if sm.indices is None else sm.indices.tolist()
    primal = sm.side == "primal"
    if sm.kind is MapKind.PRIMAL_SCALED:
        x = [xi * v for xi, v in zip(x, values)]
    elif sm.kind is MapKind.DUAL_SCALED:
        lam = [li * v for li, v in zip(lam, values)]
    elif sm.kind is MapKind.RESTRICTED_TO:
        if primal:
            x = [x[i] for i in indices]
        else:
            lam = [lam[i] for i in indices]
    elif sm.kind is MapKind.EXTENDED_WITH_ZEROS:
        fresh = set(indices)
        if primal:
            old = iter(x)
            x = [0.0 if i in fresh else next(old) for i in range(len(x) + len(fresh))]
        else:
            old = iter(lam)
            lam = [0.0 if i in fresh else next(old) for i in range(len(lam) + len(fresh))]
    elif sm.kind is MapKind.EXPLICIT_DUAL:
        a_col = [0.0] * len(lam)
        for i, v in zip(indices, values[1:]):
            a_col[i] = v
        x = x + [0.0]
        lam = lam + [-(values[0] + float(np.dot(a_col, lam)))]
    return np.array(x), np.array(lam)


@pytest.mark.parametrize("strengths, interpolate", [
    (SSL_STRENGTHS_QP, False), (COMBO_STRENGTHS, True),
], ids=["views", "combo"])
def test_map_solution_matches_loop_reference(monkeypatch, strengths, interpolate):
    # the spy sits on the per-record step that map_solution and the add-vars
    # batch in apply_policy both call
    calls = []
    map_pair = transforms_module._map_pair

    def spy(sm, x, lam):
        x_out, lam_out = map_pair(sm, x, lam)
        calls.append((sm, x, lam, SimpleNamespace(x=x_out, lam=lam_out)))
        return x_out, lam_out

    monkeypatch.setattr(transforms_module, "_map_pair", spy)
    for seed in range(4):
        inst = gen_qp(100, 100, 0.05, 0.05, seed=seed)
        sol = solve_splitting(inst)
        for copy in range(12):
            policy = AugmentPolicy(strengths, interpolate=interpolate, seed=10 * seed + copy)
            apply_policy(inst, policy, sol)
    kinds = set()
    for sm, x, lam, out in calls:
        kinds.add(sm.kind)
        x_ref, lam_ref = _replay_loop(sm, x, lam)
        assert np.array_equal(out.x, x_ref)
        if sm.kind is MapKind.EXPLICIT_DUAL:
            # _policy_add_vars gives a_col at most 3 nonzeros, all stored
            assert 1 <= sm.indices.size <= 3 and sm.values.size == sm.indices.size + 1
            assert np.all(sm.values[1:] != 0.0)
            assert np.array_equal(out.lam[:-1], lam_ref[:-1])
            assert out.lam[-1] == pytest.approx(lam_ref[-1], rel=1e-12, abs=0.0)
        else:
            assert np.array_equal(out.lam, lam_ref)
    expected = {
        MapKind.DUAL_SCALED, MapKind.PRIMAL_SCALED, MapKind.RESTRICTED_TO,
        MapKind.EXTENDED_WITH_ZEROS,
    }
    if strengths is SSL_STRENGTHS_QP:
        expected.add(MapKind.EXPLICIT_DUAL)
    assert kinds == expected


# ------------------------------------------------------------ batched add-vars

def _add_vars_loop(inst, policy, sol):
    """Test-only reference: apply_policy's add-vars as one build and one
    map_solution per variable, each draw made on the instance so far."""
    rng = derive_rng(policy.seed, inst.name, "add-vars")
    cur, cur_sol, records = inst, sol, []
    for _ in range(int(policy.strengths["add-vars"] * inst.n)):
        if cur.kind is ProblemKind.LP:
            q_diag = 0.0
        else:
            trace = float(cur.q.vals[cur.q.rows == cur.q.cols].sum())
            q_diag = 1e-2 * trace / cur.n
        a_col = np.zeros(cur.m)
        if cur.m:
            picked = rng.choice(cur.m, size=min(3, cur.m), replace=False)
            a_col[picked] = -np.abs(rng.standard_normal(picked.size))
        c_new = -abs(rng.standard_normal())
        cur, rec = add_variable_constrained(cur, q_diag=q_diag, a_col=a_col, c_new=c_new)
        records.append(rec)
        if cur_sol is not None:
            cur_sol = map_solution(rec, cur, cur_sol)
    return cur, cur_sol, records


def _unconstrained_qp():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((6, 6))
    return make_instance(g @ g.T + np.eye(6), np.zeros((0, 6)), [], rng.standard_normal(6),
                         name="free")


ADD_VARS_INSTANCES = {
    "qp": lambda: gen_qp(12, 10, 0.3, 0.3, seed=3),
    "lp": lambda: gen_lp(12, 10, 0.3, 3, bounded=True),
    "qp-m0": _unconstrained_qp,
}


def _bits(arr):
    return np.asarray(arr).tobytes()


@pytest.mark.parametrize("count", [1, 30])
@pytest.mark.parametrize("labeled", [False, True], ids=["unlabeled", "labeled"])
@pytest.mark.parametrize("family", sorted(ADD_VARS_INSTANCES))
def test_add_vars_batch_matches_loop_reference(family, labeled, count):
    inst = ADD_VARS_INSTANCES[family]()
    sol = None
    if labeled:
        sol = solve_splitting(inst) if inst.m else Solution.from_primal_dual(
            inst, np.linalg.solve(inst.q.to_dense(), -inst.c), np.empty(0))
    policy = AugmentPolicy({"add-vars": (count + 0.5) / inst.n}, ops_per_instance=1,
                           interpolate=False, seed=5)
    out, out_sol, records = apply_policy(inst, policy, sol)
    ref, ref_sol, ref_records = _add_vars_loop(inst, policy, sol)
    assert len(records) == count and records == ref_records
    assert out.provenance == ref.provenance
    assert out.kind is ref.kind is inst.kind
    assert (out.n, out.m) == (inst.n + count, inst.m + count)
    for got, want in ((out.q, ref.q), (out.a, ref.a)):
        assert got.shape == want.shape
        assert _bits(got.rows) == _bits(want.rows) and _bits(got.cols) == _bits(want.cols)
        assert _bits(got.vals) == _bits(want.vals)
    assert _bits(out.b) == _bits(ref.b) and _bits(out.c) == _bits(ref.c)
    if family == "lp":
        assert out.q.nnz == 0 and all(r.params == {"q_diag": 0.0} for r in records)
    if family == "qp-m0":
        # the first draw has no row to pick; the second may pick its pin row
        assert records[0].solution_map.indices.size == 0
        assert count == 1 or records[1].solution_map.indices.tolist() == [0]
    if sol is None:
        assert out_sol is None and ref_sol is None
    else:
        assert _bits(out_sol.x) == _bits(ref_sol.x)
        assert _bits(out_sol.lam) == _bits(ref_sol.lam)
        assert _bits(out_sol.slack) == _bits(ref_sol.slack)
        assert out_sol.objective == ref_sol.objective


def test_map_solution_takes_one_record_or_an_ops_records():
    inst = ADD_VARS_INSTANCES["qp"]()
    sol = solve_splitting(inst)
    policy = AugmentPolicy({"add-vars": 3.5 / inst.n}, ops_per_instance=1,
                           interpolate=False, seed=5)
    out, out_sol, records = apply_policy(inst, policy, sol)
    assert len(records) == 3
    for batch in (records, tuple(records)):
        got = map_solution(batch, out, sol)
        assert _bits(got.x) == _bits(out_sol.x) and _bits(got.lam) == _bits(out_sol.lam)
    scaled, rec = scale_variables(inst, np.full(inst.n, 2.0))
    one, listed = map_solution(rec, scaled, sol), map_solution([rec], scaled, sol)
    assert _bits(one.x) == _bits(listed.x) and _bits(one.lam) == _bits(listed.lam)


@pytest.mark.parametrize("strengths, interpolate", [
    (SSL_STRENGTHS_QP, False), (COMBO_STRENGTHS, True),
], ids=["views", "combo"])
def test_apply_policy_carries_labels_through_map_solution(monkeypatch, strengths, interpolate):
    # the module's map_solution is the name a caller or a tracer sees, so
    # apply_policy reads it once per applied op, with that op's records
    batches = []
    original = transforms_module.map_solution

    def spy(records, new_inst, sol):
        batches.append(list(records))
        return original(records, new_inst, sol)

    inst = gen_qp(100, 100, 0.05, 0.05, seed=0)
    sol = solve_splitting(inst)
    results = []
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(transforms_module, "map_solution", spy)
        results.append([apply_policy(inst, AugmentPolicy(strengths, interpolate=interpolate,
                                                          seed=copy), sol)
                        for copy in range(6)])
    assert batches
    assert all(len({rec.op_name for rec in batch}) == 1 for batch in batches)
    assert [rec for batch in batches for rec in batch] == [
        rec for _, _, records in results[1] for rec in records]
    for (_, want, _), (_, got, _) in zip(*results):
        assert _bits(got.x) == _bits(want.x) and _bits(got.lam) == _bits(want.lam)


# ------------------------------------------------------------ public-op bytes

# sha256 of the file save_instance writes for each public addition op and
# bias_instance applied to a seeded QP and LP, with the mapped solution;
# recorded while add_constraints still built its rows through scipy, and
# re-pinned once when coordinates became packed keys and once when they
# became packed gaps and the generator witness a packed float string (each
# time the files written before load to the same arrays, bit for bit); the
# qp entries were re-pinned once more when the positive definite polish
# stopped factoring the full KKT, and again when the solver's Cholesky
# factors and triangular solves became numpy's own, each of which moved the
# QP label in its last bits, and the lp entries stayed as they were; the lp
# entries were re-pinned once when LPs came to polish on the Schur
# complement of a shifted empty Q instead of a dense LU of the full KKT,
# which moved the LP label in its last bits (objective by 1.4e-16 relative
# at most), and the qp entries stayed; every entry was re-pinned once when
# the generators came to build Q as D^1/2 (I + S) D^1/2 and to sum b without
# BLAS, which changed the seeded QP and moved the LP's b in its last bits
PINNED_PUBLIC_OPS_SHA256 = {
    "lp_add_constraints.json":
        "250656d26f42b6e4b827087b798efa08862d50525c33c9519833f71fd3d8c1be",
    "lp_add_variable_constrained.json":
        "7d58c9ffcd91451b93e9d95f6394fc280515e519050e79fd1efb65dc92e132cd",
    "lp_bias_instance.json":
        "855c7c062f9ffcc6fbf47c9985b7b8bfab400a10ec861b20a10dba3bb78be651",
    "qp_add_constraints.json":
        "abe8ee8e5a70b58d8c835fc5b169bdf7b109863d05a513f18cd7484f1733d9e4",
    "qp_add_variable_biased.json":
        "c980aacf0d65b3a4abd78d88d517fccec748515b98ae8d5ed163b055a714b68c",
    "qp_add_variable_constrained.json":
        "d21c4889d004c948435bc5db76588eeef3c4f2ffa712cac19ccc5fb80f0f3f0d",
    "qp_add_variables.json":
        "0958722d6a1324de35a21a279ead4005b563a47250009481cb0d0e0116640b54",
    "qp_bias_instance.json":
        "dfe7bbf5a07a916d87a22dadd08fbbc065ee94c886e3f4410895f5aea369244e",
}


def test_public_addition_and_bias_ops_bytes_pinned(tmp_path):
    """A change to the arithmetic of an addition op or bias_instance, or to
    the instance it builds, shows here as a changed file."""
    digests = {}
    for label, inst in (("qp", gen_qp(12, 8, 0.4, 0.4, seed=21)),
                        ("lp", gen_lp(12, 8, 0.4, 21, bounded=True))):
        sol = solve_splitting(inst)
        rng = np.random.default_rng(5)
        n, m = inst.n, inst.m
        weights = np.zeros((3, m))
        for w in weights:
            w[rng.choice(m, size=3, replace=False)] = rng.random(3) + 1e-9
        half = rng.random(m) < 0.5
        results = {
            "add_variable_constrained": add_variable_constrained(
                inst, 0.0 if inst.kind is ProblemKind.LP else 0.5,
                -np.abs(rng.standard_normal(m)) * ~half, -0.3),
            "add_constraints": add_constraints(inst, weights),
            "bias_instance": bias_instance(inst, sol, rank=2, magnitude=0.25, seed=9),
        }
        if inst.kind is ProblemKind.QP:
            # add_variables needs a positive definite Q; add_variable_biased on
            # an LP is test_add_variable_biased_upgrades_lp_to_qp
            results["add_variables"] = add_variables(inst, rng.standard_normal(n))
            results["add_variable_biased"] = add_variable_biased(
                inst, sol, 0.7, rng.standard_normal(m) * half)
        for op, (out, rec) in results.items():
            path = tmp_path / f"{label}_{op}.json"
            save_instance(path, out, map_solution(rec, out, sol))
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == PINNED_PUBLIC_OPS_SHA256
