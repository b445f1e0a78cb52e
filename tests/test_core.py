"""Problem types, residual checks, and the definiteness certificate."""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qpaug import (
    Definiteness,
    InputError,
    LcqpInstance,
    ProblemKind,
    Solution,
    SparseMatrix,
    kkt_residuals,
    objective,
    partition_constraints,
    permute_instance,
    psd_certificate,
)
from qpaug.generators import gen_qp

from conftest import generated_parity_matrices, make_instance, parity_matrices


# ---------------------------------------------------------------- SparseMatrix

def test_sparse_canonical_order_and_zero_drop():
    m = SparseMatrix(2, 2, rows=[1, 0, 0], cols=[0, 1, 0], vals=[3.0, 2.0, 0.0])
    assert m.nnz == 2
    assert m.rows.tolist() == [0, 1]
    assert m.cols.tolist() == [1, 0]
    assert m.vals.tolist() == [2.0, 3.0]


def test_sparse_duplicate_entry_rejected():
    with pytest.raises(InputError):
        SparseMatrix(2, 2, rows=[0, 0], cols=[1, 1], vals=[1.0, 2.0])


def test_sparse_index_out_of_range():
    with pytest.raises(InputError):
        SparseMatrix(2, 2, rows=[2], cols=[0], vals=[1.0])
    with pytest.raises(InputError):
        SparseMatrix(2, 2, rows=[0], cols=[-1], vals=[1.0])


def test_sparse_nonfinite_rejected():
    with pytest.raises(InputError):
        SparseMatrix(1, 1, rows=[0], cols=[0], vals=[np.nan])


def test_sparse_dense_round_trip():
    dense = np.array([[0.0, 1.5], [-2.0, 0.0], [0.0, 3.0]])
    m = SparseMatrix.from_dense(dense)
    assert m.shape == (3, 2)
    assert np.array_equal(m.to_dense(), dense)


def test_sparse_from_scipy_sums_duplicates():
    coo = sp.coo_matrix(([1.0, 2.0], ([0, 0], [0, 0])), shape=(1, 1))
    m = SparseMatrix.from_scipy(coo)
    assert m.nnz == 1
    assert m.vals[0] == 3.0


def test_sparse_equality_ignores_representation_history():
    a = SparseMatrix(2, 2, rows=[0, 1], cols=[1, 0], vals=[1.0, 2.0])
    b = SparseMatrix(2, 2, rows=[1, 0], cols=[0, 1], vals=[2.0, 1.0])
    assert a == b
    assert a != SparseMatrix.zeros(2, 2)


def test_sparse_matvec_row_norms():
    m = SparseMatrix.from_dense([[3.0, 4.0], [0.0, 1.0]])
    assert np.allclose(m.matvec([1.0, 1.0]), [7.0, 1.0])
    assert np.allclose(m.rmatvec([1.0, 0.0]), [3.0, 4.0])
    assert np.allclose(m.row_norms(), [5.0, 1.0])


def test_sparse_symmetry_detects_value_mismatch():
    assert SparseMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]]).is_symmetric()
    assert not SparseMatrix.from_dense([[1.0, 2.0], [3.0, 1.0]]).is_symmetric()
    assert not SparseMatrix.from_dense([[1.0, 2.0]]).is_symmetric()


def test_sparse_symmetry_is_checked_once(e1, monkeypatch):
    """A matrix never changes, so is_symmetric sorts once: the q that
    LcqpInstance checked answers again, and builds the instance's graph,
    with no sort; a matrix not yet asked still sorts."""
    from qpaug import to_bipartite_graph

    asymmetric = SparseMatrix.from_dense([[1.0, 2.0], [3.0, 1.0]])

    def no_sort(*args, **kwargs):
        raise AssertionError("sorted again")

    monkeypatch.setattr(np, "argsort", no_sort)
    assert e1.q.is_symmetric() and e1.q.is_symmetric()
    assert to_bipartite_graph(e1).q is e1.q
    with pytest.raises(AssertionError, match="sorted again"):
        asymmetric.is_symmetric()


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 1000))
def test_sparse_dense_round_trip_random(n_rows, n_cols, seed):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < 0.4)
    m = SparseMatrix.from_dense(dense)
    assert np.array_equal(m.to_dense(), dense)
    assert m.nnz == np.count_nonzero(dense)


def _symmetric_by_lexsort(m):
    t = np.lexsort((m.rows, m.cols))
    return (m.n_rows == m.n_cols and np.array_equal(m.rows, m.cols[t])
            and np.array_equal(m.cols, m.rows[t]) and np.array_equal(m.vals, m.vals[t]))


@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 1000))
def test_sparse_sort_key_matches_lexsort(n_rows, n_cols, seed):
    """Entries given shuffled are stored in np.lexsort's (row, col) order,
    and is_symmetric agrees with a lexsort of the transposed entries."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < 0.3)
    rows, cols = np.nonzero(dense)
    shuffle = rng.permutation(rows.size)
    rows, cols = rows[shuffle], cols[shuffle]
    m = SparseMatrix(n_rows, n_cols, rows, cols, dense[rows, cols])
    ref = np.lexsort((cols, rows))
    assert np.array_equal(m.rows, rows[ref]) and np.array_equal(m.cols, cols[ref])
    assert np.array_equal(m.vals, dense[rows, cols][ref])

    k = min(n_rows, n_cols)
    sym = SparseMatrix.from_dense(dense[:k, :k] + dense[:k, :k].T)
    bumped = SparseMatrix(k, k, sym.rows, sym.cols, sym.vals + (np.arange(sym.nnz) == 0))
    assert sym.is_symmetric()
    for mat in (m, sym, bumped):
        assert mat.is_symmetric() == _symmetric_by_lexsort(mat)


@given(st.sampled_from([(1, 1), (7, 5), (40, 40), (300, 300), (3, 70_000), (70_000, 70_000)]),
       st.integers(0, 10**6))
def test_sparse_presorted_and_shuffled_store_alike(shape, seed):
    """Entries given in canonical order (the branch that skips the sort) and
    the same entries shuffled are stored identically; a duplicate is refused
    either way; is_symmetric agrees with a lexsort of the transposed entries
    at every column dtype its radix sort may use."""
    n_rows, n_cols = shape
    rng = np.random.default_rng(seed)
    nnz = int(rng.integers(1, min(n_rows * n_cols, 200) + 1))
    keys = np.sort(rng.choice(n_rows * n_cols, size=nnz, replace=False))
    rows, cols = np.divmod(keys, n_cols)
    vals = rng.standard_normal(nnz)
    shuffle = rng.permutation(nnz)
    for m in (SparseMatrix(n_rows, n_cols, rows, cols, vals),
              SparseMatrix(n_rows, n_cols, rows[shuffle], cols[shuffle], vals[shuffle])):
        assert m.rows.tobytes() == rows.tobytes() and m.cols.tobytes() == cols.tobytes()
        assert m.vals.tobytes() == vals.tobytes()
        assert m.is_symmetric() == _symmetric_by_lexsort(m)

    dup = np.sort(np.append(keys, keys[rng.integers(nnz)]))
    d_rows, d_cols = np.divmod(dup, n_cols)
    d_vals = rng.standard_normal(dup.size)
    perm = rng.permutation(dup.size)
    for order in (slice(None), perm):
        with pytest.raises(InputError, match="duplicate"):
            SparseMatrix(n_rows, n_cols, d_rows[order], d_cols[order], d_vals[order])

    up, off = rows <= cols, rows < cols
    if n_rows == n_cols and up.any():  # the upper entries mirrored, then one value changed
        sym = SparseMatrix(n_rows, n_cols, np.append(rows[up], cols[off]),
                           np.append(cols[up], rows[off]), np.append(vals[up], vals[off]))
        bumped = SparseMatrix(n_rows, n_cols, sym.rows, sym.cols,
                              sym.vals + (np.arange(sym.nnz) == rng.integers(sym.nnz)))
        assert sym.is_symmetric() and _symmetric_by_lexsort(sym)
        assert bumped.is_symmetric() == _symmetric_by_lexsort(bumped)


def test_constructors_leave_callers_arrays_writeable(e1):
    """Stored arrays are read-only copies: the caller's arrays stay writeable,
    and writing them afterwards changes nothing stored."""
    shuffled = np.array([1, 0]), np.array([0, 1]), np.array([3.0, 2.0])
    in_order = np.array([0, 1]), np.array([1, 0]), np.array([2.0, 3.0])  # no sort needed
    b, c, x, lam = np.ones(3), np.zeros(2), np.array([0.5, 0.5]), np.array([1.0, 0.0, 0.0])
    mats = [SparseMatrix(2, 2, *arrays) for arrays in (shuffled, in_order)]
    inst = LcqpInstance(q=e1.q, a=e1.a, b=b, c=c, kind=e1.kind)
    sol = Solution.from_primal_dual(e1, x, lam)
    for arr in (*shuffled, *in_order, b, c, x, lam):
        assert arr.flags.writeable
        arr[0] = 1
    for m in mats:
        assert (m.rows.tolist(), m.cols.tolist(), m.vals.tolist()) == ([0, 1], [1, 0], [2.0, 3.0])
    assert inst.b.tolist() == [1.0] * 3 and inst.c.tolist() == [0.0] * 2
    assert sol.x.tolist() == [0.5, 0.5] and sol.lam.tolist() == [1.0, 0.0, 0.0]


def _wide_range_sparse(rng, n_rows, n_cols, decades=6):
    """Random signs and magnitudes 1e-decades .. 1e+decades, about half the
    entries zero, with one row and one column emptied when there are any."""
    dense = np.where(rng.random((n_rows, n_cols)) < 0.5, 0.0,
                     rng.choice([-1.0, 1.0], (n_rows, n_cols))
                     * 10.0 ** rng.uniform(-decades, decades, (n_rows, n_cols)))
    if n_rows and n_cols:
        dense[rng.integers(n_rows)] = 0.0
        dense[:, rng.integers(n_cols)] = 0.0
    return SparseMatrix.from_dense(dense)


@settings(max_examples=500)
@given(st.integers(0, 20), st.integers(0, 20), st.integers(1, 4), st.integers(0, 10**6))
def test_products_bit_identical_to_scipy(n_rows, n_cols, k, seed):
    """matvec, rmatvec and add_constraints' rows W A hold the same bytes as
    scipy's csr @ x, csr.T @ y and (csr.T @ W.T).T, m = 0 included."""
    from qpaug import add_constraints

    rng = np.random.default_rng(seed)
    a = _wide_range_sparse(rng, n_rows, n_cols)
    csr = sp.csr_matrix(a.to_dense())
    x = rng.standard_normal(n_cols) * 10.0 ** rng.uniform(-6, 6, n_cols)
    y = rng.standard_normal(n_rows) * 10.0 ** rng.uniform(-6, 6, n_rows)
    assert a.matvec(x).tobytes() == (csr @ x).tobytes()
    assert a.rmatvec(y).tobytes() == (csr.T @ y).tobytes()
    if not (n_rows and n_cols):
        return
    w = np.where(rng.random((k, n_rows)) < 0.5, 0.0, 10.0 ** rng.uniform(-6, 6, (k, n_rows)))
    w[np.arange(k), rng.integers(n_rows, size=k)] = 1.0  # no all-zero weight row
    inst = LcqpInstance(q=SparseMatrix.zeros(n_cols, n_cols), a=a, b=np.zeros(n_rows),
                        c=np.zeros(n_cols), kind=ProblemKind.LP)
    out, _ = add_constraints(inst, w)
    assert out.a.to_dense()[n_rows:].tobytes() == (csr.T @ w.T).T.tobytes()


@settings(max_examples=300)
@given(st.integers(0, 20), st.integers(0, 20), st.sampled_from([1, 3, 16]), st.integers(0, 10**6))
def test_row_sums_bit_identical_to_scipy(n_rows, n_cols, width, seed):
    """_ordered_sum over (nnz, width) terms by their `_row_keys` holds the
    same bytes as scipy's csr @ H and csr.T @ Y for (n, width) operands:
    each output adds its terms in storage order from 0.0, m = 0 included."""
    from qpaug.core import _ordered_sum, _row_keys

    rng = np.random.default_rng(seed)
    a = _wide_range_sparse(rng, n_rows, n_cols)
    csr = sp.csr_matrix(a.to_dense())
    h = rng.standard_normal((n_cols, width)) * 10.0 ** rng.uniform(-6, 6, (n_cols, width))
    y = rng.standard_normal((n_rows, width)) * 10.0 ** rng.uniform(-6, 6, (n_rows, width))
    vals = a.vals[:, None]
    rows = _ordered_sum(_row_keys(a.rows, width), vals * h[a.cols], n_rows)
    cols = _ordered_sum(_row_keys(a.cols, width), vals * y[a.rows], n_cols)
    assert rows.shape == (n_rows, width) and cols.shape == (n_cols, width)
    assert rows.dtype == cols.dtype == np.float64
    assert rows.tobytes() == (csr @ h).tobytes()
    assert cols.tobytes() == (csr.T @ y).tobytes()


def test_products_reject_misshapen_operands():
    """scipy took a 2-D operand as a matrix product; a bare x[cols] would read
    a longer vector's head.  Both shapes are refused."""
    a = SparseMatrix.from_dense([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
    assert a.matvec([1.0, 1.0, 1.0]).tolist() == [3.0, 3.0]
    assert a.rmatvec([1.0, 1.0]).tolist() == [1.0, 3.0, 2.0]
    for bad in ([1.0, 1.0, 1.0, 1.0], [1.0, 1.0], np.ones((3, 1)), np.ones((3, 2)), 1.0):
        with pytest.raises(InputError, match="x must have shape"):
            a.matvec(bad)
    for bad in ([1.0, 1.0, 1.0], [1.0], np.ones((2, 1)), np.ones((1, 2)), 1.0):
        with pytest.raises(InputError, match="y must have shape"):
            a.rmatvec(bad)


@settings(max_examples=200)
@given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 10**6))
def test_row_norms_sum_in_storage_order(n_rows, n_cols, seed):
    """row_norms adds each row's squares in storage order from 0.0, the one
    summation rule of matvec and rmatvec: bit for bit a sequential loop, with
    magnitudes from 1e-20 to 1e20."""
    a = _wide_range_sparse(np.random.default_rng(seed), n_rows, n_cols, decades=20)
    sq = [0.0] * n_rows
    for row, val in zip(a.rows.tolist(), a.vals.tolist()):
        sq[row] += val * val
    assert a.row_norms().tobytes() == np.sqrt(np.array(sq, dtype=np.float64)).tobytes()


# ---------------------------------------------------------------- LcqpInstance

def test_instance_validation_errors():
    q = SparseMatrix.zeros(2, 2)
    a = SparseMatrix.from_dense([[1.0, 1.0]])
    with pytest.raises(InputError):
        LcqpInstance(q=q, a=a, b=[1.0, 2.0], c=[0.0, 0.0], kind=ProblemKind.LP)
    with pytest.raises(InputError):
        LcqpInstance(q=q, a=SparseMatrix.zeros(1, 3), b=[1.0], c=[0.0, 0.0], kind=ProblemKind.LP)
    asym = SparseMatrix(2, 2, rows=[0], cols=[1], vals=[1.0])
    with pytest.raises(InputError):
        LcqpInstance(q=asym, a=a, b=[1.0], c=[0.0, 0.0], kind=ProblemKind.QP)


def test_lp_requires_empty_quadratic():
    q = SparseMatrix.from_dense([[1.0]])
    a = SparseMatrix.from_dense([[1.0]])
    with pytest.raises(InputError):
        LcqpInstance(q=q, a=a, b=[1.0], c=[0.0], kind=ProblemKind.LP)


def test_instance_data_equal_ignores_name(e1):
    other = LcqpInstance(q=e1.q, a=e1.a, b=e1.b, c=e1.c, kind=e1.kind, name="else")
    assert e1.data_equal(other)
    assert not e1.data_equal(
        LcqpInstance(q=e1.q, a=e1.a, b=e1.b + 1.0, c=e1.c, kind=e1.kind)
    )


def test_solution_rejects_negative_duals(e1):
    with pytest.raises(InputError):
        Solution.from_primal_dual(e1, np.zeros(2), np.array([-1.0, 0.0, 0.0]))


def test_solution_arrays_frozen(e1, e1_sol):
    with pytest.raises(ValueError):
        e1_sol.x[0] = 2.0


# ------------------------------------------------------------------- objective

def test_objective_e1(e1):
    assert objective(e1, np.array([0.5, 0.5])) == pytest.approx(-1.5, abs=1e-15)


def test_objective_zero_vector():
    inst = make_instance([[0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0]], [1.0], [1.0, 1.0], kind=ProblemKind.LP)
    assert objective(inst, np.zeros(2)) == 0.0


def test_objective_one_var():
    inst = make_instance([[1.0]], [[1.0]], [5.0], [0.0])
    assert objective(inst, np.array([3.0])) == pytest.approx(4.5, abs=1e-15)


@given(st.integers(0, 500))
def test_objective_matches_dense_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    h = rng.standard_normal((n, n))
    q = h @ h.T
    q = (q + q.T) / 2
    c = rng.standard_normal(n)
    x = rng.standard_normal(n)
    inst = make_instance(q, np.zeros((1, n)), [1.0], c)
    ref = 0.5 * x @ q @ x + c @ x
    assert objective(inst, x) == pytest.approx(ref, rel=1e-12, abs=1e-12)


# --------------------------------------------------------------- kkt_residuals

def test_kkt_residuals_e1_optimum(e1, e1_sol):
    rep = kkt_residuals(e1, e1_sol)
    assert rep.max_residual <= 1e-12


def test_kkt_residuals_origin_with_slack():
    inst = make_instance([[1.0]], [[1.0]], [1.0], [0.0])
    sol = Solution.from_primal_dual(inst, np.zeros(1), np.zeros(1))
    rep = kkt_residuals(inst, sol)
    assert rep.max_residual == 0.0


def test_kkt_residuals_primal_violation(e1):
    sol = Solution.from_primal_dual(e1, np.array([1.0, 1.0]), np.zeros(3))
    rep = kkt_residuals(e1, sol)
    assert rep.primal_violation == pytest.approx(1.0, abs=1e-15)


def test_kkt_residuals_relative_scaling(e1):
    sol = Solution.from_primal_dual(e1, np.array([1.0, 1.0]), np.zeros(3))
    raw = kkt_residuals(e1, sol, relative=False)
    rel = kkt_residuals(e1, sol, relative=True)
    assert rel.primal_violation == pytest.approx(raw.primal_violation / (1.0 + 1.0))
    assert rel.stationarity_inf_norm == pytest.approx(raw.stationarity_inf_norm / (1.0 + 2.0))
    # dual and complementarity stay absolute
    assert rel.dual_violation == raw.dual_violation
    assert rel.complementarity == raw.complementarity


def test_kkt_report_max_residual():
    from qpaug import KktReport

    rep = KktReport(1e-3, 2e-3, 0.0, 5e-4, relative=False)
    assert rep.max_residual == 2e-3


def test_kkt_residuals_raw_matches_checked(e1, e1_sol):
    from qpaug import kkt_residuals_raw

    checked = kkt_residuals(e1, e1_sol, relative=True)
    raw = kkt_residuals_raw(e1, e1_sol.x, e1_sol.lam, relative=True)
    assert raw == checked


def test_kkt_residuals_raw_scores_negative_duals(e1, e1_sol):
    from qpaug import kkt_residuals_raw

    lam_bad = e1_sol.lam.copy()
    lam_bad[0] = -lam_bad[0]
    rep = kkt_residuals_raw(e1, e1_sol.x, lam_bad)
    assert rep.dual_violation == 1.0
    with pytest.raises(InputError):
        kkt_residuals_raw(e1, e1_sol.x, lam_bad[:-1])


# ------------------------------------------------------- partition_constraints

def test_partition_e1(e1, e1_sol):
    part = partition_constraints(e1, e1_sol, tol=1e-6)
    assert part.active == (0,)
    assert part.inactive == (1, 2)


def test_partition_all_inactive():
    inst = make_instance([[1.0]], [[1.0]], [5.0], [0.0])
    sol = Solution.from_primal_dual(inst, np.zeros(1), np.zeros(1))
    part = partition_constraints(inst, sol, tol=1e-6)
    assert part.active == ()
    assert part.inactive == (0,)


def test_partition_exact_equality_is_active():
    inst = make_instance([[1.0]], [[1.0], [1.0]], [2.0, 2.0], [-2.0])
    sol = Solution.from_primal_dual(inst, np.array([2.0]), np.array([0.0, 0.0]))
    part = partition_constraints(inst, sol, tol=1e-6)
    assert part.active == (0, 1)


@given(st.integers(0, 200))
def test_partition_invariant_under_row_permutation(seed):
    rng = np.random.default_rng(seed)
    n, m = 3, 6
    a = rng.standard_normal((m, n))
    x = rng.standard_normal(n)
    b = a @ x + rng.choice([0.0, 1.0], size=m)
    inst = make_instance(np.eye(n), a, b, -x)
    sol = Solution.from_primal_dual(inst, x, np.zeros(m))
    perm = rng.permutation(m)
    pinst = permute_instance(inst, np.arange(n), perm)
    psol = Solution.from_primal_dual(pinst, x, np.zeros(m))
    base = partition_constraints(inst, sol, tol=1e-6)
    mapped = partition_constraints(pinst, psol, tol=1e-6)
    assert sorted(perm[list(base.active)].tolist()) == list(mapped.active)


# ------------------------------------------------------------- psd_certificate

def test_psd_certificate_pd():
    assert psd_certificate(SparseMatrix.from_dense(2 * np.eye(2))) is Definiteness.PD


def test_psd_certificate_psd_rank_one():
    q = SparseMatrix.from_dense([[1.0, 1.0], [1.0, 1.0]])
    assert psd_certificate(q) is Definiteness.PSD


def test_psd_certificate_indefinite():
    q = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
    assert psd_certificate(q) is Definiteness.INDEFINITE


def test_psd_certificate_zero_matrix_is_psd():
    assert psd_certificate(SparseMatrix.zeros(3, 3)) is Definiteness.PSD


@pytest.mark.parametrize("seed", range(3))
def test_pivoted_cholesky_factor_of_a_pd_matrix(seed):
    """A generated QP's Q passes dpstrf's pivoted elimination in full: PD."""
    q = gen_qp(5, 30, 0.3, 0.1, seed=seed).q
    assert psd_certificate(q) is Definiteness.PD


def test_psd_certificate_rejects_asymmetric():
    with pytest.raises(InputError):
        psd_certificate(SparseMatrix.from_dense([[1.0, 2.0], [0.0, 1.0]]))


@given(st.integers(0, 300))
def test_psd_certificate_gram_matrices(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    r = int(rng.integers(1, n + 1))
    g = rng.standard_normal((n, r))
    q = g @ g.T
    q = (q + q.T) / 2
    verdict = psd_certificate(SparseMatrix.from_dense(q))
    assert verdict in (Definiteness.PD, Definiteness.PSD)
    if r < n:
        assert verdict is Definiteness.PSD


@given(st.integers(0, 300))
def test_psd_certificate_shifted_negative(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    g = rng.standard_normal((n, n))
    q = g @ g.T
    q = (q + q.T) / 2
    shift = float(np.linalg.eigvalsh(q).max()) + 1.0
    ind = q.copy()
    ind[0, 0] -= shift
    assert psd_certificate(SparseMatrix.from_dense((ind + ind.T) / 2)) is Definiteness.INDEFINITE



def _psd_certificate_loop(q: SparseMatrix, tol=None) -> Definiteness:
    """Reference: greedy-pivot Cholesky elimination in Python, one pivot at a
    time, with the stall test psd_certificate applies."""
    n = q.n_rows
    h = q.to_dense()
    scale = max(1.0, float(np.abs(np.diag(h)).max()) if n else 1.0)
    if tol is None:
        tol = 1e-10 * scale
    off_limit = max(tol, np.sqrt(tol * scale))
    for k in range(n):
        sub = h[k:, k:]
        d = np.diag(sub)
        j = int(np.argmax(d))
        piv = d[j]
        if piv <= tol:
            if d.min() < -tol:
                return Definiteness.INDEFINITE
            off = sub - np.diag(d)
            if off.size and np.abs(off).max() > off_limit:
                return Definiteness.INDEFINITE
            return Definiteness.PSD
        if j != 0:
            jj = k + j
            h[[k, jj], :] = h[[jj, k], :]
            h[:, [k, jj]] = h[:, [jj, k]]
        col = h[k + 1 :, k]
        h[k + 1 :, k + 1 :] -= np.outer(col, col) / piv
    return Definiteness.PD


@pytest.mark.parametrize("name", sorted(parity_matrices()))
def test_psd_certificate_matches_reference_loop(name):
    dense = parity_matrices()[name]
    q = SparseMatrix.from_dense((dense + dense.T) / 2)
    assert psd_certificate(q) is _psd_certificate_loop(q)


@pytest.mark.parametrize("name", sorted(generated_parity_matrices()))
def test_psd_certificate_matches_reference_loop_on_generated_q(name):
    """The generators' Q above the parity set's largest size.  The QP's Q
    scaled by e^6 and e^-6 in turn reads PSD on both sides: at the global
    tolerance its small scaled pivots stall the elimination."""
    q = generated_parity_matrices()[name]
    verdict = psd_certificate(q)
    assert verdict is _psd_certificate_loop(q)
    if name == "qp_300_scaled_e6":
        assert verdict is Definiteness.PSD


@given(st.integers(0, 300))
def test_psd_certificate_matches_reference_loop_seeded(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    g = rng.standard_normal((n, int(rng.integers(1, n + 1))))
    dense = g @ g.T
    if seed % 3 == 0:
        dense[0, 0] -= float(np.linalg.eigvalsh(dense).max()) + 1.0
    q = SparseMatrix.from_dense((dense + dense.T) / 2)
    assert psd_certificate(q) is _psd_certificate_loop(q)

# ------------------------------------------------------------ permute_instance

def test_permute_round_trip(e1):
    var_perm = np.array([1, 0])
    con_perm = np.array([2, 0, 1])
    p = permute_instance(e1, var_perm, con_perm)
    inv_var = np.argsort(var_perm)
    inv_con = np.argsort(con_perm)
    back = permute_instance(p, inv_var, inv_con)
    assert back.data_equal(e1)


def test_permute_preserves_objective(e1, e1_sol):
    var_perm = np.array([1, 0])
    p = permute_instance(e1, var_perm, np.arange(3))
    x_new = np.empty(2)
    x_new[var_perm] = e1_sol.x
    assert objective(p, x_new) == pytest.approx(e1_sol.objective, abs=1e-15)


def test_permute_rejects_non_permutation(e1):
    with pytest.raises(InputError):
        permute_instance(e1, np.array([0, 0]), np.arange(3))
