"""Instance generators: structural expectations frozen per family, witness
feasibility everywhere, and dataset plumbing checked for byte determinism."""
import ast
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpaug import (
    Definiteness,
    InputError,
    ProblemKind,
    kkt_residuals,
    psd_certificate,
    solve_splitting,
)
import qpaug.generators
from qpaug.fileio import load_instance, load_manifest, save_instance
from qpaug.generators import (
    GENERATOR_FAMILIES,
    SPD_RHO,
    gen_dataset,
    gen_lasso,
    gen_lp,
    gen_portfolio,
    gen_qp,
    gen_svm,
    make_sparse_spd,
)


def witness_of(inst):
    return np.asarray(inst.provenance[0].params["witness"], dtype=float)


# -------------------------------------------------------------- make_sparse_spd

def test_spd_zero_density_is_diagonal():
    mat = make_sparse_spd(4, 0.0, eig_lo=10.0, eig_hi=11.0, seed=7)
    dense = mat.to_dense()
    assert np.array_equal(dense, np.diag(np.diag(dense)))
    diag = np.diag(dense)
    assert np.all((diag >= 10.0) & (diag <= 11.0))


def test_spd_n1():
    dense = make_sparse_spd(1, 0.5, eig_lo=0.1, eig_hi=0.9, seed=0).to_dense()
    assert dense.shape == (1, 1)
    assert 0.1 <= dense[0, 0] <= 0.9


def test_spd_symmetric_and_pd_many_seeds():
    for n in (5, 50):
        for seed in range(100):
            mat = make_sparse_spd(n, 0.3, seed=seed)
            assert mat.is_symmetric()
            assert psd_certificate(mat) is Definiteness.PD


def test_spd_density_moves_fill():
    thin = make_sparse_spd(40, 0.05, seed=1)
    fat = make_sparse_spd(40, 0.8, seed=1)
    assert thin.nnz < fat.nnz


def test_spd_validates_inputs():
    with pytest.raises(InputError):
        make_sparse_spd(3, 0.5, eig_lo=0.0, eig_hi=1.0, seed=0)
    with pytest.raises(InputError):
        make_sparse_spd(3, 0.5, eig_lo=2.0, eig_hi=1.0, seed=0)
    with pytest.raises(InputError):
        make_sparse_spd(3, 1.5, seed=0)


def test_spd_deterministic():
    a = make_sparse_spd(10, 0.4, seed=42)
    b = make_sparse_spd(10, 0.4, seed=42)
    assert a == b


def assert_density_and_spectrum(q, density, eig_lo, eig_hi):
    """Q keeps its n diagonal entries, bit-symmetric off-diagonal pairs whose
    count is within 4 binomial standard deviations of density x pairs, and
    eigenvalues inside make_sparse_spd's stated interval."""
    n = q.n_rows
    pairs = n * (n - 1) // 2
    assert q.is_symmetric()
    assert np.count_nonzero(q.rows == q.cols) == n
    kept = (q.nnz - n) / 2
    assert abs(kept - density * pairs) <= 4.0 * np.sqrt(pairs * density * (1.0 - density))
    eig = np.linalg.eigvalsh(q.to_dense())
    assert (1.0 - SPD_RHO) * eig_lo <= eig[0] and eig[-1] <= (1.0 + SPD_RHO) * eig_hi, eig[[0, -1]]


@pytest.mark.parametrize("n", [100, 300])
def test_spd_keeps_requested_density_and_stated_spectrum(n):
    """nnz/n^2 is density (n - 1) / n + 1 / n to sampling error, not the
    fill-in of a factor product, and Gershgorin with Ostrowski bounds the
    spectrum; density 0 gives D itself and density 1 keeps every pair."""
    for seed in range(3):
        for density in (0.0, 0.05, 0.3, 1.0):
            assert_density_and_spectrum(
                make_sparse_spd(n, density, 0.1, 10.0, seed=seed), density, 0.1, 10.0)
        assert_density_and_spectrum(gen_qp(5, n, 0.5, 0.05, seed).q, 0.05, 0.1, 10.0)
        assert_density_and_spectrum(make_sparse_spd(n, 0.05, seed=seed), 0.05, 10.0, 11.0)
    diagonal = make_sparse_spd(n, 0.0, 0.1, 10.0, seed=0)
    assert np.array_equal(diagonal.rows, diagonal.cols)
    assert make_sparse_spd(n, 1.0, 0.1, 10.0, seed=0).nnz == n * n
    # skips near 2^63 at a tiny chance keep nothing, and do not overflow
    assert make_sparse_spd(n, 1e-300, 0.1, 10.0, seed=0).nnz == n
    for density in (0.0, 0.5, 1.0):
        assert_density_and_spectrum(make_sparse_spd(1, density, 0.1, 10.0, seed=0), density, 0.1, 10.0)


def test_spd_build_memory_is_order_nnz():
    """The traced peak of a 1500 x 1500 build at density 0.01 stays below one
    dense n x n float64: no n x n array, no product."""
    n = 1500
    make_sparse_spd(8, 0.5, seed=1)  # first-call allocations are not the build's
    tracemalloc.start()
    try:
        q = make_sparse_spd(n, 0.01, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n, peak
    assert q.nnz < 0.03 * n * n


def test_generators_make_no_blas_products():
    """No generator multiplies by `@`, np.dot or np.matmul; stored values
    come from core's ordered sums, so they do not depend on the BLAS kernel."""
    tree = ast.parse(inspect.getsource(qpaug.generators))
    matmul = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)]
    named = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("dot", "matmul", "inner", "vdot")]
    assert matmul == [] and named == []


def test_solver_factors_through_one_function():
    """In solver, _chol and _PSD_TOL are named inside _factor only, so P, Q
    and every Schur system are factored by one shift-and-retry rule with one
    weak-pivot test."""
    tree = ast.parse((Path(qpaug.generators.__file__).parent / "solver.py").read_text())
    owners = {(node.id, getattr(top, "name", None)) for top in tree.body for node in ast.walk(top)
              if isinstance(node, ast.Name) and node.id in ("_chol", "_PSD_TOL")}
    assert owners == {("_chol", "_factor"), ("_PSD_TOL", "_factor")}


def test_no_module_imports_scipy_but_from_scipy():
    """No module of the package imports scipy, at module level or in a
    function, but SparseMatrix.from_scipy, whose caller holds a scipy matrix."""
    found = []
    for path in sorted(Path(qpaug.generators.__file__).parent.glob("*.py")):
        for scope in ast.walk(ast.parse(path.read_text())):
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "scipy" for name in names):
                    found.append((path.name, getattr(scope, "name", None)))
    assert found == [("core.py", "from_scipy")]


def test_numpy_is_the_only_runtime_dependency():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert "scipy>=1.10" in project["optional-dependencies"]["test"]


# ------------------------------------------------------------------------ gen_lp

def test_lp_shapes_and_kind():
    inst = gen_lp(12, 7, 0.3, seed=0)
    assert inst.kind is ProblemKind.LP
    assert inst.m == 12 and inst.n == 7
    assert inst.q.nnz == 0
    assert inst.name == "lp-s0"


def test_lp_witness_feasible():
    for seed in range(10):
        inst = gen_lp(30, 20, 0.2, seed=seed)
        w = witness_of(inst)
        assert w.shape == (20,)
        assert np.all(w >= 0)
        assert (inst.a.matvec(w) - inst.b).max() <= 0.0


def test_lp_density_tracks_request():
    inst = gen_lp(100, 100, 0.05, seed=3)
    assert 350 <= inst.a.nnz <= 650


def test_lp_deterministic_and_seed_sensitive():
    a = gen_lp(10, 6, 0.4, seed=9)
    b = gen_lp(10, 6, 0.4, seed=9)
    c = gen_lp(10, 6, 0.4, seed=10)
    assert a.data_equal(b) and a.name == b.name
    assert not a.data_equal(c)


def test_lp_density_validated():
    with pytest.raises(InputError):
        gen_lp(5, 5, 0.0, seed=0)
    with pytest.raises(InputError):
        gen_lp(5, 5, 1.2, seed=0)


def test_lp_bounded_box_structure():
    m, n = 6, 4
    inst = gen_lp(m, n, 0.5, seed=2, bounded=True, box_margin=1.0)
    assert inst.m == m + 2 * n
    dense = inst.a.to_dense()
    assert np.array_equal(dense[m:m + n], -np.eye(n))
    assert np.array_equal(dense[m + n:], np.eye(n))
    assert np.array_equal(inst.b[m:m + n], np.zeros(n))
    w = witness_of(inst)
    assert np.all(inst.b[m + n:] >= w + 1.0)
    # witness is strictly inside the box
    assert (inst.a.matvec(w) - inst.b)[m:].max() < 0.0


def test_lp_bounded_shares_core_block():
    plain = gen_lp(6, 4, 0.5, seed=2)
    boxed = gen_lp(6, 4, 0.5, seed=2, bounded=True)
    assert np.array_equal(boxed.a.to_dense()[:6], plain.a.to_dense())
    assert np.array_equal(boxed.c, plain.c)
    assert np.array_equal(boxed.b[:6], plain.b)


def test_lp_slack_noise_scales_slack():
    lo = gen_lp(8, 5, 0.5, seed=4, slack_noise=1.0)
    hi = gen_lp(8, 5, 0.5, seed=4, slack_noise=4.0)
    w = witness_of(lo)
    slack_lo = lo.b - lo.a.matvec(w)
    slack_hi = hi.b - hi.a.matvec(w)
    assert np.allclose(slack_hi, 4.0 * slack_lo, rtol=1e-9)


# ------------------------------------------------------------------------ gen_qp

def test_qp_shapes_pd_witness():
    inst = gen_qp(10, 8, 0.3, 0.3, seed=1)
    assert inst.kind is ProblemKind.QP
    assert inst.m == 10 and inst.n == 8
    assert psd_certificate(inst.q) is Definiteness.PD
    w = witness_of(inst)
    assert (inst.a.matvec(w) - inst.b).max() <= 0.0


def test_qp_deterministic():
    a = gen_qp(10, 8, 0.3, 0.3, seed=5)
    b = gen_qp(10, 8, 0.3, 0.3, seed=5)
    assert a.data_equal(b)


def test_qp_density_validated():
    with pytest.raises(InputError):
        gen_qp(5, 5, 0.5, 0.0, seed=0)


def test_qp_solvable_with_clean_kkt():
    inst = gen_qp(12, 6, 0.5, 0.5, seed=11)
    sol = solve_splitting(inst)
    assert kkt_residuals(inst, sol, relative=True).max_residual <= 1e-6


# ----------------------------------------------------------------------- gen_svm

def test_svm_rejects_odd_samples():
    with pytest.raises(InputError):
        gen_svm(7, 4, 1.0, 0.5, seed=0)


def test_svm_structure():
    n_s, d = 10, 4
    lam = 0.5
    inst = gen_svm(n_s, d, lam, 0.6, seed=3)
    assert inst.kind is ProblemKind.QP
    assert inst.n == d + n_s
    assert inst.m == n_s
    q = inst.q.to_dense()
    assert np.array_equal(q, np.diag([1.0] * d + [0.0] * n_s))
    assert np.array_equal(inst.c, [0.0] * d + [lam] * n_s)
    assert np.array_equal(inst.b, -np.ones(n_s))
    a = inst.a.to_dense()
    assert np.array_equal(a[:, d:], -np.eye(n_s))
    assert psd_certificate(inst.q) is Definiteness.PSD
    assert inst.provenance[0].params["q_definiteness"] == "psd"


def test_svm_witness_tight():
    inst = gen_svm(8, 3, 1.0, 0.5, seed=1)
    w = witness_of(inst)
    assert np.array_equal(w, [0.0] * 3 + [1.0] * 8)
    assert np.array_equal(inst.a.matvec(w), inst.b)


def test_svm_deterministic():
    assert gen_svm(6, 3, 1.0, 0.5, seed=2).data_equal(gen_svm(6, 3, 1.0, 0.5, seed=2))


# ----------------------------------------------------------------- gen_portfolio

def test_portfolio_structure():
    n = 6
    inst = gen_portfolio(n, 0.4, seed=0)
    assert inst.kind is ProblemKind.QP
    assert inst.m == 3 and inst.n == n
    assert np.array_equal(inst.c, np.zeros(n))
    dense = inst.a.to_dense()
    assert np.array_equal(dense[1], np.full(n, 0.01))
    assert np.array_equal(dense[2], np.full(n, -0.01))
    assert np.array_equal(inst.b[1:], [1.0, -1.0])
    assert inst.b[0] == -1.0
    assert psd_certificate(inst.q) is Definiteness.PD


def test_portfolio_witness_documented_tolerance():
    for seed in range(8):
        inst = gen_portfolio(10, 0.3, seed=seed)
        w = witness_of(inst)
        resid = inst.a.matvec(w) - inst.b
        assert resid[0] <= 0.0
        assert np.abs(resid[1:]).max() <= 1e-12


def test_portfolio_budget_row_holds_at_optimum():
    inst = gen_portfolio(5, 0.5, seed=3)
    sol = solve_splitting(inst)
    assert abs(0.01 * sol.x.sum() - 1.0) <= 1e-6


def test_portfolio_validates_size():
    with pytest.raises(InputError):
        gen_portfolio(1, 0.5, seed=0)


# -------------------------------------------------------------------- gen_lasso

def test_lasso_structure():
    n_s, d = 12, 5
    lam = 0.3
    inst = gen_lasso(n_s, d, lam, 0.5, seed=4)
    assert inst.kind is ProblemKind.QP
    assert inst.n == 2 * d and inst.m == 2 * d
    assert inst.a.nnz == 4 * d
    dense = inst.a.to_dense()
    assert np.array_equal(dense[:d, :d], -np.eye(d))
    assert np.array_equal(dense[:d, d:], -np.eye(d))
    assert np.array_equal(dense[d:, :d], np.eye(d))
    assert np.array_equal(dense[d:, d:], -np.eye(d))
    assert np.array_equal(inst.b, np.zeros(2 * d))
    assert np.array_equal(inst.c[d:], np.full(d, lam))
    q = inst.q.to_dense()
    assert np.array_equal(q[d:, :], np.zeros((d, 2 * d)))
    assert psd_certificate(inst.q) in (Definiteness.PSD, Definiteness.PD)
    assert inst.provenance[0].params["q_definiteness"] == "psd"


def test_lasso_witness_strict():
    inst = gen_lasso(10, 4, 0.1, 0.5, seed=0)
    w = witness_of(inst)
    assert np.array_equal(w, [0.0] * 4 + [1.0] * 4)
    assert np.array_equal(inst.a.matvec(w) - inst.b, -np.ones(8))


def test_lasso_deterministic():
    assert gen_lasso(8, 3, 0.2, 0.5, seed=6).data_equal(gen_lasso(8, 3, 0.2, 0.5, seed=6))


@pytest.mark.parametrize("make, label", [
    (lambda: gen_lp(4, 3, 0.5, 0, slack_noise=float("nan")), "slack_noise"),
    (lambda: gen_qp(4, 3, 0.5, 0.5, 0, slack_noise=float("nan")), "slack_noise"),
    (lambda: gen_lp(4, 3, 0.5, 0, bounded=True, box_margin=float("nan")), "box_margin"),
    (lambda: gen_svm(4, 3, float("nan"), 0.5, 0), "lambda_reg"),
    (lambda: gen_lasso(4, 3, float("nan"), 0.5, 0), "lambda_reg"),
    (lambda: gen_lp(4, 3, 0.5, 0, slack_noise=-1.0), "slack_noise"),
], ids=["lp-slack", "qp-slack", "lp-box", "svm-lambda", "lasso-lambda", "lp-negative-slack"])
def test_nan_or_negative_parameter_refused_by_name(make, label):
    with pytest.raises(InputError, match=f"{label} must be nonnegative"):
        make()


# ------------------------------------------------------------------- gen_dataset

LP_PARAMS = {"m": 8, "n": 4, "density_a": 0.5, "bounded": True, "slack_noise": 4.0}


def test_dataset_writes_files_manifest_split(tmp_path):
    entries = gen_dataset(tmp_path, "lp", LP_PARAMS, count=10, seed=17, solve=True)
    assert len(entries) == 10
    files = sorted(p.name for p in tmp_path.iterdir())
    assert "manifest.json" in files
    assert len(files) == 11
    splits = [e["split"] for e in entries]
    assert splits.count("train") == 8
    assert splits.count("val") == 1
    assert splits.count("test") == 1
    for e in entries:
        assert set(e) == {"path", "split", "family", "seed", "labeled", "solver_status"}
        assert e["family"] == "lp"
        assert not e["path"].startswith("/")
        inst, sol = load_instance(tmp_path / e["path"])
        if e["labeled"]:
            assert e["solver_status"] == "ok"
            assert sol is not None
            assert kkt_residuals(inst, sol, relative=True).max_residual <= 1e-6
        else:
            assert sol is None
    assert load_manifest(tmp_path / "manifest.json") == entries


def test_dataset_unsolved_has_no_labels(tmp_path):
    entries = gen_dataset(tmp_path, "lp", LP_PARAMS, count=5, seed=2, solve=False)
    for e in entries:
        assert e["labeled"] is False
        assert e["solver_status"] == "not_requested"
        inst, sol = load_instance(tmp_path / e["path"])
        assert sol is None


def test_dataset_byte_deterministic(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    d1.mkdir(), d2.mkdir()
    gen_dataset(d1, "qp", {"m": 6, "n": 4, "density_a": 0.5, "density_q": 0.5},
                count=6, seed=5, solve=True)
    gen_dataset(d2, "qp", {"m": 6, "n": 4, "density_a": 0.5, "density_q": 0.5},
                count=6, seed=5, solve=True)
    names1 = sorted(p.name for p in d1.iterdir())
    names2 = sorted(p.name for p in d2.iterdir())
    assert names1 == names2
    for name in names1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_dataset_parallel_matches_serial(tmp_path):
    d1, d2 = tmp_path / "serial", tmp_path / "par"
    d1.mkdir(), d2.mkdir()
    gen_dataset(d1, "lp", LP_PARAMS, count=6, seed=8, solve=True, jobs=1)
    gen_dataset(d2, "lp", LP_PARAMS, count=6, seed=8, solve=True, jobs=2)
    for name in sorted(p.name for p in d1.iterdir()):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_dataset_count_zero(tmp_path):
    entries = gen_dataset(tmp_path, "lp", LP_PARAMS, count=0, seed=0, solve=False)
    assert entries == []
    assert load_manifest(tmp_path / "manifest.json") == []


def test_dataset_split_ratio_larger(tmp_path):
    entries = gen_dataset(tmp_path, "svm", {"n_samples": 4, "d_features": 2,
                          "lambda_reg": 1.0, "density": 0.5},
                          count=20, seed=1, solve=False)
    splits = [e["split"] for e in entries]
    assert splits.count("val") == 2
    assert splits.count("test") == 2
    assert splits.count("train") == 16


def test_dataset_solver_failure_recorded(tmp_path):
    # unbounded free LPs: files still written, entries unlabeled with a status
    entries = gen_dataset(tmp_path, "lp", {"m": 2, "n": 3, "density_a": 1.0},
                          count=3, seed=0, solve=True)
    for e in entries:
        assert (tmp_path / e["path"]).exists()
        if not e["labeled"]:
            assert e["solver_status"] != "ok"
            _, sol = load_instance(tmp_path / e["path"])
            assert sol is None
    assert any(not e["labeled"] for e in entries)


def test_dataset_rejects_unknown_family(tmp_path):
    with pytest.raises(InputError):
        gen_dataset(tmp_path, "milp", {}, count=1, seed=0, solve=False)
    with pytest.raises(InputError):
        gen_dataset(tmp_path, "lp", {"m": 2, "n": 2, "density_a": 0.5, "zzz": 1},
                    count=1, seed=0, solve=False)


def test_family_table_complete():
    assert set(GENERATOR_FAMILIES) == {"lp", "qp", "svm", "portfolio", "lasso"}


@given(st.integers(0, 40))
def test_every_family_witness_feasible(seed):
    makers = [
        gen_lp(6, 4, 0.5, seed=seed),
        gen_lp(6, 4, 0.5, seed=seed, bounded=True),
        gen_qp(6, 4, 0.5, 0.5, seed=seed),
        gen_svm(6, 3, 1.0, 0.5, seed=seed),
        gen_portfolio(5, 0.5, seed=seed),
        gen_lasso(8, 4, 0.2, 0.5, seed=seed),
    ]
    for inst in makers:
        w = witness_of(inst)
        assert (inst.a.matvec(w) - inst.b).max() <= 1e-12


# --------------------------------------------------------------- BLAS kernels

ROOT = Path(__file__).resolve().parents[1]

# every family at the paper's size, where BLAS products would round
# differently under another kernel
KERNEL_CASES = {
    "qp": ["--rows", "100", "--cols", "100", "--density-a", "0.05", "--density-q", "0.05"],
    "lp": ["--rows", "100", "--cols", "100", "--density-a", "0.05", "--bounded"],
    "svm": ["--samples", "100", "--features", "50", "--lambda-reg", "1.0", "--density", "0.2"],
    "portfolio": ["--assets", "100", "--density", "0.05"],
    "lasso": ["--samples", "100", "--features", "50", "--lambda-reg", "0.1", "--density", "0.2"],
}


def generated_tree(out, coretype):
    """`generate` of every KERNEL_CASES family, each in a child process on one
    BLAS thread, under OPENBLAS_CORETYPE=`coretype` when it is not None: the
    bytes of every file written, by relative path, and the set of kernels
    that OpenBLAS reported loading."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OPENBLAS_VERBOSE="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    cores = set()
    for family, args in KERNEL_CASES.items():
        proc = subprocess.run(
            [sys.executable, "-m", "qpaug", "generate", "--family", family, *args,
             "--count", "6", "--seed", "0", "--out", str(out / family)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        cores.update(re.findall(r"^Core: (\S+)", proc.stderr, re.MULTILINE))
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*.json"))}, cores


def test_generate_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    """Every family's files are byte-identical under the machine's own BLAS
    kernel and under the forced Prescott kernel (labels are not: the solver's
    factorizations run on BLAS)."""
    native, native_cores = generated_tree(tmp_path / "native", None)
    forced, forced_cores = generated_tree(tmp_path / "prescott", "Prescott")
    if len(native_cores) != 1 or len(forced_cores) != 1 or native_cores == forced_cores:
        pytest.skip(f"the BLAS did not switch kernels: OPENBLAS_VERBOSE=2 reported "
                    f"{sorted(native_cores)} natively and {sorted(forced_cores)} forced")
    assert len(native) == 5 * 7
    assert sorted(native) == sorted(forced)
    differ = [path for path in native if native[path] != forced[path]]
    assert differ == []


# ------------------------------------------------------------- generated bytes

FAMILY_CASES = {
    "lp": lambda seed, name: gen_lp(9, 6, 0.4, seed, name=name),
    "lp_bounded": lambda seed, name: gen_lp(
        9, 6, 0.4, seed, bounded=True, slack_noise=2.0, box_margin=0.5, name=name),
    "qp": lambda seed, name: gen_qp(9, 6, 0.4, 0.4, seed, name=name),
    "svm": lambda seed, name: gen_svm(8, 3, 0.7, 0.6, seed, name=name),
    "portfolio": lambda seed, name: gen_portfolio(6, 0.5, seed, name=name),
    "portfolio_density0": lambda seed, name: gen_portfolio(6, 0.0, seed, name=name),
    "lasso": lambda seed, name: gen_lasso(7, 4, 0.3, 0.5, seed, name=name),
}

# sha256 over the files save_instance writes for each case at seeds 0, 1
# and 5, each with the default name and with name="pinned", in that order;
# recorded while every family still built its own record and instance, and
# re-pinned once when Q came to be built as D^1/2 (I + S) D^1/2 and every
# stored sum to be taken without BLAS: qp and portfolio changed, lp's b, the
# portfolio witness and lasso's q and c moved in their last bits, svm stayed
PINNED_FAMILY_SHA256 = {
    "lp":
        "a3255aa9b95f6ace25f8b54400417566a1fadba3683f3ded2e384b0ecddad342",
    "lp_bounded":
        "ff0c0ec32652e5d4697857e0b0d1ac460142579cae37a57cbc9d241f9b1ca508",
    "qp":
        "cada15ed2ee5a0c9da76b6a0115bc755d6eba26ca0a9df037544b6b70e92a9a6",
    "svm":
        "890f1289b0bf4504a73c6d013ca32396888d59882f8a9791edb1b5aee3769394",
    "portfolio":
        "bca845a11e0bd82c4d0eed695e4c6908ac4f27fc407a5317aa1c92382fc827f2",
    "portfolio_density0":
        "6cb941629ec3c741d0b5df9a3ff0e25ef6d504d82ce4a69e48bd04a3974569a1",
    "lasso":
        "3d2f826466bd6cb6370ba2f87427219ce494e4b8eb496b080c77e5b516e12f91",
}


def test_family_bytes_pinned(tmp_path):
    """A change to a family's draws, arithmetic, record or name shows here."""
    digests = {}
    for label, make in FAMILY_CASES.items():
        digest = hashlib.sha256()
        for seed in (0, 1, 5):
            for name in (None, "pinned"):
                path = tmp_path / f"{label}-{seed}-{name}.json"
                save_instance(path, make(seed, name))
                digest.update(path.read_bytes())
        digests[label] = digest.hexdigest()
    assert digests == PINNED_FAMILY_SHA256
