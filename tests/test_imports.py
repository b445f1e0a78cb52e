"""Import discipline: the program runs on numpy alone.

`import qpaug` and every command (help, generate with and without --solve,
augment, verify, graph, solve) is run here as its own process, the way
`python -m qpaug` runs it, and must leave no scipy module behind: LPs,
positive definite QPs and the semidefinite SVM and lasso families factor,
certify and solve on numpy, even where the active rows are dependent and
scaled by 1e5.  No command loads numpy.ma, and the serial stages load no
concurrent.futures, which only the pool of --jobs above 1 needs.  Loading a
view and encoding it with the message passer runs on numpy alone too.
Only `SparseMatrix.from_scipy`, whose caller already holds a scipy matrix,
imports scipy: tests/test_generators.py checks that in the source."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpaug

ROOT = Path(__file__).resolve().parents[1]

# runs `python -m qpaug ARGS`, then prints the exit code, the scipy modules
# loaded and the watched ones loaded as the last line of stdout: numpy.ma
# (1.3 MB resident) and concurrent.futures, which brings logging; a serial
# process has no use for either
PROBE = """
import json, runpy, sys
try:
    runpy.run_module("qpaug", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "watched": [m for m in ("numpy.ma", "concurrent.futures", "logging") if m in sys.modules]}))
"""

QP = ["--family", "qp", "--rows", "6", "--cols", "5", "--density-a", "0.5",
      "--density-q", "0.5", "--count", "2", "--seed", "3"]


def python(*args, cwd=None, env_update=None):
    """Run python in a child; env_update sets variables, and removes those
    it maps to None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for name, value in (env_update or {}).items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def probe(cwd, *args, key="scipy"):
    """The scipy modules `python -m qpaug ARGS` loaded, with key="watched"
    the watched ones, and with key=None both, by key."""
    proc = python("-c", PROBE, *args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0, proc.stderr
    return result if key is None else result[key]


# the semidefinite families, labeled: psd_certificate decides their Q
SVM = ["--family", "svm", "--samples", "12", "--features", "6", "--lambda-reg", "1.0",
       "--density", "0.5", "--count", "2", "--seed", "3", "--solve"]
LASSO = ["--family", "lasso", "--samples", "12", "--features", "6", "--lambda-reg", "0.1",
         "--density", "0.5", "--count", "2", "--seed", "3", "--solve"]


def test_no_command_loads_scipy(tmp_path):
    """No command loads scipy, solves included: the SVM and lasso families'
    semidefinite Q is certified on numpy too.  None loads numpy.ma either:
    the scipy.linalg that the certificate imported did, for the SVM family."""
    commands = [
        ["--help"],
        ["generate", *QP, "--out", "raw"],
        ["augment", "--manifest", "raw/manifest.json", "--views", "2", "--seed", "1",
         "--out", "views"],
        ["graph", "--manifest", "views/manifest.json", "--out", "graphs"],
        ["generate", *QP, "--solve", "--out", "lab"],
        ["augment", "--manifest", "lab/manifest.json", "--per-instance", "1", "--seed", "1",
         "--out", "aug"],
        ["verify", "--manifest", "aug/manifest.json"],
        ["graph", "--manifest", "aug/manifest.json", "--out", "graphs-aug"],
        ["solve", "--manifest", "aug/manifest.json", "--out", "sol"],
        ["verify", "--manifest", "sol/manifest.json"],
        ["generate", *SVM, "--out", "svm"],
        ["generate", *LASSO, "--out", "lasso"],
    ]
    for args in commands:
        loaded = probe(tmp_path, *args, key=None)
        assert loaded["scipy"] == [] and "numpy.ma" not in loaded["watched"], args


# a positive definite QP whose solves polish over several repair rounds
PD_QP = ["--family", "qp", "--rows", "60", "--cols", "40", "--density-a", "0.2",
         "--density-q", "0.2", "--count", "2", "--seed", "0"]


def test_solving_positive_definite_qps_loads_no_numpy_ma(tmp_path):
    """The polish keeps its active set as a row mask, so `generate --solve`
    and `solve` on positive definite QPs never reach np.unique, which loads
    numpy.ma; np.union1d in the repair rule did."""
    assert "numpy.ma" not in probe(tmp_path, "generate", *PD_QP, "--solve", "--out", "lab",
                                   key="watched")
    probe(tmp_path, "augment", "--manifest", "lab/manifest.json", "--per-instance", "2",
          "--seed", "1", "--out", "aug")
    assert "numpy.ma" not in probe(tmp_path, "solve", "--manifest", "aug/manifest.json",
                                   "--jobs", "1", "--out", "sol", key="watched")


def test_serial_commands_load_no_concurrent_futures(tmp_path):
    """concurrent.futures, and logging with it, loads only where a command
    runs a pool (--jobs above 1); the serial stages go without both."""
    serial = [
        ["generate", *QP, "--solve", "--jobs", "1", "--out", "lab"],
        ["augment", "--manifest", "lab/manifest.json", "--per-instance", "1", "--seed", "1",
         "--out", "aug"],
        ["solve", "--manifest", "aug/manifest.json", "--jobs", "1", "--out", "sol"],
        ["verify", "--manifest", "sol/manifest.json"],
        ["graph", "--manifest", "sol/manifest.json", "--out", "graphs"],
    ]
    for args in serial:
        loaded = probe(tmp_path, *args, key="watched")
        assert "concurrent.futures" not in loaded and "logging" not in loaded, args
    pooled = probe(tmp_path, "generate", *QP, "--jobs", "2", "--out", "pool", key="watched")
    assert "concurrent.futures" in pooled


# solves a stress copy (tests/conftest.py) and prints its status and the
# scipy modules loaded as the last line of stdout
STRESS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from conftest import stress_copy
from qpaug import solver
_, _, inst = stress_copy(0, 1e5, scale_vars=True)
try:
    solver.solve_splitting(inst)
    status = "ok"
except solver.Unconverged:
    status = "unconverged"
print(json.dumps({"status": status, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_scaled_dependent_rows_load_no_scipy_linalg():
    """A positive definite QP whose active rows are dependent and scaled by
    1e5 is polished on the Schur complement alone: its solve loads no scipy
    module, as any positive definite solve."""
    proc = python("-c", STRESS, str(ROOT / "tests"))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["scipy"] == []
    assert result["status"] == "ok"


def test_lp_solve_loads_no_scipy_module(tmp_path):
    """Labeling LPs polishes on the Schur complement of a shifted empty Q,
    on numpy alone: it loads no scipy module, so no scipy.linalg, whose
    import loads numpy.ma, and no scipy.optimize, whose HiGHS is the tests'
    LP oracle only.  A dense LU of the full KKT loaded scipy.linalg here."""
    loaded = probe(tmp_path, "generate", "--family", "lp", "--rows", "12", "--cols", "10",
                   "--density-a", "0.3", "--bounded", "--count", "2", "--seed", "3",
                   "--solve", "--out", "lab", key=None)
    assert loaded["scipy"] == []
    assert "numpy.ma" not in loaded["watched"]


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
UNSET = dict.fromkeys(BLAS_THREADS)

# runs `python -m qpaug ARGS`, then prints the BLAS thread variables it left
# as the last line of stdout
BLAS_PROBE = """
import json, os, runpy
try:
    runpy.run_module("qpaug", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(json.dumps({k: os.environ.get(k)
                  for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}))
"""


@pytest.mark.parametrize("env_update, expected", [
    (UNSET, dict.fromkeys(BLAS_THREADS, "1")),
    ({**UNSET, "OPENBLAS_NUM_THREADS": "2"}, {**UNSET, "OPENBLAS_NUM_THREADS": "2"}),
    ({**UNSET, "MKL_NUM_THREADS": "3"}, {**UNSET, "MKL_NUM_THREADS": "3"}),
], ids=["unset", "openblas-set", "mkl-set"])
def test_entry_point_pins_blas_to_one_thread(tmp_path, env_update, expected):
    """The CLI entry point runs BLAS on one thread unless the user set a
    count for any of the three libraries, which is then left alone."""
    proc = python("-c", BLAS_PROBE, "--help", cwd=tmp_path, env_update=env_update)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == expected


def test_library_imports_leave_blas_threads_alone():
    proc = python("-c", "import os, qpaug, qpaug.cli, qpaug.solver; "
                  f"print([os.environ.get(k) for k in {BLAS_THREADS!r}])", env_update=UNSET)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[None, None, None]"


def test_console_script_takes_the_pinned_entry_point():
    import tomllib

    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"qpaug": "qpaug.__main__:main"}


def test_cli_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A 300 x 300 labeled QP is written with the same bytes whether or not
    the user pins BLAS: the CLI runs one thread either way.  With the
    library's default of one thread per core its Q and label bytes differed
    on a 2-core machine."""
    args = ["generate", "--family", "qp", "--rows", "300", "--cols", "300", "--density-a",
            "0.05", "--density-q", "0.05", "--count", "1", "--seed", "0", "--solve"]
    trees = []
    for name, env_update in (("unset", UNSET), ("one", {**UNSET, "OPENBLAS_NUM_THREADS": "1"})):
        proc = python("-m", "qpaug", *args, "--out", name, cwd=tmp_path, env_update=env_update)
        assert proc.returncode == 0, proc.stderr
        trees.append({p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())})
    assert len(trees[0]) == 2 and trees[0] == trees[1]


# loads the instance file argv[1], encodes it, and prints the scipy modules
# loaded as the last line of stdout
ENCODE = """
import json, sys
from qpaug import fileio, graphenc
inst, _ = fileio.load_instance(sys.argv[1])
weights = graphenc.init_mpnn_weights(0)
graphenc.encode_instance(inst, weights)
graphenc.mpnn_forward(graphenc.to_bipartite_graph(inst), weights)
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_encoding_a_view_loads_no_scipy(tmp_path):
    """A process that loads a 100x100 view and runs encode_instance and
    mpnn_forward on it ends with no scipy module loaded."""
    for args in (["generate", "--family", "qp", "--rows", "100", "--cols", "100",
                  "--density-a", "0.05", "--density-q", "0.05", "--count", "1", "--seed", "0",
                  "--out", "raw"],
                 ["augment", "--manifest", "raw/manifest.json", "--views", "2", "--seed", "1",
                  "--out", "views"]):
        proc = python("-m", "qpaug", *args, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    entry = json.loads((tmp_path / "views" / "manifest.json").read_text())[0]
    proc = python("-c", ENCODE, str(tmp_path / "views" / entry["path"]))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_import_qpaug_loads_no_scipy():
    proc = python("-c", "import sys, qpaug; "
                  "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qpaug import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(qpaug.__all__)
    assert len(set(qpaug.__all__)) == len(qpaug.__all__) == 55


def test_public_names_are_the_defining_modules_objects():
    from qpaug import core, generators, graphenc, solver, transforms

    assert qpaug.solve_splitting is solver.solve_splitting
    assert qpaug.SparseMatrix is core.SparseMatrix
    assert qpaug.apply_policy is transforms.apply_policy
    assert qpaug.gen_qp is generators.gen_qp
    assert qpaug.mpnn_forward is graphenc.mpnn_forward
    assert set(qpaug.__all__) <= set(dir(qpaug))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qpaug.no_such_name  # noqa: B018
    assert not hasattr(qpaug, "solve_splitting_fast")
    assert qpaug.__version__ == "0.1.0"
