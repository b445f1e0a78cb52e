"""Smoke test for scripts/: each one runs to completion at a tiny size and
prints its report.

The scripts import the public transform, solver and generator API, so a
change to that API that breaks one of them fails here."""
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def check_views_demo(stdout):
    lines = stdout.splitlines()[-4:]  # after the CLI's JSON reports
    assert [line.split(":")[0] for line in lines] == [
        "views", "contrastive loss (tau=0.5)", "matched-view cosine", "all-pairs cosine"]
    assert lines[0].startswith("views: 8 (4 pairs) in ")
    assert math.isfinite(float(lines[1].split(":")[1]))


# script -> (arguments, check of its stdout)
SCRIPTS = {
    "views_demo.py": (["--count", "4"], check_views_demo),
}


def test_every_script_is_smoke_tested():
    assert sorted(SCRIPTS) == sorted(p.name for p in (ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(tmp_path, script):
    args, check = SCRIPTS[script]
    env = dict(os.environ, TMPDIR=str(tmp_path))  # views_demo writes its corpus there
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    check(proc.stdout)
