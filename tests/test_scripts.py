"""Smoke test for scripts/: each one runs to completion at a tiny size.

The scripts import the public transform, solver and generator API, so a
change to that API that breaks one of them fails here."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = {
    "transform_stress.py": ["--instances", "2", "--chains", "2", "--size", "20"],
    "views_demo.py": ["--count", "4"],
    "heuristic_report.py": ["--count", "3", "--size", "20"],
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(tmp_path, script):
    env = dict(os.environ, TMPDIR=str(tmp_path))  # views_demo writes its corpus there
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *SCRIPTS[script]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
