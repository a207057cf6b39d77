"""Smoke runs of the experiment scripts under scripts/, each in a subprocess
against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_route_equivalence_runs():
    run = _run("run_route_equivalence.py", "--lmax", "4")
    assert run.returncode == 0, run.stderr
    assert "kr0" in run.stdout
