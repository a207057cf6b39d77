"""Smoke runs of the experiment scripts under scripts/, each in a subprocess
against the package in src/, and of the README's library example."""

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


def test_readme_library_example_runs():
    # the first python block under "## Library", so a rename the example misses fails here
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["result"].max_pairwise_deviation < 1e-10
