"""Short runs of the benchmark (bench/run.py) on every workload, each in a
subprocess from the repository root, so the benchmark's own output checks
run with the tests."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["warm-stream", "cold-spheres", "file-pipeline"])
def test_workload_runs_correct(workload):
    run = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", "1", "--seconds", "0.3"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
