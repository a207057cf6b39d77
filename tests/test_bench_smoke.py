"""Short runs of the benchmark (bench/run.py) on every workload, plain and
traced (--trace 1), each in a subprocess from the repository root, so the
benchmark's own output checks run with the tests."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


WORKLOADS = ["warm-stream", "cold-spheres", "file-pipeline"]


def run_workload(workload, *extra):
    run = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", "1", "--seconds", "0.3", *extra],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correct(workload):
    result = run_workload(workload)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_runs_correct(workload):
    # the traced run wraps grid methods and reads grid._basis_cache; its trace
    # file goes to the git-ignored bench/out/
    result = run_workload(workload, "--trace", "1")
    assert result["correct"] is True
    assert result["failed"] == 0
