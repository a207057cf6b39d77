"""The traced benchmark run (bench/tracing.py) wraps package functions and
grid methods by name; every name it looks up must exist, so a refactor cannot
silently break `bench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import spheremodes
from spheremodes import CoefficientSet, Medium, make_grid, synthesize

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(tracing):
    for layer, names in tracing.TRACED_FUNCTIONS.items():
        module = importlib.import_module(f"{spheremodes.__name__}.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_traced_grid_methods_exist(tracing):
    for name in tracing.TRACED_GRID_METHODS:
        assert callable(getattr(spheremodes.SphereGrid, name, None)), name


def test_basis_cache_holds_tuples_of_arrays():
    # the tracer sums nbytes over grid._basis_cache.values(), each a tuple of arrays
    grid = make_grid(3, 1.0)
    synthesize(CoefficientSet.zeros(3, Medium(k=1.0)), 1.0, grid)
    entries = list(grid._basis_cache.values())
    assert entries
    for entry in entries:
        assert isinstance(entry, tuple)
        assert all(isinstance(rows, np.ndarray) for rows in entry)
