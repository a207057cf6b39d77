"""Span tracing for the traced benchmark run.

The benchmark wraps the public functions of each spheremodes module (and every
module-level name they are imported under) so that each call records a span:
the operation it belongs to, its name, its parent span, and its start and end
times. Spans are kept in memory in typed arrays and written to one file when
the run ends; nothing is recorded outside an operation. Per-layer metrics are
computed from the spans afterwards: a span's self time is its duration minus
the durations of its direct children.

Timed (untraced) runs never install the wrappers, so they pay nothing.
"""

from __future__ import annotations

import array
import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np

# Function names traced per module. The span name is "<module>.<name>" with a
# leading underscore dropped (specfun._hankel1_upto -> specfun.hankel1_upto).
TRACED_FUNCTIONS = {
    "specfun": ("legendre_theta_kernel", "_hankel1_upto", "sph_hankel1", "riccati_h1_deriv",
                "assoc_legendre_norm", "sph_harmonic"),
    "harmonics": ("make_grid", "project", "fixed_order_sum", "vec_X", "vec_Z"),
    "multipole": ("synthesize", "far_field", "radiated_power", "coefficient_deviation",
                  "duality"),
    "extraction": ("extract_radial", "extract_tangential_e", "extract_tangential_h",
                   "equivalence_report", "route_condition"),
    "fileio": ("write_coefficients", "read_coefficients", "write_field_file",
               "read_field_file", "write_pattern_csv"),
    "cli": ("main",),
}
TRACED_GRID_METHODS = ("mode_basis", "projection_kernel", "with_radius")
LAYERS = tuple(TRACED_FUNCTIONS)

SETUP_OP = 0  # the warm-up operation; its spans count as set-up, not per-operation work
ROOT_SPAN = "op"


class Tracer:
    """In-memory span store. One tracer per run; install() points the package at it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op = array.array("i")
        self.name = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.current_op = None
        self._stack: list[int] = []
        # (phase, counter name) -> total, phase "setup" or "timed"
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self._grids: dict[int, object] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @property
    def phase(self) -> str:
        return "setup" if self.current_op == SETUP_OP else "timed"

    def count(self, name: str, amount: float) -> None:
        if self.current_op is not None:
            self.counters[(self.phase, name)] += amount

    def touch_grid(self, grid) -> None:
        if self.current_op is not None:
            self._grids[id(grid)] = grid

    def _open(self, name_id: int) -> int:
        index = len(self.op)
        self.op.append(self.current_op)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """A wrapper of fn that records one span per call made inside an operation."""
        name_id = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.current_op is None:
                return fn(*args, **kwargs)
            index = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    def operation(self, op_id: int, fn):
        """Run fn() as operation op_id under a root span; returns its result."""
        self.current_op = op_id
        index = self._open(self.name_id(ROOT_SPAN))
        try:
            return fn()
        finally:
            self._close(index)
            cache_bytes = sum(_cache_nbytes(g) for g in self._grids.values())
            self.counters[(self.phase, "harmonics.basis_cache_bytes")] += cache_bytes
            self._grids.clear()
            self.current_op = None

    def save(self, path) -> None:
        """Write every span and counter to one compressed .npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            op=np.frombuffer(self.op, dtype=np.int32),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            counter_keys=np.array([f"{p}:{n}" for p, n in self.counters] or [""]),
            counter_values=np.array(list(self.counters.values()) or [0.0]))


def _cache_nbytes(grid) -> int:
    seen = {}
    for entry in grid._basis_cache.values():
        for arr in entry:
            seen[id(arr)] = arr.nbytes
    return sum(seen.values())


def install(tracer: Tracer, package) -> None:
    """Wrap the traced functions in every spheremodes module that holds them.

    Replacement is by identity, so a function imported into another module
    (cli's `from .multipole import synthesize`) is wrapped there too and calls
    through either name are recorded under the defining module's span name.
    """
    modules = {name: importlib.import_module(f"{package.__name__}.{name}")
               for name in ("specfun", "harmonics", "multipole", "extraction", "fileio",
                            "cli", "dipole")}
    replacements = {}
    for layer, names in TRACED_FUNCTIONS.items():
        for fn_name in names:
            original = getattr(modules[layer], fn_name)
            wrapped = tracer.wrap(f"{layer}.{fn_name.lstrip('_')}", original)
            if layer == "fileio":
                wrapped = _count_file_bytes(tracer, fn_name, wrapped)
            replacements[id(original)] = wrapped
    for module in [package, *modules.values()]:
        for attr, value in list(vars(module).items()):
            if id(value) in replacements:
                setattr(module, attr, replacements[id(value)])

    grid_cls = modules["harmonics"].SphereGrid
    for method in TRACED_GRID_METHODS:
        original = getattr(grid_cls, method)
        if method == "mode_basis":
            original = _count_basis_hits(tracer, original)
        setattr(grid_cls, method, tracer.wrap(f"harmonics.{method}", original))


def _count_basis_hits(tracer: Tracer, mode_basis):
    @functools.wraps(mode_basis)
    def counted(grid, mode):
        tracer.count("harmonics.mode_basis.hits", (mode.l, mode.m) in grid._basis_cache)
        tracer.touch_grid(grid)
        return mode_basis(grid, mode)
    return counted


def _count_file_bytes(tracer: Tracer, fn_name: str, fn):
    """Add the size of the file a fileio call reads or writes to a byte counter."""
    if fn_name.startswith("read_"):
        @functools.wraps(fn)
        def reader(path, *args, **kwargs):
            tracer.count("fileio.bytes_read", os.path.getsize(path))
            return fn(path, *args, **kwargs)
        return reader

    @functools.wraps(fn)
    def writer(path, *args, **kwargs):
        result = fn(path, *args, **kwargs)
        tracer.count("fileio.bytes_written", os.path.getsize(path))
        return result
    return writer


# Per-layer metrics printed by a traced run: name -> unit. Times and counts
# are per timed operation; the warm-up operation is set-up and excluded, except
# in harmonics.make_grid.setup_ms.
PER_LAYER_UNITS = {
    "specfun.legendre_theta_kernel.calls": "count/op",
    "specfun.legendre_theta_kernel.self_ms": "ms/op",
    "specfun.hankel1_upto.calls": "count/op",
    "specfun.hankel1_upto.self_ms": "ms/op",
    "harmonics.mode_basis.calls": "count/op",
    "harmonics.mode_basis.self_ms": "ms/op",
    "harmonics.mode_basis.hit_ratio": "ratio",
    "harmonics.basis_cache_mb": "MB",
    "harmonics.project.calls": "count/op",
    "harmonics.project.self_ms": "ms/op",
    "harmonics.fixed_order_sum.self_ms": "ms/op",
    "harmonics.make_grid.self_ms": "ms/op",
    "harmonics.make_grid.setup_ms": "ms",
    "multipole.synthesize.self_ms": "ms/op",
    "multipole.far_field.self_ms": "ms/op",
    "multipole.radiated_power.self_ms": "ms/op",
    "extraction.extract_radial.self_ms": "ms/op",
    "extraction.extract_tangential_e.self_ms": "ms/op",
    "extraction.extract_tangential_h.self_ms": "ms/op",
    "extraction.equivalence_report.self_ms": "ms/op",
    "extraction.route_condition.calls": "count/op",
    "fileio.write_field_file.self_ms": "ms/op",
    "fileio.read_field_file.self_ms": "ms/op",
    "fileio.write_coefficients.self_ms": "ms/op",
    "fileio.read_coefficients.self_ms": "ms/op",
    "fileio.bytes_written": "bytes/op",
    "fileio.bytes_read": "bytes/op",
    "cli.main.self_ms": "ms/op",
    **{f"{layer}.self_ms": "ms/op" for layer in LAYERS},
    "op.self_ms": "ms/op",
    "op.total_ms": "ms/op",
    "traced.ops_per_s": "op/s",
}


def per_layer_metrics(tracer: Tracer, traced_ops_per_s: float) -> dict:
    """Per-layer metrics from the recorded spans, keyed as in PER_LAYER_UNITS."""
    op = np.frombuffer(tracer.op, dtype=np.int32)
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = (np.frombuffer(tracer.end, dtype=np.int64)
           - np.frombuffer(tracer.start, dtype=np.int64)).astype(float)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_ns = dur - child_time
    n_names = len(tracer.names)
    timed = op != SETUP_OP
    n_ops = max(1, len(np.unique(op[timed])))
    calls = np.bincount(name[timed], minlength=n_names) / n_ops
    self_ms = np.bincount(name[timed], weights=self_ns[timed], minlength=n_names) / n_ops / 1e6
    setup_self_ms = np.bincount(name[~timed], weights=self_ns[~timed], minlength=n_names) / 1e6

    def by_name(table, span_name):
        return float(table[tracer.names.index(span_name)]) if span_name in tracer.names else 0.0

    def counter(key):
        return tracer.counters.get(("timed", key), 0.0) / n_ops

    values = {}
    for metric in PER_LAYER_UNITS:
        span_name, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = by_name(calls, span_name)
        elif field == "self_ms" and span_name in LAYERS:
            values[metric] = sum(float(self_ms[i]) for i, n in enumerate(tracer.names)
                                 if n.startswith(span_name + "."))
        elif field == "self_ms":
            values[metric] = by_name(self_ms, span_name)
    basis_calls = values["harmonics.mode_basis.calls"]
    values["harmonics.mode_basis.hit_ratio"] = (
        counter("harmonics.mode_basis.hits") / basis_calls if basis_calls else 0.0)
    values["harmonics.basis_cache_mb"] = counter("harmonics.basis_cache_bytes") / 1e6
    values["harmonics.make_grid.setup_ms"] = by_name(setup_self_ms, "harmonics.make_grid")
    values["fileio.bytes_written"] = counter("fileio.bytes_written")
    values["fileio.bytes_read"] = counter("fileio.bytes_read")
    values["op.total_ms"] = float(dur[timed & (name == tracer.name_id(ROOT_SPAN))].sum()
                                  / n_ops / 1e6)
    values["traced.ops_per_s"] = traced_ops_per_s
    return values
