"""On-disk formats: coefficient files (JSON), field sample files (CSV with a
key=value comment preamble), and far-field pattern CSVs.

All numbers are written with 17 significant digits so complex values survive
a text round trip exactly; serialization order is canonical (l ascending,
then m ascending), which makes load -> save byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .harmonics import FieldSamples, SphereGrid, make_grid
from .multipole import (SPEED_OF_LIGHT, CoefficientSet, Medium, mode_count, mode_slot,
                        modes_upto)

COEFF_SCHEMA_VERSION = "1"

FIELD_COLUMNS = ("E_r", "E_theta", "E_phi", "H_r", "H_theta", "H_phi")

ROUTE_REQUIRED_COLUMNS = {
    "radial": ("E_r", "H_r"),
    "tan-e": ("E_theta", "E_phi"),
    "tan-h": ("H_theta", "H_phi"),
}


class FormatError(ValueError):
    """Malformed or inconsistent input file."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_coefficients(path, coeffs: CoefficientSet, frequency_hz: float) -> None:
    """Write a coefficient file in canonical order with 17-digit numbers."""
    lines = [
        "{",
        f'  "schema_version": "{COEFF_SCHEMA_VERSION}",',
        f'  "l_max": {coeffs.l_max},',
        f'  "frequency_hz": {_fmt(frequency_hz)},',
        f'  "medium": {{"k": {_fmt(coeffs.medium.k)}, "Z0": {_fmt(coeffs.medium.z0)}}},',
        '  "modes": [',
    ]
    rows = []
    for mode in modes_upto(coeffs.l_max):
        ae = coeffs.a_e[mode_slot(mode.l, mode.m)]
        am = coeffs.a_m[mode_slot(mode.l, mode.m)]
        rows.append(
            f'    {{"l": {mode.l}, "m": {mode.m},'
            f' "aE": [{_fmt(ae.real)}, {_fmt(ae.imag)}],'
            f' "aM": [{_fmt(am.real)}, {_fmt(am.imag)}]}}')
    lines.append(",\n".join(rows))
    lines.append("  ]")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_coefficients(path):
    """Read a coefficient file; returns (CoefficientSet, frequency_hz)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    try:
        l_max = int(doc["l_max"])
        frequency = float(doc["frequency_hz"])
        medium = Medium(k=float(doc["medium"]["k"]), z0=float(doc["medium"]["Z0"]))
        modes = doc["modes"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: missing or malformed field ({exc})") from exc
    a_e = np.full(mode_count(l_max), np.nan, complex)
    a_m = np.full(mode_count(l_max), np.nan, complex)
    for row in modes:
        l, m = int(row["l"]), int(row["m"])
        if l < 1 or l > l_max or abs(m) > l:
            raise FormatError(f"{path}: mode (l={l}, m={m}) outside 1..l_max={l_max}")
        slot = mode_slot(l, m)
        if not np.isnan(a_e[slot].real):
            raise FormatError(f"{path}: duplicate mode (l={l}, m={m})")
        a_e[slot] = complex(row["aE"][0], row["aE"][1])
        a_m[slot] = complex(row["aM"][0], row["aM"][1])
    if np.isnan(a_e.view(float)).any() or np.isnan(a_m.view(float)).any():
        raise FormatError(f"{path}: not every (l, m) with l <= {l_max} appears exactly once")
    return CoefficientSet(l_max, medium, a_e, a_m), frequency


@dataclass(eq=False)
class FieldFileData:
    """Parsed field file: grid, medium, and whichever components are present."""

    grid: SphereGrid
    medium: Medium
    frequency_hz: float
    columns: Dict[str, Optional[np.ndarray]]

    def present(self, name: str) -> bool:
        return self.columns.get(name) is not None

    def missing(self, names) -> list:
        return [n for n in names if not self.present(n)]

    def samples(self, kind: str) -> FieldSamples:
        """Assemble FieldSamples for 'E' or 'H'; absent components read as zero."""
        values = np.zeros((self.grid.n_nodes, 3), complex)
        for i, suffix in enumerate(("_r", "_theta", "_phi")):
            col = self.columns.get(kind + suffix)
            if col is not None:
                values[:, i] = col
        return FieldSamples(self.grid, kind, values, self.medium)


def write_field_file(path, e: Optional[FieldSamples], h: Optional[FieldSamples],
                     frequency_hz: float) -> None:
    """Write field samples as CSV with the grid geometry in the preamble.

    Either field may be omitted; its columns are left empty. Node order is
    theta-major, phi-minor, matching the grid.
    """
    ref = e if e is not None else h
    if ref is None:
        raise ValueError("at least one of E, H must be given")
    if e is not None and h is not None and not e.grid.same_geometry(h.grid):
        raise ValueError("E and H samples must share one grid")
    grid = ref.grid
    medium = ref.medium
    header = ["theta_rad", "phi_rad", "weight_sr"]
    for name in FIELD_COLUMNS:
        header += [f"re_{name}", f"im_{name}"]
    lines = [
        f"# radius_m={_fmt(grid.r0)}",
        f"# frequency_hz={_fmt(frequency_hz)}",
        f"# grid_l_max={grid.l_max}",
        f"# n_theta={grid.n_theta}",
        f"# n_phi={grid.n_phi}",
        f"# k_rad_per_m={_fmt(medium.k)}",
        f"# Z0_ohm={_fmt(medium.z0)}",
        ",".join(header),
    ]
    fields = {"E": e, "H": h}
    for i in range(grid.n_nodes):
        row = [_fmt(grid.theta[i]), _fmt(grid.phi[i]), _fmt(grid.weights[i])]
        for name in FIELD_COLUMNS:
            samples = fields[name[0]]
            if samples is None:
                row += ["", ""]
            else:
                col = {"r": 0, "theta": 1, "phi": 2}[name.split("_", 1)[1]]
                v = samples.values[i, col]
                row += [_fmt(v.real), _fmt(v.imag)]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_field_file(path) -> FieldFileData:
    """Parse a field file; the grid is rebuilt from the declared preamble
    geometry (extraction never guesses it) and checked against the node rows."""
    meta = {}
    rows = []
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    meta[key.strip()] = value.strip()
                continue
            if header is None:
                header = [c.strip() for c in line.split(",")]
                continue
            rows.append(line.split(","))
    if header is None:
        raise FormatError(f"{path}: no header row")
    for key in ("radius_m", "frequency_hz", "grid_l_max"):
        if key not in meta:
            raise FormatError(f"{path}: preamble key {key} missing")
    radius = float(meta["radius_m"])
    frequency = float(meta["frequency_hz"])
    grid_l_max = int(meta["grid_l_max"])
    n_theta = int(meta["n_theta"]) if "n_theta" in meta else None
    n_phi = int(meta["n_phi"]) if "n_phi" in meta else None
    k = float(meta["k_rad_per_m"]) if "k_rad_per_m" in meta else (
        2.0 * np.pi * frequency / SPEED_OF_LIGHT)
    z0 = float(meta["Z0_ohm"]) if "Z0_ohm" in meta else None
    medium = Medium(k=k) if z0 is None else Medium(k=k, z0=z0)
    grid = make_grid(grid_l_max, radius, n_theta=n_theta, n_phi=n_phi)
    if len(rows) != grid.n_nodes:
        raise FormatError(
            f"{path}: {len(rows)} node rows for a declared {grid.n_theta} x {grid.n_phi} grid")
    ncol = len(header)
    data = {name: [] for name in header}
    for row in rows:
        if len(row) != ncol:
            raise FormatError(f"{path}: row with {len(row)} fields, header names {ncol}")
        for name, cell in zip(header, row):
            data[name].append(cell.strip())

    for name, declared in (("theta_rad", grid.theta), ("phi_rad", grid.phi),
                           ("weight_sr", grid.weights)):
        if name not in data:
            raise FormatError(f"{path}: column {name} missing")
        if not np.allclose([float(v) for v in data[name]], declared, rtol=0.0, atol=1e-12):
            raise FormatError(f"{path}: column {name} does not match the declared grid")

    columns: Dict[str, Optional[np.ndarray]] = {}
    for name in FIELD_COLUMNS:
        re_cells = data.get(f"re_{name}")
        im_cells = data.get(f"im_{name}")
        if re_cells is None or im_cells is None:
            columns[name] = None
            continue
        filled = [c != "" for c in re_cells]
        if not any(filled):
            columns[name] = None
            continue
        if not all(filled) or not all(c != "" for c in im_cells):
            raise FormatError(f"{path}: column {name} is partially empty")
        columns[name] = (np.array([float(v) for v in re_cells])
                         + 1j * np.array([float(v) for v in im_cells]))
    return FieldFileData(grid, medium, frequency, columns)


def write_pattern_csv(path, theta: np.ndarray, phi: np.ndarray,
                      e_theta: np.ndarray, e_phi: np.ndarray,
                      normalize: bool = False) -> None:
    """Far-field pattern CSV: magnitudes and phases of E_theta, E_phi per
    direction; --normalize divides magnitudes by the overall peak."""
    mag_t = np.abs(e_theta)
    mag_p = np.abs(e_phi)
    if normalize:
        peak = max(mag_t.max(), mag_p.max())
        if peak > 0.0:
            mag_t = mag_t / peak
            mag_p = mag_p / peak
    lines = ["theta_rad,phi_rad,mag_E_theta,phase_E_theta_rad,mag_E_phi,phase_E_phi_rad"]
    for i in range(len(theta)):
        lines.append(",".join([
            _fmt(theta[i]), _fmt(phi[i]),
            _fmt(mag_t[i]), _fmt(np.angle(e_theta[i])),
            _fmt(mag_p[i]), _fmt(np.angle(e_phi[i])),
        ]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
