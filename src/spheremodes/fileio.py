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

from .harmonics import (FieldSamples, SphereGrid, make_grid, mode_degrees, mode_orders,
                        require_positive)
from .multipole import (SPEED_OF_LIGHT, CoefficientSet, Medium, mode_count, mode_slot,
                        modes_upto)

COEFF_SCHEMA_VERSION = "1"

FIELD_COLUMNS = ("E_r", "E_theta", "E_phi", "H_r", "H_theta", "H_phi")

_COEFF_ROW = '    {"l": %d, "m": %d, "aE": [%.17g, %.17g], "aM": [%.17g, %.17g]}'


class FormatError(ValueError):
    """Malformed or inconsistent input file."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_table(path, head_lines, row_template, table, tail_lines=(), row_sep="\n") -> None:
    """Write a text file: the head lines, then ``row_template % row`` for each
    row of the 2-d float array ``table`` joined by ``row_sep``, then the tail
    lines, each ended by a newline."""
    rows = row_sep.join([row_template % tuple(row) for row in table.tolist()])
    lines = [*head_lines, rows, *tail_lines] if rows or tail_lines else list(head_lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_coefficients(path, coeffs: CoefficientSet, frequency_hz: float) -> None:
    """Write a coefficient file in canonical order with 17-digit numbers."""
    head = [
        "{",
        f'  "schema_version": "{COEFF_SCHEMA_VERSION}",',
        f'  "l_max": {coeffs.l_max},',
        f'  "frequency_hz": {_fmt(frequency_hz)},',
        f'  "medium": {{"k": {_fmt(coeffs.medium.k)}, "Z0": {_fmt(coeffs.medium.z0)}}},',
        '  "modes": [',
    ]
    table = np.column_stack([mode_degrees(coeffs.l_max), mode_orders(coeffs.l_max),
                             coeffs.a_e.real, coeffs.a_e.imag,
                             coeffs.a_m.real, coeffs.a_m.imag])
    _write_table(path, head, _COEFF_ROW, table, tail_lines=("  ]", "}"), row_sep=",\n")


def read_coefficients(path):
    """Read a coefficient file; returns (CoefficientSet, frequency_hz). Nothing
    is allocated for l_max before its mode_count(l_max) rows are all read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    try:
        l_max, modes = doc["l_max"], doc["modes"]
        numbers = doc["frequency_hz"], doc["medium"]["k"], doc["medium"]["Z0"]
        if not all(type(x) in (int, float) for x in numbers):  # no booleans or strings
            raise TypeError("frequency_hz, k and Z0 must be numbers")
        frequency, k, z0 = map(float, numbers)
        require_positive("frequency", frequency)
        medium = Medium(k=k, z0=z0)
    except (KeyError, OverflowError, TypeError) as exc:
        raise FormatError(f"{path}: missing or malformed field ({exc})") from exc
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if type(l_max) is not int or l_max < 1:
        raise FormatError(f"{path}: l_max must be an integer >= 1, got {l_max!r}")
    if not isinstance(modes, list):
        raise FormatError(f"{path}: modes must be a list of mode rows")
    rows = {}  # mode_slot -> (aE, aM)
    for index, row in enumerate(modes):
        try:
            l, m, a_e_lm, a_m_lm = row["l"], row["m"], row["aE"], row["aM"]
            if not (type(l) is type(m) is int and len(a_e_lm) == len(a_m_lm) == 2
                    and bool not in map(type, (*a_e_lm, *a_m_lm))):
                raise TypeError("l and m must be integers, aE and aM [re, im] number pairs")
            a_lm = complex(*a_e_lm), complex(*a_m_lm)
        except (KeyError, OverflowError, TypeError) as exc:
            raise FormatError(f"{path}: mode row {index} missing or malformed "
                              f"({type(exc).__name__}: {exc})") from exc
        if l < 1 or l > l_max or abs(m) > l:
            raise FormatError(f"{path}: mode (l={l}, m={m}) outside 1..l_max={l_max}")
        if mode_slot(l, m) in rows:
            raise FormatError(f"{path}: duplicate mode (l={l}, m={m})")
        rows[mode_slot(l, m)] = a_lm
    if len(rows) < mode_count(l_max):  # distinct and in range, so one is left out
        l, m = next((l, m) for l in range(1, l_max + 1) for m in range(-l, l + 1)
                    if mode_slot(l, m) not in rows)
        raise FormatError(f"{path}: mode (l={l}, m={m}) missing; every (l, m) with "
                          f"l <= {l_max} must appear exactly once")
    a_e, a_m = np.array([rows[slot] for slot in range(len(rows))]).T
    finite = np.isfinite(a_e) & np.isfinite(a_m)
    if not finite.all():
        slot = np.argmin(finite)
        mode = modes_upto(l_max)[slot]
        raise FormatError(f"{path}: mode (l={mode.l}, m={mode.m}) has a non-finite coefficient "
                          f"(aE={a_e[slot]}, aM={a_m[slot]})")
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
    grid, medium = ref.grid, ref.medium
    header = ["theta_rad", "phi_rad", "weight_sr",
              *(f"{part}_{name}" for name in FIELD_COLUMNS for part in ("re", "im"))]
    head = [
        f"# radius_m={_fmt(grid.r0)}",
        f"# frequency_hz={_fmt(frequency_hz)}",
        f"# grid_l_max={grid.l_max}",
        f"# n_theta={grid.n_theta}",
        f"# n_phi={grid.n_phi}",
        f"# k_rad_per_m={_fmt(medium.k)}",
        f"# Z0_ohm={_fmt(medium.z0)}",
        ",".join(header),
    ]
    # The float view of the (n_nodes, 3) complex samples is already in header
    # order: re_r, im_r, re_theta, im_theta, re_phi, im_phi.
    cells = ["%.17g"] * 3
    blocks = [grid.theta, grid.phi, grid.weights]
    for samples in (e, h):
        if samples is None:
            cells += [""] * 6
        else:
            cells += ["%.17g"] * 6
            blocks.append(np.ascontiguousarray(samples.values).view(float))
    _write_table(path, head, ",".join(cells), np.column_stack(blocks))


def _float_column(path, name, cells) -> Optional[np.ndarray]:
    """Parse one column of cells; None if every cell is empty or blank."""
    if not "".join(cells).strip():
        return None
    try:
        return np.array(cells, dtype=float)
    except ValueError as exc:
        raise FormatError(f"{path}: column {name} is partially empty or not numeric "
                          f"({exc})") from None


def read_field_file(path) -> FieldFileData:
    """Parse a field file; the grid is rebuilt from the declared preamble
    geometry (extraction never guesses it) once there are n_theta x n_phi rows."""
    meta, rows, header = {}, [], None
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
    duplicates = sorted({name for name in header if header.count(name) > 1})
    if duplicates:
        raise FormatError(f"{path}: header names column {', '.join(duplicates)} more than once")
    for key in ("radius_m", "frequency_hz", "grid_l_max", "n_theta", "n_phi"):
        if key not in meta:
            raise FormatError(f"{path}: preamble key {key} missing")
    try:  # a value that is not a number, or not a valid radius, medium or grid
        radius = float(meta["radius_m"])
        frequency = float(meta["frequency_hz"])
        require_positive("frequency", frequency)
        grid_l_max, n_theta, n_phi = (int(meta[key]) for key in ("grid_l_max", "n_theta", "n_phi"))
        if len(rows) != n_theta * n_phi:  # before make_grid allocates the declared grid
            raise FormatError(f"{len(rows)} node rows for a declared {n_theta} x {n_phi} grid")
        k = float(meta["k_rad_per_m"]) if "k_rad_per_m" in meta else (
            2.0 * np.pi * frequency / SPEED_OF_LIGHT)
        z0 = float(meta["Z0_ohm"]) if "Z0_ohm" in meta else None
        medium = Medium(k=k) if z0 is None else Medium(k=k, z0=z0)
        grid = make_grid(grid_l_max, radius, n_theta=n_theta, n_phi=n_phi)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    ncol = len(header)
    bad_widths = set(map(len, rows)) - {ncol}
    if bad_widths:
        raise FormatError(f"{path}: row with {min(bad_widths)} fields, header names {ncol}")
    data = dict(zip(header, zip(*rows)))

    for name, declared in (("theta_rad", grid.theta), ("phi_rad", grid.phi),
                           ("weight_sr", grid.weights)):
        if name not in data:
            raise FormatError(f"{path}: column {name} missing")
        values = _float_column(path, name, data[name])
        if values is None or not np.allclose(values, declared, rtol=0.0, atol=1e-12):
            raise FormatError(f"{path}: column {name} does not match the declared grid")

    columns: Dict[str, Optional[np.ndarray]] = {}
    for name in FIELD_COLUMNS:
        re_cells = data.get(f"re_{name}")
        im_cells = data.get(f"im_{name}")
        if re_cells is None or im_cells is None:
            columns[name] = None
            continue
        re = _float_column(path, f"re_{name}", re_cells)
        im = _float_column(path, f"im_{name}", im_cells)
        if (re is None) != (im is None):
            raise FormatError(f"{path}: column {name} is partially empty")
        if re is not None and not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise FormatError(f"{path}: column {name} has a non-finite value")
        if re is None:
            columns[name] = None
        else:  # filled part by part: re + 1j * im turns -0.0 parts into +0.0
            columns[name] = np.empty(len(re), complex)
            columns[name].real, columns[name].imag = re, im
    return FieldFileData(grid, medium, frequency, columns)


def write_pattern_csv(path, theta: np.ndarray, phi: np.ndarray,
                      e_theta: np.ndarray, e_phi: np.ndarray,
                      normalize: bool = False) -> None:
    """Far-field pattern CSV: magnitudes and phases of E_theta, E_phi per
    direction; --normalize divides magnitudes by the overall peak."""
    mag_t, mag_p = np.abs(e_theta), np.abs(e_phi)
    peak = max(mag_t.max(), mag_p.max()) if normalize else 0.0
    if peak > 0.0:
        mag_t, mag_p = mag_t / peak, mag_p / peak
    header = "theta_rad,phi_rad,mag_E_theta,phase_E_theta_rad,mag_E_phi,phase_E_phi_rad"
    table = np.column_stack([theta, phi, mag_t, np.angle(e_theta), mag_p, np.angle(e_phi)])
    _write_table(path, [header], ",".join(["%.17g"] * 6), table)
