"""Byte-level pins of the three file formats against a per-cell reference
writer: every number is ``format(float(x), ".17g")`` and cells are joined by
commas, one row per node, direction or mode."""

import numpy as np
import pytest

from helpers import random_coefficients
from spheremodes import FieldSamples, Medium, make_grid, synthesize
from spheremodes.fileio import (FIELD_COLUMNS, read_field_file, write_coefficients,
                                write_field_file, write_pattern_csv)
from spheremodes.multipole import modes_upto, mode_slot

SPECIAL = (-0.0, 0.0, 5e-324, -2.2250738585072014e-308 / 3, 1.7976931348623157e308,
           -1.7976931348623157e308, 2.2250738585072014e-308, 0.1, -1.0 / 3.0)


def _cell(x):
    return format(float(x), ".17g")


def reference_field_file(e, h, frequency_hz):
    ref = e if e is not None else h
    grid, medium = ref.grid, ref.medium
    header = ["theta_rad", "phi_rad", "weight_sr"]
    for name in FIELD_COLUMNS:
        header += [f"re_{name}", f"im_{name}"]
    lines = [f"# radius_m={_cell(grid.r0)}", f"# frequency_hz={_cell(frequency_hz)}",
             f"# grid_l_max={grid.l_max}", f"# n_theta={grid.n_theta}",
             f"# n_phi={grid.n_phi}", f"# k_rad_per_m={_cell(medium.k)}",
             f"# Z0_ohm={_cell(medium.z0)}", ",".join(header)]
    for i in range(grid.n_nodes):
        row = [_cell(grid.theta[i]), _cell(grid.phi[i]), _cell(grid.weights[i])]
        for samples in (e, h):
            for col in range(3):
                if samples is None:
                    row += ["", ""]
                else:
                    v = samples.values[i, col]
                    row += [_cell(v.real), _cell(v.imag)]
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode()


def reference_pattern_csv(theta, phi, e_theta, e_phi, normalize):
    mag_t, mag_p = np.abs(e_theta), np.abs(e_phi)
    if normalize:
        peak = max(mag_t.max(), mag_p.max())
        if peak > 0.0:
            mag_t, mag_p = mag_t / peak, mag_p / peak
    lines = ["theta_rad,phi_rad,mag_E_theta,phase_E_theta_rad,mag_E_phi,phase_E_phi_rad"]
    for i in range(len(theta)):
        lines.append(",".join([_cell(theta[i]), _cell(phi[i]),
                               _cell(mag_t[i]), _cell(np.angle(e_theta[i])),
                               _cell(mag_p[i]), _cell(np.angle(e_phi[i]))]))
    return ("\n".join(lines) + "\n").encode()


def reference_coefficients(coeffs, frequency_hz):
    rows = []
    for mode in modes_upto(coeffs.l_max):
        ae = coeffs.a_e[mode_slot(mode.l, mode.m)]
        am = coeffs.a_m[mode_slot(mode.l, mode.m)]
        rows.append(f'    {{"l": {mode.l}, "m": {mode.m},'
                    f' "aE": [{_cell(ae.real)}, {_cell(ae.imag)}],'
                    f' "aM": [{_cell(am.real)}, {_cell(am.imag)}]}}')
    lines = ["{", '  "schema_version": "1",', f'  "l_max": {coeffs.l_max},',
             f'  "frequency_hz": {_cell(frequency_hz)},',
             f'  "medium": {{"k": {_cell(coeffs.medium.k)}, "Z0": {_cell(coeffs.medium.z0)}}},',
             '  "modes": [', ",\n".join(rows), "  ]", "}"]
    return ("\n".join(lines) + "\n").encode()


def reference_columns(path):
    """Per-cell float() parse of the field columns of a written file."""
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    cells = [l.split(",") for l in lines[1:]]
    out = {}
    for name in FIELD_COLUMNS:
        re = [row[header.index(f"re_{name}")].strip() for row in cells]
        im = [row[header.index(f"im_{name}")].strip() for row in cells]
        out[name] = None if re[0] == "" else np.array(
            [complex(float(r), float(i)) for r, i in zip(re, im)])
    return out


def _wide_values(rng, n):
    """Complex samples spanning the double range, with signed zeros and
    subnormals planted in every component."""
    parts = rng.standard_normal((n, 6)) * 10.0 ** rng.uniform(-300, 300, (n, 6))
    for i, x in enumerate(SPECIAL):
        parts[i % n, (5 * i) % 6] = x
        parts[(i + 7) % n, (5 * i + 1) % 6] = x
    return parts.view(complex)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


@pytest.fixture
def samples():
    rng = np.random.default_rng(23)
    grid = make_grid(4, 0.75)
    medium = Medium(k=np.pi / 3)
    e = FieldSamples(grid, "E", _wide_values(rng, grid.n_nodes), medium)
    h = FieldSamples(grid, "H", _wide_values(rng, grid.n_nodes), medium)
    return e, h


@pytest.mark.parametrize("present", ["EH", "E", "H"])
def test_field_file_bytes_match_reference(tmp_path, samples, present):
    e = samples[0] if "E" in present else None
    h = samples[1] if "H" in present else None
    path = tmp_path / "f.csv"
    write_field_file(path, e, h, 1.2345e9)
    assert path.read_bytes() == reference_field_file(e, h, 1.2345e9)


@pytest.mark.parametrize("present", ["EH", "E", "H"])
def test_field_columns_match_reference_parse(tmp_path, samples, present):
    e = samples[0] if "E" in present else None
    h = samples[1] if "H" in present else None
    path = tmp_path / "f.csv"
    write_field_file(path, e, h, 1.0e9)
    got = read_field_file(path).columns
    for name, want in reference_columns(path).items():
        if want is None:
            assert got[name] is None
        else:
            assert _same_bits(got[name], want), name


def test_padded_cells_parse_to_the_same_bits(tmp_path, samples):
    path = tmp_path / "f.csv"
    write_field_file(path, samples[0], samples[1], 1.0e9)
    lines = path.read_text().splitlines()
    padded = lines[:8] + [",".join(f" {c}\t " for c in l.split(",")) for l in lines[8:]]
    padded_path = tmp_path / "padded.csv"
    padded_path.write_text("\n".join(padded) + "\n")
    want, got = read_field_file(path).columns, read_field_file(padded_path).columns
    for name in FIELD_COLUMNS:
        assert _same_bits(got[name], want[name]), name


def test_whitespace_only_column_reads_as_absent(tmp_path, samples):
    path = tmp_path / "f.csv"
    write_field_file(path, samples[0], None, 1.0e9)
    lines = path.read_text().splitlines()
    header = lines[7].split(",")
    blank = {header.index("re_H_theta"), header.index("im_H_theta")}
    for i in range(8, len(lines)):
        lines[i] = ",".join("   " if j in blank else c
                            for j, c in enumerate(lines[i].split(",")))
    path.write_text("\n".join(lines) + "\n")
    data = read_field_file(path)
    assert data.missing(FIELD_COLUMNS) == ["H_r", "H_theta", "H_phi"]


@pytest.mark.parametrize("normalize", [False, True])
def test_pattern_csv_bytes_match_reference(tmp_path, normalize):
    rng = np.random.default_rng(5)
    n = 400
    theta = rng.uniform(0.0, np.pi, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    e_t = _wide_values(rng, n)[:, 0] * 1e-280
    e_p = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    e_p[:4] = [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0), 0j]
    path = tmp_path / "p.csv"
    write_pattern_csv(path, theta, phi, e_t, e_p, normalize=normalize)
    assert path.read_bytes() == reference_pattern_csv(theta, phi, e_t, e_p, normalize)


@pytest.mark.parametrize("normalize", [False, True])
def test_zero_pattern_bytes_match_reference(tmp_path, normalize):
    theta = np.linspace(0.0, np.pi, 7)
    phi = np.zeros(7)
    zeros = np.full(7, complex(-0.0, -0.0))
    path = tmp_path / "p.csv"
    write_pattern_csv(path, theta, phi, zeros, zeros, normalize=normalize)
    assert path.read_bytes() == reference_pattern_csv(theta, phi, zeros, zeros, normalize)


@pytest.mark.parametrize("l_max", [1, 4, 16])
def test_coefficient_bytes_match_reference(tmp_path, l_max):
    rng = np.random.default_rng(l_max)
    c = random_coefficients(l_max, Medium(k=2.0), rng)
    path = tmp_path / "c.json"
    write_coefficients(path, c, 299792458.0)
    assert path.read_bytes() == reference_coefficients(c, 299792458.0)


def test_coefficient_bytes_with_special_values(tmp_path):
    c = random_coefficients(2, Medium(k=1.0), np.random.default_rng(3))
    values = np.resize(np.array(SPECIAL), 4 * len(c.a_e)).view(complex)
    special = type(c)(2, c.medium, values[: len(c.a_e)], values[len(c.a_e):])
    path = tmp_path / "c.json"
    write_coefficients(path, special, 1.0)
    assert path.read_bytes() == reference_coefficients(special, 1.0)


def test_synthesized_field_file_matches_reference(tmp_path):
    c = random_coefficients(5, Medium(k=np.pi / 2), np.random.default_rng(8))
    e, h = synthesize(c, 1.0, make_grid(5, 1.0))
    path = tmp_path / "f.csv"
    write_field_file(path, e, h, 3e8)
    assert path.read_bytes() == reference_field_file(e, h, 3e8)
