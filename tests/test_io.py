"""Coefficient JSON and field CSV formats: exact round trips and validation."""

import json

import numpy as np
import pytest

from helpers import random_coefficients
from spheremodes import FieldSamples, Medium, fileio, make_grid, synthesize
from spheremodes.fileio import (FormatError, read_coefficients, read_field_file,
                                write_coefficients, write_field_file, write_pattern_csv)


@pytest.fixture
def medium():
    return Medium(k=np.pi / 2)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestCoefficientFile:
    def test_values_round_trip_exactly(self, tmp_path, medium, rng):
        c = random_coefficients(4, medium, rng)
        path = tmp_path / "c.json"
        write_coefficients(path, c, 3e8)
        got, freq = read_coefficients(path)
        assert freq == 3e8
        assert np.array_equal(got.a_e, c.a_e)
        assert np.array_equal(got.a_m, c.a_m)
        assert got.medium.k == c.medium.k and got.medium.z0 == c.medium.z0

    def test_serialization_byte_stable(self, tmp_path, medium, rng):
        c = random_coefficients(3, medium, rng)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_coefficients(p1, c, 1.0e9)
        loaded, freq = read_coefficients(p1)
        write_coefficients(p2, loaded, freq)
        assert p1.read_bytes() == p2.read_bytes()

    def test_is_valid_json_with_canonical_order(self, tmp_path, medium):
        c = random_coefficients(2, medium, np.random.default_rng(0))
        path = tmp_path / "c.json"
        write_coefficients(path, c, 1.0)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == "1"
        got = [(row["l"], row["m"]) for row in doc["modes"]]
        assert got == sorted(got)
        assert len(got) == 8  # every (l, m) with l <= 2 exactly once

    def test_rejects_duplicate_and_missing_modes(self, tmp_path, medium):
        c = random_coefficients(2, medium, np.random.default_rng(0))
        path = tmp_path / "c.json"
        write_coefficients(path, c, 1.0)
        doc = json.loads(path.read_text())
        doc["modes"][1] = doc["modes"][0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            read_coefficients(bad)
        doc2 = json.loads(path.read_text())
        doc2["modes"] = doc2["modes"][:-1]
        bad.write_text(json.dumps(doc2))
        with pytest.raises(FormatError):
            read_coefficients(bad)

    def test_nan_first_entry_does_not_hide_a_duplicate(self, tmp_path, medium):
        c = random_coefficients(2, medium, np.random.default_rng(0))
        path = tmp_path / "c.json"
        write_coefficients(path, c, 1.0)
        doc = json.loads(path.read_text())
        doc["modes"].insert(0, dict(doc["modes"][0], aE=[float("nan"), 0.0]))
        path.write_text(json.dumps(doc))  # json writes the NaN as a bare NaN literal
        with pytest.raises(FormatError, match=r"mode \(l=1, m=-1\)"):
            read_coefficients(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("key,part", [("aE", 0), ("aE", 1), ("aM", 0), ("aM", 1)])
    def test_rejects_non_finite_value_naming_the_mode(self, tmp_path, medium, value, key, part):
        c = random_coefficients(2, medium, np.random.default_rng(0))
        path = tmp_path / "c.json"
        write_coefficients(path, c, 1.0)
        doc = json.loads(path.read_text())
        doc["modes"][5][key][part] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"mode \(l=2, m=0\) has a non-finite"):
            read_coefficients(path)

    def test_missing_mode_is_named(self, tmp_path, medium):
        c = random_coefficients(2, medium, np.random.default_rng(0))
        path = tmp_path / "c.json"
        write_coefficients(path, c, 1.0)
        doc = json.loads(path.read_text())
        del doc["modes"][3]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"mode \(l=2, m=-2\) missing"):
            read_coefficients(path)

    @pytest.mark.parametrize("row,edit", [
        (2, lambda row: row.pop("aM")),
        (3, lambda row: row.update(aE=1.0)),
        (4, lambda row: row.update(aE=["x", 0])),
        (5, lambda row: row.update(aM=[1.0])),
        (6, lambda row: row.update(l=None)),
        (7, lambda row: row.update(m=1e400)),
    ])
    def test_rejects_malformed_mode_row_naming_it(self, tmp_path, medium, row, edit):
        c = random_coefficients(2, medium, np.random.default_rng(0))
        path = tmp_path / "c.json"
        write_coefficients(path, c, 1.0)
        doc = json.loads(path.read_text())
        edit(doc["modes"][row])
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=rf"c\.json: mode row {row} missing or malformed"):
            read_coefficients(path)

    @pytest.mark.parametrize("modes", [5, {"l": 1}, None])
    def test_rejects_modes_that_are_not_a_list(self, tmp_path, medium, modes):
        c = random_coefficients(1, medium, np.random.default_rng(0))
        path = tmp_path / "c.json"
        write_coefficients(path, c, 1.0)
        doc = json.loads(path.read_text())
        doc["modes"] = modes
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"c\.json: modes must be a list"):
            read_coefficients(path)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(l_max=1.9),
        lambda doc: doc["modes"][3].update(m=-1.7),
        lambda doc: doc["modes"][3].update(aE=[1, 2, 3]),
    ], ids=["fractional l_max", "fractional m", "three parts"])
    def test_rejects_non_integers_and_extra_parts(self, tmp_path, medium, edit):
        c = random_coefficients(2, medium, np.random.default_rng(0))
        path = tmp_path / "c.json"
        write_coefficients(path, c, 1.0)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"c\.json: .*(integer|\[re, im\])"):
            read_coefficients(path)

    def test_huge_declared_degree_is_rejected_before_allocating(self, tmp_path, medium):
        # 10^14 modes would be 1.42 PiB of coefficients; the 8 rows present name the gap
        c = random_coefficients(2, medium, np.random.default_rng(0))
        path = tmp_path / "c.json"
        write_coefficients(path, c, 1.0)
        doc = json.loads(path.read_text())
        doc["l_max"] = 10_000_000
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"mode \(l=3, m=-3\) missing"):
            read_coefficients(path)

    @pytest.mark.parametrize("frequency", [-5.0, 0.0, float("nan")])
    def test_rejects_frequency_not_finite_and_positive(self, tmp_path, medium, frequency):
        path = tmp_path / "c.json"
        write_coefficients(path, random_coefficients(2, medium, np.random.default_rng(0)), 1.0)
        doc = json.loads(path.read_text())
        doc["frequency_hz"] = frequency
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="frequency must be finite and > 0"):
            read_coefficients(path)

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json {")
        with pytest.raises(FormatError):
            read_coefficients(path)


class TestFieldFile:
    def test_full_round_trip(self, tmp_path, medium, rng):
        c = random_coefficients(3, medium, rng)
        grid = make_grid(3, 1.0)
        e, h = synthesize(c, 1.0, grid)
        path = tmp_path / "f.csv"
        write_field_file(path, e, h, 3e8)
        data = read_field_file(path)
        assert data.grid.n_theta == grid.n_theta and data.grid.n_phi == grid.n_phi
        assert data.grid.r0 == 1.0
        assert data.medium.k == medium.k
        for name, col in (("E_r", e.values[:, 0]), ("E_theta", e.values[:, 1]),
                          ("H_phi", h.values[:, 2])):
            assert np.array_equal(data.columns[name], col)
        rebuilt = data.samples("E")
        assert np.array_equal(rebuilt.values, e.values)

    def test_signed_zeros_read_back_bit_for_bit(self, tmp_path, medium, rng):
        grid = make_grid(2, 1.0)
        values = rng.normal(size=(grid.n_nodes, 3)) + 1j * rng.normal(size=(grid.n_nodes, 3))
        values[0, 0] = complex(-0.0, 2.0)
        values[1, 1] = complex(3.0, -0.0)
        values[2, 2] = complex(-0.0, -0.0)
        e = FieldSamples(grid, "E", values, medium)
        path = tmp_path / "f.csv"
        write_field_file(path, e, None, 3e8)
        data = read_field_file(path)
        got = data.samples("E").values
        assert np.array_equal(got.view(np.uint64), e.values.view(np.uint64))
        assert np.signbit(data.columns["E_r"][0].real)
        assert np.signbit(data.columns["E_theta"][1].imag)

    def test_e_only_file_has_no_h_columns(self, tmp_path, medium, rng):
        c = random_coefficients(2, medium, rng)
        grid = make_grid(2, 1.0)
        e, _ = synthesize(c, 1.0, grid)
        path = tmp_path / "e_only.csv"
        write_field_file(path, e, None, 3e8)
        data = read_field_file(path)
        assert data.missing(["H_r", "H_theta", "H_phi"]) == ["H_r", "H_theta", "H_phi"]
        assert data.present("E_r")
        # absent components read back as zeros in assembled samples
        assert np.all(data.samples("H").values == 0)

    def test_rejects_partial_column(self, tmp_path, medium, rng):
        c = random_coefficients(2, medium, rng)
        grid = make_grid(2, 1.0)
        e, h = synthesize(c, 1.0, grid)
        path = tmp_path / "f.csv"
        write_field_file(path, e, h, 3e8)
        lines = path.read_text().splitlines()
        header = lines[7].split(",")
        idx = header.index("re_H_r")
        row = lines[9].split(",")
        row[idx] = ""
        lines[9] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            read_field_file(path)

    def test_rejects_missing_preamble_key(self, tmp_path, medium, rng):
        c = random_coefficients(2, medium, rng)
        grid = make_grid(2, 1.0)
        e, h = synthesize(c, 1.0, grid)
        path = tmp_path / "f.csv"
        write_field_file(path, e, h, 3e8)
        body = "\n".join(l for l in path.read_text().splitlines()
                         if not l.startswith("# radius_m"))
        path.write_text(body + "\n")
        with pytest.raises(FormatError):
            read_field_file(path)

    def test_rejects_row_count_before_building_the_declared_grid(self, tmp_path, medium, rng,
                                                                  monkeypatch):
        e, h = synthesize(random_coefficients(2, medium, rng), 1.0, make_grid(2, 1.0))
        path = tmp_path / "f.csv"
        write_field_file(path, e, h, 3e8)
        path.write_text(path.read_text().replace("# n_phi=6", "# n_phi=6000000"))

        def no_grid(*args, **kwargs):
            raise AssertionError("make_grid called before the row count was checked")
        monkeypatch.setattr(fileio, "make_grid", no_grid)
        with pytest.raises(FormatError, match="18 node rows for a declared 3 x 6000000 grid"):
            read_field_file(path)

    @pytest.mark.parametrize("frequency", ["-5.0", "0", "nan"])
    def test_rejects_frequency_not_finite_and_positive(self, tmp_path, medium, rng, frequency):
        e, h = synthesize(random_coefficients(2, medium, rng), 1.0, make_grid(2, 1.0))
        path = tmp_path / "f.csv"
        write_field_file(path, e, h, 3e8)
        path.write_text(path.read_text().replace("# frequency_hz=300000000",
                                                 f"# frequency_hz={frequency}"))
        with pytest.raises(ValueError, match="frequency must be finite and > 0"):
            read_field_file(path)

    @pytest.mark.parametrize("key", ["n_theta", "n_phi"])
    def test_rejects_undeclared_grid_shape(self, tmp_path, medium, rng, key):
        e, h = synthesize(random_coefficients(2, medium, rng), 1.0, make_grid(2, 1.0))
        path = tmp_path / "f.csv"
        write_field_file(path, e, h, 3e8)
        path.write_text("\n".join(line for line in path.read_text().splitlines()
                                  if not line.startswith(f"# {key}=")) + "\n")
        with pytest.raises(FormatError, match=f"preamble key {key} missing"):
            read_field_file(path)

    def test_rejects_row_count_mismatch(self, tmp_path, medium, rng):
        c = random_coefficients(2, medium, rng)
        grid = make_grid(2, 1.0)
        e, h = synthesize(c, 1.0, grid)
        path = tmp_path / "f.csv"
        write_field_file(path, e, h, 3e8)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(FormatError):
            read_field_file(path)

    @pytest.mark.parametrize("column,value", [("phi_rad", "123.0"), ("weight_sr", "-5.0"),
                                              ("theta_rad", "0.5")])
    def test_rejects_grid_columns_off_the_declared_grid(self, tmp_path, medium, rng, column,
                                                         value):
        c = random_coefficients(2, medium, rng)
        e, h = synthesize(c, 1.0, make_grid(2, 1.0))
        path = tmp_path / "f.csv"
        write_field_file(path, e, h, 3e8)
        lines = path.read_text().splitlines()
        idx = lines[7].split(",").index(column)
        for i in range(8, len(lines)):
            row = lines[i].split(",")
            row[idx] = value
            lines[i] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=column):
            read_field_file(path)

    def test_rejects_duplicate_column_names(self, tmp_path, medium, rng):
        c = random_coefficients(2, medium, rng)
        e, h = synthesize(c, 1.0, make_grid(2, 1.0))
        path = tmp_path / "f.csv"
        write_field_file(path, e, h, 3e8)
        lines = path.read_text().splitlines()
        lines[7] = lines[7].replace("re_H_r", "re_E_r")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="re_E_r"):
            read_field_file(path)

    def test_rejects_imaginary_part_without_real_part(self, tmp_path, medium, rng):
        c = random_coefficients(2, medium, rng)
        e, h = synthesize(c, 1.0, make_grid(2, 1.0))
        path = tmp_path / "f.csv"
        write_field_file(path, e, h, 3e8)
        lines = path.read_text().splitlines()
        idx = lines[7].split(",").index("re_H_phi")
        for i in range(8, len(lines)):
            row = lines[i].split(",")
            row[idx] = ""
            lines[i] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="H_phi"):
            read_field_file(path)

    def test_node_order_theta_major(self, tmp_path, medium, rng):
        c = random_coefficients(2, medium, rng)
        grid = make_grid(2, 1.0)
        e, h = synthesize(c, 1.0, grid)
        path = tmp_path / "f.csv"
        write_field_file(path, e, h, 3e8)
        data = read_field_file(path)
        assert np.array_equal(data.grid.theta, grid.theta)
        assert np.array_equal(data.grid.phi, grid.phi)


class TestPatternCsv:
    def test_normalization_flag(self, tmp_path):
        theta = np.array([0.5, 1.5])
        phi = np.zeros(2)
        e_t = np.array([2.0 + 0j, 4.0 + 0j])
        e_p = np.array([0j, 0j])
        raw, normed = tmp_path / "raw.csv", tmp_path / "norm.csv"
        write_pattern_csv(raw, theta, phi, e_t, e_p, normalize=False)
        write_pattern_csv(normed, theta, phi, e_t, e_p, normalize=True)
        raw_rows = [l.split(",") for l in raw.read_text().splitlines()[1:]]
        norm_rows = [l.split(",") for l in normed.read_text().splitlines()[1:]]
        assert float(raw_rows[1][2]) == 4.0
        assert float(norm_rows[1][2]) == 1.0
        assert float(norm_rows[0][2]) == 0.5
