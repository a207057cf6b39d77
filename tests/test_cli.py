"""CLI subcommands: pipelines, exit codes, and byte-level determinism."""

import json

import numpy as np
import pytest

from helpers import per_coefficient_error, random_coefficients
from spheremodes import CoefficientSet, Medium, cli, dipole, harmonics, make_grid, synthesize
from spheremodes.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_TOLERANCE, main
from spheremodes.dipole import DipoleSpec, radial_source_on_sphere
from spheremodes.extraction import FLAG_THRESHOLD, equivalence_report
from spheremodes.fileio import read_coefficients, read_field_file, write_coefficients, write_field_file

FREQ = 299792458.0 / 4.0  # wavelength 4 m, so k = pi/2 and kr0 = pi/2 at r0 = 1


@pytest.fixture
def medium():
    return Medium.free_space(FREQ)


@pytest.fixture
def coeff_file(tmp_path, medium):
    rng = np.random.default_rng(17)
    c = random_coefficients(3, medium, rng)
    path = tmp_path / "coeffs.json"
    write_coefficients(path, c, FREQ)
    return path, c


class TestSynth:
    def test_zero_coefficients_give_zero_field_file(self, tmp_path, medium):
        path = tmp_path / "zero.json"
        write_coefficients(path, CoefficientSet.zeros(2, medium), FREQ)
        out = tmp_path / "field.csv"
        assert main(["synth", str(path), "--radius", "1.0", "--out", str(out)]) == EXIT_OK
        data = read_field_file(out)
        for name in ("E_r", "E_theta", "E_phi", "H_r", "H_theta", "H_phi"):
            assert np.all(data.columns[name] == 0)

    def test_dipole_radial_column_matches_harness(self, tmp_path):
        spec = DipoleSpec(1.0, 299792458.0 / FREQ)
        from spheremodes.dipole import halfwave_coeffs
        path = tmp_path / "dip.json"
        write_coefficients(path, halfwave_coeffs(spec), FREQ)
        out = tmp_path / "field.csv"
        assert main(["synth", str(path), "--radius", str(spec.source_radius),
                     "--grid-lmax", "8", "--out", str(out)]) == EXIT_OK
        data = read_field_file(out)
        want = radial_source_on_sphere(spec, make_grid(8, spec.source_radius))
        assert np.abs(data.columns["E_r"] - want.values[:, 0]).max() \
            <= 1e-12 * np.abs(want.values[:, 0]).max()

    def test_rejects_coarse_grid(self, coeff_file, tmp_path):
        path, _ = coeff_file
        out = tmp_path / "field.csv"
        assert main(["synth", str(path), "--radius", "1.0", "--grid-lmax", "2",
                     "--out", str(out)]) == EXIT_INPUT_ERROR

    def test_rejects_bad_radius(self, coeff_file, tmp_path):
        path, _ = coeff_file
        assert main(["synth", str(path), "--radius", "-1.0",
                     "--out", str(tmp_path / "f.csv")]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("radius", ["nan", "inf"])
    def test_rejects_non_finite_radius(self, coeff_file, tmp_path, capsys, radius):
        path, _ = coeff_file
        assert main(["synth", str(path), "--radius", radius,
                     "--out", str(tmp_path / "f.csv")]) == EXIT_INPUT_ERROR
        assert "radius must be finite" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    def test_radius_whose_hankel_values_overflow(self, coeff_file, tmp_path, capsys):
        path, _ = coeff_file
        out = tmp_path / "field.csv"
        assert main(["synth", str(path), "--radius", "1e-300",
                     "--out", str(out)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: overflow")
        assert not out.exists()

    def test_rejects_missing_file(self, tmp_path):
        assert main(["synth", str(tmp_path / "nope.json"), "--radius", "1.0",
                     "--out", str(tmp_path / "f.csv")]) == EXIT_INPUT_ERROR

    def test_directory_paths_are_input_errors(self, coeff_file, tmp_path, capsys):
        path, _ = coeff_file
        assert main(["synth", str(path), "--radius", "1.0", "--out", str(tmp_path)]) \
            == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: ")
        assert main(["synth", str(tmp_path), "--radius", "1.0",
                     "--out", str(tmp_path / "f.csv")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "f.csv").exists()

    def test_rejects_malformed_mode_row(self, coeff_file, tmp_path, capsys):
        path, _ = coeff_file
        doc = json.loads(path.read_text())
        del doc["modes"][4]["aM"]
        path.write_text(json.dumps(doc))
        out = tmp_path / "f.csv"
        assert main(["synth", str(path), "--radius", "1.0", "--out", str(out)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "mode row 4 missing or malformed" in err
        assert not out.exists()

    def test_byte_deterministic(self, coeff_file, tmp_path):
        path, _ = coeff_file
        out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        main(["synth", str(path), "--radius", "1.0", "--out", str(out1)])
        main(["synth", str(path), "--radius", "1.0", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestExtractPipeline:
    @pytest.mark.parametrize("route", ["radial", "tan-e", "tan-h"])
    def test_synth_extract_round_trip(self, coeff_file, tmp_path, route):
        path, c = coeff_file
        field = tmp_path / "field.csv"
        main(["synth", str(path), "--radius", "1.0", "--out", str(field)])
        out = tmp_path / f"back_{route}.json"
        assert main(["extract", str(field), "--route", route, "--lmax", "3",
                     "--out", str(out)]) == EXIT_OK
        got, _ = read_coefficients(out)
        assert per_coefficient_error(got, c) <= 1e-9

    def test_routes_agree_pairwise(self, coeff_file, tmp_path):
        path, _ = coeff_file
        field = tmp_path / "field.csv"
        main(["synth", str(path), "--radius", "1.0", "--out", str(field)])
        sets = []
        for route in ("radial", "tan-e", "tan-h"):
            out = tmp_path / f"{route}.json"
            main(["extract", str(field), "--route", route, "--lmax", "3", "--out", str(out)])
            sets.append(read_coefficients(out)[0])
        for i in range(3):
            for j in range(i + 1, 3):
                assert per_coefficient_error(sets[i], sets[j]) <= 1e-9

    def test_second_synth_reproduces_field(self, coeff_file, tmp_path):
        path, _ = coeff_file
        f1 = tmp_path / "f1.csv"
        main(["synth", str(path), "--radius", "1.0", "--out", str(f1)])
        back = tmp_path / "back.json"
        main(["extract", str(f1), "--route", "radial", "--lmax", "3", "--out", str(back)])
        f2 = tmp_path / "f2.csv"
        main(["synth", str(back), "--radius", "1.0", "--out", str(f2)])
        d1, d2 = read_field_file(f1), read_field_file(f2)
        for name in ("E_r", "E_theta", "E_phi", "H_r", "H_theta", "H_phi"):
            scale = np.abs(d1.columns[name]).max()
            assert np.abs(d1.columns[name] - d2.columns[name]).max() <= 1e-9 * max(scale, 1e-30)

    def test_default_degree_after_an_explicit_one(self, coeff_file, tmp_path):
        # the parser is built once per process; no --lmax may leak between calls
        path, _ = coeff_file
        field = tmp_path / "field.csv"
        main(["synth", str(path), "--radius", "1.0", "--grid-lmax", "4", "--out", str(field)])
        out = tmp_path / "back.json"
        for lmax, want in ((["--lmax", "3"], 3), ([], 4)):
            assert main(["extract", str(field), "--route", "tan-e", *lmax,
                         "--out", str(out)]) == EXIT_OK
            assert read_coefficients(out)[0].l_max == want
        assert cli.build_parser() is cli.build_parser()

    def test_missing_components_named_in_error(self, coeff_file, tmp_path, capsys):
        path, c = coeff_file
        grid = make_grid(3, 1.0)
        e, _ = synthesize(c, 1.0, grid)
        e_only = tmp_path / "e_only.csv"
        write_field_file(e_only, e, None, FREQ)
        code = main(["extract", str(e_only), "--route", "radial", "--lmax", "3",
                     "--out", str(tmp_path / "o.json")])
        assert code == EXIT_INPUT_ERROR
        assert "H_r" in capsys.readouterr().err
        # tangential-E is satisfied by the same file
        assert main(["extract", str(e_only), "--route", "tan-e", "--lmax", "3",
                     "--out", str(tmp_path / "o.json")]) == EXIT_OK


    @pytest.mark.parametrize("column", ["phi_rad", "weight_sr"])
    def test_rejects_field_file_off_its_grid(self, coeff_file, tmp_path, capsys, column):
        path, _ = coeff_file
        field = tmp_path / "field.csv"
        assert main(["synth", str(path), "--radius", "1.0", "--out", str(field)]) == EXIT_OK
        lines = field.read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        idx = lines[header].split(",").index(column)
        for i in range(header + 1, len(lines)):
            row = lines[i].split(",")
            row[idx] = "123.0"
            lines[i] = ",".join(row)
        field.write_text("\n".join(lines) + "\n")
        out = tmp_path / "rec.json"
        assert main(["extract", str(field), "--route", "radial", "--out", str(out)]) == EXIT_INPUT_ERROR
        assert column in capsys.readouterr().err

    def test_rejects_duplicate_column_names(self, coeff_file, tmp_path, capsys):
        path, _ = coeff_file
        field = tmp_path / "field.csv"
        assert main(["synth", str(path), "--radius", "1.0", "--out", str(field)]) == EXIT_OK
        field.write_text(field.read_text().replace("re_H_r", "re_E_r"))
        out = tmp_path / "rec.json"
        assert main(["extract", str(field), "--route", "radial", "--out", str(out)]) == EXIT_INPUT_ERROR
        assert "re_E_r" in capsys.readouterr().err


class TestEquiv:
    def test_synthesized_input_passes(self, coeff_file, tmp_path, capsys):
        path, _ = coeff_file
        field = tmp_path / "field.csv"
        main(["synth", str(path), "--radius", "1.0", "--out", str(field)])
        assert main(["equiv", str(field), "--lmax", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "max pairwise deviation" in out
        deviation = float(out.rsplit(":", 1)[1])
        assert deviation <= 1e-9

    def test_flagged_degrees_on_stderr(self, coeff_file, tmp_path, capsys):
        # kr0 = pi/20: degree 3 amplifies tangential-E noise by about 1.8e3
        path, _ = coeff_file
        field = tmp_path / "field.csv"
        assert main(["synth", str(path), "--radius", "0.1", "--out", str(field)]) == EXIT_OK
        capsys.readouterr()
        main(["equiv", str(field), "--lmax", "3"])
        data = read_field_file(field)
        result = equivalence_report(data.samples("E"), data.samples("H"), 3)
        flagged = sorted(set().union(*(r.flagged_degrees for r in result.reports())))
        assert flagged == [3]
        assert capsys.readouterr().err == (
            f"ill-conditioned degrees (noise amplification > {FLAG_THRESHOLD:g}): {flagged}\n")

    def test_component_blindness_demo(self, coeff_file, tmp_path):
        # zero the tangential columns: the radial route still sees the full
        # field, the tangential routes see nothing, and the disagreement
        # trips the tolerance gate
        path, c = coeff_file
        grid = make_grid(3, 1.0)
        e, h = synthesize(c, 1.0, grid)
        from spheremodes import FieldSamples
        e_rad = np.zeros_like(e.values)
        e_rad[:, 0] = e.values[:, 0]
        h_rad = np.zeros_like(h.values)
        h_rad[:, 0] = h.values[:, 0]
        field = tmp_path / "radial_only.csv"
        write_field_file(field, FieldSamples(grid, "E", e_rad, e.medium),
                         FieldSamples(grid, "H", h_rad, h.medium), FREQ)
        assert main(["equiv", str(field), "--lmax", "3"]) == EXIT_TOLERANCE

    def test_noise_within_loose_tolerance(self, coeff_file, tmp_path):
        path, c = coeff_file
        grid = make_grid(3, 1.0)
        e, h = synthesize(c, 1.0, grid)
        rng = np.random.default_rng(5)
        from spheremodes import FieldSamples
        noisy = []
        for s in (e, h):
            scale = 1e-6 * np.sqrt(np.mean(np.abs(s.values) ** 2))
            noise = scale * (rng.normal(size=s.values.shape)
                             + 1j * rng.normal(size=s.values.shape)) / np.sqrt(2)
            noisy.append(FieldSamples(s.grid, s.field_kind, s.values + noise, s.medium))
        field = tmp_path / "noisy.csv"
        write_field_file(field, noisy[0], noisy[1], FREQ)
        assert main(["equiv", str(field), "--lmax", "3", "--tol", "1e-3"]) == EXIT_OK

    @pytest.mark.parametrize("command", ["extract", "equiv"])
    @pytest.mark.parametrize("l_max", ["0", "-1"])
    def test_rejects_degree_below_one(self, coeff_file, tmp_path, capsys, command, l_max):
        path, _ = coeff_file
        field = tmp_path / "field.csv"
        assert main(["synth", str(path), "--radius", "1.0", "--out", str(field)]) == EXIT_OK
        extra = ["--route", "tan-e", "--out", str(tmp_path / "o.json")]
        args = [command, str(field), "--lmax", l_max, *(extra if command == "extract" else [])]
        assert main(args) == EXIT_INPUT_ERROR
        assert f"error: l_max must be >= 1, got {l_max}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["extract", "equiv"])
    @pytest.mark.parametrize("l_max", ["3", "100000"])
    def test_rejects_degree_above_the_grid(self, tmp_path, medium, capsys, monkeypatch,
                                           command, l_max):
        path = tmp_path / "c.json"
        write_coefficients(path, random_coefficients(2, medium, np.random.default_rng(3)), FREQ)
        field = tmp_path / "field.csv"
        assert main(["synth", str(path), "--radius", "1.0", "--out", str(field)]) == EXIT_OK

        def no_basis(*args):
            raise AssertionError("basis built for a rejected --lmax")
        monkeypatch.setattr(harmonics, "theta_profiles", no_basis)
        extra = ["--route", "tan-e", "--out", str(tmp_path / "o.json")]
        args = [command, str(field), "--lmax", l_max, *(extra if command == "extract" else [])]
        assert main(args) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"--lmax {l_max} exceeds" in err
        assert "grid_l_max 2" in err

    def test_missing_columns(self, coeff_file, tmp_path):
        path, c = coeff_file
        grid = make_grid(3, 1.0)
        e, _ = synthesize(c, 1.0, grid)
        field = tmp_path / "e_only.csv"
        write_field_file(field, e, None, FREQ)
        assert main(["equiv", str(field), "--lmax", "3"]) == EXIT_INPUT_ERROR

    def test_sparse_coefficient_file_passes(self, tmp_path, medium):
        # regression: roundoff noise on truly absent modes must not exceed --tol
        path = tmp_path / "sparse.json"
        write_coefficients(path, CoefficientSet.from_modes(
            3, medium, electric={(1, 0): 1.0, (3, -2): 1j}, magnetic={(2, 1): 0.5}), FREQ)
        field = tmp_path / "field.csv"
        main(["synth", str(path), "--radius", "1.0", "--grid-lmax", "6", "--out", str(field)])
        assert main(["equiv", str(field), "--lmax", "3"]) == EXIT_OK


class TestFarfield:
    def test_dipole_has_no_cross_polarization(self, tmp_path):
        spec = DipoleSpec(1.0, 299792458.0 / FREQ)
        from spheremodes.dipole import halfwave_coeffs
        path = tmp_path / "dip.json"
        write_coefficients(path, halfwave_coeffs(spec), FREQ)
        out = tmp_path / "pattern.csv"
        assert main(["farfield", str(path), "--out", str(out)]) == EXIT_OK
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        mag_t = np.array([float(r[2]) for r in rows])
        mag_p = np.array([float(r[4]) for r in rows])
        assert mag_p.max() <= 1e-12 * mag_t.max()

    def test_single_mode_sin_theta(self, tmp_path, medium):
        path = tmp_path / "one.json"
        write_coefficients(path, CoefficientSet.from_modes(1, medium, electric={(1, 0): 1.0}),
                           FREQ)
        out = tmp_path / "pattern.csv"
        main(["farfield", str(path), "--n-theta", "19", "--n-phi", "1", "--out", str(out)])
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        theta = np.array([float(r[0]) for r in rows])
        mags = np.array([float(r[2]) for r in rows])
        peak = mags.max()
        assert np.abs(mags - peak * np.sin(theta)).max() <= 1e-12 * peak

    def test_refined_sampling_reproduces_coincident_angles(self, coeff_file, tmp_path):
        path, _ = coeff_file
        coarse, fine = tmp_path / "c.csv", tmp_path / "f.csv"
        main(["farfield", str(path), "--n-theta", "19", "--n-phi", "8", "--out", str(coarse)])
        main(["farfield", str(path), "--n-theta", "37", "--n-phi", "16", "--out", str(fine)])
        c_rows = coarse.read_text().splitlines()[1:]
        f_rows = fine.read_text().splitlines()[1:]
        f_index = {tuple(r.split(",")[:2]): r for r in f_rows}
        hits = 0
        for row in c_rows:
            key = tuple(row.split(",")[:2])
            if key in f_index:
                assert f_index[key] == row  # pointwise evaluation, no interpolation
                hits += 1
        assert hits == len(c_rows)  # 2x refinement keeps every coarse angle


class TestDipoleCommand:
    def test_full_run(self, tmp_path, capsys):
        prefix = tmp_path / "dip"
        code = main(["dipole", "--freq", str(FREQ), "--out-prefix", str(prefix)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        deviation = float(out.split("roundtrip_rms_deviation=")[1].splitlines()[0])
        assert deviation <= 1e-9
        assert "e_phi_negligible=true" in out
        for tag in ("radial_source", "farfield_direct", "farfield_from_radial",
                    "farfield_dual"):
            assert (tmp_path / f"dip_{tag}.csv").exists()

    def test_radial_source_file_structure(self, tmp_path):
        prefix = tmp_path / "dip"
        main(["dipole", "--freq", str(FREQ), "--out-prefix", str(prefix)])
        data = read_field_file(tmp_path / "dip_radial_source.csv")
        assert data.missing(["H_r", "H_theta", "H_phi"])  # E-only file
        e_r = data.columns["E_r"].reshape(data.grid.n_theta, data.grid.n_phi)
        assert np.abs(e_r - e_r[:, :1]).max() == 0.0  # phi-invariant
        peak = np.abs(e_r).max()
        assert np.abs(e_r + e_r[::-1, :]).max() <= 1e-13 * peak  # theta-antisymmetric

    def test_dual_pattern_swaps_roles(self, tmp_path):
        prefix = tmp_path / "dip"
        main(["dipole", "--freq", str(FREQ), "--out-prefix", str(prefix)])
        direct = [l.split(",") for l in
                  (tmp_path / "dip_farfield_direct.csv").read_text().splitlines()[1:]]
        dual = [l.split(",") for l in
                (tmp_path / "dip_farfield_dual.csv").read_text().splitlines()[1:]]
        direct_t = np.array([float(r[2]) for r in direct])
        dual_t = np.array([float(r[2]) for r in dual])
        dual_p = np.array([float(r[4]) for r in dual])
        assert dual_t.max() <= 1e-12
        assert np.abs(dual_p - direct_t).max() <= 1e-10

    def test_rejects_bad_parameters(self, tmp_path):
        assert main(["dipole", "--freq", "-1.0",
                     "--out-prefix", str(tmp_path / "x")]) == EXIT_INPUT_ERROR
        assert main(["dipole", "--current", "0.0",
                     "--out-prefix", str(tmp_path / "x")]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("flag, value", [
        pytest.param("--freq", "nan", id="--freq"),
        pytest.param("--current", "nan", id="--current"),
        pytest.param("--n-theta", "0", id="--n-theta-0"),
        pytest.param("--n-theta", "-2", id="--n-theta--2")])
    def test_rejects_non_finite_parameters(self, tmp_path, capsys, flag, value):
        assert main(["dipole", f"{flag}={value}",
                     "--out-prefix", str(tmp_path / "x")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.iterdir())

    def test_directory_in_the_way_leaves_no_output(self, tmp_path, capsys):
        (tmp_path / "P_farfield_direct.csv").mkdir()
        assert main(["dipole", "--out-prefix", str(tmp_path / "P")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "P_radial_source.csv").exists()

    def test_pattern_files_have_a_row_per_angle(self, tmp_path):
        main(["dipole", "--n-theta", "37", "--out-prefix", str(tmp_path / "d")])
        for tag in ("direct", "from_radial", "dual"):
            lines = (tmp_path / f"d_farfield_{tag}.csv").read_text().splitlines()
            assert lines[0].startswith("theta_rad,phi_rad,")
            assert len(lines) == 1 + 37

    def test_one_grid_and_each_synthesis_and_pattern_once(self, tmp_path, monkeypatch):
        calls = {}

        def counted(name):
            inner = getattr(dipole, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args, **kwargs)
            return wrapper

        for name in ("make_grid", "synthesize", "extract_radial", "far_field"):
            monkeypatch.setattr(dipole, name, counted(name))
        assert main(["dipole", "--out-prefix", str(tmp_path / "d")]) == EXIT_OK
        assert calls == {"make_grid": 1, "synthesize": 3, "extract_radial": 1, "far_field": 3}


@pytest.mark.parametrize("tol", ["nan", "-1", "-inf", "inf"])
@pytest.mark.parametrize("command", ["equiv", "dipole"])
def test_tolerance_must_be_a_finite_number_at_least_zero(coeff_file, tmp_path, capsys,
                                                         command, tol):
    path, _ = coeff_file
    field = tmp_path / "field.csv"
    main(["synth", str(path), "--radius", "1.0", "--out", str(field)])
    out = tmp_path / "out"
    out.mkdir()
    args = ([str(field), "--lmax", "3"] if command == "equiv"
            else ["--out-prefix", str(out / "d")])
    assert main([command, *args, f"--tol={tol}"]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("error: --tol must be finite and >= 0")
    assert not list(out.iterdir())
    assert main([command, *args, "--tol=0"]) in (EXIT_OK, EXIT_TOLERANCE)
