"""Half-wave dipole harness: coefficients, radial source, round trip, duality."""

import numpy as np
import pytest

from spheremodes import make_grid
from spheremodes.dipole import (DIPOLE_L_MAX, DipoleSpec, halfwave_coeffs,
                                magnetic_dipole_variant, radial_source_on_sphere,
                                validate_roundtrip)
from spheremodes.multipole import modes_upto


@pytest.fixture
def spec():
    return DipoleSpec(current_amplitude=1.0, wavelength=1.0)


class TestDipoleSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DipoleSpec(-1.0, 1.0)
        with pytest.raises(ValueError):
            DipoleSpec(1.0, 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="current amplitude must be finite"):
            DipoleSpec(value, 1.0)
        with pytest.raises(ValueError, match="wavelength must be finite"):
            DipoleSpec(1.0, value)

    def test_source_radius_is_quarter_wave(self, spec):
        assert spec.source_radius == 0.25
        coeffs = halfwave_coeffs(spec)
        assert coeffs.medium.k * spec.source_radius == pytest.approx(np.pi / 2, rel=1e-15)


class TestHalfwaveCoeffs:
    def test_ratios_exactly_as_stored(self, spec):
        c = halfwave_coeffs(spec)
        a1 = c.electric(1, 0)
        assert c.electric(3, 0) == 49.5e-3 * a1
        assert c.electric(5, 0) == 1.02e-3 * a1

    def test_amplitude_convention(self, spec):
        c = halfwave_coeffs(spec)
        assert c.electric(1, 0) == pytest.approx(
            np.sqrt(6.0 / np.pi) * spec.current_amplitude / (spec.wavelength / 2.0), rel=1e-15)

    def test_only_odd_degree_axial_electric_modes(self, spec):
        c = halfwave_coeffs(spec)
        assert np.all(c.a_m == 0)
        for mode in modes_upto(c.l_max):
            value = c.electric(mode.l, mode.m)
            if mode.m == 0 and mode.l % 2 == 1:
                assert value != 0
            else:
                assert value == 0

    def test_zero_current_gives_zero_set(self):
        c = halfwave_coeffs(DipoleSpec(0.0, 1.0))
        assert np.all(c.a_e == 0) and np.all(c.a_m == 0)


class TestRadialSource:
    def test_phi_invariant(self, spec):
        grid = make_grid(8, spec.source_radius)
        source = radial_source_on_sphere(spec, grid)
        e_r = source.values[:, 0].reshape(grid.n_theta, grid.n_phi)
        assert np.abs(e_r - e_r[:, :1]).max() == 0.0

    def test_tangential_zeroed(self, spec):
        grid = make_grid(8, spec.source_radius)
        source = radial_source_on_sphere(spec, grid)
        assert np.all(source.values[:, 1:] == 0)

    def test_antisymmetric_about_equator(self, spec):
        grid = make_grid(8, spec.source_radius)
        source = radial_source_on_sphere(spec, grid)
        e_r = source.values[:, 0].reshape(grid.n_theta, grid.n_phi)
        peak = np.abs(e_r).max()
        assert np.abs(e_r + e_r[::-1, :]).max() <= 1e-13 * peak

    def test_real_and_imag_both_live(self, spec):
        # kr0 = pi/2 mixes the standing and outgoing parts of h^(1)
        grid = make_grid(8, spec.source_radius)
        source = radial_source_on_sphere(spec, grid)
        node = np.argmin(np.abs(grid.theta - np.pi / 4))
        value = source.values[node, 0]
        peak = np.abs(source.values[:, 0]).max()
        assert abs(value.real) > 1e-3 * peak
        assert abs(value.imag) > 1e-3 * peak

    def test_rejects_wrong_radius_or_coarse_grid(self, spec):
        with pytest.raises(ValueError):
            radial_source_on_sphere(spec, make_grid(8, 0.3))
        with pytest.raises(ValueError):
            radial_source_on_sphere(spec, make_grid(4, spec.source_radius))


class TestRoundTrip:
    def test_deviation_at_roundoff(self, spec):
        result = validate_roundtrip(spec)
        assert result.rms_deviation <= 1e-9
        assert result.e_phi_negligible
        assert result.e_phi_peak_direct <= 1e-12
        assert result.e_phi_peak_recovered <= 1e-12

    def test_recovered_coefficients_match(self, spec):
        result = validate_roundtrip(spec)
        want = result.coeffs_direct
        got = result.coeffs_recovered
        scale = max(np.abs(want.a_e).max(), np.abs(want.a_m).max())
        assert np.abs(got.a_e - want.a_e).max() <= 1e-10 * scale
        assert np.abs(got.a_m).max() <= 1e-10 * scale

    def test_pattern_peak_broadside_and_symmetric(self, spec):
        result = validate_roundtrip(spec, n_theta=181)
        mags = np.abs(result.e_theta_direct)
        peak_theta = result.theta[np.argmax(mags)]
        assert abs(peak_theta - np.pi / 2) <= np.pi / 181
        assert np.abs(mags - mags[::-1]).max() <= 1e-12 * mags.max()

    def test_pattern_vanishes_on_axis(self, spec):
        from spheremodes import far_field
        pattern = far_field(halfwave_coeffs(spec), [(0.0, 0.0), (np.pi, 0.0)])
        # the pole-exact kernel makes the axial nulls exact for m = 0 modes
        assert np.abs(pattern.e_theta[0]) == 0.0
        assert np.abs(pattern.e_phi).max() == 0.0

    def test_grid_converged(self, spec):
        d1 = validate_roundtrip(spec, grid_l_max=8).rms_deviation
        d2 = validate_roundtrip(spec, grid_l_max=16).rms_deviation
        # both sit at the roundoff floor, far below the 1e-9 gate; doubling
        # the grid may only move the report within that floor
        assert abs(d2 - d1) <= max(1e-3 * d1, 1e-12)

    def test_deterministic(self, spec):
        r1 = validate_roundtrip(spec)
        r2 = validate_roundtrip(spec)
        assert r1.rms_deviation == r2.rms_deviation
        assert np.array_equal(r1.e_theta_recovered, r2.e_theta_recovered)


class TestMagneticVariant:
    def test_dual_radial_h_matches(self, spec):
        result = magnetic_dipole_variant(spec)
        assert result.radial_h_mismatch <= 1e-12

    def test_polarization_roles_swap(self, spec):
        result = magnetic_dipole_variant(spec)
        assert result.dual_e_theta_peak <= 1e-12
        assert result.pattern_swap_mismatch <= 1e-10

    def test_double_duality_restores_fields_up_to_sign(self, spec):
        result = magnetic_dipole_variant(spec)
        assert result.double_dual_field_residual <= 1e-12

    def test_degree_count_unchanged(self, spec):
        assert halfwave_coeffs(spec).l_max == DIPOLE_L_MAX
