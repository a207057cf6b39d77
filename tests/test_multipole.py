"""Field synthesis, far fields, duality, and radiated power."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_coefficients
from oracles import legendre_theta_orders
from spheremodes import (CoefficientSet, Medium, coefficient_deviation, duality,
                         far_field, make_grid, radiated_power, sph_harmonic, synthesize)
from spheremodes import modes_upto, multipole, vec_X, vec_Z
from spheremodes.harmonics import GridResolutionWarning, mode_count, mode_slot
from spheremodes.specfun import riccati_h1_deriv, sph_hankel1

NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.fixture
def medium():
    return Medium(k=np.pi / 2)  # kr0 = pi/2 on the unit sphere


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def reference_fields(coeffs, r, theta, phi):
    """(E, H) summed one mode at a time from the scalar special functions."""
    med = coeffs.medium
    x = med.k * r
    e = np.zeros((theta.size, 3), complex)
    h = np.zeros((theta.size, 3), complex)
    for mode in modes_upto(coeffs.l_max):
        a_e, a_m = coeffs.electric(mode.l, mode.m), coeffs.magnetic(mode.l, mode.m)
        h_l = sph_hankel1(mode.l, x)
        f_rad = np.sqrt(mode.l * (mode.l + 1.0)) * h_l / x
        f_z = 1j * riccati_h1_deriv(mode.l, x) / x
        y = sph_harmonic(mode.l, mode.m, theta, phi)
        xv, zv = vec_X(mode, theta, phi), vec_Z(mode, theta, phi)
        xs = np.column_stack([xv.v_theta, xv.v_phi])
        zs = np.column_stack([zv.v_theta, zv.v_phi])
        e[:, 0] += med.z0 * a_e * f_rad * y
        e[:, 1:] += med.z0 * (a_e * f_z * zs + a_m * h_l * xs)
        h[:, 0] += -a_m * f_rad * y
        h[:, 1:] += a_e * h_l * xs - a_m * f_z * zs
    return e, h


def reference_pattern(coeffs, theta, phi):
    """Far-field (E_theta, E_phi) summed one mode at a time."""
    out = np.zeros((theta.size, 2), complex)
    for mode in modes_upto(coeffs.l_max):
        a_e, a_m = coeffs.electric(mode.l, mode.m), coeffs.magnetic(mode.l, mode.m)
        xv, zv = vec_X(mode, theta, phi), vec_Z(mode, theta, phi)
        c = coeffs.medium.z0 * (-1j) ** (mode.l + 1)
        out[:, 0] += c * (a_m * xv.v_theta - a_e * zv.v_theta)
        out[:, 1] += c * (a_m * xv.v_phi - a_e * zv.v_phi)
    return out


class TestAgainstPerModeSums:
    @pytest.mark.parametrize("l_max,grid_l_max,r", [(5, 5, 1.0), (4, 9, 1.6), (7, 7, 0.8)])
    def test_synthesize(self, medium, rng, l_max, grid_l_max, r):
        c = random_coefficients(l_max, medium, rng)
        grid = make_grid(grid_l_max, 1.0)
        e, h = synthesize(c, r, grid)
        ref_e, ref_h = reference_fields(c, r, grid.theta, grid.phi)
        assert np.abs(e.values - ref_e).max() <= 1e-13 * np.abs(ref_e).max()
        assert np.abs(h.values - ref_h).max() <= 1e-13 * np.abs(ref_h).max()

    @pytest.mark.parametrize("l_max", [12, 16])
    def test_synthesize_against_mode_basis_rows(self, rng, l_max):
        med = Medium(k=0.9 * l_max)
        c = random_coefficients(l_max, med, rng)
        grid = make_grid(l_max, 1.0)
        e, h = synthesize(c, 1.2, grid)
        x = med.k * 1.2
        ref_e = np.zeros((grid.n_nodes, 3), complex)
        ref_h = np.zeros((grid.n_nodes, 3), complex)
        for mode in modes_upto(l_max):
            a_e, a_m = c.electric(mode.l, mode.m), c.magnetic(mode.l, mode.m)
            h_l, d_l = sph_hankel1(mode.l, x), riccati_h1_deriv(mode.l, x)
            y, x_theta, x_phi, z_theta, z_phi = grid.mode_basis(mode)
            xs, zs = np.column_stack([x_theta, x_phi]), np.column_stack([z_theta, z_phi])
            f_rad, f_z = np.sqrt(mode.l * (mode.l + 1.0)) * h_l / x, 1j * d_l / x
            ref_e[:, 0] += med.z0 * a_e * f_rad * y
            ref_e[:, 1:] += med.z0 * (a_e * f_z * zs + a_m * h_l * xs)
            ref_h[:, 0] -= a_m * f_rad * y
            ref_h[:, 1:] += a_e * h_l * xs - a_m * f_z * zs
        assert np.abs(e.values - ref_e).max() <= 1e-13 * np.abs(ref_e).max()
        assert np.abs(h.values - ref_h).max() <= 1e-13 * np.abs(ref_h).max()

    @pytest.mark.parametrize("l_max", [1, 3, 8])
    def test_far_field(self, medium, rng, l_max):
        c = random_coefficients(l_max, medium, rng)
        theta = np.concatenate([[0.0, np.pi], rng.uniform(0.0, np.pi, 40)])
        phi = rng.uniform(0.0, 2.0 * np.pi, theta.size)
        pattern = far_field(c, np.column_stack([theta, phi]))
        got = np.column_stack([pattern.e_theta, pattern.e_phi])
        ref = reference_pattern(c, theta, phi)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


class TestMedium:
    def test_free_space(self):
        med = Medium.free_space(299792458.0)
        assert med.k == pytest.approx(2.0 * np.pi, rel=1e-12)
        assert med.wavelength == pytest.approx(1.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            Medium(k=0.0)
        with pytest.raises(ValueError):
            Medium(k=1.0, z0=-1.0)
        with pytest.raises(ValueError):
            Medium.free_space(0.0)

    def test_has_no_permeability_field(self):
        with pytest.raises(TypeError):
            Medium(k=1.0, mu0=1.25663706212e-6)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="wavenumber must be finite"):
            Medium(k=value)
        with pytest.raises(ValueError, match="impedance must be finite"):
            Medium(k=1.0, z0=value)
        with pytest.raises(ValueError, match="frequency must be finite"):
            Medium.free_space(value)


@pytest.mark.parametrize("r", NON_FINITE)
def test_synthesis_rejects_non_finite_radius(medium, rng, r):
    c = random_coefficients(2, medium, rng)
    grid = make_grid(2, 1.0)
    with pytest.raises(ValueError, match="radius must be finite"):
        synthesize(c, r, grid)
    with pytest.raises(ValueError, match="radius must be finite"):
        radiated_power(c, r, grid)


class TestCoefficientSet:
    def test_from_modes_and_accessors(self, medium):
        c = CoefficientSet.from_modes(3, medium, electric={(2, -1): 1 + 2j},
                                      magnetic={(3, 0): -4j})
        assert c.electric(2, -1) == 1 + 2j
        assert c.magnetic(3, 0) == -4j
        assert c.electric(1, 0) == 0

    def test_rejects_out_of_range_modes(self, medium):
        with pytest.raises(ValueError):
            CoefficientSet.from_modes(2, medium, electric={(3, 0): 1.0})
        with pytest.raises(ValueError):
            CoefficientSet.from_modes(2, medium, electric={(0, 0): 1.0})

    @pytest.mark.parametrize("l_max", [0, -1])
    def test_rejects_degree_below_one(self, medium, l_max):
        for build in (lambda: CoefficientSet(l_max, medium, [], []),
                      lambda: CoefficientSet.zeros(l_max, medium),
                      lambda: CoefficientSet.from_modes(l_max, medium)):
            with pytest.raises(ValueError, match=f"l_max must be >= 1, got {l_max}"):
                build()

    def test_immutable(self, medium):
        c = CoefficientSet.zeros(2, medium)
        with pytest.raises(ValueError):
            c.a_e[0] = 1.0

    def test_arithmetic(self, medium, rng):
        c1 = random_coefficients(3, medium, rng)
        c2 = random_coefficients(3, medium, rng)
        s = c1 + c2
        assert np.array_equal(s.a_e, c1.a_e + c2.a_e)
        assert np.array_equal((-c1).a_m, -c1.a_m)
        assert np.array_equal((2.0 * c1).a_e, 2.0 * c1.a_e)


class TestSynthesize:
    def test_zero_coefficients_give_zero_fields(self, medium):
        grid = make_grid(4, 1.0)
        e, h = synthesize(CoefficientSet.zeros(4, medium), 1.0, grid)
        assert np.all(e.values == 0) and np.all(h.values == 0)

    def test_single_electric_dipole_structure(self, medium):
        grid = make_grid(4, 1.0)
        c = CoefficientSet.from_modes(4, medium, electric={(1, 0): 1.0})
        e, h = synthesize(c, 1.0, grid)
        assert np.abs(e.values[:, 2]).max() == 0.0  # no E_phi for m = 0 electric mode
        assert np.abs(h.values[:, 0]).max() == 0.0  # no radial H from a_E
        # E_r proportional to Y_10 across the sphere
        y10 = np.array([sph_harmonic(1, 0, t, p) for t, p in zip(grid.theta, grid.phi)])
        ratio = e.values[:, 0] / y10
        assert np.abs(ratio - ratio[0]).max() <= 1e-12 * abs(ratio[0])

    def test_magnetic_dipole_is_dual_of_electric(self, medium):
        grid = make_grid(2, 1.0)
        c_e = CoefficientSet.from_modes(2, medium, electric={(1, 0): 1.0})
        c_m = CoefficientSet.from_modes(2, medium, magnetic={(1, 0): 1.0})
        e0, h0 = synthesize(c_e, 1.0, grid)
        e1, h1 = synthesize(duality(c_e), 1.0, grid)
        z0 = medium.z0
        scale = np.abs(e0.values).max()
        assert np.abs(e1.values + z0 * h0.values).max() <= 1e-14 * scale
        assert np.abs(h1.values - e0.values / z0).max() <= 1e-14 * scale / z0
        # and the duality image of the pure-electric set is the pure-magnetic one
        assert np.array_equal(duality(c_e).a_m, -c_e.a_e)
        assert np.array_equal(duality(c_m).a_e, c_m.a_m)

    def test_linearity(self, medium, rng):
        grid = make_grid(4, 1.0)
        c1 = random_coefficients(4, medium, rng)
        c2 = random_coefficients(4, medium, rng)
        e1, h1 = synthesize(c1, 1.0, grid)
        e2, h2 = synthesize(c2, 1.0, grid)
        e12, h12 = synthesize(c1 + c2, 1.0, grid)
        scale = np.abs(e12.values).max()
        assert np.abs(e12.values - (e1.values + e2.values)).max() <= 1e-12 * scale
        assert np.abs(h12.values - (h1.values + h2.values)).max() <= 1e-12 * scale

    def test_pure_family_radial_blindness(self, medium, rng):
        grid = make_grid(5, 1.0)
        c = random_coefficients(5, medium, rng)
        only_e = CoefficientSet(5, medium, c.a_e, np.zeros_like(c.a_m))
        only_m = CoefficientSet(5, medium, np.zeros_like(c.a_e), c.a_m)
        _, h = synthesize(only_e, 1.0, grid)
        e, _ = synthesize(only_m, 1.0, grid)
        assert np.abs(h.values[:, 0]).max() == 0.0
        assert np.abs(e.values[:, 0]).max() == 0.0

    def test_rejects_nonpositive_radius(self, medium):
        grid = make_grid(2, 1.0)
        with pytest.raises(ValueError):
            synthesize(CoefficientSet.zeros(2, medium), 0.0, grid)

    def test_warns_on_coarse_grid(self, medium):
        grid = make_grid(2, 1.0)
        c = CoefficientSet.zeros(4, medium)
        with pytest.warns(GridResolutionWarning):
            synthesize(c, 1.0, grid)

    def test_samples_carry_radius_and_medium(self, medium):
        grid = make_grid(3, 1.0)
        c = CoefficientSet.zeros(3, medium)
        e, h = synthesize(c, 2.5, grid)
        assert e.grid.r0 == 2.5 and h.grid.r0 == 2.5
        assert e.medium == medium


class TestFarField:
    def test_dipole_sin_theta(self, medium):
        c = CoefficientSet.from_modes(1, medium, electric={(1, 0): 1.0})
        theta = np.linspace(0.0, np.pi, 19)
        pattern = far_field(c, np.column_stack([theta, np.zeros_like(theta)]))
        assert np.abs(pattern.e_phi).max() == 0.0
        mags = np.abs(pattern.e_theta)
        ref = mags[9] * np.sin(theta)  # theta[9] = pi/2
        assert np.abs(mags - ref).max() <= 1e-13 * mags.max()

    def test_matches_synthesis_at_large_radius(self, medium, rng):
        # O(1/kr) residual: ~ l(l+1)/(2 kr) = 1e-3 at l = 4, kr = 1e4
        c = random_coefficients(4, medium, rng)
        kr = 1e4
        r = kr / medium.k
        grid = make_grid(4, r)
        e, _ = synthesize(c, r, grid)
        pattern = far_field(c, np.column_stack([grid.theta, grid.phi]))
        strip = kr * np.exp(-1j * kr)
        scale = np.abs(pattern.e_theta).max()
        assert np.abs(e.values[:, 1] * strip - pattern.e_theta).max() <= 2e-3 * scale
        assert np.abs(e.values[:, 2] * strip - pattern.e_phi).max() <= 2e-3 * scale
        assert np.abs(e.values[:, 0] * strip).max() <= 2e-3 * scale  # radial dies off

    def test_far_h_is_rhat_cross_e(self, medium, rng):
        c = random_coefficients(3, medium, rng)
        dirs = np.column_stack([rng.uniform(0.1, 3.0, 8), rng.uniform(0, 2 * np.pi, 8)])
        pattern = far_field(c, dirs)
        z0 = medium.z0
        assert np.array_equal(pattern.h_theta, -pattern.e_phi / z0)
        assert np.array_equal(pattern.h_phi, pattern.e_theta / z0)
        # |E| = Z0 |H| pointwise
        e_mag = np.abs(pattern.e_theta) ** 2 + np.abs(pattern.e_phi) ** 2
        h_mag = np.abs(pattern.h_theta) ** 2 + np.abs(pattern.h_phi) ** 2
        assert np.allclose(e_mag, z0**2 * h_mag, rtol=1e-14)

    def test_dual_pattern_is_minus_z0_h(self, medium, rng):
        c = random_coefficients(3, medium, rng)
        dirs = np.column_stack([rng.uniform(0.1, 3.0, 11), rng.uniform(0, 2 * np.pi, 11)])
        p = far_field(c, dirs)
        p_dual = far_field(duality(c), dirs)
        scale = np.abs(p.e_theta).max()
        assert np.abs(p_dual.e_theta - (-medium.z0) * p.h_theta).max() <= 1e-12 * scale
        assert np.abs(p_dual.e_phi - (-medium.z0) * p.h_phi).max() <= 1e-12 * scale


def bits(values):
    """The raw bits of a complex array, so -0.0 and 0.0 tell apart."""
    return np.ascontiguousarray(values).view(np.uint64)


def pattern_bits(coeffs, directions):
    pattern = far_field(coeffs, directions)
    return bits(np.column_stack([pattern.e_theta, pattern.e_phi]))


class TestSeparableFarField:
    def test_product_grid_matches_per_mode_sum(self, medium, rng):
        c = random_coefficients(12, medium, rng)
        grid = make_grid(25, 1.0)  # 26 x 52 directions
        pattern = far_field(c, np.column_stack([grid.theta, grid.phi]))
        got = np.column_stack([pattern.e_theta, pattern.e_phi])
        ref = reference_pattern(c, grid.theta, grid.phi)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_each_direction_independent_of_the_others(self, medium, rng):
        c = random_coefficients(8, medium, rng)
        # product grid with both poles, as the farfield command samples it
        theta = np.repeat(np.arange(13) * np.pi / 12, 10)
        phi = np.tile(np.arange(10) * (2.0 * np.pi) / 10, 13)
        grid_dirs = np.column_stack([theta, phi])
        probes = grid_dirs[[0, 3, 17, 64, 65, 99, 121, 129]]  # rows 0-9 and 120-129 are poles
        want = pattern_bits(c, grid_dirs)[[0, 3, 17, 64, 65, 99, 121, 129]]
        alone = np.concatenate([pattern_bits(c, probe[None]) for probe in probes])
        assert np.array_equal(alone, want)
        scattered = np.column_stack([rng.uniform(0.0, np.pi, 50), rng.uniform(0.0, 2 * np.pi, 50)])
        mixed = np.concatenate([scattered[:20], probes, scattered[20:]])
        assert np.array_equal(pattern_bits(c, mixed)[20:28], want)
        repeated = np.concatenate([probes, [(0.0, 1.0), (np.pi, 2.0)], probes[::-1], probes])
        got = pattern_bits(c, repeated)
        assert np.array_equal(got[:8], want)
        assert np.array_equal(got[10:18], want[::-1])
        assert np.array_equal(got[18:], want)

    def test_empty_directions_give_an_empty_pattern(self, medium, rng):
        pattern = far_field(random_coefficients(3, medium, rng), np.empty((0, 2)))
        assert pattern.e_theta.shape == pattern.e_phi.shape == (0,)

    def test_blocks_of_directions_keep_the_bits(self, medium, rng, monkeypatch):
        c = random_coefficients(8, medium, rng)
        dirs = np.column_stack([rng.uniform(0.0, np.pi, 50), rng.uniform(0.0, 2 * np.pi, 50)])
        want = pattern_bits(c, dirs)
        monkeypatch.setattr(multipole, "FAR_FIELD_BLOCK", 7)  # 8 blocks, the last one short
        assert np.array_equal(pattern_bits(c, dirs), want)

    def test_peak_memory_bounded_at_degree_40(self, rng):
        # 82 x 164 directions in blocks: no (directions, orders) array per
        # component of the whole grid at once (53 MB when it was built)
        c = random_coefficients(40, Medium(k=1.0), rng)
        directions = np.column_stack([np.repeat(np.arange(82) * np.pi / 81, 164),
                                      np.tile(np.arange(164) * (2.0 * np.pi) / 164, 82)])
        tracemalloc.start()
        try:
            far_field(c, directions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32e6

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("column", [0, 1])
    def test_rejects_non_finite_directions(self, medium, rng, value, column):
        dirs = np.column_stack([rng.uniform(0.1, 3.0, 4), rng.uniform(0, 2 * np.pi, 4)])
        dirs[2, column] = value
        with pytest.raises(ValueError, match="finite"):
            far_field(random_coefficients(3, medium, rng), dirs)


def per_order_table(grid, l_max):
    """Every mode's (Y, X_theta, X_phi) rows on the full node grid, filled one
    Legendre order at a time: the construction mode_basis must reproduce bit
    for bit."""
    table = tuple(np.empty((mode_count(l_max), grid.n_nodes), complex) for _ in range(3))
    for m, n, tau, pi_ in legendre_theta_orders(l_max, grid.theta_nodes[:, None]):
        ls = np.arange(max(abs(m), 1), l_max + 1)
        root = np.sqrt(ls * (ls + 1.0))[:, None, None]
        phase = np.exp(1j * m * grid.phi_nodes)
        blocks = (n * phase, pi_ / root * phase, 1j * tau / root * phase)
        for rows, block in zip(table, blocks):
            rows[mode_slot(ls, m)] = block.reshape(len(ls), grid.n_nodes)
    return table


@pytest.mark.parametrize("l_max,grid_args", [(12, (12, 1.0)), (16, (16, 1.0)),
                                             (12, (16, 2.0, 20, 35))])
def test_basis_table_rows_match_per_order_build(l_max, grid_args):
    # modes in storage order, so the grid's basis grows degree by degree
    grid = make_grid(*grid_args)
    want = per_order_table(make_grid(*grid_args), l_max)
    for mode in modes_upto(l_max):
        got = grid.mode_basis(mode)[:3]
        assert len(got) == len(want)
        for rows, ref in zip(got, want):
            assert np.array_equal(bits(rows), bits(ref[mode_slot(mode.l, mode.m)]))


class TestDuality:
    def test_double_application_negates(self, medium, rng):
        c = random_coefficients(4, medium, rng)
        twice = duality(duality(c))
        assert np.array_equal(twice.a_e, -c.a_e)
        assert np.array_equal(twice.a_m, -c.a_m)
        four = duality(duality(twice))
        assert np.array_equal(four.a_e, c.a_e)

    def test_zero_maps_to_zero(self, medium):
        d = duality(CoefficientSet.zeros(3, medium))
        assert np.all(d.a_e == 0) and np.all(d.a_m == 0)

    def test_field_level_map(self, medium, rng):
        c = random_coefficients(3, medium, rng)
        grid = make_grid(3, 1.0)
        e0, h0 = synthesize(c, 1.0, grid)
        e1, h1 = synthesize(duality(c), 1.0, grid)
        z0 = medium.z0
        scale = np.abs(e0.values).max()
        assert np.abs(e1.values + z0 * h0.values).max() <= 1e-13 * scale
        assert np.abs(h1.values - e0.values / z0).max() <= 1e-13 * scale / z0


class TestRadiatedPower:
    def test_zero_coefficients(self, medium):
        grid = make_grid(3, 1.0)
        assert radiated_power(CoefficientSet.zeros(3, medium), 1.0, grid) == 0.0

    def test_single_mode_positive(self, medium):
        grid = make_grid(1, 1.0)
        c = CoefficientSet.from_modes(1, medium, electric={(1, 0): 1.0})
        assert radiated_power(c, 1.0, grid) > 0.0

    def test_radius_independent(self, rng):
        medium = Medium(k=2.0 * np.pi)
        grid = make_grid(10, 1.0)
        c = random_coefficients(10, medium, rng)
        p1 = radiated_power(c, 1.0, grid)
        p2 = radiated_power(c, 7.3, grid)
        assert abs(p1 - p2) <= 1e-9 * abs(p1)

    def test_matches_mode_sum(self, rng):
        # independent closed form: P = Z0/(2 k^2) sum (|a_E|^2 + |a_M|^2)
        medium = Medium(k=2.0 * np.pi)
        grid = make_grid(6, 1.0)
        c = random_coefficients(6, medium, rng)
        want = medium.z0 / (2.0 * medium.k**2) * float(
            (np.abs(c.a_e) ** 2 + np.abs(c.a_m) ** 2).sum())
        got = radiated_power(c, 1.3, grid)
        assert got == pytest.approx(want, rel=1e-12)


class TestCoefficientDeviation:
    def test_zero_for_equal_sets(self, medium, rng):
        c = random_coefficients(3, medium, rng)
        assert coefficient_deviation(c, c) == 0.0

    def test_zero_pairs_ignored(self, medium):
        a = CoefficientSet.from_modes(2, medium, electric={(1, 0): 1.0})
        b = CoefficientSet.from_modes(2, medium, electric={(1, 0): 1.0 + 1e-10})
        assert coefficient_deviation(a, b) == pytest.approx(1e-10, rel=1e-4)

    def test_residue_below_the_joint_floor_counts_as_zero(self, medium):
        # the scale is the largest magnitude over both sets and both families,
        # so magnetic residue 1e-13 against an electric 1.0 is below the floor
        a = CoefficientSet.from_modes(2, medium, electric={(1, 0): 1.0}, magnetic={(2, 1): 1e-13})
        b = CoefficientSet.from_modes(2, medium, electric={(1, 0): 1.0}, magnetic={(2, 1): -3e-13})
        assert coefficient_deviation(a, b) == 0.0
        assert coefficient_deviation(b, a) == 0.0

    def test_residue_against_a_present_mode_registers_in_full(self, medium):
        a = CoefficientSet.from_modes(2, medium, electric={(1, 0): 1.0}, magnetic={(2, 1): 1e-13})
        b = CoefficientSet.from_modes(2, medium, electric={(1, 0): 1.0}, magnetic={(2, 1): 0.5})
        assert coefficient_deviation(a, b) == pytest.approx(1.0, rel=1e-12)
        # the same residue on one side of a pair just above the floor is a full deviation
        c = CoefficientSet.from_modes(2, medium, electric={(1, 0): 1.0}, magnetic={(2, 1): 1e-11})
        assert coefficient_deviation(a, c) == pytest.approx(0.99, rel=1e-12)

    @given(scale=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_scale_invariant(self, scale):
        medium = Medium(k=1.0)
        rng = np.random.default_rng(5)
        c1 = random_coefficients(2, medium, rng)
        c2 = random_coefficients(2, medium, rng)
        d1 = coefficient_deviation(c1, c2)
        d2 = coefficient_deviation(scale * c1, scale * c2)
        assert d2 == pytest.approx(d1, rel=1e-12)
