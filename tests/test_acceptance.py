"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from helpers import per_coefficient_error, random_coefficients
from spheremodes import (CoefficientSet, FieldSamples, Medium, ModeIndex, far_field,
                         make_grid, modes_upto, project, radiated_power, synthesize)
from spheremodes.dipole import DipoleSpec, validate_dipole
from spheremodes.extraction import (equivalence_report, extract_radial, extract_tangential_e,
                                    extract_tangential_h)
from spheremodes.specfun import riccati_h1_deriv


def _mode_samples(grid, family, mode):
    y, xt, xp, zt, zp = grid.mode_basis(mode)
    zeros = np.zeros(grid.n_nodes)
    values = {
        "X": np.column_stack([zeros, xt, xp]),
        "Z": np.column_stack([zeros, zt, zp]),
        "Yr": np.column_stack([y, zeros, zeros]),
    }[family]
    return FieldSamples(grid, "E", values)


def test_criterion_1_orthonormality():
    """All 9 pairwise projections reproduce the delta tables to 1e-12 abs,
    every mode pair with l, l' <= 8, in under a second."""
    start = time.process_time()
    grid = make_grid(8, 1.0)
    modes = modes_upto(8)
    worst = 0.0
    for family in ("X", "Z", "Yr"):
        for mode_a in modes:
            samples = _mode_samples(grid, family, mode_a)
            for kind in ("X", "Z", "Yr"):
                for mode_b in modes:
                    got = project(samples, kind, mode_b)
                    want = 1.0 if (kind == family and mode_a == mode_b) else 0.0
                    err = abs(got - want)
                    if err > worst:
                        worst = err
    elapsed = time.process_time() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 orthonormality: PASS (worst abs err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_round_trip_per_route():
    """Each route recovers every coefficient of random sets to 1e-9 relative,
    l_max in {4, 10} x kr0 in {0.5, pi/2, 3, 10}.

    Per-degree magnitudes are drawn balanced on the sampling sphere: at
    kr0 = 0.5 the degree-10 divisor is ~1e12 times the degree-1 one, so with
    equal-magnitude draws the low-degree field information falls below
    float64 resolution and no extraction method could recover it. Balanced,
    every degree comes back at the roundoff floor.
    """
    rng = np.random.default_rng(314)
    r0 = 1.0
    worst = 0.0
    for l_max in (4, 10):
        for kr0 in (0.5, np.pi / 2, 3.0, 10.0):
            medium = Medium(k=kr0 / r0)
            coeffs = random_coefficients(l_max, medium, rng, balance_radius=r0)
            grid = make_grid(l_max, r0)
            e, h = synthesize(coeffs, r0, grid)
            for got in (extract_radial(e, h, l_max),
                        extract_tangential_e(e, l_max),
                        extract_tangential_h(h, l_max)):
                worst = max(worst, per_coefficient_error(got, coeffs))
    assert worst <= 1e-9
    print(f"\nACCEPTANCE 2 round-trip per route: PASS (worst rel err {worst:.2e})")


def test_criterion_3_route_equivalence_and_blindness():
    """The three routes agree pairwise to 1e-9 on the same synthesized data,
    and each is bit-for-bit blind to the components it does not read."""
    rng = np.random.default_rng(2718)
    medium = Medium(k=np.pi / 2)
    l_max = 6
    coeffs = random_coefficients(l_max, medium, rng)
    grid = make_grid(l_max, 1.0)
    e, h = synthesize(coeffs, 1.0, grid)
    result = equivalence_report(e, h, l_max)
    assert result.max_pairwise_deviation <= 1e-9

    def corrupted(samples, columns):
        values = samples.values.copy()
        values[:, columns] = 1e8 * (rng.normal(size=(values.shape[0], len(columns)))
                                    + 1j * rng.normal(size=(values.shape[0], len(columns))))
        return FieldSamples(samples.grid, samples.field_kind, values, samples.medium)

    c_rad = extract_radial(corrupted(e, [1, 2]), corrupted(h, [1, 2]), l_max)
    assert np.array_equal(c_rad.a_e, result.radial.coeffs.a_e)
    assert np.array_equal(c_rad.a_m, result.radial.coeffs.a_m)
    c_te = extract_tangential_e(corrupted(e, [0]), l_max)
    assert np.array_equal(c_te.a_e, result.tangential_e.coeffs.a_e)
    assert np.array_equal(c_te.a_m, result.tangential_e.coeffs.a_m)
    c_th = extract_tangential_h(corrupted(h, [0]), l_max)
    assert np.array_equal(c_th.a_e, result.tangential_h.coeffs.a_e)
    assert np.array_equal(c_th.a_m, result.tangential_h.coeffs.a_m)
    print(f"\nACCEPTANCE 3 route equivalence + blindness: PASS "
          f"(max pairwise deviation {result.max_pairwise_deviation:.2e})")


def test_criterion_4_halfwave_dipole():
    """Far field rebuilt from radial-only lambda/4-sphere data matches the
    coefficient-direct pattern: RMS deviation of normalized |E_theta| <= 1e-9,
    |E_phi| <= 1e-12 of peak in both, in under a second."""
    start = time.process_time()
    result = validate_dipole(DipoleSpec(1.0, 1.0))
    elapsed = time.process_time() - start
    assert result.rms_deviation <= 1e-9
    assert result.e_phi_peak_direct <= 1e-12
    assert result.e_phi_peak_recovered <= 1e-12
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 4 half-wave dipole: PASS "
          f"(RMS {result.rms_deviation:.2e}, |E_phi|/peak {result.e_phi_peak_direct:.1e} / "
          f"{result.e_phi_peak_recovered:.1e}, {elapsed:.2f}s)")


def test_criterion_5_magnetic_duality():
    """H_r of the dual equals E_r/Z0 of the original to 1e-12 of peak, and the
    dual far field carries the swapped polarization."""
    result = validate_dipole(DipoleSpec(1.0, 1.0))
    assert result.radial_h_mismatch <= 1e-12
    assert result.dual_e_theta_peak <= 1e-12
    assert result.pattern_swap_mismatch <= 1e-10
    print(f"\nACCEPTANCE 5 magnetic duality: PASS "
          f"(radial mismatch {result.radial_h_mismatch:.2e}, "
          f"swap mismatch {result.pattern_swap_mismatch:.2e})")


def test_criterion_6_flux_conservation():
    """Radiated power on spheres of radius r0 and 5 r0 agrees to 1e-9
    relative for random sets up to l_max = 10."""
    rng = np.random.default_rng(161803)
    medium = Medium(k=2.0 * np.pi)  # kr0 = 2 pi at r0 = 1: all degrees propagating
    worst = 0.0
    for l_max in (3, 10):
        coeffs = random_coefficients(l_max, medium, rng)
        grid = make_grid(l_max, 1.0)
        p_near = radiated_power(coeffs, 1.0, grid)
        p_far = radiated_power(coeffs, 5.0, grid)
        worst = max(worst, abs(p_near - p_far) / abs(p_near))
    assert worst <= 1e-9
    print(f"\nACCEPTANCE 6 flux conservation: PASS (worst rel diff {worst:.2e})")


def test_criterion_7_far_field_asymptotics():
    """far_field matches exact synthesis at kr = 1e4 (common factor stripped)
    to 2e-3 of pattern peak; the O(1/kr) residual is ~ l(l+1)/(2 kr)."""
    rng = np.random.default_rng(577215)
    kr = 1e4
    worst = 0.0
    from spheremodes.dipole import halfwave_coeffs
    sets = [random_coefficients(4, Medium(k=np.pi / 2), rng),
            halfwave_coeffs(DipoleSpec(1.0, 1.0))]
    for coeffs in sets:
        r = kr / coeffs.medium.k
        grid = make_grid(coeffs.l_max, r)
        e, _ = synthesize(coeffs, r, grid)
        pattern = far_field(coeffs, np.column_stack([grid.theta, grid.phi]))
        strip = kr * np.exp(-1j * kr)
        peak = max(np.abs(pattern.e_theta).max(), np.abs(pattern.e_phi).max())
        err = max(np.abs(e.values[:, 1] * strip - pattern.e_theta).max(),
                  np.abs(e.values[:, 2] * strip - pattern.e_phi).max(),
                  np.abs(e.values[:, 0] * strip).max()) / peak
        worst = max(worst, err)
    assert worst <= 2e-3
    print(f"\nACCEPTANCE 7 far-field asymptotics: PASS (worst rel err {worst:.2e})")


def test_criterion_8_corrected_constant_regression():
    """The dimensionally inconsistent r0/(Z0 D_l) variant of the co-polarized
    tangential inversion misses the round trip by exactly the factor i/k --
    with r0 = 1 m, a magnitude ratio of exactly kr0 -- while the consistent
    constant kr0/(i Z0 D_l) recovers the coefficients."""
    r0 = 1.0
    kr0 = np.pi / 2
    medium = Medium(k=kr0 / r0)
    rng = np.random.default_rng(4669)
    coeffs = random_coefficients(4, medium, rng)
    grid = make_grid(4, r0)
    e, h = synthesize(coeffs, r0, grid)

    got = extract_tangential_e(e, 4)
    assert per_coefficient_error(got, coeffs) <= 1e-10
    got_h = extract_tangential_h(h, 4)
    assert per_coefficient_error(got_h, coeffs) <= 1e-10

    worst_factor_err = 0.0
    for mode in modes_upto(4):
        d_l = riccati_h1_deriv(mode.l, kr0)
        a_e_variant = (r0 / (medium.z0 * d_l)) * project(e, "Z", mode)
        a_m_variant = (r0 / d_l) * project(h, "Z", mode)
        a_e_true = coeffs.electric(mode.l, mode.m)
        a_m_true = coeffs.magnetic(mode.l, mode.m)
        # variant = (i/k) x truth for a_E, -(i/k) x truth for a_M
        worst_factor_err = max(
            worst_factor_err,
            abs(a_e_variant - (1j / medium.k) * a_e_true) / abs(a_e_true),
            abs(a_m_variant - (-1j / medium.k) * a_m_true) / abs(a_m_true))
        assert abs(a_e_true / a_e_variant) == pytest.approx(kr0, rel=1e-10)
        assert abs(a_m_true / a_m_variant) == pytest.approx(kr0, rel=1e-10)
    assert worst_factor_err <= 1e-9
    print(f"\nACCEPTANCE 8 corrected-constant regression: PASS "
          f"(variant off by exactly |kr0| = {kr0:.4f}; factor residual "
          f"{worst_factor_err:.2e})")


def test_criterion_8_variant_fails_round_trip():
    """And the variant constant does NOT pass the round trip: the error it
    leaves is the derived factor, nothing smaller."""
    r0 = 1.0
    kr0 = np.pi / 2
    medium = Medium(k=kr0 / r0)
    coeffs = CoefficientSet.from_modes(2, medium, electric={(1, 0): 1.0})
    grid = make_grid(2, r0)
    e, _ = synthesize(coeffs, r0, grid)
    d_1 = riccati_h1_deriv(1, kr0)
    a_variant = (r0 / (medium.z0 * d_1)) * project(e, "Z", ModeIndex(1, 0))
    assert abs(a_variant - 1.0) > 0.3  # misses by |1 - i/k|, no silent pass
    print("\nACCEPTANCE 8b variant constant demonstrably fails round trip: PASS")
