"""Half-wave dipole validation harness.

A center-fed half-wave dipole with a sinusoidal current carries odd-degree,
m = 0 electric multipoles only; truncated at degree 5 the set is

    a_E(1,0) = sqrt(6/pi) I / (lambda/2)
    a_E(3,0) = 49.5e-3  a_E(1,0)
    a_E(5,0) = 1.02e-3  a_E(1,0)

The harness synthesizes the radial electric field on the lambda/4 sphere
(the "source" data), recovers the coefficients from radial components alone,
and compares the recomputed far field against the coefficient-direct one.
All pattern comparisons are peak-normalized: the amplitude convention above
is A/m rather than the V/m the synthesis constant implies, so only pattern
shape is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extraction import extract_radial
from .harmonics import FieldSamples, SphereGrid, make_grid, require_positive
from .multipole import CoefficientSet, Medium, duality, far_field, synthesize

DIPOLE_L_MAX = 5
DEGREE3_RATIO = 49.5e-3
DEGREE5_RATIO = 1.02e-3


@dataclass(frozen=True)
class DipoleSpec:
    """Half-wave dipole drive: sinusoidal current amplitude and wavelength."""

    current_amplitude: float
    wavelength: float

    def __post_init__(self):
        if not (self.current_amplitude >= 0.0) or not np.isfinite(self.current_amplitude):
            raise ValueError(f"current amplitude must be finite and >= 0, "
                             f"got {self.current_amplitude}")
        require_positive("wavelength", self.wavelength)

    @property
    def source_radius(self) -> float:
        """The quarter-wave sampling sphere: k r0 = pi/2 there."""
        return self.wavelength / 4.0


@dataclass(eq=False)
class RoundTripResult:
    """Far field two ways: direct from the dipole coefficients, and from
    radial-only data on the lambda/4 sphere."""

    theta: np.ndarray
    e_theta_direct: np.ndarray
    e_theta_recovered: np.ndarray
    rms_deviation: float
    e_phi_peak_direct: float
    e_phi_peak_recovered: float
    e_phi_negligible: bool
    coeffs_direct: CoefficientSet
    coeffs_recovered: CoefficientSet


@dataclass(eq=False)
class DualityResult:
    """Checks of the magnetic-dipole dual against the electric original."""

    radial_h_mismatch: float
    dual_e_theta_peak: float
    pattern_swap_mismatch: float
    double_dual_field_residual: float


def halfwave_coeffs(spec: DipoleSpec) -> CoefficientSet:
    """The three-mode electric coefficient set of the half-wave dipole."""
    medium = Medium(k=2.0 * np.pi / spec.wavelength)
    a1 = np.sqrt(6.0 / np.pi) * spec.current_amplitude / (spec.wavelength / 2.0)
    return CoefficientSet.from_modes(
        DIPOLE_L_MAX, medium,
        electric={(1, 0): a1, (3, 0): DEGREE3_RATIO * a1, (5, 0): DEGREE5_RATIO * a1})


def radial_source_on_sphere(spec: DipoleSpec, grid: SphereGrid) -> FieldSamples:
    """The radial electric field on the lambda/4 sphere, tangential columns
    zeroed: the 'source' data the round trip starts from."""
    if not np.isclose(grid.r0, spec.source_radius, rtol=1e-12, atol=0.0):
        raise ValueError(
            f"grid radius {grid.r0} is not the quarter-wave sphere {spec.source_radius}")
    if grid.l_max < DIPOLE_L_MAX:
        raise ValueError(f"grid exactness {grid.l_max} below dipole degree {DIPOLE_L_MAX}")
    coeffs = halfwave_coeffs(spec)
    e, _ = synthesize(coeffs, spec.source_radius, grid)
    radial_only = np.zeros_like(e.values)
    radial_only[:, 0] = e.values[:, 0]
    return FieldSamples(e.grid, "E", radial_only, e.medium)


def _pattern_thetas(n_theta: int) -> np.ndarray:
    """Midpoint sampling of theta strictly inside (0, pi)."""
    return (np.arange(n_theta) + 0.5) * (np.pi / n_theta)


def validate_roundtrip(spec: DipoleSpec, grid_l_max: int = 8,
                       n_theta: int = 181) -> RoundTripResult:
    """Compare far fields from the coefficients directly and from radial-only
    data on the lambda/4 sphere.

    The deviation is the RMS of the difference of peak-normalized |E_theta|
    over theta in (0, pi), relative to the RMS of the direct pattern.
    """
    coeffs = halfwave_coeffs(spec)
    grid = make_grid(grid_l_max, spec.source_radius)
    e, h = synthesize(coeffs, spec.source_radius, grid)
    e_radial = np.zeros_like(e.values)
    e_radial[:, 0] = e.values[:, 0]
    h_radial = np.zeros_like(h.values)
    h_radial[:, 0] = h.values[:, 0]
    recovered = extract_radial(FieldSamples(e.grid, "E", e_radial, e.medium),
                               FieldSamples(h.grid, "H", h_radial, h.medium),
                               DIPOLE_L_MAX)
    theta = _pattern_thetas(n_theta)
    directions = np.column_stack([theta, np.zeros_like(theta)])
    direct = far_field(coeffs, directions)
    redone = far_field(recovered, directions)
    norm_direct = np.abs(direct.e_theta) / np.abs(direct.e_theta).max()
    norm_redone = np.abs(redone.e_theta) / np.abs(redone.e_theta).max()
    rms = float(np.sqrt(np.mean((norm_direct - norm_redone) ** 2))
                / np.sqrt(np.mean(norm_direct**2)))
    peak = np.abs(direct.e_theta).max()
    e_phi_direct = float(np.abs(direct.e_phi).max() / peak)
    e_phi_redone = float(np.abs(redone.e_phi).max() / peak)
    return RoundTripResult(theta, direct.e_theta, redone.e_theta, rms,
                           e_phi_direct, e_phi_redone,
                           e_phi_direct <= 1e-12 and e_phi_redone <= 1e-12,
                           coeffs, recovered)


def magnetic_dipole_variant(spec: DipoleSpec, grid_l_max: int = 8,
                            n_theta: int = 181) -> DualityResult:
    """Apply the duality transform and verify the printed field relations:
    H_r of the dual equals E_r/Z0 of the original, the dual far field swaps
    the polarization roles, four applications of duality restore the fields
    (two negate them)."""
    coeffs = halfwave_coeffs(spec)
    dual = duality(coeffs)
    grid = make_grid(grid_l_max, spec.source_radius)
    e0, h0 = synthesize(coeffs, spec.source_radius, grid)
    e1, h1 = synthesize(dual, spec.source_radius, grid)
    z0 = coeffs.medium.z0
    scale = np.abs(e0.values[:, 0]).max() / z0
    radial_h_mismatch = float(np.abs(h1.values[:, 0] - e0.values[:, 0] / z0).max() / scale)

    theta = _pattern_thetas(n_theta)
    directions = np.column_stack([theta, np.zeros_like(theta)])
    p0 = far_field(coeffs, directions)
    p1 = far_field(dual, directions)
    peak = np.abs(p0.e_theta).max()
    dual_e_theta_peak = float(np.abs(p1.e_theta).max() / peak)
    pattern_swap_mismatch = float(
        np.abs(np.abs(p1.e_phi) - np.abs(p0.e_theta)).max() / peak)

    twice = duality(dual)
    e2, h2 = synthesize(twice, spec.source_radius, grid)
    field_scale = max(np.abs(e0.values).max(), z0 * np.abs(h0.values).max())
    double_dual_residual = float(max(
        np.abs(e2.values + e0.values).max(),
        z0 * np.abs(h2.values + h0.values).max()) / field_scale)
    return DualityResult(radial_h_mismatch, dual_e_theta_peak,
                         pattern_swap_mismatch, double_dual_residual)
