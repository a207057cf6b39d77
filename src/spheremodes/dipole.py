"""Half-wave dipole validation run.

A center-fed half-wave dipole with a sinusoidal current carries odd-degree,
m = 0 electric multipoles only; truncated at degree 5 the set is

    a_E(1,0) = sqrt(6/pi) I / (lambda/2)
    a_E(3,0) = 49.5e-3  a_E(1,0)
    a_E(5,0) = 1.02e-3  a_E(1,0)

validate_dipole makes the whole run on one grid on the lambda/4 sphere: it
synthesizes the dipole, its magnetic-dipole dual and the double dual once
each, recovers the coefficients from the radial columns alone (the "source"
data), and compares the far field rebuilt from them, and that of the dual,
against the coefficient-direct one. All pattern comparisons are
peak-normalized: the amplitude convention above is A/m rather than the V/m
the synthesis constant implies, so only pattern shape is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extraction import extract_radial
from .harmonics import FieldSamples, make_grid, require_positive
from .multipole import (CoefficientSet, FarFieldPattern, Medium, duality, far_field,
                        synthesize)

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
class DipoleReport:
    """One half-wave dipole run: the radial source data, the far fields direct,
    rebuilt from that data and of the dual, and the checks on them."""

    source: FieldSamples
    coeffs_recovered: CoefficientSet
    direct: FarFieldPattern
    recovered: FarFieldPattern
    dual: FarFieldPattern
    rms_deviation: float
    e_phi_peak_direct: float
    e_phi_peak_recovered: float
    e_phi_negligible: bool
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


def _radial_only(samples: FieldSamples) -> FieldSamples:
    """The samples with their tangential columns zeroed."""
    values = np.zeros_like(samples.values)
    values[:, 0] = samples.values[:, 0]
    return FieldSamples(samples.grid, samples.field_kind, values, samples.medium)


def validate_dipole(spec: DipoleSpec, grid_l_max: int = 8, n_theta: int = 181) -> DipoleReport:
    """The round trip and the duality checks on one grid of degree grid_l_max,
    patterns at n_theta midpoint polar angles in (0, pi) at phi = 0. Checked:
    peak-normalized |E_theta| recovered against direct (RMS relative to the
    direct RMS); H_r of the dual against E_r/Z0; the dual pattern's swapped
    polarization; duality applied twice negating the fields."""
    if grid_l_max < DIPOLE_L_MAX:
        raise ValueError(f"grid exactness {grid_l_max} below dipole degree {DIPOLE_L_MAX}")
    if n_theta < 1:
        raise ValueError(f"n_theta must be >= 1, got {n_theta}")
    coeffs = halfwave_coeffs(spec)
    dual = duality(coeffs)
    grid = make_grid(grid_l_max, spec.source_radius)
    (e0, h0), (e1, h1), (e2, h2) = (synthesize(c, spec.source_radius, grid)
                                    for c in (coeffs, dual, duality(dual)))
    source = _radial_only(e0)
    recovered = extract_radial(source, _radial_only(h0), DIPOLE_L_MAX)
    theta = (np.arange(n_theta) + 0.5) * (np.pi / n_theta)
    directions = np.column_stack([theta, np.zeros_like(theta)])
    direct, redone, dual_far = (far_field(c, directions) for c in (coeffs, recovered, dual))
    norm_direct = np.abs(direct.e_theta) / np.abs(direct.e_theta).max()
    norm_redone = np.abs(redone.e_theta) / np.abs(redone.e_theta).max()
    rms = float(np.sqrt(np.mean((norm_direct - norm_redone) ** 2))
                / np.sqrt(np.mean(norm_direct**2)))
    peak = np.abs(direct.e_theta).max()
    e_phi_direct, e_phi_redone = (float(np.abs(p.e_phi).max() / peak) for p in (direct, redone))
    z0 = coeffs.medium.z0
    scale = np.abs(e0.values[:, 0]).max() / z0
    field_scale = max(np.abs(e0.values).max(), z0 * np.abs(h0.values).max())
    return DipoleReport(
        source, recovered, direct, redone, dual_far, rms, e_phi_direct, e_phi_redone,
        e_phi_direct <= 1e-12 and e_phi_redone <= 1e-12,
        float(np.abs(h1.values[:, 0] - e0.values[:, 0] / z0).max() / scale),
        float(np.abs(dual_far.e_theta).max() / peak),
        float(np.abs(np.abs(dual_far.e_phi) - np.abs(direct.e_theta)).max() / peak),
        float(max(np.abs(e2.values + e0.values).max(),
                  z0 * np.abs(h2.values + h0.values).max()) / field_scale))
