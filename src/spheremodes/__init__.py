"""Multipole fields on spheres: synthesis from coefficients, three-route
coefficient extraction from surface samples, far fields, and the half-wave
dipole validation run.

Conventions: e^{-i omega t} time dependence (h_l^(1) outgoing),
Condon-Shortley phase inside the Legendre functions, fields as (E, H) with
H = B / mu0, SI units throughout.
"""

from .dipole import DipoleReport, DipoleSpec, halfwave_coeffs, validate_dipole
from .extraction import (ConditioningWarning, EquivalenceResult, ExtractionReport,
                         equivalence_report, extract_radial, extract_tangential_e,
                         extract_tangential_h)
from .harmonics import (FieldSamples, GridResolutionWarning, SphereGrid, TangentialVector,
                        make_grid, project, vec_X, vec_Z)
from .multipole import (CoefficientSet, FarFieldPattern, Medium, coefficient_deviation,
                        duality, far_field, mode_count, mode_slot, modes_upto,
                        radiated_power, synthesize)
from .specfun import (ModeIndex, assoc_legendre_norm, riccati_h1_deriv, sph_hankel1,
                      sph_harmonic)

__version__ = "0.1.0"

__all__ = [
    "CoefficientSet", "ConditioningWarning", "DipoleReport", "DipoleSpec",
    "EquivalenceResult", "ExtractionReport", "FarFieldPattern", "FieldSamples",
    "GridResolutionWarning", "Medium", "ModeIndex", "SphereGrid", "TangentialVector",
    "assoc_legendre_norm", "coefficient_deviation", "duality", "equivalence_report",
    "extract_radial", "extract_tangential_e", "extract_tangential_h", "far_field",
    "halfwave_coeffs", "make_grid", "mode_count", "mode_slot", "modes_upto", "project",
    "radiated_power", "riccati_h1_deriv", "sph_hankel1", "sph_harmonic", "synthesize",
    "validate_dipole", "vec_X", "vec_Z",
]
