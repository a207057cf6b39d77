"""Multipole coefficient sets, outgoing-field synthesis on a sphere, far-field
patterns, the electric/magnetic duality transform, and radiated power.

The field of a coefficient set {a_E(l,m), a_M(l,m)} at radius r (exterior to
all sources) is, with x = kr, h_l = h_l^(1)(x) and D_l = d/dx [x h_l(x)]:

    E = Z0 sum_lm [ a_E sqrt(l(l+1))/x h_l Y_lm r^
                  + a_E (i/x) D_l Z_lm
                  + a_M h_l X_lm ]
    H =    sum_lm [ -a_M sqrt(l(l+1))/x h_l Y_lm r^
                  + a_E h_l X_lm
                  - a_M (i/x) D_l Z_lm ]

Fields are exposed as (E, H) with H = B / mu0; the magnetic coefficient
a_M multiplies H the way a_E multiplies E / Z0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Tuple

import numpy as np

from .harmonics import (FieldSamples, GridResolutionWarning, SphereGrid,
                        fixed_order_sum, mode_count, mode_degrees, mode_slot, order_sums,
                        phase_rows, require_positive, theta_profiles)
from .specfun import ModeIndex, _read_only, radial_factors

SPEED_OF_LIGHT = 299792458.0  # m/s
VACUUM_IMPEDANCE = 376.730313668  # ohm
ZERO_FLOOR = 1e-12  # coefficient_deviation: below this fraction of the joint scale is zero
FAR_FIELD_BLOCK = 4096  # far_field takes its last step this many directions at a time


def modes_upto(l_max: int) -> list[ModeIndex]:
    """All modes in storage order."""
    return [ModeIndex(l, m) for l in range(1, l_max + 1) for m in range(-l, l + 1)]


@dataclass(frozen=True)
class Medium:
    """Lossless homogeneous medium: wavenumber k and wave impedance Z0."""

    k: float
    z0: float = VACUUM_IMPEDANCE

    def __post_init__(self):
        require_positive("wavenumber", self.k)
        require_positive("impedance", self.z0)

    @classmethod
    def free_space(cls, frequency_hz: float) -> "Medium":
        require_positive("frequency", frequency_hz)
        return cls(k=2.0 * np.pi * frequency_hz / SPEED_OF_LIGHT)

    @property
    def wavelength(self) -> float:
        return 2.0 * np.pi / self.k


@dataclass(eq=False)
class CoefficientSet:
    """Complex multipole coefficients a_E(l,m), a_M(l,m) for 1 <= l <= l_max,
    stored densely (l ascending, m ascending) and immutable after construction."""

    l_max: int
    medium: Medium
    a_e: np.ndarray
    a_m: np.ndarray

    def __post_init__(self):
        n = mode_count(self.l_max)
        a_e, a_m = _read_only(np.array(self.a_e, dtype=complex), np.array(self.a_m, dtype=complex))
        if a_e.shape != (n,) or a_m.shape != (n,):
            raise ValueError(f"coefficient arrays must have shape ({n},)")
        if not (np.isfinite(a_e.view(float)).all() and np.isfinite(a_m.view(float)).all()):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "a_e", a_e)
        object.__setattr__(self, "a_m", a_m)

    @classmethod
    def zeros(cls, l_max: int, medium: Medium) -> "CoefficientSet":
        n = mode_count(l_max)
        return cls(l_max, medium, np.zeros(n, complex), np.zeros(n, complex))

    @classmethod
    def from_modes(cls, l_max: int, medium: Medium,
                   electric: Mapping[Tuple[int, int], complex] = (),
                   magnetic: Mapping[Tuple[int, int], complex] = ()) -> "CoefficientSet":
        """Build a set from sparse {(l, m): value} mappings."""
        a_e = np.zeros(mode_count(l_max), complex)
        a_m = np.zeros(mode_count(l_max), complex)
        for target, entries in ((a_e, electric), (a_m, magnetic)):
            for (l, m), value in dict(entries).items():
                ModeIndex(l, m)
                if l > l_max:
                    raise ValueError(f"mode (l={l}, m={m}) exceeds l_max={l_max}")
                target[mode_slot(l, m)] = value
        return cls(l_max, medium, a_e, a_m)

    def electric(self, l: int, m: int) -> complex:
        return complex(self.a_e[mode_slot(l, m)])

    def magnetic(self, l: int, m: int) -> complex:
        return complex(self.a_m[mode_slot(l, m)])

    def __add__(self, other: "CoefficientSet") -> "CoefficientSet":
        if other.l_max != self.l_max or other.medium != self.medium:
            raise ValueError("coefficient sets must share l_max and medium")
        return CoefficientSet(self.l_max, self.medium, self.a_e + other.a_e, self.a_m + other.a_m)

    def __neg__(self) -> "CoefficientSet":
        return CoefficientSet(self.l_max, self.medium, -self.a_e, -self.a_m)

    def __mul__(self, scalar: complex) -> "CoefficientSet":
        return CoefficientSet(self.l_max, self.medium, scalar * self.a_e, scalar * self.a_m)

    __rmul__ = __mul__


@dataclass(eq=False)
class FarFieldPattern:
    """kr -> infinity field pattern with the common e^{ikr}/(kr) factor
    stripped: complex E_theta, E_phi per direction, no radial component.

    The far-zone magnetic field is the enforced identity H = (1/Z0) r^ x E,
    exposed through h_theta / h_phi rather than stored.
    """

    directions: np.ndarray
    e_theta: np.ndarray
    e_phi: np.ndarray
    z0: float

    @property
    def h_theta(self) -> np.ndarray:
        return -self.e_phi / self.z0

    @property
    def h_phi(self) -> np.ndarray:
        return self.e_theta / self.z0


def _expansion(medium: Medium, x: float, h: np.ndarray, d: np.ndarray):
    """The expansion above as {(field, kind): (family, scale, f)}: the part of E
    or H along kind V is scale * a * f per mode slot, a being the slot's a_e or
    a_m and f built from one (h, d) = radial_factors(l_max, x)."""
    l = mode_degrees(len(h))
    f_x, f_z = h[l - 1], 1j * d[l - 1] / x
    f_rad, z0 = np.sqrt(l * (l + 1.0)) * f_x / x, medium.z0
    return {("E", "Yr"): ("a_e", z0, f_rad), ("H", "Yr"): ("a_m", -1.0, f_rad),
            ("E", "X"): ("a_m", z0, f_x), ("H", "X"): ("a_e", 1.0, f_x),
            ("E", "Z"): ("a_e", z0, f_z), ("H", "Z"): ("a_m", -1.0, f_z)}


def _tangential(w_x, w_z):
    """(theta, phi) rows of (X_theta, X_phi) weights for w_x X + w_z Z, Z = (-X_phi, X_theta)."""
    return [[w_x, -w_z], [w_z, w_x]]


def synthesize(coeffs: CoefficientSet, r: float, grid: SphereGrid):
    """Evaluate (E, H) of a coefficient set on a sphere grid at radius r.

    r may differ from grid.r0; the returned samples sit on a copy of the grid
    re-labeled with radius r. Valid only in the source-free exterior (caller's
    responsibility).
    """
    require_positive("radius", r)
    if grid.l_max < coeffs.l_max:
        warnings.warn(
            f"synthesizing degree l_max={coeffs.l_max} on a grid declared exact "
            f"only to l_max={grid.l_max}; downstream projections may alias",
            GridResolutionWarning, stacklevel=2)
    grid_at = grid if r == grid.r0 else grid.with_radius(r)
    med, l_max, x = coeffs.medium, coeffs.l_max, coeffs.medium.k * r
    profiles, phases = grid_at.basis(l_max)
    w = {key: (scale * getattr(coeffs, family)) * f  # per (field, kind) mode weights
         for key, (family, scale, f) in _expansion(med, x, *radial_factors(l_max, x)).items()}
    radial = np.array([[[w[field, "Yr"]]] for field in "EH"])
    tangential = np.array([_tangential(w[field, "X"], w[field, "Z"]) for field in "EH"])
    # (E/H, r/theta/phi, theta node, order): r reads Y, theta and phi (X_theta, X_phi)
    sums = np.concatenate((order_sums(radial, profiles[:, :1], l_max),
                           order_sums(tangential, profiles[:, 1:], l_max)), axis=1)
    fields = np.matmul(phases.T, sums.transpose(0, 2, 3, 1)).reshape(2, grid_at.n_nodes, 3)
    return (FieldSamples(grid_at, "E", fields[0], med), FieldSamples(grid_at, "H", fields[1], med))


def far_field(coeffs: CoefficientSet, directions) -> FarFieldPattern:
    """Radiation pattern in the kr -> infinity limit.

    Uses h_l^(1)(x) -> (-i)^{l+1} e^{ix}/x, which turns the expansion into

        E_pattern = Z0 sum_lm (-i)^{l+1} [ a_M X_lm - a_E Z_lm ]

    with the e^{ikr}/(kr) factor stripped; the radial component vanishes
    identically. The asymptotic constant is pinned by the large-radius
    synthesis test rather than taken on faith.

    As in synthesis, order_sums reduces each order's degrees on the distinct
    polar angles only; then one dot product per direction over the orders
    with its e^{i m phi} row, so each direction's bits depend only on its own
    (theta, phi). Directions must be finite; (0, 2) gives an empty pattern.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    if directions.ndim != 2 or directions.shape[1] != 2:
        raise ValueError("directions must be (theta, phi) pairs")
    if not np.isfinite(directions).all():
        raise ValueError("directions must be finite")
    # distinct angles by bit pattern, so -0.0 and 0.0 are never merged
    (theta, theta_at), (phi, phi_at) = (
        np.unique(np.ascontiguousarray(angles).view(np.int64), return_inverse=True)
        for angles in directions.T)
    theta, phi = theta.view(float), phi.view(float)
    med = coeffs.medium
    l_max = coeffs.l_max
    l = mode_degrees(l_max)
    scale = med.z0 * np.array([1, -1j, -1, 1j])[(l + 1) % 4]
    weights = _tangential(scale * coeffs.a_m, -(scale * coeffs.a_e))  # Z0 (-i)^{l+1} a
    sums = order_sums(np.array(weights), theta_profiles(l_max, theta)[:, 1:], l_max)
    # vecdot conjugates its first operand: these rows are conj(e^{i m phi})
    phases = np.conj(phase_rows(l_max, phi)).T
    pattern = np.empty((2, len(directions)), complex)
    for b in (slice(i, i + FAR_FIELD_BLOCK) for i in range(0, len(directions), FAR_FIELD_BLOCK)):
        np.vecdot(phases[phi_at[b]], np.take(sums, theta_at[b], axis=1), out=pattern[:, b])
    return FarFieldPattern(directions, *pattern, med.z0)


def duality(coeffs: CoefficientSet) -> CoefficientSet:
    """Coefficients of the dual field (E', H') = (-Z0 H, E / Z0).

    Matching the expansion term by term gives the swap
    (a_E, a_M) -> (a_M, -a_E). The field-level map squares to -1 (it is a
    quarter turn in (E, H) space), so applying duality twice negates the
    coefficients and the fields; four applications restore them.
    """
    return CoefficientSet(coeffs.l_max, coeffs.medium, coeffs.a_m.copy(), -coeffs.a_e.copy())


def radiated_power(coeffs: CoefficientSet, r: float, grid: SphereGrid) -> float:
    """Outgoing power through the sphere of radius r: the quadrature of
    (1/2) Re(E x conj(H)) . r^ times r^2. Radius-independent in a lossless
    exterior."""
    e, h = synthesize(coeffs, r, grid)
    flux = 0.5 * np.real(e.values[:, 1] * np.conj(h.values[:, 2])
                         - e.values[:, 2] * np.conj(h.values[:, 1]))
    return float(fixed_order_sum(grid.weights * flux)) * r * r


def coefficient_deviation(c1: CoefficientSet, c2: CoefficientSet) -> float:
    """Max over modes and both families of |a1 - a2| / max(|a1|, |a2|).

    Mode pairs where both magnitudes sit below ZERO_FLOOR times the largest
    magnitude in either set count as agreeing zeros (roundoff on a mode absent
    from both); a mode present in one set and absent from the other registers in full.
    """
    if c1.l_max != c2.l_max:
        raise ValueError("coefficient sets must share l_max")
    a1, a2 = np.concatenate((c1.a_e, c1.a_m)), np.concatenate((c2.a_e, c2.a_m))
    denom = np.maximum(np.abs(a1), np.abs(a2))
    live = denom > ZERO_FLOOR * denom.max()
    return float((np.abs(a1 - a2)[live] / denom[live]).max(initial=0.0))
