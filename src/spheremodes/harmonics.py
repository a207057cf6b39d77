"""Vector spherical harmonics, the quadrature sphere grid, and projection
integrals of sampled fields against conjugated harmonics.

The transverse harmonics used throughout are

    X_lm = (1/sqrt(l(l+1))) (1/i) (-dY/dtheta phi^ + (1/sin theta) dY/dphi theta^)
    Z_lm = r^ x X_lm

and Y_lm r^ is the radial one. Each is a theta profile times e^{i m phi}, and
synthesis, projection and the far field use three kinds of dot product
(np.vecdot) of two contiguous rows: the phi step (n_phi terms), a phase row
with one polar node's weighted samples; the theta step (n_theta), a mode's
profile with its order's phi-step results; the degree step (3 l_max,
order_sums), an order's weights with one polar angle's profiles. Each
entry's bits depend only on its two rows, not on batching, sample layout or
other columns; and OpenBLAS splits only dot products of more than 10 000
terms across threads, so they do not depend on the BLAS thread count while
n_theta, n_phi, 3 l_max <= 10 000.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .specfun import ModeIndex, legendre_theta_kernel, legendre_theta_modes

PROJECTION_KINDS = ("X", "Z", "Yr")


class GridResolutionWarning(UserWarning):
    """A quadrature grid's declared exactness is below what an operation needs."""


def require_positive(name: str, value: float) -> None:
    """Raise ValueError unless value is finite and > 0 (NaN is neither)."""
    if not (value > 0.0) or not np.isfinite(value):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def mode_count(l_max: int) -> int:
    """Number of radiating modes with 1 <= l <= l_max: l_max (l_max + 2)."""
    if l_max < 1:  # also guards every CoefficientSet constructor
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    return l_max * (l_max + 2)


def mode_slot(l, m):
    """Dense storage index of mode (l, m): l ascending, m ascending within l."""
    return l * l + l + m - 1


def mode_degrees(l_max: int) -> np.ndarray:
    """Degree l of every mode slot up to l_max, in storage order."""
    ls = np.arange(1, l_max + 1)
    return np.repeat(ls, 2 * ls + 1)


def mode_orders(l_max: int) -> np.ndarray:
    """Order m of every mode slot up to l_max, in storage order."""
    l = mode_degrees(l_max)
    return np.arange(len(l)) - l * l - l + 1


def fixed_order_sum(values: np.ndarray):
    """Sum of a 1-d array (the power flux quadrature): numpy's pairwise
    np.add.reduce."""
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError(f"fixed_order_sum reduces 1-d arrays, got shape {values.shape}")
    return np.add.reduce(values)


@dataclass(eq=False)
class SphereGrid:
    """Product quadrature grid on a sphere: Gauss-Legendre in cos(theta),
    uniform (periodic trapezoid) in phi.

    ``l_max`` is the declared exactness degree: products of two harmonics of
    degree up to l_max each integrate exactly (to roundoff). Nodes are stored
    theta-major, phi-minor; Gauss-Legendre nodes are strictly interior to
    (0, pi), so no node ever sits on a pole. Immutable after construction.
    """

    r0: float
    l_max: int
    n_theta: int
    n_phi: int
    theta_nodes: np.ndarray
    phi_nodes: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    _basis_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.n_theta * self.n_phi

    def with_radius(self, r0: float) -> "SphereGrid":
        """Same angular nodes, weights and basis on a sphere of a different radius."""
        require_positive("radius", r0)
        return SphereGrid(r0, self.l_max, self.n_theta, self.n_phi,
                          self.theta_nodes, self.phi_nodes,
                          self.theta, self.phi, self.weights, self._basis_cache)

    def same_geometry(self, other: "SphereGrid") -> bool:
        return (self.n_theta == other.n_theta and self.n_phi == other.n_phi
                and self.r0 == other.r0 and self.l_max == other.l_max)

    def basis(self, l_max: int):
        """(theta_profiles, phase_rows) of degree l_max at the nodes: views of
        one cache per angular grid, shared by every radius and grown to the
        largest degree asked for (which may differ from the grid's l_max)."""
        cached = self._basis_cache.get("basis")
        if cached is None or len(cached[1]) < 2 * l_max + 1:
            cached = (theta_profiles(l_max, self.theta_nodes), phase_rows(l_max, self.phi_nodes))
            for rows in cached:  # every grid at every radius shares these rows
                rows.flags.writeable = False
            self._basis_cache["basis"] = cached
        profiles, phases = cached
        centre = len(phases) // 2
        return profiles[:mode_count(l_max)], phases[centre - l_max:centre + l_max + 1]

    def projection_kernel(self, mode: ModeIndex):
        """(Y, X_theta, X_phi) of one mode at the nodes, built per call as its
        theta profiles times its e^{i m phi} row."""
        profiles, phases = self.basis(mode.l)
        return tuple(np.outer(profile, phases[mode.l + mode.m]).ravel()
                     for profile in profiles[mode_slot(mode.l, mode.m)])

    def mode_basis(self, mode: ModeIndex):
        """Per-node arrays (Y, X_theta, X_phi, Z_theta, Z_phi) for one mode."""
        y, x_theta, x_phi = self.projection_kernel(mode)
        return y, x_theta, x_phi, -x_phi, x_theta


@functools.cache
def _gauss_legendre(n: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def make_grid(l_max: int, r0: float, n_theta: Optional[int] = None,
              n_phi: Optional[int] = None) -> SphereGrid:
    """Build a sphere grid whose quadrature integrates Y_{l'm'} conj(Y_{lm})
    exactly for all l, l' <= l_max.

    Defaults: n_theta = l_max + 1 (Gauss-Legendre exactness 2 l_max + 1 in
    cos(theta)) and n_phi = 2 l_max + 2 (even, and the periodic trapezoid rule
    is exact for e^{i mu phi} with |mu| <= 2 l_max + 1).
    """
    if l_max < 1:
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    require_positive("radius", r0)
    if n_theta is None:
        n_theta = l_max + 1
    if n_phi is None:
        n_phi = 2 * l_max + 2
    if n_theta < l_max + 1:
        raise ValueError(f"n_theta={n_theta} cannot resolve degree {l_max} (need >= {l_max + 1})")
    if n_phi < 2 * l_max + 1:
        raise ValueError(f"n_phi={n_phi} cannot resolve order {l_max} (need >= {2 * l_max + 1})")
    x, w = _gauss_legendre(n_theta)
    # ascending theta = descending x
    theta_nodes = np.arccos(x[::-1])
    w_theta = w[::-1]
    phi_nodes = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    theta_flat = np.repeat(theta_nodes, n_phi)
    phi_flat = np.tile(phi_nodes, n_theta)
    weights = np.repeat(w_theta * (2.0 * np.pi / n_phi), n_phi)
    for arr in (theta_nodes, phi_nodes, theta_flat, phi_flat, weights):
        arr.flags.writeable = False
    return SphereGrid(float(r0), int(l_max), int(n_theta), int(n_phi),
                      theta_nodes, phi_nodes, theta_flat, phi_flat, weights)


@dataclass(frozen=True)
class TangentialVector:
    """A purely transverse vector in the spherical basis: radial part is zero
    by construction."""

    v_theta: complex
    v_phi: complex


@dataclass(eq=False)
class FieldSamples:
    """Complex field samples on a sphere grid, one (r^, theta^, phi^) 3-vector
    per node, stored as a (n_nodes, 3) array in grid node order.

    ``medium`` records the (k, Z0) the field lives in; coefficient extraction
    reads it. Samples must be finite everywhere.
    """

    grid: SphereGrid
    field_kind: str
    values: np.ndarray
    medium: Optional["Medium"] = None  # noqa: F821  (duck-typed; defined in multipole)

    def __post_init__(self):
        if self.field_kind not in ("E", "H"):
            raise ValueError(f"field_kind must be 'E' or 'H', got {self.field_kind!r}")
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.grid.n_nodes, 3):
            raise ValueError(f"values must have shape ({self.grid.n_nodes}, 3), got {values.shape}")
        if not np.isfinite(values).all():  # any memory layout
            raise ValueError("field samples must be finite everywhere")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def radial(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def theta(self) -> np.ndarray:
        return self.values[:, 1]

    @property
    def phi(self) -> np.ndarray:
        return self.values[:, 2]


def _transverse(l, tau, pi_):
    """theta profiles (pi / sqrt(l(l+1)), i tau / sqrt(l(l+1))) of degree l from
    the kernel's (tau, pi): times e^{i m phi} they are (X_theta, X_phi), and
    Z_lm = r^ x X_lm is (-X_phi, X_theta)."""
    root = np.sqrt(l * (l + 1.0))
    return pi_ / root, 1j * tau / root


def vec_X(mode: ModeIndex, theta, phi) -> TangentialVector:
    """Transverse vector harmonic X_lm at (theta, phi); rejects l = 0 via ModeIndex."""
    _, tau, pi_ = legendre_theta_kernel(mode.l, mode.m, theta)
    phase = np.exp(1j * np.asarray(mode.m * np.asarray(phi, dtype=float)))
    return TangentialVector(*(profile * phase for profile in _transverse(mode.l, tau, pi_)))


def vec_Z(mode: ModeIndex, theta, phi) -> TangentialVector:
    """Z_lm = r^ x X_lm, i.e. (Z_theta, Z_phi) = (-X_phi, X_theta)."""
    x = vec_X(mode, theta, phi)
    return TangentialVector(-x.v_phi, x.v_theta)


def theta_profiles(l_max: int, theta) -> np.ndarray:
    """(modes, 3, len(theta)) theta profiles (n, pi/sqrt(l(l+1)),
    i tau/sqrt(l(l+1))) of (Y, X_theta, X_phi) for every mode up to l_max, in
    mode_slot order, at the 1-d polar angles theta; stored complex."""
    l = mode_degrees(l_max)
    n, tau, pi_ = legendre_theta_modes(theta, l, mode_orders(l_max))
    return np.stack([n, *_transverse(l[:, None], tau, pi_)], axis=1)


def phase_rows(l_max: int, phi) -> np.ndarray:
    """(2 l_max + 1, len(phi)) rows e^{i m phi}, m = -l_max..l_max."""
    return np.exp(1j * np.arange(-l_max, l_max + 1)[:, None] * phi)


def order_sums(weights, profiles, l_max: int) -> np.ndarray:
    """(..., len(theta), 2 l_max + 1): entry [..., t, m + l_max] is
    Sum_{l, j} weights[..., j, slot(l, m)] profiles[slot(l, m), j, t] for
    weights (..., 3, modes) and profiles theta_profiles(>= l_max, theta), one
    dot product over the order's (l_max, 3) terms, zero-weighted for l < |m|."""
    m, l = np.arange(-l_max, l_max + 1)[:, None], np.arange(1, l_max + 1)
    live = l >= np.abs(m)
    slots = np.where(live, mode_slot(l, m), 0)  # (orders, l_max); dead ones read slot 0
    shape = (len(slots), 3 * l_max)  # each order's (l, j) terms in one contiguous row
    rows = np.take(profiles.transpose(2, 0, 1), slots, axis=1).reshape(profiles.shape[2], *shape)
    w = np.conj(np.moveaxis(np.where(live, weights[..., slots], 0), -3, -1))
    return np.vecdot(w.reshape(*w.shape[:-3], 1, *shape), rows)


def _project(samples: FieldSamples, kinds, l: int, mode: Optional[ModeIndex] = None):
    """Quadrature sums of conj(V) . w F, one per kind V in kinds, for one mode
    or for every mode up to degree l (mode None) in mode_slot order. The
    columns the kinds read are weighted once into a fresh contiguous array and
    share one phi step; 'Yr' and 'X' share one theta step, and 'Z' takes X's
    profiles against the swapped tangential pair."""
    for kind in kinds:
        if kind not in PROJECTION_KINDS:
            raise ValueError(f"kind must be one of {PROJECTION_KINDS}, got {kind!r}")
    grid = samples.grid
    if l > grid.l_max:
        warnings.warn(
            f"projection of degree l={l} on a grid declared exact only to "
            f"l_max={grid.l_max}; the quadrature may alias",
            GridResolutionWarning, stacklevel=3)
    profiles, phases = grid.basis(l)
    lo, hi = (0 if "Yr" in kinds else 1), (3 if "X" in kinds or "Z" in kinds else 1)
    f = np.multiply(samples.values.T[lo:hi], grid.weights, order="C").reshape(
        -1, grid.n_theta, grid.n_phi)
    if mode is None:
        rows = profiles[:, lo:hi]
        g = np.vecdot(phases[:, None, None], f)[mode_orders(l) + l]
    else:
        rows = profiles[mode_slot(mode.l, mode.m), lo:hi]
        g = np.vecdot(phases[l + mode.m], f)
    t = np.vecdot(rows, g).T if "Yr" in kinds or "X" in kinds else None
    if "Z" in kinds:  # the tangential pair's profiles against the swapped pair's phi sums
        z = np.vecdot(rows if lo else rows[..., 1:, :], g[..., :-3:-1, :]).T
    out = []  # a loop, not a comprehension: one-mode calls pay for every step
    for kind in kinds:
        out.append(t[0] if kind == "Yr" else t[-2] + t[-1] if kind == "X" else z[0] - z[1])
    return out


def project(samples: FieldSamples, kind: str, mode: ModeIndex) -> complex:
    """Quadrature approximation of integral conj(V_lm) . F dOmega.

    kind selects V: 'X', 'Z', or 'Yr' (= Y_lm r^). Only the components the
    chosen harmonic has are read: 'Yr' touches the radial column alone, 'X'
    and 'Z' the tangential columns alone. Warns (GridResolutionWarning) when
    the mode degree exceeds the grid's declared exactness.
    """
    return complex(_project(samples, (kind,), mode.l, mode)[0])


def project_all(samples: FieldSamples, kind: str, l_max: int) -> np.ndarray:
    """project() for every mode with l <= l_max at once, in mode_slot order;
    each entry equals the single-mode result bit for bit."""
    return _project(samples, (kind,), l_max)[0]
