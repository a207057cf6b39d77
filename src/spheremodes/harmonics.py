"""Vector spherical harmonics, the quadrature sphere grid, and projection
integrals of sampled fields against conjugated harmonics.

The transverse harmonics used throughout are

    X_lm = (1/sqrt(l(l+1))) (1/i) (-dY/dtheta phi^ + (1/sin theta) dY/dphi theta^)
    Z_lm = r^ x X_lm

and Y_lm r^ is the radial one. Projections are plain quadrature sums
Sum_i w_i conj(V(theta_i, phi_i)) . F_i, one dot product (per 8192-node
block) for each pair of table row and weighted sample column w F: each
entry's bits depend only on that row and that column, not on how many modes
are batched, on the samples' memory layout, on which other columns exist, or
on the BLAS thread count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .specfun import ModeIndex, legendre_theta_kernel, legendre_theta_orders

PROJECTION_KINDS = ("X", "Z", "Yr")


class GridResolutionWarning(UserWarning):
    """A quadrature grid's declared exactness is below what an operation needs."""


# OpenBLAS splits a dot product longer than 10 000 elements across its threads,
# which makes its bits depend on the thread count; shorter blocks never split.
DOT_BLOCK = 8192


def require_positive(name: str, value: float) -> None:
    """Raise ValueError unless value is finite and > 0 (NaN is neither)."""
    if not (value > 0.0) or not np.isfinite(value):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def mode_count(l_max: int) -> int:
    """Number of radiating modes with 1 <= l <= l_max: l_max (l_max + 2)."""
    return l_max * (l_max + 2)


def mode_slot(l, m):
    """Dense storage index of mode (l, m): l ascending, m ascending within l."""
    return l * l + l + m - 1


def mode_degrees(l_max: int) -> np.ndarray:
    """Degree l of every mode slot up to l_max, in storage order."""
    ls = np.arange(1, l_max + 1)
    return np.repeat(ls, 2 * ls + 1)


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
        """Same angular nodes, weights and basis table on a sphere of a different radius."""
        require_positive("radius", r0)
        return SphereGrid(r0, self.l_max, self.n_theta, self.n_phi,
                          self.theta_nodes, self.phi_nodes,
                          self.theta, self.phi, self.weights, self._basis_cache)

    def same_geometry(self, other: "SphereGrid") -> bool:
        return (self.n_theta == other.n_theta and self.n_phi == other.n_phi
                and self.r0 == other.r0 and self.l_max == other.l_max)

    def basis_table(self, l_max: int):
        """(Y, X_theta, X_phi) at the nodes, each (modes, n_nodes) in mode_slot
        order for at least every degree up to l_max. Z is (-X_phi, X_theta)
        and is not stored; projections weight the sample column, not the table.

        One table per angular grid, shared by every radius; it grows to the
        largest degree asked for, which may differ from the grid's l_max.
        """
        table = self._basis_cache.get("table")
        if table is not None and table[0].shape[0] >= mode_count(l_max):
            return table
        self._basis_cache.clear()
        # each row is a theta profile times e^{i m phi}: collect the profiles of
        # Y, X_theta, X_phi and each row's phase, then form each array as one
        # broadcast product
        n_modes = mode_count(l_max)
        profiles = (np.empty((n_modes, self.n_theta)), np.empty((n_modes, self.n_theta)),
                    np.empty((n_modes, self.n_theta), complex))
        phases = np.empty((n_modes, self.n_phi), complex)
        for m, n, tau, pi_ in legendre_theta_orders(l_max, self.theta_nodes):
            ls = np.arange(max(abs(m), 1), l_max + 1)
            slots = mode_slot(ls, m)
            for rows, profile in zip(profiles, (n, *_transverse(ls[:, None], tau, pi_))):
                rows[slots] = profile
            phases[slots] = np.exp(1j * m * self.phi_nodes)
        table = tuple((profile[:, :, None] * phases[:, None, :]).reshape(n_modes, self.n_nodes)
                      for profile in profiles)
        for rows in table:  # every grid at every radius shares these rows
            rows.flags.writeable = False
        self._basis_cache["table"] = table
        return table

    def mode_basis(self, mode: ModeIndex):
        """Per-node arrays (Y, X_theta, X_phi, Z_theta, Z_phi) for one mode."""
        slot = mode_slot(mode.l, mode.m)
        y, x_theta, x_phi = (rows[slot] for rows in self.basis_table(mode.l))
        return y, x_theta, x_phi, -x_phi, x_theta

    def projection_kernel(self, mode: ModeIndex):
        """Table rows (Y, X_theta, X_phi) of one mode, the rows a projection
        dots with the weighted sample columns."""
        slot = mode_slot(mode.l, mode.m)
        return tuple(rows[slot] for rows in self.basis_table(mode.l))


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
    x, w = np.polynomial.legendre.leggauss(n_theta)
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


def _dot(rows, column):
    """Sum_i conj(rows[..., i]) column[i]: per row, the in-order sum of one
    dot product per DOT_BLOCK nodes. column must be a fresh contiguous array
    (a strided operand would take another summation path and give other
    bits); np.vecdot conjugates its first operand, so the rows go first."""
    if len(column) <= DOT_BLOCK:  # the one-block case, without the slicing cost
        return np.vecdot(rows, column)
    total = np.vecdot(rows[..., :DOT_BLOCK], column[:DOT_BLOCK])
    for lo in range(DOT_BLOCK, len(column), DOT_BLOCK):
        total = total + np.vecdot(rows[..., lo:lo + DOT_BLOCK], column[lo:lo + DOT_BLOCK])
    return total


def _project(samples: FieldSamples, kind: str, l: int, kernel):
    """Quadrature sum of conj(V) . w F for the kernel rows (Y, X_theta, X_phi):
    one mode, or a stack of modes up to degree l. project and project_all
    both reduce here, each row against only the columns the kind reads, each
    column weighted into a fresh contiguous array."""
    if kind not in PROJECTION_KINDS:
        raise ValueError(f"kind must be one of {PROJECTION_KINDS}, got {kind!r}")
    if l > samples.grid.l_max:
        warnings.warn(
            f"projection of degree l={l} on a grid declared exact only to "
            f"l_max={samples.grid.l_max}; the quadrature may alias",
            GridResolutionWarning, stacklevel=3)
    y, x_theta, x_phi = kernel
    values, w = samples.values, samples.grid.weights
    if kind == "Yr":
        return _dot(y, w * values[:, 0])
    f_theta, f_phi = w * values[:, 1], w * values[:, 2]
    if kind == "X":
        return _dot(x_theta, f_theta) + _dot(x_phi, f_phi)
    return _dot(x_theta, f_phi) - _dot(x_phi, f_theta)  # Z = (-X_phi, X_theta)


def project(samples: FieldSamples, kind: str, mode: ModeIndex) -> complex:
    """Quadrature approximation of integral conj(V_lm) . F dOmega.

    kind selects V: 'X', 'Z', or 'Yr' (= Y_lm r^). Only the components the
    chosen harmonic has are read: 'Yr' touches the radial column alone, 'X'
    and 'Z' the tangential columns alone. Warns (GridResolutionWarning) when
    the mode degree exceeds the grid's declared exactness.
    """
    return complex(_project(samples, kind, mode.l, samples.grid.projection_kernel(mode)))


def project_all(samples: FieldSamples, kind: str, l_max: int) -> np.ndarray:
    """project() for every mode with l <= l_max at once, in mode_slot order;
    each entry equals the single-mode result bit for bit."""
    n = mode_count(l_max)
    kernel = tuple(rows[:n] for rows in samples.grid.basis_table(l_max))
    return _project(samples, kind, l_max, kernel)
