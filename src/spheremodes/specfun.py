"""Scalar special functions: fully normalized associated Legendre functions,
spherical harmonics, and outgoing spherical Hankel functions.

Conventions (fixed for the whole package):
  * time dependence e^{-i omega t}, so h_l^(1) is the outgoing radial factor;
  * Condon-Shortley phase (-1)^m folded *into* the Legendre functions;
  * full normalization sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) folded into the
    recurrence itself, so degrees up to l ~ 64 never touch a factorial.

All functions are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

FOUR_PI = 4.0 * np.pi


@dataclass(frozen=True)
class ModeIndex:
    """One radiating multipole mode: degree l >= 1, order -l <= m <= l.

    l = 0 is excluded on purpose: the transverse harmonic of degree zero
    vanishes identically, so a degree-zero coefficient carries no field and
    can never be recovered from surface data.
    """

    l: int
    m: int

    def __post_init__(self):
        if self.l < 1:
            raise ValueError(f"mode degree must be >= 1, got l={self.l}")
        if abs(self.m) > self.l:
            raise ValueError(f"mode order must satisfy |m| <= l, got (l={self.l}, m={self.m})")


def _legendre_columns(l_max: int, x):
    """For m = 0, 1, 2, ...: q_lm(x) for l = m..l_max stacked along a new
    leading axis (no rows once m > l_max).

    q_lm(x) = (normalized P_l^m(x)) / (1-x^2)^{m/2} is finite at the poles:
    the sin^m(theta) factor is divided out symbolically so callers can
    reapply exactly the power they need (this is what keeps 1/sin(theta)
    terms of the vector harmonics pole-safe). The fully normalized
    recurrences run upward in order for the seed q_mm, then upward in degree.
    """
    q = np.full_like(x, 1.0 / np.sqrt(FOUR_PI))
    for m in itertools.count():
        if m:
            q = q * (-np.sqrt((2.0 * m + 1.0) / (2.0 * m)))
        out = np.empty((max(l_max - m + 1, 0),) + x.shape)
        out[:1] = q
        out[1:2] = np.sqrt(2.0 * m + 3.0) * x * q
        for ll in range(m + 2, l_max + 1):
            a = np.sqrt((2.0 * ll + 1.0) * (2.0 * ll - 1.0) / ((ll - m) * (ll + m)))
            b = np.sqrt((2.0 * ll + 1.0) * (ll - 1.0 - m) * (ll - 1.0 + m)
                        / ((2.0 * ll - 3.0) * (ll - m) * (ll + m)))
            out[ll - m] = a * x * out[ll - m - 1] - b * out[ll - m - 2]
        yield out


def _scaled_legendre(l: int, m: int, x):
    """q_lm(x) of one degree and order (see _legendre_columns)."""
    x = np.asarray(x, dtype=float)
    return next(itertools.islice(_legendre_columns(l, x), m, None))[-1]


def legendre_theta_orders(l_max: int, theta):
    """Angular building blocks of the vector harmonics, one order at a time.

    Yields (m, n, tau, pi) for m = 0, 1, -1, 2, -2, ..., l_max, -l_max. Each
    array stacks the degrees l = max(|m|, 1)..l_max along a new leading axis;
    the rest of its shape is theta's. Writing N_lm(theta) for the normalized
    Legendre function at cos(theta):

        n   = N_lm(theta)
        tau = d N_lm / d theta
        pi  = m N_lm / sin(theta)

    tau uses the order-raising/lowering identity and pi the divided-out
    sin^m factor, so both are exact at theta = 0 and pi (no 1/sin anywhere).
    Each order's degree recurrence runs once, so all orders cost O(l_max^2)
    vector steps. Negative orders follow from N_{l,-m} = (-1)^m N_lm.
    """
    theta = np.asarray(theta, dtype=float)
    x = np.cos(theta)
    s = np.sin(theta)
    columns = _legendre_columns(l_max, x)
    prev, cur = None, next(columns)
    for m, nxt in zip(range(l_max + 1), columns):
        lo = max(m, 1)
        ls = np.arange(lo, l_max + 1).reshape((-1,) + (1,) * x.ndim)
        q_m = cur[lo - m:]
        n = s**m * q_m
        pi_ = m * s ** (m - 1) * q_m if m >= 1 else np.zeros_like(n)
        # d/dtheta via neighbors in order: 2 tau = A n_{l,m+1} - B n_{l,m-1}
        n_up = np.zeros_like(n)
        n_up[m + 1 - lo:] = s ** (m + 1) * nxt
        n_dn = -s * nxt if m == 0 else s ** (m - 1) * prev[1:]
        a = np.sqrt((ls - m) * (ls + m + 1.0))
        b = np.sqrt((ls + m) * (ls - m + 1.0))
        tau = 0.5 * (a * n_up - b * n_dn)
        yield m, n, tau, pi_
        if m:
            sign = (-1) ** m
            yield -m, sign * n, sign * tau, -sign * pi_
        prev, cur = cur, nxt


def assoc_legendre_norm(l: int, m: int, x):
    """Fully normalized associated Legendre function N_lm P_l^m(x).

    N_lm = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!), Condon-Shortley phase included,
    so that sph_harmonic(l, m, theta, phi) = assoc_legendre_norm(l, m,
    cos(theta)) * exp(i m phi).

    Requires 0 <= m <= l and |x| <= 1.
    """
    if m < 0 or m > l:
        raise ValueError(f"order must satisfy 0 <= m <= l, got (l={l}, m={m})")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0):
        raise ValueError("argument must lie in [-1, 1]")
    s = np.sqrt(1.0 - x * x)
    out = s**m * _scaled_legendre(l, m, x)
    return out if out.ndim else float(out)


def sph_harmonic(l: int, m: int, theta, phi):
    """Spherical harmonic Y_lm(theta, phi) of degree l >= 0.

    Negative orders are built as Y_{l,-m} = (-1)^m conj(Y_{lm}), which this
    construction satisfies bit-exactly.
    """
    if l < 0 or abs(m) > l:
        raise ValueError(f"invalid spherical harmonic index (l={l}, m={m})")
    if m < 0:
        return (-1) ** (-m) * np.conj(sph_harmonic(l, -m, theta, phi))
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ntheta = np.sin(theta) ** m * _scaled_legendre(l, m, np.cos(theta))
    out = ntheta * np.exp(1j * m * phi)
    return out if out.ndim else complex(out)


def legendre_theta_kernel(l: int, m: int, theta):
    """(n, tau, pi) of one mode (l, m), m of any sign: the degree-l row of
    order m from legendre_theta_orders."""
    if l < 1 or abs(m) > l:
        raise ValueError(f"invalid mode (l={l}, m={m})")
    for order, n, tau, pi_ in legendre_theta_orders(l, theta):
        if order == m:
            return n[-1], tau[-1], pi_[-1]


def sph_hankel1(l: int, x):
    """Spherical Hankel function of the first kind, h_l^(1)(x) = j_l + i y_l.

    Upward recurrence from the closed-form l = 0, 1 seeds; stable because the
    y_l part dominates h^(1) wherever the recurrence grows. x must be > 0.
    """
    if l < 0:
        raise ValueError(f"degree must be >= 0, got l={l}")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("argument must be > 0 (lossless exterior, kr > 0)")
    out = _hankel1_upto(l, x)[l]
    return out if out.ndim else complex(out)


def _hankel1_upto(l_max: int, x):
    """h_0^(1)(x) .. h_{l_max}^(1)(x) as a stacked array over the leading axis."""
    x = np.asarray(x, dtype=float)
    ex = np.exp(1j * x)
    h = np.empty((l_max + 1,) + x.shape, dtype=complex)
    h[0] = -1j * ex / x
    if l_max >= 1:
        h[1] = -ex * (1.0 + 1j / x) / x
    for ll in range(1, l_max):
        h[ll + 1] = (2.0 * ll + 1.0) / x * h[ll] - h[ll - 1]
    return h


def radial_factors(l_max: int, x):
    """(h_l(x), D_l(x) = d/dx [x h_l(x)]) for l = 1..l_max, each stacked along
    a new leading axis indexed by l - 1; D_l = x h_{l-1}(x) - l h_l(x)."""
    x = np.asarray(x, dtype=float)
    h = _hankel1_upto(l_max, x)
    ls = np.arange(1, l_max + 1).reshape((-1,) + (1,) * x.ndim)
    return h[1:], x * h[:-1] - ls * h[1:]


def riccati_h1_deriv(l: int, x):
    """D_l(x) = d/dx [x h_l^(1)(x)] for l >= 1.

    This is the dimensionless radial derivative; a caller differentiating in
    r multiplies by the wavenumber k.
    """
    if l < 1:
        raise ValueError(f"degree must be >= 1, got l={l}")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("argument must be > 0")
    out = radial_factors(l, x)[1][l - 1]
    return out if out.ndim else complex(out)
