"""Scalar special functions: fully normalized associated Legendre functions,
spherical harmonics, and outgoing spherical Hankel functions.

Conventions (fixed for the whole package):
  * time dependence e^{-i omega t}, so h_l^(1) is the outgoing radial factor;
  * Condon-Shortley phase (-1)^m folded *into* the Legendre functions;
  * full normalization sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) folded into the
    recurrence itself, so degrees up to l ~ 64 never touch a factorial;
  * one Legendre table (_scaled_legendre_table) stepped by degree for all
    orders at once, read by every Legendre function here.

All functions are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

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


def _scaled_legendre_table(l_max: int, m_max: int, x):
    """q[l, m] = (normalized P_l^m(x)) / (1-x^2)^{m/2} for l <= l_max and
    m <= m_max, shaped (l_max + 1, m_max + 1) + x.shape, zero where m > l.

    Dividing out sin^m(theta) keeps q finite at the poles, so callers reapply
    exactly the power they need (no 1/sin(theta) anywhere). The sectoral seeds
    q_mm are one cumulative product; then one fully normalized three-term step
    per degree advances every order at once: O(l_max) Python-level steps.
    """
    x = np.asarray(x, dtype=float)
    q = np.zeros((l_max + 1, m_max + 1) + x.shape)
    k = np.arange(1.0, min(l_max, m_max) + 1.0)
    seeds = np.cumprod(np.r_[1.0 / np.sqrt(FOUR_PI), -np.sqrt((2.0 * k + 1.0) / (2.0 * k))])
    q[np.diag_indices(len(seeds))] = seeds.reshape((-1,) + (1,) * x.ndim)
    m = np.arange(m_max + 1.0).reshape((-1,) + (1,) * x.ndim)
    l = np.arange(l_max + 1.0).reshape((-1, 1) + (1,) * x.ndim)
    with np.errstate(divide="ignore", invalid="ignore"):  # entries m >= l - 1 go unused
        a = np.sqrt((2.0 * l + 1.0) * (2.0 * l - 1.0) / ((l - m) * (l + m)))
        b = np.sqrt((2.0 * l + 1.0) * (l - 1.0 - m) * (l - 1.0 + m)
                    / ((2.0 * l - 3.0) * (l - m) * (l + m)))
    for ll in range(1, l_max + 1):  # slices past m_max are empty
        q[ll, ll - 1:ll] = np.sqrt(2.0 * ll + 1.0) * x * q[ll - 1, ll - 1:ll]
        q[ll, :ll - 1] = (a[ll, :ll - 1] * x * q[ll - 1, :ll - 1]
                          - b[ll, :ll - 1] * q[ll - 2, :ll - 1])
    return q


def legendre_theta_modes(theta, l, m):
    """(n, tau, pi) = (N_lm, d N_lm / d theta, m N_lm / sin(theta)) of the vector
    harmonics for the modes (l[i], m[i]), l >= 1, m of either sign, shaped
    l.shape + theta.shape; N_lm(theta) is the normalized Legendre function at
    cos(theta). tau uses the order-raising/lowering identity and pi the
    divided-out sin^m factor, so both are exact at theta = 0 and pi. The sign
    rule N_{l,-m} = (-1)^m N_lm is applied here for the vector-harmonic
    profiles (theta_profiles, legendre_theta_kernel); sph_harmonic applies it
    separately, as Y_{l,-m} = (-1)^m conj(Y_lm).
    """
    theta, l, m = np.asarray(theta, dtype=float), np.asarray(l), np.asarray(m)
    mu, below = np.abs(m), np.abs(np.abs(m) - 1)  # order m - 1 at m = 0 is -1: n_{l,-1} = -n_{l,1}
    s, k = np.sin(theta), np.arange(mu.max() + 2)
    powers = np.stack([s**j for j in k.tolist()])  # int powers; s**k can differ by an ulp
    q = _scaled_legendre_table(l.max(), mu.max() + 1, np.cos(theta))
    grow = (...,) + (None,) * theta.ndim
    n_all = powers * q  # [l, m]: N_lm for m >= 0
    pi_all = (k[grow] * powers[abs(k - 1)]) * q
    pi_all[:, 0] = 0.0  # +0.0, where 0 * q would leave -0.0
    # d/dtheta via neighbors in order: 2 tau = A n_{l,m+1} - B n_{l,m-1}
    a = np.sqrt((l - mu) * (l + mu + 1.0))[grow]
    b = np.sqrt((l + mu) * (l - mu + 1.0))[grow]
    n_dn = np.where(m == 0, -1.0, 1.0)[grow] * n_all[l, below]
    tau = 0.5 * (a * n_all[l, mu + 1] - b * n_dn)
    sign = np.where((m < 0) & (mu % 2 == 1), -1.0, 1.0)[grow]
    return sign * n_all[l, mu], sign * tau, (sign * np.sign(m)[grow]) * pi_all[l, mu]


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
    out = s**m * _scaled_legendre_table(l, m, x)[l, m]
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
    ntheta = np.sin(theta) ** m * _scaled_legendre_table(l, m, np.cos(theta))[l, m]
    out = ntheta * np.exp(1j * m * phi)
    return out if out.ndim else complex(out)


def legendre_theta_kernel(l: int, m: int, theta):
    """(n, tau, pi) of one mode (l, m), m of any sign (see legendre_theta_modes)."""
    if l < 1 or abs(m) > l:
        raise ValueError(f"invalid mode (l={l}, m={m})")
    return tuple(part[0] for part in legendre_theta_modes(theta, np.array([l]), np.array([m])))


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
    if l_max < 1:
        raise ValueError(f"l_max must be >= 1, got {l_max}")
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
