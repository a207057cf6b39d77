"""High-precision reference implementations used to pin expected test values.

Everything here is deliberately independent of the code under test: Legendre
functions come from the Rodrigues formula with exact rational polynomial
coefficients, Bessel/Hankel values from mpmath's arbitrary-precision series.
The exception is the order-at-a-time float recurrence at the end of the file
(_legendre_columns, legendre_theta_orders): it is the construction the
package's all-orders Legendre table replaced, kept as the bit-for-bit
reference for that table.
"""

import itertools
from fractions import Fraction

import mpmath as mp
import numpy as np

FOUR_PI = 4.0 * np.pi

mp.mp.dps = 60


def _legendre_poly_coeffs(l):
    """Exact rational coefficients of P_l(x) = (1/2^l l!) d^l/dx^l (x^2-1)^l.

    Returns a dict degree -> Fraction.
    """
    # (x^2 - 1)^l expanded exactly
    coeffs = {}
    for k in range(l + 1):
        c = Fraction(mp.binomial(l, k).__int__() if False else _binom(l, k))
        coeffs[2 * k] = c * (-1) ** (l - k)
    # differentiate l times
    for _ in range(l):
        coeffs = {d - 1: c * d for d, c in coeffs.items() if d >= 1}
    scale = Fraction(1, 2**l * _factorial(l))
    return {d: c * scale for d, c in coeffs.items()}


def _binom(n, k):
    return _factorial(n) // (_factorial(k) * _factorial(n - k))


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def _poly_derivative(coeffs):
    return {d - 1: c * d for d, c in coeffs.items() if d >= 1}


def _poly_eval(coeffs, x):
    return mp.fsum(mp.mpf(c.numerator) / mp.mpf(c.denominator) * x**d
                   for d, c in coeffs.items())


def assoc_legendre_plain(l, m, x):
    """P_l^m(x) with the Condon-Shortley phase, m >= 0, by Rodrigues' formula."""
    x = mp.mpf(x)
    base = _legendre_poly_coeffs(l)
    for _ in range(m):
        base = _poly_derivative(base)
    return (-1) ** m * (1 - x**2) ** (mp.mpf(m) / 2) * _poly_eval(base, x)


def norm_factor(l, m):
    """sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) for m >= 0."""
    return mp.sqrt(mp.mpf(2 * l + 1) / (4 * mp.pi)
                   * mp.mpf(_factorial(l - m)) / mp.mpf(_factorial(l + m)))


def assoc_legendre_norm(l, m, x):
    """Fully normalized associated Legendre value, m >= 0."""
    return norm_factor(l, m) * assoc_legendre_plain(l, m, x)


def assoc_legendre_norm_dtheta(l, m, theta):
    """d/dtheta of the fully normalized Legendre function at cos(theta), m >= 0.

    Uses exact differentiation of the Rodrigues product
    (1-x^2)^{m/2} Q(x): no finite differences anywhere.
    """
    theta = mp.mpf(theta)
    x = mp.cos(theta)
    s = mp.sin(theta)
    base = _legendre_poly_coeffs(l)
    for _ in range(m):
        base = _poly_derivative(base)
    q = _poly_eval(base, x)
    dq = _poly_eval(_poly_derivative(base), x)
    if m == 0:
        dp_dx = dq
    else:
        dp_dx = (1 - x**2) ** (mp.mpf(m) / 2 - 1) * (
            (1 - x**2) * dq - m * x * q)
    # d/dtheta = -sin(theta) d/dx, Condon-Shortley sign carried through
    return norm_factor(l, m) * (-1) ** m * (-s) * dp_dx


def sph_harm(l, m, theta, phi):
    """Y_lm via the Rodrigues-formula Legendre oracle; any sign of m."""
    if m < 0:
        return (-1) ** (-m) * mp.conj(sph_harm(l, -m, theta, phi))
    return assoc_legendre_norm(l, m, mp.cos(mp.mpf(theta))) * mp.exp(1j * m * mp.mpf(phi))


def sph_harm_dtheta(l, m, theta, phi):
    """d/dtheta of Y_lm; any sign of m."""
    if m < 0:
        return (-1) ** (-m) * mp.conj(sph_harm_dtheta(l, -m, theta, phi))
    return assoc_legendre_norm_dtheta(l, m, theta) * mp.exp(1j * m * mp.mpf(phi))


def vec_x(l, m, theta, phi):
    """(theta, phi) components of X_lm: (1/i)(-dY/dtheta phi^ + (1/sin) dY/dphi theta^)."""
    y = sph_harm(l, m, theta, phi)
    dy = sph_harm_dtheta(l, m, theta, phi)
    root = mp.sqrt(mp.mpf(l * (l + 1)))
    x_theta = m * y / (mp.sin(mp.mpf(theta)) * root)
    x_phi = 1j * dy / root
    return x_theta, x_phi


def vec_z(l, m, theta, phi):
    """Z_lm = r^ x X_lm: (Z_theta, Z_phi) = (-X_phi, X_theta)."""
    x_theta, x_phi = vec_x(l, m, theta, phi)
    return -x_phi, x_theta


def spherical_jn(l, x):
    x = mp.mpf(x)
    return mp.sqrt(mp.pi / (2 * x)) * mp.besselj(l + mp.mpf("0.5"), x)


def spherical_yn(l, x):
    x = mp.mpf(x)
    return mp.sqrt(mp.pi / (2 * x)) * mp.bessely(l + mp.mpf("0.5"), x)


def sph_hankel1(l, x):
    return spherical_jn(l, x) + 1j * spherical_yn(l, x)


def riccati_h1_deriv(l, x, step=mp.mpf("1e-25")):
    """d/dx [x h_l^(1)(x)] by high-order central differences at high precision."""
    x = mp.mpf(x)
    f = lambda t: t * sph_hankel1(l, t)
    return (f(x + step) - f(x - step)) / (2 * step)


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
