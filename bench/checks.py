"""Correctness checks made apart from the program.

Every reference here is computed by the benchmark itself: its own product
Gauss-Legendre quadrature, its own closed forms for radiated power, its own
CSV parser, and scipy.special for the radial field values. A check raises
CheckFailed with the measured error and the tolerance when it rejects an output.

Conventions match the package README: e^{-i omega t} (h_l^(1) outgoing) and
fully normalized spherical harmonics with the Condon-Shortley phase, which is
scipy.special.sph_harm_y's convention.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)
# (a): a route's relative coefficient error may reach this many eps times the
# spread of its divisors |h_l| (radial) or max(|h_l|, |D_l|) (tangential) over l.
COEFF_TOL_FACTOR = 1e4
POWER_RTOL = 1e-11    # (b), (c): exact quadratures, so only roundoff remains
NODE_RTOL = 1e-10     # (d): scipy's Bessel functions are good to ~1e-15 here
GRID_RTOL = 1e-13     # (e): node coordinates in the CSV against the benchmark's grid

FIELD_COLUMNS = ("E_r", "E_theta", "E_phi", "H_r", "H_theta", "H_phi")


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's reference."""


def modes(l_max: int):
    """(l, m) in the package's storage order: l ascending, then m ascending."""
    return [(l, m) for l in range(1, l_max + 1) for m in range(-l, l + 1)]


def sphere_quadrature(n_theta: int, n_phi: int):
    """Gauss-Legendre in cos(theta) times uniform phi, flattened theta-major,
    phi-minor with theta ascending: (theta, phi, weights)."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x[::-1])
    phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    weights = np.repeat(w[::-1] * (2.0 * np.pi / n_phi), n_phi)
    return np.repeat(theta, n_phi), np.tile(phi, n_theta), weights


def _hankel1(l_max: int, x: float) -> np.ndarray:
    """h_0^(1)(x) .. h_{l_max}^(1)(x) from the closed forms and upward recurrence."""
    h = np.empty(l_max + 1, complex)
    h[0] = -1j * np.exp(1j * x) / x
    h[1] = -np.exp(1j * x) * (x + 1j) / (x * x)
    for l in range(1, l_max):
        h[l + 1] = (2 * l + 1) / x * h[l] - h[l - 1]
    return h


def route_amplification(l_max: int, x0: float) -> dict:
    """Largest over smallest divisor magnitude per route family at x0 = k r0."""
    h = _hankel1(l_max, x0)
    ls = np.arange(1, l_max + 1)
    d = x0 * h[ls - 1] - ls * h[ls]
    radial = np.abs(h[1:])
    tangential = np.maximum(np.abs(h[1:]), np.abs(d))
    return {"radial": float(radial.max() / radial.min()),
            "tangential": float(tangential.max() / tangential.min())}


def check_coefficients(label, got_ae, got_am, want_ae, want_am, amplification) -> float:
    """(a) Recovered coefficients against the seeded reference, relative to the
    largest reference magnitude."""
    got = np.concatenate([np.asarray(got_ae), np.asarray(got_am)])
    want = np.concatenate([np.asarray(want_ae), np.asarray(want_am)])
    tol = COEFF_TOL_FACTOR * EPS * amplification
    err = float(np.abs(got - want).max() / np.abs(want).max())
    if not err <= tol:
        raise CheckFailed(f"{label}: coefficient error {err:.3e} exceeds {tol:.3e}")
    return err


def closed_form_power(a_e, a_m, k: float, z0: float) -> float:
    """Radiated power Z0/(2 k^2) sum(|a_E|^2 + |a_M|^2)."""
    return z0 / (2.0 * k * k) * float(np.sum(np.abs(a_e) ** 2 + np.abs(a_m) ** 2))


def flux_power(e_values, h_values, weights, r: float) -> float:
    """Quadrature of (1/2) Re(E x conj(H)) . r^ over the sphere of radius r."""
    flux = 0.5 * np.real(e_values[:, 1] * np.conj(h_values[:, 2])
                         - e_values[:, 2] * np.conj(h_values[:, 1]))
    return float(np.sum(weights * flux)) * r * r


def pattern_energy(e_theta, e_phi, weights) -> float:
    """Quadrature of |E_pattern|^2 over the unit sphere."""
    return float(np.sum(weights * (np.abs(e_theta) ** 2 + np.abs(e_phi) ** 2)))


def check_close(label, got: float, want: float, rtol: float = POWER_RTOL) -> float:
    """(b), (c) A scalar against its reference, relative."""
    err = abs(got - want) / abs(want)
    if not err <= rtol:
        raise CheckFailed(f"{label}: {got!r} vs reference {want!r}, "
                          f"relative error {err:.3e} exceeds {rtol:.1e}")
    return err


def radial_fields(l_max, a_e, a_m, k, z0, r, theta, phi):
    """(d) E_r and H_r at the given nodes, from scipy.special.

    E_r = Z0 sum a_E sqrt(l(l+1))/x h_l Y_lm and H_r = -sum a_M sqrt(l(l+1))/x h_l Y_lm
    with x = k r and h_l = j_l + i y_l.
    """
    from scipy import special

    x = k * r
    e_r = np.zeros(len(theta), complex)
    h_r = np.zeros(len(theta), complex)
    for slot, (l, m) in enumerate(modes(l_max)):
        hank = special.spherical_jn(l, x) + 1j * special.spherical_yn(l, x)
        radial = np.sqrt(l * (l + 1.0)) / x * hank * special.sph_harm_y(l, m, theta, phi)
        e_r += z0 * a_e[slot] * radial
        h_r -= a_m[slot] * radial
    return e_r, h_r


def check_radial_nodes(label, got_e_r, got_h_r, ref_e_r, ref_h_r) -> float:
    """(d) Synthesized E_r and H_r at a few nodes against the scipy evaluation."""
    worst = 0.0
    for name, got, ref in (("E_r", got_e_r, ref_e_r), ("H_r", got_h_r, ref_h_r)):
        err = float(np.abs(np.asarray(got) - ref).max() / np.abs(ref).max())
        if not err <= NODE_RTOL:
            raise CheckFailed(f"{label}: {name} differs from the scipy evaluation by "
                              f"{err:.3e} relative (limit {NODE_RTOL:.1e})")
        worst = max(worst, err)
    return worst


def parse_field_csv(path):
    """The benchmark's own reader of a field CSV: {column: float array}, empty
    columns left out."""
    header = None
    cells = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            else:
                cells.append(line.split(","))
    if header is None:
        raise CheckFailed(f"{path}: no header row")
    columns = {}
    for j, name in enumerate(header):
        col = [row[j] for row in cells]
        if all(c != "" for c in col):
            columns[name] = np.array([float(c) for c in col])
    return columns


def check_field_csv(label, columns, e_values, h_values, theta, phi, weights) -> None:
    """(e) CSV samples equal the in-memory samples bit for bit; node columns
    match the benchmark's grid."""
    for name, ref in (("theta_rad", theta), ("phi_rad", phi), ("weight_sr", weights)):
        got = columns.get(name)
        if got is None or not np.allclose(got, ref, rtol=GRID_RTOL, atol=GRID_RTOL):
            raise CheckFailed(f"{label}: column {name} does not match the grid")
    for name in FIELD_COLUMNS:
        values = (e_values if name[0] == "E" else h_values)[:, ("r", "theta", "phi").index(
            name[2:])]
        for part, ref in (("re", values.real), ("im", values.imag)):
            got = columns.get(f"{part}_{name}")
            ref = np.ascontiguousarray(ref)
            if got is None or got.shape != ref.shape or not np.array_equal(
                    got.view(np.uint64), ref.view(np.uint64)):
                raise CheckFailed(f"{label}: column {part}_{name} read back differs from "
                                  f"the in-memory samples")


def check_exit_codes(label, codes) -> None:
    """(e) Every CLI call succeeded."""
    if any(code != 0 for code in codes):
        raise CheckFailed(f"{label}: CLI exit codes {list(codes)}, expected all 0")
