"""Command-line interface: synthesize fields, extract coefficients by any of
the three routes, compare the routes, compute far-field patterns, and run the
half-wave dipole validation.

Exit codes: 0 success / within tolerance, 1 input error, 2 tolerance
exceeded. Data goes to the named output files or stdout; warnings and
diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import dipole as dipole_mod
from .extraction import (equivalence_report, extract_radial, extract_tangential_e,
                         extract_tangential_h)
from .fileio import (FIELD_COLUMNS, FormatError, read_coefficients, read_field_file,
                     write_coefficients, write_field_file, write_pattern_csv)
from .harmonics import make_grid, require_positive
from .multipole import SPEED_OF_LIGHT, far_field, mode_slot, modes_upto, synthesize

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_TOLERANCE = 2


class InputError(Exception):
    """User-facing input problem; maps to exit code 1."""


def _pattern_directions(n_theta: int, n_phi: int):
    """Inclusive theta in [0, pi], periodic phi in [0, 2 pi); computed so the
    same angles reappear bit-identically when the counts are refined."""
    if n_theta < 2 or n_phi < 1:
        raise InputError("need n-theta >= 2 and n-phi >= 1")
    theta = (np.arange(n_theta) * np.pi) / (n_theta - 1)
    phi = (np.arange(n_phi) * (2.0 * np.pi)) / n_phi
    return np.column_stack([np.repeat(theta, n_phi), np.tile(phi, n_theta)])


def _check_tolerance(tol: float) -> None:
    if not 0.0 <= tol < np.inf:
        raise InputError(f"--tol must be finite and >= 0, got {tol}")


def cmd_synth(args) -> int:
    coeffs, frequency = read_coefficients(args.coeff_file)
    require_positive("radius", args.radius)
    grid_l_max = args.grid_lmax if args.grid_lmax is not None else coeffs.l_max
    if grid_l_max < coeffs.l_max:
        raise InputError(
            f"grid exactness {grid_l_max} is below the coefficient l_max {coeffs.l_max}")
    grid = make_grid(grid_l_max, args.radius)
    e, h = synthesize(coeffs, args.radius, grid)
    write_field_file(args.out, e, h, frequency)
    return EXIT_OK


# --route name -> (extraction from parsed field data, field columns the route reads)
_ROUTES = {
    "radial": (lambda data, l_max: extract_radial(data.samples("E"), data.samples("H"), l_max),
               ("E_r", "H_r")),
    "tan-e": (lambda data, l_max: extract_tangential_e(data.samples("E"), l_max),
              ("E_theta", "E_phi")),
    "tan-h": (lambda data, l_max: extract_tangential_h(data.samples("H"), l_max),
              ("H_theta", "H_phi")),
}


def _checked_field_data(path, required, lmax):
    """The field file's data and truncation degree: --lmax, which must not
    exceed the file's grid_l_max (a higher degree aliases, and could ask for a
    basis far larger than the file), or grid_l_max itself."""
    data = read_field_file(path)
    missing = data.missing(required)
    if missing:
        raise InputError(
            f"{path}: required components absent: {', '.join(missing)} "
            f"(this route reads {', '.join(required)})")
    if lmax is not None and lmax > data.grid.l_max:
        raise InputError(f"--lmax {lmax} exceeds the field file's grid_l_max {data.grid.l_max}")
    return data, data.grid.l_max if lmax is None else lmax


def cmd_extract(args) -> int:
    extract, required = _ROUTES[args.route]
    data, l_max = _checked_field_data(args.field_file, required, args.lmax)
    coeffs = extract(data, l_max)
    write_coefficients(args.out, coeffs, data.frequency_hz)
    return EXIT_OK


def cmd_equiv(args) -> int:
    _check_tolerance(args.tol)
    data, l_max = _checked_field_data(args.field_file, FIELD_COLUMNS, args.lmax)
    result = equivalence_report(data.samples("E"), data.samples("H"), l_max)
    print("l m route aE_re aE_im aM_re aM_im")
    for mode in modes_upto(l_max):
        slot = mode_slot(mode.l, mode.m)
        for report in result.reports():
            ae, am = report.coeffs.a_e[slot], report.coeffs.a_m[slot]
            print(f"{mode.l} {mode.m} {report.route} "
                  f"{ae.real:.12e} {ae.imag:.12e} {am.real:.12e} {am.imag:.12e}")
    for pair, dev in sorted(result.pairwise_deviation.items()):
        print(f"deviation {pair[0]} vs {pair[1]}: {dev:.6e}")
    print(f"max pairwise deviation: {result.max_pairwise_deviation:.6e}")
    return EXIT_OK if result.max_pairwise_deviation <= args.tol else EXIT_TOLERANCE


def cmd_farfield(args) -> int:
    coeffs, _ = read_coefficients(args.coeff_file)
    directions = _pattern_directions(args.n_theta, args.n_phi)
    pattern = far_field(coeffs, directions)
    write_pattern_csv(args.out, directions[:, 0], directions[:, 1],
                      pattern.e_theta, pattern.e_phi, normalize=args.normalize)
    return EXIT_OK


def cmd_dipole(args) -> int:
    require_positive("current", args.current)
    require_positive("frequency", args.freq)
    _check_tolerance(args.tol)
    spec = dipole_mod.DipoleSpec(args.current, SPEED_OF_LIGHT / args.freq)
    paths = [f"{args.out_prefix}_{name}.csv" for name in
             ("radial_source", "farfield_direct", "farfield_from_radial", "farfield_dual")]
    report = dipole_mod.validate_dipole(spec, grid_l_max=args.grid_lmax, n_theta=args.n_theta)
    written = 0  # all four files or none: a failed write removes the ones before it
    try:
        write_field_file(paths[0], report.source, None, args.freq)
        for written, (path, pattern) in enumerate(
                zip(paths[1:], (report.direct, report.recovered, report.dual)), 1):
            write_pattern_csv(path, *pattern.directions.T, pattern.e_theta, pattern.e_phi,
                              normalize=True)
    except BaseException:
        for path in paths[:written]:
            os.remove(path)
        raise
    print(f"roundtrip_rms_deviation={report.rms_deviation:.6e}")
    print(f"e_phi_negligible={'true' if report.e_phi_negligible else 'false'}")
    print(f"dual_radial_h_mismatch={report.radial_h_mismatch:.6e}")
    print(f"dual_pattern_swap_mismatch={report.pattern_swap_mismatch:.6e}")
    print(f"e_phi_peak_direct={report.e_phi_peak_direct:.6e}")
    print(f"e_phi_peak_recovered={report.e_phi_peak_recovered:.6e}")
    print(f"dual_e_theta_peak={report.dual_e_theta_peak:.6e}")
    return EXIT_OK if report.rms_deviation <= args.tol else EXIT_TOLERANCE


@functools.cache  # one parser per process; parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spheremodes",
        description="Multipole fields on spheres: synthesis, three-route "
                    "coefficient extraction, far fields, dipole validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize (E, H) on a sphere from a coefficient file")
    p.add_argument("coeff_file")
    p.add_argument("--radius", type=float, required=True, help="sphere radius in meters")
    p.add_argument("--grid-lmax", type=int, default=None,
                   help="grid exactness degree (default: coefficient l_max)")
    p.add_argument("--out", required=True, help="output field CSV")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="recover coefficients from a field file")
    p.add_argument("field_file")
    p.add_argument("--route", choices=sorted(_ROUTES), required=True)
    p.add_argument("--lmax", type=int, default=None,
                   help="truncation degree, at most the file's grid l_max (the default)")
    p.add_argument("--out", required=True, help="output coefficient JSON")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("equiv", help="run all three routes and compare them")
    p.add_argument("field_file")
    p.add_argument("--lmax", type=int, default=None,
                   help="truncation degree, at most the file's grid l_max (the default)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="max allowed pairwise deviation (default 1e-8)")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("farfield", help="far-field pattern CSV from a coefficient file")
    p.add_argument("coeff_file")
    p.add_argument("--n-theta", type=int, default=181)
    p.add_argument("--n-phi", type=int, default=36)
    p.add_argument("--normalize", action="store_true", help="peak-normalize magnitudes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_farfield)

    p = sub.add_parser("dipole", help="half-wave dipole validation run")
    p.add_argument("--current", type=float, default=1.0, help="current amplitude (A)")
    p.add_argument("--freq", type=float, default=SPEED_OF_LIGHT, help="frequency (Hz)")
    p.add_argument("--grid-lmax", type=int, default=8)
    p.add_argument("--n-theta", type=int, default=181)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_dipole)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # an overflow here means an input out of range, e.g. h_l(k r) at a tiny radius
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (InputError, FormatError, OSError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
