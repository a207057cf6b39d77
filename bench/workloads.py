"""The benchmark's workloads. Each one draws its inputs from the seed when it is
built, runs one operation per call of operation(i), and checks every output
in check(i, outputs) apart from the timing. final_check() runs the scipy
comparison (d) once per run, after the timed loop.

The program is called through module attributes (sm.synthesize, cli.main, ...)
at call time, so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import os

import numpy as np

import spheremodes as sm
from spheremodes import cli, fileio

import checks

N_NODE_CHECKS = 4  # nodes per run compared with scipy in check (d)


def random_coefficients(rng, l_max: int, medium) -> "sm.CoefficientSet":
    """Magnitudes uniform in [0.5, 1.5], phases uniform, every mode present."""
    n = sm.mode_count(l_max)
    a = rng.uniform(0.5, 1.5, size=(2, n)) * np.exp(2j * np.pi * rng.random((2, n)))
    return sm.CoefficientSet(l_max, medium, a[0], a[1])


def check_routes(label, result, coeffs, amplification) -> None:
    """(a) for the three routes of one equivalence report."""
    for report in result.reports():
        family = "radial" if report.route == "radial" else "tangential"
        checks.check_coefficients(f"{label} {report.route}", report.coeffs.a_e,
                                  report.coeffs.a_m, coeffs.a_e, coeffs.a_m,
                                  amplification[family])


class _Workload:
    round_size = 1  # operations per round; a run attempts whole rounds

    def __init__(self, seed: int, l_max: int, n_theta: int, n_phi: int):
        self.rng = np.random.default_rng(seed)
        self.l_max = l_max
        self.theta, self.phi, self.weights = checks.sphere_quadrature(n_theta, n_phi)
        self.nodes = np.sort(self.rng.choice(len(self.theta), N_NODE_CHECKS, replace=False))
        self._first = None  # (coeffs, k, r, E_r, H_r at self.nodes) of the warm-up operation

    def _keep_first(self, coeffs, r, e_r, h_r):
        if self._first is None:
            self._first = (coeffs, coeffs.medium.k, r, e_r[self.nodes], h_r[self.nodes])

    def final_check(self) -> None:
        if self._first is None:
            raise checks.CheckFailed(f"{self.name}: no operation output to compare with scipy")
        coeffs, k, r, e_r, h_r = self._first
        ref_e, ref_h = checks.radial_fields(self.l_max, coeffs.a_e, coeffs.a_m, k,
                                            coeffs.medium.z0, r, self.theta[self.nodes],
                                            self.phi[self.nodes])
        checks.check_radial_nodes(f"{self.name} scipy nodes", e_r, h_r, ref_e, ref_h)

    def close(self) -> None:
        pass


class WarmStream(_Workload):
    """One fixed measurement sphere, a stream of coefficient sets; the basis
    cache is hot after the first operation."""

    name = "warm-stream"
    L_MAX = 16
    R0 = 1.0        # m
    KR0 = 20.0
    POOL = 128      # coefficient sets drawn in set-up, used in turn

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, self.L_MAX, self.L_MAX + 1, 2 * self.L_MAX + 2)
        medium = sm.Medium(k=self.KR0 / self.R0)
        self.grid = sm.make_grid(self.L_MAX, self.R0)
        self.coeffs = [random_coefficients(self.rng, self.L_MAX, medium)
                       for _ in range(self.POOL)]
        self.amplification = checks.route_amplification(self.L_MAX, self.KR0)

    def operation(self, i: int):
        e, h = sm.synthesize(self.coeffs[i % self.POOL], self.R0, self.grid)
        return e, h, sm.equivalence_report(e, h, self.L_MAX)

    def check(self, i: int, outputs) -> None:
        e, h, result = outputs
        c = self.coeffs[i % self.POOL]
        check_routes(self.name, result, c, self.amplification)
        checks.check_close(f"{self.name} flux quadrature",
                           checks.flux_power(e.values, h.values, self.weights, self.R0),
                           checks.closed_form_power(c.a_e, c.a_m, c.medium.k, c.medium.z0))
        self._keep_first(c, self.R0, e.values[:, 0], h.values[:, 0])


class ColdSpheres(_Workload):
    """A new sphere per operation: every basis is built from scratch, twice."""

    name = "cold-spheres"
    L_MAX = 12
    POOL = 64       # spheres drawn in set-up, used in turn; each operation builds its own grid

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, self.L_MAX, self.L_MAX + 1, 2 * self.L_MAX + 2)
        self.spheres = []
        for _ in range(self.POOL):
            r0 = self.rng.uniform(0.5, 2.0)
            kr0 = self.rng.uniform(self.L_MAX, 1.5 * self.L_MAX)
            r1 = r0 * self.rng.uniform(1.5, 3.0)
            coeffs = random_coefficients(self.rng, self.L_MAX, sm.Medium(k=kr0 / r0))
            self.spheres.append((r0, r1, coeffs, checks.route_amplification(self.L_MAX, kr0)))
        # Far-field directions: a product grid twice as fine as the sampling grid
        # in each angle, on which the |E_pattern|^2 quadrature (c) is exact.
        d_theta, d_phi, self.direction_weights = checks.sphere_quadrature(
            2 * (self.L_MAX + 1), 2 * (2 * self.L_MAX + 2))
        self.directions = np.column_stack([d_theta, d_phi])

    def operation(self, i: int):
        r0, r1, c, _ = self.spheres[i % self.POOL]
        grid = sm.make_grid(self.L_MAX, r0)
        e, h = sm.synthesize(c, r0, grid)
        p0 = sm.radiated_power(c, r0, grid)
        p1 = sm.radiated_power(c, r1, grid)
        result = sm.equivalence_report(e, h, self.L_MAX)
        pattern = sm.far_field(c, self.directions)
        return e, h, p0, p1, result, pattern

    def check(self, i: int, outputs) -> None:
        e, h, p0, p1, result, pattern = outputs
        r0, _, c, amplification = self.spheres[i % self.POOL]
        check_routes(self.name, result, c, amplification)
        want = checks.closed_form_power(c.a_e, c.a_m, c.medium.k, c.medium.z0)
        checks.check_close(f"{self.name} power at r0", p0, want)
        checks.check_close(f"{self.name} power at r1", p1, want)
        checks.check_close(f"{self.name} power r1 vs r0", p1, p0)
        checks.check_close(
            f"{self.name} far-field quadrature",
            checks.pattern_energy(pattern.e_theta, pattern.e_phi, self.direction_weights),
            c.medium.z0 ** 2 * float(np.sum(np.abs(c.a_e) ** 2 + np.abs(c.a_m) ** 2)))
        self._keep_first(c, r0, e.values[:, 0], h.values[:, 0])


class FilePipeline(_Workload):
    """CLI round trip in process: coefficient JSON -> synth -> field CSV ->
    extract (route rotating) -> coefficient JSON -> read back."""

    name = "file-pipeline"
    L_MAX = 4
    GRID_L_MAX = 24   # oversampled grid, as in a near-field measurement
    FREQ_HZ = 3e8
    POOL = 64
    ROUTES = ("radial", "tan-e", "tan-h")
    round_size = len(ROUTES)

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, self.L_MAX, self.GRID_L_MAX + 1, 2 * self.GRID_L_MAX + 2)
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.coeff_in = os.path.join(workdir, "coeffs.json")
        self.field_csv = os.path.join(workdir, "field.csv")
        self.coeff_out = os.path.join(workdir, "recovered.json")
        medium = sm.Medium.free_space(self.FREQ_HZ)
        self.inputs = []
        for _ in range(self.POOL):
            r0 = self.rng.uniform(0.5, 0.9)
            self.inputs.append((r0, random_coefficients(self.rng, self.L_MAX, medium),
                                checks.route_amplification(self.L_MAX, medium.k * r0)))

    def operation(self, i: int):
        r0, c, _ = self.inputs[i % self.POOL]
        fileio.write_coefficients(self.coeff_in, c, self.FREQ_HZ)
        synth = cli.main(["synth", self.coeff_in, "--radius", repr(r0),
                          "--grid-lmax", str(self.GRID_L_MAX), "--out", self.field_csv])
        extract = cli.main(["extract", self.field_csv, "--route", self.ROUTES[i % 3],
                            "--lmax", str(self.L_MAX), "--out", self.coeff_out])
        recovered, _ = fileio.read_coefficients(self.coeff_out)
        return synth, extract, recovered

    def check(self, i: int, outputs) -> None:
        synth, extract, recovered = outputs
        r0, c, amplification = self.inputs[i % self.POOL]
        route = self.ROUTES[i % 3]
        checks.check_exit_codes(f"{self.name} synth/extract", (synth, extract))
        columns = checks.parse_field_csv(self.field_csv)
        e, h = sm.synthesize(c, r0, sm.make_grid(self.GRID_L_MAX, r0))
        checks.check_field_csv(self.name, columns, e.values, h.values,
                               self.theta, self.phi, self.weights)
        checks.check_coefficients(f"{self.name} {route}", recovered.a_e, recovered.a_m,
                                  c.a_e, c.a_m,
                                  amplification["radial" if route == "radial" else "tangential"])
        self._keep_first(c, r0, columns["re_E_r"] + 1j * columns["im_E_r"],
                         columns["re_H_r"] + 1j * columns["im_H_r"])

    def close(self) -> None:
        for path in (self.coeff_in, self.field_csv, self.coeff_out):
            if os.path.exists(path):
                os.remove(path)
        os.rmdir(self.workdir)


WORKLOADS = {cls.name: cls for cls in (WarmStream, ColdSpheres, FilePipeline)}
