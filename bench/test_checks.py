"""Each correctness check of the benchmark accepts the program's output and
rejects a slightly perturbed one.

    python3 -m pytest bench/test_checks.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import spheremodes as sm  # noqa: E402
from spheremodes import fileio  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

L_MAX = 4
R0 = 0.8
KR0 = 5.0


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(7)
    medium = sm.Medium(k=KR0 / R0)
    coeffs = workloads.random_coefficients(rng, L_MAX, medium)
    grid = sm.make_grid(L_MAX, R0)
    e, h = sm.synthesize(coeffs, R0, grid)
    return coeffs, e, h


def test_coefficients_reject_scaling(case):
    coeffs, e, h = case
    result = sm.equivalence_report(e, h, L_MAX)
    amp = checks.route_amplification(L_MAX, KR0)
    workloads.check_routes("test", result, coeffs, amp)
    got = result.tangential_e.coeffs
    with pytest.raises(checks.CheckFailed):
        checks.check_coefficients("test", got.a_e * (1 + 1e-6), got.a_m,
                                  coeffs.a_e, coeffs.a_m, amp["tangential"])


def test_flux_power_rejects_one_part_in_1e8(case):
    coeffs, e, h = case
    _, _, weights = checks.sphere_quadrature(L_MAX + 1, 2 * L_MAX + 2)
    want = checks.closed_form_power(coeffs.a_e, coeffs.a_m, coeffs.medium.k, coeffs.medium.z0)
    flux = checks.flux_power(e.values, h.values, weights, R0)
    checks.check_close("flux", flux, want)
    checks.check_close("radiated_power", sm.radiated_power(coeffs, 2.0 * R0, e.grid), want)
    with pytest.raises(checks.CheckFailed):
        checks.check_close("flux", flux * (1 + 1e-8), want)


def test_pattern_energy_rejects_perturbed_pattern(case):
    coeffs, _, _ = case
    theta, phi, weights = checks.sphere_quadrature(2 * (L_MAX + 1), 2 * (2 * L_MAX + 2))
    pattern = sm.far_field(coeffs, np.column_stack([theta, phi]))
    want = coeffs.medium.z0 ** 2 * float(np.sum(np.abs(coeffs.a_e) ** 2
                                                + np.abs(coeffs.a_m) ** 2))
    checks.check_close("pattern", checks.pattern_energy(pattern.e_theta, pattern.e_phi,
                                                        weights), want)
    e_theta = pattern.e_theta.copy()
    e_theta[len(e_theta) // 2] *= 1 + 1e-4
    with pytest.raises(checks.CheckFailed):
        checks.check_close("pattern", checks.pattern_energy(e_theta, pattern.e_phi, weights),
                           want)


def test_radial_nodes_reject_perturbed_node(case):
    coeffs, e, h = case
    theta, phi, _ = checks.sphere_quadrature(L_MAX + 1, 2 * L_MAX + 2)
    nodes = [0, 7, 20, len(theta) - 1]
    ref_e, ref_h = checks.radial_fields(L_MAX, coeffs.a_e, coeffs.a_m, coeffs.medium.k,
                                        coeffs.medium.z0, R0, theta[nodes], phi[nodes])
    got_e = e.values[nodes, 0]
    got_h = h.values[nodes, 0]
    checks.check_radial_nodes("nodes", got_e, got_h, ref_e, ref_h)
    bad = got_h.copy()
    bad[1] *= 1 + 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_radial_nodes("nodes", got_e, bad, ref_e, ref_h)


def test_field_csv_rejects_one_flipped_value(case, tmp_path):
    coeffs, e, h = case
    path = tmp_path / "field.csv"
    fileio.write_field_file(path, e, h, 3e8)
    theta, phi, weights = checks.sphere_quadrature(L_MAX + 1, 2 * L_MAX + 2)
    columns = checks.parse_field_csv(path)
    checks.check_field_csv("csv", columns, e.values, h.values, theta, phi, weights)
    flipped = columns["im_H_phi"].copy()
    flipped[3] = np.nextafter(flipped[3], np.inf)
    with pytest.raises(checks.CheckFailed):
        checks.check_field_csv("csv", {**columns, "im_H_phi": flipped}, e.values, h.values,
                               theta, phi, weights)
    with pytest.raises(checks.CheckFailed):
        checks.check_field_csv("csv", columns, e.values, h.values, theta, phi[::-1], weights)


def test_exit_codes_reject_nonzero():
    checks.check_exit_codes("cli", (0, 0))
    with pytest.raises(checks.CheckFailed):
        checks.check_exit_codes("cli", (0, 2))


def _scaled_set(coeffs):
    return sm.CoefficientSet(coeffs.l_max, coeffs.medium, coeffs.a_e * (1 + 1e-6), coeffs.a_m)


def _perturbed(name, outputs):
    """The outputs with one set of recovered coefficients scaled by 1 + 1e-6."""
    if name == "file-pipeline":
        return outputs[:-1] + (_scaled_set(outputs[-1]),)
    result = outputs[4] if name == "cold-spheres" else outputs[2]
    result.radial.coeffs = _scaled_set(result.radial.coeffs)
    return outputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_check_rejects_perturbed_output(name, tmp_path):
    """A workload's own checks pass on the real output of one operation and
    fail once it is perturbed."""
    workload = workloads.WORKLOADS[name](3, str(tmp_path / "work"))
    try:
        outputs = workload.operation(0)
        workload.check(0, outputs)
        workload.final_check()
        with pytest.raises(checks.CheckFailed):
            workload.check(0, _perturbed(name, outputs))
    finally:
        workload.close()
