"""Sphere grid, vector harmonics, and projection integrals."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremodes import CoefficientSet, Medium, radiated_power, synthesize
from spheremodes.harmonics import (PROJECTION_KINDS, FieldSamples, GridResolutionWarning,
                                   fixed_order_sum, make_grid, mode_count, project,
                                   project_all, vec_X, vec_Z)
from spheremodes.specfun import ModeIndex, sph_harmonic

FOUR_PI = 4.0 * np.pi
ROOT = Path(__file__).resolve().parents[1]


def mode_samples(grid, family, mode):
    """FieldSamples holding exactly one harmonic of one family."""
    y, xt, xp, zt, zp = grid.mode_basis(mode)
    zeros = np.zeros(grid.n_nodes)
    if family == "X":
        values = np.column_stack([zeros, xt, xp])
    elif family == "Z":
        values = np.column_stack([zeros, zt, zp])
    else:
        values = np.column_stack([y, zeros, zeros])
    return FieldSamples(grid, "E", values)


class TestMakeGrid:
    def test_two_point_gauss_nodes(self):
        grid = make_grid(1, 1.0)
        assert grid.n_theta == 2
        assert np.allclose(np.sort(np.cos(grid.theta_nodes)),
                           [-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)], atol=1e-15)
        assert abs(grid.weights.sum() - FOUR_PI) <= 1e-13 * FOUR_PI

    def test_weights_sum_to_sphere(self):
        grid = make_grid(8, 0.25)
        assert abs(grid.weights.sum() - FOUR_PI) <= 1e-13 * FOUR_PI

    def test_y44_norm_on_grid(self):
        grid = make_grid(4, 1.0)
        got = project(mode_samples(grid, "Yr", ModeIndex(4, 4)), "Yr", ModeIndex(4, 4))
        assert abs(got - 1.0) <= 1e-13

    def test_no_polar_nodes(self):
        for l_max in (1, 5, 16):
            grid = make_grid(l_max, 1.0)
            assert grid.theta_nodes.min() > 0.0
            assert grid.theta_nodes.max() < np.pi
            assert np.sin(grid.theta).min() > 0.0

    def test_node_ordering_theta_major(self):
        grid = make_grid(2, 1.0)
        assert np.all(np.diff(grid.theta) >= 0.0)
        assert np.allclose(grid.phi[:grid.n_phi], grid.phi_nodes)

    def test_gauss_legendre_rule_cached_read_only(self):
        from spheremodes.harmonics import _gauss_legendre
        a, b = make_grid(6, 1.0), make_grid(6, 2.0)
        for name in ("theta_nodes", "theta", "weights"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        x, w = _gauss_legendre(7)
        assert _gauss_legendre(7)[0] is x
        want_x, want_w = np.polynomial.legendre.leggauss(7)
        assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()
        for arr in (x, w):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_default_counts(self):
        grid = make_grid(6, 1.0)
        assert grid.n_theta == 7 and grid.n_phi == 14

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_grid(0, 1.0)
        with pytest.raises(ValueError):
            make_grid(3, 0.0)
        with pytest.raises(ValueError):
            make_grid(3, -2.0)
        with pytest.raises(ValueError):
            make_grid(3, 1.0, n_theta=3)
        with pytest.raises(ValueError):
            make_grid(3, 1.0, n_phi=6)

    @pytest.mark.parametrize("r0", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_radius(self, r0):
        with pytest.raises(ValueError, match="radius must be finite"):
            make_grid(3, r0)
        with pytest.raises(ValueError, match="radius must be finite"):
            make_grid(3, 1.0).with_radius(r0)

    def test_with_radius_shares_angles(self):
        grid = make_grid(3, 1.0)
        other = grid.with_radius(2.5)
        assert other.r0 == 2.5
        assert other.theta is grid.theta and other.weights is grid.weights


class TestVectorHarmonics:
    def test_x_dipole_value(self):
        got = vec_X(ModeIndex(1, 0), np.pi / 2, 0.0)
        assert got.v_theta == pytest.approx(0.0, abs=1e-15)
        assert got.v_phi == pytest.approx(-0.34549414947133544j, abs=1e-15)

    def test_z_dipole_value(self):
        got = vec_Z(ModeIndex(1, 0), np.pi / 2, 0.0)
        assert got.v_theta == pytest.approx(0.34549414947133544j, abs=1e-15)
        assert got.v_phi == pytest.approx(0.0, abs=1e-15)

    def test_x_11_symbolic_oracle(self):
        # frozen from the exact-derivative Rodrigues oracle
        got = vec_X(ModeIndex(1, 1), np.pi / 3, 0.7)
        assert abs(got.v_theta - (-0.18685190695826229 - 0.15738319009831273j)) <= 1e-12
        assert abs(got.v_phi - (0.07869159504915637 - 0.09342595347913114j)) <= 1e-12

    def test_z_6_minus3_symbolic_oracle(self):
        got = vec_Z(ModeIndex(6, -3), 1.1, 2.2)
        assert abs(got.v_theta - (0.08617135178531645 + 0.26283131728033011j)) <= 1e-12
        assert abs(got.v_phi - (0.07605338890791343 - 0.02493471249112731j)) <= 1e-12

    def test_transverse_by_type(self):
        got = vec_X(ModeIndex(4, 2), 0.8, 1.9)
        assert set(got.__dataclass_fields__) == {"v_theta", "v_phi"}

    @given(l=st.integers(1, 10), theta=st.floats(0.05, 3.09), phi=st.floats(0.0, 6.28))
    @settings(max_examples=60, deadline=None)
    def test_z_is_rhat_cross_x(self, l, theta, phi):
        for m in (-l, 0, l, l // 2):
            x = vec_X(ModeIndex(l, m), theta, phi)
            z = vec_Z(ModeIndex(l, m), theta, phi)
            assert z.v_theta == -x.v_phi
            assert z.v_phi == x.v_theta

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            vec_X(ModeIndex(0, 0), 1.0, 1.0)


class TestProject:
    def test_self_projection_is_one(self):
        grid = make_grid(6, 1.0)
        mode = ModeIndex(5, -2)
        for family in ("X", "Z", "Yr"):
            got = project(mode_samples(grid, family, mode), family, mode)
            assert abs(got - 1.0) <= 1e-12

    def test_cross_family_is_zero(self):
        grid = make_grid(6, 1.0)
        a, b = ModeIndex(3, 1), ModeIndex(3, 1)
        assert abs(project(mode_samples(grid, "X", a), "Z", b)) <= 1e-12
        assert abs(project(mode_samples(grid, "Yr", a), "X", b)) <= 1e-12
        assert abs(project(mode_samples(grid, "Z", a), "Yr", b)) <= 1e-12

    @given(ar=st.floats(-2, 2), ai=st.floats(-2, 2), br=st.floats(-2, 2), bi=st.floats(-2, 2))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, ar, ai, br, bi):
        grid = make_grid(4, 1.0)
        a = complex(ar, ai)
        b = complex(br, bi)
        f = mode_samples(grid, "X", ModeIndex(2, 1))
        g = mode_samples(grid, "Z", ModeIndex(4, -3))
        combo = FieldSamples(grid, "E", a * f.values + b * g.values)
        mode = ModeIndex(2, 1)
        lhs = project(combo, "X", mode)
        rhs = a * project(f, "X", mode) + b * project(g, "X", mode)
        assert lhs == pytest.approx(rhs, abs=1e-13 * (1 + abs(a) + abs(b)))

    def test_warns_when_grid_too_coarse(self):
        grid = make_grid(2, 1.0)
        samples = mode_samples(grid, "X", ModeIndex(2, 0))
        with pytest.warns(GridResolutionWarning):
            project(samples, "X", ModeIndex(7, 0))

    def test_rejects_unknown_kind(self):
        grid = make_grid(2, 1.0)
        samples = mode_samples(grid, "X", ModeIndex(1, 0))
        with pytest.raises(ValueError):
            project(samples, "Q", ModeIndex(1, 0))

    def test_repeat_call_bit_identical(self):
        grid = make_grid(5, 1.0)
        rng = np.random.default_rng(7)
        values = rng.normal(size=(grid.n_nodes, 3)) + 1j * rng.normal(size=(grid.n_nodes, 3))
        samples = FieldSamples(grid, "E", values)
        mode = ModeIndex(4, 2)
        assert project(samples, "Z", mode) == project(samples, "Z", mode)


class TestFixedOrderSum:
    def test_matches_exact_sum(self):
        # error measured against the sum of magnitudes, the scale that bounds
        # any summation order's roundoff (random signs cancel in the sum itself)
        rng = np.random.default_rng(3)
        for n in (1, 63, 64, 65, 200, 1024, 1000):
            arr = rng.normal(size=n) + 1j * rng.normal(size=n)
            got = fixed_order_sum(arr)
            for part, value in ((arr.real, got.real), (arr.imag, got.imag)):
                exact = math.fsum(part.tolist())
                assert abs(value - exact) <= 1e-15 * np.abs(part).sum()

    def test_rejects_two_dimensional(self):
        with pytest.raises(ValueError, match="1-d"):
            fixed_order_sum(np.ones((4, 2)))

    def test_empty(self):
        assert fixed_order_sum(np.zeros(0, complex)) == 0


class TestFieldSamples:
    def test_rejects_wrong_shape(self):
        grid = make_grid(2, 1.0)
        with pytest.raises(ValueError):
            FieldSamples(grid, "E", np.zeros((grid.n_nodes, 2), complex))

    def test_rejects_non_finite(self):
        grid = make_grid(2, 1.0)
        values = np.zeros((grid.n_nodes, 3), complex)
        values[0, 1] = np.nan
        with pytest.raises(ValueError):
            FieldSamples(grid, "E", values)

    def test_rejects_unknown_kind(self):
        grid = make_grid(2, 1.0)
        with pytest.raises(ValueError):
            FieldSamples(grid, "B", np.zeros((grid.n_nodes, 3), complex))

    def test_values_read_only(self):
        grid = make_grid(2, 1.0)
        samples = FieldSamples(grid, "E", np.zeros((grid.n_nodes, 3), complex))
        with pytest.raises(ValueError):
            samples.values[0, 0] = 1.0

    def test_component_views(self):
        grid = make_grid(2, 1.0)
        values = np.arange(grid.n_nodes * 3, dtype=complex).reshape(grid.n_nodes, 3)
        samples = FieldSamples(grid, "H", values)
        assert np.array_equal(samples.radial, values[:, 0])
        assert np.array_equal(samples.theta, values[:, 1])
        assert np.array_equal(samples.phi, values[:, 2])


class TestBasisTable:
    """One basis of theta profiles and e^{i m phi} rows per angular grid,
    shared by project and project_all."""

    @staticmethod
    def _random_samples(grid, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(grid.n_nodes, 3)) + 1j * rng.normal(size=(grid.n_nodes, 3))
        return FieldSamples(grid, "E", values)

    @pytest.mark.parametrize("l_max,n_theta,n_phi", [(7, None, None), (5, 11, 17), (2, 100, 120)])
    def test_project_all_matches_project_bit_for_bit(self, l_max, n_theta, n_phi):
        grid = make_grid(l_max, 1.0, n_theta=n_theta, n_phi=n_phi)
        samples = self._random_samples(grid, l_max)
        for kind in PROJECTION_KINDS:
            batched = project_all(samples, kind, l_max)
            single = [project(samples, kind, ModeIndex(l, m))
                      for l in range(1, l_max + 1) for m in range(-l, l + 1)]
            assert np.array_equal(batched, np.array(single))
            # against the integrand summed by numpy over the per-mode node rows
            rows = [grid.mode_basis(ModeIndex(l, m))
                    for l in range(1, l_max + 1) for m in range(-l, l + 1)]
            y, xt, xp = (np.conj(np.array([row[i] for row in rows])) * grid.weights
                         for i in range(3))
            f_r, f_theta, f_phi = samples.values.T
            integrand = {"Yr": y * f_r, "X": xt * f_theta + xp * f_phi,
                         "Z": xt * f_phi - xp * f_theta}[kind]
            assert np.allclose(batched, integrand.sum(axis=1), rtol=0.0, atol=1e-12)

    def test_project_all_matches_project_after_table_growth(self):
        grid = make_grid(6, 1.0)
        samples = self._random_samples(grid, 1)
        small = project_all(samples, "X", 2)
        assert grid._basis_cache["basis"][0].shape[0] == mode_count(2)
        for kind in PROJECTION_KINDS:
            batched = project_all(samples, kind, 6)
            single = [project(samples, kind, ModeIndex(l, m))
                      for l in range(1, 7) for m in range(-l, l + 1)]
            assert np.array_equal(batched, np.array(single))
        assert np.array_equal(project_all(samples, "X", 6)[:mode_count(2)], small)

    def test_bits_independent_of_sample_layout(self):
        grid = make_grid(6, 1.0)
        values = self._random_samples(grid, 4).values
        wide = np.zeros((grid.n_nodes, 7), complex)
        wide[:, 1::2] = values
        layouts = [values.copy(), np.asfortranarray(values), wide[:, 1::2]]
        assert not layouts[1].flags.c_contiguous
        assert not (layouts[2].flags.c_contiguous or layouts[2].flags.f_contiguous)
        mode = ModeIndex(5, -3)
        for kind in PROJECTION_KINDS:
            got = [FieldSamples(grid, "E", layout) for layout in layouts]
            batched = [project_all(samples, kind, 6) for samples in got]
            single = [project(samples, kind, mode) for samples in got]
            for other in batched[1:]:
                assert np.array_equal(other.view(np.uint64), batched[0].view(np.uint64))
            assert single[0] == single[1] == single[2]

    def test_leading_rows_of_a_grown_table(self):
        grid = make_grid(8, 1.0)
        samples = self._random_samples(grid, 2)
        grid.basis(8)
        for kind in PROJECTION_KINDS:
            full = project_all(samples, kind, 8)
            for l in (1, 2, 5, 7):
                assert np.array_equal(project_all(samples, kind, l), full[:mode_count(l)])

    def test_bits_independent_of_blas_threads(self):
        # 12 000 nodes: one dot product over all of them would be split across
        # OpenBLAS threads, and its bits would follow the thread count
        code = ("import numpy as np\n"
                "from spheremodes.harmonics import PROJECTION_KINDS, FieldSamples, make_grid, "
                "project_all\n"
                "grid = make_grid(2, 1.0, n_theta=100, n_phi=120)\n"
                "values = np.random.default_rng(5).normal(size=(grid.n_nodes, 6)).view(complex)\n"
                "samples = FieldSamples(grid, 'E', values)\n"
                "got = [project_all(samples, kind, 2) for kind in PROJECTION_KINDS]\n"
                "print(np.concatenate(got).view(np.uint64).tolist())\n")
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads)
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            runs.append(run.stdout)
        assert runs[0] == runs[1]

    def test_basis_memory_bound(self):
        # theta profiles and phase rows only, grown to the degree synthesized:
        # 16 (3 n_modes n_theta + n_orders n_phi) bytes, 3.4 MB at l_max 40
        for grid_l_max, l_max in ((24, 4), (40, 40)):
            grid = make_grid(grid_l_max, 0.7)
            synthesize(CoefficientSet.zeros(l_max, Medium(k=2.0)), 0.7, grid)
            profiles, phases = grid._basis_cache["basis"]
            n_modes, n_orders = mode_count(l_max), 2 * l_max + 1
            assert profiles.shape == (n_modes, 3, grid.n_theta)
            assert phases.shape == (n_orders, grid.n_phi)
            held = sum(rows.nbytes for entry in grid._basis_cache.values() for rows in entry)
            assert held == 16 * (3 * n_modes * grid.n_theta + n_orders * grid.n_phi)
        assert held < 3.5e6

    def test_other_radius_builds_nothing_new(self):
        grid = make_grid(5, 1.0)
        c = CoefficientSet.zeros(5, Medium(k=1.5))
        synthesize(c, 1.0, grid)
        built = [id(rows) for entry in grid._basis_cache.values() for rows in entry]
        e, _ = synthesize(c, 1.7, grid)
        radiated_power(c, 2.3, grid)
        for cache in (grid._basis_cache, e.grid._basis_cache):
            assert [id(rows) for entry in cache.values() for rows in entry] == built

    def test_mode_basis_rows_are_table_rows(self):
        grid = make_grid(4, 1.0)
        mode = ModeIndex(3, -2)
        y, xt, xp, zt, zp = grid.mode_basis(mode)
        kernel = grid.projection_kernel(mode)
        assert all(np.array_equal(got, want) for got, want in zip((y, xt, xp), kernel))
        assert np.array_equal(zt, -xp) and np.array_equal(zp, xt)
        assert np.allclose(sph_harmonic(3, -2, grid.theta, grid.phi), y, rtol=0.0, atol=1e-15)
        got = vec_X(mode, grid.theta, grid.phi)
        assert np.allclose(got.v_theta, xt, rtol=0.0, atol=1e-15)
        assert np.allclose(got.v_phi, xp, rtol=0.0, atol=1e-15)
