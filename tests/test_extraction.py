"""Coefficient recovery by the three routes: round trips, component
blindness, the radial negative control, radius independence, the noise law,
and the equivalence report."""

import time

import numpy as np
import pytest

from helpers import per_coefficient_error, random_coefficients
from spheremodes import (CoefficientSet, EquivalenceResult, FieldSamples, Medium,
                         coefficient_deviation, make_grid, synthesize)
from spheremodes.extraction import (equivalence_report, extract_radial, extract_tangential_e,
                                    extract_tangential_h, route_condition)
from spheremodes.specfun import radial_factors


@pytest.fixture
def medium():
    return Medium(k=np.pi / 2)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def synthesized(coeffs, r0=1.0, grid_l_max=None):
    grid = make_grid(grid_l_max or coeffs.l_max, r0)
    return synthesize(coeffs, r0, grid)


class TestRoundTrips:
    def test_radial_single_mode(self, medium):
        c = CoefficientSet.from_modes(3, medium, electric={(1, 0): 1.0})
        e, h = synthesized(c)
        got = extract_radial(e, h, 3)
        assert abs(got.electric(1, 0) - 1.0) <= 1e-10
        others = np.abs(got.a_e).sum() - abs(got.electric(1, 0)) + np.abs(got.a_m).sum()
        assert others <= 1e-10

    def test_tangential_e_single_modes(self, medium):
        c = CoefficientSet.from_modes(3, medium, electric={(1, 0): 1.0})
        e, _ = synthesized(c)
        got = extract_tangential_e(e, 3)
        assert abs(got.electric(1, 0) - 1.0) <= 1e-10

        c2 = CoefficientSet.from_modes(3, medium, magnetic={(2, 1): 3 - 2j})
        e2, _ = synthesized(c2)
        got2 = extract_tangential_e(e2, 3)
        assert abs(got2.magnetic(2, 1) - (3 - 2j)) <= 1e-9
        assert np.abs(got2.a_e).max() <= 1e-9

    def test_tangential_h_single_modes(self, medium):
        c = CoefficientSet.from_modes(2, medium, magnetic={(1, 0): 1.0})
        _, h = synthesized(c)
        got = extract_tangential_h(h, 2)
        assert abs(got.magnetic(1, 0) - 1.0) <= 1e-10

        c2 = CoefficientSet.from_modes(2, medium, electric={(1, 0): 1.0})
        _, h2 = synthesized(c2)
        got2 = extract_tangential_h(h2, 2)
        assert abs(got2.electric(1, 0) - 1.0) <= 1e-10
        assert np.abs(got2.a_m).max() <= 1e-10

    def test_zero_samples_give_zero_coefficients(self, medium):
        grid = make_grid(3, 1.0)
        zeros = np.zeros((grid.n_nodes, 3), complex)
        e = FieldSamples(grid, "E", zeros, medium)
        h = FieldSamples(grid, "H", zeros, medium)
        for got in (extract_radial(e, h, 3), extract_tangential_e(e, 3),
                    extract_tangential_h(h, 3)):
            assert np.all(got.a_e == 0) and np.all(got.a_m == 0)

    def test_random_set_all_routes(self, medium, rng):
        # kr0 = pi/2, l <= 6: worst divisor ratio ~ 1e2, comfortably in range
        c = random_coefficients(6, medium, rng)
        e, h = synthesized(c)
        for got in (extract_radial(e, h, 6), extract_tangential_e(e, 6),
                    extract_tangential_h(h, 6)):
            assert per_coefficient_error(got, c) <= 1e-9

    def test_radius_independence(self, medium, rng):
        c = random_coefficients(4, medium, rng)
        e1, h1 = synthesized(c, r0=1.0)
        e2, h2 = synthesized(c, r0=1.7)
        got1 = extract_radial(e1, h1, 4)
        got2 = extract_radial(e2, h2, 4)
        assert per_coefficient_error(got1, got2) <= 1e-9


class TestComponentBlindness:
    def corrupt(self, samples, columns, rng):
        values = samples.values.copy()
        garbage = rng.normal(size=(values.shape[0], len(columns))) \
            + 1j * rng.normal(size=(values.shape[0], len(columns)))
        values[:, columns] = 1e6 * garbage
        return FieldSamples(samples.grid, samples.field_kind, values, samples.medium)

    def test_radial_ignores_tangential(self, medium, rng):
        c = random_coefficients(3, medium, rng)
        e, h = synthesized(c)
        clean = extract_radial(e, h, 3)
        dirty = extract_radial(self.corrupt(e, [1, 2], rng), self.corrupt(h, [1, 2], rng), 3)
        assert np.array_equal(clean.a_e, dirty.a_e)
        assert np.array_equal(clean.a_m, dirty.a_m)

    def test_tangential_e_ignores_radial(self, medium, rng):
        c = random_coefficients(3, medium, rng)
        e, _ = synthesized(c)
        clean = extract_tangential_e(e, 3)
        dirty = extract_tangential_e(self.corrupt(e, [0], rng), 3)
        assert np.array_equal(clean.a_e, dirty.a_e)
        assert np.array_equal(clean.a_m, dirty.a_m)

    def test_tangential_h_ignores_radial(self, medium, rng):
        c = random_coefficients(3, medium, rng)
        _, h = synthesized(c)
        clean = extract_tangential_h(h, 3)
        dirty = extract_tangential_h(self.corrupt(h, [0], rng), 3)
        assert np.array_equal(clean.a_e, dirty.a_e)
        assert np.array_equal(clean.a_m, dirty.a_m)


class TestValidation:
    def test_wrong_field_kind(self, medium):
        grid = make_grid(2, 1.0)
        zeros = np.zeros((grid.n_nodes, 3), complex)
        e = FieldSamples(grid, "E", zeros, medium)
        with pytest.raises(ValueError):
            extract_tangential_h(e, 2)
        with pytest.raises(ValueError):
            extract_radial(e, e, 2)

    def test_missing_medium(self):
        grid = make_grid(2, 1.0)
        e = FieldSamples(grid, "E", np.zeros((grid.n_nodes, 3), complex))
        with pytest.raises(ValueError):
            extract_tangential_e(e, 2)

    def test_mismatched_grids(self, medium):
        g1, g2 = make_grid(2, 1.0), make_grid(2, 2.0)
        e = FieldSamples(g1, "E", np.zeros((g1.n_nodes, 3), complex), medium)
        h = FieldSamples(g2, "H", np.zeros((g2.n_nodes, 3), complex), medium)
        with pytest.raises(ValueError):
            extract_radial(e, h, 2)


class TestRadialNegativeControl:
    """Neither radial component alone determines the field: E_r carries no
    a_M and H_r no a_E, which is why the theorem needs both."""

    @staticmethod
    def bits(column):
        return column.copy().view(np.uint64)  # a column is a strided view

    def test_each_radial_column_is_blind_to_one_family(self, rng):
        medium = Medium(k=3.0)
        c = random_coefficients(6, medium, rng)
        other = random_coefficients(6, medium, rng)
        e, h = synthesized(c)
        e_m, _ = synthesized(CoefficientSet(6, medium, c.a_e, other.a_m))
        _, h_e = synthesized(CoefficientSet(6, medium, other.a_e, c.a_m))
        assert np.array_equal(self.bits(e.values[:, 0]), self.bits(e_m.values[:, 0]))
        assert np.array_equal(self.bits(h.values[:, 0]), self.bits(h_e.values[:, 0]))

    def test_e_r_alone_leaves_a_m_undetermined(self, rng):
        medium = Medium(k=3.0)
        c = random_coefficients(6, medium, rng)
        e, h = synthesized(c)
        blank = FieldSamples(h.grid, "H", np.zeros_like(h.values), medium)
        got = extract_radial(e, blank, 6)
        assert np.all(got.a_m == 0)
        assert np.abs(got.a_e - c.a_e).max() <= 1e-12 * np.abs(c.a_e).max()


class TestConditioning:
    def test_route_condition_shape(self, medium):
        grid = make_grid(5, 1.0)
        for route in ("radial", "tangential-E", "tangential-H"):
            gain = route_condition(route, medium, grid, 5)
            assert sorted(gain) == ["a_e", "a_m"]
            for values in gain.values():
                assert values.shape == (5,)
                assert np.all(np.isfinite(values)) and np.all(values > 0)
        with pytest.raises(ValueError, match="unknown route"):
            route_condition("sideways", medium, grid, 5)

    @pytest.mark.parametrize("l_max, kr0", [(6, 3.0), (16, 20.0), (16, 9.1), (10, 0.5)])
    def test_route_condition_is_the_noise_law(self, l_max, kr0):
        # closed forms of sqrt(Sum w^2 / 4 pi) / |scale * f_l| for each route's terms
        medium, grid = Medium(k=kr0 / 2.0), make_grid(l_max, 2.0)
        h_l, d_l = np.abs(radial_factors(l_max, kr0))
        l = np.arange(1, l_max + 1)
        radial, z0 = np.sqrt(l * (l + 1.0)) * h_l / kr0, medium.z0
        want = {"radial": {"a_e": z0 * radial, "a_m": radial},
                "tangential-E": {"a_e": z0 * d_l / kr0, "a_m": z0 * h_l},
                "tangential-H": {"a_e": h_l, "a_m": d_l / kr0}}
        noise = np.sqrt(np.sum(grid.weights**2) / (4.0 * np.pi))
        for route, divisors in want.items():
            gain = route_condition(route, medium, grid, l_max)
            for family, divisor in divisors.items():
                np.testing.assert_allclose(gain[family], noise / divisor, rtol=1e-13)

    @pytest.mark.parametrize("l_max", [0, -1])
    def test_rejects_degree_below_one(self, medium, l_max):
        with pytest.raises(ValueError, match=f"l_max must be >= 1, got {l_max}"):
            route_condition("radial", medium, make_grid(2, 1.0), l_max)
        e, h = synthesized(CoefficientSet.zeros(2, medium))
        for extract in (lambda: extract_radial(e, h, l_max), lambda: extract_tangential_e(e, l_max),
                        lambda: extract_tangential_h(h, l_max),
                        lambda: equivalence_report(e, h, l_max)):
            with pytest.raises(ValueError, match=f"l_max must be >= 1, got {l_max}"):
                extract()


class TestEquivalenceReport:
    def test_synthesized_fields_agree(self, medium, rng):
        c = random_coefficients(6, medium, rng)
        e, h = synthesized(c)
        result = equivalence_report(e, h, 6)
        assert result.max_pairwise_deviation <= 1e-9
        assert len(result.pairwise_deviation) == 3
        for report in result.reports():
            assert coefficient_deviation(report.coeffs, c) <= 1e-9
            assert sorted(report.noise_gain) == ["a_e", "a_m"]
            assert all(v.shape == (6,) for v in report.noise_gain.values())

    def test_report_equals_single_routes_bit_for_bit(self):
        medium = Medium(k=20.0)
        c = random_coefficients(16, medium, np.random.default_rng(16))
        e, h = synthesized(c)
        result = equivalence_report(e, h, 16)
        for report, alone in ((result.radial, extract_radial(e, h, 16)),
                              (result.tangential_e, extract_tangential_e(e, 16)),
                              (result.tangential_h, extract_tangential_h(h, 16))):
            for got, want in ((report.coeffs.a_e, alone.a_e), (report.coeffs.a_m, alone.a_m)):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_zero_fields(self, medium):
        grid = make_grid(3, 1.0)
        zeros = np.zeros((grid.n_nodes, 3), complex)
        e = FieldSamples(grid, "E", zeros, medium)
        h = FieldSamples(grid, "H", zeros, medium)
        result = equivalence_report(e, h, 3)
        assert result.max_pairwise_deviation == 0.0
        for report in result.reports():
            assert np.all(report.coeffs.a_e == 0)

    def test_sparse_set_does_not_trip_on_noise_modes(self, medium):
        # a few populated modes among many true zeros: the routes' roundoff
        # residue on the absent modes must not read as relative deviation
        c = CoefficientSet.from_modes(3, medium, electric={(1, 0): 1.0, (3, -2): 1j},
                                      magnetic={(2, 1): 0.5})
        e, h = synthesized(c)
        result = equivalence_report(e, h, 3)
        assert result.max_pairwise_deviation <= 1e-12
        # while a genuinely one-sided mode still registers in full
        from spheremodes import coefficient_deviation
        empty = CoefficientSet.zeros(3, medium)
        assert coefficient_deviation(c, empty) == 1.0

    @pytest.mark.parametrize("l_max, kr0", [(12, 10.0), (6, 0.5)])
    def test_noise_gain_matches_noise_only_trials(self, l_max, kr0):
        # extraction is linear, so noise alone shows each route's error: per
        # route, family and degree the rms error over 200 trials and the 2l + 1
        # modes, per unit rms complex noise, against the report's noise_gain
        start = time.process_time()
        trials, medium = 200, Medium(k=kr0)
        rng = np.random.default_rng(2718)
        grid = make_grid(l_max, 1.0)
        l = np.arange(1, l_max + 1)
        degree = np.repeat(l, 2 * l + 1)
        squares = {}
        for _ in range(trials):
            e, h = (FieldSamples(grid, kind, (rng.normal(size=(grid.n_nodes, 3))
                                              + 1j * rng.normal(size=(grid.n_nodes, 3)))
                                 / np.sqrt(2.0), medium) for kind in "EH")
            result = equivalence_report(e, h, l_max)
            for report in result.reports():
                for family in ("a_e", "a_m"):
                    err = np.abs(getattr(report.coeffs, family)) ** 2
                    squares[report.route, family] = squares.get((report.route, family), 0.0) \
                        + np.bincount(degree - 1, weights=err)
        for report in result.reports():
            want = route_condition(report.route, medium, grid, l_max)
            for family, gain in report.noise_gain.items():
                ratio = np.sqrt(squares[report.route, family] / (trials * (2 * l + 1))) / gain
                assert np.all((0.85 <= ratio) & (ratio <= 1.15)), (report.route, family, ratio)
                assert np.array_equal(gain, want[family])
        assert time.process_time() - start < 1.0

    def test_roundoff_error_follows_the_noise_law(self):
        # equal magnitudes at kr0 = 0.5: the gains span 12 decades over l <= 10,
        # and each degree's round-trip error is its gain times roundoff on the
        # samples, eps * rms of the field the term reads, within a small factor
        medium, l_max = Medium(k=0.5), 10
        c = random_coefficients(l_max, medium, np.random.default_rng(314))
        e, h = synthesized(c)
        l = np.arange(1, l_max + 1)
        degree = np.repeat(l, 2 * l + 1)
        for report in equivalence_report(e, h, l_max).reports():
            for family in ("a_e", "a_m"):
                read = e if report.route == "tangential-E" or \
                    (report.route, family) == ("radial", "a_e") else h
                sigma = np.finfo(float).eps * np.sqrt(np.mean(np.abs(read.values) ** 2))
                err = np.abs(getattr(report.coeffs, family) - getattr(c, family)) ** 2
                rms = np.sqrt(np.bincount(degree - 1, weights=err) / (2 * l + 1))
                ratio = rms / (sigma * report.noise_gain[family])
                assert np.all((1.0 <= ratio) & (ratio <= 100.0)), (report.route, family, ratio)

    @pytest.mark.parametrize("call, projections", [
        (lambda e, h: equivalence_report(e, h, 4), ["E", "H"]),
        (lambda e, h: extract_radial(e, h, 4), ["E", "H"]),
        (lambda e, h: extract_tangential_e(e, 4), ["E"]),
        (lambda e, h: extract_tangential_h(h, 4), ["H"]),
    ], ids=["report", "radial", "tangential-E", "tangential-H"])
    def test_one_hankel_evaluation_and_one_projection_per_field(self, medium, rng, monkeypatch,
                                                                  call, projections):
        from spheremodes import extraction
        factors, projected = [], []
        original_factors, original_project = extraction.radial_factors, extraction._project

        def counted_factors(*args):
            factors.append(args)
            return original_factors(*args)

        def counted_project(samples, l, mode=None):
            projected.append(samples.field_kind)
            assert (l, mode) == (4, None)
            return original_project(samples, l, mode)

        monkeypatch.setattr(extraction, "radial_factors", counted_factors)
        monkeypatch.setattr(extraction, "_project", counted_project)
        e, h = synthesized(random_coefficients(4, medium, rng))
        result = call(e, h)
        assert len(factors) == 1
        assert projected == projections
        for report in result.reports() if isinstance(result, EquivalenceResult) else ():
            want = route_condition(report.route, medium, e.grid, 4)
            for family in ("a_e", "a_m"):
                assert np.array_equal(report.noise_gain[family], want[family])
