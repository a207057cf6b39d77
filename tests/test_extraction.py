"""Coefficient recovery by the three routes: round trips, component
blindness, radius independence, conditioning, and the equivalence report."""

import numpy as np
import pytest

from helpers import per_coefficient_error, random_coefficients
from spheremodes import (CoefficientSet, EquivalenceResult, FieldSamples, Medium,
                         coefficient_deviation, make_grid, synthesize)
from spheremodes.extraction import (ConditioningWarning, equivalence_report, extract_radial,
                                    extract_tangential_e, extract_tangential_h,
                                    route_condition)
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


class TestConditioning:
    def test_warning_for_deep_evanescence(self, rng):
        # |h_10(0.5)| / |h_1(0.5)| ~ 3e11 >> the 1e6 default threshold
        medium = Medium(k=0.5)
        c = random_coefficients(10, medium, rng, balance_radius=1.0)
        e, h = synthesized(c)
        with pytest.warns(ConditioningWarning):
            extract_radial(e, h, 10)

    def test_no_warning_when_benign(self, rng):
        medium = Medium(k=3.0)
        c = random_coefficients(4, medium, rng)
        e, h = synthesized(c)
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error", ConditioningWarning)
            extract_radial(e, h, 4)

    def test_route_condition_shape(self, medium):
        cond = route_condition("radial", medium, 1.0, 5)
        assert sorted(cond) == [1, 2, 3, 4, 5]
        assert all(v > 0 for v in cond.values())
        with pytest.raises(ValueError):
            route_condition("sideways", medium, 1.0, 5)

    @pytest.mark.parametrize("l_max, kr0", [(6, 3.0), (16, 20.0), (16, 9.1), (10, 0.5)])
    def test_route_condition_is_the_largest_divisor_magnitude(self, l_max, kr0):
        h_l, d_l = radial_factors(l_max, kr0)
        tangential = np.maximum(np.abs(h_l), np.abs(d_l))
        want = {"radial": np.abs(h_l), "tangential-E": tangential, "tangential-H": tangential}
        for route, mags in want.items():
            cond = route_condition(route, Medium(k=kr0 / 2.0), 2.0, l_max)
            assert list(cond) == list(range(1, l_max + 1))
            assert np.array_equal(np.array(list(cond.values())), mags)

    @pytest.mark.parametrize("l_max", [0, -1])
    def test_rejects_degree_below_one(self, medium, l_max):
        with pytest.raises(ValueError, match=f"l_max must be >= 1, got {l_max}"):
            route_condition("radial", medium, 1.0, l_max)
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
            assert all(v > 0 for v in report.condition_indicators.values())

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

    def test_noise_bounded_by_amplification(self, rng):
        # additive noise at 1e-6 of the field RMS; deviation between routes is
        # bounded by noise x the worst divisor amplification (times a modest
        # factor covering mode-count effects)
        medium = Medium(k=0.5)
        l_max = 5
        c = random_coefficients(l_max, medium, rng)
        e, h = synthesized(c)
        noisy = []
        for s in (e, h):
            scale = 1e-6 * np.sqrt(np.mean(np.abs(s.values) ** 2))
            noise = scale * (rng.normal(size=s.values.shape)
                             + 1j * rng.normal(size=s.values.shape)) / np.sqrt(2.0)
            noisy.append(FieldSamples(s.grid, s.field_kind, s.values + noise, s.medium))
        result = equivalence_report(noisy[0], noisy[1], l_max)
        worst_amp = max(max(r.amplification.values()) for r in result.reports())
        assert result.max_pairwise_deviation <= 1e-6 * worst_amp * 50.0
        # degree 5 is ~1e4 x worse conditioned than degree 1 here: flagged
        flagged = set().union(*(r.flagged_degrees for r in result.reports()))
        assert 5 in flagged

    @pytest.mark.parametrize("call, projections", [
        (lambda e, h: equivalence_report(e, h, 4),
         [("E", {"Yr", "X", "Z"}), ("H", {"Yr", "X", "Z"})]),
        (lambda e, h: extract_radial(e, h, 4), [("E", {"Yr"}), ("H", {"Yr"})]),
        (lambda e, h: extract_tangential_e(e, 4), [("E", {"X", "Z"})]),
        (lambda e, h: extract_tangential_h(h, 4), [("H", {"X", "Z"})]),
    ], ids=["report", "radial", "tangential-E", "tangential-H"])
    def test_one_hankel_evaluation_and_one_projection_per_field(self, medium, rng, monkeypatch,
                                                                  call, projections):
        from spheremodes import extraction
        factors, projected = [], []
        original_factors, original_project = extraction.radial_factors, extraction._project

        def counted_factors(*args):
            factors.append(args)
            return original_factors(*args)

        def counted_project(samples, kinds, *args):
            projected.append((samples.field_kind, set(kinds)))
            assert len(kinds) == len(set(kinds))
            return original_project(samples, kinds, *args)

        monkeypatch.setattr(extraction, "radial_factors", counted_factors)
        monkeypatch.setattr(extraction, "_project", counted_project)
        e, h = synthesized(random_coefficients(4, medium, rng))
        result = call(e, h)
        assert len(factors) == 1
        assert projected == projections
        for report in result.reports() if isinstance(result, EquivalenceResult) else ():
            assert report.condition_indicators == route_condition(report.route, medium, 1.0, 4)

    def test_warnings_propagate(self, rng):
        medium = Medium(k=0.5)
        c = random_coefficients(10, medium, rng, balance_radius=1.0)
        e, h = synthesized(c)
        with pytest.warns(ConditioningWarning):
            equivalence_report(e, h, 10)
