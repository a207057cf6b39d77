"""Scalar special functions against closed forms and high-precision oracles."""

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spheremodes.specfun import (ModeIndex, assoc_legendre_norm, legendre_theta_kernel,
                                 legendre_theta_orders, radial_factors, riccati_h1_deriv,
                                 sph_hankel1, sph_harmonic)

FOUR_PI = 4.0 * np.pi


class TestModeIndex:
    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            ModeIndex(0, 0)

    def test_rejects_order_out_of_range(self):
        with pytest.raises(ValueError):
            ModeIndex(2, 3)
        with pytest.raises(ValueError):
            ModeIndex(2, -3)

    def test_accepts_valid(self):
        mode = ModeIndex(3, -2)
        assert (mode.l, mode.m) == (3, -2)


class TestAssocLegendreNorm:
    def test_constant_mode(self):
        assert assoc_legendre_norm(0, 0, 0.3) == pytest.approx(1.0 / np.sqrt(FOUR_PI), rel=1e-15)

    def test_degree_one_closed_form(self):
        assert assoc_legendre_norm(1, 0, 0.5) == pytest.approx(
            np.sqrt(3.0 / FOUR_PI) * 0.5, rel=1e-15)

    def test_rodrigues_oracle_frozen(self):
        # computed with the exact-rational Rodrigues oracle at 60 digits
        want = -0.459922152794399093
        assert abs(assoc_legendre_norm(8, 5, 0.7) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("l,m,x", [
        (2, 1, -0.4), (5, 0, 0.9), (7, 7, 0.3), (12, 4, -0.85),
        (16, 9, 0.55), (20, 1, 0.05), (20, 20, -0.6),
    ])
    def test_rodrigues_oracle_sweep(self, l, m, x):
        want = float(oracles.assoc_legendre_norm(l, m, x))
        got = assoc_legendre_norm(l, m, x)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-6)

    def test_no_overflow_through_degree_64(self):
        xs = np.array([-0.999, -0.5, 0.0, 0.37, 0.999, 1.0])
        for m in (0, 1, 13, 32, 63, 64):
            vals = assoc_legendre_norm(64, m, xs)
            assert np.isfinite(vals).all()

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            assoc_legendre_norm(3, 4, 0.5)
        with pytest.raises(ValueError):
            assoc_legendre_norm(3, -1, 0.5)
        with pytest.raises(ValueError):
            assoc_legendre_norm(3, 2, 1.5)


class TestSphHarmonic:
    def test_constant_mode(self):
        got = sph_harmonic(0, 0, 1.234, 4.321)
        assert got == pytest.approx(0.28209479177387814 + 0j, abs=1e-15)

    def test_degree_one_closed_forms(self):
        assert sph_harmonic(1, 0, np.pi / 3, 1.0) == pytest.approx(
            np.sqrt(3.0 / FOUR_PI) * np.cos(np.pi / 3), abs=1e-15)
        # Condon-Shortley: P_1^1(0) = -1
        assert sph_harmonic(1, 1, np.pi / 2, 0.0) == pytest.approx(
            -np.sqrt(3.0 / (8.0 * np.pi)), abs=1e-15)

    @given(l=st.integers(1, 20), theta=st.floats(0.05, 3.09), phi=st.floats(0.0, 6.28))
    @settings(max_examples=60, deadline=None)
    def test_negative_order_conjugation_is_exact(self, l, theta, phi):
        for m in range(1, l + 1):
            lhs = sph_harmonic(l, -m, theta, phi)
            rhs = (-1) ** m * np.conj(sph_harmonic(l, m, theta, phi))
            assert lhs == rhs  # bit-identical by construction

    @given(l=st.integers(0, 24), theta=st.floats(0.01, 3.13), phi=st.floats(0.0, 6.28))
    @settings(max_examples=80, deadline=None)
    def test_matches_scipy(self, l, theta, phi):
        m = l // 2
        want = complex(scipy.special.sph_harm_y(l, m, theta, phi))
        got = sph_harmonic(l, m, theta, phi)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sph_harmonic(-1, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            sph_harmonic(2, 3, 1.0, 1.0)


class TestThetaKernel:
    """The (n, tau, pi) angular kernel backing the vector harmonics."""

    @pytest.mark.parametrize("l,m,theta", [
        (1, 0, 0.9), (3, 2, 1.7), (6, -3, 1.1), (9, 9, 0.4), (12, -1, 2.8),
    ])
    def test_tau_matches_exact_derivative(self, l, m, theta):
        _, tau, _ = legendre_theta_kernel(l, m, theta)
        want = complex(oracles.sph_harm_dtheta(l, m, theta, 0.0)).real
        assert abs(tau - want) <= 1e-12 * max(abs(want), 1e-6)

    @pytest.mark.parametrize("l,m,theta", [
        (2, 1, 0.9), (5, 3, 2.2), (8, -5, 1.3),
    ])
    def test_pi_matches_m_over_sin(self, l, m, theta):
        n, _, pi_ = legendre_theta_kernel(l, m, theta)
        assert pi_ == pytest.approx(m * n / np.sin(theta), rel=1e-13)

    def test_exact_at_poles(self):
        # m = 0: derivative vanishes at the poles without cancellation noise.
        # theta = 0.0 is the exact pole; float(pi) sits 1.2e-16 away from it,
        # so the tiny nonzero value there is the correct one.
        for l in (1, 4, 9):
            _, tau, pi_ = legendre_theta_kernel(l, 0, np.array([0.0, np.pi]))
            assert tau[0] == 0.0 and np.abs(tau[1]) < 1e-14
            assert np.all(pi_ == 0.0)
        # |m| = 1: finite nonzero limits
        _, tau, pi_ = legendre_theta_kernel(1, 1, 0.0)
        assert abs(pi_ - (-np.sqrt(3.0 / (8.0 * np.pi)))) < 1e-15
        assert abs(tau - (-np.sqrt(3.0 / (8.0 * np.pi)))) < 1e-15
        # |m| >= 2: everything vanishes at the pole
        _, tau, pi_ = legendre_theta_kernel(5, 3, 0.0)
        assert tau == 0.0 and pi_ == 0.0


class TestThetaOrders:
    """The order-at-a-time generator is the only Legendre recurrence."""

    @pytest.mark.parametrize("l_max", range(1, 13))
    def test_rows_match_kernel_bit_for_bit(self, l_max):
        theta = np.concatenate([[0.0, np.pi], np.linspace(0.05, 3.1, 9)])
        orders = []
        for m, n, tau, pi_ in legendre_theta_orders(l_max, theta):
            orders.append(m)
            assert n.shape == tau.shape == pi_.shape == (l_max - max(abs(m), 1) + 1, theta.size)
            for row, l in enumerate(range(max(abs(m), 1), l_max + 1)):
                want = legendre_theta_kernel(l, m, theta)
                for got, ref in zip((n[row], tau[row], pi_[row]), want):
                    assert np.array_equal(got, ref)
        assert sorted(orders) == list(range(-l_max, l_max + 1))

    def test_keeps_trailing_theta_shape(self):
        theta = np.linspace(0.2, 2.9, 6).reshape(2, 3, 1)
        for m, n, tau, pi_ in legendre_theta_orders(4, theta):
            assert n.shape[1:] == tau.shape[1:] == pi_.shape[1:] == theta.shape


class TestRadialFactors:
    def test_matches_riccati_and_hankel(self):
        x = np.array([0.3, 2.0, 11.5])
        h, d = radial_factors(6, x)
        assert h.shape == d.shape == (6, 3)
        for l in range(1, 7):
            assert np.array_equal(h[l - 1], sph_hankel1(l, x))
            assert np.array_equal(d[l - 1], riccati_h1_deriv(l, x))


class TestSphHankel1:
    def test_l0_closed_form(self):
        want = np.sin(1.0) - 1j * np.cos(1.0)  # -i e^{ix}/x at x = 1
        assert sph_hankel1(0, 1.0) == pytest.approx(want, rel=1e-15)

    def test_l1_closed_form(self):
        want = -(np.exp(2j) / 2.0) * (1.0 + 0.5j)
        assert sph_hankel1(1, 2.0) == pytest.approx(want, rel=1e-14)

    def test_series_oracle_frozen(self):
        # mpmath series oracle, 60 digits
        want = 3.5260038931752563e-06 - 4699.8591888113912j
        got = sph_hankel1(10, 3.0)
        assert abs(got - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("l", [0, 1, 2, 5, 10, 20])
    @pytest.mark.parametrize("x", [0.1, 1.0, 3.0, 10.0, 50.0])
    def test_series_oracle_sweep(self, l, x):
        want = complex(oracles.sph_hankel1(l, x))
        got = sph_hankel1(l, x)
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_wronskian_cross_product(self):
        # j_l y_{l-1} - j_{l-1} y_l = 1/x^2; y from our Hankel values, j from
        # scipy (our real part is meaningless when y dominates by ~1e40)
        xs = np.array([0.1, 0.35, 1.0, 2.7, 7.0, 19.0, 50.0])
        for l in range(1, 21):
            y_l = np.array([sph_hankel1(l, x) for x in xs]).imag
            y_lm1 = np.array([sph_hankel1(l - 1, x) for x in xs]).imag
            j_l = scipy.special.spherical_jn(l, xs)
            j_lm1 = scipy.special.spherical_jn(l - 1, xs)
            got = j_l * y_lm1 - j_lm1 * y_l
            assert np.all(np.abs(got - 1.0 / xs**2) <= 1e-10 / xs**2)

    @given(l=st.integers(0, 30), x=st.floats(0.5, 60.0))
    @settings(max_examples=80, deadline=None)
    def test_propagating_regime_matches_scipy(self, l, x):
        want = scipy.special.spherical_jn(l, x) + 1j * scipy.special.spherical_yn(l, x)
        assert abs(sph_hankel1(l, x) - want) <= 1e-10 * abs(want)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sph_hankel1(2, 0.0)
        with pytest.raises(ValueError):
            sph_hankel1(2, -1.0)


class TestRiccatiDeriv:
    def test_identity_at_l1(self):
        x = 1.0
        want = x * sph_hankel1(0, x) - 1 * sph_hankel1(1, x)
        assert riccati_h1_deriv(1, x) == want

    @pytest.mark.parametrize("l,x", [(3, 2.5), (5, 0.1)])
    def test_finite_difference_oracle(self, l, x):
        step = 1e-6
        fd = ((x + step) * sph_hankel1(l, x + step)
              - (x - step) * sph_hankel1(l, x - step)) / (2.0 * step)
        got = riccati_h1_deriv(l, x)
        assert abs(got - fd) <= 1e-8 * abs(got)

    def test_finite_difference_sweep(self):
        step = 1e-6
        for l in range(1, 13):
            for x in (0.1, 0.9, 3.3, 11.0, 30.0):
                fd = ((x + step) * sph_hankel1(l, x + step)
                      - (x - step) * sph_hankel1(l, x - step)) / (2.0 * step)
                got = riccati_h1_deriv(l, x)
                assert abs(got - fd) <= 1e-8 * abs(got)

    def test_frozen_oracle_value(self):
        want = 0.33840541461505126 + 1.2550481167505950j
        assert abs(riccati_h1_deriv(3, 2.5) - want) <= 1e-12 * abs(want)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            riccati_h1_deriv(0, 1.0)
        with pytest.raises(ValueError):
            riccati_h1_deriv(2, -0.5)
