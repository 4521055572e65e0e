from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import draw_models
from termshapes import vasicek as vk
from termshapes.descartes import eval_dpoly
from termshapes.vasicek import ScaleRegime, VasicekModel


def two_factor(lam=(0.5, 1.7), theta=(0.01, 0.03), kappa=(1.2, 0.7),
               kappa0=0.005, sigma=(0.4, 0.8), rho=-0.3) -> VasicekModel:
    return VasicekModel(lam=lam, theta=theta, kappa=kappa, kappa0=kappa0,
                        sigma=sigma, rho=rho)


class TestModelValidation:
    def test_requires_increasing_speeds(self):
        with pytest.raises(ValueError):
            two_factor(lam=(1.7, 0.5))

    def test_requires_speeds_above_min_decay(self):
        with pytest.raises(ValueError, match="at least"):
            two_factor(lam=(1e-200, 1.0))

    def test_requires_positive_loadings(self):
        with pytest.raises(ValueError):
            two_factor(kappa=(0.0, 1.0))

    def test_requires_correlation_in_range(self):
        with pytest.raises(ValueError):
            two_factor(rho=1.5)

    def test_dict_roundtrip(self):
        m = two_factor()
        assert VasicekModel.from_dict(m.to_dict()) == m

    def test_dict_missing_key(self):
        doc = two_factor().to_dict()
        del doc["kappa"]
        with pytest.raises(ValueError):
            VasicekModel.from_dict(doc)

    def test_dict_d_mismatch(self):
        doc = two_factor().to_dict()
        doc["d"] = 1
        with pytest.raises(ValueError):
            VasicekModel.from_dict(doc)

    def test_covariance_matrix(self):
        m = two_factor(sigma=(0.4, 0.8), rho=-0.3)
        cov = m.covariance()
        assert cov[0, 1] == pytest.approx(-0.3 * 0.4 * 0.8)
        assert np.all(np.linalg.eigvalsh(cov) >= -1e-15)


class TestRegime:
    def test_separated(self):
        assert vk.regime(two_factor(lam=(1.0, 3.0))) is ScaleRegime.SEPARATED

    def test_proximal(self):
        assert vk.regime(two_factor(lam=(1.0, 1.5))) is ScaleRegime.PROXIMAL

    def test_critical(self):
        assert vk.regime(two_factor(lam=(1.0, 2.0))) is ScaleRegime.CRITICAL

    def test_critical_tolerance(self):
        lam2 = 2.0 * (1.0 + 1e-14)
        assert vk.regime(two_factor(lam=(1.0, lam2))) is ScaleRegime.CRITICAL

    def test_one_factor_not_applicable(self):
        m = VasicekModel(lam=(1.0,), theta=(0.0,), kappa=(1.0,), kappa0=0.0, sigma=(0.1,))
        with pytest.raises(ValueError):
            vk.regime(m)

    def test_trichotomy(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            lam1 = rng.uniform(0.05, 2.0)
            lam2 = lam1 * rng.uniform(1.001, 5.0)
            assert vk.regime(two_factor(lam=(lam1, lam2))) in list(ScaleRegime)


class TestLoadings:
    def test_zero_at_origin(self):
        assert np.allclose(vk.B(two_factor(), 0.0), 0.0)

    def test_long_maturity_limit(self):
        m = two_factor()
        b = vk.B(m, 100.0 / min(m.lam))
        expected = [-k / l for k, l in zip(m.kappa, m.lam)]
        assert b == pytest.approx(expected, abs=1e-6)

    def test_initial_slope_is_negative_loading(self):
        m = two_factor()
        h = 1e-7
        slope = (vk.B(m, h) - vk.B(m, 0.0)) / h
        assert slope == pytest.approx([-k for k in m.kappa], rel=1e-6)


class TestForwardCurve:
    def test_short_end_is_short_rate(self):
        m = two_factor()
        z = (0.02, -0.01)
        expected = m.kappa0 + np.dot(m.kappa, z)
        assert vk.forward_curve(m, z, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_flat_when_deterministic_at_mean(self):
        m = two_factor(sigma=(0.0, 0.0), rho=0.0)
        z = m.theta
        xs = np.linspace(0.0, 15.0, 50)
        f = vk.forward_curve(m, z, xs)
        expected = m.kappa0 + np.dot(m.kappa, m.theta)
        assert np.allclose(f, expected, rtol=0, atol=1e-15)

    def test_against_bond_price_oracle(self):
        # Independent route: integrate the drift functional to get the
        # log-price intercept, then differentiate the log bond price.
        m = two_factor()
        z = np.array([0.02, -0.01])
        cov = m.covariance()
        mu = m.mu

        def f_of_b(b):
            return float(mu @ b + 0.5 * b @ cov @ b - m.kappa0)

        def log_price(x):
            a_val = quad(lambda s: f_of_b(vk.B(m, s)), 0.0, x, limit=200)[0]
            return a_val + float(z @ vk.B(m, x))

        x0, h = 2.3, 1e-5
        fd = -(log_price(x0 + h) - log_price(x0 - h)) / (2 * h)
        assert vk.forward_curve(m, z, x0) == pytest.approx(fd, abs=1e-6)


class TestYieldCurve:
    def test_matches_forward_at_zero(self):
        m = two_factor()
        z = (0.02, -0.01)
        assert vk.yield_curve(m, z, 0.0) == pytest.approx(
            vk.forward_curve(m, z, 0.0), rel=1e-14
        )

    def test_flat_case(self):
        m = two_factor(sigma=(0.0, 0.0), rho=0.0)
        ys = vk.yield_curve(m, m.theta, np.linspace(0.0, 10.0, 11))
        assert np.allclose(ys, vk.forward_curve(m, m.theta, 0.0), atol=1e-15)

    def test_matches_quadrature_of_forward(self):
        rng = np.random.default_rng(4)
        for model, z in draw_models(20, seed=90):
            x = rng.uniform(0.2, 12.0)
            avg = quad(lambda y: vk.forward_curve(model, z, y), 0.0, x, limit=200)[0] / x
            assert vk.yield_curve(model, z, x) == pytest.approx(avg, abs=1e-8)

    def test_forward_recovered_by_differentiation(self):
        m = two_factor()
        z = (0.02, -0.01)
        h = 1e-5
        for x in (0.5, 2.0, 7.0):
            lhs = ((x + h) * vk.yield_curve(m, z, x + h)
                   - (x - h) * vk.yield_curve(m, z, x - h)) / (2 * h)
            assert lhs == pytest.approx(vk.forward_curve(m, z, x), abs=1e-6)


class TestDerivativePolynomials:
    def test_correlation_factor_in_cross_coefficient(self):
        u, c, w = vk.coefficient_parts(two_factor(rho=0.0), (0.0, 0.0))
        assert c == 0.0

    def test_zero_volatility_coefficients(self):
        m = two_factor(sigma=(0.0, 0.0), rho=0.5)
        z = (0.01, -0.02)
        u, c, w = vk.coefficient_parts(m, z)
        assert u == (0.0, 0.0) and c == 0.0
        expected = tuple(
            k * l * (t - zv) for k, l, t, zv in zip(m.kappa, m.lam, m.theta, z)
        )
        assert w == pytest.approx(expected, rel=1e-14)

    def test_one_factor_unit_example(self):
        m = VasicekModel(lam=(1.0,), theta=(0.0,), kappa=(1.0,), kappa0=0.0, sigma=(1.0,))
        u, c, w = vk.coefficient_parts(m, (0.0,))
        assert (u[0], w[0]) == (1.0, -1.0)

    def test_basis_ordering_by_regime(self):
        sep = vk.l_coefficients(two_factor(lam=(1.0, 3.0)), (0.0, 0.0))
        assert sep.basis.decays == (6.0, 4.0, 3.0, 2.0, 1.0)
        prox = vk.l_coefficients(two_factor(lam=(1.0, 1.5)), (0.0, 0.0))
        assert prox.basis.decays == (3.0, 2.5, 2.0, 1.5, 1.0)
        crit = vk.l_coefficients(two_factor(lam=(1.0, 2.0)), (0.0, 0.0))
        assert crit.basis.decays == (4.0, 3.0, 2.0, 1.0)

    def test_critical_merges_slots(self):
        m = two_factor(lam=(1.0, 2.0))
        z = (0.01, -0.02)
        u, c, w = vk.coefficient_parts(m, z)
        poly = vk.l_coefficients(m, z)
        assert poly.coefficients == pytest.approx((u[1], c, w[1] + u[0], w[0]))

    def test_dual_path_agreement(self):
        rng = np.random.default_rng(8)
        for model, z in draw_models(300, seed=17):
            xs = rng.uniform(0.0, 10.0, 5)
            poly = vk.l_coefficients(model, z)
            direct = vk.l_eval_direct(model, z, xs)
            via_poly = eval_dpoly(poly, xs) if not poly.is_zero else np.zeros(5)
            scale = np.maximum(np.abs(direct), 1e-12)
            assert np.all(np.abs(via_poly - direct) / scale < 1e-10)

    def test_initial_value_formula(self):
        m = two_factor()
        z = np.array([0.02, -0.01])
        expected = float(m.mu @ m.kappa - (z * np.array(m.lam)) @ np.array(m.kappa))
        assert vk.l_eval_direct(m, z, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_finite_difference_of_forward(self):
        m = two_factor()
        z = (0.02, -0.01)
        h = 1e-5
        for x in (0.3, 1.7, 6.0):
            fd = (vk.forward_curve(m, z, x + h) - vk.forward_curve(m, z, x - h)) / (2 * h)
            assert vk.l_eval_direct(m, z, x) == pytest.approx(fd, abs=1e-6)

    def test_yield_derivative_halves_at_origin(self):
        for model, z in draw_models(200, seed=33):
            m_poly = vk.m_coefficients(model, z)
            m0 = eval_dpoly(m_poly, 0.0) if not m_poly.is_zero else 0.0
            l0 = vk.l_eval_direct(model, z, 0.0)
            assert abs(m0 - 0.5 * l0) <= 1e-10 * max(1.0, abs(l0))

    def test_same_coefficients_for_both_curves(self):
        for model, z in draw_models(50, seed=41):
            lp = vk.l_coefficients(model, z)
            mp = vk.m_coefficients(model, z)
            assert lp.coefficients == mp.coefficients
            assert lp.basis.decays == mp.basis.decays
            assert (lp.basis.kind, mp.basis.kind) == ("F", "G")

    def test_yield_derivative_is_weighted_average_of_forward_derivative(self):
        # m(x) = x^-2 * integral_0^x y l(y) dy, the hump-kernel transform
        rng = np.random.default_rng(6)
        for model, z in draw_models(15, seed=59):
            x = rng.uniform(0.3, 8.0)
            m_poly = vk.m_coefficients(model, z)
            if m_poly.is_zero:
                continue
            expected = quad(
                lambda y: y * vk.l_eval_direct(model, z, y), 0.0, x, limit=200
            )[0] / (x * x)
            assert eval_dpoly(m_poly, x) == pytest.approx(expected, abs=1e-8)


class TestExactTransition:
    def test_deterministic_without_volatility(self):
        m = two_factor(sigma=(0.0, 0.0), rho=0.0)
        z = (0.05, -0.02)
        out = vk.ou_exact_step(m, z, 0.7, np.array([1.3, -0.4]))
        expected = vk.transition_mean(m, z, 0.7)
        assert out == pytest.approx(expected, rel=1e-14)

    def test_stationary_variance(self):
        m = two_factor(sigma=(0.4, 0.8), rho=0.25)
        rng = np.random.default_rng(10)
        dt = 50.0 / m.lam[0]
        draws = vk.ou_exact_step(m, (0.0, 0.0), dt, rng.standard_normal((100_000, 2)))
        for i in range(2):
            target = m.sigma[i] ** 2 / (2 * m.lam[i])
            assert np.var(draws[:, i]) == pytest.approx(target, rel=0.01)

    def test_transition_mean_monte_carlo(self):
        m = two_factor(sigma=(0.4, 0.8), rho=-0.5)
        z = (0.08, -0.03)
        dt = 0.5
        rng = np.random.default_rng(12)
        draws = vk.ou_exact_step(m, z, dt, rng.standard_normal((100_000, 2)))
        expected = vk.transition_mean(m, z, dt)
        cov = vk.transition_cov(m, dt)
        for i in range(2):
            se = math.sqrt(cov[i, i] / draws.shape[0])
            assert abs(float(np.mean(draws[:, i])) - expected[i]) < 3 * se

    def test_transition_covariance_formula(self):
        m = two_factor(sigma=(0.4, 0.8), rho=-0.5)
        dt = 0.8
        cov = vk.transition_cov(m, dt)
        for i in range(2):
            for j in range(2):
                rate = m.lam[i] + m.lam[j]
                expected = m.covariance()[i, j] * (1 - math.exp(-rate * dt)) / rate
                assert cov[i, j] == pytest.approx(expected, rel=1e-12)

    def test_sample_covariance_matches(self):
        m = two_factor(sigma=(0.4, 0.8), rho=-0.5)
        dt = 0.8
        rng = np.random.default_rng(14)
        draws = vk.ou_exact_step(m, (0.0, 0.0), dt, rng.standard_normal((200_000, 2)))
        sample = np.cov(draws.T)
        assert sample == pytest.approx(vk.transition_cov(m, dt), rel=0.03)

    def test_noise_shape_validation(self):
        m = two_factor()
        with pytest.raises(ValueError):
            vk.ou_exact_step(m, (0.0, 0.0), 0.5, np.zeros(3))
        with pytest.raises(ValueError):
            vk.ou_exact_step(m, (0.0, 0.0), -0.5, np.zeros(2))

    def test_one_factor_step(self):
        m = VasicekModel(lam=(0.8,), theta=(0.02,), kappa=(1.0,), kappa0=0.0, sigma=(0.3,))
        rng = np.random.default_rng(16)
        draws = vk.ou_exact_step(m, (0.1,), 0.25, rng.standard_normal((50_000, 1)))
        var = m.sigma[0] ** 2 * (1 - math.exp(-2 * m.lam[0] * 0.25)) / (2 * m.lam[0])
        assert np.var(draws[:, 0]) == pytest.approx(var, rel=0.02)
