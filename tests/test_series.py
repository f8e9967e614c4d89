import numpy as np
import pytest
from scipy.integrate import quad

from ruinvest.model import ModelParams, regime_constants
from ruinvest.series import (SeriesExpansion, handoff_point, series_coefficients,
                             series_eval)

M = 1.0


def test_leading_coefficients_example1(example1):
    se = series_coefficients(example1, M, example1.a)
    assert se.D[1] == pytest.approx(4.5)            # lambda / c
    assert se.D[2] == pytest.approx(2.5)            # -((mu_bar - lam)/c + 1/m)
    assert se.D[3] == pytest.approx(0.75)
    # V's coefficients are C_k = D_k / k: V' from the D_k is V's slope
    x, h = 0.01, 1e-6
    V = lambda x: series_eval(se, x, example1)[0]
    assert (V(x + h) - V(x - h)) / (2 * h) == pytest.approx(
        series_eval(se, x, example1)[1], rel=1e-9)


def test_boundary_values_example1(example1):
    se = series_coefficients(example1, M, example1.a)
    V, Vp, Vpp, J = series_eval(se, 1e-12, example1)
    assert V == pytest.approx(1.0, abs=1e-10)
    assert Vp == pytest.approx(4.5, abs=1e-10)
    assert Vpp == pytest.approx(11.25, abs=1e-8)


def test_second_derivative_two_routes(example1):
    # D1 * D2 must equal (lam/c)(lam/c - f(0+) - (r + gamma(mu-r))/c)
    se = series_coefficients(example1, M, example1.a)
    lam, c = example1.lam, example1.c
    gamma = example1.a
    excess = example1.mu - example1.r
    formula = (lam / c) * (lam / c - 1.0 / M - (example1.r + gamma * excess) / c)
    assert se.D[1] * se.D[2] == pytest.approx(formula, abs=1e-8)
    assert formula == pytest.approx(11.25)
    assert formula > 0  # convex start, matching the condition check


def test_series_satisfies_regime_equation(example1):
    # residual of the constant-regime equation is o(x^{K-1}) near zero;
    # J from the regime identity must match direct kernel quadrature
    se = series_coefficients(example1, M, example1.a)
    rc = regime_constants(example1, example1.a)
    for x in (1e-4, 1e-3, 5e-3):
        V, Vp, Vpp, J = series_eval(se, x, example1)
        Jq, _ = quad(lambda z: series_eval(se, x - z, example1)[0]
                     * np.exp(-z / M) / M, 0.0, x, limit=200,
                     epsabs=1e-13, epsrel=1e-12)
        assert J == pytest.approx(Jq, abs=1e-10)
        resid = (example1.lam * (J - V) + (example1.c + rc.mu_bar * x) * Vp
                 + 0.5 * rc.sigma_bar**2 * x**2 * Vpp)
        assert abs(resid) <= 1e-12 * example1.lam * V


def test_handoff_clamps_linear_series(example1):
    # all D_k = 0 for k >= 2: a degree-1 polynomial is valid everywhere,
    # so the handoff sits at the upper clamp
    D = np.zeros(41)
    D[1] = 4.5
    se = SeriesExpansion(gamma=example1.a, mu_bar=0.02, sigma_bar=0.1, D=D, K=40)
    assert handoff_point(se, example1) == pytest.approx(0.1)


def test_handoff_shrinks_with_coefficient_growth(example1):
    se = series_coefficients(example1, M, example1.a)
    xs = []
    for scale in (1.0, 1e3, 1e6):
        D = se.D.copy()
        D[2:] *= scale
        boosted = SeriesExpansion(gamma=se.gamma, mu_bar=se.mu_bar, sigma_bar=se.sigma_bar,
                                  D=D, K=se.K)
        xs.append(handoff_point(boosted, example1))
    assert xs[0] >= xs[1] >= xs[2]


def test_handoff_respects_first_switch_example1(example1):
    # the maximal-long branch leaves the case table at x1 ~ 0.0219; the
    # handoff must stay strictly below it
    se = series_coefficients(example1, M, example1.a)
    x_eps = handoff_point(se, example1)
    assert 1e-6 <= x_eps <= 0.015
    # regression fixture (recorded after first verified computation)
    assert x_eps == pytest.approx(0.01110973430469762, rel=1e-6)


def test_series_requires_minimum_order(example1):
    with pytest.raises(ValueError):
        series_coefficients(example1, M, example1.a, K=2)
