import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from ruinvest.exp_solver import X0, SolverAbort, _start, handoff_point, series_coefficients, solve
from ruinvest.model import regime_constants
from ruinvest.operators import indicator, indicator_bands

M = 1.0


def test_leading_coefficients_example1(example1, near_zero_series):
    D1, D2, D3 = series_coefficients(example1, M, example1.a)
    assert (D1, D2, D3) == pytest.approx((4.5, 2.5, 0.75))  # lambda/c, -((mu_bar - lam)/c + 1/m)
    # the closed forms are the recursion's first three terms, bit for bit
    se = near_zero_series(example1, M, example1.a)
    assert (D1, D2, D3) == tuple(se.D[1:4])
    # V's coefficients are C_k = D_k / k: V' from the D_k is V's slope
    x, h = 0.01, 1e-6
    assert (se(x + h)[0] - se(x - h)[0]) / (2 * h) == pytest.approx(se(x)[1], rel=1e-9)


def test_boundary_values_example1(example1, near_zero_series):
    # the x = 0 row of the curve, and the start state at X0 from three Taylor
    # terms against the 40-term series (exact there to about D4 X0^3)
    D, regime, x0, (w, L, V) = _start(example1, M)
    assert (regime, x0) == ("A", X0) and D == series_coefficients(example1, M, example1.a)
    Vs, Vps, Vpps, Js = near_zero_series(example1, M, example1.a)(X0)
    assert V == pytest.approx(Vs, rel=1e-15)
    assert math.exp(L) == pytest.approx(Vps, rel=1e-15)
    rc = regime_constants(example1, example1.a)
    assert w == pytest.approx((rc.mu_bar - example1.r) * X0
                              + rc.sigma_bar**2 * X0**2 * Vpps / (2.0 * Vps), rel=1e-13)
    cur = solve(example1, M)
    assert (cur.x[0], cur.V[0], cur.J[0], cur.x[1]) == (0.0, 1.0, 0.0, X0)
    assert cur.Vp[0] == 4.5 and cur.Vpp[0] == pytest.approx(11.25, abs=1e-12)
    assert cur.phi[0] == 2.0 * example1.a and cur.regime[0] == "A"


def test_second_derivative_two_routes(example1):
    # D1 * D2 must equal (lam/c)(lam/c - f(0+) - (r + gamma(mu-r))/c)
    D1, D2, _ = series_coefficients(example1, M, example1.a)
    lam, c = example1.lam, example1.c
    gamma = example1.a
    excess = example1.mu - example1.r
    formula = (lam / c) * (lam / c - 1.0 / M - (example1.r + gamma * excess) / c)
    assert D1 * D2 == pytest.approx(formula, abs=1e-8)
    assert formula == pytest.approx(11.25)
    assert formula > 0  # convex start, matching the condition check


def test_series_satisfies_regime_equation(example1, near_zero_series):
    # residual of the constant-regime equation is o(x^{K-1}) near zero;
    # J from the regime identity must match direct kernel quadrature
    se = near_zero_series(example1, M, example1.a)
    rc = regime_constants(example1, example1.a)
    for x in (X0, 1e-4, 1e-3, 5e-3):
        V, Vp, Vpp, J = se(x)
        Jq, _ = quad(lambda z: se(x - z)[0] * np.exp(-z / M) / M, 0.0, x, limit=200,
                     epsabs=1e-13, epsrel=1e-12)
        assert J == pytest.approx(Jq, abs=1e-10)
        resid = (example1.lam * (J - V) + (example1.c + rc.mu_bar * x) * Vp
                 + 0.5 * rc.sigma_bar**2 * x**2 * Vpp)
        assert abs(resid) <= 1e-12 * example1.lam * V


def test_handoff_respects_first_switch_example1(example1):
    # the maximal-long branch leaves the case table at x1 ~ 0.0219; the march
    # starts far below it, with phi(X0) inside A's band [a, 2ab/(b-a)]
    _, regime, x0, (w, _, _) = _start(example1, M)
    assert x0 == handoff_point(example1, regime, w) == X0 == 1e-6
    lo, hi = indicator_bands(example1)["A"]
    assert lo <= indicator(example1, X0, 1.0, w) <= hi
    assert indicator(example1, X0, 1.0, w) == pytest.approx(2.0 * example1.a, rel=1e-4)


def test_handoff_refuses_start_outside_band(example1):
    # mu = r + 1e-8: the first switch sits below X0, where phi = 4.75 is past
    # A's band [1, 2.105]; the march would miss it (and once aborted at
    # x = 4.94 on the vertex-exclusion cutoff), so the start refuses
    p = replace(example1, mu=example1.r + 1e-8)
    with pytest.raises(SolverAbort) as err:
        solve(p, M)
    diag = err.value.diagnostics
    assert diag["X0"] == X0 and diag["band"] == indicator_bands(p)["A"]
    assert diag["phi"] == pytest.approx(4.75, rel=1e-5)
    assert f"X0={X0:g}" in str(err.value) and "phi(X0)=4.75" in str(err.value)
    assert "band (1.0, 2.1052631578947367)" in str(err.value)
    # mu = r with V''(0+) = 1.75e-7 > 0 but V''(X0) < 0: an unchecked start
    # runs B to x_max with V'' < 0 (theta = -20 where theta = 0 is optimal)
    p = replace(example1, mu=example1.r, lam=example1.r + example1.c * (1.0 + 1e-7))
    with pytest.raises(SolverAbort, match="lies outside its band w > 0"):
        solve(p, M)
