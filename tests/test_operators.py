import math

import numpy as np
import pytest

from ruinvest.model import ExponentialClaims, ModelParams
from ruinvest.operators import (PointState, curvature, deficit, generator, indicator,
                                infimum, jump_operator, optimal_fraction,
                                optimal_fraction_by_comparison, regime_for_indicator,
                                regime_for_theta, switching_thresholds, theta_for,
                                vertex_fraction)


# ---------------------------------------------------------------------------
# jump operator
# ---------------------------------------------------------------------------

def test_jump_operator_constant_function(exp_law):
    # M(1)(x) = lambda (1 - F(x))
    xs = np.linspace(0.0, 6.0, 400)
    ones = np.ones_like(xs)
    for x in (0.5, 1.0, 3.0):
        got = jump_operator(ones, xs, exp_law, x, lam=0.09)
        assert got == pytest.approx(0.09 * (1 - exp_law.cdf(x)), abs=1e-9)


def test_jump_operator_at_zero(exp_law):
    xs = np.linspace(0.0, 1.0, 50)
    assert jump_operator(np.ones_like(xs), xs, exp_law, 0.0, lam=0.09) == pytest.approx(0.09)


def test_jump_operator_identity_function():
    # V(y) = y, exponential mean 1, lambda = 1, x = 1:
    # M = 1 - int_0^1 (1-s) e^{-s} ds = 1 - e^{-1}
    law = ExponentialClaims(1.0)
    xs = np.linspace(0.0, 1.0, 800)
    got = jump_operator(xs.copy(), xs, law, 1.0, lam=1.0)
    assert got == pytest.approx(1.0 - math.exp(-1.0), abs=1e-7)


def test_jump_operator_positive_for_increasing_tables(exp_law):
    rng = np.random.default_rng(11)
    xs = np.linspace(0.0, 5.0, 300)
    for _ in range(20):
        vals = np.cumsum(rng.uniform(0.001, 0.1, xs.size))
        x = float(rng.uniform(0.5, 5.0))
        assert jump_operator(vals, xs, exp_law, x, lam=0.09) > 0


def test_jump_operator_rejects_negative_level(exp_law):
    xs = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        jump_operator(np.ones_like(xs), xs, exp_law, -0.5, lam=0.09)


# ---------------------------------------------------------------------------
# generator and vertex
# ---------------------------------------------------------------------------

def test_generator_theta_zero(example1):
    p = PointState(x=2.0, V=1.5, Vp=0.8, MV=0.04, Vpp=-0.3)
    want = (example1.c + example1.r * 2.0) * 0.8 - 0.04
    assert generator(0.0, p, example1) == pytest.approx(want, rel=1e-14)


def test_generator_explicit_point(example1):
    # 0.01*1*1/2*(-1) + [0.02 + 0.015 + 0.005]*1 - 0.05 = -0.015
    p = PointState(x=1.0, V=1.0, Vp=1.0, MV=0.05, Vpp=-1.0)
    assert generator(1.0, p, example1) == pytest.approx(-0.015, rel=1e-12)


def test_vertex_fraction_example(example1):
    p = PointState(x=1.0, V=1.0, Vp=4.5, MV=0.0, Vpp=-1.0)
    # -(0.005)(4.5) / (0.01 * 1 * (-1)) = 2.25
    assert vertex_fraction(p, example1) == pytest.approx(2.25, rel=1e-12)


def test_vertex_fraction_mu_equals_r():
    p = ModelParams(c=0.02, lam=0.09, mu=0.015, r=0.015, sigma=0.1, a=1.0, b=20.0)
    st = PointState(x=1.0, V=1.0, Vp=4.5, MV=0.0, Vpp=-1.0)
    assert vertex_fraction(st, p) == 0.0


def test_vertex_fraction_zero_curvature_marker(example1):
    st = PointState(x=1.0, V=1.0, Vp=4.5, MV=0.0, Vpp=0.0)
    assert vertex_fraction(st, example1) is None


# ---------------------------------------------------------------------------
# maximiser case table
# ---------------------------------------------------------------------------

def test_maximizer_caps_at_a(example1):
    p = PointState(x=1.0, V=1.0, Vp=4.5, MV=0.0, Vpp=-1.0)  # vertex 2.25 > a
    res = optimal_fraction(p, example1)
    assert res.theta_star == example1.a
    assert res.branch == "cap-at-a"


def test_maximizer_convex_split(example1):
    # convex with vertex -0.4 > (a-b)/2 = -9.5 -> short side
    Vpp = 1.0
    Vp = 0.4 * example1.sigma**2 * 1.0 * Vpp / (example1.mu - example1.r)
    p = PointState(x=1.0, V=1.0, Vp=Vp, MV=0.0, Vpp=Vpp)
    assert vertex_fraction(p, example1) == pytest.approx(-0.4)
    res = optimal_fraction(p, example1)
    assert res.theta_star == -example1.b
    assert res.branch == "convex-split"


def test_maximizer_inflection(example1):
    p = PointState(x=1.0, V=1.0, Vp=4.5, MV=0.0, Vpp=0.0)
    res = optimal_fraction(p, example1)
    assert res.theta_star == example1.a  # mu > r
    assert res.branch == "inflection"
    p_low = ModelParams(c=0.02, lam=0.09, mu=0.01, r=0.015, sigma=0.1, a=1.0, b=20.0)
    assert optimal_fraction(PointState(1.0, 1.0, 4.5, 0.0, 0.0), p_low).theta_star == -20.0


def _random_states(rng, n):
    for _ in range(n):
        yield PointState(
            x=float(rng.uniform(0.05, 20.0)),
            V=float(rng.uniform(0.5, 40.0)),
            Vp=float(rng.uniform(0.01, 5.0)),
            MV=float(rng.uniform(0.0, 0.2)),
            Vpp=float(rng.uniform(-3.0, 3.0)),
        )


def test_maximizer_is_argmax_by_dense_sampling(example1):
    rng = np.random.default_rng(23)
    thetas = np.linspace(-example1.b, example1.a, 501)
    for p in _random_states(rng, 150):
        star = optimal_fraction(p, example1).theta_star
        best = generator(star, p, example1)
        vals = [generator(t, p, example1) for t in thetas]
        scale = max(1.0, abs(best))
        assert best >= max(vals) - 1e-12 * scale


def test_maximizer_matches_direct_comparison(example1):
    rng = np.random.default_rng(29)
    for p in _random_states(rng, 150):
        a = optimal_fraction(p, example1)
        b = optimal_fraction_by_comparison(p, example1)
        ga = generator(a.theta_star, p, example1)
        gb = generator(b.theta_star, p, example1)
        assert ga == pytest.approx(gb, rel=1e-10, abs=1e-14)


# ---------------------------------------------------------------------------
# kernel: indicator, curvature and their identities
# ---------------------------------------------------------------------------

def _I(p, params):
    return deficit(params, p.x, p.Vp, p.MV)


def _phi(p, params):
    return indicator(params, p.x, p.Vp, _I(p, params))


def test_policy_indicator_example_point(example1):
    # I = 0.08 - 0.035*4.5 = -0.0775; phi = 2(-0.0775)/(0.005*4.5)
    p = PointState(x=1.0, V=1.0, Vp=4.5, MV=0.08)
    phi = _phi(p, example1)
    assert phi == pytest.approx(2 * (-0.0775) / (0.005 * 4.5), rel=1e-12)
    assert phi == pytest.approx(-6.888888888888889, rel=1e-6)


def test_no_invest_deficit_values(example1):
    p = PointState(x=1.0, V=1.0, Vp=4.5, MV=0.08)
    assert _I(p, example1) == pytest.approx(-0.0775, rel=1e-12)
    p0 = PointState(x=1.0, V=1.0, Vp=0.0, MV=0.08)
    assert _I(p0, example1) == pytest.approx(0.08)


def test_indicator_deficit_sign_agreement(example1, example3):
    rng = np.random.default_rng(31)
    for params in (example1, example3):
        for p in _random_states(rng, 60):
            I = _I(p, params)
            if I == 0.0:
                continue
            phi = _phi(p, params)
            assert np.sign(phi) == np.sign(I) * np.sign(params.mu - params.r)


def test_indicator_undefined_when_rates_equal():
    p = ModelParams(c=0.02, lam=0.09, mu=0.015, r=0.015, sigma=0.1, a=1.0, b=20.0)
    assert math.isnan(indicator(p, 1.0, 4.5, 0.3))
    assert np.all(np.isnan(indicator(p, np.ones(3), np.ones(3), np.ones(3))))


def test_phi_psi_identity(example1):
    # psi * sigma^2 * x * phi = -(mu - r) * Vp wherever both defined, psi the
    # interior curvature
    rng = np.random.default_rng(37)
    for p in _random_states(rng, 100):
        phi = _phi(p, example1)
        if phi == 0.0:
            continue
        psi = curvature("INT", example1, p.x, p.Vp, p.MV)
        lhs = psi * example1.sigma**2 * p.x * phi
        rhs = -(example1.mu - example1.r) * p.Vp
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_psi_undefined_when_deficit_vanishes(example1):
    Vp = 2.0
    MV = (example1.c + example1.r * 1.0) * Vp  # I = 0 exactly
    p = PointState(x=1.0, V=1.0, Vp=Vp, MV=MV)
    assert _phi(p, example1) == pytest.approx(0.0)
    with np.errstate(divide="ignore"):
        psi = curvature("INT", example1, np.array([1.0]), np.array([Vp]), np.array([MV]))
    assert not np.isfinite(psi[0])


def test_regime_vertex_curvature_identity(example1):
    # along L(gamma) V = 0 the vertex is -gamma^2 (mu - r) x V' / (2 den),
    # den = M - (c + r x + (mu - r) gamma x) V'; with the kernel's V'' it is
    # also -(mu - r) V' / (sigma^2 x V'')
    rng = np.random.default_rng(41)
    for gamma, regime in ((example1.a, "A"), (-example1.b, "B")):
        for p in _random_states(rng, 60):
            den = p.MV - (example1.c + example1.r * p.x
                          + (example1.mu - example1.r) * gamma * p.x) * p.Vp
            if den == 0.0:
                continue
            xi = -(gamma**2) * (example1.mu - example1.r) * p.x * p.Vp / (2.0 * den)
            eta = curvature(regime, example1, p.x, p.Vp, p.MV)
            assert eta == pytest.approx(
                2.0 * den / (example1.sigma**2 * gamma**2 * p.x**2), rel=1e-11)
            assert eta == pytest.approx(
                -(example1.mu - example1.r) * p.Vp / (example1.sigma**2 * p.x * xi),
                rel=1e-11)


def test_regime_curvature_increases_with_jump_value(example1):
    eta1 = curvature("A", example1, 2.0, 1.0, 0.05)
    eta2 = curvature("A", example1, 2.0, 1.0, 1.05)
    assert eta2 > eta1


def test_regime_quantities_match_solved_segment(example1, curve1):
    # on a constant-regime segment the regime's V'' is the curve's, so its
    # implied vertex is the curve's vertex
    seg = curve1.segments[1]  # the maximal-short stretch
    inside = (curve1.x > seg.lo * 1.05) & (curve1.x < seg.hi * 0.95)
    idx = np.nonzero(inside)[0][:: max(1, inside.sum() // 40)]
    for i in idx:
        p = PointState(x=curve1.x[i], V=curve1.V[i], Vp=curve1.Vp[i],
                       MV=example1.lam * (curve1.V[i] - curve1.J[i]), Vpp=curve1.Vpp[i])
        eta = curvature("B", example1, p.x, p.Vp, p.MV)
        assert eta == pytest.approx(curve1.Vpp[i], rel=1e-6, abs=1e-9)
        al = vertex_fraction(p, example1)
        xi = vertex_fraction(PointState(p.x, p.V, p.Vp, p.MV, eta), example1)
        if al is not None and xi is not None:
            assert xi == pytest.approx(al, rel=1e-6, abs=1e-6)


def test_zero_curvature_is_slope_of_slaved_derivative():
    # ZERO: V' = M/(c + r x), so V'' is its x-derivative given M'
    p = ModelParams(c=0.02, lam=0.09, mu=0.015, r=0.015, sigma=0.1, a=1.0, b=20.0)
    M = lambda x: 0.3 * np.exp(-0.4 * x) + 0.1 * x
    dM = lambda x: -0.12 * np.exp(-0.4 * x) + 0.1
    x, h = 2.0, 1e-5
    fd = (M(x + h) / (p.c + p.r * (x + h)) - M(x - h) / (p.c + p.r * (x - h))) / (2 * h)
    assert curvature("ZERO", p, x, None, M(x), dM(x)) == pytest.approx(fd, rel=1e-8)


def test_theta_for_and_regime_for_theta(example1):
    phi = np.array([-30.0, -0.5, 0.3, 5.0])
    assert np.array_equal(theta_for("INT", example1, phi), [-20.0, -0.5, 0.3, 1.0])
    assert np.array_equal(theta_for("A", example1, phi), [1.0] * 4)
    assert np.array_equal(theta_for("B", example1, phi), [-20.0] * 4)
    assert np.array_equal(theta_for("ZERO", example1, phi), [0.0] * 4)
    assert list(regime_for_theta(example1, np.array([1.0, -20.0, 0.3]))) == ["A", "B", "INT"]


# ---------------------------------------------------------------------------
# infimum-form curvature
# ---------------------------------------------------------------------------

def test_curvature_infimum_matches_solved_curve(example1, curve1):
    # the infimum form restates the HJB equation, so it reproduces V'' and
    # its argmin is the optimal fraction
    sel = (curve1.x > 0.5) & (curve1.Vp > 1e-8)
    idx = np.nonzero(sel)[0][:: max(1, sel.sum() // 50)]
    A = 1e-6 * min(example1.a, example1.b)
    for i in idx:
        MV = example1.lam * (curve1.V[i] - curve1.J[i])
        got, theta = infimum(example1, curve1.x[i], curve1.Vp[i], MV, A)
        assert got == pytest.approx(curve1.Vpp[i], rel=1e-6, abs=1e-10)
        assert theta == pytest.approx(curve1.theta_star[i], rel=1e-4)


def test_curvature_infimum_mu_equal_r_endpoint():
    # theta-free numerator: the ratio is monotone in 1/theta^2, so with a
    # positive numerator the infimum sits at the largest feasible |theta|
    p = ModelParams(c=0.02, lam=0.09, mu=0.015, r=0.015, sigma=0.1, a=1.0, b=20.0)
    st = PointState(x=2.0, V=2.0, Vp=0.5, MV=0.2)
    I = _I(st, p)
    assert I > 0
    got, theta = infimum(p, st.x, st.Vp, st.MV, exclusion=1e-6)
    want = 2.0 * I / (p.sigma**2 * p.b**2 * st.x**2)
    assert got == pytest.approx(want, rel=1e-12)
    assert theta == -p.b


def test_curvature_infimum_rejects_large_exclusion(example1):
    with pytest.raises(ValueError):
        infimum(example1, 1.0, 1.0, 0.1, exclusion=example1.a)


def test_scale_invariance_of_pointwise_policy(example1):
    # multiplying (V, Vp, Vpp, MV) by k > 0 changes no policy quantity
    rng = np.random.default_rng(43)
    for p in _random_states(rng, 50):
        for k in (3.7, 0.02):
            q = PointState(x=p.x, V=k * p.V, Vp=k * p.Vp, MV=k * p.MV, Vpp=k * p.Vpp)
            assert vertex_fraction(q, example1) == pytest.approx(
                vertex_fraction(p, example1), rel=1e-12)
            assert _phi(q, example1) == pytest.approx(_phi(p, example1), rel=1e-12)
            r1, r2 = optimal_fraction(p, example1), optimal_fraction(q, example1)
            assert r1.branch == r2.branch
            assert r1.theta_star == pytest.approx(r2.theta_star, rel=1e-12)


# ---------------------------------------------------------------------------
# switching thresholds
# ---------------------------------------------------------------------------

def test_thresholds_example1(example1):
    t = switching_thresholds(example1)
    assert t.interior_bound == 1.0
    assert t.extreme_bound == pytest.approx(40.0 / 19.0)
    assert t.extreme_regime == "B"


def test_thresholds_mirrored(example2):
    t = switching_thresholds(example2)
    assert t.interior_bound == -1.0
    assert t.extreme_bound == pytest.approx(-40.0 / 19.0)
    assert t.extreme_regime == "A"


def test_threshold_absent_when_bounds_equal():
    p = ModelParams(c=0.02, lam=0.09, mu=0.02, r=0.015, sigma=0.1, a=2.0, b=2.0)
    t = switching_thresholds(p)
    assert t.extreme_bound is None


def test_regime_for_indicator_case_tables(example1, example2):
    thr = 40.0 / 19.0
    assert regime_for_indicator(0.5, example1) == "INT"
    assert regime_for_indicator(1.5, example1) == "A"
    assert regime_for_indicator(thr + 0.01, example1) == "B"
    assert regime_for_indicator(-0.5, example2) == "INT"
    assert regime_for_indicator(-1.5, example2) == "B"
    assert regime_for_indicator(-thr - 0.01, example2) == "A"
