import math

import numpy as np
import pytest

from ruinvest.exp_solver import _segment_events, solve
from ruinvest.model import ModelParams
from ruinvest.model import regime_constants
from ruinvest.operators import (deficit, indicator, indicator_bands, infimum, regime_for_theta,
                                regime_fraction, slope_fn, theta_for, vertex_exclusion)


def _random_states(rng, n):
    """(x, Vp, MV) uniform on a box where I takes both signs."""
    for _ in range(n):
        yield (float(rng.uniform(0.05, 20.0)), float(rng.uniform(0.01, 5.0)),
               float(rng.uniform(0.0, 0.2)))


# ---------------------------------------------------------------------------
# maximiser case table: the kernel the solvers run against a dense argmax
# ---------------------------------------------------------------------------

# example 1, its mirror (mu < r, a > b), mu > r with a > b, mu < r with a < b
CASE_TABLE_CONFIGS = [
    ModelParams(c=0.02, lam=0.09, mu=0.02, r=0.015, sigma=0.1, a=1.0, b=20.0),
    ModelParams(c=0.02, lam=0.09, mu=0.02, r=0.025, sigma=0.1, a=20.0, b=1.0),
    ModelParams(c=0.02, lam=0.09, mu=0.02, r=0.015, sigma=0.1, a=20.0, b=1.0),
    ModelParams(c=0.02, lam=0.09, mu=0.01, r=0.015, sigma=0.1, a=1.0, b=20.0),
]


def _generator(p, x, Vp, MV, Vpp, theta):
    """L(theta) V = sigma^2 x^2 theta^2 V'' / 2 + (c + r x + (mu - r) theta x) V' - M."""
    return (0.5 * p.sigma**2 * x**2 * theta**2 * Vpp
            + (p.c + p.r * x + (p.mu - p.r) * theta * x) * Vp - MV)


def _positive_deficit_states(p, rng, n):
    """(x, Vp, MV, phi) with I > 0, as along every solution; states within 1e-6
    relative of a switching threshold, where two regimes tie, are skipped."""
    bounds = {t for band in indicator_bands(p).values() for t in band if t is not None}
    for _ in range(n):
        x, Vp = float(rng.uniform(0.05, 20.0)), float(rng.uniform(0.01, 5.0))
        MV = (p.c + p.r * x) * Vp * (1.0 + 10.0 ** rng.uniform(-4.0, 1.0))
        I = deficit(p, x, Vp, MV)
        assert I > 0
        phi = indicator(p, x, Vp, I)
        if all(abs(phi - t) > 1e-6 * abs(t) for t in bounds):
            yield x, Vp, MV, phi


def _check_sup_is_zero(p, x, Vp, MV, Vpp, theta, thetas):
    # theta maximises L V over [-b, a] at this V'', and the maximum is 0
    scale = (MV + (p.c + p.r * x) * Vp + abs(p.mu - p.r) * x * Vp * max(p.a, p.b)
             + 0.5 * p.sigma**2 * x**2 * max(p.a, p.b)**2 * abs(Vpp))
    tol = 1e-10 * scale
    assert -p.b <= theta <= p.a
    assert abs(_generator(p, x, Vp, MV, Vpp, theta)) <= tol
    assert np.max(_generator(p, x, Vp, MV, Vpp, thetas)) <= tol


def _state_at_indicator(p, x, Vp, phi):
    """M(V) that gives the indicator phi at (x, V')."""
    return (p.c + p.r * x) * Vp + 0.5 * phi * (p.mu - p.r) * x * Vp


def test_maximizer_caps_at_a(example1, curvature, regime_for_indicator):
    # a <= phi <= 2ab/(b-a): the table caps the fraction at a (regime A)
    x, Vp, phi = 1.0, 4.5, 1.5
    MV = _state_at_indicator(example1, x, Vp, phi)
    assert regime_for_indicator(phi, example1) == "A"
    assert theta_for("A", example1, np.array([phi]))[0] == example1.a
    Vpp = curvature("A", example1, x, Vp, MV)
    _check_sup_is_zero(example1, x, Vp, MV, Vpp, example1.a,
                       np.linspace(-example1.b, example1.a, 4001))


def test_maximizer_convex_split(example1, curvature, regime_for_indicator):
    # phi > 2ab/(b-a): the B curvature is convex in theta and its vertex lies
    # above (a-b)/2, so the far endpoint -b is the maximiser
    x, Vp, phi = 1.0, 4.5, 3.0
    MV = _state_at_indicator(example1, x, Vp, phi)
    assert regime_for_indicator(phi, example1) == "B"
    assert theta_for("B", example1, np.array([phi]))[0] == -example1.b
    Vpp = curvature("B", example1, x, Vp, MV)
    vertex = -(example1.mu - example1.r) * Vp / (example1.sigma**2 * x * Vpp)
    assert Vpp > 0 and vertex > 0.5 * (example1.a - example1.b)
    _check_sup_is_zero(example1, x, Vp, MV, Vpp, -example1.b,
                       np.linspace(-example1.b, example1.a, 4001))


def test_maximizer_is_argmax_by_dense_sampling(curvature, regime_for_indicator):
    # the case table (regime from phi, its curvature, its fraction) gives the
    # argmax of the generator, and sup_theta L V = 0 there
    for p in CASE_TABLE_CONFIGS:
        rng = np.random.default_rng(23)
        thetas = np.linspace(-p.b, p.a, 4001)
        regimes = set()
        for x, Vp, MV, phi in _positive_deficit_states(p, rng, 800):
            regime = regime_for_indicator(phi, p)
            regimes.add(regime)
            Vpp = curvature(regime, p, x, Vp, MV)
            theta = float(theta_for(regime, p, np.array([phi]))[0])
            _check_sup_is_zero(p, x, Vp, MV, Vpp, theta, thetas)
        # every regime of the table is reached: INT, the interior bound's
        # regime and, where the table has one, the extreme regime
        assert len(regimes) == len(indicator_bands(p))


def test_maximizer_matches_direct_comparison(curvature, regime_for_indicator):
    # infimum compares its candidate fractions directly; it picks the case
    # table's fraction and a V'' at which sup_theta L V = 0
    for p in CASE_TABLE_CONFIGS:
        rng = np.random.default_rng(29)
        thetas = np.linspace(-p.b, p.a, 4001)
        for x, Vp, MV, phi in _positive_deficit_states(p, rng, 800):
            regime = regime_for_indicator(phi, p)
            theta = float(theta_for(regime, p, np.array([phi]))[0])
            Vpp, theta_inf = infimum(p, x, Vp, MV, vertex_exclusion(p))
            assert theta_inf == pytest.approx(theta, rel=1e-12)
            assert Vpp == pytest.approx(curvature(regime, p, x, Vp, MV), rel=1e-9)
            _check_sup_is_zero(p, x, Vp, MV, Vpp, theta_inf, thetas)


# ---------------------------------------------------------------------------
# kernel: indicator, curvature and their identities
# ---------------------------------------------------------------------------

def _phi(params, x, Vp, MV):
    return indicator(params, x, Vp, deficit(params, x, Vp, MV))


def test_policy_indicator_example_point(example1):
    # I = 0.08 - 0.035*4.5 = -0.0775; phi = 2(-0.0775)/(0.005*4.5)
    phi = _phi(example1, 1.0, 4.5, 0.08)
    assert phi == pytest.approx(2 * (-0.0775) / (0.005 * 4.5), rel=1e-12)
    assert phi == pytest.approx(-6.888888888888889, rel=1e-6)


def test_no_invest_deficit_values(example1):
    assert deficit(example1, 1.0, 4.5, 0.08) == pytest.approx(-0.0775, rel=1e-12)
    assert deficit(example1, 1.0, 0.0, 0.08) == pytest.approx(0.08)


def test_indicator_deficit_sign_agreement(example1, example3):
    rng = np.random.default_rng(31)
    for params in (example1, example3):
        for x, Vp, MV in _random_states(rng, 60):
            I = deficit(params, x, Vp, MV)
            if I == 0.0:
                continue
            phi = _phi(params, x, Vp, MV)
            assert np.sign(phi) == np.sign(I) * np.sign(params.mu - params.r)


def test_indicator_undefined_when_rates_equal():
    p = ModelParams(c=0.02, lam=0.09, mu=0.015, r=0.015, sigma=0.1, a=1.0, b=20.0)
    assert math.isnan(indicator(p, 1.0, 4.5, 0.3))
    assert np.all(np.isnan(indicator(p, np.ones(3), np.ones(3), np.ones(3))))


def test_phi_psi_identity(example1, curvature):
    # psi * sigma^2 * x * phi = -(mu - r) * Vp wherever both defined, psi the
    # interior curvature
    rng = np.random.default_rng(37)
    for x, Vp, MV in _random_states(rng, 100):
        phi = _phi(example1, x, Vp, MV)
        if phi == 0.0:
            continue
        psi = curvature("INT", example1, x, Vp, MV)
        lhs = psi * example1.sigma**2 * x * phi
        rhs = -(example1.mu - example1.r) * Vp
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_psi_undefined_when_deficit_vanishes(example1, curvature):
    Vp = 2.0
    MV = (example1.c + example1.r * 1.0) * Vp  # I = 0 exactly
    assert _phi(example1, 1.0, Vp, MV) == pytest.approx(0.0)
    with np.errstate(divide="ignore"):
        psi = curvature("INT", example1, np.array([1.0]), np.array([Vp]), np.array([MV]))
    assert not np.isfinite(psi[0])


def test_regime_vertex_curvature_identity(example1, curvature):
    # along L(gamma) V = 0 the vertex is -gamma^2 (mu - r) x V' / (2 den),
    # den = M - (c + r x + (mu - r) gamma x) V'; with the kernel's V'' it is
    # also -(mu - r) V' / (sigma^2 x V'')
    rng = np.random.default_rng(41)
    for gamma, regime in ((example1.a, "A"), (-example1.b, "B")):
        for x, Vp, MV in _random_states(rng, 60):
            den = MV - (example1.c + example1.r * x + (example1.mu - example1.r) * gamma * x) * Vp
            if den == 0.0:
                continue
            xi = -(gamma**2) * (example1.mu - example1.r) * x * Vp / (2.0 * den)
            eta = curvature(regime, example1, x, Vp, MV)
            assert eta == pytest.approx(
                2.0 * den / (example1.sigma**2 * gamma**2 * x**2), rel=1e-11)
            assert eta == pytest.approx(
                -(example1.mu - example1.r) * Vp / (example1.sigma**2 * x * xi), rel=1e-11)


def test_regime_curvature_increases_with_jump_value(example1, curvature):
    eta1 = curvature("A", example1, 2.0, 1.0, 0.05)
    eta2 = curvature("A", example1, 2.0, 1.0, 1.05)
    assert eta2 > eta1


def test_regime_quantities_match_solved_segment(example1, curve1, curvature):
    # on a constant-regime segment the regime's V'' is the curve's, so its
    # implied vertex -(mu - r) V' / (sigma^2 x V'') is the curve's vertex
    seg = curve1.segments[1]  # the maximal-short stretch
    inside = (curve1.x > seg.lo * 1.05) & (curve1.x < seg.hi * 0.95)
    idx = np.nonzero(inside)[0][:: max(1, inside.sum() // 40)]
    excess, s2 = example1.mu - example1.r, example1.sigma**2
    for i in idx:
        x, Vp, Vpp = curve1.x[i], curve1.Vp[i], curve1.Vpp[i]
        eta = curvature("B", example1, x, Vp, example1.lam * (curve1.V[i] - curve1.J[i]))
        assert eta == pytest.approx(Vpp, rel=1e-6, abs=1e-9)
        al = -excess * Vp / (s2 * x * Vpp)
        xi = -excess * Vp / (s2 * x * eta)
        assert xi == pytest.approx(al, rel=1e-6, abs=1e-6)


def test_zero_curvature_is_slope_of_slaved_derivative(curvature):
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
    x, Vp, MV = 2.0, 0.5, 0.2
    I = deficit(p, x, Vp, MV)
    assert I > 0
    got, theta = infimum(p, x, Vp, MV, exclusion=1e-6)
    want = 2.0 * I / (p.sigma**2 * p.b**2 * x**2)
    assert got == pytest.approx(want, rel=1e-12)
    assert theta == -p.b


def test_curvature_infimum_rejects_large_exclusion(example1):
    with pytest.raises(ValueError):
        infimum(example1, 1.0, 1.0, 0.1, exclusion=example1.a)


def test_scale_invariance_of_pointwise_policy(example1, regime_for_indicator):
    # multiplying (Vp, MV) by k > 0 changes no policy quantity: phi, the case
    # table's regime and infimum's fraction stay, and infimum's V'' scales by k
    rng = np.random.default_rng(43)
    A = vertex_exclusion(example1)
    for x, Vp, MV in _random_states(rng, 50):
        phi = _phi(example1, x, Vp, MV)
        Vpp, theta = infimum(example1, x, Vp, MV, A)
        for k in (3.7, 0.02):
            phi_k = _phi(example1, x, k * Vp, k * MV)
            assert phi_k == pytest.approx(phi, rel=1e-12)
            assert regime_for_indicator(phi_k, example1) == regime_for_indicator(phi, example1)
            Vpp_k, theta_k = infimum(example1, x, k * Vp, k * MV, A)
            assert theta_k == pytest.approx(theta, rel=1e-12)
            assert Vpp_k == pytest.approx(k * Vpp, rel=1e-12)


# ---------------------------------------------------------------------------
# switching thresholds
# ---------------------------------------------------------------------------

def test_thresholds_example1(example1):
    bands = indicator_bands(example1)
    assert bands["INT"] == (None, 1.0)
    assert bands["A"][0] == 1.0
    assert bands["A"][1] == pytest.approx(40.0 / 19.0)
    assert bands["B"] == (bands["A"][1], None)


def test_thresholds_mirrored(example2):
    bands = indicator_bands(example2)
    assert bands["INT"] == (-1.0, None)
    assert bands["B"][1] == -1.0
    assert bands["B"][0] == pytest.approx(-40.0 / 19.0)
    assert bands["A"] == (None, bands["B"][0])


def test_threshold_absent_when_bounds_equal():
    p = ModelParams(c=0.02, lam=0.09, mu=0.02, r=0.015, sigma=0.1, a=2.0, b=2.0)
    assert indicator_bands(p) == {"INT": (None, 2.0), "A": (2.0, None)}


def test_regime_for_indicator_table_edges(regime_for_indicator):
    # the regime at the interior bound (A for mu > r, B for mu < r) owns both
    # of its thresholds, and a NaN indicator maps to it; with a = b it is the
    # only constant regime
    for p in CASE_TABLE_CONFIGS:
        a, b = p.a, p.b
        if p.mu > p.r:
            near, far, inner = "A", "B", a
            outer = 2.0 * a * b / (b - a) if a < b else None
            into_int, into_far = -np.inf, np.inf
        else:
            near, far, inner = "B", "A", -b
            outer = -2.0 * a * b / (a - b) if a > b else None
            into_int, into_far = np.inf, -np.inf
        assert regime_for_indicator(inner, p) == near
        assert regime_for_indicator(np.nextafter(inner, into_int), p) == "INT"
        assert regime_for_indicator(math.nan, p) == near
        if outer is None:
            assert regime_for_indicator(np.nextafter(inner, into_far), p) == near
            assert regime_for_indicator(1e6 * inner, p) == near
        else:
            assert regime_for_indicator(outer, p) == near
            assert regime_for_indicator(np.nextafter(outer, into_far), p) == far
            assert regime_for_indicator(np.nextafter(outer, into_int), p) == near
    for mu in (0.02, 0.01):
        p = ModelParams(c=0.02, lam=0.09, mu=mu, r=0.015, sigma=0.1, a=2.0, b=2.0)
        near, sign = ("A", 1.0) if mu > p.r else ("B", -1.0)
        for phi in (sign * 2.0, sign * 1e12, math.nan):
            assert regime_for_indicator(phi, p) == near
        assert regime_for_indicator(sign * 1.999, p) == "INT"
    # each indicator row of the march's event table names the regime the table
    # gives one ulp past the row's bound, in the row's direction
    equal = [ModelParams(c=0.02, lam=0.09, mu=mu, r=0.015, sigma=0.1, a=2.0, b=2.0)
             for mu in (0.02, 0.01)]
    for p in CASE_TABLE_CONFIGS + equal:
        bands = indicator_bands(p)
        checked = 0
        for regime, (lo, hi) in bands.items():
            rows, _ = _segment_events(regime, p, 1.0)
            for name, direction, target in rows:
                if name not in ("indicator-interior-bound", "indicator-extreme-bound"):
                    continue
                level = lo if direction < 0 else hi
                assert target != regime
                assert target == regime_for_indicator(np.nextafter(level, direction * np.inf), p)
                checked += 1
        # each finite bound is crossed from both of the bands that share it
        assert checked == 2 * (len(bands) - 1)


def test_regime_for_indicator_case_tables(example1, example2, regime_for_indicator):
    thr = 40.0 / 19.0
    assert regime_for_indicator(0.5, example1) == "INT"
    assert regime_for_indicator(1.5, example1) == "A"
    assert regime_for_indicator(thr + 0.01, example1) == "B"
    assert regime_for_indicator(-0.5, example2) == "INT"
    assert regime_for_indicator(-1.5, example2) == "B"
    assert regime_for_indicator(-thr - 0.01, example2) == "A"


@pytest.mark.parametrize("which", ["1", "2", "3", "mu=r-ZERO"])
def test_slope_times_derivative_is_curvature(request, which, curvature):
    # u(x, w) V' = `curvature` with M = (w + c + r x) V', and in ZERO (w = 0)
    # M' = lambda V' - M/m, on the nodes of the example curves (w = I/V' from
    # phi) and of the mu = r curve that stays in ZERO.  curvature's difference
    # M - (c + drift x) V' loses digits in the ratio of its terms to the result
    # (up to 1e3 on INT's far field), and so does u's w + (r - drift) x when w
    # comes back from phi, so the bound is eps times that ratio
    if which == "mu=r-ZERO":
        p = ModelParams(c=0.1, lam=0.09, mu=0.015, r=0.015, sigma=0.1, a=1.0, b=20.0)
        cur = solve(p, 1.0)
    else:
        p, cur = request.getfixturevalue("example" + which), request.getfixturevalue("curve" + which)
    checked = 0
    for regime in ("INT", "A", "B", "ZERO"):
        sel = (cur.regime == regime) & (cur.x > cur.meta["x_eps"])
        x, Vp = cur.x[sel], cur.Vp[sel]
        u = slope_fn(regime, p, 1.0)[0]
        if regime == "ZERO":
            MV = (p.c + p.r * x) * Vp
            got, ref = u(x, 0.0) * Vp, curvature(regime, p, x, Vp, MV, p.lam * Vp - MV)
            ratio = (p.lam + p.r + p.c + p.r * x) / np.abs(p.lam - p.r - p.c - p.r * x)
        else:
            w = cur.phi[sel] * (p.mu - p.r) * x / 2.0
            drift = p.r if regime == "INT" else regime_constants(p, regime_fraction(p, regime)).mu_bar
            ratio = (np.abs(w) + 2.0 * p.c + (p.r + abs(drift)) * x) / np.abs(w + (p.r - drift) * x)
            got, ref = u(x, w) * Vp, curvature(regime, p, x, Vp, (w + p.c + p.r * x) * Vp)
        bound = 8 * np.finfo(float).eps * ratio
        assert np.all(np.abs(got / ref - 1.0) <= bound), regime
        # the Vpp column is this product on the march's own w; INT's k/w loses
        # nothing to the round trip of w through phi
        assert np.all(np.abs(got / cur.Vpp[sel] - 1.0) <= (1e-14 if regime == "INT" else bound))
        checked += sel.sum()
    assert checked == np.sum(cur.x > cur.meta["x_eps"]) > 300
