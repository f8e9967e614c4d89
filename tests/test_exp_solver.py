import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from ruinvest import exp_solver
from ruinvest.curve import SolutionCurve
from ruinvest.exp_solver import (SolveOptions, SolverAbort, _brentq, _rhs_for, _rk45_march,
                                 _segment_events, _segment_nodes, extrapolate_tail, solve)
from ruinvest.model import ExponentialClaims, ModelParams, regime_constants
from ruinvest.operators import curvature, indicator_bands, start_regime
from ruinvest.series import handoff_point, series_coefficients, series_eval

M = 1.0

# switch abscissas of Example 1, frozen after the first verified run
X1_FIX, X2_FIX, X3_FIX = 0.021941989, 3.207494533, 4.131445767


def _scalar_events(g, directions):
    """A fused event function split into solve_ivp's terminal scalar events."""
    out = []
    for i, direction in enumerate(directions):
        def e(x, y, i=i):
            return g(x, y)[i]
        e.terminal, e.direction = True, direction
        out.append(e)
    return out


# ---------------------------------------------------------------------------
# regime right-hand sides
# ---------------------------------------------------------------------------

def test_rhs_constant_matches_series_at_handoff(example1):
    se = series_coefficients(example1, M, example1.a)
    x_eps = handoff_point(se, example1)
    V, Vp, Vpp, J = series_eval(se, x_eps, example1)
    vpp = curvature("A", example1, x_eps, Vp, example1.lam * (V - J))
    assert vpp == pytest.approx(Vpp, rel=1e-8)


def test_rhs_constant_annihilates_constants(example1):
    # V constant with J = V (stationary convolution) gives V'' = 0
    assert curvature("A", example1, 1.0, 0.0, example1.lam * (2.0 - 2.0)) == 0.0


def test_rhs_constant_third_order_consistency(example1):
    # d/dx of the second-order form reproduces the third-order equation
    se = series_coefficients(example1, M, example1.a)
    rc = regime_constants(example1, example1.a)
    x = 0.008
    d = 1e-5
    vpp = {}
    for xx in (x - d, x + d):
        V, Vp, Vpp, J = series_eval(se, xx, example1)
        vpp[xx] = curvature("A", example1, xx, Vp, example1.lam * (V - J))
    fd_vppp = (vpp[x + d] - vpp[x - d]) / (2 * d)
    V, Vp, Vpp, J = series_eval(se, x, example1)
    mb, sb2 = rc.mu_bar, rc.sigma_bar**2
    ode_vppp = -((x**2 / M + 2 * (1 + mb / sb2) * x + 2 * example1.c / sb2) * Vpp
                 + 2 * (mb * x / (M * sb2) + (mb - example1.lam + example1.c / M) / sb2) * Vp) / x**2
    assert fd_vppp == pytest.approx(ode_vppp, rel=1e-5)


def test_rhs_interior_rejects_nonpositive_deficit(example1):
    # I < 0: the interior equation turns convex, and the interior row of the
    # event table is past its "deficit-zero" abort
    x, V, Vp, J = 5.0, 2.0, 10.0, 1.999
    assert curvature("INT", example1, x, Vp, example1.lam * (V - J)) > 0
    rows, g = _segment_events("INT", example1, M)
    i = [name for name, _, _ in rows].index("deficit-zero")
    assert g(x, np.array([V, Vp, V - J]))[i] < 0


def test_rhs_interior_vertex_identity(example1, curve1):
    # on interior nodes the indicator equals the vertex -(mu-r)V'/(sigma^2 x V'')
    seg = curve1.segments[-1]
    inside = (curve1.x > seg.lo + 0.5) & (curve1.x < seg.hi - 5.0)
    idx = np.nonzero(inside)[0][:: max(1, inside.sum() // 30)]
    for i in idx:
        al = -(example1.mu - example1.r) * curve1.Vp[i] / (
            example1.sigma**2 * curve1.x[i] * curve1.Vpp[i])
        assert al == pytest.approx(curve1.phi[i], rel=1e-8)


# ---------------------------------------------------------------------------
# full solve: structure, boundary values, invariants
# ---------------------------------------------------------------------------

def test_example1_structure(curve1):
    regimes = [s.regime for s in curve1.segments]
    assert regimes == ["A", "B", "A", "INT"]
    x1, x2, x3 = curve1.switch_points
    assert 0 < x1 < x2 < x3 < np.inf
    assert x1 == pytest.approx(X1_FIX, rel=1e-6)
    assert x2 == pytest.approx(X2_FIX, rel=1e-6)
    assert x3 == pytest.approx(X3_FIX, rel=1e-6)


def test_example2_starts_short(curve2):
    assert curve2.segments[0].regime == "B"
    assert [s.regime for s in curve2.segments] == ["B", "A", "B", "INT"]


def test_example3_structure(curve3):
    assert [s.regime for s in curve3.segments] == ["B", "INT"]


def test_no_short_excursion_when_convex_start_fails():
    # c = 0.1 violates the convex-start condition: no maximal-short stretch
    p = ModelParams(c=0.1, lam=0.09, mu=0.02, r=0.015, sigma=0.1, a=1.0, b=20.0)
    cur = solve(p, M)
    regimes = [s.regime for s in cur.segments]
    assert "B" not in regimes
    assert set(regimes) <= {"A", "INT"}


def test_boundary_values(curve1):
    assert curve1.V[0] == 1.0
    assert curve1.Vp[0] == pytest.approx(4.5, abs=1e-12)
    assert curve1.Vpp[0] == pytest.approx(11.25, abs=1e-8)
    assert curve1.J[0] == 0.0


def test_monotone_and_bounded(curve1, curve2, curve3):
    for cur in (curve1, curve2, curve3):
        assert np.all(np.diff(cur.V) > 0)
        assert np.all(cur.Vp > 0)
        assert cur.V[-1] <= cur.V_inf < np.inf


def test_j_state_matches_kernel_quadrature(example1, curve1):
    # J(x) = int_0^x V(x-z) exp(-z/m)/m dz on a sample of nodes
    sel = np.linspace(5, len(curve1.x) - 5, 12).astype(int)
    for i in sel:
        x = curve1.x[i]
        Jq, _ = quad(lambda z: float(curve1.value(x - z)) * np.exp(-z / M) / M,
                     0.0, x, limit=400, epsabs=1e-10, epsrel=1e-10)
        assert curve1.J[i] == pytest.approx(Jq, abs=1e-7)


def test_smoothness_at_switch_points(curve1, example1):
    # one-sided second-derivative estimates agree at each switch abscissa;
    # the node grid hugs the switch points so the quotients read the
    # integrator's dense output on each side
    for xi in curve1.switch_points:
        d = 1e-7 * max(1.0, xi)
        vpl = np.interp([xi - d, xi], curve1.x, curve1.Vp)
        vpr = np.interp([xi, xi + d], curve1.x, curve1.Vp)
        left = (vpl[1] - vpl[0]) / d
        right = (vpr[1] - vpr[0]) / d
        mid = 0.5 * (left + right)
        assert abs(right - left) <= 1e-4 * abs(mid)


def test_series_handoff_consistency(example1):
    # integrate the regime ODE from x_eps/2 to 2 x_eps and compare with the
    # series there (both inside the series validity radius)
    se = series_coefficients(example1, M, example1.a)
    x_eps = handoff_point(se, example1)
    x0, x1 = x_eps / 2.0, min(2.0 * x_eps, 0.021)  # stay inside the first regime
    V0, Vp0, Vpp0, J0 = series_eval(se, x0, example1)
    rc = regime_constants(example1, example1.a)

    def rhs(x, y):
        V, Vp, D = y
        vpp = 2.0 * (example1.lam * D - (example1.c + rc.mu_bar * x) * Vp) / (
            rc.sigma_bar**2 * x**2)
        return [Vp, vpp, Vp - D / M]

    sol = solve_ivp(rhs, (x0, x1), [V0, Vp0, V0 - J0], rtol=1e-12, atol=1e-14)
    V1, Vp1, Vpp1, J1 = series_eval(se, x1, example1)
    assert sol.y[0][-1] == pytest.approx(V1, rel=1e-7)
    assert sol.y[1][-1] == pytest.approx(Vp1, rel=1e-7)


def test_detect_switch_standalone(example1):
    # march the starting regime with only its row of the event table and
    # locate the first crossing
    se = series_coefficients(example1, M, example1.a)
    x_eps = handoff_point(se, example1)
    V0, Vp0, Vpp0, J0 = series_eval(se, x_eps, example1)
    rc = regime_constants(example1, example1.a)

    def rhs(x, y):
        V, Vp, D = y
        vpp = 2.0 * (example1.lam * D - (example1.c + rc.mu_bar * x) * Vp) / (
            rc.sigma_bar**2 * x**2)
        return [Vp, vpp, Vp - D / M]

    rows, g = _segment_events("A", example1, M)
    sol = solve_ivp(rhs, (x_eps, 0.05), np.array([V0, Vp0, V0 - J0]), rtol=1e-12, atol=1e-14,
                    events=_scalar_events(g, [direction for _, direction, _ in rows]))
    x, kind, target = min((te[0], name, target)
                          for (name, _, target), te in zip(rows, sol.t_events) if len(te))
    assert kind == "indicator-extreme-bound"
    assert target == "B"  # the regime across A's upper bound 2ab/(b-a)
    assert x == pytest.approx(X1_FIX, rel=1e-5)


# ---------------------------------------------------------------------------
# the RK45 march loop against scipy's solve_ivp
# ---------------------------------------------------------------------------

def _oscillator(t, y):
    return (y[1], -y[0])  # y = (sin t, cos t) from (0, 1)


def _assert_same_march(got, ref):
    assert np.array_equal(got.t, ref.t)
    assert np.array_equal(got.y, ref.y)
    assert (got.nfev, got.status) == (ref.nfev, ref.status)
    assert got.message == (ref.message if ref.status == -1 else None)
    # the fired row and its root: solve_ivp's one non-empty t_events entry
    fired = [(i, te[0]) for i, te in enumerate(ref.t_events) if len(te)]
    assert fired == ([] if got.event is None else [(got.event, got.t[-1])])


# (name, event levels (value y[0] - level, or y[1] - level when tagged "cos"),
#  directions, t_bound, fired event or None)
MARCH_CASES = [
    ("up", [("sin", 0.5), ("cos", -0.9)], [1, -1], 6.0, 0),
    ("down", [("sin", 2.0), ("cos", 0.2)], [1, -1], 6.0, 1),
    ("first-step", [("sin", 1e-3), ("cos", -0.5)], [1, -1], 6.0, 0),
    ("two-in-one-step", [("sin", 0.5000001), ("sin", 0.5)], [1, 1], 6.0, 1),
    ("t-bound", [("sin", 2.0), ("cos", -2.0)], [1, -1], 3.0, None),
]


@pytest.mark.parametrize("name, levels, directions, t_bound, fired", MARCH_CASES,
                         ids=[c[0] for c in MARCH_CASES])
def test_rk45_march_matches_solve_ivp(name, levels, directions, t_bound, fired):
    slot = {"sin": 0, "cos": 1}

    def g(t, y):
        y = y.tolist()
        return tuple(y[slot[k]] - level for k, level in levels)

    y0 = np.array([0.0, 1.0])
    options = dict(rtol=1e-8, atol=[1e-10, 1e-12], max_step=0.5)
    ref = solve_ivp(_oscillator, (0.0, t_bound), y0, method="RK45", dense_output=True,
                    events=_scalar_events(g, directions), **options)
    got = _rk45_march(_oscillator, (0.0, t_bound), y0, g, directions, **options)

    _assert_same_march(got, ref)
    grid = np.sort(np.concatenate([got.t, np.linspace(0.0, got.t[-1], 97)]))
    assert np.array_equal(got.sol(grid), ref.sol(grid))

    assert got.status == (0 if fired is None else 1)
    assert got.event == fired
    if name == "first-step":
        assert len(got.t) == 2
    if name == "two-in-one-step":
        # the later level alone ends the march in the same step: both fired there
        alone = _rk45_march(_oscillator, (0.0, t_bound), y0, lambda t, y: (y[0] - levels[0][1],),
                            [1], **options)
        assert alone.t[-2] == got.t[-2] < got.t[-1] < alone.t[-1]


def _van_der_pol(t, y):
    return (y[1], 8.0 * (1.0 - y[0] ** 2) * y[1] - y[0])


def test_rk45_march_rejected_steps_match_solve_ivp():
    # a stiff stretch of the van der Pol cycle makes the step control reject
    def g(t, y):
        return (y[0] - 5.0,)  # never reached

    y0 = np.array([2.0, 0.0])
    options = dict(rtol=1e-6, atol=1e-9, max_step=0.5)
    ref = solve_ivp(_van_der_pol, (0.0, 12.0), y0, method="RK45", dense_output=True,
                    events=_scalar_events(g, [1]), **options)
    got = _rk45_march(_van_der_pol, (0.0, 12.0), y0, g, [1], **options)
    _assert_same_march(got, ref)
    assert got.rejected > 0
    assert got.nfev == 2 + 6 * (len(got.t) - 1 + got.rejected)
    grid = np.sort(np.concatenate([got.t, np.linspace(0.0, 12.0, 301)]))
    assert np.array_equal(got.sol(grid), ref.sol(grid))


def test_rk45_march_failure_matches_solve_ivp():
    # the right-hand side turns NaN beyond x = 2: every step reaching past it
    # is rejected until the step falls below scipy's minimum
    def nan_beyond_two(t, y):
        return _oscillator(t, y) if t < 2.0 else (np.nan, np.nan)

    def g(t, y):
        return (y[0] - 2.0,)  # never reached

    y0 = np.array([0.0, 1.0])
    options = dict(rtol=1e-8, atol=[1e-10, 1e-12], max_step=0.5)
    ref = solve_ivp(nan_beyond_two, (0.0, 6.0), y0, method="RK45", dense_output=True,
                    events=_scalar_events(g, [1]), **options)
    got = _rk45_march(nan_beyond_two, (0.0, 6.0), y0, g, [1], **options)
    assert ref.status == -1
    _assert_same_march(got, ref)
    assert 1.9 < got.t[-1] < 2.0
    assert got.rejected > 0


def test_rk45_march_dense_output_bits():
    # long steps on a growing and a decaying mode: each step's increment h Q p
    # dwarfs its start value, so a change in how Q p is summed shows in the bits
    def grow(t, y):
        return (y[1], y[0] + 0.5 * y[1], -2.0 * y[2])

    def g(t, y):
        return (y[0] - 1e300,)  # never reached

    y0 = np.array([1.0, 0.0, 1.0])
    options = dict(rtol=1e-3, atol=1e-6, max_step=2.0)
    ref = solve_ivp(grow, (0.0, 30.0), y0, method="RK45", dense_output=True,
                    events=_scalar_events(g, [1]), **options)
    got = _rk45_march(grow, (0.0, 30.0), y0, g, [1], **options)
    _assert_same_march(got, ref)
    rng = np.random.default_rng(3)
    t = got.t
    grid = np.sort(np.concatenate([t, *[t[i] + (t[i + 1] - t[i]) * rng.random(i % 4)
                                        for i in range(len(t) - 1)]]))
    assert np.array_equal(got.sol(grid), ref.sol(grid))


# ---------------------------------------------------------------------------
# the event root finder against scipy's brentq
# ---------------------------------------------------------------------------

_EPS4 = 4 * np.finfo(float).eps

# (name, f(x, p), bracket of the root at p): p seeds the shape
BRENT_FAMILIES = [
    ("smooth", lambda x, p: np.sin(x) - p, lambda p: (np.arcsin(p) - 0.5, np.arcsin(p) + 0.3)),
    ("cubic", lambda x, p: (x - p) ** 3 + 1e-3 * (x - p), lambda p: (p - 2.0, p + 3.0)),
    ("steep", lambda x, p: np.tanh(200.0 * (x - p)), lambda p: (p - 1.0, p + 0.5)),
    ("power", lambda x, p: x ** 7 - p, lambda p: (0.0, 2.0)),
]


@pytest.mark.parametrize("name, f, bracket", BRENT_FAMILIES, ids=[b[0] for b in BRENT_FAMILIES])
def test_brentq_matches_scipy_bits(name, f, bracket):
    rng = np.random.default_rng(14)
    for p in rng.uniform(0.05, 0.95, 40):
        a, b = bracket(p)
        for lo, hi in ((a, b), (b, a)):
            calls = []

            def g(x):
                calls.append(x)
                return float(f(x, p))
            got = _brentq(g, lo, hi, xtol=_EPS4, rtol=_EPS4)
            n = len(calls)
            assert got == brentq(g, lo, hi, xtol=_EPS4, rtol=_EPS4)
            assert calls[:n] == calls[n:]  # the same abscissas, in the same order
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x * x + 1.0, 0.0, 1.0, xtol=_EPS4, rtol=_EPS4)
    with pytest.raises(ValueError, match="is NaN"):
        _brentq(lambda x: math.nan, 0.0, 1.0, xtol=_EPS4, rtol=_EPS4)
    with pytest.raises(RuntimeError, match="Failed to converge after 2 iterations"):
        _brentq(lambda x: x ** 3 - 2.0, 0.0, 3.0, xtol=_EPS4, rtol=_EPS4, maxiter=2)


def test_brentq_matches_scipy_on_example1_events(monkeypatch, example1):
    # every event the example 1 solve roots is rooted again by scipy's brentq
    seen = []

    def both(f, a, b, **tol):
        got = _brentq(f, a, b, **tol)
        seen.append((got, brentq(f, a, b, **tol)))
        return got
    monkeypatch.setattr(exp_solver, "_brentq", both)
    curve = solve(example1, M)
    assert len(seen) >= len(curve.segments) - 1 == 3
    assert all(got == ref for got, ref in seen)


def _hjb_step_grid(t, rng):
    """0, 1, 2 and many points inside steps, plus every step end, sorted."""
    inner = [t[i] + (t[i + 1] - t[i]) * rng.random(i % 3) for i in range(len(t) - 1)]
    inner.append(t[3] + (t[4] - t[3]) * np.linspace(0.0, 1.0, 40))
    return np.sort(np.concatenate([t, *inner]))


def test_rk45_march_hjb_segments_match_solve_ivp(example1, curve1):
    # example 1's first A segment (ended by its switch event) and a short
    # stretch of the interior regime, each with the production event table
    rng = np.random.default_rng(8)
    x_eps = curve1.meta["x_eps"]
    lo = next(s.lo for s in curve1.segments if s.regime == "INT")
    i = int(np.searchsorted(curve1.x, lo))
    starts = [("A", x_eps, 44.0, series_eval(series_coefficients(example1, M, example1.a),
                                              x_eps, example1)),
              ("INT", lo, lo + 0.3, (curve1.V[i], curve1.Vp[i], None, curve1.J[i]))]
    options = dict(rtol=1e-10, atol=[1e-12, 1e-14, 1e-14], max_step=0.5)
    for regime, x0, x1, (V, Vp, _, J) in starts:
        y0 = np.array([V, Vp, V - J])
        rows, g = _segment_events(regime, example1, M)
        directions = [direction for _, direction, _ in rows]
        rhs = _rhs_for(regime, example1, M)
        ref = solve_ivp(rhs, (x0, x1), y0, method="RK45", dense_output=True,
                        events=_scalar_events(g, directions), **options)
        got = _rk45_march(rhs, (x0, x1), y0, g, directions, **options)
        _assert_same_march(got, ref)
        assert got.status == (1 if regime == "A" else 0)
        grid = _hjb_step_grid(got.t, rng)
        assert np.array_equal(got.sol(grid), ref.sol(grid))


def test_segment_nodes_match_linspace_loop():
    # the vectorised refinement against the per-gap np.linspace it replaces
    rng = np.random.default_rng(4)
    out_dx = 0.05
    t = np.cumsum(np.concatenate([[0.3], rng.exponential(0.04, 300), [out_dx, 0.5]]))
    lo, hi = t[0], t[-1]
    ref = [[lo]]
    for a, b in zip(t[:-1], t[1:]):
        gap = b - a
        ref.append(np.linspace(a, b, int(np.ceil(gap / out_dx)) + 1)[1:] if gap > out_dx
                   else [b])
    got = _segment_nodes(t, out_dx)
    assert np.array_equal(got, np.concatenate(ref))
    hugged = _segment_nodes(t, out_dx, hug_lo=True, hug_hi=True)
    assert np.array_equal(np.setdiff1d(hugged, got),
                          np.sort(np.concatenate([lo + np.array([1e-7, 2e-7, 1e-6]),
                                                  hi - np.array([1e-6, 2e-7, 1e-7]) * hi])))


def test_hjb_residual_spot_check(example1, curve1):
    # supremum property at a sample of nodes and fractions
    thetas = np.linspace(-example1.b, example1.a, 64)
    sel = np.linspace(1, len(curve1.x) - 2, 60).astype(int)
    excess = example1.mu - example1.r
    for i in sel:
        x = curve1.x[i]
        if x <= 0 or curve1.Vp[i] < 1e-12:
            continue
        MV = example1.lam * (curve1.V[i] - curve1.J[i])
        gen = (0.5 * example1.sigma**2 * x**2 * thetas**2 * curve1.Vpp[i]
               + (example1.c + example1.r * x + excess * thetas * x) * curve1.Vp[i]
               - MV)
        tol = 1e-6 * example1.lam * curve1.V[i]
        assert np.max(gen) <= tol
        g_star = (0.5 * example1.sigma**2 * x**2 * curve1.theta_star[i]**2 * curve1.Vpp[i]
                  + (example1.c + example1.r * x + excess * curve1.theta_star[i] * x)
                  * curve1.Vp[i] - MV)
        assert abs(g_star) <= tol


# ---------------------------------------------------------------------------
# tail closure: V_inf is V at the last node, with a stated bound or "open"
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("regime, m", [("A", M), ("B", M), ("INT", None)],
                         ids=["exp-A", "exp-B", "general-INT"])
def test_tail_open_at_x_max_without_far_field_form(example1, regime, m):
    # a terminal constant regime, or an interior end of general claims (no m),
    # at x_max has no bound: V_inf = V_end and the tail says so
    x = np.geomspace(1.0, 100.0, 400)
    V_inf, tail = extrapolate_tail(x, 3.0 * x**-2.0, V_end=10.0, terminal_regime=regime,
                                   params=example1, m=m)
    assert V_inf == 10.0
    assert tail == {"terminal_regime": regime, "completion": "reached-x-max", "mode": "open",
                    "tail_mass_bound": None}


def test_zero_tail_at_x_max_gets_interest_only_bound(example1):
    # theta = 0 is the interest-only flow: V' = x^k e^(-x/m), k = lambda/r - 1 = 5
    p = replace(example1, mu=example1.r)
    x = np.linspace(20.0, 34.0, 50)
    Vp = x**5 * np.exp(-x / M)
    V_inf, tail = extrapolate_tail(x, Vp, V_end=10.0, terminal_regime="ZERO", params=p, m=M)
    assert V_inf == 10.0 and tail["mode"] == "converged"
    mass = quad(lambda t: t**5 * np.exp(-t / M), 34.0, np.inf)[0]
    assert mass <= tail["tail_mass_bound"] <= 1.01 * mass
    # a march that ends in ZERO at x_max (a = b = 1) closes with that bound
    cur = solve(replace(p, b=1.0), M)
    assert [(s.regime, s.terminal_event) for s in cur.segments][-1] == (
        "ZERO", "reached-x-max")
    assert cur.meta["tail"]["mode"] == "converged"
    assert cur.Vp[-1] < cur.meta["tail"]["tail_mass_bound"] < 1e-11


@pytest.mark.parametrize("regime, completion, vp_end", [
    ("INT", "derivative-floor", 1e-13), ("INT", "deficit-zero", 1e-8),
    ("A", "reached-x-max", 1e-12)], ids=["derivative-floor", "deficit-zero", "vp-at-floor"])
def test_floor_completion_bound_is_last_derivative(example1, regime, completion, vp_end):
    x = np.linspace(1.0, 30.0, 20)
    Vp = vp_end * np.exp(30.0 - x)
    V_inf, tail = extrapolate_tail(x, Vp, V_end=10.0, terminal_regime=regime,
                                   params=example1, completion=completion)
    assert V_inf == 10.0
    assert tail["mode"] == "converged" and tail["tail_mass_bound"] == vp_end


def test_examples_follow_tail_rule(curve1, curve2, curve3, tail_rule):
    for cur in (curve1, curve2, curve3):
        tail_rule(cur)


def test_tail_converged_mode(curve1):
    # Example 1 completes with the derivative at the cancellation level: no tail fit
    assert curve1.meta["completion"] == "cancellation-floor"
    assert curve1.meta["tail"]["mode"] == "converged"
    assert curve1.Vp[-1] == pytest.approx(1e-9 * 0.09 / 0.02, rel=1e-9)


def test_cancellation_floor_tail_bound(example1):
    # interest-only far field V' = x^k e^(-x/m), k = lambda/r - 1 = 5
    x = np.linspace(20.0, 34.0, 50)
    Vp = x**5 * np.exp(-x / M)
    V_inf, tail = extrapolate_tail(x, Vp, V_end=10.0, terminal_regime="INT",
                                   params=example1, completion="cancellation-floor", m=M)
    assert V_inf == 10.0
    mass = quad(lambda t: t**5 * np.exp(-t / M), 34.0, np.inf)[0]
    assert mass <= tail["tail_mass_bound"] <= 1.01 * mass
    assert tail["tail_mass_bound"] > 1.1 * Vp[-1] * M


def test_interior_tail_at_x_max_is_bounded(example1, curve1):
    # an interior march cut at x_max keeps V_inf = V(x_max) and bounds the
    # mass left out by the interest-only tail; curve1 runs to the floor
    for x_max in (15.0, 20.0, 25.0):
        cur = solve(example1, M, SolveOptions(x_max=x_max))
        assert cur.segments[-1].regime == "INT"
        assert cur.meta["tail"]["mode"] == "converged"
        assert cur.V_inf == cur.V[-1]
        gap = curve1.V_inf - cur.V_inf
        assert 0.0 <= gap <= cur.meta["tail"]["tail_mass_bound"] <= 1.1 * gap


def test_v_inf_stable_under_x_max_doubling(example1, curve1):
    cur2 = solve(example1, M, SolveOptions(x_max=2 * 200.0 * example1.c / example1.lam))
    assert cur2.V_inf == pytest.approx(curve1.V_inf, rel=1e-6)


# ---------------------------------------------------------------------------
# third-order cross-check
# ---------------------------------------------------------------------------

def test_third_order_check_all_constant_segments(example1, curve1, third_order_check):
    for seg in curve1.segments:
        if seg.regime in ("A", "B"):
            assert third_order_check(curve1, seg, example1, M) <= 1e-6


def test_zero_limit_conditions(example1):
    # lambda V(0) = c V'(0) exactly under the normalisation, and
    # c V''(0+) + (mu_bar - lambda + c/m) V'(0+) = 0
    lam, c = example1.lam, example1.c
    assert lam * 1.0 - c * (lam / c) == 0.0
    rc = regime_constants(example1, example1.a)
    vpp0 = 11.25
    val = c * vpp0 + (rc.mu_bar - lam + c / M) * (lam / c)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_third_order_check_rejects_interior_segment(example1, curve1, third_order_check):
    with pytest.raises(ValueError):
        third_order_check(curve1, curve1.segments[-1], example1, M)


# ---------------------------------------------------------------------------
# degenerate and invalid configurations
# ---------------------------------------------------------------------------

def test_solver_refuses_zero_interest():
    p = ModelParams(c=0.2, lam=0.09, mu=0.0, r=0.0, sigma=0.1, a=1.0, b=1.0)
    with pytest.raises(ValueError):
        solve(p, M)


def test_solver_rejects_x_max_below_handoff(example1):
    # the march starts at the series handoff point x_eps = 0.0111 of example 1
    x_eps = handoff_point(series_coefficients(example1, M, example1.a), example1)
    with pytest.raises(SolverAbort) as err:
        solve(example1, M, SolveOptions(x_max=1e-5))
    assert err.value.diagnostics == {"x_max": 1e-5, "x_eps": x_eps}
    assert "x_max" in str(err.value) and "x_eps" in str(err.value)
    with pytest.raises(SolverAbort, match="x_max=nan is not beyond"):
        solve(example1, M, SolveOptions(x_max=math.nan))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, value, message", [
    ("rtol", 1e-15, "rtol must be finite and at least 2.22e-14, got 1e-15"),
    ("rtol", 0.0, "rtol must be finite and at least 2.22e-14, got 0.0"),
    ("rtol", math.nan, "rtol must be finite and at least 2.22e-14, got nan"),
    ("rtol", math.inf, "rtol must be finite and at least 2.22e-14, got inf"),
    ("atol", -1e-12, "atol must be finite and at least 0, got -1e-12"),
    ("atol", math.nan, "atol must be finite and at least 0, got nan"),
    ("atol", math.inf, "atol must be finite and at least 0, got inf"),
    ("x_max", math.inf, "x_max must be finite, got inf"),
], ids=["rtol-tiny", "rtol-zero", "rtol-nan", "rtol-inf", "atol-negative", "atol-nan",
        "atol-inf", "x_max-inf"])
def test_bad_solve_options_refused(example1, field, value, message):
    # refused once, by field name, before the march: no warning, no clamped run
    with pytest.raises(ValueError, match=re.escape(message)):
        solve(example1, M, SolveOptions(**{field: value}))


def test_output_nodes_is_a_constant():
    # it divides the output spacing; no caller sets it, so it is no field
    assert SolveOptions().output_nodes == 900
    with pytest.raises(TypeError):
        SolveOptions(output_nodes=1)


def test_equal_rates_runs_without_interior():
    p = ModelParams(c=0.02, lam=0.09, mu=0.015, r=0.015, sigma=0.1, a=1.0, b=20.0)
    cur = solve(p, M)
    assert "INT" not in {s.regime for s in cur.segments}
    assert set(np.unique(cur.theta_star)) <= {0.0, p.a, -p.b}
    assert np.all(np.diff(cur.V) >= 0)
    assert cur.V_inf >= cur.V[-1]
    # the regime table's mu = r rows: B hands over to ZERO where I falls through 0
    assert [(s.regime, s.terminal_event) for s in cur.segments] == [
        ("B", "curvature-negative"), ("ZERO", "reached-x-max")]
    assert cur.switch_points[0] == pytest.approx(4.613458, rel=1e-6)
    assert cur.V_inf == pytest.approx(38.0181927, rel=1e-6)
    # concave at zero: ZERO from the start until V' underflows
    cur = solve(ModelParams(c=0.1, lam=0.09, mu=0.015, r=0.015, sigma=0.1, a=1.0, b=20.0), M)
    assert [(s.regime, s.terminal_event) for s in cur.segments] == [
        ("ZERO", "derivative-floor")]
    assert cur.x[-1] == pytest.approx(39.504467, rel=1e-6)
    assert cur.V_inf == pytest.approx(3.2251262, rel=1e-6)


def _switches_follow_bands(p, cur):
    """Every logged switch crosses the one threshold its two regimes' bands share."""
    if p.mu == p.r:
        assert all({e["from"], e["to"]} == {start_regime(p), "ZERO"} for e in cur.meta["events"])
        return
    bands = indicator_bands(p)
    for e in cur.meta["events"]:
        (t,) = (set(bands[e["from"]]) & set(bands[e["to"]])) - {None}
        interior = "indicator-interior-bound" if t in bands["INT"] else "indicator-extreme-bound"
        assert e["kind"] == interior
        phi = cur.phi[np.searchsorted(cur.x, e["x"])]
        assert abs(phi - t) <= 1e-6 * (1.0 + abs(t)), (e, phi)


def test_mirror_symmetry(example1, example2, example3, curve1, curve2, curve3):
    # (mu, a, b) -> (2r - mu, b, a) flips the sign of mu - r and swaps the
    # constraints: A and B trade places, theta* changes sign and V is unchanged
    cases = [(example1, curve1), (example2, curve2), (example3, curve3)]
    for p in (replace(example1, mu=example1.r), replace(example1, a=20.0, b=1.0)):
        cases.append((p, solve(p, M)))
    swap = {"A": "B", "B": "A", "INT": "INT", "ZERO": "ZERO"}
    for p, cur in cases:
        q = replace(p, mu=2.0 * p.r - p.mu, a=p.b, b=p.a)
        mir = solve(q, M)
        assert mir.V_inf == pytest.approx(cur.V_inf, rel=1e-12)
        assert np.all(np.abs(mir.value(cur.x) / cur.V - 1.0) <= 1e-10)
        assert np.all(np.abs(mir.theta(cur.x) + cur.theta_star) <= 1e-8)
        assert [swap[s.regime] for s in cur.segments] == [s.regime for s in mir.segments]
        assert mir.switch_points == pytest.approx(cur.switch_points, rel=1e-12, abs=1e-12)
        _switches_follow_bands(p, cur)
        _switches_follow_bands(q, mir)


def test_claim_scale_identity(example1):
    # surplus measured in units of 2: claims of mean 2 at premium c are claims
    # of mean 1 at premium c/2, with V(x) the other problem's V(x/2) (default
    # x_max 200 c/lambda halves with c).  Measured gaps: V_inf 5.3e-12
    # relative, switch points 1.8e-8 relative, survival 1.9e-7 at the nodes
    cur = solve(example1, 2.0)
    half = solve(replace(example1, c=example1.c / 2), 1.0)
    assert cur.V_inf == pytest.approx(half.V_inf, rel=1e-10)
    assert [s.regime for s in cur.segments] == [s.regime for s in half.segments]
    assert cur.switch_points == pytest.approx(2.0 * np.array(half.switch_points), rel=1e-7)
    assert np.max(np.abs(cur.survival(cur.x) - half.survival(cur.x / 2.0))) <= 1e-6


def test_csv_roundtrip(tmp_path, curve1):
    path = tmp_path / "curve.csv"
    Vpp = curve1.Vpp.copy()
    Vpp[-1] = -np.inf  # the deficit-zero node of an aborting march reads -inf
    cur = replace(curve1, Vpp=Vpp, phi=np.where(curve1.x < 1.0, np.nan, curve1.phi),
                  V_inf=curve1.V_inf * (1.0 + 1e-3))
    cur.to_csv(path, manifest_hash="deadbeef")
    back = SolutionCurve.from_csv(path)
    assert np.array_equal(back.theta_star, cur.theta_star)
    assert np.array_equal(back.x, cur.x)
    assert np.array_equal(back.regime, cur.regime)
    for col in ("V", "Vp", "Vpp", "J", "phi"):
        assert np.array_equal(getattr(back, col), getattr(cur, col), equal_nan=True)
    # segments rebuilt from the regime column, against a per-node scan
    runs, lo = [], 0
    for i in range(1, len(cur.x)):
        if cur.regime[i] != cur.regime[i - 1]:
            runs.append((cur.x[lo], cur.x[i], cur.regime[lo]))
            lo = i
    runs.append((cur.x[lo], cur.x[-1], cur.regime[-1]))
    assert [(s.lo, s.hi, s.regime) for s in back.segments] == runs
    assert [s.terminal_event for s in back.segments] == ["switch"] * (len(runs) - 1) + ["end"]
    # V_inf is V at the last node, whatever the sidecar beside the table holds
    assert back.V_inf == cur.V[-1] != cur.V_inf
    cur.to_json(tmp_path / "curve.json", manifest={"hash": "deadbeef"})
    assert SolutionCurve.from_csv(path).V_inf == cur.V[-1]
    # the table is written in row blocks; the bytes do not depend on them
    lines = path.read_text().splitlines()
    assert len(lines) == 2 + len(cur.x)
    assert lines[2 + 4096] == "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s" % tuple(
        a[4096] for a in (cur.x, cur.V, cur.Vp, cur.Vpp, cur.J, cur.phi, cur.theta_star,
                          cur.regime))


# ---------------------------------------------------------------------------
# pinned march branches and work counts
# ---------------------------------------------------------------------------

EXAMPLE1 = dict(c=0.02, lam=0.09, mu=0.02, r=0.015, sigma=0.1, a=1.0, b=20.0)
# the pos-altb-convex-open anchor of perfbench/workloads.py: A, B, A, INT, and
# INT reaches x_max
ANCHOR_POS_ALTB = dict(c=0.01551, lam=0.1095, r=0.02674, mu=0.03099, sigma=0.2952,
                       a=1.626, b=13.37)

# SHA-256 of every column, V_inf and the regimes, recorded at commit 2250894,
# before the march drove scipy's RK45 stepper itself (the change is
# bit-identical); (params, x_max, segments as (regime, terminal event)).
# example1-x4 was re-recorded when its open tail stopped adding a power-law
# guess: V_inf 26.267091302350433 -> 25.472375338872542 = V(4), every
# column unchanged
BRANCH_SHA256 = {
    "mu=r-B-ZERO": (
        dict(c=0.02, lam=0.09, mu=0.015, r=0.015, sigma=0.1, a=1.0, b=20.0), None,
        [("B", "curvature-negative"), ("ZERO", "reached-x-max")],
        "90762861401ac456aa0448e178155c0ea40647a5df7617daadb3b31741b6e90c"),
    "mu=r-ZERO": (
        dict(c=0.1, lam=0.09, mu=0.015, r=0.015, sigma=0.1, a=1.0, b=20.0), None,
        [("ZERO", "derivative-floor")],
        "54bac7030b48bc56c22eb9d0dc856fc3417e797062393e999bebf19f1f05438f"),
    "example1-x3": (
        EXAMPLE1, 3.0, [("A", "indicator-extreme-bound"), ("B", "reached-x-max")],
        "686f20a6f37e089375b7f30a20fa2dbb0d70340a2a3f0565c1e5b605b7911f97"),
    "example1-x4": (
        EXAMPLE1, 4.0,
        [("A", "indicator-extreme-bound"), ("B", "indicator-extreme-bound"),
         ("A", "reached-x-max")],
        "030225f5e780cffd74657bfdbe2813b66ec1ae1b4a378eb6f9f5e5dc65ff491a"),
    "example1-x15": (
        EXAMPLE1, 15.0,
        [("A", "indicator-extreme-bound"), ("B", "indicator-extreme-bound"),
         ("A", "indicator-interior-bound"), ("INT", "reached-x-max")],
        "638479805cb0f17ab4a6f349368fd495f6df0373b7207c3adffe945aefd09dc9"),
    "anchor-pos-altb-convex-open": (
        ANCHOR_POS_ALTB, None,
        [("A", "indicator-extreme-bound"), ("B", "indicator-extreme-bound"),
         ("A", "indicator-interior-bound"), ("INT", "reached-x-max")],
        "0066949ad788c0d5e523414c6626bb34707d9fce7d7d9b27566215f7970003d5"),
}


@pytest.mark.parametrize("case", sorted(BRANCH_SHA256))
def test_march_branch_bytes_pinned(curve_sha256, tail_rule, case):
    params, x_max, segments, digest = BRANCH_SHA256[case]
    cur = solve(ModelParams(**params), M, SolveOptions(x_max=x_max))
    assert [(s.regime, s.terminal_event) for s in cur.segments] == segments
    tail_rule(cur)
    assert curve_sha256(cur) == digest


def test_march_work_counts_in_sidecar(curve1):
    # one record per integrated segment; totals measured at commit 2250894
    march = curve1.sidecar()["march"]
    assert [seg["regime"] for seg in march] == [s.regime for s in curve1.segments]
    assert sum(seg["steps"] for seg in march) == 5701
    assert sum(seg["rhs_evals"] for seg in march) == 34256
    # 2 RHS evaluations start each segment, 6 go into every step attempt
    assert [seg["rejected"] for seg in march] == [3, 0, 2, 2]
    for seg in march:
        assert seg["rhs_evals"] == 2 + 6 * (seg["steps"] + seg["rejected"])


@pytest.mark.parametrize("which", ["example1", "example2", "example3"])
def test_survival_between_nodes_matches_segment_ode(request, which):
    # survival at seeded points between nodes against the segment's own ODE,
    # integrated by DOP853 from the left node's (V, V', V - J)
    p, curve = request.getfixturevalue(which), request.getfixturevalue("curve" + which[-1])
    rng = np.random.default_rng(16)
    xq = rng.uniform(curve.meta["x_eps"], 20.0, 300)
    left = np.searchsorted(curve.x, xq, side="right") - 1
    ref = np.empty_like(xq)
    for j, (x, i) in enumerate(zip(xq, left)):
        y0 = [curve.V[i], curve.Vp[i], curve.V[i] - curve.J[i]]
        run = solve_ivp(_rhs_for(str(curve.regime[i]), p, M), (curve.x[i], x), y0,
                        method="DOP853", rtol=1e-13, atol=1e-16)
        ref[j] = run.y[0, -1] / curve.V_inf
    assert np.max(np.abs(curve.survival(xq) / ref - 1.0)) <= 2e-8
