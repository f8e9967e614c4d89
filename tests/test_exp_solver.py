import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from ruinvest import curve as curve_module
from ruinvest import exp_solver
from ruinvest.curve import SolutionCurve
from ruinvest.exp_solver import (TOO_SMALL_STEP, VP_FLOOR, X0, SolveOptions, SolverAbort, _brentq,
                                 _radau_march, _segment_events, _series_w, _start, _w_system,
                                 extrapolate_tail, solve)
from ruinvest.model import ExponentialClaims, ModelParams, regime_constants
from ruinvest.operators import (deficit, indicator, indicator_bands, regime_fraction, slope_fn,
                                start_regime)

M = 1.0

# switch abscissas of Example 1, frozen after the first verified run
X1_FIX, X2_FIX, X3_FIX = 0.021941989, 3.207494533, 4.131445767


def _deficit_w(p, x, V, Vp, J):
    """w = I/V' from (V, V', J) in the deficit form, cancellation and all."""
    return p.lam * (V - J) / Vp - (p.c + p.r * x)


def _w_rhs(fun):
    """solve_ivp's right-hand side on (w, L, V) from a march's (f, jac)."""
    f, _ = fun

    def rhs(x, y):
        fw, u = f(x, y[0])
        return (fw, u, math.exp(y[1]))
    return rhs


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

def test_rhs_constant_matches_series_at_handoff(example1, near_zero_series, curvature):
    # the start's w = (mu_bar - r) x + sigma_bar^2 x^2 V''/(2 V') is the
    # 40-term series' too, and the A row gives back its V'' (at X0 to the 1e-4
    # of w its second term is); at x = 0.01 (w = 5e-5, not 5e-9, against c)
    # the deficit form agrees with that w and `curvature` with V''
    se, f = near_zero_series(example1, M, example1.a), _w_system("A", example1, M)[0]
    w0 = _start(example1, M)[3][0]
    for x, rel in ((X0, 1e-10), (0.01, 1e-12)):
        V, Vp, Vpp, J = se(x)
        w = _series_w(example1, "A", x, Vp, Vpp)
        assert f(x, w)[1] * Vp == pytest.approx(Vpp, rel=rel)
    assert w0 == pytest.approx(_series_w(example1, "A", X0, *se(X0)[1:3]), rel=1e-13)
    assert w == pytest.approx(_deficit_w(example1, x, V, Vp, J), rel=1e-8)
    assert curvature("A", example1, x, Vp, example1.lam * (V - J)) == pytest.approx(Vpp, rel=1e-8)


def test_rhs_constant_annihilates_constants(example1, curvature):
    # V constant with J = V (stationary convolution) gives V'' = 0; in w the
    # constant regime's slope vanishes where the deficit meets the drift,
    # w = (mu_bar - r) x
    assert curvature("A", example1, 1.0, 0.0, example1.lam * (2.0 - 2.0)) == 0.0
    # there w' = lambda - r - (w + c + r x)/m and dw'/dw = -1/m - (c + mu_bar x) du/dw
    rc, (c, r) = regime_constants(example1, example1.a), (example1.c, example1.r)
    w, dudw = rc.mu_bar - r, 2.0 / rc.sigma_bar**2
    f, jac = _w_system("A", example1, M)
    assert f(1.0, w) == pytest.approx((example1.lam - r - (w + c + r), 0.0), rel=1e-15, abs=0.0)
    assert jac(1.0, w) == pytest.approx((-1.0 - (c + rc.mu_bar) * dudw, dudw), rel=1e-14)


def test_rhs_constant_third_order_consistency(example1, near_zero_series):
    # d/dx of the second-order form reproduces the third-order equation
    se = near_zero_series(example1, M, example1.a)
    rc = regime_constants(example1, example1.a)
    x = 0.008
    d = 1e-5
    vpp = {}
    u = slope_fn("A", example1, M)[0]
    for xx in (x - d, x + d):
        V, Vp, Vpp, J = se(xx)
        vpp[xx] = u(xx, _deficit_w(example1, xx, V, Vp, J)) * Vp
    fd_vppp = (vpp[x + d] - vpp[x - d]) / (2 * d)
    V, Vp, Vpp, J = se(x)
    mb, sb2 = rc.mu_bar, rc.sigma_bar**2
    ode_vppp = -((x**2 / M + 2 * (1 + mb / sb2) * x + 2 * example1.c / sb2) * Vpp
                 + 2 * (mb * x / (M * sb2) + (mb - example1.lam + example1.c / M) / sb2) * Vp) / x**2
    assert fd_vppp == pytest.approx(ode_vppp, rel=1e-5)


def test_rhs_interior_rejects_nonpositive_deficit(example1, curvature):
    # I < 0: the interior equation turns convex, and the interior row of the
    # event table (on the march state (w, L, V), w = I/V') is past its
    # "deficit-zero" abort
    x, V, Vp, J = 5.0, 2.0, 10.0, 1.999
    assert curvature("INT", example1, x, Vp, example1.lam * (V - J)) > 0
    rows, g = _segment_events("INT", example1, M)
    i = [name for name, _, _ in rows].index("deficit-zero")
    assert g(x, (_deficit_w(example1, x, V, Vp, J), math.log(Vp), V))[i] < 0


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


def test_series_handoff_consistency(example1, near_zero_series):
    # the start at X0, marched by solve_ivp's Radau at rtol 1e-13 on the A
    # system to x = 0.021 (still inside the first regime), meets the 40-term
    # series there
    _, regime, x0, y0 = _start(example1, M)
    x1 = 0.021
    w, L, V = _w_reference(_w_system(regime, example1, M), y0, np.array([x0, x1]))[:, -1]
    V1, Vp1, Vpp1, _ = near_zero_series(example1, M, example1.a)(x1)
    assert V == pytest.approx(V1, rel=1e-12)
    assert math.exp(L) == pytest.approx(Vp1, rel=1e-12)
    assert w == pytest.approx(_series_w(example1, regime, x1, Vp1, Vpp1), rel=1e-9)


def test_detect_switch_standalone(example1):
    # march the starting regime's (w, L, V) system with scipy and only its row
    # of the event table, and locate the first crossing
    _, regime, x_eps, y0 = _start(example1, M)
    rows, g = _segment_events(regime, example1, M)
    sol = solve_ivp(_w_rhs(_w_system(regime, example1, M)), (x_eps, 0.05), y0, method="Radau",
                    rtol=1e-12, atol=1e-14,
                    events=_scalar_events(g, [direction for _, direction, _ in rows]))
    x, kind, target = min((te[0], name, target)
                          for (name, _, target), te in zip(rows, sol.t_events) if len(te))
    assert kind == "indicator-extreme-bound"
    assert target == "B"  # the regime across A's upper bound 2ab/(b-a)
    assert x == pytest.approx(X1_FIX, rel=1e-5)


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


def test_radau_march_hjb_segments_match_solve_ivp(example1, curve1):
    # example 1's first A segment from the start at X0, ended by its switch
    # event, and an interior stretch after the last switch, with the
    # production event tables: the step ends and collocation polynomials
    # against solve_ivp's Radau at rtol 1e-13 on the same (w, L, V) system
    rng = np.random.default_rng(8)
    lo = next(s.lo for s in curve1.segments if s.regime == "INT")
    i = int(np.searchsorted(curve1.x, lo))
    _, _, x_eps, y0 = _start(example1, M)
    starts = [("A", x_eps, y0, 1.0),
              ("INT", lo, (_deficit_w(example1, lo, curve1.V[i], curve1.Vp[i], curve1.J[i]),
                           math.log(curve1.Vp[i]), curve1.V[i]), lo + 0.3)]
    max_step = (200.0 * example1.c / example1.lam - x_eps) / 900  # solve's output spacing
    for regime, lo, y0, hi in starts:
        fun = _w_system(regime, example1, M)
        rows, g = _segment_events(regime, example1, M)
        got = _radau_march(fun, (lo, hi), y0, g, [direction for _, direction, _ in rows],
                           rtol=1e-10, atol=(1e-14, 1e-10, 1e-12), max_step=max_step)
        assert np.all(np.diff(got.t) <= max_step)
        if regime == "A":
            assert got.status == 1 and rows[got.event][0] == "indicator-extreme-bound"
            assert got.t[-1] == pytest.approx(curve1.switch_points[0], rel=1e-12)
        else:
            assert got.status == 0 and got.t[-1] == hi
        grid = _hjb_step_grid(got.t, rng)
        assert np.max(np.abs(got.sol(grid) / _w_reference(fun, y0, grid) - 1.0)) <= 1e-10


# ---------------------------------------------------------------------------
# the Radau march
# ---------------------------------------------------------------------------

def _w_reference(fun, y0, t_eval, atol=(1e-20, 1e-14, 1e-14)):
    """solve_ivp's Radau at rtol 1e-13 on a march's (w, L, V) system, fun =
    (f, jac), from (t_eval[0], y0), read at t_eval."""
    _, jac = fun

    def jf(x, y):
        dfw, dudw = jac(x, y[0])
        return ((dfw, 0.0, 0.0), (dudw, 0.0, 0.0), (0.0, math.exp(y[1]), 0.0))
    ref = solve_ivp(_w_rhs(fun), (t_eval[0], t_eval[-1]), y0, method="Radau", rtol=1e-13,
                    atol=list(atol), jac=jf, dense_output=True)
    assert ref.success
    return ref.sol(t_eval)


# w' = -50 (w - sin t) + cos t, u = w: from (0, 0, 0), w = sin t and L = 1 - cos t
_STIFF_SIN = (lambda t, w: (-50.0 * (w - math.sin(t)) + math.cos(t), w),
              lambda t, w: (-50.0, 1.0))

# (name, event levels (value w - level, or L - level when tagged "L"),
#  directions, t_bound, fired event or None)
RADAU_CASES = [
    ("up", [("w", 0.5), ("L", 2.5)], [1, -1], 6.0, 0),
    ("down", [("w", 2.0), ("L", 0.2)], [1, -1], 6.0, 1),
    ("two-in-one-step", [("w", 0.5000001), ("w", 0.5)], [1, 1], 6.0, 1),
    ("t-bound", [("w", 2.0), ("L", -1.0)], [1, -1], 3.0, None),
]


def _radau_sin(levels, directions, t_bound, fun=_STIFF_SIN):
    slot = {"w": 0, "L": 1}

    def g(t, y):
        return tuple(y[slot[k]] - level for k, level in levels)
    return _radau_march(fun, (0.0, t_bound), (0.0, 0.0, 0.0), g, directions, rtol=1e-10,
                        atol=(1e-12, 1e-12, 1e-12), max_step=0.1)


@pytest.mark.parametrize("name, levels, directions, t_bound, fired", RADAU_CASES,
                         ids=[c[0] for c in RADAU_CASES])
def test_radau_march_contract(name, levels, directions, t_bound, fired):
    got = _radau_sin(levels, directions, t_bound)
    assert got.status == (0 if fired is None else 1)
    assert got.event == fired
    assert got.message is None
    assert got.nfev == 1 + 3 * got.newton_iters
    assert np.all(np.diff(got.t) <= 0.1)
    end = {"up": math.pi / 6, "down": 2 * math.pi - math.acos(0.8),
           "two-in-one-step": math.pi / 6, "t-bound": 3.0}[name]
    assert got.t[-1] == pytest.approx(end, abs=1e-9)
    # the step ends and the collocation polynomials against the exact solution
    grid = np.sort(np.concatenate([got.t, np.linspace(0.0, got.t[-1], 97)]))
    w, L, V = got.sol(grid)
    assert np.max(np.abs(w - np.sin(grid))) <= 1e-8
    assert np.max(np.abs(L - (1.0 - np.cos(grid)))) <= 1e-8
    Vq = [quad(lambda s: math.exp(1.0 - math.cos(s)), 0.0, x, epsabs=1e-13)[0] for x in grid[::8]]
    assert np.max(np.abs(V[::8] - Vq)) <= 1e-8
    assert np.array_equal(got.y[:, -1], got.sol(got.t[-1:])[:, 0])
    if name == "two-in-one-step":
        # the later level alone ends the march in the same step: both fired there
        alone = _radau_sin(levels[:1], directions[:1], t_bound)
        assert alone.t[-2] == got.t[-2] < got.t[-1] < alone.t[-1]


def test_radau_march_failure_ends_with_status_minus_one():
    # f turns NaN beyond t = 2: every step reaching past it fails its Newton
    # iteration and is halved until the step falls below 10 ulp(t)
    f, jac = _STIFF_SIN

    def nan_beyond_two(t, w):
        return f(t, w) if t < 2.0 else (math.nan, math.nan)
    got = _radau_sin([("w", 2.0)], [1], 6.0, fun=(nan_beyond_two, jac))
    assert got.status == -1 and got.event is None
    assert got.message == TOO_SMALL_STEP
    assert 1.9 < got.t[-1] < 2.0
    assert got.rejected > 0
    assert got.t[-1] == pytest.approx(2.0, abs=1e-6)


EXAMPLE_PARAMS = ["example1", "example2", "example3", "anchor", "mu=r-B-ZERO"]


def _params(request, which):
    if which == "anchor":
        return ModelParams(**ANCHOR_POS_ALTB)
    if which in BRANCH_SHA256:
        return ModelParams(**BRANCH_SHA256[which][0])
    return request.getfixturevalue(which)


@pytest.mark.parametrize("which", EXAMPLE_PARAMS)
def test_interior_march_matches_radau_oracle(monkeypatch, request, which):
    # every segment of the solve, from its (w, L, V) start, against
    # solve_ivp's Radau at rtol 1e-13 on the same system at the march's step
    # ends
    p = _params(request, which)
    runs = []

    def spy(fun, t_span, y0, *args, **kwargs):
        runs.append((fun, y0, _radau_march(fun, t_span, y0, *args, **kwargs)))
        return runs[-1][2]
    monkeypatch.setattr(exp_solver, "solve_ivp", spy)
    cur = solve(p, M)
    assert len(runs) == len(cur.segments)
    for fun, y0, got in runs:
        w, L, V = _w_reference(fun, y0, got.t)
        assert np.max(np.abs(got.y[2] / V - 1.0)) <= 1e-11
        assert np.max(np.abs(np.exp(got.y[1] - L) - 1.0)) <= 1e-10
        # w to 1e-9 relative, or to the march's absolute tolerance of 1e-14 near
        # a curvature-negative end at w = 0
        assert np.all(np.abs(got.y[0] - w) <= 1e-9 * np.abs(w) + 1e-14)


@pytest.mark.parametrize("which", EXAMPLE_PARAMS)
def test_interior_march_is_implicit(request, which):
    # an explicit interior march takes 5,283-37,571 steps on these segments;
    # the implicit one at most 1,319, and at most 822 on any other segment
    cur = solve(_params(request, which), M)
    march = cur.meta["march"]
    assert all(seg["steps"] <= 1500 for seg in march)
    assert all(seg["steps"] <= 900 for seg in march if seg["regime"] != "INT")
    # steps are capped at the output spacing, so a segment's nodes are its step
    # ends and the three that hug each switch at its ends
    last = len(march) - 1
    for k, (seg, rec) in enumerate(zip(cur.segments, march)):
        lo = seg.lo if k else cur.meta["x_eps"]
        # the start node is X0 or the previous segment's end
        nodes = np.sum((cur.x >= lo) & (cur.x <= seg.hi)) - 1
        assert nodes == rec["steps"] + 3 * (k > 0) + 3 * (k < last), k


@pytest.mark.parametrize("which", EXAMPLE_PARAMS[:4])
def test_march_runs_on_python_floats(monkeypatch, request, which):
    # every regime's f receives plain floats, also from options given as numpy
    # scalars: numpy scalars in the stage arithmetic double the solve time
    seen, w_system, p = set(), exp_solver._w_system, _params(request, which)

    def spy(regime, params, m):
        f, jac = w_system(regime, params, m)
        return (lambda x, w: seen.add((type(x), type(w))) or f(x, w)), jac
    monkeypatch.setattr(exp_solver, "_w_system", spy)
    solve(p, M, SolveOptions(x_max=np.float64(200.0 * p.c / p.lam), rtol=np.float64(1e-10)))
    assert seen == {(float, float)}


# the four configs at claim mean 1 keep their ids; claim means 0.01 and 0.1
# put the first switch as low as 2.6e-4 (example 3), and every chain ends in INT
SWITCH_REFERENCE_CASES = [pytest.param(w, M, id=w) for w in EXAMPLE_PARAMS[:4]] + [
    pytest.param(w, m, id=f"{w}-m{m:g}") for m in (0.01, 0.1) for w in EXAMPLE_PARAMS[:4]]


@pytest.mark.parametrize("which, m", SWITCH_REFERENCE_CASES)
def test_switch_points_match_reference(request, near_zero_series, curvature, which, m):
    # every switch point against an independent march: scipy's DOP853 at rtol
    # 1e-13 on (V, V', V - J) with `curvature`, from the 40-term series at its
    # handoff (not from the production start at X0), each segment ended by
    # phi = 2 I/((mu - r) x V') leaving its band.  Its phi loses digits to the
    # cancellation in I near zero surplus (350x at x = 0.022 on example 1),
    # which the tight rtol covers; the RK45 march on the same form at rtol
    # 1e-10 put example 1's first switch 8.1e-8 off
    p = _params(request, which)
    cur = solve(p, m)
    regime, bands = start_regime(p), indicator_bands(p)
    se = near_zero_series(p, m, regime_fraction(p, regime))
    x = se.handoff()
    V, Vp, _, J = se(x)
    # the series start lies below the first switch: phi there is in the start band
    lo, hi = (sign * math.inf if t is None else t for t, sign in zip(bands[regime], (-1, 1)))
    assert lo <= indicator(p, x, Vp, deficit(p, x, Vp, p.lam * (V - J))) <= hi
    y, ref = [V, Vp, V - J], []
    while regime != "INT":
        events, targets = [], []
        for level, direction in zip(bands[regime], (-1, 1)):
            if level is None:
                continue

            def leave(x, y, level=level):
                return indicator(p, x, y[1], deficit(p, x, y[1], p.lam * y[2])) - level
            leave.terminal, leave.direction = True, direction
            events.append(leave)
            targets.append(next(k for k, band in bands.items() if k != regime and level in band))

        def rhs(x, y, regime=regime):
            return (y[1], curvature(regime, p, x, y[1], p.lam * y[2]), y[1] - y[2] / m)
        sol = solve_ivp(rhs, (x, 50.0), y, method="DOP853", rtol=1e-13, atol=1e-16,
                        events=events)
        (k,) = [i for i, te in enumerate(sol.t_events) if len(te)]
        x, y, regime = sol.t_events[k][0], sol.y_events[k][0], targets[k]
        ref.append(x)
    assert cur.segments[-1].regime == "INT" and len(cur.switch_points) == len(ref)
    assert np.all(np.abs(np.array(cur.switch_points) / ref - 1.0) <= 1e-9)


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
    # at x_max has no bound, and the tail says so
    tail = extrapolate_tail(100.0, 3e-4, terminal_regime=regime, params=example1, m=m)
    assert tail == {"terminal_regime": regime, "completion": "reached-x-max", "mode": "open",
                    "tail_mass_bound": None}


def test_zero_tail_at_x_max_gets_interest_only_bound(example1):
    # theta = 0 is the interest-only flow: V' = x^k e^(-x/m), k = lambda/r - 1 = 5
    p = replace(example1, mu=example1.r)
    x = np.linspace(20.0, 34.0, 50)
    Vp = x**5 * np.exp(-x / M)
    tail = extrapolate_tail(x[-1], Vp[-1], terminal_regime="ZERO", params=p, m=M)
    assert tail["mode"] == "converged"
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
    tail = extrapolate_tail(x[-1], Vp[-1], terminal_regime=regime, params=example1,
                            completion=completion)
    assert tail["mode"] == "converged" and tail["tail_mass_bound"] == vp_end


def test_examples_follow_tail_rule(curve1, curve2, curve3, tail_rule):
    for cur in (curve1, curve2, curve3):
        tail_rule(cur)


def test_tail_converged_mode(example1, curve1):
    # Example 1's interior march reaches the default x_max with V' above the
    # floor: the interest-only bound closes the tail
    assert curve1.meta["completion"] == "reached-x-max"
    assert curve1.meta["tail"]["mode"] == "converged"
    k = example1.lam / example1.r - 1.0
    assert curve1.meta["tail"]["tail_mass_bound"] == curve1.Vp[-1] / (1.0 / M - k / curve1.x[-1])
    assert VP_FLOOR < curve1.Vp[-1] < curve1.meta["tail"]["tail_mass_bound"] < 1e-11


def test_interior_tail_bound_is_interest_only(example1):
    # interest-only far field V' = x^k e^(-x/m), k = lambda/r - 1 = 5, at a
    # floor end as at x_max
    x = np.linspace(20.0, 34.0, 50)
    Vp = x**5 * np.exp(-x / M)
    mass = quad(lambda t: t**5 * np.exp(-t / M), 34.0, np.inf)[0]
    for completion in ("derivative-floor", "reached-x-max"):
        tail = extrapolate_tail(x[-1], Vp[-1], terminal_regime="INT", params=example1,
                                completion=completion, m=M)
        assert mass <= tail["tail_mass_bound"] <= 1.01 * mass
        assert tail["tail_mass_bound"] > 1.1 * Vp[-1] * M


def test_floor_end_bound_holds_the_far_field_mass(example1):
    # a floor end in ZERO or INT states at least the mass of its own flow
    # beyond x_end; V'_end alone (6.82e-13 on mu=r-B-ZERO, against a mass of
    # 7.63e-13) understates it
    p = ModelParams(**BRANCH_SHA256["mu=r-B-ZERO"][0])
    cur = solve(p, M)
    x_end, vp_end, k = cur.x[-1], cur.Vp[-1], p.lam / p.r - 1.0
    assert cur.segments[-1].regime == "ZERO" and vp_end <= 10.0 * VP_FLOOR
    mass = quad(lambda x: vp_end * ((p.c + p.r * x) / (p.c + p.r * x_end)) ** k
                * np.exp(-(x - x_end) / M), x_end, np.inf, epsabs=0.0, epsrel=1e-12)[0]
    assert vp_end < mass <= cur.meta["tail"]["tail_mass_bound"]
    # the interior flow of example 1 past its derivative floor at a doubled x_max
    cur = solve(example1, M, SolveOptions(x_max=2 * 200.0 * example1.c / example1.lam))
    assert cur.meta["completion"] == "derivative-floor"
    x_end = cur.x[-1]
    y0 = (cur.phi[-1] * (example1.mu - example1.r) * x_end / 2.0, math.log(cur.Vp[-1]), 0.0)
    w, L, mass = _w_reference(_w_system("INT", example1, M), y0, np.array([x_end, x_end + 60.0]),
                              atol=[1e-20, 1e-14, 1e-28])[:, -1]
    assert math.exp(L) < 1e-20 * mass
    assert cur.Vp[-1] < mass <= cur.meta["tail"]["tail_mass_bound"]


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
    # the march starts at X0 = 1e-6
    with pytest.raises(SolverAbort) as err:
        solve(example1, M, SolveOptions(x_max=5e-7))
    assert err.value.diagnostics == {"x_max": 5e-7, "x_eps": X0}
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
    # concave at zero: ZERO from the start until V' underflows.  Its flow has
    # ln V' = ln(lambda/c) + ((lambda - r)/r) ln((c + r x)/(c + r x0)) - (x - x0)/m
    # from x0 = 1e-8, so the floor's abscissa is the root of a closed form
    # (the RK45 march on (V, V', V - J) put it 1.4e-6 relative too far)
    p = ModelParams(c=0.1, lam=0.09, mu=0.015, r=0.015, sigma=0.1, a=1.0, b=20.0)
    cur = solve(p, M)
    assert [(s.regime, s.terminal_event) for s in cur.segments] == [
        ("ZERO", "derivative-floor")]

    def ln_vp(x):
        return (math.log(p.lam / p.c) - (x - 1e-8) / M
                + (p.lam - p.r) / p.r * math.log((p.c + p.r * x) / (p.c + p.r * 1e-8)))
    x_floor = brentq(lambda x: ln_vp(x) - math.log(VP_FLOOR), 30.0, 50.0, xtol=1e-14)
    assert cur.x[-1] == pytest.approx(x_floor, rel=1e-12)
    assert cur.V_inf == pytest.approx(3.2251262, rel=1e-6)


@pytest.mark.parametrize("which", EXAMPLE_PARAMS)
def test_events_are_the_segment_boundaries(request, which):
    # each logged switch ends one segment at its event root and names the
    # regime of the next
    cur = solve(_params(request, which), M)
    assert len(cur.segments) > 1
    assert cur.meta["events"] == [
        {"x": s.hi, "kind": s.terminal_event, "from": s.regime, "to": nxt.regime}
        for s, nxt in zip(cur.segments, cur.segments[1:])]


def test_switch_cap_aborts_with_the_switches_so_far(monkeypatch, example1, curve1):
    # example 1 switches three times; a cap of one aborts at the second switch
    # and names the two switches made, as the full solve locates them
    monkeypatch.setattr(exp_solver, "MAX_SWITCHES", 1)
    with pytest.raises(SolverAbort, match="more than 1 switches") as exc:
        solve(example1, M)
    assert exc.value.diagnostics["switches"] == [
        (s.hi, s.terminal_event) for s in curve1.segments[:2]]


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


def test_csv_roundtrip(tmp_path, monkeypatch, curve1):
    path = tmp_path / "curve.csv"
    Vpp = curve1.Vpp.copy()
    Vpp[-1] = -np.inf  # the deficit-zero node of an aborting march reads -inf
    cur = replace(curve1, Vpp=Vpp, phi=np.where(curve1.x < 1.0, np.nan, curve1.phi))
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
    # V_inf is V at the last node, with or without a sidecar beside the table
    assert back.V_inf == cur.V[-1]
    cur.to_json(tmp_path / "curve.json", manifest={"hash": "deadbeef"})
    assert SolutionCurve.from_csv(path).V_inf == cur.V[-1]
    # the table is written in row blocks; the bytes do not depend on them
    # (example 1 has fewer nodes than one block, so the blocks shrink here)
    lines = path.read_text().splitlines()
    assert len(lines) == 2 + len(cur.x)
    monkeypatch.setattr(curve_module, "CSV_BLOCK", 500)
    cur.to_csv(tmp_path / "blocks.csv", manifest_hash="deadbeef")
    assert (tmp_path / "blocks.csv").read_bytes() == path.read_bytes()
    assert lines[2 + 1000] == "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s" % tuple(
        a[1000] for a in (cur.x, cur.V, cur.Vp, cur.Vpp, cur.J, cur.phi, cur.theta_star,
                          cur.regime))


# ---------------------------------------------------------------------------
# pinned march branches and work counts
# ---------------------------------------------------------------------------

EXAMPLE1 = dict(c=0.02, lam=0.09, mu=0.02, r=0.015, sigma=0.1, a=1.0, b=20.0)
# the pos-altb-convex-open anchor of perfbench/workloads.py: A, B, A, INT, and
# INT reaches x_max
ANCHOR_POS_ALTB = dict(c=0.01551, lam=0.1095, r=0.02674, mu=0.03099, sigma=0.2952,
                       a=1.626, b=13.37)

# SHA-256 of every column, V_inf and the regimes; (params, x_max, segments as
# (regime, terminal event)).  Re-recorded when the interior regime, and then
# every regime, came to be marched in (w, L, V) by Radau, and when the march
# came to start at X0 = 1e-6 (mu=r-ZERO, which starts at 1e-8, kept its bytes;
# old -> new in CHANGES.md)
BRANCH_SHA256 = {
    "mu=r-B-ZERO": (
        dict(c=0.02, lam=0.09, mu=0.015, r=0.015, sigma=0.1, a=1.0, b=20.0), None,
        [("B", "curvature-negative"), ("ZERO", "reached-x-max")],
        "f1a943e82c8e0a983939a7e83c71cb45395c814c1fbb77185efae26ac1c88c7e"),
    "mu=r-ZERO": (
        dict(c=0.1, lam=0.09, mu=0.015, r=0.015, sigma=0.1, a=1.0, b=20.0), None,
        [("ZERO", "derivative-floor")],
        "b8233ae4f76739b1760bb164edcbd41b1bb49188bc8f232efc6c133853967d5c"),
    "example1-x3": (
        EXAMPLE1, 3.0, [("A", "indicator-extreme-bound"), ("B", "reached-x-max")],
        "1478d267b732c83e94e8a5a4455da51ddc0fa0a456463ac5a69c1c3b8f8f0c1d"),
    "example1-x4": (
        EXAMPLE1, 4.0,
        [("A", "indicator-extreme-bound"), ("B", "indicator-extreme-bound"),
         ("A", "reached-x-max")],
        "a52082fcb7d2440cc8d056f595d03860655fb86d9f3e4ca4e2c67c62ff1d2597"),
    "example1-x15": (
        EXAMPLE1, 15.0,
        [("A", "indicator-extreme-bound"), ("B", "indicator-extreme-bound"),
         ("A", "indicator-interior-bound"), ("INT", "reached-x-max")],
        "e25662ce209e4a92322cc0517d96ddc6afcf722543a08afcf39f05a2c11d85c7"),
    "anchor-pos-altb-convex-open": (
        ANCHOR_POS_ALTB, None,
        [("A", "indicator-extreme-bound"), ("B", "indicator-extreme-bound"),
         ("A", "indicator-interior-bound"), ("INT", "reached-x-max")],
        "16aca2d5030b8dae988bf4397fcb69060c5a71d743c4cce6420fe0b81099fbbe"),
}


@pytest.mark.parametrize("case", sorted(BRANCH_SHA256))
def test_march_branch_bytes_pinned(curve_sha256, tail_rule, case):
    params, x_max, segments, digest = BRANCH_SHA256[case]
    cur = solve(ModelParams(**params), M, SolveOptions(x_max=x_max))
    assert [(s.regime, s.terminal_event) for s in cur.segments] == segments
    tail_rule(cur)
    assert curve_sha256(cur) == digest


def test_march_work_counts_in_sidecar(curve1):
    # one record per integrated segment.  Totals: 5,701 steps and 34,256 RHS
    # evaluations while RK45 marched every regime (measured at commit
    # 2250894), 1,280 and 11,332 with the interior regime marched by Radau
    # and the others by RK45, 1,728 and 16,420 with Radau on every segment
    # from the series at x_eps = 0.0111, 1,786 and 18,325 from X0 = 1e-6 (the
    # first segment's steps grow from X0, and overshoot, 178 times)
    march = curve1.sidecar()["march"]
    assert [seg["regime"] for seg in march] == [s.regime for s in curve1.segments]
    assert all(set(seg) == {"regime", "steps", "rhs_evals", "rejected", "newton_iters"}
               for seg in march)
    assert [seg["steps"] for seg in march] == [71, 556, 121, 1038]
    assert sum(seg["rhs_evals"] for seg in march) == 18325
    assert [seg["rejected"] for seg in march] == [178, 7, 2, 2]
    # 1 RHS evaluation starts each segment, 3 go into every round of stage
    # evaluations
    assert all(seg["rhs_evals"] == 1 + 3 * seg["newton_iters"] for seg in march)


@pytest.mark.parametrize("which", ["example1", "example2", "example3"])
def test_survival_between_nodes_matches_segment_ode(request, which):
    # survival at seeded points between nodes against the segment's own
    # (w, L, V) system, w = I/V' = phi (mu - r) x/2, integrated by DOP853
    # from the left node
    p, curve = request.getfixturevalue(which), request.getfixturevalue("curve" + which[-1])
    rng = np.random.default_rng(16)
    xq = rng.uniform(curve.meta["x_eps"], 20.0, 300)
    left = np.searchsorted(curve.x, xq, side="right") - 1
    ref = np.empty_like(xq)
    for j, (x, i) in enumerate(zip(xq, left)):
        y0 = [curve.phi[i] * (p.mu - p.r) * curve.x[i] / 2.0, math.log(curve.Vp[i]), curve.V[i]]
        run = solve_ivp(_w_rhs(_w_system(str(curve.regime[i]), p, M)), (curve.x[i], x), y0,
                        method="DOP853", rtol=1e-13, atol=1e-16)
        ref[j] = run.y[2, -1] / curve.V_inf
    assert np.max(np.abs(curve.survival(xq) / ref - 1.0)) <= 2e-8
