"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line."""
import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from ruinvest.exp_solver import SolveOptions, solve
from ruinvest.general_solver import general_solve
from ruinvest.model import ExponentialClaims, convex_start_condition, regime_constants
from ruinvest.operators import indicator_bands, regime_for_indicator
from ruinvest.simulator import (ConstantPolicy, FeedbackPolicy, SimConfig,
                                compare_policies, estimate_survival,
                                lundberg_ruin_probability)

M = 1.0
N_PATHS = 100_000
SEED = 77

# Example 1 switch abscissas, frozen after the first verified run
X1_FIX, X2_FIX, X3_FIX = 0.021941989, 3.207494533, 4.131445767


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_boundary_values(example1, example2, example3,
                                     curve1, curve2, curve3):
    for p, cur, gamma0 in ((example1, curve1, example1.a),
                           (example2, curve2, -example2.b),
                           (example3, curve3, -example3.b)):
        lam, c = p.lam, p.c
        assert cur.V[0] == 1.0
        assert abs(cur.Vp[0] - lam / c) <= 1e-8
        assert lam / c == pytest.approx(4.5)
        vpp_formula = (lam / c) * (lam / c - 1.0 / M - (p.r + gamma0 * (p.mu - p.r)) / c)
        assert abs(cur.Vpp[0] - vpp_formula) <= 1e-8
    assert curve1.Vpp[0] == pytest.approx(11.25, abs=1e-8)
    cond_value = M * (example1.a * example1.mu + (1 - example1.a) * example1.r
                      - example1.lam) + example1.c
    assert cond_value == pytest.approx(-0.05)
    assert cond_value < 0
    assert convex_start_condition(example1, M)
    _report(1, True, "V(0)=1, V'(0+)=4.5, V''(0+) matches the boundary formula "
                     "(11.25 for example 1; condition value -0.05 < 0)")


def test_criterion_2_switching_structure(curve1):
    regimes = [s.regime for s in curve1.segments]
    assert regimes == ["A", "B", "A", "INT"]
    x1, x2, x3 = curve1.switch_points
    assert 0.0 < x1 < x2 < x3 < np.inf
    assert x1 == pytest.approx(X1_FIX, rel=1e-6)
    assert x2 == pytest.approx(X2_FIX, rel=1e-6)
    assert x3 == pytest.approx(X3_FIX, rel=1e-6)
    _report(2, True, f"segments A->B->A->INT with x1={x1:.6f}, x2={x2:.6f}, "
                     f"x3={x3:.6f} (regression-frozen)")


def _far_field_error(p, cur, i):
    """Relative gap of theta*(x_i) to the asymptote m(mu-r)/(sigma^2 (x - k m))."""
    k = p.lam / p.r - 1.0
    limit = M * (p.mu - p.r) / p.sigma**2
    return abs(cur.theta_star[i] * (cur.x[i] - k * M) / limit - 1.0)


def test_criterion_3_far_field_limit(example1, example2, example3,
                                     curve1, curve2, curve3):
    """The optimal fraction tends to 0 like m(mu-r)/(sigma^2 (x - (lambda/r-1) m)).

    Since [-b, a] contains 0, the constraint is slack far out and the problem
    behaves like the unrestricted one, whose optimal policy invests a bounded
    amount (Hipp & Plum 2000), so the optimal fraction tends to 0.  Once the
    investment term is negligible, (c + r x) V' = lambda (V - J) with
    J' = (V - J)/m gives V''/V' = (lambda - r)/(c + r x) - 1/m, i.e.

        V' ~ C x^(lambda/r - 1) e^(-x/m),
        -V''/V' = 1/m - (lambda/r - 1)/x + O(x^-2),

    and the interior fraction theta* = -(mu-r) V'/(sigma^2 x V'') becomes

        theta*(x) ~ m (mu-r) / (sigma^2 (x - (lambda/r - 1) m))

    (0.5/(x - 5) for example 1).  The constant
    (mu-r) sigma_bar^2/(2 mu_bar sigma^2) = 0.125 is the vertex limit of the
    constant-fraction (theta = a) equation instead: its V' ~ x^(-2 mu_bar/
    sigma_bar^2) is a power law, which the solution's exponential decay beats,
    so the solution leaves that regime for good.  Checked here:
      * the constant-regime continuation's vertex tends to 0.125;
      * on example 1 the gap to the asymptote shrinks at x = 8, 16, 32 and is
        at most 1% at 32;
      * on every example the last node has a finite V'' < 0 and theta* within
        1% of the asymptote;
      * theta* at the last node does not change as X_max doubles.
    """
    rc = regime_constants(example1, example1.a)
    limit = (example1.mu - example1.r) * rc.sigma_bar**2 / (2.0 * rc.mu_bar * example1.sigma**2)
    assert limit == pytest.approx(0.125)

    # the constant-regime continuation does exhibit 0.125: continue the
    # maximal-long equation from inside its last stretch and track the vertex
    i0 = int(np.searchsorted(curve1.x, 3.5))
    y0 = [curve1.V[i0], curve1.Vp[i0], curve1.V[i0] - curve1.J[i0]]

    def rhs(x, y):
        V, v, D = y
        vpp = 2.0 * (example1.lam * D - (example1.c + rc.mu_bar * x) * v) / (
            rc.sigma_bar**2 * x**2)
        return [v, vpp, v - D / M]

    sol = solve_ivp(rhs, (curve1.x[i0], 4000.0), y0, rtol=1e-11, atol=1e-14)
    V, v, D = sol.y[:, -1]
    vpp = rhs(sol.t[-1], sol.y[:, -1])[1]
    vertex_linear = -(example1.mu - example1.r) * v / (example1.sigma**2 * sol.t[-1] * vpp)
    assert vertex_linear == pytest.approx(limit, rel=0.05)

    # the solution's own far field
    errs = [_far_field_error(example1, curve1, int(np.searchsorted(curve1.x, xx)))
            for xx in (8.0, 16.0, 32.0)]
    edges = [(float(cur.x[-1]), float(cur.Vpp[-1]), _far_field_error(p, cur, -1))
             for p, cur in ((example1, curve1), (example2, curve2), (example3, curve3))]

    # the right edge belongs to the solution, not to X_max: theta* at the
    # default run's last node, read off the runs to 2 and 4 X_max (which end
    # on the derivative floor, past it) by a cubic spline through their nodes
    x_max0 = 200.0 * example1.c / example1.lam
    runs = [solve(example1, M, SolveOptions(x_max=mult * x_max0)) for mult in (1.0, 2.0, 4.0)]
    x_last = runs[0].x[-1]
    last_theta = [float(CubicSpline(cur.x[near], cur.theta_star[near])(x_last))
                  for cur in runs for near in [np.abs(cur.x - x_last) < 1.0]]

    ok = (errs[0] > errs[1] > errs[2] and errs[2] <= 0.01
          and all(np.isfinite(vpp) and vpp < 0 and err <= 0.01 for _, vpp, err in edges)
          and all(t == pytest.approx(last_theta[0], rel=1e-9) for t in last_theta))
    _report(3, ok,
            f"theta*(x)(x-5)/0.5 - 1 on example 1 = {[f'{e:.4f}' for e in errs]} at "
            f"x = 8, 16, 32; last node (x, V'', gap) = "
            f"{[(round(x, 2), f'{vpp:.2e}', f'{e:.4f}') for x, vpp, e in edges]}; "
            f"last theta* under X_max doubling = {[f'{t:.6f}' for t in last_theta]}; "
            f"constant-regime vertex -> {vertex_linear:.4f}")
    assert ok, (errs, edges, last_theta)


def _hjb_residual_max(p, cur):
    thetas = np.linspace(-p.b, p.a, 64)
    x = cur.x
    MV = p.lam * (cur.V - cur.J)
    # broadcast nodes x fractions
    diff = 0.5 * p.sigma**2 * (x**2 * cur.Vpp)[:, None] * thetas[None, :] ** 2
    drift = ((p.c + p.r * x) [:, None]
             + (p.mu - p.r) * x[:, None] * thetas[None, :]) * cur.Vp[:, None]
    gen = diff + drift - MV[:, None]
    tol = 1e-6 * p.lam * cur.V
    worst_sweep = float(np.max(gen.max(axis=1) - tol))
    g_star = (0.5 * p.sigma**2 * x**2 * cur.theta_star**2 * cur.Vpp
              + (p.c + p.r * x + (p.mu - p.r) * cur.theta_star * x) * cur.Vp - MV)
    worst_star = float(np.max(np.abs(g_star) - tol))
    return worst_sweep, worst_star


def test_criterion_4_hjb_residual(example1, example2, example3, curve1, curve2, curve3):
    worst = -np.inf
    for p, cur in ((example1, curve1), (example2, curve2), (example3, curve3)):
        ws, wstar = _hjb_residual_max(p, cur)
        worst = max(worst, ws, wstar)
        assert ws <= 0.0
        assert wstar <= 0.0
    _report(4, True, f"generator residuals within 1e-6*lambda*V at every node "
                     f"(worst margin {worst:.2e})")


def test_criterion_5_scheme_equivalence(example1, example2, example3,
                                        curve1, curve2, curve3, exp_law, third_order_check):
    # (a) independent third-order integration on constant-regime segments
    worst_dev = 0.0
    for p, cur in ((example1, curve1), (example2, curve2), (example3, curve3)):
        for seg in cur.segments:
            if seg.regime in ("A", "B"):
                dev = third_order_check(cur, seg, p, M)
                worst_dev = max(worst_dev, dev)
                assert dev <= 1e-6
    # (b) the continuation path agrees with the exponential fast path
    worst_gap = 0.0
    xs = np.linspace(0.0, 20.0, 300)
    for p, cur in ((example1, curve1), (example2, curve2), (example3, curve3)):
        gen = general_solve(p, exp_law, x_max=22.0)
        gap = float(np.max(np.abs(gen.value(xs) - cur.value(xs)) / np.abs(cur.value(xs))))
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-5
    _report(5, True, f"third-order cross-check <= {worst_dev:.2e}; "
                     f"continuation-vs-fast-path gap <= {worst_gap:.2e}")


def test_criterion_6_theorem_consistency(example1, example2, example3,
                                         curve1, curve2, curve3):
    for p, cur in ((example1, curve1), (example2, curve2), (example3, curve3)):
        bounds = {t for band in indicator_bands(p).values() for t in band if t is not None}
        band = 1e-7 * (1.0 + sum(abs(t) for t in bounds))
        live = cur.x > 0
        phi = cur.phi[live]
        theta = cur.theta_star[live]
        if p.mu > p.r:
            assert np.all(phi > 0)
        else:
            assert np.all(phi < 0)
        for ph, th in zip(phi, theta):
            want = regime_for_indicator(ph, p)
            if want == "A" and abs(th - p.a) <= 1e-12:
                continue
            if want == "B" and abs(th + p.b) <= 1e-12:
                continue
            if want == "INT" and abs(th - np.clip(ph, -p.b, p.a)) <= 1e-9 * (1 + abs(ph)):
                continue
            # threshold-straddling nodes: the bisection lands within `band`
            dist = min(abs(ph - t) for t in bounds)
            assert dist <= band, (ph, th, dist)
    assert indicator_bands(example1)["B"][0] == pytest.approx(40.0 / 19.0)
    _report(6, True, "theta* follows the case tables at every node; indicator "
                     "sign positive for example 1, negative for examples 2-3; "
                     "threshold 2ab/(b-a) = 40/19")


def test_criterion_7_simulator_oracle(oracle_report):
    rep, params = oracle_report
    worst_z = 0.0
    for row in rep.rows:
        ruin_ref = float(lundberg_ruin_probability(0.2, 0.09, M, row["x0"]))
        diff = abs(row["p_hat"] - (1.0 - ruin_ref))
        worst_z = max(worst_z, diff / row["ci_half"])
        assert diff <= 2.0 * row["ci_half"]
    _report(7, True, f"survival matches 1 - 0.45 exp(-0.55 x) at x in "
                     f"{{0,1,2,5}} with n=1e5 (worst {worst_z:.2f} CI)")


@pytest.fixture(scope="module")
def oracle_report():
    from ruinvest.model import ModelParams
    p = ModelParams(c=0.2, lam=0.09, mu=0.0, r=0.0, sigma=0.1, a=1.0, b=1.0)
    cfg = SimConfig(n_paths=N_PATHS, rng_seed=SEED)
    rep = estimate_survival([0.0, 1.0, 2.0, 5.0], ConstantPolicy(0.0, p), p,
                            ExponentialClaims(M), cfg)
    return rep, p


@pytest.fixture(scope="module")
def comparison_report(example1, curve1, exp_law):
    policies = [FeedbackPolicy(curve1, example1, label="feedback"),
                ConstantPolicy(example1.a, example1, label="const(a)"),
                ConstantPolicy(-example1.b, example1, label="const(-b)"),
                ConstantPolicy(0.0, example1, label="const(0)")]
    cfg = SimConfig(n_paths=N_PATHS, rng_seed=SEED)
    return compare_policies([1.0, 5.0, 10.0], policies, example1, exp_law, cfg)


@pytest.mark.slow
def test_criterion_8_verification_theorem(example1, curve1, comparison_report):
    rep = comparison_report
    worst_z = 0.0
    for x0 in (1.0, 5.0, 10.0):
        row = rep.lookup(x0, "feedback")
        ref = float(curve1.survival(x0))
        diff = abs(row["p_hat"] - ref)
        worst_z = max(worst_z, diff / row["ci_half"])
        assert diff <= 2.0 * row["ci_half"], (x0, row["p_hat"], ref)
        for other in ("const(a)", "const(-b)", "const(0)"):
            o = rep.lookup(x0, other)
            margin = o["p_hat"] - row["p_hat"]
            assert margin <= 2.0 * (o["ci_half"] + row["ci_half"]), (x0, other)
    _report(8, True, f"MC survival under the feedback policy matches V/V_inf "
                     f"within 2 CI (worst {worst_z:.2f} CI) and is not "
                     f"dominated by any constant policy")


def test_criterion_9_smoothness(curve1, curve2, curve3):
    worst = 0.0
    for cur in (curve1, curve2, curve3):
        for xi in cur.switch_points:
            d = 1e-7 * max(1.0, xi)
            vpl = np.interp([xi - d, xi], cur.x, cur.Vp)
            vpr = np.interp([xi, xi + d], cur.x, cur.Vp)
            left = (vpl[1] - vpl[0]) / d
            right = (vpr[1] - vpr[0]) / d
            rel = abs(right - left) / abs(0.5 * (left + right))
            worst = max(worst, rel)
            assert rel <= 1e-4
    _report(9, True, f"one-sided V'' estimates agree at every switch point "
                     f"(worst relative gap {worst:.2e})")
