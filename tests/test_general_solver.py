import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from ruinvest.exp_solver import SolverAbort, solve
from ruinvest.general_solver import (HIST_LAGS, HistorySum, general_solve, integrate_w,
                                     solve_constant_regime_near_zero)
from ruinvest.model import ExponentialClaims, GeneralClaims, ModelParams
from ruinvest.operators import infimum, vertex_exclusion

M = 1.0


def t_reference(p, law, tab, xs, ws, x):
    """Tw(x) by direct quadrature of the split convolution, w pchip through (xs, ws).

    W is recovered by integrating w from eps; both convolution pieces are
    composite trapezoid on fine resamplings.  This is the specification's
    route; the march in `integrate_w` tracks the same quantities through its
    deficit state and must agree to quadrature tolerance.
    """
    eps = tab.x[-1]
    w = PchipInterpolator(xs, ws, extrapolate=False)
    # W(x) = V_gamma(eps) + int_eps^x w
    n = max(33, int((x - eps) / 2e-4) + 1)
    ys = np.linspace(eps, x, n)
    wy = w(ys)
    W_at = tab.V[-1] + np.concatenate([[0.0], np.cumsum(0.5 * np.diff(ys) * (wy[1:] + wy[:-1]))])
    piece1 = np.trapezoid(tab.V * law.pdf(x - tab.x), tab.x)
    piece2 = np.trapezoid(W_at * law.pdf(x - ys), ys)
    MV = p.lam * (W_at[-1] - piece1 - piece2)
    return infimum(p, x, float(w(x)), MV, vertex_exclusion(p))[0]


@pytest.fixture(scope="module")
def table1(example1, exp_law):
    return solve_constant_regime_near_zero(example1, exp_law, example1.a)


# ---------------------------------------------------------------------------
# near-zero constant-regime solve
# ---------------------------------------------------------------------------

def test_near_zero_initial_data(table1, example1):
    assert table1.V[0] == 1.0
    assert table1.Vp[0] == example1.lam / example1.c
    assert table1.Vpp[0] == pytest.approx(11.25, abs=1e-8)


def test_near_zero_matches_exponential_series(table1, example1, near_zero_series):
    se = near_zero_series(example1, M, example1.a)
    for i in range(1, len(table1.x), 16):
        V, Vp, Vpp, _ = se(table1.x[i])
        assert table1.V[i] == pytest.approx(V, rel=1e-6)
        assert table1.Vp[i] == pytest.approx(Vp, rel=1e-6)
        assert table1.Vpp[i] == pytest.approx(Vpp, rel=1e-6, abs=1e-6)


def test_near_zero_second_derivative_formula(example3, exp_law):
    # mirrored starting regime: V''(0+) from the stated boundary expression
    tab = solve_constant_regime_near_zero(example3, exp_law, -example3.b)
    lam, c = example3.lam, example3.c
    mu_bar = -example3.b * example3.mu + (1 + example3.b) * example3.r
    want = (lam / c) * (lam / c - 1.0 / M - mu_bar / c)
    assert tab.Vpp[0] == pytest.approx(want, abs=1e-8)
    assert want == pytest.approx(-10.125)


def test_near_zero_mixture_runs(example1, mixture_law):
    tab = solve_constant_regime_near_zero(example1, mixture_law, example1.a)
    assert np.all(tab.Vp > 0)
    assert tab.V[0] == 1.0
    f0 = mixture_law.density_at_zero
    want = (example1.lam / example1.c) * (example1.lam / example1.c - f0
                                          - (example1.r + (example1.mu - example1.r)) / example1.c)
    assert tab.Vpp[0] == pytest.approx(want, rel=1e-12)


def test_near_zero_halves_eps_until_vp_stays_positive(example1):
    # claims of mean 1e-4 turn V' negative before 1e-3: one halving suffices
    tab = solve_constant_regime_near_zero(example1, ExponentialClaims(1e-4), example1.a)
    assert tab.x[-1] == 5e-4
    assert np.all(tab.Vp > 0)


def test_near_zero_abort_names_last_eps_tried(example1):
    # eight halvings of 1e-3 all lose V' > 0; the abort reports the last
    # eps tried, 1e-3/256 (the table solve is called directly, without validate)
    with pytest.raises(SolverAbort, match=r"eps=3\.90625e-06$") as err:
        solve_constant_regime_near_zero(example1, ExponentialClaims(1e-7), example1.a)
    assert err.value.diagnostics == {"epsilon": 1e-3 / 256}


# ---------------------------------------------------------------------------
# the continuation operator
# ---------------------------------------------------------------------------

def test_t_operator_matches_exp_solver_at_handoff(example1, exp_law, table1, curve1):
    # Tw(eps) is the curvature; compare with the exponential path's V''(eps)
    eps = table1.x[-1]
    got = t_reference(example1, exp_law, table1, np.array([eps, eps * 2]),
                      np.array([table1.Vp[-1]] * 2), eps)
    want = float(np.interp(eps, curve1.x, curve1.Vpp))
    assert got == pytest.approx(want, rel=1e-6)


def test_t_operator_positive_homogeneity(example1, exp_law, table1):
    # scaling w and the near-zero table jointly by k scales Tw by k
    eps = table1.x[-1]
    xs = np.linspace(eps, 0.02, 50)
    w_vals = np.full_like(xs, table1.Vp[-1])
    base = t_reference(example1, exp_law, table1, xs, w_vals, 0.015)
    k = 3.5
    import dataclasses
    tab_scaled = dataclasses.replace(table1, V=k * table1.V, Vp=k * table1.Vp,
                                     Vpp=k * table1.Vpp, M=k * table1.M)
    scaled = t_reference(example1, exp_law, tab_scaled, xs, k * w_vals, 0.015)
    assert scaled == pytest.approx(k * base, rel=1e-10)


def test_t_operator_mu_equal_r_max_volatility(exp_law):
    # theta-free numerator: with a positive numerator the infimum sits at the
    # largest-|theta| endpoint
    p = ModelParams(c=0.02, lam=0.09, mu=0.015, r=0.015, sigma=0.1, a=1.0, b=20.0)
    tab = solve_constant_regime_near_zero(p, exp_law, -p.b)
    assert vertex_exclusion(p) == 1e-6
    eps = tab.x[-1]
    xs = np.linspace(eps, 0.01, 30)
    w_vals = np.full_like(xs, tab.Vp[-1])
    x = 0.008
    got = t_reference(p, exp_law, tab, xs, w_vals, x)
    w = PchipInterpolator(xs, w_vals, extrapolate=False)
    # reconstruct the numerator at the same point to predict the endpoint value
    n = 200
    ys = np.linspace(eps, x, n)
    ws = w(ys)
    W = tab.V[-1] + np.concatenate([[0.0], np.cumsum(0.5 * np.diff(ys) * (ws[1:] + ws[:-1]))])
    piece1 = np.trapezoid(tab.V * exp_law.pdf(x - tab.x), tab.x)
    piece2 = np.trapezoid(W * exp_law.pdf(x - ys), ys)
    I = p.lam * (W[-1] - piece1 - piece2) - (p.c + p.r * x) * float(w(x))
    assert I > 0
    # this reconstruction uses its own quadrature grid, so compare loosely;
    # selecting any other candidate would be off by orders of magnitude
    want = 2.0 * I / (p.sigma**2 * p.b**2 * x**2)
    assert got == pytest.approx(want, rel=1e-3)


def test_integrate_w_initial_condition(example1, exp_law, table1):
    march = integrate_w(example1, exp_law, table1, x_max=0.05)
    assert march.x[0] == table1.x[-1]
    assert march.w[0] == table1.Vp[-1]  # w(eps) = V_gamma'(eps) exactly
    assert np.all(march.w > 0)


def test_integrate_w_march_consistent_with_t_operator(example1, exp_law, table1):
    # the marched w' equals the reference quadrature T on the marched w
    march = integrate_w(example1, exp_law, table1, x_max=0.4)
    for x in (0.05, 0.15, 0.3):
        k = int(np.argmin(np.abs(march.x - x)))
        ref = t_reference(example1, exp_law, table1, march.x, march.w, float(march.x[k]))
        assert march.T[k] == pytest.approx(ref, rel=2e-4, abs=1e-8)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def test_exponential_equivalence_example1(example1, exp_law, curve1):
    gen = general_solve(example1, exp_law, x_max=22.0)
    xs = np.linspace(0.0, 20.0, 300)
    rel = np.abs(gen.value(xs) - curve1.value(xs)) / np.abs(curve1.value(xs))
    assert rel.max() <= 1e-5
    assert [s.regime for s in gen.segments][:4] == ["A", "B", "A", "INT"]
    # work counters: every march node is a curve node from eps on, and the
    # FFT products number O(n / HIST_LAGS), not O(n)
    work = gen.meta["continuation"]
    assert set(work) == {"nodes", "step", "fft_products"}
    assert work["nodes"] == np.count_nonzero(gen.x >= gen.meta["epsilon"]) > 40_000
    assert work["step"] == pytest.approx(0.0005, rel=1e-3)
    assert work["nodes"] / HIST_LAGS <= work["fft_products"] <= 2 * work["nodes"] / HIST_LAGS


def test_assemble_smoothness_at_epsilon(example1, exp_law):
    gen = general_solve(example1, exp_law, x_max=2.0)
    eps = gen.meta["epsilon"]
    i = int(np.searchsorted(gen.x, eps))
    # one-sided estimates of V'' across the handoff
    dl = (gen.Vp[i] - gen.Vp[i - 1]) / (gen.x[i] - gen.x[i - 1])
    dr = (gen.Vp[i + 1] - gen.Vp[i]) / (gen.x[i + 1] - gen.x[i])
    assert dl == pytest.approx(dr, rel=1e-3)
    assert gen.Vpp[i] == pytest.approx(0.5 * (dl + dr), rel=1e-3)


def test_mixture_full_solve(example1, mixture_law):
    cur = general_solve(example1, mixture_law, x_max=25.0)
    assert np.all(np.diff(cur.V) >= 0)
    assert np.all(cur.Vp > 0)
    assert cur.V[-1] <= cur.V_inf < np.inf
    assert cur.theta_star.min() >= -example1.b - 1e-12
    assert cur.theta_star.max() <= example1.a + 1e-12


def test_mixture_hjb_residual(example1, mixture_law):
    # the variational inequality holds pointwise with M = lambda(V - J)
    cur = general_solve(example1, mixture_law, x_max=12.0)
    thetas = np.linspace(-example1.b, example1.a, 64)
    sel = np.linspace(10, len(cur.x) - 2, 40).astype(int)
    for i in sel:
        x = cur.x[i]
        if x < cur.meta["epsilon"] * 2:
            continue
        MV = example1.lam * (cur.V[i] - cur.J[i])
        gen = (0.5 * example1.sigma**2 * x**2 * thetas**2 * cur.Vpp[i]
               + (example1.c + example1.r * x + (example1.mu - example1.r) * thetas * x) * cur.Vp[i]
               - MV)
        assert np.max(gen) <= 2e-5 * example1.lam * cur.V[i]


def test_lipschitz_bound_empirical(example1, exp_law, table1):
    # sup |Tv - Tw| <= C sup |v - w| on a fixed window, C stable under
    # grid refinement of the probe
    eps = table1.x[-1]
    for n in (60, 120):
        xs = np.linspace(eps, 0.018, n)
        base = np.full_like(xs, table1.Vp[-1])
        delta = 1e-4 * np.sin(np.linspace(0.0, 3.0, n))
        diffs = [abs(t_reference(example1, exp_law, table1, xs, base + delta, float(x))
                     - t_reference(example1, exp_law, table1, xs, base, float(x)))
                 for x in xs[2::7]]
        C = max(diffs) / np.max(np.abs(delta))
        assert np.isfinite(C)
        assert C < 1e4


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_non_finite_density_aborts_with_diagnostics(example1):
    # a density that is NaN on [5, 5.001), a band validate's quadrature misses
    # (a NaN integral is refused there), is refused before the march, at the
    # first non-finite claim size, instead of handing NaN columns to the
    # curve's interpolants (or naming a node that an FFT product reaches first)
    def pdf(s):
        return np.where((s >= 5.0) & (s < 5.001), np.nan, np.exp(-s))
    law = GeneralClaims(pdf=pdf, cdf=lambda s: 1.0 - np.exp(-s), mean=1.0,
                        pdf_derivative=lambda s: -pdf(s))
    with pytest.raises(SolverAbort) as err:
        general_solve(example1, law, x_max=8.0)
    assert set(err.value.diagnostics) == {"s"}
    assert 5.0 <= err.value.diagnostics["s"] < 5.001


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_non_finite_state_aborts_with_diagnostics(example1):
    # NaN only strictly between the grid's claim sizes (multiples of h) passes
    # the kernel check; it reaches w through the near-zero-table quadrature,
    # which evaluates f off the grid, and the per-node check stops the march
    def pdf(s):
        return np.where((s > 5.0002) & (s < 5.0003), np.nan, np.exp(-s))
    law = GeneralClaims(pdf=pdf, cdf=lambda s: 1.0 - np.exp(-s), mean=1.0,
                        pdf_derivative=lambda s: -np.exp(-s))
    with pytest.raises(SolverAbort) as err:
        general_solve(example1, law, x_max=8.0)
    assert set(err.value.diagnostics) == {"x", "w"}
    assert 5.0002 < err.value.diagnostics["x"] < 5.0014
    assert not np.isfinite(err.value.diagnostics["w"])


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 1000, 4097])
def test_history_sum_matches_convolve(n, exp_law, mixture_law, erlang_law):
    # each S[k] is read before w[k] is pushed, as the march reads it, and
    # matches the direct sum to roundoff in the size of its terms
    rng = np.random.default_rng(n)
    for law in (exp_law, mixture_law, erlang_law):
        F = law.pdf(0.0005 * np.arange(n + 1))
        w = rng.uniform(0.1, 2.0, n + 1)
        hist = HistorySum(F)
        got = np.empty(n + 1)
        for k in range(n + 1):
            got[k] = hist.at(k)
            hist.push(k, w[k])
        lagged = np.concatenate([[0.0], F[1:]])
        want = np.convolve(w, lagged)[:n + 1]
        scale = np.convolve(np.abs(w), np.abs(lagged))[:n + 1]
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        assert np.array_equal(hist.w, w)


def test_general_solve_rejects_equal_rates(exp_law):
    p = ModelParams(c=0.02, lam=0.09, mu=0.015, r=0.015, sigma=0.1, a=1.0, b=20.0)
    with pytest.raises(SolverAbort):
        general_solve(p, exp_law, x_max=1.0)


def test_general_solve_rejects_x_max_below_start(example1, exp_law):
    # the continuation starts at the near-zero table's end eps = 1e-3
    with pytest.raises(SolverAbort) as err:
        general_solve(example1, exp_law, x_max=1e-4)
    assert err.value.diagnostics == {"x_max": 1e-4, "epsilon": 1e-3}
    assert "x_max" in str(err.value) and "eps" in str(err.value)


@pytest.mark.parametrize("step", [0.0, -1.0, np.inf, np.nan])
def test_general_solve_rejects_bad_step(example1, exp_law, step):
    with pytest.raises(ValueError, match="step must be finite and positive"):
        general_solve(example1, exp_law, x_max=1.0, step=step)


@pytest.mark.parametrize("x_max", [np.inf, -np.inf, np.nan])
def test_general_solve_rejects_non_finite_x_max(example1, exp_law, x_max):
    # refused before the near-zero table, where inf would overflow and NaN
    # fail an int()
    with pytest.raises(ValueError, match="x_max must be finite"):
        general_solve(example1, exp_law, x_max=x_max)


# example 1.  All three digests were recorded at commit 3c87c69, before the
# w-independent history terms were tabulated in blocks (a bit-identical
# change).  The exp_law and erlang_law digests were re-recorded when the
# history sum became the online FFT convolution `HistorySum`: it sums in
# another order, which moves V and J by <= 5e-16 and Vp, Vpp and theta by
# <= 2.4e-12 relative on these two cases.  The mixture digest did not move.
# All three were re-recorded when their open tails (INT at x_max) stopped
# adding a power-law guess, so V_inf is V(x_max) with every column unchanged:
# exp_law 45.24726200870674 -> 43.96838235015363, mixture_law
# 53.210509434391206 -> 51.585190487281935, erlang_law 27.29905174835323 ->
# 26.499038570485126.
GENERAL_SHA256 = {
    ("exp_law", 11.0): "06955afc83850844f886bdc7bf4d5d44516c791ec90ccb74c9de7032f7d70c7a",
    ("mixture_law", 8.0): "5e9a884e22b8a1a7cb90d76cce04538a5023ca5bb49d63b2e3a496d823fe604d",
    ("erlang_law", 4.0): "d30445b6f83b0107beee1fcd8b513ffc7f6c7b15fa05ae95360955c034631609",
}


@pytest.mark.parametrize("law_name, x_max", sorted(GENERAL_SHA256))
def test_general_solve_bytes_pinned(request, example1, curve_sha256, tail_rule, law_name,
                                    x_max):
    law = request.getfixturevalue(law_name)
    cur = general_solve(example1, law, x_max=x_max)
    tail_rule(cur)
    assert curve_sha256(cur) == GENERAL_SHA256[(law_name, x_max)]


def test_continuation_observed_order(example1, exp_law, curve1):
    # halving the step cuts the gap to the fast path by >= 4x (second order);
    # at step 0.0005 the gap flattens near 1.6e-6 (ratio ~3.8), the floor set
    # by the continuation itself, so that step is left out
    xs = np.linspace(0.0, 6.0, 300)
    ref = curve1.value(xs)
    gaps = [np.max(np.abs(general_solve(example1, exp_law, x_max=6.0, step=s).value(xs) - ref)
                   / np.abs(ref))
            for s in (0.004, 0.002, 0.001)]
    assert gaps[0] / gaps[1] >= 4.0
    assert gaps[1] / gaps[2] >= 4.0


# two general_solve calls in a fresh process; ru_minflt of the second
FAULT_PROBE = """
import resource
from ruinvest.general_solver import general_solve
from ruinvest.model import ExponentialClaims, ModelParams
p = ModelParams(c=0.02, lam=0.09, mu=0.02, r=0.015, sigma=0.1, a=1.0, b=20.0)
general_solve(p, ExponentialClaims(1.0), x_max=11.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
general_solve(p, ExponentialClaims(1.0), x_max=11.0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mmap threshold")
def test_near_zero_blocks_reuse_heap_memory():
    # the near-zero blocks' temporaries are small enough for glibc to serve
    # from reused heap chunks, so a repeated solve faults few fresh pages
    # (about 40k faults at NEAR_BLOCK = 256)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", FAULT_PROBE], capture_output=True, text=True,
                         env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout.split()[-1]) < 10_000
