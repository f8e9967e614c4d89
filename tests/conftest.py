import hashlib

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ruinvest.curve import REGIME_INTERIOR, REGIME_ZERO
from ruinvest.model import ExponentialClaims, GeneralClaims, ModelParams, regime_constants
from ruinvest.operators import deficit, indicator, indicator_bands, regime_fraction, start_regime


@pytest.fixture(scope="session")
def example1():
    return ModelParams(c=0.02, lam=0.09, mu=0.02, r=0.015, sigma=0.1, a=1.0, b=20.0)


@pytest.fixture(scope="session")
def example2():
    return ModelParams(c=0.02, lam=0.09, mu=0.02, r=0.025, sigma=0.1, a=20.0, b=1.0)


@pytest.fixture(scope="session")
def example3():
    return ModelParams(c=0.02, lam=0.09, mu=0.01, r=0.015, sigma=0.1, a=1.0, b=20.0)


@pytest.fixture(scope="session")
def exp_law():
    return ExponentialClaims(1.0)


@pytest.fixture(scope="session")
def mixture_law():
    """0.5 Exp(1) + 0.5 Exp(2): continuous density on (0, inf), mean 1.5."""
    return GeneralClaims(
        pdf=lambda s: 0.5 * np.exp(-s) + 0.25 * np.exp(-s / 2.0),
        cdf=lambda s: 1.0 - 0.5 * np.exp(-s) - 0.5 * np.exp(-s / 2.0),
        mean=1.5,
        sampler=lambda rng, size: np.where(rng.random(size) < 0.5,
                                           rng.exponential(1.0, size),
                                           rng.exponential(2.0, size)),
        pdf_derivative=lambda s: -0.5 * np.exp(-s) - 0.125 * np.exp(-s / 2.0),
    )


@pytest.fixture(scope="session")
def erlang_law():
    """Erlang-2 with mean 1: f(0) = 0 and no analytic density derivative."""
    return GeneralClaims(
        pdf=lambda s: np.where(s >= 0, 4.0 * s * np.exp(-2.0 * s), 0.0),
        cdf=lambda s: np.where(s >= 0, 1.0 - np.exp(-2.0 * s) * (1.0 + 2.0 * s), 0.0),
        mean=1.0,
    )


@pytest.fixture(scope="session")
def curve1(example1):
    from ruinvest.exp_solver import solve
    return solve(example1, 1.0)


@pytest.fixture(scope="session")
def curve2(example2):
    from ruinvest.exp_solver import solve
    return solve(example2, 1.0)


@pytest.fixture(scope="session")
def curve3(example3):
    from ruinvest.exp_solver import solve
    return solve(example3, 1.0)


@pytest.fixture(scope="session")
def curve_sha256():
    """SHA-256 of a curve's columns, V_inf and regime labels, bit for bit."""
    def digest(cur):
        h = hashlib.sha256()
        for a in (cur.x, cur.V, cur.Vp, cur.Vpp, cur.J, cur.phi, cur.theta_star, [cur.V_inf]):
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        h.update("|".join(map(str, cur.regime)).encode())
        return h.hexdigest()
    return digest


@pytest.fixture(scope="session")
def tail_rule():
    """Asserts the one tail rule: V_inf is V at the last node, bit for bit,
    and the tail is "converged" with a finite bound or "open" with none."""
    def check(cur):
        tail = cur.meta["tail"]
        assert cur.V_inf == cur.V[-1]
        assert tail["mode"] in ("converged", "open")
        bound = tail["tail_mass_bound"]
        assert bound is None if tail["mode"] == "open" else 0.0 <= bound < np.inf
    return check


def _third_order_check(curve, segment, params, m):
    """Max relative deviation of (V, V') from the third-order linear ODE.

    The constant-regime equation reduces (for exponential claims) to

        x^2 V''' + [x^2/m + 2(1 + mu_bar/sigma_bar^2) x + 2c/sigma_bar^2] V''
                 + 2 [mu_bar x/(m sigma_bar^2)
                      + (mu_bar - lambda + c/m)/sigma_bar^2] V' = 0,

    an independent route to the same solution; integrating it from the
    segment's left endpoint must reproduce the curve.
    """
    if segment.regime not in ("A", "B"):
        raise ValueError("third-order check applies to constant-regime segments")
    rc = regime_constants(params, regime_fraction(params, segment.regime))
    mb, sb2 = rc.mu_bar, rc.sigma_bar**2

    def rhs(x, y):
        V, Vp, Vpp = y
        Vppp = -((x**2 / m + 2.0 * (1.0 + mb / sb2) * x + 2.0 * params.c / sb2) * Vpp
                 + 2.0 * (mb * x / (m * sb2) + (mb - params.lam + params.c / m) / sb2) * Vp) / x**2
        return (Vp, Vpp, Vppp)

    # the equation is singular at x = 0; the start's Taylor terms are checked
    # by the series tests, the ODE comparison starts where the march does
    lo = max(segment.lo, curve.meta.get("x_eps", 0.0))
    inside = (curve.x >= lo) & (curve.x <= segment.hi) & (curve.x > 0)
    xs = curve.x[inside]
    if len(xs) < 3:
        return 0.0
    i0 = np.nonzero(inside)[0][0]
    y0 = [curve.V[i0], curve.Vp[i0], curve.Vpp[i0]]
    # stiff from X0 = 1e-6 (2c/(sigma_bar^2 x^2)): RK45 took a minute a segment
    sol = solve_ivp(rhs, (xs[0], xs[-1]), y0, method="LSODA", rtol=1e-12, atol=1e-14,
                    t_eval=xs, max_step=0.5)
    assert sol.success, f"third-order cross-check integration failed: {sol.message}"
    relV = np.max(np.abs(sol.y[0] - curve.V[inside]) / np.abs(curve.V[inside]))
    relVp = np.max(np.abs(sol.y[1] - curve.Vp[inside]) / np.abs(curve.Vp[inside]))
    return float(max(relV, relVp))


@pytest.fixture(scope="session")
def third_order_check():
    """check(curve, segment, params, m), the third-order cross-check of a constant segment."""
    return _third_order_check


# ---------------------------------------------------------------------------
# reference layers: the pointwise forms the tests hold the production kernel to
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def curvature():
    """curvature(regime, p, x, Vp, MV, dMV=None): V'' prescribed by the regime's
    equation, in (V', M):

    A, B (constant gamma in {a, -b}, effective mu_bar, sigma_bar as in
    `regime_constants`):  V'' = 2 [M - (c + mu_bar x) V'] / (sigma_bar^2 x^2)
    INT (vertex):          V'' = -(mu - r)^2 V'^2 / (2 sigma^2 I)
    ZERO (mu = r, theta = 0, V' = M/(c + r x)):
                           V'' = [M' (c + r x) - r M] / (c + r x)^2,
    where ZERO needs dMV = M'(x) and ignores Vp.
    """
    def curvature(regime, p, x, Vp, MV, dMV=None):
        c, r = p.c, p.r
        if regime == REGIME_INTERIOR:
            return -((p.mu - p.r) ** 2) * Vp**2 / (2.0 * p.sigma**2 * deficit(p, x, Vp, MV))
        if regime == REGIME_ZERO:
            return (dMV * (c + r * x) - r * MV) / (c + r * x)**2
        rc = regime_constants(p, regime_fraction(p, regime))
        return 2.0 * (MV - (c + rc.mu_bar * x) * Vp) / (rc.sigma_bar**2 * x**2)
    return curvature


def _infimum_reference(p, x, Vp, MV, exclusion):
    """(V'', argmin theta) of the infimum form over theta in [-b, -A] u [A, a],
    by the list minimum over its candidates a, -b, A, -A and, for I > 0 inside
    the bands, phi: ties go to the first listed, and `min` keeps a NaN at a."""
    if exclusion >= p.a or exclusion >= p.b:
        raise ValueError(f"exclusion cutoff {exclusion} must be below min(a, b) = {min(p.a, p.b)}")
    I = deficit(p, x, Vp, MV)
    ex = (p.mu - p.r) * x * Vp
    scale = 2.0 / (p.sigma**2 * x**2)
    cands = [p.a, -p.b, exclusion, -exclusion]
    if I > 0 and ex != 0.0:
        phi = 2.0 * I / ex
        if exclusion <= abs(phi) and -p.b <= phi <= p.a:
            cands.append(phi)
    vals = [scale * (I - t * ex) / t**2 for t in cands]
    i = vals.index(min(vals))
    return vals[i], cands[i]


@pytest.fixture(scope="session")
def infimum_reference():
    """infimum_reference(p, x, Vp, MV, exclusion): the list form of
    `operators.infimum_fn`, which must match it bit for bit."""
    return _infimum_reference


def _regime_for_indicator(phi, params):
    """Regime the case table prescribes at phi; NaN maps to `start_regime`."""
    near = start_regime(params)
    for regime, (lo, hi) in indicator_bands(params).items():
        if regime != near and (lo is None or phi > lo) and (hi is None or phi < hi):
            return regime
    return near


@pytest.fixture(scope="session")
def regime_for_indicator():
    """regime_for_indicator(phi, params): the case table's regime at phi."""
    return _regime_for_indicator


class _NearZeroSeries:
    """The near-zero oracle: K terms of the asymptotic series of a constant
    regime gamma in {a, -b}, V(x) = 1 + D1 [x + sum_{k>=2} D_k x^k / k],
    with D1..D3 as in `exp_solver.series_coefficients` and, for k >= 4,

        D_k = [ -D_{k-1} ((k-1)(k-2) sigma_bar^2/2 + (k-1) mu_bar - lambda + c/m)
                - (1/m) D_{k-2} ((k-3) sigma_bar^2/2 + mu_bar) ] / (c (k-1)).

    The sign of the D_{k-2} term is forced by the equation itself (with a
    plus the residual is Theta(x^3) instead of vanishing to all orders).
    The D_k grow factorially, so the series is read only below `handoff()`.
    """

    def __init__(self, params, m, gamma, K=40):
        rc = regime_constants(params, gamma)
        mb, sb, c, lam = rc.mu_bar, rc.sigma_bar, params.c, params.lam
        D = np.zeros(K + 1)
        D[1] = lam / c
        D[2] = -((mb - lam) / c + 1.0 / m)
        D[3] = -(D[2] * (sb**2 + 2.0 * mb - lam + c / m) + mb / m) / (2.0 * c)
        for k in range(4, K + 1):
            D[k] = (
                -D[k - 1] * ((k - 1) * (k - 2) * sb**2 / 2.0 + (k - 1) * mb - lam + c / m)
                - (1.0 / m) * D[k - 2] * ((k - 3) * sb**2 / 2.0 + mb)
            ) / (c * (k - 1))
        self.params, self.mu_bar, self.sigma_bar, self.D, self.K = params, mb, sb, D, K

    def __call__(self, x):
        """(V, Vp, Vpp, J) at x; J = V - M(V)/lambda from the regime equation,
        M(V) = (c + mu_bar x) V' + sigma_bar^2 x^2 V''/2 (exact for exponential claims)."""
        p, D, k = self.params, self.D, np.arange(2, self.K + 1)
        V = 1.0 + D[1] * x + D[1] * float(np.sum(D[2:] / k * x**k))
        Vp = D[1] * (1.0 + float(np.sum(D[2:] * x ** (k - 1))))
        Vpp = D[1] * float(np.sum((k - 1) * D[2:] * x ** (k - 2)))
        M = (p.c + self.mu_bar * x) * Vp + 0.5 * self.sigma_bar**2 * x**2 * Vpp
        return V, Vp, Vpp, V - M / p.lam

    def handoff(self):
        """Where the series hands over to a march: the largest x = 0.1 * 0.7^j
        (at least 1e-6) whose last term of V'' is at most 1e-12 of |V''| + |V'|,
        cut to half the first point of a 200-point geometric scan up from 1e-6
        at which the case table leaves the start regime (mu != r)."""
        p, D, K, x = self.params, self.D, self.K, 0.1
        while x > 1e-6 and (abs(D[1] * (K - 1) * D[K]) * x ** (K - 2)
                            > 1e-12 * (abs(self(x)[2]) + abs(self(x)[1]))):
            x *= 0.7
        for xq in np.geomspace(1e-6, max(x, 1e-6), 200):
            V, Vp, _, J = self(xq)
            phi = indicator(p, xq, Vp, deficit(p, xq, Vp, p.lam * (V - J)))
            if _regime_for_indicator(phi, p) != start_regime(p):
                return max(1e-6, xq / 2.0)
        return max(x, 1e-6)


@pytest.fixture(scope="session")
def near_zero_series():
    """near_zero_series(params, m, gamma, K=40): the series oracle, called at x."""
    return _NearZeroSeries
