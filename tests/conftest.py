import hashlib

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ruinvest.model import ExponentialClaims, GeneralClaims, ModelParams, regime_constants
from ruinvest.operators import regime_fraction


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

    # the equation is singular at x = 0; the first segment's series prefix is
    # checked by the series tests, the ODE comparison starts at the handoff
    lo = max(segment.lo, curve.meta.get("x_eps", 0.0))
    inside = (curve.x >= lo) & (curve.x <= segment.hi) & (curve.x > 0)
    xs = curve.x[inside]
    if len(xs) < 3:
        return 0.0
    i0 = np.nonzero(inside)[0][0]
    y0 = [curve.V[i0], curve.Vp[i0], curve.Vpp[i0]]
    sol = solve_ivp(rhs, (xs[0], xs[-1]), y0, method="RK45", rtol=1e-12, atol=1e-14,
                    t_eval=xs, max_step=0.5)
    assert sol.success, f"third-order cross-check integration failed: {sol.message}"
    relV = np.max(np.abs(sol.y[0] - curve.V[inside]) / np.abs(curve.V[inside]))
    relVp = np.max(np.abs(sol.y[1] - curve.Vp[inside]) / np.abs(curve.Vp[inside]))
    return float(max(relV, relVp))


@pytest.fixture(scope="session")
def third_order_check():
    """check(curve, segment, params, m), the third-order cross-check of a constant segment."""
    return _third_order_check
