import hashlib

import numpy as np
import pytest

from ruinvest.model import ExponentialClaims, GeneralClaims, ModelParams


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
