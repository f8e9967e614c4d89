"""Asymptotic series of the constant-regime value function near zero surplus.

Bounded solutions of the constant-regime integro-differential equation with
exponential claims admit the expansion

    V(x) = 1 + D1 [ x + sum_{k>=2} C_k x^k ],   C_k = D_k / k,

normalised to V(0) = 1, with D1 = lambda/c and an explicit two-term
recursion for the D_k driven by the regime's effective drift mu_bar and
volatility sigma_bar.
The series is asymptotic (the D_k grow factorially), so it is only ever
evaluated on a small initial interval chosen by `handoff_point`; the ODE
march takes over from there.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, regime_constants
from .operators import deficit, indicator, regime_for_indicator, start_regime

__all__ = ["SeriesExpansion", "series_coefficients", "series_eval", "handoff_point"]

# handoff_point's truncation tolerance and its clamp on x_eps
HANDOFF_REL_TOL = 1e-12
HANDOFF_LO = 1e-6
HANDOFF_HI = 0.1


@dataclass(frozen=True)
class SeriesExpansion:
    """Truncated near-zero series of a constant-regime solution."""

    gamma: float          # the regime fraction (a or -b)
    mu_bar: float
    sigma_bar: float
    D: np.ndarray         # D[1..K]; D[0] unused
    K: int


def series_coefficients(params: ModelParams, m: float, gamma: float, K: int = 40) -> SeriesExpansion:
    """D_1..D_K of the near-zero expansion for regime gamma in {a, -b}.

    D_1 = lambda/c;  D_2 = -((mu_bar - lambda)/c + 1/m);
    D_3 = -(D_2 (sigma_bar^2 + 2 mu_bar - lambda + c/m) + mu_bar/m) / (2c);
    and for k >= 4

        D_k = [ -D_{k-1} ((k-1)(k-2) sigma_bar^2/2 + (k-1) mu_bar - lambda + c/m)
                - (1/m) D_{k-2} ((k-3) sigma_bar^2/2 + mu_bar) ] / (c (k-1)).

    The sign of the D_{k-2} term is forced by the equation itself: both the
    order-by-order balance of the claim convolution and the series solution
    of the equivalent third-order ODE produce the minus (with a plus the
    equation residual is Theta(x^3) instead of vanishing to all orders).
    """
    if K < 3:
        raise ValueError("series needs K >= 3")
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
    return SeriesExpansion(gamma=gamma, mu_bar=mb, sigma_bar=sb, D=D, K=K)


def series_eval(exp: SeriesExpansion, x: float, params: ModelParams, m: float):
    """(V, Vp, Vpp, J) of the truncated series at x.

    J is recovered from the regime equation itself: on the constant-gamma
    branch M(V) = (c + mu_bar x) V' + sigma_bar^2 x^2 V''/2 and
    J = V - M(V)/lambda, exact for the exponential kernel.
    """
    D, K = exp.D, exp.K
    k = np.arange(2, K + 1)
    xk = x ** k
    V = 1.0 + D[1] * x + D[1] * float(np.sum(D[2:] / k * xk))
    Vp = D[1] * (1.0 + float(np.sum(D[2:] * x ** (k - 1))))
    Vpp = D[1] * float(np.sum((k - 1) * D[2:] * x ** (k - 2)))
    M = (params.c + exp.mu_bar * x) * Vp + 0.5 * exp.sigma_bar**2 * x**2 * Vpp
    J = V - M / params.lam
    return V, Vp, Vpp, J


def handoff_point(exp: SeriesExpansion, params: ModelParams, m: float) -> float:
    """Largest x where the series is trustworthy, clamped to [HANDOFF_LO, HANDOFF_HI].

    Two rules, both required:

    * truncation: the last retained term of each of V, V', V'' is below
      HANDOFF_REL_TOL relative to its partial sum;
    * regime consistency: the case-table regime evaluated on the series stays
      equal to the starting regime on (0, x] (the constant-regime branch only
      coincides with the HJB solution up to the first switch, which can sit
      very close to zero when the convex-start condition holds).
    """
    if exp.K < 8:
        raise ValueError("handoff rule expects K >= 8")
    D, K = exp.D, exp.K

    def trunc_ok(x):
        V, Vp, Vpp, _ = series_eval(exp, x, params, m)
        lastV = abs(D[1] * D[K] / K) * x**K
        lastVp = abs(D[1] * D[K]) * x ** (K - 1)
        lastVpp = abs(D[1] * (K - 1) * D[K]) * x ** (K - 2)
        return (lastV <= HANDOFF_REL_TOL * abs(V)
                and lastVp <= HANDOFF_REL_TOL * abs(Vp)
                and lastVpp <= HANDOFF_REL_TOL * (abs(Vpp) + abs(Vp)))

    x_eps = HANDOFF_HI
    while x_eps > HANDOFF_LO and not trunc_ok(x_eps):
        x_eps *= 0.7
    x_eps = max(x_eps, HANDOFF_LO)

    if params.mu != params.r:
        want = start_regime(params)
        for xq in np.geomspace(HANDOFF_LO, x_eps, 200):
            V, Vp, Vpp, J = series_eval(exp, xq, params, m)
            phi = indicator(params, xq, Vp, deficit(params, xq, Vp, params.lam * (V - J)))
            if regime_for_indicator(phi, params) != want:
                x_eps = max(HANDOFF_LO, xq / 2.0)
                break
    return x_eps
