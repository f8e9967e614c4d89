"""The HJB equation's quantities for the constrained investment problem.

This module is the one home of the equation's formulas and of its case
table: the array kernel (`deficit`, `indicator`, `slope_fn`, `theta_for`,
`infimum_fn`) that the solvers call, and the per-regime facts (`regime_fraction`,
`start_regime`, `start_indicator`, `indicator_bands`) that the solvers, the
CLI and the tests read; no other module derives a regime's fraction, start,
phi(0+) or indicator band.  There is no second, pointwise copy of the table;
the tests check this one against a dense argmax of the generator below.

For a candidate value function W the controlled generator at fraction theta is

    L(theta) W(x) = sigma^2 x^2 theta^2 / 2 * W''(x)
                    + [c + r x + (mu - r) theta x] * W'(x) - M(W)(x),

with the jump operator M(W)(x) = lambda * (W(x) - int_0^x W(x-s) dF(s)).
The HJB equation is sup over theta in [-b, a] of L(theta) W = 0; equivalently

    W''(x) = 2 inf_theta { M(W)(x) - [c + r x + (mu - r) theta x] W'(x) }
                 / (sigma^2 theta^2 x^2),

the infimum form used for numerical continuation at positive x.

The quadratic-in-theta structure means the maximiser is always one of the
constraint endpoints -b, a or the parabola vertex

    vertex(x) = -(mu - r) W'(x) / (sigma^2 x W''(x)),

and all switching logic reduces to thresholds on the indicator

    phi(x) = 2 [M(W)(x) - (c + r x) W'(x)] / ((mu - r) x W'(x)),

which coincides with the vertex (and with the optimal interior fraction)
along solutions of the HJB equation.
"""
from __future__ import annotations

import math

import numpy as np

from .curve import REGIME_INTERIOR, REGIME_LONG, REGIME_SHORT, REGIME_ZERO
from .model import ModelParams, regime_constants

__all__ = [
    "deficit",
    "indicator",
    "slope_fn",
    "theta_for",
    "regime_for_theta",
    "vertex_exclusion",
    "infimum_fn",
    "regime_fraction",
    "start_regime",
    "start_indicator",
    "indicator_bands",
]


# ---------------------------------------------------------------------------
# array kernel: the HJB formulas shared by both solvers
#
# Every function takes floats or equal-shape arrays and does plain arithmetic,
# so the same code serves the ODE right-hand sides (scalars, called tens of
# thousands of times per solve) and the output columns (node arrays).  The
# operation order of each expression is part of the contract: the solvers'
# trajectories, and so their output bytes, depend on it.
# ---------------------------------------------------------------------------

def deficit(p: ModelParams, x, Vp, MV):
    """I(x) = M(V)(x) - (c + r x) V'(x), the negated no-investment generator.

    Positive I means the surplus cannot hold its value without investing;
    its sign controls concavity of the interior regime.
    """
    return MV - (p.c + p.r * x) * Vp


def indicator(p: ModelParams, x, Vp, I):
    """phi(x) = 2 I(x) / ((mu - r) x V'(x)); nan when mu = r (no interior regime)."""
    if p.mu == p.r:
        return I * math.nan
    return 2.0 * I / ((p.mu - p.r) * x * Vp)


def slope_fn(regime: str, p: ModelParams, m: float):
    """(u, du/dw): u(x, w) = V''/V' of one regime and its w-derivative,
    their constants bound once.

    With w = I/V' (the deficit per unit slope) each regime's V'' in (V', M),
    divided by V', depends on (x, w) alone, M(V) being (w + c + r x) V':

    INT:   u = -(mu - r)^2 / (2 sigma^2 w)
    A, B:  u = 2 (w + (r - mu_bar) x) / (sigma_bar^2 x^2)
    ZERO:  w = 0 and u = (lambda - r)/(c + r x) - 1/m

    ZERO's row is V'' = [M' (c + r x) - r M] / (c + r x)^2 (theta = 0) with
    M = (c + r x) V' and, for exponential claims of mean m, M' = lambda V' -
    M/m; it is the only row that reads m.
    """
    if regime == REGIME_INTERIOR:
        k = -((p.mu - p.r) ** 2) / (2.0 * p.sigma**2)
        return (lambda x, w: k / w), (lambda x, w: -k / w**2)
    if regime == REGIME_ZERO:
        lr, c, r, im = p.lam - p.r, p.c, p.r, 1.0 / m
        return (lambda x, w: lr / (c + r * x) - im), (lambda x, w: 0.0)
    rc = regime_constants(p, regime_fraction(p, regime))
    drift, sigma_bar2 = p.r - rc.mu_bar, rc.sigma_bar**2
    return (lambda x, w: 2.0 * (w + drift * x) / (sigma_bar2 * x**2),
            lambda x, w: 2.0 / (sigma_bar2 * x**2))


def theta_for(regime: str, p: ModelParams, phi: np.ndarray) -> np.ndarray:
    """Optimal fraction of the regime at nodes with indicator phi."""
    if regime == REGIME_INTERIOR:
        return np.clip(phi, -p.b, p.a)
    return np.full_like(phi, regime_fraction(p, regime))


def regime_for_theta(p: ModelParams, theta: np.ndarray) -> np.ndarray:
    """Regime label of each fraction: A at a, B at -b (within 1e-9 (a + b)), else INT."""
    tol = 1e-9 * (abs(p.a) + abs(p.b))
    out = np.full(np.shape(theta), REGIME_INTERIOR, dtype=object)
    out[np.abs(theta + p.b) <= tol] = REGIME_SHORT
    out[np.abs(theta - p.a) <= tol] = REGIME_LONG
    return out


def vertex_exclusion(p: ModelParams) -> float:
    """Cutoff A of the vertex-degenerate band |theta| <= A."""
    return 1e-6 * min(p.a, p.b)


def infimum_fn(p: ModelParams, exclusion: float):
    """(x, V', M) -> (V'', argmin theta, I): the infimum form, excluding the band
    |theta| <= A, its constants bound once.

    Minimises g(theta) = 2 [M - (c + r x + (mu-r) theta x) V'] / (sigma^2
    theta^2 x^2) over theta in [-b, -A] u [A, a].  In s = 1/theta the target
    is the quadratic (2/(sigma^2 x^2)) (I s^2 - (mu-r) x V' s), so the infimum
    is attained at an interval endpoint or at the stationary point s = 1/phi;
    no numerical minimisation is involved.  A chain of strict comparisons
    picks the minimum, as `min` over the candidates in the order a, -b, A,
    -A, phi would: ties go to the first, a NaN at a is kept and a NaN
    elsewhere passed over.  I is `deficit(p, x, V', M)`.  Scalars only.
    """
    if exclusion >= p.a or exclusion >= p.b:
        raise ValueError(f"exclusion cutoff {exclusion} must be below min(a, b) = {min(p.a, p.b)}")
    a, nb, A, nA = p.a, -p.b, exclusion, -exclusion
    a2, b2, A2 = a**2, nb**2, A**2
    c, r, mr, sigma2 = p.c, p.r, p.mu - p.r, p.sigma**2

    def infimum(x, Vp, MV):
        I = MV - (c + r * x) * Vp
        ex = mr * x * Vp
        scale = 2.0 / (sigma2 * x**2)
        Vpp, theta = scale * (I - a * ex) / a2, a
        v = scale * (I - nb * ex) / b2
        if v < Vpp:
            Vpp, theta = v, nb
        v = scale * (I - A * ex) / A2
        if v < Vpp:
            Vpp, theta = v, A
        v = scale * (I - nA * ex) / A2
        if v < Vpp:
            Vpp, theta = v, nA
        if I > 0 and ex != 0.0:
            # vertex of the s-quadratic maps back to theta = phi
            phi = 2.0 * I / ex
            if A <= abs(phi) and nb <= phi <= a:
                v = scale * (I - phi * ex) / phi**2
                if v < Vpp:
                    Vpp, theta = v, phi
        return Vpp, theta, I
    return infimum


# ---------------------------------------------------------------------------
# the case table: every per-regime fact the solvers, the CLI and the tests read
# ---------------------------------------------------------------------------

def regime_fraction(p: ModelParams, regime: str) -> float:
    """Constant fraction of a regime: a for A, -b for B, 0 otherwise."""
    return {REGIME_LONG: p.a, REGIME_SHORT: -p.b}.get(regime, 0.0)


def start_regime(p: ModelParams) -> str:
    """Regime optimal at zero surplus, the one at the case table's interior bound.

    A for mu > r, B for mu < r; for mu = r the endpoint of larger |theta|
    (A on a tie), which starts the march while V''(0+) > 0.
    """
    if p.mu != p.r:
        return REGIME_LONG if p.mu > p.r else REGIME_SHORT
    return REGIME_LONG if p.a >= p.b else REGIME_SHORT


def start_indicator(p: ModelParams) -> float:
    """phi(0+) = 2 * (the start regime's fraction); nan for mu = r, like `indicator`."""
    return 2.0 * regime_fraction(p, start_regime(p)) if p.mu != p.r else math.nan


def indicator_bands(p: ModelParams) -> dict:
    """{regime: (lo, hi)}: the band of the indicator phi where each regime is optimal.

    None is an unbounded side.  For mu > r:

        INT  phi < a                    (fraction = phi)
        A    a <= phi <= 2ab/(b-a)      (upper bound only when a < b)
        B    phi > 2ab/(b-a)            (a < b only)

    and for mu < r the mirror: INT phi > -b, B -2ab/(a-b) <= phi <= -b, A
    phi < -2ab/(a-b) (a > b only).  The regime at the interior bound
    (`start_regime`) owns both of its thresholds.  Undefined for mu = r.
    """
    a, b = p.a, p.b
    if p.mu > p.r:
        extreme = 2.0 * a * b / (b - a) if a < b else None
        bands = {REGIME_INTERIOR: (None, a), REGIME_LONG: (a, extreme)}
        if extreme is not None:
            bands[REGIME_SHORT] = (extreme, None)
        return bands
    if p.mu < p.r:
        extreme = -2.0 * a * b / (a - b) if a > b else None
        bands = {REGIME_INTERIOR: (-b, None), REGIME_SHORT: (extreme, -b)}
        if extreme is not None:
            bands[REGIME_LONG] = (None, extreme)
        return bands
    raise ValueError("the indicator case table is undefined for mu = r")
