"""The HJB equation's quantities for the constrained investment problem.

This module is the one home of the equation's formulas: the array kernel
(`deficit`, `indicator`, `curvature`, `theta_for`, `infimum` and the switching
case tables) that both solvers call, and a pointwise reference layer
(`generator`, `optimal_fraction`, `jump_operator`) that the tests check the
kernel and the solved curves against.

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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curve import REGIME_INTERIOR, REGIME_LONG, REGIME_SHORT, REGIME_ZERO
from .model import ClaimLaw, ModelParams

__all__ = [
    "PointState",
    "MaximizerResult",
    "jump_operator",
    "generator",
    "vertex_fraction",
    "optimal_fraction",
    "optimal_fraction_by_comparison",
    "deficit",
    "indicator",
    "curvature",
    "theta_for",
    "regime_for_theta",
    "vertex_exclusion",
    "infimum",
    "switching_thresholds",
    "regime_for_indicator",
]

# |Vpp| below this (scaled) band counts as an inflection point; the maximiser
# case table branches on the exact sign of W'' and floating point needs a band.
CURVATURE_ZERO_BAND = 1e-12


@dataclass(frozen=True)
class PointState:
    """Value function data at a single surplus level.

    Vpp may be omitted (None) for first-order quantities; MV is the jump
    operator value M(V)(x) at the point.
    """

    x: float
    V: float
    Vp: float
    MV: float
    Vpp: Optional[float] = None


@dataclass(frozen=True)
class MaximizerResult:
    """Maximising fraction of the generator and the case-table branch taken."""

    theta_star: float
    branch: str  # vertex | cap-at-a | cap-at-b | convex-split | inflection


def jump_operator(values, abscissas, law: ClaimLaw, x: float, lam: float,
                  refine: int = 8) -> float:
    """M(V)(x) = lambda * (V(x) - int_0^x V(x-s) f(s) ds) by quadrature.

    `values`/`abscissas` tabulate V on [0, x] (abscissas increasing, first 0,
    last >= x); the convolution integrand is resampled on the grid induced by
    the table with `refine`-fold subdivision near s = 0 where the claim
    density may peak.  Positive whenever V is increasing.
    """
    if x < 0:
        raise ValueError("jump operator requires x >= 0")
    abscissas = np.asarray(abscissas, dtype=float)
    values = np.asarray(values, dtype=float)
    Vx = float(np.interp(x, abscissas, values))
    if x == 0.0:
        return lam * Vx * (1.0 - 0.0)
    # s-grid: table nodes reflected to claim sizes, refined near s = 0
    s_nodes = x - abscissas[abscissas <= x][::-1]
    s_nodes = np.unique(np.concatenate([
        s_nodes,
        np.linspace(0.0, min(x, s_nodes[min(len(s_nodes) - 1, 1)] if len(s_nodes) > 1 else x),
                    refine + 1),
        [x],
    ]))
    # one round of global halving for a cheap error estimate
    s_fine = np.unique(np.concatenate([s_nodes, 0.5 * (s_nodes[1:] + s_nodes[:-1])]))

    def trap(s):
        g = np.interp(x - s, abscissas, values) * law.pdf(s)
        return float(np.trapezoid(g, s))

    i1, i2 = trap(s_nodes), trap(s_fine)
    integral = i2 + (i2 - i1) / 3.0  # Richardson on the halved grid
    return lam * (Vx - integral)


def generator(theta: float, p: PointState, params: ModelParams) -> float:
    """L(theta) V at the point: diffusion + drift + jump terms."""
    if p.Vpp is None:
        raise ValueError("generator requires Vpp")
    x = p.x
    diff = 0.5 * params.sigma**2 * x**2 * theta**2 * p.Vpp
    drift = (params.c + params.r * x + (params.mu - params.r) * theta * x) * p.Vp
    return diff + drift - p.MV


def vertex_fraction(p: PointState, params: ModelParams) -> Optional[float]:
    """Vertex of the theta-quadratic: -(mu-r) V' / (sigma^2 x V'').

    Returns None (undefined marker) when V'' sits in the zero band.
    """
    if p.Vpp is None:
        raise ValueError("vertex requires Vpp")
    if p.x <= 0:
        raise ValueError("vertex requires x > 0")
    if _curvature_is_zero(p):
        return None
    return -(params.mu - params.r) * p.Vp / (params.sigma**2 * p.x * p.Vpp)


def _curvature_is_zero(p: PointState) -> bool:
    scale = 1.0 + abs(p.Vp) / p.x if p.x > 0 else 1.0
    return abs(p.Vpp) <= CURVATURE_ZERO_BAND * scale


def optimal_fraction(p: PointState, params: ModelParams) -> MaximizerResult:
    """Case table for the maximiser of L(theta) V over theta in [-b, a].

    Concave (V''<0): vertex clamped to [-b, a].  Convex (V''>0): whichever of
    a, -b is farther from the vertex, i.e. a iff vertex <= (a-b)/2 (ties
    resolved by the sign of mu - r).  Inflection (V''=0): a if mu >= r
    else -b.
    """
    a, b = params.a, params.b
    if _curvature_is_zero(p):
        theta = a if params.mu >= params.r else -b
        return MaximizerResult(theta, "inflection")
    al = vertex_fraction(p, params)
    if p.Vpp < 0:
        if al > a:
            return MaximizerResult(a, "cap-at-a")
        if al < -b:
            return MaximizerResult(-b, "cap-at-b")
        return MaximizerResult(al, "vertex")
    split = 0.5 * (a - b)
    if al == split:
        theta = a if params.mu > params.r else -b
        return MaximizerResult(theta, "convex-split")
    return MaximizerResult(a if al < split else -b, "convex-split")


def optimal_fraction_by_comparison(p: PointState, params: ModelParams,
                                   include_zero: bool = False) -> MaximizerResult:
    """Direct argmax of the generator over the candidate fractions.

    Candidates are the endpoints -b, a and the (feasible) vertex; theta = 0
    is added for the degenerate case mu = r where the optimum is 0, a or -b.
    A cross-check for the case table, not the hot path.
    """
    cands = [(-params.b, "cap-at-b"), (params.a, "cap-at-a")]
    if not _curvature_is_zero(p):
        al = vertex_fraction(p, params)
        if -params.b <= al <= params.a:
            cands.append((al, "vertex"))
    if include_zero or params.mu == params.r:
        cands.append((0.0, "no-invest"))
    vals = [generator(t, p, params) for t, _ in cands]
    i = int(np.argmax(vals))
    return MaximizerResult(cands[i][0], cands[i][1])


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


def curvature(regime: str, p: ModelParams, x, Vp, MV, dMV=None):
    """V'' prescribed by the regime's equation.

    A, B (constant gamma in {a, -b}, effective mu_bar, sigma_bar as in
    `regime_constants`):  V'' = 2 [M - (c + mu_bar x) V'] / (sigma_bar^2 x^2)
    INT (vertex):          V'' = -(mu - r)^2 V'^2 / (2 sigma^2 I)
    ZERO (mu = r, theta = 0, V' = M/(c + r x)):
                           V'' = [M' (c + r x) - r M] / (c + r x)^2,
    where ZERO needs dMV = M'(x) and ignores Vp.
    """
    if regime == REGIME_INTERIOR:
        I = deficit(p, x, Vp, MV)
        return -((p.mu - p.r) ** 2) * Vp**2 / (2.0 * p.sigma**2 * I)
    if regime == REGIME_ZERO:
        d = p.c + p.r * x
        return (dMV * d - p.r * MV) / d**2
    gamma = p.a if regime == REGIME_LONG else -p.b
    mu_bar = p.r + gamma * (p.mu - p.r)
    sigma_bar = abs(gamma) * p.sigma
    return 2.0 * (MV - (p.c + mu_bar * x) * Vp) / (sigma_bar**2 * x**2)


def theta_for(regime: str, p: ModelParams, phi: np.ndarray) -> np.ndarray:
    """Optimal fraction of the regime at nodes with indicator phi."""
    if regime == REGIME_LONG:
        return np.full_like(phi, p.a)
    if regime == REGIME_SHORT:
        return np.full_like(phi, -p.b)
    if regime == REGIME_ZERO:
        return np.zeros_like(phi)
    return np.clip(phi, -p.b, p.a)


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


def infimum(p: ModelParams, x: float, Vp: float, MV: float, exclusion: float):
    """(V'', argmin theta) of the infimum form, excluding the band |theta| <= A.

    Minimises g(theta) = 2 [M - (c + r x + (mu-r) theta x) V'] / (sigma^2
    theta^2 x^2) over theta in [-b, -A] u [A, a].  In s = 1/theta the target
    is the quadratic (2/(sigma^2 x^2)) (I s^2 - (mu-r) x V' s), so the infimum
    is attained at an interval endpoint or at the stationary point s = 1/phi;
    no numerical minimisation is involved.  Ties go to the first of a, -b,
    A, -A, phi.  Scalars only.
    """
    if exclusion >= p.a or exclusion >= p.b:
        raise ValueError(f"exclusion cutoff {exclusion} must be below min(a, b) = {min(p.a, p.b)}")
    I = deficit(p, x, Vp, MV)
    ex = (p.mu - p.r) * x * Vp
    scale = 2.0 / (p.sigma**2 * x**2)
    cands = [p.a, -p.b, exclusion, -exclusion]
    if I > 0 and ex != 0.0:
        # vertex of the s-quadratic maps back to theta = phi
        phi = 2.0 * I / ex
        if exclusion <= abs(phi) and -p.b <= phi <= p.a:
            cands.append(phi)
    vals = [scale * (I - t * ex) / t**2 for t in cands]
    i = vals.index(min(vals))
    return vals[i], cands[i]


# ---------------------------------------------------------------------------
# switching case tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchingThresholds:
    """Indicator thresholds separating the interior and boundary regimes.

    For mu > r the regimes along the solution are

        indicator < a                 -> interior (fraction = indicator)
        a <= indicator <= long_short  -> maximal long a
        indicator > long_short        -> maximal short -b   (a < b only)

    with long_short = 2ab/(b-a); for mu < r the mirrored table applies with
    interior for indicator > -b and short_long = -2ab/(a-b) (a > b only).
    """

    interior_bound: float          # a (mu > r) or -b (mu < r)
    extreme_bound: Optional[float]  # 2ab/(b-a), -2ab/(a-b), or None when a = b
    extreme_regime: Optional[str]   # regime beyond the extreme bound


def switching_thresholds(params: ModelParams) -> SwitchingThresholds:
    a, b = params.a, params.b
    if params.mu > params.r:
        if a < b:
            return SwitchingThresholds(a, 2.0 * a * b / (b - a), "B")
        return SwitchingThresholds(a, None, None)
    if params.mu < params.r:
        if a > b:
            return SwitchingThresholds(-b, -2.0 * a * b / (a - b), "A")
        return SwitchingThresholds(-b, None, None)
    raise ValueError("switching thresholds are undefined for mu = r")


def regime_for_indicator(phi: float, params: ModelParams) -> str:
    """Active regime ('A', 'B' or 'INT') prescribed by the case table at phi."""
    t = switching_thresholds(params)
    if params.mu > params.r:
        if phi < t.interior_bound:
            return "INT"
        if t.extreme_bound is not None and phi > t.extreme_bound:
            return "B"
        return "A"
    if phi > t.interior_bound:
        return "INT"
    if t.extreme_bound is not None and phi < t.extreme_bound:
        return "A"
    return "B"
