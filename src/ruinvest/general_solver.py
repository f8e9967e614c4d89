"""General-claim-density solver: first-order continuation w' = T w.

For an arbitrary continuous claim density f the HJB solution is built as
W(x) = V_gamma(eps) + int_eps^x w, where V_gamma solves the starting
constant-regime equation on (0, eps] and w satisfies w'(x) = Tw(x) with

    Tw(x) = 2 inf_{theta in U, |theta| > A}
              { M_gamma(W)(x) - [c + r x + theta x (mu - r)] w(x) }
              / (theta^2 sigma^2 x^2),

    M_gamma(W)(x) = lambda ( W(x) - int_0^eps V_gamma(y) f(x-y) dy
                                   - int_eps^x W(y) f(x-y) dy ).

In 1/theta the braced expression is quadratic, so the infimum is attained at
one of finitely many candidates (the endpoints a, -b, the cutoff +-A, or the
stationary fraction) and needs no numerical minimisation; the infimum's
argument tracks the optimal policy automatically, so no event detection is
required on this path.

The march keeps the jump deficit G(x) = W(x) - int_0^x Vbar(x-s) f(s) ds
(so M = lambda G) as a third state with G' = w - f(x) - int_0^x vbar f(x-.),
which avoids differencing two O(V_inf) quantities at the far tail.  Stepping
is a fixed-step semi-implicit trapezoid on a uniform grid (right-hand sides
live only on grid nodes, where the Volterra history is exact): each step
freezes theta at the current node's argmin, which makes the step linear in
the new (w, G) and solvable in closed form.

The march is the only evaluation of T (the tests check it against a direct
quadrature); its step is the one setting, the near-zero table is fixed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curve import SolutionCurve, segments_from_regimes
from .exp_solver import SolverAbort, extrapolate_tail
from .model import ClaimLaw, ModelParams, regime_constants, require_valid
from .operators import (deficit, indicator, infimum, regime_for_theta, regime_fraction,
                        start_regime, vertex_exclusion)

__all__ = [
    "NearZeroTable",
    "TOperatorContext",
    "solve_constant_regime_near_zero",
    "integrate_w",
    "assemble_solution",
    "general_solve",
]

# Nodes per block of the near-zero-table quadrature; each block's temporaries
# are NEAR_BLOCK x (table nodes) doubles, so 256 keeps them near 0.5 MB.
NEAR_BLOCK = 256
# The near-zero table: NEAR_NODES uniform nodes on [0, NEAR_EPSILON], the
# interval halved at most NEAR_RETRIES times if V' loses positivity on it.
NEAR_EPSILON = 1e-3
NEAR_NODES = 257
NEAR_RETRIES = 8


@dataclass
class NearZeroTable:
    """Constant-regime solution V_gamma tabulated on [0, eps]."""

    gamma: float
    x: np.ndarray
    V: np.ndarray
    Vp: np.ndarray
    Vpp: np.ndarray
    M: np.ndarray  # jump operator along the table


def solve_constant_regime_near_zero(params: ModelParams, law: ClaimLaw,
                                    gamma: float) -> NearZeroTable:
    """Solve L(gamma) V = 0 on [0, eps] as a Volterra integro-differential march.

    Initial data V(0) = 1, V'(0+) = lambda/c and

        V''(0+) = (lambda/c) (lambda/c - f(0+) - (r + gamma (mu-r))/c).

    Near the singular point the equation is stiff (its decaying mode relaxes
    on the scale sigma_bar^2 x^2 / c, far below any reasonable step), so the
    step is trapezoidal semi-implicit: with V'' eliminated through the regime
    equation the update is linear in the new V', solvable in closed form.  The
    claim convolution is composite trapezoid over the already-computed table;
    its single new-node term joins the implicit solve.

    If V' loses positivity before eps the interval is halved and the solve
    retried (the constant-regime branch only exists on a small interval).
    """
    rc = regime_constants(params, gamma)
    lam, c = params.lam, params.c
    mb, sb2 = rc.mu_bar, rc.sigma_bar**2
    f0 = law.density_at_zero
    vpp0 = (lam / c) * (lam / c - f0 - mb / c)

    epsilon, n_nodes = NEAR_EPSILON, NEAR_NODES
    for _ in range(NEAR_RETRIES + 1):
        h = epsilon / (n_nodes - 1)
        x = np.linspace(0.0, epsilon, n_nodes)
        fg = law.pdf(x)
        V = np.empty(n_nodes)
        Vp = np.empty(n_nodes)
        Vpp = np.empty(n_nodes)
        M = np.empty(n_nodes)
        V[0], Vp[0], Vpp[0], M[0] = 1.0, lam / c, vpp0, lam

        ok = True
        for k in range(n_nodes - 1):
            xk1 = x[k + 1]
            beta = 2.0 / (sb2 * xk1**2)
            d = c + mb * xk1
            # history part of conv(x_{k+1}); the s = 0 endpoint carries the
            # unknown V(x_{k+1}) with trapezoid weight h/2
            hist = V[k:: -1] * fg[1: k + 2]
            R = h * (np.sum(hist) - 0.5 * hist[-1])
            coefV = lam * (1.0 - 0.5 * h * fg[0])  # M+ = coefV * V+ - lam * R
            # trapezoidal step, V''+ eliminated via the regime equation
            denom = 1.0 + 0.5 * h * beta * d - 0.25 * h * h * beta * coefV
            rhs = (Vp[k] + 0.5 * h * Vpp[k]
                   + 0.5 * h * beta * (coefV * (V[k] + 0.5 * h * Vp[k]) - lam * R))
            Vp[k + 1] = rhs / denom
            V[k + 1] = V[k] + 0.5 * h * (Vp[k] + Vp[k + 1])
            M[k + 1] = coefV * V[k + 1] - lam * R
            Vpp[k + 1] = beta * (M[k + 1] - d * Vp[k + 1])
            if Vp[k + 1] <= 0:
                ok = False
                break
        if ok:
            # the quotient form of V'' divides an O(x^2)-cancelling numerator
            # by sigma_bar^2 x^2 and is hopeless near zero; the reported column
            # differentiates the (accurate, smooth-error) marched V' instead
            Vpp = np.gradient(Vp, x, edge_order=2)
            Vpp[0] = vpp0
            return NearZeroTable(gamma=gamma, x=x, V=V, Vp=Vp, Vpp=Vpp, M=M)
        epsilon *= 0.5
    raise SolverAbort(f"near-zero constant-regime solve lost V' > 0 even at eps={epsilon}")


@dataclass
class TOperatorContext:
    """Everything T needs besides w itself."""

    params: ModelParams
    law: ClaimLaw
    table: NearZeroTable          # V_gamma on [0, eps]
    exclusion: float              # vertex-exclusion cutoff A (constant schedule)

    @property
    def epsilon(self) -> float:
        return float(self.table.x[-1])


@dataclass
class WMarch:
    """Accepted-grid history of the continuation march."""

    x: np.ndarray
    w: np.ndarray
    W: np.ndarray
    G: np.ndarray           # jump deficit, M = lambda G
    T: np.ndarray           # w' = Tw at nodes
    theta: np.ndarray       # argmin fraction of the infimum
    completion: str


def integrate_w(ctx: TOperatorContext, x_max: float, step: float = 0.0005) -> WMarch:
    """March w' = Tw from eps on a uniform grid by semi-implicit trapezoid.

    Constant-fraction branches of T are stiff near zero (their w-coefficient
    is -2(c + mu_bar x)/(sigma_bar^2 x^2)), so each step freezes theta at the
    current node's argmin and takes a trapezoidal step of the resulting
    linear-in-w right-hand side; by the envelope property of the infimum the
    frozen-theta step retains second order even on the interior branch.  The
    jump deficit G and the antiderivative W join the same linear step, so one
    history convolution per step is the only nonlocal work.  Its w-independent
    pieces are tabulated outside the step: the near-zero-table quadrature in
    blocks of NEAR_BLOCK nodes as the march enters them, f' at x - eps in one
    call; only the O(n) history sum runs per step.

    Aborts if w loses positivity at a node with non-negligible magnitude;
    stops with completion='derivative-floor' once w underflows the scale of
    meaningful tail mass.
    """
    p, law, tab = ctx.params, ctx.law, ctx.table
    lam = p.lam
    eps = ctx.epsilon
    n = int(math.ceil((x_max - eps) / step))
    h = (x_max - eps) / n
    xg = eps + h * np.arange(n + 1)

    fg = law.pdf(h * np.arange(n + 1))          # f on the uniform offsets
    frev = fg[:0:-1].copy()                     # f_n, ..., f_1: history weights
    fx = law.pdf(xg)                            # f at the nodes themselves
    f0 = law.density_at_zero
    fp0 = float(law.pdf_derivative(0.0))
    fp_lo = law.pdf_derivative(xg - eps)        # f'(x - eps) at the nodes
    near = np.empty(n + 1)                      # int_0^eps V_gamma' f(x - .)
    vals = np.empty(n)

    def fill_near(lo):
        xs = xg[lo:lo + NEAR_BLOCK]
        near[lo:lo + xs.size] = np.trapezoid(tab.Vp * law.pdf(xs[:, None] - tab.x), tab.x,
                                             axis=-1)

    w = np.empty(n + 1)
    W = np.empty(n + 1)
    G = np.empty(n + 1)
    T = np.empty(n + 1)
    dG = np.empty(n + 1)
    theta = np.empty(n + 1)

    w[0] = tab.Vp[-1]
    W[0] = tab.V[-1]
    G[0] = tab.M[-1] / lam

    def hist_conv(k1):
        """History part of int_0^{x_{k1}} vbar(u) f(x_{k1}-u) du.

        Everything except the u = x_{k1} trapezoid term, whose coefficient
        (h/2) f(0) multiplies the still-unknown w at the new node.  The
        Euler-Maclaurin end correction (with w' lagged one node on the right)
        lifts the uniform-grid trapezoid to ~4th order.  The w-independent
        pieces (the near-zero-table quadrature and f'(x - eps)) are read from
        tables; only the O(n) history sum is computed here.
        """
        v = np.multiply(w[:k1], frev[n - k1:], out=vals[:k1])
        piece2 = h * (v.sum() - 0.5 * v[0])
        gp_lo = T[0] * fg[k1] - w[0] * fp_lo[k1]
        gp_hi = T[k1 - 1] * f0 - w[k1 - 1] * fp0
        piece2 -= h * h / 12.0 * (gp_hi - gp_lo)
        return near[k1] + piece2

    fill_near(0)
    T[0], theta[0] = infimum(p, xg[0], w[0], lam * G[0], ctx.exclusion)
    dG[0] = w[0] - fx[0] - near[0]

    completion = "reached-x-max"
    w_max = w[0]
    w_floor = 1e-12
    last = 0
    for k in range(n):
        x1 = xg[k + 1]
        if (k + 1) % NEAR_BLOCK == 0:
            fill_near(k + 1)
        th = theta[k]
        beta1 = 2.0 / (p.sigma**2 * th**2 * x1**2)
        d1 = p.c + p.r * x1 + (p.mu - p.r) * th * x1
        Hh = hist_conv(k + 1)
        # trapezoid step of the frozen-theta linear system:
        #   w+ = w + h/2 (T_k + beta1 (lam G+ - d1 w+))
        #   G+ = G + h/2 (dG_k + w+ (1 - h f0 / 2) - f(x1) - Hh)
        cG = 1.0 - 0.5 * h * f0
        denom = 1.0 + 0.5 * h * beta1 * d1 - 0.25 * h * h * beta1 * lam * cG
        rhs = (w[k] + 0.5 * h * T[k]
               + 0.5 * h * beta1 * lam * (G[k] + 0.5 * h * (dG[k] - fx[k + 1] - Hh)))
        w[k + 1] = rhs / denom
        dG[k + 1] = w[k + 1] * cG - fx[k + 1] - Hh
        G[k + 1] = G[k] + 0.5 * h * (dG[k] + dG[k + 1])
        W[k + 1] = W[k] + 0.5 * h * (w[k] + w[k + 1])
        T[k + 1], theta[k + 1] = infimum(p, x1, w[k + 1], lam * G[k + 1], ctx.exclusion)

        last = k + 1
        w_max = max(w_max, w[k + 1])
        floor = max(w_floor, 1e-10 * w_max)
        if w[k + 1] <= floor:
            if w[k + 1] < -1e-6 * w_max:
                raise SolverAbort(
                    f"continuation lost w > 0 at x={x1:.6g} (w={w[k + 1]:.3g})")
            completion = "derivative-floor"
            break
        if deficit(p, x1, w[k + 1], lam * G[k + 1]) <= 0:
            if w[k + 1] <= 1e-6 * w_max:
                completion = "deficit-zero"
                break
            raise SolverAbort(
                f"jump-drift deficit lost positivity at x={x1:.6g} with "
                f"w={w[k + 1]:.3g}; structural failure, not tail underflow")

    if completion == "deficit-zero":
        last -= 1  # the break node's curvature is cancellation noise
    sl = slice(0, last + 1)
    return WMarch(x=xg[sl], w=w[sl], W=W[sl], G=G[sl], T=T[sl], theta=theta[sl],
                  completion=completion)


def assemble_solution(ctx: TOperatorContext, march: WMarch) -> SolutionCurve:
    """Concatenate the near-zero table with the continuation into a curve."""
    p, tab = ctx.params, ctx.table
    lam = p.lam

    # near-zero block (drop the duplicated eps node)
    x0, V0, Vp0, Vpp0, M0 = tab.x[:-1], tab.V[:-1], tab.Vp[:-1], tab.Vpp[:-1], tab.M[:-1]
    x1, V1, Vp1, Vpp1 = march.x, march.W, march.w, march.T
    M1 = lam * march.G

    x = np.concatenate([x0, x1])
    V = np.concatenate([V0, V1])
    Vp = np.concatenate([Vp0, Vp1])
    Vpp = np.concatenate([Vpp0, Vpp1])
    M = np.concatenate([M0, M1])
    J = V - M / lam

    with np.errstate(divide="ignore", invalid="ignore"):
        phi = indicator(p, x, Vp, deficit(p, x, Vp, M))
    if p.mu != p.r:
        phi[0] = 2.0 * tab.gamma

    theta = np.concatenate([np.full(x0.shape, tab.gamma), march.theta])
    regime = regime_for_theta(p, theta)
    segments = segments_from_regimes(x, regime, march.completion)

    V_inf, tail = extrapolate_tail(x, Vp, float(V[-1]), str(regime[-1]), p,
                                   completion=march.completion)
    meta = {"epsilon": ctx.epsilon, "scheme": "trapezoid-frozen-theta", "tail": tail,
            "completion": march.completion}
    return SolutionCurve(x=x, V=V, Vp=Vp, Vpp=Vpp, J=J, phi=phi, theta_star=theta,
                         regime=regime, segments=segments, V_inf=V_inf, params=p,
                         meta=meta)


def general_solve(params: ModelParams, law: ClaimLaw, x_max: Optional[float] = None,
                  step: float = 0.0005) -> SolutionCurve:
    """Full general-claims pipeline: near-zero solve, continuation, assembly.

    Raises SolverAbort unless x_max lies beyond eps, where the march starts."""
    require_valid(params, law)
    if params.mu == params.r:
        raise SolverAbort("the continuation path requires mu != r; "
                          "use the exponential-claims solver for mu = r")
    x_max = x_max if x_max is not None else 200.0 * params.c / params.lam
    table = solve_constant_regime_near_zero(params, law,
                                            regime_fraction(params, start_regime(params)))
    ctx = TOperatorContext(params=params, law=law, table=table,
                           exclusion=vertex_exclusion(params))
    if x_max <= ctx.epsilon:
        raise SolverAbort(f"x_max={x_max:.6g} is not beyond the table's end eps={ctx.epsilon:.6g}",
                          {"x_max": x_max, "epsilon": ctx.epsilon})
    march = integrate_w(ctx, x_max, step=step)
    return assemble_solution(ctx, march)
