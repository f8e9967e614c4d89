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
the new (w, G) and solvable in closed form.  The history sum is the online
FFT convolution `HistorySum`, whose cost per node is flat up to log factors.

The march is the only evaluation of T (the tests check it against a direct
quadrature); its step is the one setting, the near-zero table is fixed.  The
stages take plain arguments: eps is the table's last node, the cutoff A is
`operators.vertex_exclusion`, x_max defaults to `SolveOptions.resolved_x_max`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curve import SolutionCurve, segments_from_regimes
from .exp_solver import SolveOptions, SolverAbort, extrapolate_tail
from .model import ClaimLaw, ModelParams, regime_constants, require_valid
from .operators import (deficit, indicator, infimum_fn, regime_for_theta, regime_fraction,
                        start_indicator, start_regime, vertex_exclusion)

__all__ = [
    "NearZeroTable",
    "solve_constant_regime_near_zero",
    "integrate_w",
    "assemble_solution",
    "general_solve",
]

# Nodes per block of the near-zero-table quadrature.  Each block's temporaries
# are NEAR_BLOCK x (table nodes) doubles, about 129 KB at 64, which glibc
# serves from reused heap chunks; at 256 (0.5 MB) each block faulted fresh
# pages unless an earlier free had raised glibc's mmap threshold.  32 adds
# per-block overhead for no fewer faults.
NEAR_BLOCK = 64
# The near-zero table: NEAR_NODES uniform nodes on [0, NEAR_EPSILON], the
# interval halved at most NEAR_RETRIES times if V' loses positivity on it.
NEAR_EPSILON = 1e-3
NEAR_NODES = 257
NEAR_RETRIES = 8
# Lags below HIST_LAGS are summed directly by `HistorySum`; longer ones by FFT.
HIST_LAGS = 64
# The continuation's default grid step.
STEP = 0.0005


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

    for epsilon in (NEAR_EPSILON / 2**i for i in range(NEAR_RETRIES + 1)):
        h = epsilon / (NEAR_NODES - 1)
        x = np.linspace(0.0, epsilon, NEAR_NODES)
        fg = law.pdf(x)
        V = np.empty(NEAR_NODES)
        Vp = np.empty(NEAR_NODES)
        Vpp = np.empty(NEAR_NODES)
        M = np.empty(NEAR_NODES)
        V[0], Vp[0], Vpp[0], M[0] = 1.0, lam / c, vpp0, lam

        ok = True
        for k in range(NEAR_NODES - 1):
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
    raise SolverAbort(f"near-zero constant-regime solve lost V' > 0 even at eps={epsilon}",
                      {"epsilon": epsilon})


class HistorySum:
    """Online sums S[k] = sum_{j<k} w[j] F[k-j] for a known kernel F[0..n] and w pushed in order.

    Lags below HIST_LAGS are summed directly when S[k] is read.  Lags in
    [m, 2m), m = HIST_LAGS 2^l, are added by one FFT product once w fills an
    aligned block of m nodes, into pending outputs [block end, block end + 2m)
    (Hairer, Lubich & Schlichte 1985): O(n log^2 n) in all, not O(n^2).
    """

    def __init__(self, F: np.ndarray):
        n, lags = F.size - 1, HIST_LAGS
        self._buf = np.zeros(n + lags)          # HIST_LAGS - 1 zeros, then w
        self.w = self._buf[lags - 1:]           # w[0..n], filled by `push`
        self._direct = np.pad(F[:lags], (0, max(lags - F.size, 0)))[:0:-1].copy()  # F[lags-1:0:-1]
        self._pending = np.zeros(n + 1)
        self._levels = [(m, np.fft.rfft(F[m:2 * m], 2 * m))    # (m, spectrum of F[m:2m])
                        for m in (lags * 2**l for l in range((n // lags).bit_length()))]
        self.fft_products = 0

    def at(self, k: int) -> float:
        """S[k]; needs w[:k] pushed."""
        return float(np.dot(self._buf[k:k + HIST_LAGS - 1], self._direct)) + self._pending.item(k)

    def push(self, k: int, value: float) -> None:
        """Set w[k] and fold in every block that it completes."""
        self.w[k] = value
        end = k + 1
        if end % HIST_LAGS or end >= self._pending.size:
            return
        for m, spectrum in self._levels:
            if end % m:
                break
            out = self._pending[end:end + 2 * m - 1]
            out += np.fft.irfft(np.fft.rfft(self.w[end - m:end], 2 * m) * spectrum,
                                2 * m)[:out.size]
            self.fft_products += 1


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
    fft_products: int = 0   # FFT products of the history sum


def integrate_w(params: ModelParams, law: ClaimLaw, table: NearZeroTable, x_max: float,
                step: float = STEP) -> WMarch:
    """March w' = Tw from eps = table.x[-1] on a uniform grid by semi-implicit trapezoid.

    Constant-fraction branches of T are stiff near zero (their w-coefficient
    is -2(c + mu_bar x)/(sigma_bar^2 x^2)), so each step freezes theta at the
    current node's argmin and takes a trapezoidal step of the resulting
    linear-in-w right-hand side; by the envelope property of the infimum the
    frozen-theta step retains second order even on the interior branch.  The
    jump deficit G joins the same linear step (W, the trapezoid sum of w, is
    accumulated after the march), so one history convolution per step is the
    only nonlocal work.  Its w-independent pieces are tabulated outside the
    step: the near-zero-table quadrature in blocks of NEAR_BLOCK nodes as the
    march enters them, f' at x - eps in one call; the history sum itself is a
    `HistorySum`.  The step's scalars are Python floats, and the infimum is
    bound once (`operators.infimum_fn`); its I is the node's deficit check.

    Aborts if w loses positivity at a node with non-negligible magnitude, or
    if w or G is not finite; stops with completion='derivative-floor' once w
    underflows the scale of meaningful tail mass.
    """
    p, tab = params, table
    lam, c, r, mr, sigma2 = p.lam, p.c, p.r, p.mu - p.r, p.sigma**2
    eps = float(tab.x[-1])
    infimum = infimum_fn(p, vertex_exclusion(p))
    n = int(math.ceil((x_max - eps) / step))
    h = (x_max - eps) / n
    xg = eps + h * np.arange(n + 1)

    fg = law.pdf(h * np.arange(n + 1))          # f on the uniform offsets
    fx = law.pdf(xg)                            # f at the nodes themselves
    f0 = law.density_at_zero
    fp0 = float(law.pdf_derivative(0.0))
    fp_lo = law.pdf_derivative(xg - eps)        # f'(x - eps) at the nodes
    near = np.empty(n + 1)                      # int_0^eps V_gamma' f(x - .)
    # a non-finite kernel value would spread through a whole FFT product
    bad = np.concatenate([s[~np.isfinite(v)] for s, v in
                          ((h * np.arange(n + 1), fg), (xg, fx), (xg - eps, fp_lo))])
    if bad.size:
        raise SolverAbort(f"claim density or its derivative is not finite at s={bad.min():.6g}",
                          {"s": float(bad.min())})

    def fill_near(lo):
        xs = xg[lo:lo + NEAR_BLOCK]
        near[lo:lo + xs.size] = np.trapezoid(tab.Vp * law.pdf(xs[:, None] - tab.x), tab.x,
                                             axis=-1)

    hist = HistorySum(fg)
    hist_at, hist_push = hist.at, hist.push
    G = np.empty(n + 1)
    T = np.empty(n + 1)
    theta = np.empty(n + 1)
    # per-node reads and writes go through memoryviews: Python floats, no copies
    xv, fgv, fxv, fpv, nearv, Gv, Tv, thv = map(memoryview, (xg, fg, fx, fp_lo, near,
                                                            G, T, theta))

    # the state at the current node, as Python floats
    w0, Gk = tab.Vp.item(-1), tab.M.item(-1) / lam
    fill_near(0)
    T0, th, _ = infimum(xv[0], w0, lam * Gk)
    wk, Tk, dGk = w0, T0, w0 - fxv[0] - nearv[0]
    hist_push(0, w0)
    Gv[0], Tv[0], thv[0] = Gk, T0, th

    cG = 1.0 - 0.5 * h * f0
    completion = "reached-x-max"
    w_max = w0
    w_floor = 1e-12
    for k1 in range(1, n + 1):
        x1 = xv[k1]
        if k1 % NEAR_BLOCK == 0:
            fill_near(k1)
        beta1 = 2.0 / (sigma2 * th**2 * x1**2)
        d1 = c + r * x1 + mr * th * x1
        # Hh: int_0^{x1} vbar(u) f(x1-u) du but for the u = x1 trapezoid term,
        # (h/2) f(0) times the still-unknown new w.  The Euler-Maclaurin end
        # correction (w' lagged one node on the right) lifts the uniform-grid
        # trapezoid to ~4th order.
        f_k1 = fgv[k1]
        piece2 = h * (hist_at(k1) - 0.5 * (w0 * f_k1))
        gp_lo = T0 * f_k1 - w0 * fpv[k1]
        gp_hi = Tk * f0 - wk * fp0
        piece2 -= h * h / 12.0 * (gp_hi - gp_lo)
        Hh = nearv[k1] + piece2
        # trapezoid step of the frozen-theta linear system:
        #   w+ = w + h/2 (T_k + beta1 (lam G+ - d1 w+))
        #   G+ = G + h/2 (dG_k + w+ (1 - h f0 / 2) - f(x1) - Hh)
        fx1 = fxv[k1]
        denom = 1.0 + 0.5 * h * beta1 * d1 - 0.25 * h * h * beta1 * lam * cG
        rhs = (wk + 0.5 * h * Tk
               + 0.5 * h * beta1 * lam * (Gk + 0.5 * h * (dGk - fx1 - Hh)))
        w1 = rhs / denom
        dG1 = w1 * cG - fx1 - Hh
        G1 = Gk + 0.5 * h * (dGk + dG1)
        T1, th1, I1 = infimum(x1, w1, lam * G1)
        hist_push(k1, w1)
        Gv[k1], Tv[k1], thv[k1] = G1, T1, th1

        if w1 > w_max:
            w_max = w1
        floor = max(w_floor, 1e-10 * w_max)
        if not math.isfinite(w1 + G1):
            raise SolverAbort(f"continuation lost a finite state at x={x1:.6g}", {"x": x1, "w": w1})
        if not w1 > floor:
            if w1 < -1e-6 * w_max:
                raise SolverAbort(
                    f"continuation lost w > 0 at x={x1:.6g} (w={w1:.3g})")
            completion = "derivative-floor"
            break
        if I1 <= 0:
            if w1 <= 1e-6 * w_max:
                completion = "deficit-zero"
                break
            raise SolverAbort(
                f"jump-drift deficit lost positivity at x={x1:.6g} with "
                f"w={w1:.3g}; structural failure, not tail underflow")
        wk, Gk, dGk, Tk, th = w1, G1, dG1, T1, th1

    # a deficit-zero break node's curvature is cancellation noise
    sl = slice(0, k1 if completion == "deficit-zero" else k1 + 1)
    w = hist.w[sl]
    # W[k+1] = W[k] + h/2 (w[k] + w[k+1]), accumulated in node order
    W = np.cumsum(np.concatenate([[tab.V[-1]], 0.5 * h * (w[:-1] + w[1:])]))
    return WMarch(x=xg[sl], w=w, W=W, G=G[sl], T=T[sl], theta=theta[sl],
                  completion=completion, fft_products=hist.fft_products)


def assemble_solution(params: ModelParams, table: NearZeroTable, march: WMarch) -> SolutionCurve:
    """Concatenate the near-zero table with the continuation into a curve."""
    p, tab = params, table
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
    phi[0] = start_indicator(p)

    theta = np.concatenate([np.full(x0.shape, tab.gamma), march.theta])
    regime = regime_for_theta(p, theta)
    segments = segments_from_regimes(x, regime, march.completion)

    tail = extrapolate_tail(x[-1], Vp[-1], str(regime[-1]), p, completion=march.completion)
    meta = {"epsilon": float(tab.x[-1]), "scheme": "trapezoid-frozen-theta", "tail": tail,
            "completion": march.completion, "continuation": {
                "nodes": x1.size, "step": float(np.ptp(x1)) / max(x1.size - 1, 1),
                "fft_products": march.fft_products}}
    return SolutionCurve(x=x, V=V, Vp=Vp, Vpp=Vpp, J=J, phi=phi, theta_star=theta,
                         regime=regime, segments=segments, params=p, meta=meta)


def general_solve(params: ModelParams, law: ClaimLaw, x_max: Optional[float] = None,
                  step: float = STEP) -> SolutionCurve:
    """Full general-claims pipeline: near-zero solve, continuation, assembly.

    Raises ValueError unless step is finite and positive and x_max finite,
    and SolverAbort unless x_max lies beyond eps, where the march starts."""
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and positive, got {step}")
    require_valid(params, law)
    if params.mu == params.r:
        raise SolverAbort("the continuation path requires mu != r; "
                          "use the exponential-claims solver for mu = r")
    x_max = SolveOptions(x_max=x_max).resolved_x_max(params)
    if not math.isfinite(x_max):
        raise ValueError(f"x_max must be finite, got {x_max}")
    table = solve_constant_regime_near_zero(params, law,
                                            regime_fraction(params, start_regime(params)))
    eps = float(table.x[-1])
    if x_max <= eps:
        raise SolverAbort(f"x_max={x_max:.6g} is not beyond the table's end eps={eps:.6g}",
                          {"x_max": x_max, "epsilon": eps})
    march = integrate_w(params, law, table, x_max, step=step)
    return assemble_solution(params, table, march)
