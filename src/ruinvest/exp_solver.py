"""Fast solver for exponential claim sizes.

The exponential kernel turns the claim convolution into one extra ODE
component: with J(x) = int_0^x V(x-z) exp(-z/m)/m dz one has J' = (V - J)/m
and M(V) = lambda (V - J) exactly, so each regime of the HJB solution is an
ordinary (not integro-) differential equation.  It is linear and homogeneous
in V, so each regime's u = V''/V' depends on x and on the deficit per unit
slope w = I/V' = lambda (V - J)/V' - (c + r x) alone (`operators.slope_fn`):

    constant regime gamma:  u = 2 (w + (r - mu_bar) x) / (sigma_bar^2 x^2)
    interior regime:        u = -kappa/w,  kappa = (mu - r)^2 / (2 sigma^2)
    no investment (mu = r): w = 0,  u = (lambda - r)/(c + r x) - 1/m

and every regime marches the same state (w, L = ln V', V):

    w' = lambda - r - (w + c + r x)(1/m + u),  L' = u,  V' = e^L.

w alone decides the policy: the indicator is phi = 2w/((mu - r) x).  It
carries I without the cancellation in lambda (V - J) - (c + r x) V', so phi
and the switch points keep their digits, and V' is never resolved to an
absolute tolerance.

The march starts at X0 = 1e-6 from three Taylor terms at zero surplus of the
initial regime (`operators.start_regime`, `series_coefficients`), w from their
V''/V', tracks phi, and switches regimes where phi leaves the regime's band
(`operators.indicator_bands`): each row of a regime's event table names the
regime across the crossed bound.

One stepper marches every segment: a 3-stage Radau IIA step (Hairer & Wanner
1996) in plain Python floats.  The interior regime is stiff (dw'/dw =
-1/m - kappa (c + r x)/w^2 grows as w settles at kappa m), and so is a
constant regime near zero surplus (dw'/dw ~ -2c/(sigma_bar^2 x^2)); the step
is L-stable, so it damps the start's error on its own.  The stage
Newton iteration acts on the scalar w alone, L and V are the quadratures of
its stages, and steps are capped at the output spacing, so every step end is
a node.  Event roots are found by Brent's method on the step's collocation
polynomial.  The march imports no scipy.

When mu = r the drift is theta-free and there is no interior regime: the
largest-|theta| endpoint is optimal while V'' > 0 and theta = 0 (ZERO) while
V'' < 0.  One march serves both cases, with a curvature row in place of the
indicator rows: w falling through 0 ends the endpoint regime, u rising
through 0 ends ZERO.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import ClassVar, Optional

import numpy as np

from .curve import REGIME_INTERIOR, REGIME_ZERO, RegimeSegment, SolutionCurve
from .model import ExponentialClaims, ModelParams, regime_constants, require_valid
from .operators import (indicator, indicator_bands, regime_fraction, slope_fn, start_indicator,
                        start_regime, theta_for, vertex_exclusion)

__all__ = [
    "SolveOptions",
    "SolverAbort",
    "solve",
    "extrapolate_tail",
]

MAX_SWITCHES = 16     # more regime changes than this is event oscillation
X0 = 1e-6             # where the march starts from the Taylor terms at zero surplus
VP_FLOOR = 1e-13      # derivative underflow = completion
MAX_STEP = 0.5        # integrator step cap
_EPS = sys.float_info.epsilon
RTOL_MIN = 100 * _EPS  # the march's rtol floor

_COMPLETIONS = ("derivative-floor",)
_ABORTS = ("deficit-zero", "indicator-below-exclusion")
_COLUMNS = ("V", "Vp", "Vpp", "J", "phi", "theta", "regime")


@dataclass(frozen=True)
class SolveOptions:
    """Numerical knobs of the exponential-claims march."""

    x_max: Optional[float] = None       # default 200 * c / lambda
    rtol: float = 1e-10
    atol: float = 1e-12
    # a constant, not a node count: the output spacing is capped at
    # (x_max - x_eps) / output_nodes, and every solver step is a node as well
    output_nodes: ClassVar[int] = 900

    def resolved_x_max(self, params: ModelParams) -> float:
        return self.x_max if self.x_max is not None else 200.0 * params.c / params.lam


class SolverAbort(RuntimeError):
    """Raised when the march cannot continue; carries node diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


# ---------------------------------------------------------------------------
# regime table: right-hand side and ending events of each regime
# ---------------------------------------------------------------------------

def _w_system(regime: str, params: ModelParams, m: float):
    """(f, jac) of one regime on its march state (w, L, V) for `_radau_march`.

    With q = (w + c + r x)/lambda = (V - J)/V' and u = V''/V' (`slope_fn`):
    w' = lambda (1 - q/m - q u) - r and L' = u for L = ln V', so
    dw'/dw = -(1/m + u) - (w + c + r x) du/dw.  ZERO holds w at 0.
    """
    u, dudw = slope_fn(regime, params, m)
    if regime == REGIME_ZERO:
        return (lambda x, w: (0.0, u(x, w))), (lambda x, w: (0.0, 0.0))
    lam, c, r, im = params.lam, params.c, params.r, 1.0 / m

    def f(x, w):
        uw = u(x, w)
        return lam - r - (w + c + r * x) * (im + uw), uw

    def jac(x, w):
        du = dudw(x, w)
        return -(im + u(x, w)) - (w + c + r * x) * du, du
    return f, jac


def _segment_events(regime: str, params: ModelParams, m: float):
    """(rows, g): the events ending the given regime's segment.

    rows holds one (name, direction, target) per event; g(x, y) returns all
    their values at once, in row order, on the march state y = (w, L, V).  A
    switch event names the regime that follows: for mu != r the one whose
    band of `indicator_bands` shares the crossed bound.  The events in
    _COMPLETIONS and _ABORTS have target None; the former end the march, the
    latter fail it.
    """
    up, down = 1, -1
    if params.mu == params.r:  # the sign of V'' is that of w, or of u in ZERO
        if regime == REGIME_ZERO:
            u, _ = slope_fn(REGIME_ZERO, params, m)
            rows = [("curvature-positive", up, start_regime(params))]

            def lead(x, w):
                return (u(x, w),)
        else:
            rows = [("curvature-negative", down, REGIME_ZERO)]

            def lead(x, w):
                return (w,)
    else:
        # phi leaves the regime's band down through lo or up through hi, into
        # the band across that bound; a bound of the interior band is the
        # interior bound, the other the extreme bound
        bands = indicator_bands(params)
        lo, hi = bands[regime]
        levels = [level for level in (lo, hi) if level is not None]
        rows = [("indicator-interior-bound" if level in bands[REGIME_INTERIOR]
                 else "indicator-extreme-bound", down if level == lo else up,
                 next(k for k, band in bands.items() if k != regime and level in band))
                for level in levels]
        if regime == REGIME_INTERIOR:
            (level,) = levels
            A = vertex_exclusion(params)
            rows += [("deficit-zero", down, None), ("indicator-below-exclusion", down, None)]

            def lead(x, w):
                phi = indicator(params, x, 1.0, w)
                return phi - level, w, abs(phi) - A
        else:
            def lead(x, w):
                phi = indicator(params, x, 1.0, w)
                return [phi - level for level in levels]
    rows.append(("derivative-floor", down, None))

    def g(x, y):
        return (*lead(x, y[0]), math.exp(y[1]) - VP_FLOOR)
    return rows, g


def _brentq(f, xa, xb, xtol, rtol, maxiter=100):
    """scipy 1.17's brentq (Brent 1973), its C loop line for line, with the
    refusals of its wrapper: a NaN value, no sign change, no convergence."""
    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)  # a good short step, or bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _first_event(events, directions, g, g_new, t_old, t, interpolant):
    """(root, state, row) of the earliest event row fired on the step [t_old, t],
    or None.  A row fires on a sign change in its direction (+1 rising, -1
    falling) between its values g and g_new at the step's ends; a zero at
    either end counts, as in solve_ivp.  interpolant() gives the step's dense
    output at a scalar, on which _brentq roots each fired row."""
    fired = [i for i, d in enumerate(directions)
             if (g[i] <= 0 <= g_new[i] if d > 0 else g[i] >= 0 >= g_new[i])]
    if not fired:
        return None
    sol = interpolant()
    roots = [_brentq(lambda s, i=i: events(s, sol(s))[i], t_old, t,
                     xtol=4 * _EPS, rtol=4 * _EPS) for i in fired]
    k = roots.index(min(roots))
    return roots[k], sol(roots[k]), fired[k]


# Radau IIA with 3 stages (order 5, stiffly accurate; Hairer & Wanner 1996,
# "Solving ODEs II", IV.8) as scipy 1.17's Radau lays it out: the nodes, the
# error weights E, the eigen-transform T, TI of the inverse tableau (a real
# eigenvalue and a complex pair) and P, the collocation polynomial's
# coefficients from the stage increments; A is the tableau itself
_S6 = 6 ** 0.5
_RC = ((4 - _S6) / 10, (4 + _S6) / 10, 1.0)
_RA = (((88 - 7 * _S6) / 360, (296 - 169 * _S6) / 1800, (-2 + 3 * _S6) / 225),
       ((296 + 169 * _S6) / 1800, (88 + 7 * _S6) / 360, (-2 - 3 * _S6) / 225),
       ((16 - _S6) / 36, (16 + _S6) / 36, 1 / 9))
_RE = ((-13 - 7 * _S6) / 3, (-13 + 7 * _S6) / 3, -1 / 3)
_MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
_MU_COMPLEX = 3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3)) - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6))
_RT = ((0.09443876248897524, -0.14125529502095421, 0.03002919410514742),
       (0.25021312296533332, 0.20412935229379994, -0.38294211275726192),
       (1.0, 1.0, 0.0))
_RTI = ((4.17871859155190428, 0.32768282076106237, 0.52337644549944951),
        (-4.17871859155190428, -0.32768282076106237, 0.47662355450055044),
        (0.50287263494578682, -2.57192694985560522, 0.59603920482822492))
_RP = ((13 / 3 + 7 * _S6 / 3, -23 / 3 - 22 * _S6 / 3, 10 / 3 + 5 * _S6),
       (13 / 3 - 7 * _S6 / 3, -23 / 3 + 22 * _S6 / 3, 10 / 3 - 5 * _S6),
       (1 / 3, -8 / 3, 10 / 3))
NEWTON_MAXITER = 6
MIN_FACTOR, MAX_FACTOR = 0.2, 10  # bounds of a step's change
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _radau_march(fun, t_span, y0, events, directions, rtol, atol, max_step):
    """March (w, L, V) with w' = f(x, w), L' = u(x, w), V' = e^L by Radau IIA,
    forward in t (t_span[0] <= t_span[1]), with terminal events.

    Returns t (the step ends), y (shape (3, len(t))), sol (the steps'
    collocation polynomials), nfev, rejected (failed step attempts),
    newton_iters, event (the index of the event row that ended the march, or
    None), status (0 at t_span[1], 1 on an event, -1 on a failed step) and
    message (TOO_SMALL_STEP on failure, else None).

    `fun` is the pair (f, jac): f(x, w) gives (w', u) and jac(x, w) gives
    (dw'/dw, du/dw), both plain floats.  Only w is implicit: the simplified
    Newton iteration on its three stages takes one real and one complex
    scalar division per round, and L and V are the quadratures of the w
    stages (the Jacobian is triangular).  `newton_iters` counts the rounds
    of three stage evaluations, the last round at the converged stages
    included, so nfev = 1 + 3 newton_iters.  The step control is scipy's
    (error estimate filtered by the real eigenvalue, Gustafsson's predictive
    factor); atol holds the absolute tolerances of (w, L, V).  Steps never
    exceed max_step, and a step that would leave less than 1% of itself
    before t_span[1] takes half the rest instead.  `events(t, y)` gives all
    event values at once and `directions[i]` is +1 (rising) or -1
    (falling); `_first_event` roots the fired rows on the step's
    collocation polynomial, and the earliest root ends the march.  A step whose Newton iteration fails or reaches a
    non-finite f is halved; below 10 ulp(t) the march ends with status -1.
    """
    f, jac = fun
    t, tf = map(float, t_span)
    rtol, max_step = float(rtol), float(max_step)  # numpy scalars would slow every step
    w, L, V = map(float, y0)
    if not (math.isfinite(w) and math.isfinite(L) and math.isfinite(V)):
        raise ValueError("All components of the initial state `y0` must be finite.")
    atol_w, atol_L, atol_V = map(float, atol)
    newton_tol = max(10 * _EPS / rtol, min(0.03, rtol ** 0.5))
    (c0, c1, _), (e0, e1, e2) = _RC, _RE
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = _RA
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = _RTI
    (t00, t01, t02), (t10, t11, t12), _ = _RT
    (p00, p01, p02), (p10, p11, p12), (p20, p21, p22) = _RP

    def coefficients(a, b, c):  # of s, s^2, s^3 from the stage increments
        return (p00 * a + p10 * b + p20 * c, p01 * a + p11 * b + p21 * c,
                p02 * a + p12 * b + p22 * c)
    fw, fu = f(t, w)
    nfev, newton, rejected = 1, 0, 0
    ts, ys, rows = [t], [(w, L, V)], []
    g = events(t, (w, L, V))
    h_abs, h_old, err_old, prev = max_step, None, None, None
    status = event = None
    while status is None:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs > max_step or h_abs < min_step:
            h_abs, h_old, err_old = min(max(h_abs, min_step), max_step), None, None
        dfw, dudw = jac(t, w)
        sw = atol_w + abs(w) * rtol
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = min(t + h_abs, tf)
            if t_new < tf < t_new + 0.01 * h_abs:  # the last two steps share the rest,
                t_new = t + (tf - t) / 2           # leaving no sliver before tf
            while t_new - t > max_step:  # the cap holds after rounding too
                t_new = math.nextafter(t_new, -math.inf)
            h = t_new - t
            xa, xb = t + c0 * h, t + c1 * h
            if prev is None:  # Newton starts from the last step's polynomial
                z0 = z1 = z2 = 0.0
            else:
                pt, ph, pw, q0, q1, q2 = prev
                z0, z1, z2 = (pw + ((q2 * s + q1) * s + q0) * s - w
                              for s in ((xa - pt) / ph, (xb - pt) / ph, (t_new - pt) / ph))
            W0 = r00 * z0 + r01 * z1 + r02 * z2
            Wc = complex(r10 * z0 + r11 * z1 + r12 * z2, r20 * z0 + r21 * z1 + r22 * z2)
            mr, mc = _MU_REAL / h, _MU_COMPLEX / h
            dr, dc = mr - dfw, mc - dfw
            converged, norm_old, rate = False, None, None
            for k in range(NEWTON_MAXITER):
                F0, F1, F2 = f(xa, w + z0)[0], f(xb, w + z1)[0], f(t_new, w + z2)[0]
                newton, nfev = newton + 1, nfev + 3
                if not math.isfinite(F0 + F1 + F2):
                    break
                d0 = (r00 * F0 + r01 * F1 + r02 * F2 - mr * W0) / dr
                dC = (complex(r10 * F0 + r11 * F1 + r12 * F2, r20 * F0 + r21 * F1 + r22 * F2)
                      - mc * Wc) / dc
                norm = math.sqrt((d0 * d0 + dC.real * dC.real + dC.imag * dC.imag) / 3) / sw
                if norm_old is not None:
                    rate = norm / norm_old
                    if rate >= 1 or rate ** (NEWTON_MAXITER - k) / (1 - rate) * norm > newton_tol:
                        break
                W0, Wc = W0 + d0, Wc + dC
                z0 = t00 * W0 + t01 * Wc.real + t02 * Wc.imag
                z1 = t10 * W0 + t11 * Wc.real + t12 * Wc.imag
                z2 = W0 + Wc.real
                if norm == 0 or rate is not None and rate / (1 - rate) * norm < newton_tol:
                    converged = True
                    break
                norm_old = norm
            if not converged:
                h_abs *= 0.5
                rejected += 1
                continue
            # the converged stages: u for the quadratures, and f at the step end
            (_, u0), (_, u1), (fw_new, u2) = f(xa, w + z0), f(xb, w + z1), f(t_new, w + z2)
            newton, nfev = newton + 1, nfev + 3
            zl0 = h * (a00 * u0 + a01 * u1 + a02 * u2)
            zl1 = h * (a10 * u0 + a11 * u1 + a12 * u2)
            zl2 = h * (a20 * u0 + a21 * u1 + a22 * u2)
            v0, v1, v2 = math.exp(L + zl0), math.exp(L + zl1), math.exp(L + zl2)
            zv0 = h * (a00 * v0 + a01 * v1 + a02 * v2)
            zv1 = h * (a10 * v0 + a11 * v1 + a12 * v2)
            zv2 = h * (a20 * v0 + a21 * v1 + a22 * v2)
            y_new = (w + z2, L + zl2, V + zv2)
            vp = math.exp(L)
            err_w = (fw + (e0 * z0 + e1 * z1 + e2 * z2) / h) / dr
            err_L = (fu + (e0 * zl0 + e1 * zl1 + e2 * zl2) / h + dudw * err_w) / mr
            err_V = (vp + (e0 * zv0 + e1 * zv1 + e2 * zv2) / h + vp * err_L) / mr
            err = math.sqrt(((err_w / (atol_w + max(abs(w), abs(y_new[0])) * rtol)) ** 2
                             + (err_L / (atol_L + max(abs(L), abs(y_new[1])) * rtol)) ** 2
                             + (err_V / (atol_V + max(abs(V), abs(y_new[2])) * rtol)) ** 2) / 3)
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + k + 1)
            if err_old is None or err == 0:
                factor = math.inf if err == 0 else err ** -0.25
            else:
                factor = min(1, h_abs / h_old * (err_old / err) ** 0.25) * err ** -0.25
            if err < 1:
                h_old, err_old = h_abs, err
                h_abs *= min(MAX_FACTOR, safety * factor)
                break
            h_abs *= max(MIN_FACTOR, safety * factor)
            rejected += 1
        if status == -1:
            break
        Q = (*coefficients(z0, z1, z2), *coefficients(zl0, zl1, zl2),
             *coefficients(zv0, zv1, zv2))
        t_old, y_old, t, y = t, (w, L, V), t_new, y_new
        prev = (t_old, h, w, *Q[:3])
        fw, fu, (w, L, V) = fw_new, u2, y
        status = 0 if t >= tf else None
        g_new = events(t, y)

        def interpolant():  # the step's collocation polynomial at a scalar x
            return lambda x: tuple(v + ((q2 * s + q1) * s + q0) * s
                                   for s in [(x - t_old) / h]
                                   for v, (q0, q1, q2) in zip(y_old, (Q[:3], Q[3:6], Q[6:])))
        end = _first_event(events, directions, g, g_new, t_old, t, interpolant)
        if end is not None:
            (t, y, event), status = end, 1
        g = g_new
        if t == t_old and rows:  # a root on the previous step's end
            y = y_old
        else:
            rows.append((t_old, h, *y_old, *Q))
            ts.append(t)
            ys.append(y)
    steps = _CollocationSteps(ts, ys, rows)
    return SimpleNamespace(t=steps.t, y=steps.y, sol=steps, nfev=nfev, rejected=rejected,
                           newton_iters=newton, event=event, status=status,
                           message=TOO_SMALL_STEP if status == -1 else None)


class _CollocationSteps:
    """`_radau_march`'s accepted steps: step i starts at t[i] from y[:, i],
    spans h[i], and carries its collocation polynomial y + Q p, p the powers
    (s, s^2, s^3) of s = (x - t[i])/h[i].  A query is an increasing 1-D array
    of nodes; a node on a step end reads that end's state."""

    def __init__(self, ts, ys, rows):
        self.t, self.y = np.array(ts), np.array(ys).T
        rows = np.array(rows).reshape(-1, 14)
        self._t, self._h, self._y = rows[:, 0], rows[:, 1], rows[:, 2:5].T
        self._Q = rows[:, 5:].reshape(-1, 3, 3).transpose(1, 2, 0)  # state, power, step

    def __call__(self, x):
        i = np.searchsorted(self.t, x)
        hit = self.t[np.minimum(i, len(self.t) - 1)] == x
        out = np.empty((3, len(x)))
        out[:, hit] = self.y[:, i[hit]]
        k = np.clip(i[~hit] - 1, 0, len(self._h) - 1)
        s = (x[~hit] - self._t[k]) / self._h[k]
        Q = self._Q[:, :, k]
        out[:, ~hit] = self._y[:, k] + ((Q[:, 2] * s + Q[:, 1]) * s + Q[:, 0]) * s
        return out


# `solve` reaches the march through this module attribute, where the
# benchmark's tracer (perfbench/tracing.py) wraps it to count steps, RHS
# evaluations and events from the result's t, nfev and status
solve_ivp = _radau_march


# ---------------------------------------------------------------------------
# main march; its start's two steps, series_coefficients and handoff_point, are
# the benchmark's "series" layer (perfbench/tracing.py wraps them by name)
# ---------------------------------------------------------------------------

def series_coefficients(params: ModelParams, m: float, gamma: float):
    """(D1, D2, D3): the Taylor terms at zero surplus of the constant regime
    gamma in {a, -b}, V = 1 + D1 (x + D2 x^2/2 + D3 x^3/3) + O(x^4), with

        D1 = lambda/c,  D2 = -((mu_bar - lambda)/c + 1/m),
        D3 = -(D2 (sigma_bar^2 + 2 mu_bar - lambda + c/m) + mu_bar/m) / (2c),

    mu_bar and sigma_bar as in `regime_constants`.  The full series in x is
    asymptotic (its terms grow factorially); three terms at X0 are exact to
    about D4 X0^3 relative in V', and the march takes over from there.
    """
    rc = regime_constants(params, gamma)
    mb, sb, c, lam = rc.mu_bar, rc.sigma_bar, params.c, params.lam
    D2 = -((mb - lam) / c + 1.0 / m)
    return lam / c, D2, -(D2 * (sb**2 + 2.0 * mb - lam + c / m) + mb / m) / (2.0 * c)


def _series_w(params: ModelParams, regime: str, x, Vp, Vpp):
    """w = I/V' of the Taylor start in a constant regime: the slope table's A/B
    row solved for w, (mu_bar - r) x + sigma_bar^2 x^2 V''/(2 V'), free of the
    cancellation in lambda (V - J) - (c + r x) V'."""
    rc = regime_constants(params, regime_fraction(params, regime))
    return (rc.mu_bar - params.r) * x + rc.sigma_bar**2 * x**2 * Vpp / (2.0 * Vp)


def handoff_point(params: ModelParams, regime: str, w: float) -> float:
    """X0, once the start regime is optimal there: phi(X0), from w = I/V' at X0,
    lies in the regime's band of `indicator_bands` (for mu = r, without phi,
    V'' > 0: w > 0).  Else a switch below X0 would go unseen by the march's
    events, and SolverAbort names X0, phi(X0) and the band."""
    phi = indicator(params, X0, 1.0, w)
    if params.mu == params.r:
        inside, band = w > 0, "w > 0"
    else:
        lo, hi = band = indicator_bands(params)[regime]
        inside = (lo is None or lo <= phi) and (hi is None or phi <= hi)
    if not inside:
        raise SolverAbort(f"the start regime {regime} is not optimal at X0={X0:g}: "
                          f"phi(X0)={phi:.6g} (w={w:.6g}) lies outside its band {band}, so a "
                          "switch below X0 would go unseen",
                          {"X0": X0, "w": w, "phi": phi, "band": band})
    return X0


def _start(params: ModelParams, m: float):
    """(D, regime, x0, state (w, L, V)) where the march begins.

    The start is the constant regime that is optimal at zero surplus: maximal
    long when mu > r, maximal short when mu < r.  D = (D1, D2, D3) are its
    Taylor terms (`series_coefficients`), which give the state at x0 = X0.
    When mu = r it is the largest-|theta| endpoint if V''(0+) = D1 D2 > 0,
    and otherwise ZERO from x0 = 1e-8 with the x = 0 data.
    """
    regime0 = start_regime(params)
    D = D1, D2, D3 = series_coefficients(params, m, regime_fraction(params, regime0))
    if params.mu == params.r and D2 <= 0:
        return D, REGIME_ZERO, 1e-8, (0.0, math.log(D1), 1.0)
    V = 1.0 + D1 * (X0 + D2 * X0**2 / 2.0 + D3 * X0**3 / 3.0)
    Vp, Vpp = D1 * (1.0 + D2 * X0 + D3 * X0**2), D1 * (D2 + 2.0 * D3 * X0)
    w = _series_w(params, regime0, X0, Vp, Vpp)
    return D, regime0, handoff_point(params, regime0, w), (w, math.log(Vp), V)


def solve(params: ModelParams, m: float, options: Optional[SolveOptions] = None) -> SolutionCurve:
    """Solve the HJB equation for exponential claims with mean m.

    Returns the normalised solution (V(0) = 1) with its regime segmentation;
    survival probabilities are V(x)/V_inf, V_inf being V at the last node
    (`extrapolate_tail` states the tail's bound).  Every segment marches
    (w, L, V) by `_radau_march`, and every step end is a node.  The march
    ends (meta "completion") at x_max ("reached-x-max") or where V' reaches
    VP_FLOOR ("derivative-floor").  meta "march" holds one record per
    segment: its steps, RHS evaluations, rejected attempts and Newton rounds.
    Raises ValueError, naming the field, for an rtol outside [100 eps, inf),
    an atol that is negative or not finite, or an x_max of +inf, and
    SolverAbort when x_max does not lie beyond the start x_eps (X0, or 1e-8
    for a ZERO start), when the start regime is not optimal at X0
    (`handoff_point`), on event oscillation (more than MAX_SWITCHES regime
    changes), a failed step, the interior deficit w = I/V' reaching zero,
    or an indicator falling below the vertex-exclusion cutoff.
    """
    opts = options or SolveOptions()
    require_valid(params, ExponentialClaims(m))
    for name, value, lo in (("rtol", opts.rtol, RTOL_MIN), ("atol", opts.atol, 0.0)):
        if not lo <= value < math.inf:
            raise ValueError(f"{name} must be finite and at least {lo:.3g}, got {value}")
    x_max = opts.resolved_x_max(params)
    if x_max == math.inf:
        raise ValueError("x_max must be finite, got inf")
    D, regime, x_eps, y = _start(params, m)
    if not x_max > x_eps:  # NaN included: the march only runs forward
        raise SolverAbort(f"x_max={x_max:.6g} is not beyond the start x_eps={x_eps:.6g}",
                          {"x_max": x_max, "x_eps": x_eps})

    x = x_eps
    segments: list[RegimeSegment] = []
    march: list[dict] = []
    xs_all: list[np.ndarray] = []
    cols: dict[str, list[np.ndarray]] = {k: [] for k in _COLUMNS}
    max_step = min(MAX_STEP, (x_max - x_eps) / opts.output_nodes)
    # w's absolute tolerance is below any deficit the march resolves; L's is
    # V''s relative one
    atol = (opts.atol * 1e-2, opts.rtol, opts.atol)

    n_switch = 0
    completion = "reached-x-max"
    while True:
        rows, g = _segment_events(regime, params, m)
        sol = solve_ivp(_w_system(regime, params, m), (x, x_max), y, g,
                        [direction for _, direction, _ in rows], rtol=opts.rtol, atol=atol,
                        max_step=max_step)
        if sol.status == -1:
            raise SolverAbort(f"integration failed in regime {regime} at x={sol.t[-1]}: {sol.message}",
                              {"x": sol.t[-1], "y": sol.y[:, -1]})
        march.append({"regime": regime, "steps": len(sol.t) - 1, "rhs_evals": int(sol.nfev),
                      "rejected": sol.rejected, "newton_iters": sol.newton_iters})

        ev_name, _, target = ("reached-x-max", None, None) if sol.event is None else rows[sol.event]
        switch = sol.status == 1 and ev_name not in _COMPLETIONS + _ABORTS
        nodes = _segment_nodes(sol.t, hug_lo=n_switch > 0, hug_hi=switch)
        _append_segment(nodes, sol.sol(nodes), regime, params, m, xs_all, cols)
        x_end, y = sol.t[-1], sol.y[:, -1]  # an event's root, as the march appended it
        segments.append(RegimeSegment(x, x_end, regime, ev_name))
        x = x_end

        if sol.status == 0:
            break
        if ev_name in _COMPLETIONS:
            completion = ev_name
            break
        if ev_name == "deficit-zero":
            raise SolverAbort(
                f"interior regime lost I > 0 at x={x:.6g} with V'={math.exp(y[1]):.3g}; "
                "structural failure, not tail underflow",
                {"x": x, "Vp": math.exp(y[1])})
        if ev_name == "indicator-below-exclusion":
            raise SolverAbort(
                f"indicator magnitude fell below the vertex-exclusion cutoff at x={x:.6g}",
                {"x": x})

        regime = target
        n_switch += 1
        if n_switch > MAX_SWITCHES:
            raise SolverAbort(f"regime oscillation: more than {MAX_SWITCHES} switches",
                              {"switches": [(s.hi, s.terminal_event) for s in segments]})

    return _assemble(params, m, D, x_eps, xs_all, cols, segments, march, completion, opts)


def _segment_nodes(t, hug_lo, hug_hi):
    """A segment's step ends t (increasing, from its start lo = t[0] to its
    end hi = t[-1]) and a few nodes hugging an endpoint that is a regime
    switch, so one-sided difference quotients there read the march's
    collocation polynomials rather than interpolation between nodes."""
    lo, hi = t[0], t[-1]
    hug = np.array([1e-7, 2e-7, 1e-6])
    extra = np.concatenate([lo + hug * max(1.0, abs(lo)) if hug_lo else [],
                            hi - hug * max(1.0, abs(hi)) if hug_hi else []])
    return np.unique(np.concatenate([t, extra[(extra > lo) & (extra < hi)]]))


def _append_segment(nodes, states, regime, params, m, xs_all, cols):
    """A segment's columns from its march states (w, L, V) at the nodes:
    V' = e^L, V - J = (w + c + r x) V'/lambda, V'' = u V', phi = 2w/((mu - r) x)."""
    w, L, V = states
    Vp = np.exp(L)
    phi = indicator(params, nodes, 1.0, w)
    xs_all.append(nodes)
    cols["V"].append(V)
    cols["Vp"].append(Vp)
    cols["Vpp"].append(slope_fn(regime, params, m)[0](nodes, w) * Vp)
    cols["J"].append(V - (w + params.c + params.r * nodes) * Vp / params.lam)
    cols["phi"].append(phi)
    cols["theta"].append(theta_for(regime, params, phi))
    cols["regime"].append(np.full(nodes.shape, regime, dtype=object))


def _assemble(params, m, D, x_eps, xs_all, cols, segments, march, completion, opts):
    # the x = 0 row: V(0) = 1, V'(0+) = D1 = lambda/c, V''(0+) = D1 D2, J(0) = 0
    (D1, D2, _), regime0 = D, segments[0].regime
    row0 = {"V": 1.0, "Vp": D1, "Vpp": D1 * D2, "J": 0.0, "phi": start_indicator(params),
            "theta": regime_fraction(params, regime0), "regime": regime0}
    x = np.concatenate([[0.0]] + xs_all)
    data = {k: np.concatenate([np.array([row0[k]], dtype=cols[k][0].dtype), *cols[k]])
            for k in cols}
    keep = np.concatenate([[True], np.diff(x) > 0])
    x = x[keep]
    for k in data:
        data[k] = data[k][keep]

    segments = [replace(segments[0], lo=0.0)] + segments[1:]
    tail = extrapolate_tail(x[-1], data["Vp"][-1], segments[-1].regime, params,
                            completion=completion, m=m)
    meta = {
        "x_eps": x_eps,
        "completion": completion,
        "events": [{"x": s.hi, "kind": s.terminal_event, "from": s.regime, "to": t.regime}
                   for s, t in zip(segments, segments[1:])],
        "march": march,
        "tail": tail,
        "options": {"x_max": opts.resolved_x_max(params), "rtol": opts.rtol,
                    "atol": opts.atol, "vertex_exclusion": vertex_exclusion(params)},
    }
    return SolutionCurve(x=x, V=data["V"], Vp=data["Vp"], Vpp=data["Vpp"], J=data["J"],
                         phi=data["phi"], theta_star=data["theta"], regime=data["regime"],
                         segments=segments, params=params, meta=meta)


# ---------------------------------------------------------------------------
# tail closure
# ---------------------------------------------------------------------------

def extrapolate_tail(x_end, vp_end, terminal_regime, params: ModelParams,
                     completion: str = "reached-x-max", m: Optional[float] = None) -> dict:
    """The tail beyond the last node x_end, where V' is vp_end: V_inf is V
    there, and the dict bounds the survival mass beyond x_end (mode
    "converged") or says it has no bound (mode "open", "tail_mass_bound" None).

    For exponential claims with mean m, an end in the interior regime or in
    ZERO, at a floor or at x_max, is in the interest-only far field (Sundt &
    Teugels 1995): V' ~ C x^k e^(-x/m), k = lambda/r - 1, and since
    ln(t/x) <= t/x - 1 the mass is at most V'_end / (1/m - k/x_end), open
    while x_end <= k m (k >= 0).  Else a march that ran V' down to a floor
    ("derivative-floor", "deficit-zero", V'_end <= 10 VP_FLOOR) is bounded by
    V'_end, and any other end at x_max (a terminal A or B, a general-claims
    end) is open.
    """
    x_end, v_end = float(x_end), float(vp_end)
    if m is not None and terminal_regime in (REGIME_INTERIOR, REGIME_ZERO):
        rate = 1.0 / m - max(params.lam / params.r - 1.0, 0.0) / x_end
        bound = v_end / rate if rate > 0 else None
    elif completion != "reached-x-max" or v_end <= 10.0 * VP_FLOOR:
        bound = v_end
    else:
        bound = None
    return {"terminal_regime": terminal_regime, "completion": completion,
            "mode": "open" if bound is None else "converged", "tail_mass_bound": bound}
