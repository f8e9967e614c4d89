"""Fast solver for exponential claim sizes.

The exponential kernel turns the claim convolution into one extra ODE
component: with J(x) = int_0^x V(x-z) exp(-z/m)/m dz one has J' = (V - J)/m
and M(V) = lambda (V - J) exactly, so each regime of the HJB solution is an
ordinary (not integro-) differential equation in (V, V', J):

    constant regime gamma:  V'' = 2 [lambda (V-J) - (c + mu_bar x) V']
                                     / (sigma_bar^2 x^2)
    interior regime:        V'' = -(mu - r)^2 V'^2 / (2 sigma^2 I),
                            I = lambda (V-J) - (c + r x) V'
    no investment (mu = r): V' = lambda (V-J) / (c + r x)

The march starts from the near-zero asymptotic series of the initial regime
(`operators.start_regime`), tracks the policy indicator phi, and switches
regimes where phi leaves the regime's band (`operators.indicator_bands`):
each row of a regime's event table names the regime across the crossed bound.
The march owns its steppers and imports no scipy.

The constant regimes (and ZERO) march (V, V', V-J) with a forward-only
Dormand-Prince 5(4) stepper: the tableau, the first-step rule, the step
control and the event root finder (Brent's method) copy scipy 1.17's RK45
and brentq (the oracle tests against solve_ivp and brentq catch a drifted
scipy); the option checks are `solve`'s, made once before the march.  It
evaluates all of a regime's events in one fused function per step, localises
a crossing on the step's interpolant, and evaluates the increasing output
nodes in blocks of steps, bit-identical to scipy's solve_ivp.  The deficit
V-J decays to zero while V and J separately approach V(inf), and
differencing them at the far tail would lose all significant digits exactly
where the indicator is needed; the public J-based contracts are unaffected.

The interior regime is stiff: in w = I/V' its equation reads
w' = lambda - r - (w + c + r x)(1/m + u) with u = V''/V' = -kappa/w,
kappa = (mu - r)^2/(2 sigma^2), so dw'/dw = -1/m - kappa (c + r x)/w^2 grows
as w settles at kappa m.  It marches (w, L = ln V', V) by a 3-stage Radau IIA
step (Hairer & Wanner 1996): the stage Newton iteration acts on the scalar w
alone, L and V are the quadratures of its stages, and steps are capped at the
output spacing, so every step end is a node.  w carries I without
cancellation, so the indicator phi = 2w/((mu - r) x) and theta* keep their
digits down to the derivative floor.

When mu = r the drift is theta-free and there is no interior regime: the
largest-|theta| endpoint is optimal while V'' > 0 and theta = 0 (ZERO) while
V'' < 0.  One march serves both cases, with a curvature row in place of the
indicator rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import ClassVar, Optional

import numpy as np

from .curve import REGIME_INTERIOR, REGIME_ZERO, RegimeSegment, SolutionCurve
from .model import ExponentialClaims, ModelParams, require_valid
from .operators import (curvature, curvature_fn, deficit, indicator, indicator_bands,
                        regime_fraction, slope_fn, start_indicator, start_regime, theta_for,
                        vertex_exclusion)
from .series import SeriesExpansion, handoff_point, series_coefficients, series_eval

__all__ = [
    "SolveOptions",
    "SolverAbort",
    "solve",
    "extrapolate_tail",
]

MAX_SWITCHES = 16     # more regime changes than this is event oscillation
SERIES_TERMS = 40     # order of the near-zero series
VP_FLOOR = 1e-13      # derivative underflow = completion
MAX_STEP = 0.5        # integrator step cap
_EPS = np.finfo(float).eps

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

def _zero_vp(params: ModelParams, x, y):
    """V' on the ZERO branch, slaved by I = 0 to lambda (V-J) / (c + r x)."""
    return params.lam * y[2] / (params.c + params.r * x)


def _rhs_for(regime: str, params: ModelParams, m: float):
    """f(x, y) of A, B or ZERO on y = (V, V', V-J) for `_rk45_march`; the
    interior regime marches in w (`_interior_w`)."""
    lam = params.lam
    if regime == REGIME_ZERO:
        # V' is slaved to the state, so its slot idles
        def f(x, y):
            y = y.tolist()
            vp = _zero_vp(params, x, y)
            return (vp, 0.0, vp - y[2] / m)
        return f

    vpp = curvature_fn(regime, params)

    def f(x, y):
        V, Vp, D = y.tolist()
        return (Vp, vpp(x, Vp, lam * D), Vp - D / m)
    return f


def _interior_w(params: ModelParams, m: float):
    """(f, jac) of the interior regime in w = I/V' for `_radau_march`.

    With q = (w + c + r x)/lambda = D/V' and u = V''/V' (`slope_fn`):
    w' = lambda (1 - q/m - q u) - r and L' = u for L = ln V', so
    dw'/dw = -1/m + (c + r x) u/w and du/dw = -u/w, as u = -kappa/w.
    """
    u = slope_fn(REGIME_INTERIOR, params)
    lam, c, r, im = params.lam, params.c, params.r, 1.0 / m

    def f(x, w):
        uw = u(x, w)
        return lam - r - (w + c + r * x) * (im + uw), uw

    def jac(x, w):
        uw = u(x, w)
        return (c + r * x) * uw / w - im, -uw / w
    return f, jac


def _to_w(params: ModelParams, x, y):
    """(V, V', V-J) -> (w, L, V)."""
    V, Vp, D = y
    return (params.lam * D / Vp - (params.c + params.r * x), math.log(Vp), V)


def _from_w(params: ModelParams, x, y):
    """(w, L, V) -> (V, V', V-J) for a node array (or a scalar x)."""
    w, L, V = y
    Vp = np.exp(L)
    return np.array([V, Vp, (w + params.c + params.r * x) * Vp / params.lam])


def _segment_events(regime: str, params: ModelParams, m: float):
    """(rows, g): the events ending the given regime's segment.

    rows holds one (name, direction, target) per event; g(x, y) returns all
    their values at once, in row order, sharing one deficit and indicator
    evaluation per call.  A switch event names the regime that follows: for
    mu != r the one whose band of `indicator_bands` shares the crossed bound.
    y is the regime's march state: (w, L, V) in the interior regime, where
    "deficit-zero" is w falling through 0, and (V, V', V-J) in the others.
    The events in _COMPLETIONS and _ABORTS have target None; the former end
    the march, the latter fail it.
    """
    lam = params.lam
    up, down = 1, -1
    floor = ("derivative-floor", down, None)

    if params.mu == params.r:
        if regime == REGIME_ZERO:
            vpp = curvature_fn(REGIME_ZERO, params)

            def g(x, y):
                y = y.tolist()
                vp = _zero_vp(params, x, y)
                return (vpp(x, vp, lam * y[2], lam * (vp - y[2] / m)), vp - VP_FLOOR)
            return [("curvature-positive", up, start_regime(params)), floor], g

        def g(x, y):
            V, Vp, D = y.tolist()
            return (deficit(params, x, Vp, lam * D), Vp - VP_FLOOR)
        return [("curvature-negative", down, REGIME_ZERO), floor], g

    # phi leaves the regime's band down through lo or up through hi, into the
    # band across that bound; a bound of the interior band is the interior
    # bound, the other the extreme bound
    bands = indicator_bands(params)
    lo, hi = bands[regime]
    levels = [level for level in (lo, hi) if level is not None]
    rows = [("indicator-interior-bound" if level in bands[REGIME_INTERIOR]
             else "indicator-extreme-bound", down if level == lo else up,
             next(k for k, band in bands.items() if k != regime and level in band))
            for level in levels]

    if regime == REGIME_INTERIOR:  # on the state (w, L, V) of `_interior_w`
        (level,) = levels
        A = vertex_exclusion(params)
        rows += [("deficit-zero", down, None), ("indicator-below-exclusion", down, None), floor]

        def g(x, y):
            w, L, V = y
            phi = indicator(params, x, 1.0, w)
            return (phi - level, w, abs(phi) - A, math.exp(L) - VP_FLOOR)
        return rows, g

    def g(x, y):
        V, Vp, D = y.tolist()
        phi = indicator(params, x, Vp, deficit(params, x, Vp, lam * D))
        return (*[phi - level for level in levels], Vp - VP_FLOOR)
    return rows + [floor], g


# scipy 1.17's RK45 (Dormand & Prince 5(4), dense output with Shampine's c6),
# copied expression for expression, and its step control
N_STAGES = 6
C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([[0, 0, 0, 0, 0], [1/5, 0, 0, 0, 0], [3/40, 9/40, 0, 0, 0],
              [44/45, -56/15, 32/9, 0, 0], [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
              [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_A = [A[s, :s] for s in range(1, N_STAGES)]
_C = C[1:].tolist()
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
_ERR_EXPONENT = -1 / (4 + 1)  # the error estimator has order 4
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_BLOCK = 1024  # accepted steps per dense-output block


def _first_step(fun, t0, y0, t_bound, max_step, f0, rtol, atol):
    """scipy's select_initial_step (Hairer, Norsett & Wanner, Solving ODEs I, II.4),
    forward in t."""
    interval_length = t_bound - t0
    if interval_length == 0.0:
        return 0.0
    scale, root_n = atol + np.abs(y0) * rtol, y0.size ** 0.5  # norms are RMS norms
    d0, d1 = np.linalg.norm(y0 / scale) / root_n, np.linalg.norm(f0 / scale) / root_n
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval_length)
    f1 = np.asarray(fun(t0 + h0, y0 + h0 * f0), dtype=float)
    d2 = np.linalg.norm((f1 - f0) / scale) / root_n / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** -_ERR_EXPONENT)
    return min(100 * h0, h1, interval_length, max_step)


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


def _rk45_march(fun, t_span, y0, events, directions, rtol, atol, max_step):
    """solve_ivp(fun, t_span, y0, "RK45", dense_output=True) with terminal events,
    forward in t only (t_span[0] <= t_span[1]).

    Returns solve_ivp's t, y, sol, nfev and status bit for bit, its message on
    failure, `rejected`, the rejected step attempts, and `event`, the index of
    the event that ended the march (None if none did).  Set-up and steps copy
    scipy 1.17's RK45 (y0 check, first step, _step_impl, rk_step) with the same
    numpy calls on the same shapes (the test_rk45_march_* oracles against
    solve_ivp catch a drifted scipy); rtol and atol are `solve`'s to check.
    `events(t, y)` gives all event values at once, `directions[i]` is +1
    (rising) or -1 (falling).  A sign change counts as in solve_ivp (a zero
    at either end counts); _brentq roots each fired event on the step's
    interpolant, and the earliest root ends the march.
    """
    t0, tf = map(float, t_span)
    y = np.asarray(y0).astype(float, copy=False)
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    atol = np.asarray(atol)
    K = np.empty((N_STAGES + 1, y.size))
    K[0] = fun(t0, y)
    h_abs = _first_step(fun, t0, y, tf, max_step, K[0], rtol, atol)
    t, nfev = t0, 2
    KT = [K[:s].T for s in range(1, N_STAGES + 2)]
    steps = _DenseSteps(y.size)
    g = events(t, y)
    status, event, rejected = None, None, 0
    while status is None:
        min_step = 10 * abs(np.nextafter(t, np.inf) - t)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        step_rejected = False
        while h_abs >= min_step:
            t_new = min(t + h_abs, tf)
            h = h_abs = t_new - t
            for s, (a, c) in enumerate(zip(_A, _C)):
                K[s + 1] = fun(t + c * h, y + np.dot(KT[s], a) * h)
            y_new = y + h * np.dot(KT[-2], B)
            K[-1] = fun(t + h, y_new)
            nfev += N_STAGES
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = np.dot(KT[-1], E) * h / scale
            error_norm = math.sqrt(err.dot(err)) / err.size**0.5
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0
                          else min(MAX_FACTOR, SAFETY * error_norm**_ERR_EXPONENT))
                h_abs *= min(1, factor) if step_rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**_ERR_EXPONENT)
            step_rejected = True
            rejected += 1
        else:
            status = -1
            break
        t_old, y_old, t, y = t, y, t_new, y_new
        status = 0 if t >= tf else None
        g_new = events(t, y)

        def interpolant():  # RkDenseOutput of this step at a scalar s
            Q = KT[-1].dot(P)
            return lambda s: h * np.dot(Q, np.cumprod(np.tile((s - t_old) / h, 4))) + y_old
        end = _first_event(events, directions, g, g_new, t_old, t, interpolant)
        if end is not None:
            (t, y, event), status = end, 1
        g = g_new
        if t == t_old and steps.n:  # a root on the previous step's end
            y = y_old
        else:
            steps.add(t_old, h, y_old, K)
        K[0] = K[-1]
    steps.finish(t, y)
    return SimpleNamespace(t=steps.t, y=steps.y.T, sol=steps, nfev=nfev, rejected=rejected,
                           event=event, status=status,
                           message=TOO_SMALL_STEP if status == -1 else None)


class _DenseSteps:
    """scipy's OdeSolution over a march's accepted steps, kept in blocks.

    Step i starts at t[i] from y[i] and spans h[i]; its interpolant is
    RkDenseOutput's h Q p + y[i], p the powers of (t - t[i])/h[i], Q = K^T P.
    A block of _BLOCK steps gets its Q from one stacked matmul.  A query is an
    increasing 1-D array of nodes, evaluated (shape (n_states, len(t))) by one
    matmul per block and group of steps holding equally many nodes (a stacked
    matmul gives np.dot(Q, p)'s bits only for p of the same shape).
    """

    def __init__(self, n):
        self.n, self._rows, self._Q = 0, [], []
        self._K = np.empty((_BLOCK, N_STAGES + 1, n))

    def add(self, t_old, h, y_old, K):
        i = self.n % _BLOCK
        if i == 0:
            self._rows.append(np.empty((_BLOCK, 2 + y_old.size)))  # t_old, h, y_old
        row = self._rows[-1][i]
        row[0], row[1], row[2:] = t_old, h, y_old
        self._K[i] = K
        self.n += 1
        if i == _BLOCK - 1:
            self._Q.append(np.matmul(self._K.transpose(0, 2, 1), P))

    def finish(self, t_end, y_end):
        """Close the last block; t and y gain the march's end point."""
        if self.n % _BLOCK:
            self._Q.append(np.matmul(self._K[:self.n % _BLOCK].transpose(0, 2, 1), P))
        rows = np.concatenate([np.empty((0, 2 + y_end.size)), *self._rows])[:self.n]
        del self._K, self._rows
        self.t, self.h = np.append(rows[:, 0], t_end), rows[:, 1]
        self.y = np.vstack([rows[:, 2:], y_end])

    def __call__(self, t):
        step = np.clip(np.searchsorted(self.t, t, side="left") - 1, 0, self.n - 1)
        x = (t - self.t[step]) / self.h[step]
        out = np.empty((self.y.shape[1], len(t)))
        for b, Q in enumerate(self._Q):
            lo, hi = np.searchsorted(step, [b * _BLOCK, (b + 1) * _BLOCK])
            counts = np.bincount(step[lo:hi] - b * _BLOCK, minlength=len(Q))
            first = lo + np.cumsum(counts) - counts
            for k in np.unique(counts[counts > 0]):
                js = np.flatnonzero(counts == k)
                idx = first[js, None] + np.arange(k)
                p = np.cumprod(np.repeat(x[idx][:, None, :], Q.shape[2], axis=1), axis=1)
                i = b * _BLOCK + js
                y = self.h[i, None, None] * np.matmul(Q[js], p)
                y += self.y[i, :, None]
                out[:, idx] = y.transpose(1, 0, 2)
        return out


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


def _radau_march(fun, t_span, y0, events, directions, rtol, atol, max_step):
    """March (w, L, V) with w' = f(x, w), L' = u(x, w), V' = e^L by Radau IIA,
    forward in t; returns the fields of `_rk45_march`'s result plus
    `newton_iters`.

    `fun` is the pair (f, jac): f(x, w) gives (w', u) and jac(x, w) gives
    (dw'/dw, du/dw), both plain floats.  Only w is implicit: the simplified
    Newton iteration on its three stages takes one real and one complex
    scalar division per round, and L and V are the quadratures of the w
    stages (the Jacobian is triangular).  `newton_iters` counts the rounds
    of three stage evaluations, the last round at the converged stages
    included, so nfev = 1 + 3 newton_iters.  The step control is scipy's
    (error estimate filtered by the real eigenvalue, Gustafsson's predictive
    factor); atol holds the absolute tolerances of (w, L, V).  Steps never
    exceed max_step.  Events and their roots are as in `_rk45_march`, rooted
    on the step's collocation polynomial, which also gives `sol`.  A step
    whose Newton iteration fails or reaches a non-finite f is halved; below
    10 ulp(t) the march ends with status -1.
    """
    f, jac = fun
    t, tf = map(float, t_span)
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
def solve_ivp(fun, t_span, y0, events, directions, rtol, atol, max_step, method="RK45"):
    """One segment's march: `_rk45_march`, or `_radau_march` for method "Radau"."""
    march = _radau_march if method == "Radau" else _rk45_march
    return march(fun, t_span, y0, events, directions, rtol, atol, max_step)


# ---------------------------------------------------------------------------
# main march
# ---------------------------------------------------------------------------

def _start(params: ModelParams, m: float):
    """(series, regime, x_eps, state (V, V', V-J)) where the march begins.

    The start is the constant regime that is optimal at zero surplus: maximal
    long when mu > r, maximal short when mu < r.  When mu = r it is the
    largest-|theta| endpoint if V''(0+) > 0, and otherwise ZERO from x = 1e-8
    with the x = 0 data (no series segment).
    """
    regime0 = start_regime(params)
    exp = series_coefficients(params, m, regime_fraction(params, regime0), K=SERIES_TERMS)
    if params.mu == params.r and exp.D[2] <= 0:
        return exp, REGIME_ZERO, 1e-8, np.array([1.0, params.lam / params.c, 1.0])
    x_eps = handoff_point(exp, params)
    V0, Vp0, _, J0 = series_eval(exp, x_eps, params)
    return exp, regime0, x_eps, np.array([V0, Vp0, V0 - J0])


def solve(params: ModelParams, m: float, options: Optional[SolveOptions] = None) -> SolutionCurve:
    """Solve the HJB equation for exponential claims with mean m.

    Returns the normalised solution (V(0) = 1) with its regime segmentation;
    survival probabilities are V(x)/V_inf, V_inf being V at the last node
    (`extrapolate_tail` states the tail's bound).  The march ends (meta
    "completion") at x_max ("reached-x-max") or where V' reaches VP_FLOOR
    ("derivative-floor").  meta "march" holds one record per segment: its
    stepper ("rk45", or "radau" in the interior regime, which also counts
    its Newton rounds), steps, RHS evaluations and rejected attempts.
    Raises ValueError, naming the field, for an rtol outside [100 eps, inf),
    an atol that is negative or not finite, or an x_max of +inf, and
    SolverAbort when x_max does not lie beyond the series handoff point
    x_eps, on event oscillation (more than MAX_SWITCHES regime changes), a
    failed step, loss of monotonicity, the interior deficit w = I/V'
    reaching zero, or an indicator falling below the vertex-exclusion cutoff.
    """
    opts = options or SolveOptions()
    require_valid(params, ExponentialClaims(m))
    for name, value, lo in (("rtol", opts.rtol, 100 * _EPS), ("atol", opts.atol, 0.0)):
        if not lo <= value < math.inf:
            raise ValueError(f"{name} must be finite and at least {lo:.3g}, got {value}")
    x_max = opts.resolved_x_max(params)
    if x_max == math.inf:
        raise ValueError("x_max must be finite, got inf")
    exp, regime, x_eps, y = _start(params, m)
    if not x_max > x_eps:  # NaN included: the march only runs forward
        raise SolverAbort(f"x_max={x_max:.6g} is not beyond the handoff point x_eps={x_eps:.6g}",
                          {"x_max": x_max, "x_eps": float(x_eps)})

    x = x_eps
    segments: list[RegimeSegment] = []
    events_log: list[dict] = []
    march: list[dict] = []
    xs_all: list[np.ndarray] = []
    cols: dict[str, list[np.ndarray]] = {k: [] for k in _COLUMNS}
    out_dx = (x_max - x_eps) / opts.output_nodes

    n_switch = 0
    completion = "reached-x-max"
    while True:
        rows, g = _segment_events(regime, params, m)
        directions = [direction for _, direction, _ in rows]
        if regime == REGIME_INTERIOR:  # L's absolute tolerance is V''s relative one
            sol = solve_ivp(_interior_w(params, m), (x, x_max), _to_w(params, x, y), g,
                            directions, rtol=opts.rtol,
                            atol=(opts.atol * 1e-2, opts.rtol, opts.atol),
                            max_step=min(MAX_STEP, out_dx), method="Radau")
        else:
            sol = solve_ivp(_rhs_for(regime, params, m), (x, x_max), y, g, directions,
                            rtol=opts.rtol, atol=[opts.atol, opts.atol * 1e-2, opts.atol * 1e-2],
                            max_step=MAX_STEP)
        if sol.status == -1:
            raise SolverAbort(f"integration failed in regime {regime} at x={sol.t[-1]}: {sol.message}",
                              {"x": sol.t[-1], "y": sol.y[:, -1]})
        record = {"regime": regime, "stepper": "rk45", "steps": len(sol.t) - 1,
                  "rhs_evals": int(sol.nfev), "rejected": sol.rejected}
        if regime == REGIME_INTERIOR:
            record.update(stepper="radau", newton_iters=sol.newton_iters)
        march.append(record)

        ev_name, _, target = ("reached-x-max", None, None) if sol.event is None else rows[sol.event]
        switch = sol.status == 1 and ev_name not in _COMPLETIONS + _ABORTS
        nodes = _segment_nodes(sol.t, out_dx, hug_lo=n_switch > 0, hug_hi=switch)
        states = sol.sol(nodes)
        x_end, y = sol.t[-1], sol.y[:, -1]  # an event's root, as the march appended it
        if regime == REGIME_INTERIOR:
            y = _from_w(params, x_end, y)
        elif regime == REGIME_ZERO:
            states[1] = _zero_vp(params, nodes, states)
            y[1] = _zero_vp(params, x_end, y)
        _append_segment(nodes, states, regime, params, m, xs_all, cols)
        segments.append(RegimeSegment(x, x_end, regime, ev_name))
        x = x_end

        if sol.status == 0:
            break
        if ev_name in _COMPLETIONS:
            completion = ev_name
            break
        if ev_name == "deficit-zero":
            raise SolverAbort(
                f"interior regime lost I > 0 at x={x:.6g} with V'={y[1]:.3g}; "
                "structural failure, not tail underflow",
                {"x": x, "Vp": y[1]})
        if ev_name == "indicator-below-exclusion":
            raise SolverAbort(
                f"indicator magnitude fell below the vertex-exclusion cutoff at x={x:.6g}",
                {"x": x})

        events_log.append({"x": x, "kind": ev_name, "from": regime, "to": target})
        regime = target
        n_switch += 1
        if n_switch > MAX_SWITCHES:
            raise SolverAbort(f"regime oscillation: more than {MAX_SWITCHES} switches",
                              {"switches": [(e["x"], e["kind"]) for e in events_log]})

    return _assemble(params, m, exp, x_eps, xs_all, cols, segments, events_log, march,
                     completion, opts)


def _segment_nodes(t, out_dx, hug_lo=False, hug_hi=False):
    """A segment's step grid t (increasing, from its start lo = t[0] to its end
    hi = t[-1]) refined so that output spacing stays below out_dx.

    A few nodes hug an endpoint that is a regime switch, so one-sided
    difference quotients there read the integrator's dense output rather than
    interpolation between widely spaced nodes.
    """
    lo, hi = t[0], t[-1]
    gap = np.diff(t)  # a gap wider than out_dx gets np.linspace's points, bit for bit
    count = np.where(gap > out_dx, np.ceil(gap / out_dx), 1.0).astype(int)
    gap_of = np.repeat(np.arange(len(gap)), count)
    ends = np.cumsum(count)
    j = np.arange(1, ends[-1] + 1) - (ends - count)[gap_of]
    nodes = j * (gap / count)[gap_of] + t[gap_of]
    nodes[ends - 1] = t[1:]
    nodes = np.concatenate([t[:1], nodes])
    hug = np.array([1e-7, 2e-7, 1e-6])
    extra = []
    if hug_lo:
        extra.append(lo + hug * max(1.0, abs(lo)))
    if hug_hi:
        extra.append(hi - hug * max(1.0, abs(hi)))
    if extra:
        extra = np.concatenate(extra)
        extra = extra[(extra > lo) & (extra < hi)]
        nodes = np.unique(np.concatenate([nodes, extra]))
    return nodes


def _append_segment(nodes, states, regime, params, m, xs_all, cols):
    """A segment's columns from its march states at the nodes: (w, L, V) in
    the interior regime, (V, V', V-J) in the others."""
    if regime == REGIME_INTERIOR:
        w = states[0]
        V, Vp, D = _from_w(params, nodes, states)
        phi = indicator(params, nodes, 1.0, w)
        Vpp = slope_fn(regime, params)(nodes, w) * Vp
    else:
        V, Vp, D = states
        MV = params.lam * D
        dMV = params.lam * (Vp - D / m) if regime == REGIME_ZERO else None
        phi = indicator(params, nodes, Vp, deficit(params, nodes, Vp, MV))
        Vpp = curvature(regime, params, nodes, Vp, MV, dMV)
    if np.any(Vp <= 0):
        raise SolverAbort(f"V' lost positivity in regime {regime} near x={nodes[-1]}",
                          {"x": nodes[Vp <= 0][0]})
    xs_all.append(nodes)
    cols["V"].append(V)
    cols["Vp"].append(Vp)
    cols["Vpp"].append(Vpp)
    cols["J"].append(V - D)
    cols["phi"].append(phi)
    cols["theta"].append(theta_for(regime, params, phi))
    cols["regime"].append(np.full(nodes.shape, regime, dtype=object))


def _series_prefix(params, exp: SeriesExpansion, x_eps, regime0):
    """Rows on [0, x_eps) from the series, including the x = 0 limits.

    A ZERO start has the x = 0 row only.
    """
    xs = np.array([0.0])
    if regime0 != REGIME_ZERO:
        xs = np.concatenate([xs, np.geomspace(x_eps / 64.0, x_eps, 16)[:-1]])
    D1 = params.lam / params.c
    rows = [(1.0, D1, D1 * exp.D[2], 0.0)] + [series_eval(exp, x, params) for x in xs[1:]]
    V, Vp, Vpp, J = np.array(rows).T
    phi = np.empty_like(xs)
    phi[0] = start_indicator(params)
    x1, Vp1 = xs[1:], Vp[1:]
    phi[1:] = indicator(params, x1, Vp1, deficit(params, x1, Vp1, params.lam * (V[1:] - J[1:])))
    return xs, {"V": V, "Vp": Vp, "Vpp": Vpp, "J": J, "phi": phi,
                "theta": theta_for(regime0, params, phi),
                "regime": np.full(xs.shape, regime0, dtype=object)}


def _assemble(params, m, exp, x_eps, xs_all, cols, segments, events_log, march, completion,
              opts):
    xs0, rows0 = _series_prefix(params, exp, x_eps, segments[0].regime)
    x = np.concatenate([xs0] + xs_all)
    data = {k: np.concatenate([rows0[k], *cols[k]]) for k in cols}
    keep = np.concatenate([[True], np.diff(x) > 0])
    x = x[keep]
    for k in data:
        data[k] = data[k][keep]

    segments = [replace(segments[0], lo=0.0)] + segments[1:]
    V_inf, tail = extrapolate_tail(x, data["Vp"], data["V"][-1], segments[-1].regime, params,
                                   completion=completion, m=m)
    meta = {
        "x_eps": x_eps,
        "series_terms": exp.K,
        "completion": completion,
        "events": events_log,
        "march": march,
        "tail": tail,
        "options": {"x_max": opts.resolved_x_max(params), "rtol": opts.rtol,
                    "atol": opts.atol, "vertex_exclusion": vertex_exclusion(params)},
    }
    return SolutionCurve(x=x, V=data["V"], Vp=data["Vp"], Vpp=data["Vpp"], J=data["J"],
                         phi=data["phi"], theta_star=data["theta"], regime=data["regime"],
                         segments=segments, V_inf=V_inf, params=params, meta=meta)


# ---------------------------------------------------------------------------
# tail closure
# ---------------------------------------------------------------------------

def extrapolate_tail(x, Vp, V_end, terminal_regime, params: ModelParams,
                     completion: str = "reached-x-max", m: Optional[float] = None):
    """(V_inf, tail): V_inf is V_end, V at the last node x_end, and the tail
    dict bounds the survival mass beyond x_end (mode "converged") or says it
    has no bound (mode "open", "tail_mass_bound" None).

    For exponential claims with mean m, an end in the interior regime or in
    ZERO, at a floor or at x_max, is in the interest-only far field (Sundt &
    Teugels 1995): V' ~ C x^k e^(-x/m), k = lambda/r - 1, and since
    ln(t/x) <= t/x - 1 the mass is at most V'_end / (1/m - k/x_end), open
    while x_end <= k m (k >= 0).  Else a march that ran V' down to a floor
    ("derivative-floor", "deficit-zero", V'_end <= 10 VP_FLOOR) is bounded by
    V'_end, and any other end at x_max (a terminal A or B, a general-claims
    end) is open.
    """
    x_end, v_end = float(x[-1]), float(Vp[-1])
    if m is not None and terminal_regime in (REGIME_INTERIOR, REGIME_ZERO):
        rate = 1.0 / m - max(params.lam / params.r - 1.0, 0.0) / x_end
        bound = v_end / rate if rate > 0 else None
    elif completion != "reached-x-max" or v_end <= 10.0 * VP_FLOOR:
        bound = v_end
    else:
        bound = None
    return V_end, {"terminal_regime": terminal_regime, "completion": completion,
                   "mode": "open" if bound is None else "converged", "tail_mass_bound": bound}
