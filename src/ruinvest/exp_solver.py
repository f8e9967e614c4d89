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
The march owns its forward-only Dormand-Prince 5(4) stepper and imports no
scipy: the tableau, the first-step rule, the step control and the event
root finder (Brent's method) copy scipy 1.17's RK45 and brentq
(the oracle tests against solve_ivp and brentq catch a drifted scipy); the
option checks are `solve`'s, made once before the march.  It
evaluates all of a regime's events in one fused function per step, localises
a crossing on the step's interpolant, and evaluates the increasing output
nodes in blocks of steps, bit-identical to scipy's solve_ivp.

When mu = r the drift is theta-free and there is no interior regime: the
largest-|theta| endpoint is optimal while V'' > 0 and theta = 0 (ZERO) while
V'' < 0.  One march serves both cases, with a curvature row in place of the
indicator rows.

Internally the integrated state is (V, V', V-J): the deficit V-J decays to
zero while V and J separately approach V(inf), and differencing them at the
far tail would lose all significant digits exactly where the indicator is
needed.  The public J-based contracts are unaffected.
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
                        regime_fraction, start_indicator, start_regime, theta_for,
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

_COMPLETIONS = ("derivative-floor", "cancellation-floor")
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


def _segment_events(regime: str, params: ModelParams, m: float):
    """(rows, g): the events ending the given regime's segment.

    rows holds one (name, direction, target) per event; g(x, y) returns all
    their values at once, in row order, sharing one deficit and indicator
    evaluation per call.  A switch event names the regime that follows: for
    mu != r the one whose band of `indicator_bands` shares the crossed bound.
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

    if regime == REGIME_INTERIOR:
        (level,) = levels
        scale = _completion_scale(params)
        A = vertex_exclusion(params)
        rows += [("cancellation-floor", down, None), ("deficit-zero", down, None),
                 ("indicator-below-exclusion", down, None), floor]

        def g(x, y):
            V, Vp, D = y.tolist()
            I = deficit(params, x, Vp, lam * D)
            phi = indicator(params, x, Vp, I)
            return (phi - level, Vp - scale, I, abs(phi) - A, Vp - VP_FLOOR)
        return rows, g

    def g(x, y):
        V, Vp, D = y.tolist()
        phi = indicator(params, x, Vp, deficit(params, x, Vp, lam * D))
        return (*[phi - level for level in levels], Vp - VP_FLOOR)
    return rows + [floor], g


def _completion_scale(params: ModelParams) -> float:
    # derivative level below which the interior deficit I = lambda(V-J) - (c+rx)V',
    # about 1e-3 of its terms in the far field, is cancellation noise; the
    # interior march ends here
    return 1e-9 * params.lam / params.c


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
        fired = [i for i, d in enumerate(directions)
                 if (g[i] <= 0 <= g_new[i] if d > 0 else g[i] >= 0 >= g_new[i])]
        if fired:
            Q = KT[-1].dot(P)

            def sol(s):  # RkDenseOutput of this step at a scalar s
                return h * np.dot(Q, np.cumprod(np.tile((s - t_old) / h, 4))) + y_old
            roots = [_brentq(lambda s, i=i: events(s, sol(s))[i], t_old, t,
                             xtol=4 * _EPS, rtol=4 * _EPS) for i in fired]
            k = roots.index(min(roots))
            t, y, status, event = roots[k], sol(roots[k]), 1, fired[k]
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


# `solve` reaches the march through this module attribute, where the
# benchmark's tracer (perfbench/tracing.py) wraps it to count steps, RHS
# evaluations and events from the result's t, nfev and status
solve_ivp = _rk45_march


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
    "completion") at x_max ("reached-x-max"), where V' reaches VP_FLOOR
    ("derivative-floor"), or, in the interior regime, where V' falls to the
    cancellation level 1e-9 lambda/c ("cancellation-floor"): below it the
    deficit I = lambda(V-J) - (c+rx)V' that sets V'' and theta* has lost its
    digits.  Raises ValueError, naming the field, for an rtol outside
    [100 eps, inf), an atol that is negative or not finite, or an x_max of
    +inf, and SolverAbort when x_max does not lie beyond the series handoff
    point x_eps, on event oscillation (more than MAX_SWITCHES regime
    changes), loss of monotonicity, I reaching zero above the cancellation
    level, or an indicator falling below the vertex-exclusion cutoff.
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
        if regime == REGIME_INTERIOR and y[1] <= _completion_scale(params):
            completion = "cancellation-floor"
            break
        rows, g = _segment_events(regime, params, m)
        sol = solve_ivp(_rhs_for(regime, params, m), (x, x_max), y, g,
                        [direction for _, direction, _ in rows],
                        rtol=opts.rtol, atol=[opts.atol, opts.atol * 1e-2, opts.atol * 1e-2],
                        max_step=MAX_STEP)
        if sol.status == -1:
            raise SolverAbort(f"integration failed in regime {regime} at x={sol.t[-1]}: {sol.message}",
                              {"x": sol.t[-1], "y": sol.y[:, -1]})
        march.append({"regime": regime, "steps": len(sol.t) - 1, "rhs_evals": int(sol.nfev),
                      "rejected": sol.rejected})

        ev_name, _, target = ("reached-x-max", None, None) if sol.event is None else rows[sol.event]
        switch = sol.status == 1 and ev_name not in _COMPLETIONS + _ABORTS
        nodes = _segment_nodes(sol.t, out_dx, hug_lo=n_switch > 0, hug_hi=switch)
        states = sol.sol(nodes)
        if regime == REGIME_ZERO:
            states[1] = _zero_vp(params, nodes, states)
        if np.any(states[1] <= 0):
            raise SolverAbort(f"V' lost positivity in regime {regime} near x={sol.t[-1]}",
                              {"x": nodes[states[1] <= 0][0]})
        _append_segment(nodes, states, regime, params, m, xs_all, cols)

        x_end, y = sol.t[-1], sol.y[:, -1]  # an event's root, as the march appended it
        if regime == REGIME_ZERO:
            y[1] = _zero_vp(params, x_end, y)
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
    V, Vp, D = states
    MV = params.lam * D
    dMV = params.lam * (Vp - D / m) if regime == REGIME_ZERO else None
    phi = indicator(params, nodes, Vp, deficit(params, nodes, Vp, MV))
    xs_all.append(nodes)
    cols["V"].append(V)
    cols["Vp"].append(Vp)
    cols["Vpp"].append(curvature(regime, params, nodes, Vp, MV, dMV))
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

    For exponential claims with mean m, an end in the interior regime, or in
    ZERO at x_max, is in the interest-only far field (Sundt & Teugels 1995):
    V' ~ C x^k e^(-x/m), k = lambda/r - 1, and since ln(t/x) <= t/x - 1 the
    mass is at most V'_end / (1/m - k/x_end), open while x_end <= k m (k >= 0).
    Else a march that ran V' down to a floor ("derivative-floor",
    "deficit-zero", V'_end <= 10 VP_FLOOR) is bounded by V'_end, and any
    other end at x_max (a terminal A or B, a general-claims end) is open.
    """
    x_end, v_end = float(x[-1]), float(Vp[-1])
    at_cap = completion == "reached-x-max"
    if completion == "cancellation-floor" or (m is not None and at_cap and (
            terminal_regime == REGIME_INTERIOR
            or (terminal_regime == REGIME_ZERO and v_end > 10.0 * VP_FLOOR))):
        rate = 1.0 / m - max(params.lam / params.r - 1.0, 0.0) / x_end
        bound = v_end / rate if rate > 0 else None
    elif not at_cap or v_end <= 10.0 * VP_FLOOR:
        bound = v_end
    else:
        bound = None
    return V_end, {"terminal_regime": terminal_regime, "completion": completion,
                   "mode": "open" if bound is None else "converged", "tail_mass_bound": bound}
