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
regimes where phi leaves the regime's band (`operators.indicator_bands`).  The march owns its Dormand-Prince 5(4) step loop: scipy's RK45
only validates the tolerances and picks the first step, and the loop copies
scipy 1.17's step control (the oracle tests against solve_ivp catch a
drifted scipy).  It evaluates all of a regime's events in one fused function
per step, localises a crossing on the step's interpolant, and evaluates the
output nodes in blocks of steps, bit-identical to scipy's solve_ivp.

When mu = r the drift is theta-free and there is no interior regime: the
largest-|theta| endpoint is optimal while V'' > 0 and theta = 0 (ZERO) while
V'' < 0.  One march serves both cases; each regime's row of the event table
says where its segment ends and which regime follows.

Internally the integrated state is (V, V', V-J): the deficit V-J decays to
zero while V and J separately approach V(inf), and differencing them at the
far tail would lose all significant digits exactly where the indicator is
needed.  The public J-based contracts are unaffected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import integrate
from scipy.integrate import RK45
from scipy.optimize import OptimizeResult, brentq

from .curve import (REGIME_INTERIOR, REGIME_LONG, REGIME_SHORT, REGIME_ZERO,
                    RegimeSegment, SolutionCurve)
from .model import ExponentialClaims, ModelParams, regime_constants, require_valid
from .operators import (curvature, curvature_fn, deficit, indicator, indicator_bands,
                        regime_for_indicator, regime_fraction, start_regime, theta_for,
                        vertex_exclusion)
from .series import SeriesExpansion, handoff_point, series_coefficients, series_eval

__all__ = [
    "SolveOptions",
    "SolverAbort",
    "solve",
    "extrapolate_tail",
    "third_order_check",
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
    # caps the output spacing at (x_max - x_eps) / output_nodes; every solver
    # step is a node as well, so a curve has more rows than this
    output_nodes: int = 900

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
    evaluation per call.  A switch event names the regime that follows, or
    None when the case table picks it just across the crossed indicator
    threshold (mu != r).  The events in _COMPLETIONS end the march, those in
    _ABORTS fail it.
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

    # phi leaves the regime's band down through lo or up through hi; a bound
    # of the interior band is the interior bound, the other the extreme bound
    bands = indicator_bands(params)
    lo, hi = bands[regime]
    levels = [level for level in (lo, hi) if level is not None]
    rows = [("indicator-interior-bound" if level in bands[REGIME_INTERIOR]
             else "indicator-extreme-bound", down if level == lo else up, None)
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


# scipy's RK45 tableau (Dormand & Prince 5(4)) and scipy 1.17's step control
_A = [RK45.A[s, :s] for s in range(1, RK45.n_stages)]
_C = RK45.C[1:].tolist()
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
_ERR_EXPONENT = -1 / (RK45.error_estimator_order + 1)
_BLOCK = 1024  # accepted steps per dense-output block


def _rk45_march(fun, t_span, y0, events, directions, **options):
    """solve_ivp(fun, t_span, y0, "RK45", dense_output=True) with terminal events.

    Returns solve_ivp's t, y, sol, t_events, nfev and status bit for bit, its
    message on failure, and `rejected`, the rejected step attempts.  scipy's
    RK45 only validates the options and picks the first step; the steps copy
    scipy 1.17's RungeKutta._step_impl and rk_step, same numpy calls on the
    same shapes (the test_rk45_march_* oracles catch a drifted scipy).
    `events(t, y)` gives all event values at once, `directions[i]` is +1
    (rising) or -1 (falling).  A sign change counts as in solve_ivp (a zero at
    either end counts); brentq roots each fired event on the step's
    interpolant, and the earliest root ends the march.
    """
    t0, tf = map(float, t_span)
    init = RK45(fun, t0, y0, tf, **options)
    rtol, atol, max_step, nfev = init.rtol, init.atol, init.max_step, init.nfev
    direction, h_abs, t, y = float(init.direction), init.h_abs, t0, init.y
    K = np.empty((RK45.n_stages + 1, y.size))
    K[0] = init.f
    KT = [K[:s].T for s in range(1, RK45.n_stages + 2)]
    steps = _DenseSteps(y.size)
    t_events = [[] for _ in directions]
    g = events(t, y)
    status, rejected = None, 0
    while status is None:
        min_step = 10 * abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        step_rejected = False
        while h_abs >= min_step:
            t_new = t + h_abs * direction
            if direction * (t_new - tf) > 0:
                t_new = tf
            h = t_new - t
            h_abs = abs(h)
            for s, (a, c) in enumerate(zip(_A, _C)):
                K[s + 1] = fun(t + c * h, y + np.dot(KT[s], a) * h)
            y_new = y + h * np.dot(KT[-2], RK45.B)
            K[-1] = fun(t + h, y_new)
            nfev += RK45.n_stages
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = np.dot(KT[-1], RK45.E) * h / scale
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
        status = 0 if direction * (t - tf) >= 0 else None
        g_new = events(t, y)
        fired = [i for i, d in enumerate(directions)
                 if (g[i] <= 0 <= g_new[i] if d > 0 else g[i] >= 0 >= g_new[i])]
        if fired:
            Q = KT[-1].dot(RK45.P)

            def sol(s):  # RkDenseOutput of this step at a scalar s
                return h * np.dot(Q, np.cumprod(np.tile((s - t_old) / h, 4))) + y_old
            roots = [brentq(lambda s, i=i: events(s, sol(s))[i], t_old, t,
                            xtol=4 * _EPS, rtol=4 * _EPS) for i in fired]
            k = roots.index(min(roots))
            t, y, status = roots[k], sol(roots[k]), 1
            t_events[fired[k]].append(t)
        g = g_new
        if t == t_old and steps.n:  # a root on the previous step's end
            y = y_old
        else:
            steps.add(t_old, h, y_old, K)
        K[0] = K[-1]
    steps.finish(t, y)
    return OptimizeResult(t=steps.t, y=steps.y.T, sol=steps, nfev=nfev, rejected=rejected,
                          t_events=[np.asarray(te) for te in t_events],
                          status=status, success=status >= 0,
                          message=RK45.TOO_SMALL_STEP if status == -1 else None)


class _DenseSteps:
    """scipy's OdeSolution over a march's accepted steps, kept in blocks.

    Step i starts at t[i] from y[i] and spans h[i]; its interpolant is
    RkDenseOutput's h Q p + y[i], p the powers of (t - t[i])/h[i], Q = K^T P.
    A block of _BLOCK steps gets its Q from one stacked matmul, and is
    evaluated by one matmul per group of steps holding equally many points (a
    stacked matmul gives np.dot(Q, p)'s bits only for p of the same shape).
    """

    def __init__(self, n):
        self.n, self._rows, self._Q = 0, [], []
        self._K = np.empty((_BLOCK, RK45.n_stages + 1, n))

    def add(self, t_old, h, y_old, K):
        i = self.n % _BLOCK
        if i == 0:
            self._rows.append(np.empty((_BLOCK, 2 + y_old.size)))  # t_old, h, y_old
        row = self._rows[-1][i]
        row[0], row[1], row[2:] = t_old, h, y_old
        self._K[i] = K
        self.n += 1
        if i == _BLOCK - 1:
            self._Q.append(np.matmul(self._K.transpose(0, 2, 1), RK45.P))

    def finish(self, t_end, y_end):
        """Close the last block; t and y gain the march's end point."""
        if self.n % _BLOCK:
            self._Q.append(np.matmul(self._K[:self.n % _BLOCK].transpose(0, 2, 1), RK45.P))
        rows = np.concatenate([np.empty((0, 2 + y_end.size)), *self._rows])[:self.n]
        del self._K, self._rows
        self.t, self.h = np.append(rows[:, 0], t_end), rows[:, 1]
        self.y = np.vstack([rows[:, 2:], y_end])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return self(t[None])[:, 0]
        order = np.argsort(t)
        t = t[order]
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
                out[:, order[idx]] = y.transpose(1, 0, 2)
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
    x_eps = handoff_point(exp, params, m)
    V0, Vp0, _, J0 = series_eval(exp, x_eps, params, m)
    return exp, regime0, x_eps, np.array([V0, Vp0, V0 - J0])


def solve(params: ModelParams, m: float, options: Optional[SolveOptions] = None) -> SolutionCurve:
    """Solve the HJB equation for exponential claims with mean m.

    Returns the normalised solution (V(0) = 1) with its regime segmentation;
    survival probabilities are V(x)/V_inf.  The march ends (meta "completion")
    at x_max ("reached-x-max"), where V' reaches VP_FLOOR ("derivative-floor"),
    or, in the interior regime, where V' falls to the cancellation level
    1e-9 lambda/c ("cancellation-floor"): below it the deficit
    I = lambda(V-J) - (c+rx)V' that sets V'' and theta* has lost its digits.
    Raises SolverAbort when x_max does not lie beyond the series handoff
    point x_eps, on event oscillation (more than MAX_SWITCHES regime
    changes), loss of monotonicity, I reaching zero above the cancellation
    level, or an indicator falling below the vertex-exclusion cutoff.
    """
    opts = options or SolveOptions()
    require_valid(params, ExponentialClaims(m))
    x_max = opts.resolved_x_max(params)
    exp, regime, x_eps, y = _start(params, m)
    if x_max <= x_eps:
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

        ev_name, direction, target = "reached-x-max", None, None
        if sol.status == 1:
            i0 = next(i for i, te in enumerate(sol.t_events) if len(te))
            ev_name, direction, target = rows[i0]
        switch = sol.status == 1 and ev_name not in _COMPLETIONS + _ABORTS
        nodes = _segment_nodes(sol.t, x, sol.t[-1], out_dx, hug_lo=n_switch > 0, hug_hi=switch)
        states = sol.sol(nodes)
        if regime == REGIME_ZERO:
            states[1] = _zero_vp(params, nodes, states)
        if np.any(states[1] <= 0):
            raise SolverAbort(f"V' lost positivity in regime {regime} near x={sol.t[-1]}",
                              {"x": nodes[states[1] <= 0][0]})
        _append_segment(nodes, states, regime, params, m, xs_all, cols)

        if sol.status == 1:
            x_end = float(sol.t_events[i0][0])
            y = sol.sol(x_end)
        else:
            x_end = sol.t[-1]
            y = sol.y[:, -1]
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

        phi_here = indicator(params, x, y[1], deficit(params, x, y[1], params.lam * y[2]))
        if target is None:
            # re-enter by the case table just across the crossed threshold
            nudge = direction * 1e-9 * (1.0 + abs(phi_here))
            target = regime_for_indicator(phi_here + nudge, params)
        events_log.append({"x": x, "kind": ev_name, "from": regime, "to": target})
        if target == regime:
            raise SolverAbort(f"event {ev_name} at x={x:.6g} did not change the regime",
                              {"x": x, "phi": phi_here})
        regime = target
        n_switch += 1
        if n_switch > MAX_SWITCHES:
            raise SolverAbort(f"regime oscillation: more than {MAX_SWITCHES} switches",
                              {"switches": [(e["x"], e["kind"]) for e in events_log]})

    return _assemble(params, m, exp, x_eps, xs_all, cols, segments, events_log, march,
                     completion, opts)


def _segment_nodes(t, lo, hi, out_dx, hug_lo=False, hug_hi=False):
    """Solver steps t refined so that output spacing stays below out_dx.

    A few nodes hug an endpoint that is a regime switch, so one-sided
    difference quotients there read the integrator's dense output rather than
    interpolation between widely spaced nodes.
    """
    t = t[(t >= lo) & (t <= hi)]
    if t[0] != lo:
        t = np.concatenate([[lo], t])
    if t[-1] != hi:
        t = np.concatenate([t, [hi]])
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


def _series_prefix(params, m, exp: SeriesExpansion, x_eps, regime0):
    """Rows on [0, x_eps) from the series, including the x = 0 limits.

    A ZERO start has the x = 0 row only.
    """
    xs = np.array([0.0])
    if regime0 != REGIME_ZERO:
        xs = np.concatenate([xs, np.geomspace(x_eps / 64.0, x_eps, 16)[:-1]])
    D1 = params.lam / params.c
    rows = [(1.0, D1, D1 * exp.D[2], 0.0)] + [series_eval(exp, x, params, m) for x in xs[1:]]
    V, Vp, Vpp, J = np.array(rows).T
    phi = np.empty_like(xs)
    phi[0] = 2.0 * exp.gamma if params.mu != params.r else math.nan
    x1, Vp1 = xs[1:], Vp[1:]
    phi[1:] = indicator(params, x1, Vp1, deficit(params, x1, Vp1, params.lam * (V[1:] - J[1:])))
    return xs, {"V": V, "Vp": Vp, "Vpp": Vpp, "J": J, "phi": phi,
                "theta": theta_for(regime0, params, phi),
                "regime": np.full(xs.shape, regime0, dtype=object)}


def _assemble(params, m, exp, x_eps, xs_all, cols, segments, events_log, march, completion,
              opts):
    xs0, rows0 = _series_prefix(params, m, exp, x_eps, segments[0].regime)
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
# tail extrapolation and the third-order cross-check
# ---------------------------------------------------------------------------

def extrapolate_tail(x, Vp, V_end, terminal_regime, params: ModelParams,
                     completion: str = "reached-x-max", m: Optional[float] = None):
    """(V_inf, diagnostics) from the far-field decay of V'.

    On a terminal constant regime V' ~ d x^(-q) with q = 2 mu_bar/sigma_bar^2
    of that regime; d is fitted over the last decade of nodes and the tail
    integral d X_max^(1-q)/(q-1) is added.  A terminal no-investment segment,
    or an interior one of general claims, uses the maximal-long constants for
    q.  When the march already ran V' down to a floor the tail is below every
    tolerance, V_inf = V(X_max) and "tail_mass_bound" bounds the mass left out.

    For exponential claims with mean m a terminal interior segment (stopped at
    the cancellation floor or at x_max) is in the interest-only far field:
    the investment term dies out and V' ~ C x^k e^(-x/m) with k = lambda/r - 1.
    Since ln(t/x) <= t/x - 1, for k >= 0 that tail integrates to at most
    V'_end m / (1 - k m / x_end).  V_inf = V(x_end) and that bound is reported
    (mode "open" with an infinite bound if x_end <= k m, where the form does
    not yet decay).
    """
    x = np.asarray(x)
    Vp = np.asarray(Vp)
    x_end = float(x[-1])
    v_end = float(Vp[-1])
    tail: dict = {"terminal_regime": terminal_regime, "completion": completion}
    if completion == "cancellation-floor" or (
            m is not None and terminal_regime == REGIME_INTERIOR and completion == "reached-x-max"):
        rate = 1.0 / m - max(params.lam / params.r - 1.0, 0.0) / x_end
        if rate > 0:
            tail.update({"mode": "converged", "tail_mass_bound": v_end / rate})
        else:
            tail.update({"mode": "open", "tail_mass_bound": math.inf})
        return V_end, tail
    if completion != "reached-x-max" or v_end <= 10.0 * VP_FLOOR:
        tail.update({"mode": "converged", "tail_mass_bound": v_end})
        return V_end, tail

    rc = regime_constants(params, regime_fraction(
        params, REGIME_SHORT if terminal_regime == REGIME_SHORT else REGIME_LONG))
    q = 2.0 * rc.mu_bar / rc.sigma_bar**2
    tail["q"] = q
    if q <= 1.0:
        tail.update({"mode": "q-below-one",
                     "warning": "tail exponent <= 1; enlarge x_max or check the regime"})
        return V_end, tail

    seg_lo = max(x_end / 10.0, x[0])
    mask = x >= seg_lo
    d = float(np.median(Vp[mask] * x[mask] ** q))
    add = d * x_end ** (1.0 - q) / (q - 1.0)
    tail.update({"mode": "power-law", "d": d, "tail_add": add})
    return V_end + add, tail


def third_order_check(curve: SolutionCurve, segment: RegimeSegment,
                      params: ModelParams, m: float) -> float:
    """Max relative deviation of (V, V') from the third-order linear ODE.

    The constant-regime equation reduces (for exponential claims) to

        x^2 V''' + [x^2/m + 2(1 + mu_bar/sigma_bar^2) x + 2c/sigma_bar^2] V''
                 + 2 [mu_bar x/(m sigma_bar^2)
                      + (mu_bar - lambda + c/m)/sigma_bar^2] V' = 0,

    an independent route to the same solution; integrating it from the
    segment's left endpoint must reproduce the curve.
    """
    if segment.regime not in (REGIME_LONG, REGIME_SHORT):
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
    sol = integrate.solve_ivp(rhs, (xs[0], xs[-1]), y0, method="RK45", rtol=1e-12,
                              atol=1e-14, t_eval=xs, max_step=0.5)
    if not sol.success:
        raise SolverAbort(f"third-order cross-check integration failed: {sol.message}")
    relV = np.max(np.abs(sol.y[0] - curve.V[inside]) / np.abs(curve.V[inside]))
    relVp = np.max(np.abs(sol.y[1] - curve.Vp[inside]) / np.abs(curve.Vp[inside]))
    return float(max(relV, relVp))
