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
(maximal long when mu > r, maximal short when mu < r), tracks the policy
indicator phi, and switches regimes where phi crosses the case-table
thresholds; crossings are localised by the integrator's event machinery.
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
from scipy.integrate import solve_ivp

from .curve import (REGIME_INTERIOR, REGIME_LONG, REGIME_SHORT, REGIME_ZERO,
                    RegimeSegment, SolutionCurve)
from .model import ExponentialClaims, ModelParams, regime_constants, require_valid
from .operators import (curvature, deficit, indicator, regime_for_indicator,
                        switching_thresholds, theta_for, vertex_exclusion)
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
            vp = _zero_vp(params, x, y)
            return (vp, 0.0, vp - y[2] / m)
        return f

    def f(x, y):
        V, Vp, D = y
        return (Vp, curvature(regime, params, x, Vp, lam * D), Vp - D / m)
    return f


def _event(g, direction, name, target=None):
    g.terminal = True
    g.direction = direction
    return name, g, target


def _segment_events(regime: str, params: ModelParams, m: float):
    """(name, func, target) triples ending the given regime's segment.

    A switch event names the regime that follows, or None when the case table
    picks it just across the crossed indicator threshold (mu != r).  The
    events in _COMPLETIONS end the march, those in _ABORTS fail it.
    """
    lam = params.lam
    up, down = 1, -1
    evs = []

    if params.mu == params.r:
        if regime == REGIME_ZERO:
            big = REGIME_LONG if params.a >= params.b else REGIME_SHORT

            def g_convex(x, y):
                vp = _zero_vp(params, x, y)
                return curvature(REGIME_ZERO, params, x, vp, lam * y[2], lam * (vp - y[2] / m))
            evs.append(_event(g_convex, up, "curvature-positive", big))
        else:
            def g_concave(x, y):
                return deficit(params, x, y[1], lam * y[2])
            evs.append(_event(g_concave, down, "curvature-negative", REGIME_ZERO))
    else:
        thr = switching_thresholds(params)

        def ind_event(level, direction, name):
            def g(x, y):
                return indicator(params, x, y[1], deficit(params, x, y[1], lam * y[2])) - level
            return _event(g, direction, name)

        if params.mu > params.r:
            if regime == REGIME_LONG:
                evs.append(ind_event(thr.interior_bound, down, "indicator-interior-bound"))
                if thr.extreme_bound is not None:
                    evs.append(ind_event(thr.extreme_bound, up, "indicator-extreme-bound"))
            elif regime == REGIME_SHORT:
                evs.append(ind_event(thr.extreme_bound, down, "indicator-extreme-bound"))
            else:  # interior
                evs.append(ind_event(thr.interior_bound, up, "indicator-interior-bound"))
        else:
            if regime == REGIME_SHORT:
                evs.append(ind_event(thr.interior_bound, up, "indicator-interior-bound"))
                if thr.extreme_bound is not None:
                    evs.append(ind_event(thr.extreme_bound, down, "indicator-extreme-bound"))
            elif regime == REGIME_LONG:
                evs.append(ind_event(thr.extreme_bound, up, "indicator-extreme-bound"))
            else:
                evs.append(ind_event(thr.interior_bound, down, "indicator-interior-bound"))

    if regime == REGIME_INTERIOR:
        scale = _completion_scale(params)

        def g_noise(x, y):
            return y[1] - scale
        evs.append(_event(g_noise, down, "cancellation-floor"))

        def g_I(x, y):
            return deficit(params, x, y[1], lam * y[2])
        evs.append(_event(g_I, down, "deficit-zero"))

        A = vertex_exclusion(params)

        def g_A(x, y):
            return abs(indicator(params, x, y[1], deficit(params, x, y[1], lam * y[2]))) - A
        evs.append(_event(g_A, down, "indicator-below-exclusion"))

    if regime == REGIME_ZERO:
        def g_floor(x, y):
            return _zero_vp(params, x, y) - VP_FLOOR
    else:
        def g_floor(x, y):
            return y[1] - VP_FLOOR
    evs.append(_event(g_floor, down, "derivative-floor"))
    return evs


def _completion_scale(params: ModelParams) -> float:
    # derivative level below which the interior deficit I = lambda(V-J) - (c+rx)V',
    # about 1e-3 of its terms in the far field, is cancellation noise; the
    # interior march ends here
    return 1e-9 * params.lam / params.c


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
    if params.mu != params.r:
        gamma0 = params.a if params.mu > params.r else -params.b
    else:
        gamma0 = params.a if params.a >= params.b else -params.b
    exp = series_coefficients(params, m, gamma0, K=SERIES_TERMS)
    if params.mu == params.r and exp.D[2] <= 0:
        return exp, REGIME_ZERO, 1e-8, np.array([1.0, params.lam / params.c, 1.0])
    x_eps = handoff_point(exp, params, m)
    V0, Vp0, _, J0 = series_eval(exp, x_eps, params, m)
    regime0 = REGIME_LONG if gamma0 > 0 else REGIME_SHORT
    return exp, regime0, x_eps, np.array([V0, Vp0, V0 - J0])


def solve(params: ModelParams, m: float, options: Optional[SolveOptions] = None) -> SolutionCurve:
    """Solve the HJB equation for exponential claims with mean m.

    Returns the normalised solution (V(0) = 1) with its regime segmentation;
    survival probabilities are V(x)/V_inf.  The march ends (meta "completion")
    at x_max ("reached-x-max"), where V' reaches VP_FLOOR ("derivative-floor"),
    or, in the interior regime, where V' falls to the cancellation level
    1e-9 lambda/c ("cancellation-floor"): below it the deficit
    I = lambda(V-J) - (c+rx)V' that sets V'' and theta* has lost its digits.
    Raises SolverAbort on event oscillation (more than MAX_SWITCHES regime
    changes), loss of monotonicity, I reaching zero above the cancellation
    level, or an indicator falling below the vertex-exclusion cutoff.
    """
    opts = options or SolveOptions()
    require_valid(params, ExponentialClaims(m))
    x_max = opts.resolved_x_max(params)
    exp, regime, x_eps, y = _start(params, m)

    x = x_eps
    segments: list[RegimeSegment] = []
    events_log: list[dict] = []
    xs_all: list[np.ndarray] = []
    cols: dict[str, list[np.ndarray]] = {k: [] for k in _COLUMNS}
    out_dx = (x_max - x_eps) / opts.output_nodes

    n_switch = 0
    completion = "reached-x-max"
    while True:
        if regime == REGIME_INTERIOR and y[1] <= _completion_scale(params):
            completion = "cancellation-floor"
            break
        events = _segment_events(regime, params, m)
        sol = solve_ivp(_rhs_for(regime, params, m), (x, x_max), y, method="RK45",
                        rtol=opts.rtol, atol=[opts.atol, opts.atol * 1e-2, opts.atol * 1e-2],
                        events=[g for _, g, _ in events], dense_output=True,
                        max_step=MAX_STEP)
        if sol.status == -1:
            raise SolverAbort(f"integration failed in regime {regime} at x={sol.t[-1]}: {sol.message}",
                              {"x": sol.t[-1], "y": sol.y[:, -1]})

        ev_name, g, target = "reached-x-max", None, None
        if sol.status == 1:
            fired = [i for i, te in enumerate(sol.t_events) if len(te)]
            i0 = min(fired, key=lambda i: sol.t_events[i][0])
            ev_name, g, target = events[i0]
        switch = sol.status == 1 and ev_name not in _COMPLETIONS + _ABORTS
        nodes = _segment_nodes(sol, x, sol.t[-1], out_dx, hug_lo=n_switch > 0, hug_hi=switch)
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
            nudge = g.direction * 1e-9 * (1.0 + abs(phi_here))
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

    return _assemble(params, m, exp, x_eps, xs_all, cols, segments, events_log,
                     completion, opts)


def _segment_nodes(sol, lo, hi, out_dx, hug_lo=False, hug_hi=False):
    """Solver steps refined so that output spacing stays below out_dx.

    A few nodes hug an endpoint that is a regime switch, so one-sided
    difference quotients there read the integrator's dense output rather than
    interpolation between widely spaced nodes.
    """
    t = sol.t[(sol.t >= lo) & (sol.t <= hi)]
    if t[0] != lo:
        t = np.concatenate([[lo], t])
    if t[-1] != hi:
        t = np.concatenate([t, [hi]])
    out = [t[:1]]
    for i in range(len(t) - 1):
        gap = t[i + 1] - t[i]
        if gap > out_dx:
            extra = np.linspace(t[i], t[i + 1], int(np.ceil(gap / out_dx)) + 1)[1:]
            out.append(extra)
        else:
            out.append(t[i + 1:i + 2])
    nodes = np.concatenate(out)
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


def _assemble(params, m, exp, x_eps, xs_all, cols, segments, events_log, completion, opts):
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

    gamma = -params.b if terminal_regime == REGIME_SHORT else params.a
    rc = regime_constants(params, gamma)
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
    gamma = params.a if segment.regime == REGIME_LONG else -params.b
    rc = regime_constants(params, gamma)
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
    sol = solve_ivp(rhs, (xs[0], xs[-1]), y0, method="RK45", rtol=1e-12, atol=1e-14,
                    t_eval=xs, max_step=0.5)
    if not sol.success:
        raise SolverAbort(f"third-order cross-check integration failed: {sol.message}")
    relV = np.max(np.abs(sol.y[0] - curve.V[inside]) / np.abs(curve.V[inside]))
    relVp = np.max(np.abs(sol.y[1] - curve.Vp[inside]) / np.abs(curve.Vp[inside]))
    return float(max(relV, relVp))
