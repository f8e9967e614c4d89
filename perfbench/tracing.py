"""In-memory spans and work counters recorded around calls into ruinvest.

Nothing here edits the package: public names are wrapped at their module (or
class) attribute for the duration of a traced run and restored afterwards.
A name that no longer exists is reported as unmeasured instead of failing the
run.  Spans are kept in memory (name, start, end, parent, op) and written out
once, when the run ends.
"""
from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

class Tracer:
    """Span stack plus named counters, both tagged with the current op id."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op]
        self.counters = defaultdict(lambda: defaultdict(float))  # op -> name -> value
        self.minima = defaultdict(dict)                         # op -> name -> min
        self.unmeasured = []
        self.policies = []       # (op, CountingPolicy) in creation order
        self.op = None
        self._stack = []
        self._restore = []

    # -- recording ----------------------------------------------------------

    def count(self, name, value=1.0):
        self.counters[self.op][name] += value

    def record_min(self, name, value):
        cur = self.minima[self.op].get(name)
        if cur is None or value < cur:
            self.minima[self.op][name] = value

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr, span, after=None, replace=None):
        """Route owner.attr through a span; `after(result, args, kwargs)` counts.

        `replace(orig)` may instead supply the whole substitute callable.
        """
        raw = getattr(owner, "__dict__", {}).get(attr) if isinstance(owner, type) else None
        orig = getattr(owner, attr, None)
        if orig is None:
            self.unmeasured.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        fn = raw.__func__ if isinstance(raw, classmethod) else orig
        if replace is not None:
            new = replace(fn)
        else:
            @functools.wraps(fn)
            def new(*args, **kwargs):
                result = self.call(span, fn, *args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
        setattr(owner, attr, classmethod(new) if isinstance(raw, classmethod) else new)
        self._restore.append((owner, attr, raw if raw is not None else orig))

    def unwrap_all(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- reduction ----------------------------------------------------------

    def flush_policies(self):
        """Move the engine counts held by CountingPolicy objects into counters."""
        for op, pol in self.policies:
            ctr = self.counters[op]
            ctr["simulator.iterations"] += pol.iterations
            ctr["simulator.path_steps"] += pol.path_steps
            ctr["simulator.long_steps"] += pol.long_steps
            ctr["simulator.short_steps"] += pol.short_steps
            ctr["simulator.int_steps"] += pol.path_steps - pol.long_steps - pol.short_steps
        self.policies.clear()

    def self_times(self):
        """(name, op, total, self) per span; self = total minus child spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [(s[0], s[4], s[2] - s[1], s[2] - s[1] - child[i])
                for i, s in enumerate(self.spans)]

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "unmeasured": self.unmeasured}, fh)


class CountingPolicy:
    """Delegating policy: theta/fingerprint/label forward unchanged.

    Each theta call is one engine iteration; its argument holds one surplus
    per alive path, i.e. one path-step each.  Counts stay on the object (plain
    int adds keep the per-iteration cost low) until Tracer.flush_policies.
    """

    def __init__(self, inner, tracer, a, b):
        self._inner = inner
        self._a, self._minus_b = a, -b
        self.label = inner.label
        self.iterations = self.path_steps = self.long_steps = self.short_steps = 0
        tracer.policies.append((tracer.op, self))

    def theta(self, x):
        th = self._inner.theta(x)
        self.iterations += 1
        self.path_steps += th.size
        self.long_steps += int(np.count_nonzero(th == self._a))
        self.short_steps += int(np.count_nonzero(th == self._minus_b))
        return th

    def fingerprint(self):
        return self._inner.fingerprint()


def counting_pdf(pdf, tracer):
    """User density wrapped to count calls and evaluated points."""
    def f(s):
        tracer.count("general_solver.pdf_calls")
        tracer.count("general_solver.pdf_points", np.size(s))
        return pdf(s)
    return f


def instrument(tracer, ruinvest):
    """Wrap the package's layer entry points; returns nothing, see unwrap_all."""
    cli, exp_solver, general_solver = ruinvest.cli, ruinvest.exp_solver, ruinvest.general_solver
    model, curve_mod = ruinvest.model, ruinvest.curve
    t = tracer

    # model / cli --------------------------------------------------------
    t.wrap(model, "validate", "model.validate")
    t.wrap(cli, "validate", "model.validate")
    t.wrap(cli, "parse_config", "cli.parse")
    t.wrap(cli, "build_model", "cli.parse")

    # exponential fast path -----------------------------------------------
    def after_solve(curve, args, kwargs):
        t.count("exp_solver.solves")
        t.count("exp_solver.nodes", len(curve.x))
        opts = args[2] if len(args) > 2 else kwargs.get("options")
        target = opts.output_nodes if opts is not None else exp_solver.SolveOptions().output_nodes
        t.count("exp_solver.nodes_per_target_sum", len(curve.x) / target)
        t.count("exp_solver.tail_open", curve.meta.get("tail", {}).get("mode") == "q-below-one")

    # one wrapper serves both names: cli imported `solve` by name
    orig_solve = getattr(exp_solver, "solve", None)
    t.wrap(exp_solver, "solve", "exp_solver.solve", after=after_solve)
    if orig_solve is not None and getattr(cli, "solve", None) is orig_solve:
        t.wrap(cli, "solve", None, replace=lambda fn: exp_solver.solve)

    def after_ivp(sol, args, kwargs):
        t.count("exp_solver.march_steps", len(sol.t) - 1)
        t.count("exp_solver.rhs_evals", sol.nfev)
        t.count("exp_solver.segments")
        t.count("exp_solver.events", int(sol.status == 1))

    t.wrap(exp_solver, "solve_ivp", "exp_solver.march", after=after_ivp)
    t.wrap(exp_solver, "series_coefficients", "series")
    t.wrap(exp_solver, "handoff_point", "series",
           after=lambda x_eps, a, k: t.record_min("series.x_eps_min", float(x_eps)))
    t.wrap(exp_solver, "extrapolate_tail", "exp_solver.tail")

    # curve artifact I/O ---------------------------------------------------
    def after_write(result, args, kwargs):
        t.count("curve.bytes_written", os.path.getsize(args[1]))

    t.wrap(curve_mod.SolutionCurve, "to_csv", "curve.write", after=after_write)
    t.wrap(curve_mod.SolutionCurve, "to_json", "curve.write", after=after_write)
    t.wrap(curve_mod.SolutionCurve, "from_csv", "curve.read")

    # general-claims continuation ----------------------------------------
    t.wrap(general_solver, "general_solve", "general_solver.solve")
    t.wrap(general_solver, "solve_constant_regime_near_zero", "general_solver.near_zero")
    t.wrap(general_solver, "integrate_w", "general_solver.continuation",
           after=lambda march, a, k: t.count("general_solver.nodes", len(march.x)))
    t.wrap(general_solver, "assemble_solution", "general_solver.assembly")

    # Monte Carlo engine (its time comes from workloads.OpClock) ------------
    def counting_factory(cls):
        def make(*args, **kwargs):
            params = args[1] if len(args) > 1 else kwargs["params"]
            return CountingPolicy(cls(*args, **kwargs), t, params.a, params.b)
        return make

    t.wrap(cli, "FeedbackPolicy", None, replace=counting_factory)
