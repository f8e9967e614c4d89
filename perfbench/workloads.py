"""The three workloads: seeded inputs, timed units, and the output checks.

A workload is a cycle of units, each one user-visible command: `ruinvest solve`
(+ the curve read of `ruinvest policy`) of one sweep config, `general_solve`
of one (law, x_max), one `ruinvest verify` on example 1.  An op is what a
latency is taken for: one config solve, one (law, x_max) solve, one x0
estimate.  Each unit returns its timed interval (perf_counter at start and
end), its ops and an output digest; checks run after its clock stops.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import math
import os
import time

import numpy as np

from tracing import counting_pdf

# Example configs shipped with the package (configs/example{1,2,3}.cfg)
EXAMPLES = {
    "example1": dict(c=0.02, lam=0.09, mu=0.02, r=0.015, sigma=0.1, a=1.0, b=20.0),
    "example2": dict(c=0.02, lam=0.09, mu=0.02, r=0.025, sigma=0.1, a=20.0, b=1.0),
    "example3": dict(c=0.02, lam=0.09, mu=0.01, r=0.015, sigma=0.1, a=1.0, b=20.0),
}
EXAMPLE1_SWITCHES = (0.021941989, 3.207494533, 4.131445767)

# Sweep anchors: exponential claims (mean 1), admissible, drawn from the box
# c 0.01-0.05, lambda 0.05-0.15, r 0.005-0.03, |mu - r| 0.002-0.02,
# sigma 0.08-0.3, the smaller of a, b 0.5-2 and the larger 5-25.  Together
# they cover both signs of mu - r, a < b and a > b, and both convex-start
# outcomes; six of the twelve (with the three examples, 6 of 15 solves, 40%)
# end in tail mode `q-below-one`, the open-tail branch.  Single-solve cost
# spans 50-140x (0.05 s to 6.5 s on a 2-vCPU x86-64 host).  The tag reads
# sign(mu - r), a vs b, convex start, tail mode.  On some seeds a jittered
# closed-tail config ends with Vpp = -inf at its deficit-zero node (seeds
# 302 and 307: neg-altb-convex-closed, neg-altb-concave-closed); that counts
# as a failed op.
ANCHORS = (
    ("pos-agtb-concave-open", dict(c=0.01209, lam=0.1286, r=0.009018, mu=0.01666,
                                   sigma=0.1075, a=17.3, b=1.602)),
    ("pos-agtb-convex-open", dict(c=0.01548, lam=0.1237, r=0.02565, mu=0.0298,
                                  sigma=0.1537, a=17.62, b=1.883)),
    ("pos-altb-convex-open", dict(c=0.01551, lam=0.1095, r=0.02674, mu=0.03099,
                                  sigma=0.2952, a=1.626, b=13.37)),
    ("neg-agtb-convex-open", dict(c=0.0161, lam=0.104, r=0.0143, mu=-0.003451,
                                  sigma=0.1403, a=23.81, b=1.58)),
    ("neg-altb-convex-open", dict(c=0.01588, lam=0.1077, r=0.006531, mu=-0.008769,
                                  sigma=0.1089, a=0.5106, b=5.8)),
    ("neg-altb-convex-open2", dict(c=0.01583, lam=0.0857, r=0.01608, mu=0.005032,
                                   sigma=0.2019, a=1.795, b=6.382)),
    ("pos-altb-concave-closed", dict(c=0.02251, lam=0.072, r=0.02145, mu=0.03821,
                                     sigma=0.08222, a=1.964, b=18.96)),
    ("pos-agtb-convex-closed", dict(c=0.04616, lam=0.107, r=0.008636, mu=0.0141,
                                    sigma=0.2841, a=8.611, b=1.328)),
    ("pos-agtb-concave-closed", dict(c=0.04652, lam=0.09735, r=0.02053, mu=0.0362,
                                     sigma=0.0998, a=8.529, b=0.9322)),
    ("neg-altb-convex-closed", dict(c=0.04255, lam=0.07914, r=0.01329, mu=0.008387,
                                    sigma=0.2019, a=1.053, b=6.947)),
    ("neg-altb-concave-closed", dict(c=0.04728, lam=0.05396, r=0.01632, mu=0.002961,
                                     sigma=0.2012, a=0.6112, b=16.86)),
    ("neg-agtb-concave-closed", dict(c=0.049, lam=0.05187, r=0.02044, mu=0.01829,
                                     sigma=0.09452, a=8.036, b=0.5729)),
)
# the workload seed scales every anchor parameter by a log-uniform factor
# within +-SWEEP_JITTER, keeping the sign of mu - r and the convex start
SWEEP_JITTER = 0.03

# CLI defaults (ruinvest.cli.main): --tol 1e-10, --xmax none, --threads 1
CLI_TOL = 1e-10
CLI_OPTIONS = {"xmax": None, "tol": CLI_TOL, "n_paths": 100_000,
               "oracle_mode": False, "threads": 1}

# a quarter of the simulator's 16,384-path chunk per x0, so that a run repeats
# the command about four times
VERIFY_PATHS = 4096


def cfg_text(p, note):
    return (f"# {note}\n"
            f"c = {p['c']!r}\nlambda = {p['lam']!r}\nmu = {p['mu']!r}\nr = {p['r']!r}\n"
            f"sigma = {p['sigma']!r}\na = {p['a']!r}\nb = {p['b']!r}\n"
            "claim.kind = exponential\nclaim.mean = 1.0\n")


def _convex(p, m=1.0):
    return m * (p["a"] * p["mu"] + (1.0 - p["a"]) * p["r"] - p["lam"]) + p["c"] < 0


def _jitter(rng, anchor):
    """Anchor scaled per parameter; redrawn until its convex start holds."""
    sign = 1.0 if anchor["mu"] > anchor["r"] else -1.0
    while True:
        f = {k: math.exp(rng.uniform(-SWEEP_JITTER, SWEEP_JITTER))
             for k in ("c", "lam", "r", "excess", "sigma", "a", "b")}
        r = anchor["r"] * f["r"]
        p = dict(c=anchor["c"] * f["c"], lam=anchor["lam"] * f["lam"], r=r,
                 mu=r + sign * abs(anchor["mu"] - anchor["r"]) * f["excess"],
                 sigma=anchor["sigma"] * f["sigma"], a=anchor["a"] * f["a"],
                 b=anchor["b"] * f["b"])
        if _convex(p) == _convex(anchor):
            return p


def sweep_configs(seed, smoke):
    """(name, params dict) for the three examples plus the jittered anchors."""
    rng = np.random.default_rng([seed, 101])
    return list(EXAMPLES.items()) + [(tag, _jitter(rng, anchor))
                                     for tag, anchor in (ANCHORS[:1] if smoke else ANCHORS)]


def curve_digest(curve):
    """Hash of every curve column and V_inf, bit for bit."""
    h = hashlib.sha256()
    for a in (curve.x, curve.V, curve.Vp, curve.Vpp, curve.J, curve.phi, curve.theta_star,
              [curve.V_inf]):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    h.update("|".join(map(str, curve.regime)).encode())
    return h.hexdigest()[:16]


def hjb_residual_ratio(p, curve, block=2048):
    """Worst generator residual over its tolerance 1e-6*lambda*V (<= 1 passes).

    The same sweep over 64 fractions as the acceptance test, done in blocks of
    nodes so the check adds little to the process's peak memory.
    """
    thetas = np.linspace(-p.b, p.a, 64)
    worst = 0.0
    for lo in range(0, len(curve.x), block):
        sl = slice(lo, lo + block)
        x, V, Vp, Vpp, J = curve.x[sl], curve.V[sl], curve.Vp[sl], curve.Vpp[sl], curve.J[sl]
        th_star = curve.theta_star[sl]
        MV = p.lam * (V - J)
        tol = 1e-6 * p.lam * V
        with np.errstate(invalid="ignore", over="ignore"):
            gen = (0.5 * p.sigma**2 * (x**2 * Vpp)[:, None] * thetas[None, :] ** 2
                   + ((p.c + p.r * x)[:, None] + (p.mu - p.r) * x[:, None] * thetas[None, :])
                   * Vp[:, None] - MV[:, None])
            sweep = np.max(gen, axis=1) / tol
            star = np.abs(0.5 * p.sigma**2 * x**2 * th_star**2 * Vpp
                          + (p.c + p.r * x + (p.mu - p.r) * th_star * x) * Vp - MV) / tol
        worst = max(worst, float(np.nanmax(np.maximum(sweep, star))))
    return worst


def curve_violations(curve, p):
    """Invariant breaks of a solved curve (empty list: the curve passes)."""
    bad = []
    cols = {"x": curve.x, "V": curve.V, "Vp": curve.Vp, "Vpp": curve.Vpp, "J": curve.J,
            "phi": curve.phi, "theta_star": curve.theta_star, "V_inf": [curve.V_inf]}
    for name, col in cols.items():
        col = np.asarray(col, dtype=float)
        if not np.all(np.isfinite(col)):
            i = int(np.nonzero(~np.isfinite(col))[0][0])
            bad.append(f"{name} not finite at node {i} (x={curve.x[min(i, len(curve.x) - 1)]:.6g}, "
                       f"value {col[i]})")
    if np.any(np.diff(curve.V) < 0):
        bad.append("V decreasing")
    if not np.all(curve.Vp > 0):
        bad.append("V' not positive")
    if np.any(curve.theta_star < -p.b) or np.any(curve.theta_star > p.a):
        bad.append("theta outside [-b, a]")
    return bad


class OpClock:
    """Op boundaries inside one CLI simulation command.

    Each x0 estimate ends with one `SimulationReport.add`; the first starts
    when the CLI enters `estimate_survival`.  The same hooks run with tracing
    on and off.
    """

    def __init__(self, ruinvest):
        self.records = []  # (policy label, x0, seconds, n, n_surv, n_cens, n_diff_ruin)
        self._t = None
        cli, sim = ruinvest.cli, ruinvest.simulator
        self._restore = [(cli, "estimate_survival", cli.estimate_survival),
                         (sim.SimulationReport, "add", sim.SimulationReport.add)]
        clock = self
        orig_estimate = cli.estimate_survival

        def start(*args, **kwargs):
            clock._t = time.perf_counter()
            return orig_estimate(*args, **kwargs)

        orig_add = sim.SimulationReport.add

        def add(report, x0, label, n, n_surv, n_cens, n_diff_ruin):
            now = time.perf_counter()
            clock.records.append((label, x0, now - clock._t, n, n_surv, n_cens, n_diff_ruin))
            clock._t = now
            return orig_add(report, x0, label, n, n_surv, n_cens, n_diff_ruin)

        cli.estimate_survival = start
        sim.SimulationReport.add = add

    def close(self):
        for owner, attr, orig in self._restore:
            setattr(owner, attr, orig)


def _z(diff, ci_half):
    """|diff| in units of the CI half-width (a zero-width CI only matches exactly)."""
    if ci_half > 0:
        return abs(diff) / ci_half
    return 0.0 if diff == 0 else math.inf


class Op:
    """One timed op: an abort (SolverAbort/ValueError) or broken checks fail it."""

    __slots__ = ("name", "seconds", "aborted", "violations")

    def __init__(self, name, seconds, aborted=None, violations=()):
        self.name, self.seconds, self.aborted = name, seconds, aborted
        self.violations = list(violations)

    @property
    def failed(self):
        return bool(self.aborted or self.violations)


class Workload:
    """Base: subclasses fill `setup` (inputs) and `units` (timed work)."""

    def __init__(self, ruinvest, seed, workdir, smoke, tracer):
        self.rv, self.seed, self.workdir, self.smoke, self.tracer = \
            ruinvest, seed, workdir, smoke, tracer
        self.checks = {}        # name -> worst value seen (recorded, not gated)
        self.inputs = []        # (name, text) describing the generated inputs
        self.sim_log = []       # OpClock records of each CLI simulation command run

    def note(self, name, value):
        self.checks[name] = max(self.checks.get(name, value), value)

    def write_cfg(self, name, params, note):
        text = cfg_text(params, note)
        path = os.path.join(self.workdir, name + ".cfg")
        with open(path, "w") as fh:
            fh.write(text)
        self.inputs.append((name, text))
        return path

    def parse(self, path):
        cli = self.rv.cli
        cfg = cli.parse_config(path)
        params, law = cli.build_model(cfg)
        return cfg, params, law

    def input_hash(self):
        h = hashlib.sha256()
        for name, text in self.inputs:
            h.update(name.encode() + b"\0" + text.encode() + b"\0")
        return h.hexdigest()[:16]

    def set_op(self, phase, index, name=None):
        if self.tracer is not None:
            self.tracer.op = (phase, index, name)


class SolveSweep(Workload):
    def setup(self):
        self.inputs = []
        self.items = []
        for name, p in sweep_configs(self.seed, self.smoke):
            path = self.write_cfg(name, p, f"solve-sweep seed {self.seed}")
            self.items.append((name,) + self.parse(path))

    def units(self):
        return [(item[0], functools.partial(self._solve, *item)) for item in self.items]

    def _solve(self, name, cfg, params, law):
        """`ruinvest solve` (CLI defaults) plus the curve read of `ruinvest policy`."""
        rv = self.rv
        out = os.path.join(self.workdir, "out")
        os.makedirs(out, exist_ok=True)
        t0 = time.perf_counter()
        try:
            rep = rv.model.validate(params, law)
            if not rep.ok:
                raise ValueError("; ".join(rep.violations))
            manifest = rv.cli.RunManifest("solve", cfg, dict(CLI_OPTIONS), self.seed)
            opts = rv.exp_solver.SolveOptions(x_max=None, rtol=CLI_TOL, atol=CLI_TOL * 1e-2)
            curve = rv.exp_solver.solve(params, law.mean, opts)
            csv_path = os.path.join(out, "curve.csv")
            curve.to_csv(csv_path, manifest.hash)
            curve.to_json(os.path.join(out, "curve.json"), manifest.sidecar())
            back = rv.curve.SolutionCurve.from_csv(csv_path)
        except (rv.exp_solver.SolverAbort, ValueError) as exc:
            t1 = time.perf_counter()
            return (t0, t1), [Op(name, t1 - t0, aborted=f"{type(exc).__name__}: {exc}")], "abort"
        t1 = time.perf_counter()
        bad = curve_violations(curve, params)
        for col in ("x", "V", "Vp", "Vpp", "J", "phi", "theta_star"):
            if not np.array_equal(getattr(curve, col), getattr(back, col), equal_nan=True):
                bad.append(f"from_csv {col} differs from the solved curve")
        if not np.array_equal(curve.regime.astype(str), back.regime.astype(str)):
            bad.append("from_csv regime differs from the solved curve")
        if name == "example1":
            got = curve.switch_points
            if len(got) != 3 or any(abs(g / w - 1.0) > 1e-6
                                    for g, w in zip(got, EXAMPLE1_SWITCHES)):
                bad.append(f"example 1 switch points {got}")
        self.note("check.hjb_residual_margin", hjb_residual_ratio(params, curve))
        return (t0, t1), [Op(name, t1 - t0, violations=bad)], curve_digest(curve)


def _exp_law(ruinvest, tracer):
    base = ruinvest.model.ExponentialClaims
    if tracer is None:
        return base(1.0)

    class CountingExponentialClaims(base):
        def pdf(self, s):
            tracer.count("general_solver.pdf_calls")
            tracer.count("general_solver.pdf_points", np.size(s))
            return super().pdf(s)
    return CountingExponentialClaims(1.0)


def _mixture_law(ruinvest, tracer):
    """0.5 Exp(1) + 0.5 Exp(2): mean 1.5, analytic density derivative."""
    def pdf(s):
        return np.where(s >= 0, 0.5 * np.exp(-s) + 0.25 * np.exp(-s / 2.0), 0.0)
    return ruinvest.model.GeneralClaims(
        pdf=counting_pdf(pdf, tracer) if tracer else pdf,
        cdf=lambda s: np.where(s >= 0, 1.0 - 0.5 * np.exp(-s) - 0.5 * np.exp(-s / 2.0), 0.0),
        mean=1.5,
        pdf_derivative=lambda s: -0.5 * np.exp(-s) - 0.125 * np.exp(-s / 2.0))


def _erlang_law(ruinvest, tracer):
    """Erlang-2 with mean 1: f(0) = 0, derivative left to the numerical fallback."""
    def pdf(s):
        return np.where(s >= 0, 4.0 * s * np.exp(-2.0 * s), 0.0)
    return ruinvest.model.GeneralClaims(
        pdf=counting_pdf(pdf, tracer) if tracer else pdf,
        cdf=lambda s: np.where(s >= 0, 1.0 - np.exp(-2.0 * s) * (1.0 + 2.0 * s), 0.0),
        mean=1.0)


class GeneralClaimsWorkload(Workload):
    # (op name, law factory, x_max); smoke shrinks x_max 5.5x.  The mixture
    # runs at 15, not 30: a 2 s solve instead of 8 s, so a run repeats the
    # cycle about three times
    CASES = (("exp-x11", _exp_law, 11.0), ("exp-x22", _exp_law, 22.0),
             ("mixture-x15", _mixture_law, 15.0), ("erlang2-x11", _erlang_law, 11.0))

    def setup(self):
        self.inputs = []
        path = self.write_cfg("example1", EXAMPLES["example1"], "general-claims")
        _, self.params, _ = self.parse(path)
        scale = 1.0 / 5.5 if self.smoke else 1.0
        self.cases = [(name, make(self.rv, self.tracer), x_max * scale)
                      for name, make, x_max in self.CASES]
        self.inputs.append(("cases", repr([(n, x) for n, _, x in self.cases])))
        # fast-path reference for the continuation-gap check
        self.reference = self.rv.exp_solver.solve(self.params, 1.0)

    def units(self):
        return [(name, functools.partial(self._solve, name, law, x_max))
                for name, law, x_max in self.cases]

    def _solve(self, name, law, x_max):
        rv = self.rv
        t0 = time.perf_counter()
        try:
            curve = rv.general_solver.general_solve(self.params, law, x_max=x_max)
        except (rv.exp_solver.SolverAbort, ValueError) as exc:
            t1 = time.perf_counter()
            return (t0, t1), [Op(name, t1 - t0, aborted=f"{type(exc).__name__}: {exc}")], "abort"
        t1 = time.perf_counter()
        bad = curve_violations(curve, self.params)
        if name.startswith("exp-"):
            xs = np.linspace(0.0, min(20.0, x_max), 300)
            ref = self.reference.value(xs)
            gap = float(np.max(np.abs(curve.value(xs) - ref) / np.abs(ref)))
            self.note("check.cont_gap_max", gap)
            if not gap <= 1e-5:
                bad.append(f"continuation gap {gap:.3g} vs the fast path exceeds 1e-5")
        self.note("check.hjb_residual_margin", hjb_residual_ratio(self.params, curve))
        return (t0, t1), [Op(name, t1 - t0, violations=bad)], curve_digest(curve)


class McVerify(Workload):
    """`ruinvest verify` on example 1, run through the CLI entry point."""

    command = "verify"
    n_paths = VERIFY_PATHS
    smoke_paths = 512

    def __init__(self, *args):
        super().__init__(*args)
        self.clock = OpClock(self.rv)

    def setup(self):
        self.inputs = []
        self.cfg_path = self.write_cfg("example1", EXAMPLES["example1"], self.command)
        _, self.params, _ = self.parse(self.cfg_path)
        self.paths = self.smoke_paths if self.smoke else self.n_paths
        self.inputs.append(("cli", f"{self.command} n_paths={self.paths} seed={self.seed}"))

    def units(self):
        return [(self.command, self._command)]

    def _command(self):
        """One CLI command; its ops are the x0 estimates inside it."""
        rv = self.rv
        out = os.path.join(self.workdir, "out")
        argv = [self.command, "--config", self.cfg_path, "--out-dir", out,
                "--seed", str(self.seed), "--n-paths", str(self.paths), "--threads", "1"]
        self.clock.records.clear()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI's progress lines
            code = rv.cli.main(argv)
        t1 = time.perf_counter()
        self.records = list(self.clock.records)
        self.sim_log.append(self.records)
        if code == rv.cli.EXIT_SOLVER:
            return (t0, t1), [Op(self.command, t1 - t0, aborted="solver abort")], "abort"
        with open(os.path.join(out, self.command + ".csv")) as fh:
            text = fh.read()
        rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
        return (t0, t1), self.check_rows(rows), hashlib.sha256(text.encode()).hexdigest()[:16]

    def check_rows(self, rows):
        ops = []
        for row in rows:
            x0 = float(row["x0"])
            exp_val, p_hat, ci = (float(row[k]) for k in ("expected", "p_hat", "ci_half"))
            z = _z(p_hat - exp_val, ci)
            self.note("check.mc_max_z", z)
            bad = [] if z <= 2.0 else [f"|p_hat - V/V_inf| = {z:.2f} ci_half at x0={x0:g}"]
            seconds = next(r[2] for r in self.records if r[0] == "feedback" and r[1] == x0)
            ops.append(Op(f"x0={x0:g}/feedback", seconds, violations=bad))
        return ops


WORKLOADS = {
    "solve-sweep": SolveSweep,
    "general-claims": GeneralClaimsWorkload,
    "mc-verify": McVerify,
}
