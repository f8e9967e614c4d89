"""Command-line front end: solve / policy / verify / compare.

Configurations are flat key-value files (``key = value``, ``#`` comments)
with keys c, lambda, mu, r, sigma, a, b, claim.kind, claim.mean.  Every
output file records the run-manifest hash; identical config and seed produce
byte-identical CSV artifacts.

Exit codes: 0 success, 1 validation failure or a verify the curve cannot
answer, 2 solver abort, 3 verification failure.  A SolverAbort anywhere in a
subcommand ends it with exit 2 and abort.json, the abort's message and
diagnostics, in the output directory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import __version__
from .curve import REGIME_INTERIOR, SolutionCurve, write_json, write_table
from .exp_solver import RTOL_MIN, SolveOptions, SolverAbort, solve
from .model import ExponentialClaims, ModelParams, validate
from .operators import indicator_bands, start_regime
from .simulator import (ConstantPolicy, FeedbackPolicy, SimConfig,
                        compare_policies, estimate_survival,
                        lundberg_ruin_probability)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3

CONFIG_KEYS = {"c", "lambda", "mu", "r", "sigma", "a", "b", "claim.kind", "claim.mean"}


def parse_config(path) -> dict:
    """Flat key-value file -> dict; unknown keys are a validation error."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, val = line.split("=", 1)
        elif ":" in line:
            key, val = line.split(":", 1)
        else:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = val
    missing = CONFIG_KEYS - out.keys()
    if missing:
        raise ValueError(f"{path}: missing keys {sorted(missing)}")
    return out


def build_model(cfg: dict):
    params = ModelParams(
        c=float(cfg["c"]), lam=float(cfg["lambda"]), mu=float(cfg["mu"]),
        r=float(cfg["r"]), sigma=float(cfg["sigma"]),
        a=float(cfg["a"]), b=float(cfg["b"]),
    )
    kind = cfg["claim.kind"].lower()
    if kind != "exponential":
        raise ValueError(f"config files support claim.kind = exponential only, got {kind!r}; "
                         "general densities are available through the library API")
    law = ExponentialClaims(float(cfg["claim.mean"]))
    return params, law


@dataclass
class RunManifest:
    """Reproducibility record attached to every output artifact."""

    subcommand: str
    config: dict
    options: dict
    seed: int
    version: str = __version__

    def as_dict(self) -> dict:
        return {"subcommand": self.subcommand, "config": self.config,
                "options": self.options, "seed": self.seed, "version": self.version}

    @property
    def hash(self) -> str:
        blob = json.dumps(self.as_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def sidecar(self) -> dict:
        d = self.as_dict()
        d["hash"] = self.hash
        return d


def _solve_curve(params, law, args) -> SolutionCurve:
    opts = SolveOptions(x_max=args.xmax, rtol=args.tol, atol=args.tol * 1e-2)
    return solve(params, law.mean, opts)


def _prologue(args):
    """Parse, build and validate the config, then make the output directory.

    Returns (cfg, params, law, manifest, out), or None once the refusal is on
    stderr.  Oracle mode's r = 0 passes validation for verify, which runs the
    simulator alone, and for solve, which then refuses it; policy and compare
    validate without it.  A --tol outside (0, inf) or below the march's rtol
    floor of 100 eps, a non-finite --xmax and, for verify and compare, fewer
    than one path or thread and a negative seed are refused.
    """
    cfg = parse_config(args.config)
    params, law = build_model(cfg)
    rep = validate(params, law, oracle_mode=args.oracle_mode and args.cmd in ("solve", "verify"))
    if not rep.ok:
        print("validation failed:", "; ".join(rep.violations), file=sys.stderr)
        return None
    if args.cmd == "solve" and args.oracle_mode:
        print("oracle mode is a simulator feature; solve requires r > 0", file=sys.stderr)
        return None
    if not 0 < args.tol < math.inf:
        print(f"--tol must be finite and positive, got {args.tol}", file=sys.stderr)
        return None
    if args.tol < RTOL_MIN:
        print(f"--tol must be at least 100 eps ({RTOL_MIN:.3g}), got {args.tol}", file=sys.stderr)
        return None
    if args.xmax is not None and not math.isfinite(args.xmax):
        print(f"--xmax must be {'a number' if math.isnan(args.xmax) else 'finite'}, "
              f"got {args.xmax}", file=sys.stderr)
        return None
    if args.cmd in ("verify", "compare"):
        for flag, value, floor in (("--n-paths", args.n_paths, 1), ("--threads", args.threads, 1),
                                   ("--seed", args.seed, 0)):
            if value < floor:
                print(f"{flag} must be at least {floor}, got {value}", file=sys.stderr)
                return None
    manifest = RunManifest(args.cmd, cfg, _options_echo(args), args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, params, law, manifest, out


def cmd_solve(args, cfg, params, law, manifest, out) -> int:
    curve = _solve_curve(params, law, args)
    curve.to_csv(out / "curve.csv", manifest.hash)
    curve.to_json(out / "curve.json", manifest.sidecar())
    print(f"wrote {out/'curve.csv'} ({len(curve.x)} nodes), V_inf = {curve.V_inf:.8g}")
    for seg in curve.segments:
        print(f"  {seg.regime:>4} on [{seg.lo:.6g}, {seg.hi:.6g}]  ({seg.terminal_event})")
    return EXIT_OK


def cmd_policy(args, cfg, params, law, manifest, out) -> int:
    curve = _solve_curve(params, law, args)

    thresholds = {"a": params.a, "minus_b": -params.b,
                  "convex_split": 0.5 * (params.a - params.b)}
    if params.mu != params.r:
        # the start regime's band bound not shared with INT, when a != b
        bands = indicator_bands(params)
        for t in set(bands[start_regime(params)]) - set(bands[REGIME_INTERIOR]) - {None}:
            thresholds["extreme_bound"] = t
    # the march's event roots, sharper than the node grid
    switch_points = curve.switch_points

    comments = ([f"threshold {key} = {val:.17g}" for key, val in sorted(thresholds.items())]
                + [f"switch x{i} = {xi:.17g}" for i, xi in enumerate(switch_points, 1)])
    write_table(out / "policy.csv", manifest.hash, "x,phi,theta_star,regime",
                "%.17g,%.17g,%.17g,%s", (curve.x, curve.phi, curve.theta_star, curve.regime),
                comments)
    write_json(out / "policy.json", {"thresholds": thresholds, "switch_points": switch_points},
               manifest.sidecar())
    print(f"wrote {out/'policy.csv'}; switch points: "
          + (", ".join(f"{x:.6g}" for x in switch_points) or "none"))
    return EXIT_OK


def cmd_verify(args, cfg, params, law, manifest, out) -> int:
    sim_cfg = SimConfig(n_paths=args.n_paths, rng_seed=args.seed, threads=args.threads)

    if args.oracle_mode:
        # no solver: the classical closed form is the expected value
        x0s = [0.0, 1.0, 2.0, 5.0]
        policy = ConstantPolicy(0.0, params)
        report = estimate_survival(x0s, policy, params, law, sim_cfg)
        expected = [1.0 - float(lundberg_ruin_probability(params.c, params.lam, law.mean, x))
                    for x in x0s]
        label = "lundberg"
    else:
        curve = _solve_curve(params, law, args)
        x0s = [1.0, 5.0, 10.0]
        mode = curve.meta["tail"]["mode"]
        if max(x0s) > curve.x[-1] or mode == "open":
            print(f"cannot verify: x0 up to {max(x0s):g}, last node x={curve.x[-1]:.6g}, tail "
                  f"mode {mode}; V/V_inf is no survival probability there, raise --xmax",
                  file=sys.stderr)
            return EXIT_VALIDATION
        policy = FeedbackPolicy(curve, params)
        report = estimate_survival(x0s, policy, params, law, sim_cfg)
        expected = [float(curve.survival(x)) for x in x0s]
        label = "V/V_inf"

    rows = [report.lookup(x0, policy.label) for x0 in x0s]
    passed = [abs(r["p_hat"] - e) <= 2.0 * r["ci_half"] for r, e in zip(rows, expected)]
    for x0, e, r, ok in zip(x0s, expected, rows, passed):
        print(f"  x0={x0:<6g} {label}={e:.5f}  p_hat={r['p_hat']:.5f} "
              f"+/- {r['ci_half']:.5f}  {'pass' if ok else 'FAIL'}")
    write_table(out / "verify.csv", manifest.hash, "x0,expected,p_hat,ci_half,pass",
                "%.17g,%.17g,%.17g,%.17g,%d",
                (x0s, expected, [r["p_hat"] for r in rows], [r["ci_half"] for r in rows],
                 passed))
    report.to_json(out / "verify.json", manifest.sidecar())
    return EXIT_OK if all(passed) else EXIT_VERIFY


def cmd_compare(args, cfg, params, law, manifest, out) -> int:
    curve = _solve_curve(params, law, args)

    policies = [
        FeedbackPolicy(curve, params, label="feedback-optimal"),
        ConstantPolicy(params.a, params, label="const(a)"),
        ConstantPolicy(-params.b, params, label="const(-b)"),
        ConstantPolicy(0.0, params, label="const(0)"),
    ]
    if params.mu > params.r:
        # no-borrowing-no-shortselling analogues: the exact generating
        # constraint is ambiguous, so both a clamped-feedback variant and a
        # re-solved tight-constraint variant are emitted and labelled
        hi = min(params.a, 1.0)
        policies.append(FeedbackPolicy(curve, params, clamp=(0.0, hi),
                                       label="noshort-clamped"))
        try:
            p_ns = ModelParams(c=params.c, lam=params.lam, mu=params.mu, r=params.r,
                               sigma=params.sigma, a=hi, b=1e-9)
            curve_ns = _solve_curve(p_ns, law, args)
            policies.append(FeedbackPolicy(curve_ns, p_ns, label="noshort-resolved"))
        except SolverAbort:
            print("note: tight-constraint re-solve aborted; emitting clamped variant only",
                  file=sys.stderr)

    x0s = [1.0, 5.0, 10.0]
    sim_cfg = SimConfig(n_paths=args.n_paths, rng_seed=args.seed, threads=args.threads)
    report = compare_policies(x0s, policies, params, law, sim_cfg)
    report.to_csv(out / "compare.csv", manifest.hash)
    report.to_json(out / "compare.json", manifest.sidecar())
    for x0 in x0s:
        base = report.lookup(x0, "feedback-optimal")
        dominated = [r["policy"] for r in report.rows
                     if r["x0"] == x0 and r["policy"] != "feedback-optimal"
                     and r["p_hat"] > base["p_hat"] + 2.0 * (r["ci_half"] + base["ci_half"])]
        flag = f"  [dominated by {', '.join(dominated)}]" if dominated else ""
        print(f"  x0={x0:<6g} feedback p_hat={base['p_hat']:.5f}{flag}")
    return EXIT_OK


def _options_echo(args) -> dict:
    return {"xmax": args.xmax, "tol": args.tol, "n_paths": args.n_paths,
            "oracle_mode": args.oracle_mode, "threads": args.threads}


def _abort(out: Path, manifest: RunManifest, exc: SolverAbort) -> int:
    """Write abort.json with the abort's diagnostics, report it, return EXIT_SOLVER."""
    write_json(out / "abort.json", {"error": str(exc), "diagnostics": exc.diagnostics},
               manifest.sidecar())
    print(f"solver abort: {exc}", file=sys.stderr)
    return EXIT_SOLVER


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="ruinvest",
        description="Minimal ruin probability under constrained investment: "
                    "HJB solver, optimal policy and Monte Carlo verification.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, fn in (("solve", cmd_solve), ("policy", cmd_policy),
                     ("verify", cmd_verify), ("compare", cmd_compare)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out-dir", default=".")
        sp.add_argument("--seed", type=int, default=20_240_901)
        sp.add_argument("--xmax", type=float, default=None)
        sp.add_argument("--tol", type=float, default=1e-10)
        sp.add_argument("--n-paths", type=int, default=100_000)
        sp.add_argument("--oracle-mode", action="store_true")
        sp.add_argument("--threads", type=int, default=1)
        sp.set_defaults(fn=fn)
    args = ap.parse_args(argv)
    try:
        run = _prologue(args)
        return EXIT_VALIDATION if run is None else args.fn(args, *run)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverAbort as exc:  # raised by the subcommand, after the prologue
        *_, manifest, out = run
        return _abort(out, manifest, exc)


if __name__ == "__main__":
    sys.exit(main())
