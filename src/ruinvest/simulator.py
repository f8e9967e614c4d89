"""Monte Carlo engine for the controlled surplus process.

Between claims the surplus follows dX = [c + rX + (mu-r) theta X] dt
+ sigma theta X dB with the fraction theta re-read from the policy at every
step (Euler-Maruyama, theta frozen within a step); claim inter-arrival times
are sampled exactly and steps are split at claim epochs, the claim being
applied after the diffusion sub-step.  Ruin is X < 0; a path that reaches the
upper barrier counts as certain survival and the horizon censors whatever is
left (censoring biases survival upward and is reported).

Estimates validate the solved curves through the verification identity
survival(x) = V(x)/V(inf) and rank policies under common claim streams.
"""
from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .curve import SolutionCurve
from .model import ClaimLaw, ModelParams

__all__ = [
    "Policy",
    "ConstantPolicy",
    "FeedbackPolicy",
    "SimConfig",
    "PathOutcome",
    "SimulationReport",
    "simulate_path",
    "estimate_survival",
    "compare_policies",
    "lundberg_ruin_probability",
]

# diffusion increments are kept below this fraction of the surplus by
# shrinking the step; keeps Euler from overshooting X < 0 between claims,
# which the true (continuous) paths cannot do
VOL_STEP_FRAC = 0.1


class Policy:
    """Feedback rule x -> investment fraction in [-b, a]."""

    label: str

    def theta(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def fingerprint(self) -> int:
        """Stable hash; identical policies share random streams."""
        raise NotImplementedError


class ConstantPolicy(Policy):
    def __init__(self, theta: float, params: ModelParams, label: Optional[str] = None):
        if not (-params.b <= theta <= params.a):
            raise ValueError(f"constant fraction {theta} outside [-b, a]")
        self._theta = float(theta)
        self.label = label or f"const({theta:g})"

    def theta(self, x):
        return np.full_like(np.asarray(x, dtype=float), self._theta)

    def fingerprint(self):
        return _digest(("const", self._theta))


class FeedbackPolicy(Policy):
    """Optimal-fraction lookup into a solved curve, linearly interpolated.

    Beyond the curve's grid the last fraction is held.  An optional clamp
    window restricts the emitted fraction further (e.g. [0, min(a, 1)] for a
    no-borrowing-no-shortselling variant); the [-b, a] admissibility clamp is
    always applied.
    """

    def __init__(self, curve: SolutionCurve, params: ModelParams,
                 clamp: Optional[tuple[float, float]] = None, label: str = "feedback"):
        self._x = curve.x
        self._th = np.clip(curve.theta_star, -params.b, params.a)
        self._clamp = clamp
        self.label = label

    def theta(self, x):
        th = np.interp(np.asarray(x, dtype=float), self._x, self._th)
        if self._clamp is not None:
            th = np.clip(th, self._clamp[0], self._clamp[1])
        return th

    def fingerprint(self):
        return _digest(("feedback", self._clamp, self._x[::64].tobytes(),
                        self._th[::64].tobytes()))


def _digest(parts) -> int:
    payload = repr(parts).encode() if not isinstance(parts, bytes) else parts
    return int.from_bytes(hashlib.sha256(payload).digest()[:4], "big")


@dataclass(frozen=True)
class SimConfig:
    """Path-count, truncation and discretisation settings."""

    n_paths: int = 100_000
    horizon: Optional[float] = None        # default 400 / lambda
    upper_barrier: Optional[float] = None  # default 50 * max(x0)
    euler_dt: Optional[float] = None       # default (and max) 0.01 / lambda
    rng_seed: int = 20_240_901
    chunk_size: int = 16_384
    threads: int = 1

    def resolved(self, params: ModelParams, x0_list: Sequence[float]):
        horizon = self.horizon if self.horizon is not None else 400.0 / params.lam
        barrier = (self.upper_barrier if self.upper_barrier is not None
                   else 50.0 * max(max(x0_list), 1.0))
        dt_max = 0.01 / params.lam
        dt = self.euler_dt if self.euler_dt is not None else dt_max
        if dt > dt_max + 1e-12:
            raise ValueError(f"euler_dt must not exceed 0.01/lambda = {dt_max:g}")
        if barrier < 10.0 * max(x0_list):
            raise ValueError("upper barrier below 10 * max(x0)")
        return horizon, barrier, dt


@dataclass(frozen=True)
class PathOutcome:
    kind: str          # "ruin" | "survive" | "censored"
    time: float
    x_final: float
    diffusion_ruin: bool = False


def simulate_path(x0: float, policy: Policy, params: ModelParams, law: ClaimLaw,
                  config: SimConfig, rng: np.random.Generator) -> PathOutcome:
    """Scalar reference simulation of one path.

    The vectorised estimator reproduces this scheme; this form exists for
    auditability and direct tests of the stepping rules.
    """
    if x0 < 0:
        raise ValueError("initial surplus must be non-negative")
    horizon, barrier, dt = config.resolved(params, [x0])
    p = params
    x, t = float(x0), 0.0
    t_claim = t + float(rng.exponential(1.0 / p.lam))
    while True:
        th = float(policy.theta(np.array([x]))[0])
        h = min(dt, t_claim - t, horizon - t)
        if th != 0.0:
            h = min(h, (VOL_STEP_FRAC / (p.sigma * abs(th))) ** 2)
        drift = p.c + p.r * x + (p.mu - p.r) * th * x
        x = x + drift * h + p.sigma * th * x * math.sqrt(h) * float(rng.standard_normal())
        t += h
        at_claim = t >= t_claim - 1e-12
        if x < 0:
            return PathOutcome("ruin", t, x, diffusion_ruin=True)
        if at_claim:
            x -= float(law.sample(rng, 1)[0])
            t_claim = t + float(rng.exponential(1.0 / p.lam))
            if x < 0:
                return PathOutcome("ruin", t, x)
        if x >= barrier:
            return PathOutcome("survive", t, x)
        if t >= horizon - 1e-12:
            return PathOutcome("censored", t, x)


def _claim_columns(params, horizon):
    lam_t = params.lam * horizon
    return int(lam_t + 10.0 * math.sqrt(lam_t) + 30)


def _run_chunk(x0, policy, params, law, horizon, barrier, dt, seed, x0_key,
               chunk_id, n, diffusion_tag):
    """Vectorised batch of n paths; returns outcome counts.

    Claim streams depend only on (seed, x0, chunk), never on the policy, so
    comparisons across policies share claim randomness; diffusion streams are
    keyed by the policy fingerprint.
    """
    p = params
    k_cols = _claim_columns(p, horizon)
    rng_claims = np.random.default_rng([seed, 17, x0_key, chunk_id])
    inter = rng_claims.exponential(1.0 / p.lam, (n, k_cols))
    epochs = np.cumsum(inter, axis=1)
    sizes = law.sample(rng_claims, n * k_cols).reshape(n, k_cols)
    rng_diff = np.random.default_rng([seed, 23, diffusion_tag, x0_key, chunk_id])

    X = np.full(n, float(x0))
    t = np.zeros(n)
    ptr = np.zeros(n, dtype=np.int64)
    rows = np.arange(n)
    n_ruin = n_surv = n_cens = n_diff_ruin = 0

    sqrt = np.sqrt
    while X.size:
        th = policy.theta(X)
        t_claim = epochs[rows, ptr]
        h = np.minimum(dt, np.minimum(t_claim - t, horizon - t))
        nz = th != 0.0
        if np.any(nz):
            cap = np.full_like(h, np.inf)
            cap[nz] = (VOL_STEP_FRAC / (p.sigma * np.abs(th[nz]))) ** 2
            h = np.minimum(h, cap)
        h = np.maximum(h, 1e-15)
        vol = p.sigma * th * X
        Z = rng_diff.standard_normal(X.size)
        X = X + (p.c + p.r * X + (p.mu - p.r) * th * X) * h + vol * sqrt(h) * Z
        t = t + h
        diff_ruin = X < 0.0
        at_claim = (t >= t_claim - 1e-12) & ~diff_ruin
        if np.any(at_claim):
            X[at_claim] -= sizes[rows[at_claim], ptr[at_claim]]
            ptr[at_claim] += 1
            if np.any(ptr >= k_cols):
                raise RuntimeError("claim columns exhausted; horizon too long for table")
        ruined = X < 0.0
        survived = (X >= barrier) & ~ruined
        censored = (t >= horizon - 1e-12) & ~ruined & ~survived
        n_diff_ruin += int(np.count_nonzero(diff_ruin))
        n_ruin += int(np.count_nonzero(ruined))
        n_surv += int(np.count_nonzero(survived))
        n_cens += int(np.count_nonzero(censored))
        alive = ~(ruined | survived | censored)
        if not np.all(alive):
            X, t, ptr, rows = X[alive], t[alive], ptr[alive], rows[alive]
    return n_ruin, n_surv, n_cens, n_diff_ruin


def _run_chunk_exact_zero(x0, params, law, horizon, barrier, seed, x0_key, chunk_id, n):
    """No-investment fast path: drift is exact between claims, so the path
    advances claim-to-claim (also covers the r = 0 oracle configuration)."""
    p = params
    k_cols = _claim_columns(p, horizon)
    rng_claims = np.random.default_rng([seed, 17, x0_key, chunk_id])
    inter = rng_claims.exponential(1.0 / p.lam, (n, k_cols))
    epochs = np.cumsum(inter, axis=1)
    sizes = law.sample(rng_claims, n * k_cols).reshape(n, k_cols)

    X = np.full(n, float(x0))
    t = np.zeros(n)
    rows = np.arange(n)
    n_ruin = n_surv = n_cens = 0
    for k in range(k_cols):
        tc = epochs[rows, k]
        dt_full = np.minimum(tc, horizon) - t
        if p.r == 0.0:
            Xn = X + p.c * dt_full
        else:
            Xn = (X + p.c / p.r) * np.exp(p.r * dt_full) - p.c / p.r
        t = t + dt_full
        hit_claim = tc <= horizon
        Xn[hit_claim] -= sizes[rows[hit_claim], k]
        ruined = Xn < 0.0
        survived = (Xn >= barrier) & ~ruined
        censored = (t >= horizon - 1e-12) & ~ruined & ~survived
        n_ruin += int(np.count_nonzero(ruined))
        n_surv += int(np.count_nonzero(survived))
        n_cens += int(np.count_nonzero(censored))
        alive = ~(ruined | survived | censored)
        X, t, rows = Xn[alive], t[alive], rows[alive]
        if not X.size:
            break
    n_cens += int(X.size)  # anything left ran out of columns at the horizon
    return n_ruin, n_surv, n_cens, 0


@dataclass
class SimulationReport:
    """Per-(x0, policy) survival estimates with 95% confidence half-widths."""

    rows: list = field(default_factory=list)
    config_echo: dict = field(default_factory=dict)

    def add(self, x0, policy_label, n, n_surv, n_cens, n_diff_ruin):
        p_hat = (n_surv + n_cens) / n if n else math.nan
        ci = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / n) if n else math.nan
        self.rows.append({
            "x0": x0, "policy": policy_label, "p_hat": p_hat, "ci_half": ci,
            "n": n, "censored_frac": (n_cens / n if n else math.nan),
            "diffusion_ruin_frac": (n_diff_ruin / n if n else math.nan),
        })

    def lookup(self, x0, policy_label):
        for row in self.rows:
            if row["x0"] == x0 and row["policy"] == policy_label:
                return row
        raise KeyError((x0, policy_label))

    def to_csv(self, path, manifest_hash: str = "") -> None:
        with open(path, "w") as fh:
            if manifest_hash:
                fh.write(f"# manifest: {manifest_hash}\n")
            fh.write("x0,policy,p_hat,ci_half,n,censored_frac\n")
            for r in self.rows:
                fh.write("%.17g,%s,%.17g,%.17g,%d,%.17g\n"
                         % (r["x0"], r["policy"], r["p_hat"], r["ci_half"],
                            r["n"], r["censored_frac"]))

    def to_json(self, path, manifest: Optional[dict] = None) -> None:
        d = {"rows": self.rows, "config": self.config_echo}
        if manifest is not None:
            d["manifest"] = manifest
        with open(path, "w") as fh:
            json.dump(d, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _is_exact_zero_policy(policy: Policy) -> bool:
    if isinstance(policy, ConstantPolicy):
        return policy._theta == 0.0
    return False


def _estimate_one(x0, x0_key, policy, params, law, cfg, horizon, barrier, dt,
                  report: SimulationReport):
    n = cfg.n_paths
    if n == 0:
        return  # empty report: no rows
    chunks = []
    left, cid = n, 0
    while left > 0:
        take = min(cfg.chunk_size, left)
        chunks.append((cid, take))
        left -= take
        cid += 1

    def work(args):
        cid, take = args
        if _is_exact_zero_policy(policy):
            return _run_chunk_exact_zero(x0, params, law, horizon, barrier,
                                         cfg.rng_seed, x0_key, cid, take)
        return _run_chunk(x0, policy, params, law, horizon, barrier, dt,
                          cfg.rng_seed, x0_key, cid, take, policy.fingerprint())

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(work, chunks))
    else:
        results = [work(ch) for ch in chunks]
    tot = np.sum(np.array(results, dtype=np.int64), axis=0)
    report.add(x0, policy.label, n, int(tot[1]), int(tot[2]), int(tot[3]))


def estimate_survival(x0_list: Sequence[float], policy: Policy, params: ModelParams,
                      law: ClaimLaw, config: Optional[SimConfig] = None) -> SimulationReport:
    """Survival estimates for each starting surplus under one policy.

    Warns (in the report rows) through censored_frac; a fraction above 5%
    means the horizon or barrier truncation is too tight.
    """
    cfg = config or SimConfig()
    horizon, barrier, dt = cfg.resolved(params, list(x0_list) or [1.0])
    report = SimulationReport(config_echo={
        "n_paths": cfg.n_paths, "horizon": horizon, "upper_barrier": barrier,
        "euler_dt": dt, "rng_seed": cfg.rng_seed,
    })
    for i, x0 in enumerate(x0_list):
        _estimate_one(float(x0), i, policy, params, law, cfg, horizon, barrier, dt, report)
    return report


def compare_policies(x0_list: Sequence[float], policies: Sequence[Policy],
                     params: ModelParams, law: ClaimLaw,
                     config: Optional[SimConfig] = None) -> SimulationReport:
    """Estimate all policies on shared claim streams.

    Claim inter-arrival times and sizes are drawn from streams keyed by
    (seed, x0, chunk) only, so every policy sees the same claim scenarios;
    diffusion noise is keyed by the policy fingerprint (identical policies
    therefore produce identical estimates).  The report is ranked per x0 but
    never hard-fails on ordering.
    """
    cfg = config or SimConfig()
    horizon, barrier, dt = cfg.resolved(params, list(x0_list) or [1.0])
    report = SimulationReport(config_echo={
        "n_paths": cfg.n_paths, "horizon": horizon, "upper_barrier": barrier,
        "euler_dt": dt, "rng_seed": cfg.rng_seed,
        "policies": [p.label for p in policies],
    })
    for i, x0 in enumerate(x0_list):
        for policy in policies:
            _estimate_one(float(x0), i, policy, params, law, cfg, horizon, barrier,
                          dt, report)
    return report


def lundberg_ruin_probability(c: float, lam: float, m: float, x) -> np.ndarray:
    """Classical closed-form ruin probability with exponential claims and no
    investment: psi(x) = (lam m / c) exp(-(1/m - lam/c) x); the simulator
    oracle for the r = 0, theta = 0 configuration."""
    x = np.asarray(x, dtype=float)
    return (lam * m / c) * np.exp(-(1.0 / m - lam / c) * x)
