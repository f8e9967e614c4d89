"""Monte Carlo engine for the controlled surplus process.

Between claims the surplus follows dX = [c + rX + (mu-r) theta X] dt
+ sigma theta X dB with the fraction theta re-read from the policy at every
step (Euler-Maruyama, theta frozen within a step); claim inter-arrival times
are sampled exactly and steps are split at claim epochs, the claim being
applied after the diffusion sub-step.  The constant-zero policy instead
steps claim-to-claim on the exact interest flow.  Ruin is X < 0; a path that
reaches the upper barrier counts as certain survival and the horizon censors
whatever is left (censoring biases survival upward and is reported).

The engine carries, per live path, the surplus X, the time t, the index of
the next claim and that claim's epoch, and compacts them only in iterations
where some path ended.  FeedbackPolicy looks large batches up in sorted
order: np.interp brackets each point by the same node and evaluates the same
expression whatever the input order, so the result is bit-identical to the
unsorted call and only the search gets faster.  Each report row also carries
the engine's work: loop iterations and path-steps, summed over chunks.

Each (x0, chunk) draws one claim table, sized for the horizon (k_cols
columns of epochs and of sizes), but keeps only its first CLAIM_COLS
columns; a path that needs a later one has the table re-drawn from the same
stream with twice as many.  Kept values have the bits of the full table, so
estimates do not depend on how many columns are kept.

Estimates validate the solved curves through the verification identity
survival(x) = V(x)/V(inf) and rank policies under common claim streams.
"""
from __future__ import annotations

import hashlib
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .curve import SolutionCurve, write_json, write_table
from .model import ClaimLaw, ModelParams

__all__ = [
    "Policy",
    "ConstantPolicy",
    "FeedbackPolicy",
    "SimConfig",
    "SimulationReport",
    "estimate_survival",
    "compare_policies",
    "lundberg_ruin_probability",
]

# diffusion increments are kept below this fraction of the surplus by
# shrinking the step; keeps Euler from overshooting X < 0 between claims,
# which the true (continuous) paths cannot do
VOL_STEP_FRAC = 0.1

# paths per chunk; the chunk index keys the random streams, so a change here
# re-draws every estimate
CHUNK_PATHS = 16_384

# claim-table columns kept at first (example 1 has 630; feedback reads at
# most column 85, const(a) column 138 at 16,384 paths) and rows per generator
# call (temporaries of about 1 MB)
CLAIM_COLS = 128
CLAIM_BLOCK = 256

# from this many surpluses on, FeedbackPolicy looks them up in sorted order:
# np.interp's guessed search then hits, which outweighs the sort
SORTED_LOOKUP_MIN = 300


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
        x = np.asarray(x, dtype=float)
        if x.size >= SORTED_LOOKUP_MIN:  # same bits as the unsorted call
            order = x.argsort()
            th = np.empty_like(x)
            th[order] = np.interp(x[order], self._x, self._th)
        else:
            th = np.interp(x, self._x, self._th)
        if self._clamp is not None:
            th = np.clip(th, self._clamp[0], self._clamp[1])
        return th

    def fingerprint(self):
        return _digest(("feedback", self._clamp, self._x[::64].tobytes(),
                        self._th[::64].tobytes()))


def _digest(parts) -> int:
    return int.from_bytes(hashlib.sha256(repr(parts).encode()).digest()[:4], "big")


@dataclass(frozen=True)
class SimConfig:
    """Path-count, truncation and discretisation settings."""

    n_paths: int = 100_000
    horizon: Optional[float] = None        # default 400 / lambda
    upper_barrier: Optional[float] = None  # default 50 * max(x0)
    euler_dt: Optional[float] = None       # default (and max) 0.01 / lambda
    rng_seed: int = 20_240_901
    threads: int = 1

    def resolved(self, params: ModelParams, x0_list: Sequence[float]):
        """(horizon, barrier, dt), defaults filled in; refuses by field name a
        value the Euler loop would hang on or censor every path with."""
        if not all(math.isfinite(x0) for x0 in x0_list):
            raise ValueError(f"x0 must be finite, got {list(x0_list)}")
        horizon = self.horizon if self.horizon is not None else 400.0 / params.lam
        barrier = (self.upper_barrier if self.upper_barrier is not None
                   else 50.0 * max(max(x0_list), 1.0))
        dt_max = 0.01 / params.lam
        dt = self.euler_dt if self.euler_dt is not None else dt_max
        for name, value in (("euler_dt", dt), ("horizon", horizon), ("upper_barrier", barrier)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if dt > dt_max + 1e-12:
            raise ValueError(f"euler_dt must not exceed 0.01/lambda = {dt_max:g}")
        if barrier < 10.0 * max(x0_list):
            raise ValueError("upper barrier below 10 * max(x0)")
        return horizon, barrier, dt


class _ClaimTable:
    """Claim epochs and sizes of one (x0, chunk), the first columns of each.

    The stream is keyed by (seed, x0, chunk) only, never by the policy, so
    every policy run on the table sees the same claim scenarios.  It is one
    (n, k_cols) draw of inter-arrival times, then n * k_cols sizes, made
    CLAIM_BLOCK rows per generator call so that the full table is never held.
    """

    def __init__(self, params, law, horizon, seed, x0_key, chunk_id, n):
        lam_t = params.lam * horizon
        self.k_cols = int(lam_t + 10.0 * math.sqrt(lam_t) + 30)
        self._lam, self._law, self._n = params.lam, law, n
        self._key = [seed, 17, x0_key, chunk_id]
        self._draw(min(CLAIM_COLS, self.k_cols))

    def _draw(self, cols):
        n, k_cols = self._n, self.k_cols
        rng = np.random.default_rng(self._key)
        self.epochs = np.empty((n, cols))
        self.sizes = np.empty((n, cols))
        blocks = [(lo, min(CLAIM_BLOCK, n - lo)) for lo in range(0, n, CLAIM_BLOCK)]
        for lo, m in blocks:  # inter-arrival times -> epochs, kept columns only
            gaps = rng.exponential(1.0 / self._lam, (m, k_cols))
            np.cumsum(gaps[:, :cols], axis=1, out=self.epochs[lo:lo + m])
        for lo, m in blocks:
            self.sizes[lo:lo + m] = self._law.sample(rng, m * k_cols).reshape(m, k_cols)[:, :cols]

    def widen(self) -> bool:
        """Re-draw keeping twice the columns, at most k_cols; False once all
        k_cols are kept."""
        cols = self.epochs.shape[1]
        if cols >= self.k_cols:
            return False
        self._draw(min(2 * cols, self.k_cols))
        return True


def _run_chunk(x0, policy, params, horizon, barrier, dt, table, rng_diff):
    """One policy's paths over a claim table; returns outcome counts
    (ruined, survived, censored, diffusion-ruined) and the work done
    (loop iterations, path-steps).

    The constant-zero policy has no diffusion and an exact drift, so it steps
    claim-to-claim on the interest flow (also the r = 0 oracle).  Only that
    policy may: a feedback rule that is 0 on a band must re-read theta every
    step.  Every other policy takes volatility-capped Euler steps.
    """
    p = params
    epochs, sizes = table.epochs, table.sizes
    n, cols = epochs.shape
    exact = isinstance(policy, ConstantPolicy) and policy._theta == 0.0
    X = np.full(n, float(x0))
    t = np.zeros(n)
    ptr = np.zeros(n, dtype=np.int64)
    rows = np.arange(n)
    t_claim = epochs[:, 0].copy()  # epochs[rows, ptr], refreshed as claims land
    t_end = horizon - 1e-12
    n_ruin = n_surv = n_cens = n_diff_ruin = iterations = path_steps = 0

    while X.size:
        iterations += 1
        path_steps += X.size
        h = np.minimum(t_claim, horizon)
        h -= t  # min(t_claim - t, horizon - t): a - t rounds monotonically in a
        if exact:
            if p.r == 0.0:
                X = X + p.c * h
            else:
                X = (X + p.c / p.r) * np.exp(p.r * h) - p.c / p.r
        else:
            th = policy.theta(X)
            vol = p.sigma * th  # |sigma th| is sigma |th| to the bit
            np.minimum(h, dt, out=h)
            with np.errstate(divide="ignore"):  # theta = 0 gives an infinite cap
                cap = (VOL_STEP_FRAC / np.abs(vol)) ** 2
            np.minimum(h, cap, out=h)
            np.maximum(h, 1e-15, out=h)
            Z = rng_diff.standard_normal(X.size)
            # X + (c + rX + (mu-r) th X) h + sigma th X sqrt(h) Z, in that order
            vol *= X
            vol *= np.sqrt(h)
            vol *= Z
            drift = p.r * X
            drift += p.c
            mu_th = (p.mu - p.r) * th
            mu_th *= X
            drift += mu_th
            drift *= h
            X += drift
            X += vol
        t += h
        at_claim = t >= t_claim - 1e-12
        diff_ruin = None
        if not X.min() >= 0.0:  # diffusion-ruined paths take no claim; a nan lands here too
            diff_ruin = X < 0.0
            at_claim &= ~diff_ruin
        idx = at_claim.nonzero()[0]
        if idx.size:
            r, k = rows[idx], ptr[idx]
            X[idx] -= sizes[r, k]
            k += 1
            if k.max() >= cols:  # a path needs a column not kept yet
                if not table.widen():
                    raise RuntimeError("claim columns exhausted; horizon too long for table")
                epochs, sizes = table.epochs, table.sizes
                cols = epochs.shape[1]
            ptr[idx] = k
            t_claim[idx] = epochs[r, k]
        # some path ended, or X holds a nan and the masks must decide
        if X.min() < 0.0 or not X.max() < barrier or t.max() >= t_end:
            ruined = X < 0.0
            survived = (X >= barrier) & ~ruined
            censored = (t >= t_end) & ~ruined & ~survived
            if diff_ruin is not None:  # a diffusion-ruined path is ruined
                n_diff_ruin += int(np.count_nonzero(diff_ruin))
            n_ruin += int(np.count_nonzero(ruined))
            n_surv += int(np.count_nonzero(survived))
            n_cens += int(np.count_nonzero(censored))
            alive = ~(ruined | survived | censored)
            X, t, ptr, rows, t_claim = X[alive], t[alive], ptr[alive], rows[alive], t_claim[alive]
    return n_ruin, n_surv, n_cens, n_diff_ruin, iterations, path_steps


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
        keys = ("x0", "policy", "p_hat", "ci_half", "n", "censored_frac")
        write_table(path, manifest_hash, ",".join(keys), "%.17g,%s,%.17g,%.17g,%d,%.17g",
                    [[r[k] for r in self.rows] for k in keys])

    def to_json(self, path, manifest: Optional[dict] = None) -> None:
        write_json(path, {"rows": self.rows, "config": self.config_echo}, manifest)


def _simulate(x0_list, policies, params, law, cfg: SimConfig, echo: dict) -> SimulationReport:
    """Every policy at every x0; per (x0, chunk) one claim table serves all
    policies, and each policy's diffusion stream is keyed by its fingerprint
    (identical policies therefore produce identical estimates)."""
    horizon, barrier, dt = cfg.resolved(params, list(x0_list) or [1.0])
    report = SimulationReport(config_echo={
        "n_paths": cfg.n_paths, "horizon": horizon, "upper_barrier": barrier,
        "euler_dt": dt, "rng_seed": cfg.rng_seed, **echo,
    })
    n, seed = cfg.n_paths, cfg.rng_seed
    if n < 0:
        raise ValueError(f"n_paths must be non-negative, got {n}")
    if n == 0:
        return report  # empty report: no rows
    tags = [policy.fingerprint() for policy in policies]
    for x0_key, x0 in enumerate(map(float, x0_list)):

        def work(cid):
            table = _ClaimTable(params, law, horizon, seed, x0_key, cid,
                                min(CHUNK_PATHS, n - cid * CHUNK_PATHS))
            return [_run_chunk(x0, policy, params, horizon, barrier, dt, table,
                               np.random.default_rng([seed, 23, tag, x0_key, cid]))
                    for policy, tag in zip(policies, tags)]

        chunks = range(-(-n // CHUNK_PATHS))
        if cfg.threads > 1:
            with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                results = list(pool.map(work, chunks))
        else:  # in the calling thread, where signal handlers and profilers see it
            results = [work(cid) for cid in chunks]
        totals = np.sum(np.array(results, dtype=np.int64), axis=0)
        for policy, tot in zip(policies, totals):
            report.add(x0, policy.label, n, int(tot[1]), int(tot[2]), int(tot[3]))
            report.rows[-1].update(iterations=int(tot[4]), path_steps=int(tot[5]))
            if tot[2] > 0.05 * n:  # truncation too tight
                warnings.warn(f"x0 = {x0:g}, policy {policy.label}: {tot[2] / n:.1%} of "
                              "paths censored, survival biased upward; lengthen the horizon",
                              RuntimeWarning, stacklevel=3)
    return report


def estimate_survival(x0_list: Sequence[float], policy: Policy, params: ModelParams,
                      law: ClaimLaw, config: Optional[SimConfig] = None) -> SimulationReport:
    """Survival estimates for each starting surplus under one policy.

    Emits a RuntimeWarning for each x0 whose censored_frac exceeds 5%: the
    horizon or barrier truncation is then too tight.
    """
    return _simulate(x0_list, [policy], params, law, config or SimConfig(), {})


def compare_policies(x0_list: Sequence[float], policies: Sequence[Policy],
                     params: ModelParams, law: ClaimLaw,
                     config: Optional[SimConfig] = None) -> SimulationReport:
    """Estimate all policies on shared claim streams.

    Every policy runs on the same claim table per (x0, chunk); diffusion
    noise is keyed by the policy fingerprint.  The report is ranked per x0
    but never hard-fails on ordering; censoring warns as in
    estimate_survival.
    """
    return _simulate(x0_list, policies, params, law, config or SimConfig(),
                     {"policies": [p.label for p in policies]})


def lundberg_ruin_probability(c: float, lam: float, m: float, x) -> np.ndarray:
    """Classical closed-form ruin probability with exponential claims and no
    investment: psi(x) = (lam m / c) exp(-(1/m - lam/c) x); the simulator
    oracle for the r = 0, theta = 0 configuration."""
    x = np.asarray(x, dtype=float)
    return (lam * m / c) * np.exp(-(1.0 / m - lam / c) * x)
