import math
import threading
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from ruinvest import simulator
from ruinvest.model import ExponentialClaims, ModelParams
from ruinvest.simulator import (CHUNK_PATHS, CLAIM_COLS, SORTED_LOOKUP_MIN, VOL_STEP_FRAC,
                                ConstantPolicy, FeedbackPolicy, Policy, SimConfig,
                                compare_policies, estimate_survival, lundberg_ruin_probability)

ORACLE = ModelParams(c=0.2, lam=0.09, mu=0.0, r=0.0, sigma=0.1, a=1.0, b=1.0)
LAW = ExponentialClaims(1.0)


@dataclass(frozen=True)
class PathOutcome:
    kind: str          # "ruin" | "survive" | "censored"
    time: float
    x_final: float
    diffusion_ruin: bool = False


def simulate_path(x0, policy, params, law, config, rng):
    """Scalar reference simulation of one path, for auditing the engine's
    stepping rules: volatility-capped Euler steps split at claim epochs."""
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


def test_lundberg_formula_values():
    # psi(x) = 0.45 exp(-0.55 x) for c = 0.2, lambda = 0.09, m = 1
    assert lundberg_ruin_probability(0.2, 0.09, 1.0, 0.0) == pytest.approx(0.45)
    assert lundberg_ruin_probability(0.2, 0.09, 1.0, 2.0) == pytest.approx(
        0.45 * np.exp(-1.1))
    assert 1 - lundberg_ruin_probability(0.2, 0.09, 1.0, 2.0) == pytest.approx(
        0.8502, abs=1e-4)


def test_oracle_survival_matches_lundberg_quick():
    cfg = SimConfig(n_paths=20_000, rng_seed=77)
    rep = estimate_survival([0.0, 2.0], ConstantPolicy(0.0, ORACLE), ORACLE, LAW, cfg)
    for row in rep.rows:
        ref = 1.0 - float(lundberg_ruin_probability(0.2, 0.09, 1.0, row["x0"]))
        assert abs(row["p_hat"] - ref) <= 2.0 * row["ci_half"]


@pytest.mark.slow
def test_determinism_bit_identical():
    cfg = SimConfig(n_paths=4_000, rng_seed=123)
    pol = ConstantPolicy(0.5, ORACLE)
    r1 = estimate_survival([1.0, 3.0], pol, ORACLE, LAW, cfg)
    r2 = estimate_survival([1.0, 3.0], pol, ORACLE, LAW, cfg)
    assert r1.rows == r2.rows


def test_identical_policies_share_randomness(example1, curve1):
    # two constant policies with the same fraction but different labels get
    # identical estimates under the shared streams
    cfg = SimConfig(n_paths=3_000, rng_seed=5, horizon=200.0, upper_barrier=60.0)
    p1 = ConstantPolicy(0.4, example1, label="first")
    p2 = ConstantPolicy(0.4, example1, label="second")
    rep = compare_policies([2.0], [p1, p2], example1, ExponentialClaims(1.0), cfg)
    a = rep.lookup(2.0, "first")
    b = rep.lookup(2.0, "second")
    assert a["p_hat"] == b["p_hat"]
    assert a["censored_frac"] == b["censored_frac"]


def test_single_policy_table_is_degenerate_but_valid(example1):
    cfg = SimConfig(n_paths=500, rng_seed=9, horizon=100.0, upper_barrier=60.0)
    rep = compare_policies([1.0], [ConstantPolicy(0.0, example1)], example1,
                           ExponentialClaims(1.0), cfg)
    assert len(rep.rows) == 1


def test_zero_paths_gives_empty_report(example1):
    cfg = SimConfig(n_paths=0)
    rep = estimate_survival([1.0], ConstantPolicy(0.0, example1), example1,
                            ExponentialClaims(1.0), cfg)
    assert rep.rows == []


def test_negative_paths_refused(example1):
    with pytest.raises(ValueError, match="n_paths must be non-negative, got -5"):
        estimate_survival([1.0], ConstantPolicy(0.0, example1), example1,
                          ExponentialClaims(1.0), SimConfig(n_paths=-5))


def test_feedback_policy_admissibility(example1, curve1):
    pol = FeedbackPolicy(curve1, example1)
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 2000.0, 5_000)
    th = pol.theta(x)
    assert np.all(th >= -example1.b - 1e-12)
    assert np.all(th <= example1.a + 1e-12)


def test_clamped_feedback_window(example1, curve1):
    pol = FeedbackPolicy(curve1, example1, clamp=(0.0, 1.0))
    x = np.linspace(0.0, 50.0, 400)
    th = pol.theta(x)
    assert th.min() >= 0.0 and th.max() <= 1.0


def test_feedback_lookup_bitwise(example1, curve1):
    # the sorted lookup returns np.interp's bits on the unsorted input, on
    # both sides of the size threshold
    xs, th_star = curve1.x, np.clip(curve1.theta_star, -example1.b, example1.a)
    first = np.flatnonzero(curve1.regime[1:] != curve1.regime[:-1]) + 1  # node after a switch
    assert len(first) == 3  # A | B | A | INT
    straddle = np.concatenate([np.linspace(xs[i - 2], xs[i + 1], 61) for i in first]
                              + [np.nextafter(xs[first], 0.0),
                                 np.nextafter(xs[first - 1], np.inf)])
    special = np.concatenate([xs, straddle, [0.0, -0.0, xs[-1], np.nextafter(xs[-1], np.inf),
                                             1.5 * xs[-1], 500.0]])
    rng = np.random.default_rng(11)
    for n in (SORTED_LOOKUP_MIN - 1, SORTED_LOOKUP_MIN, 4096):
        random = rng.uniform(0.0, 1.5 * xs[-1], n)
        inputs = {"random": random,
                  "special": rng.choice(special, n),
                  "duplicates": rng.choice(random[:max(n // 20, 1)], n),
                  "straddle": rng.choice(straddle, n)}
        for clamp in (None, (0.0, 1.0)):
            pol = FeedbackPolicy(curve1, example1, clamp=clamp)
            for name, x in inputs.items():
                ref = np.interp(x, xs, th_star)
                if clamp is not None:
                    ref = np.clip(ref, *clamp)
                assert pol.theta(x).tobytes() == ref.tobytes(), (n, clamp, name)
    # every node at once, shuffled
    x = rng.permutation(xs)
    assert FeedbackPolicy(curve1, example1).theta(x).tobytes() == np.interp(
        x, xs, th_star).tobytes()


def test_constant_policy_rejects_inadmissible(example1):
    with pytest.raises(ValueError):
        ConstantPolicy(example1.a + 0.5, example1)


def test_simulate_path_outcomes_and_determinism(example1):
    cfg = SimConfig(n_paths=1, horizon=50.0, upper_barrier=40.0)
    pol = ConstantPolicy(0.5, example1)
    law = ExponentialClaims(1.0)
    o1 = simulate_path(2.0, pol, example1, law, cfg, np.random.default_rng(42))
    o2 = simulate_path(2.0, pol, example1, law, cfg, np.random.default_rng(42))
    assert o1 == o2
    assert o1.kind in ("ruin", "survive", "censored")
    with pytest.raises(ValueError):
        simulate_path(-1.0, pol, example1, law, cfg, np.random.default_rng(0))


def test_sure_survival_with_huge_premium():
    # overwhelming premium and a tiny horizon: the drift dominates any claim
    p = ModelParams(c=50.0, lam=0.01, mu=0.02, r=0.015, sigma=0.1, a=1.0, b=1.0)
    cfg = SimConfig(n_paths=200, rng_seed=4, horizon=10.0, upper_barrier=30.0)
    rep = estimate_survival([1.0], ConstantPolicy(0.0, p), p,
                            ExponentialClaims(0.01), cfg)
    assert rep.rows[0]["p_hat"] == 1.0


def test_scalar_and_vector_engines_agree_statistically(example1):
    # short-horizon configuration keeps the scalar reference affordable
    law = ExponentialClaims(1.0)
    cfg = SimConfig(n_paths=600, rng_seed=31, horizon=60.0, upper_barrier=50.0)
    pol = ConstantPolicy(0.5, example1)
    rep = estimate_survival([3.0], pol, example1, law, cfg)
    rng = np.random.default_rng(99)
    outcomes = [simulate_path(3.0, pol, example1, law, cfg, rng) for _ in range(600)]
    p_scalar = np.mean([o.kind != "ruin" for o in outcomes])
    row = rep.rows[0]
    width = row["ci_half"] + 1.96 * np.sqrt(p_scalar * (1 - p_scalar) / 600)
    assert abs(row["p_hat"] - p_scalar) <= 2.0 * width


@pytest.mark.slow
def test_halving_euler_dt_stable(example1, curve1):
    pol = FeedbackPolicy(curve1, example1)
    law = ExponentialClaims(1.0)
    base = SimConfig(n_paths=20_000, rng_seed=13)
    half = SimConfig(n_paths=20_000, rng_seed=13, euler_dt=0.005 / example1.lam)
    r1 = estimate_survival([5.0], pol, example1, law, base)
    r2 = estimate_survival([5.0], pol, example1, law, half)
    assert abs(r1.rows[0]["p_hat"] - r2.rows[0]["p_hat"]) <= r1.rows[0]["ci_half"]


def test_euler_dt_cap_enforced(example1):
    cfg = SimConfig(n_paths=10, euler_dt=1.0)  # above 0.01/lambda
    with pytest.raises(ValueError):
        estimate_survival([1.0], ConstantPolicy(0.0, example1), example1,
                          ExponentialClaims(1.0), cfg)


def test_barrier_floor_enforced(example1):
    cfg = SimConfig(n_paths=10, upper_barrier=5.0)
    with pytest.raises(ValueError):
        estimate_survival([1.0], ConstantPolicy(0.0, example1), example1,
                          ExponentialClaims(1.0), cfg)


@pytest.mark.parametrize("field, value", [
    ("euler_dt", 0.0), ("euler_dt", -1e-3), ("euler_dt", math.nan),
    ("horizon", -5.0), ("horizon", math.nan), ("horizon", math.inf),
    ("upper_barrier", math.nan), ("upper_barrier", math.inf)])
def test_sim_config_refuses_non_finite_or_non_positive(example1, field, value):
    # refused by name before any path: euler_dt 0 or NaN would hang the Euler
    # loop on its 1e-15 step floor, a NaN barrier would count every path as a
    # censored survivor, and a NaN or negative horizon fails in int() or log()
    cfg = SimConfig(n_paths=16, **{field: value})
    with pytest.raises(ValueError, match=f"{field} must be finite and positive, got"):
        cfg.resolved(example1, [1.0])


@pytest.mark.parametrize("x0", [math.nan, math.inf])
def test_sim_config_refuses_non_finite_x0(example1, x0):
    with pytest.raises(ValueError, match="x0 must be finite"):
        SimConfig(n_paths=16).resolved(example1, [1.0, x0])


def test_report_csv_schema(tmp_path, example1):
    cfg = SimConfig(n_paths=300, rng_seed=1, horizon=50.0, upper_barrier=40.0)
    rep = estimate_survival([1.0, 2.0], ConstantPolicy(0.0, example1), example1,
                            ExponentialClaims(1.0), cfg)
    out = tmp_path / "report.csv"
    rep.to_csv(out, manifest_hash="abc")
    lines = out.read_text().splitlines()
    assert lines[0] == "# manifest: abc"
    assert lines[1] == "x0,policy,p_hat,ci_half,n,censored_frac"
    assert len(lines) == 4


# survivors (n_surv + n_cens), censored and diffusion-ruined paths, measured
# at commit 3bfc7f9 with numpy 2.4.6, before the exact theta = 0 path and the
# Euler path were merged into one engine; the random-stream layout is
# unchanged, so the counts are exact
ORACLE_ZERO = {0.0: (11110, 0, 0), 1.0: (14736, 0, 0), 2.0: (16971, 0, 0),
               5.0: (19438, 0, 0)}
EXAMPLE1_ZERO = {1.0: (651, 0, 0), 5.0: (12050, 0, 0), 10.0: (19395, 0, 0)}
EXAMPLE1_MIXED = {"half": (568, 460, 0), "zero": (446, 446, 0), "short": (96, 0, 0)}
EXAMPLE1_TWO_CHUNKS = {"half": (7741, 7741, 0), "zero": (7517, 7517, 0)}


def _counts(rep, key):
    """Report rows as {row[key]: (survivors, censored, diffusion-ruined)}."""
    return {row[key]: tuple(round(row[f] * row["n"]) for f in
                            ("p_hat", "censored_frac", "diffusion_ruin_frac"))
            for row in rep.rows}


@pytest.mark.parametrize("threads", [1, 2])
def test_engine_counts_pinned(example1, threads):
    cfg = SimConfig(n_paths=20_000, rng_seed=77, threads=threads)
    # two chunks on the exact claim-to-claim flow, r = 0 then r > 0
    rep = estimate_survival(list(ORACLE_ZERO), ConstantPolicy(0.0, ORACLE), ORACLE, LAW, cfg)
    assert _counts(rep, "x0") == ORACLE_ZERO
    rep = estimate_survival(list(EXAMPLE1_ZERO), ConstantPolicy(0.0, example1), example1,
                            LAW, cfg)
    assert _counts(rep, "x0") == EXAMPLE1_ZERO
    # Euler and exact policies on one shared claim table
    cfg = SimConfig(n_paths=3_000, rng_seed=5, horizon=200.0, upper_barrier=60.0,
                    threads=threads)
    policies = [ConstantPolicy(0.5, example1, "half"), ConstantPolicy(0.0, example1, "zero"),
                ConstantPolicy(-20.0, example1, "short")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # half and zero are censored
        rep = compare_policies([2.0], policies, example1, LAW, cfg)
        assert _counts(rep, "policy") == EXAMPLE1_MIXED
        # two chunks, Euler and exact
        cfg = SimConfig(n_paths=16_484, rng_seed=3, horizon=50.0, upper_barrier=40.0,
                        threads=threads)
        rep = compare_policies([2.0], policies[:2], example1, LAW, cfg)
        assert _counts(rep, "policy") == EXAMPLE1_TWO_CHUNKS


class _CountingPolicy(Policy):
    """Delegating policy: one theta call is one engine iteration, and each
    surplus it is given is one path-step."""

    def __init__(self, inner):
        self._inner, self.label = inner, inner.label
        self.iterations = self.path_steps = 0
        self._lock = threading.Lock()  # chunks may run on worker threads

    def theta(self, x):
        with self._lock:
            self.iterations += 1
            self.path_steps += x.size
        return self._inner.theta(x)

    def fingerprint(self):
        return self._inner.fingerprint()


# the optimal feedback policy of example 1 and its clamp=(0, 1) variant:
# per x0 (survivors, censored, diffusion-ruined), then the engine iterations
# and path-steps summed over x0 and chunks; measured at commit e2e3582 with
# numpy 2.4.6, and re-drawn when Radau took over the interior march, when it
# took over every regime and when the march came to start at X0 = 1e-6 (the
# policy's fingerprint hashes the curve's nodes; old -> new in CHANGES.md)
FEEDBACK_ONE_CHUNK = {  # 1,000 paths, horizon 200, barrier 100, seed 77
    None: ({1.0: (128, 128, 0), 5.0: (701, 684, 0), 10.0: (979, 303, 0)}, 30_090, 5_771_566),
    (0.0, 1.0): ({1.0: (47, 47, 0), 5.0: (642, 618, 0), 10.0: (970, 298, 0)}, 5_450, 3_397_081),
}
FEEDBACK_TWO_CHUNKS = {  # 16,484 paths, horizon 50, barrier 100, seed 77
    None: ({1.0: (3201, 3201, 0), 5.0: (13418, 13418, 0), 10.0: (16339, 16339, 0)},
           40_992, 50_930_028),
    (0.0, 1.0): ({1.0: (4153, 4153, 0), 5.0: (14276, 14276, 0), 10.0: (16386, 16386, 0)},
                 2_741, 18_341_605),
}


def _check_feedback_pins(example1, curve1, pins, n_paths, horizon, threads):
    cfg = SimConfig(n_paths=n_paths, rng_seed=77, horizon=horizon, upper_barrier=100.0,
                    threads=threads)
    for clamp, (counts, iterations, path_steps) in pins.items():
        pol = _CountingPolicy(FeedbackPolicy(curve1, example1, clamp=clamp))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the short horizon censors
            rep = estimate_survival(list(counts), pol, example1, LAW, cfg)
        assert _counts(rep, "x0") == counts
        assert (pol.iterations, pol.path_steps) == (iterations, path_steps)


@pytest.mark.parametrize("threads", [1, 2])
def test_feedback_counts_pinned(example1, curve1, threads):
    _check_feedback_pins(example1, curve1, FEEDBACK_ONE_CHUNK, 1_000, 200.0, threads)


@pytest.mark.slow
@pytest.mark.parametrize("threads", [1, 2])
def test_feedback_counts_pinned_two_chunks(example1, curve1, threads):
    _check_feedback_pins(example1, curve1, FEEDBACK_TWO_CHUNKS, 16_484, 50.0, threads)


def test_report_work_counters(example1):
    # each row's iterations and path-steps are the engine's, summed over chunks
    cfg = SimConfig(n_paths=CHUNK_PATHS + 100, rng_seed=8, horizon=20.0, upper_barrier=40.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the short horizon censors
        for x0 in (2.0, 3.0):
            pol = _CountingPolicy(ConstantPolicy(0.5, example1))
            row = estimate_survival([x0], pol, example1, LAW, cfg).rows[0]
            assert (row["iterations"], row["path_steps"]) == (pol.iterations, pol.path_steps)
            assert pol.path_steps > pol.iterations > 0
        # the exact theta = 0 flow counts its claim-to-claim steps
        row = estimate_survival([2.0], ConstantPolicy(0.0, example1), example1, LAW,
                                cfg).rows[0]
    assert row["path_steps"] >= row["n"] and row["iterations"] >= 2


def test_censoring_warns(example1):
    cfg = SimConfig(n_paths=3_000, rng_seed=5, horizon=200.0, upper_barrier=60.0)
    with pytest.warns(RuntimeWarning, match=r"x0 = 2, policy const\(0.5\): 15.3%"):
        estimate_survival([2.0], ConstantPolicy(0.5, example1), example1, LAW, cfg)
    # the oracle check's configuration censors no path
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = estimate_survival([0.0, 2.0], ConstantPolicy(0.0, ORACLE), ORACLE, LAW,
                                SimConfig(n_paths=20_000, rng_seed=77))
    assert all(row["censored_frac"] == 0.0 for row in rep.rows)


def _full_draw(params, law, horizon, seed, x0_key, chunk_id, n):
    """The whole (n, k_cols) claim table in two generator calls: the layout
    that the kept columns must reproduce."""
    lam_t = params.lam * horizon
    k_cols = int(lam_t + 10.0 * math.sqrt(lam_t) + 30)
    rng = np.random.default_rng([seed, 17, x0_key, chunk_id])
    epochs = np.cumsum(rng.exponential(1.0 / params.lam, (n, k_cols)), axis=1)
    return epochs, law.sample(rng, n * k_cols).reshape(n, k_cols)


@pytest.mark.parametrize("block", [1, 7, 300, simulator.CLAIM_BLOCK])
def test_claim_table_keeps_the_full_draws_bits(example1, monkeypatch, block):
    # every kept column, before and after each re-draw, is the full draw's
    monkeypatch.setattr(simulator, "CLAIM_BLOCK", block)
    monkeypatch.setattr(simulator, "CLAIM_COLS", 3)
    epochs, sizes = _full_draw(example1, LAW, 200.0, 77, 2, 1, 300)
    table = simulator._ClaimTable(example1, LAW, 200.0, 77, 2, 1, 300)
    assert table.k_cols == epochs.shape[1] == 90
    kept = [table.epochs.shape[1]]
    while table.widen():
        kept.append(table.epochs.shape[1])
        cols = kept[-1]
        assert table.epochs.tobytes() == np.ascontiguousarray(epochs[:, :cols]).tobytes()
        assert table.sizes.tobytes() == np.ascontiguousarray(sizes[:, :cols]).tobytes()
    assert kept == [3, 6, 12, 24, 48, 90]
    assert not table.widen() and table.epochs.shape == (300, 90)  # all kept: no more


def test_claim_columns_exhausted_still_raised(example1, monkeypatch):
    # a path that needs a column past k_cols ends the run, as with a full table
    monkeypatch.setattr(simulator, "CLAIM_COLS", 1)
    table = simulator._ClaimTable(example1, LAW, 200.0, 77, 0, 0, 50)
    table.k_cols = 2
    with pytest.raises(RuntimeError, match="claim columns exhausted"):
        simulator._run_chunk(1.0, ConstantPolicy(0.0, example1), example1, 200.0, 100.0,
                             0.1, table, np.random.default_rng(0))
    assert table.epochs.shape == (50, 2)


@pytest.mark.parametrize("threads", [1, 2])
def test_redrawn_tables_give_the_same_rows(example1, curve1, monkeypatch, threads):
    # with one column kept at first every table re-draws several times; each
    # row, its work counters included, keeps the default run's values
    widen, calls = simulator._ClaimTable.widen, []

    def counted(table):
        calls.append(table.epochs.shape[1])
        return widen(table)

    monkeypatch.setattr(simulator._ClaimTable, "widen", counted)
    monkeypatch.setattr(simulator, "CHUNK_PATHS", 400)  # 600 paths make two chunks
    policies = [FeedbackPolicy(curve1, example1), ConstantPolicy(example1.a, example1, "const(a)")]
    for n_paths in (400, 600):
        cfg = SimConfig(n_paths=n_paths, rng_seed=77, horizon=200.0, upper_barrier=100.0,
                        threads=threads)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the short horizon censors
            rows = {}
            for cols in (CLAIM_COLS, 1):
                monkeypatch.setattr(simulator, "CLAIM_COLS", cols)
                calls.clear()
                rows[cols] = [estimate_survival([1.0, 5.0], pol, example1, LAW, cfg).rows
                              for pol in policies]
                tables = 2 * 2 * -(-n_paths // 400)  # policies x x0 x chunks
                assert calls.count(1) == (tables if cols == 1 else 0)
        assert len(calls) >= 4 * tables  # 1 -> 2 -> 4 -> 8 -> 16 at least
        assert rows[1] == rows[CLAIM_COLS]


def test_claim_table_memory_bound(example1):
    # one full chunk of example 1 at the default horizon 400/lambda keeps
    # 2 x 16,384 x 128 doubles (33.6 MB); the full 630 columns took 165 MB
    horizon, _, _ = SimConfig().resolved(example1, [10.0])
    tracemalloc.start()
    try:
        table = simulator._ClaimTable(example1, LAW, horizon, 1, 0, 0, CHUNK_PATHS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.k_cols == 630
    assert table.epochs.shape == table.sizes.shape == (CHUNK_PATHS, 128)
    assert peak < 40e6, peak
