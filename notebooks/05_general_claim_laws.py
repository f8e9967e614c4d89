"""Beyond exponential claims: the continuation path for arbitrary densities.

For a general claim density the value function is continued from a small
constant-regime table by integrating the first-order equation w' = Tw, where
T is the curvature infimum over admissible fractions; the infimum's argument
doubles as the optimal policy, so the regime structure falls out without any
event handling.

With an exponential density the continuation must match the dedicated fast
path; a mixture of exponentials shows the same switching phenomenon with a
heavier tail.
"""
import numpy as np

from ruinvest import (ExponentialClaims, GeneralClaims, ModelParams,
                      general_solve, solve)

params = ModelParams(c=0.02, lam=0.09, mu=0.02, r=0.015, sigma=0.1, a=1.0, b=20.0)

# --- cross-check on the exponential law --------------------------------------
exp_law = ExponentialClaims(1.0)
fast = solve(params, 1.0)
cont = general_solve(params, exp_law, x_max=22.0)
xs = np.linspace(0.0, 20.0, 200)
gap = np.max(np.abs(cont.value(xs) - fast.value(xs)) / fast.value(xs))
print(f"continuation vs fast path, max relative gap in V on [0, 20]: {gap:.2e}")
print("continuation regime chain:", " -> ".join(s.regime for s in cont.segments))

# --- a mixture law ------------------------------------------------------------
mixture = GeneralClaims(
    pdf=lambda s: 0.5 * np.exp(-s) + 0.25 * np.exp(-s / 2.0),
    cdf=lambda s: 1.0 - 0.5 * np.exp(-s) - 0.5 * np.exp(-s / 2.0),
    mean=1.5,
    sampler=lambda rng, size: np.where(rng.random(size) < 0.5,
                                       rng.exponential(1.0, size),
                                       rng.exponential(2.0, size)),
    pdf_derivative=lambda s: -0.5 * np.exp(-s) - 0.125 * np.exp(-s / 2.0),
)
cur = general_solve(params, mixture, x_max=30.0)
print("\nmixture of exponentials (mean 1.5):")
print("  regime chain:", " -> ".join(s.regime for s in cur.segments))
print(f"  switch points: {[f'{x:.4f}' for x in cur.switch_points]}")
# V(inf) is V at x_max = 30; the tail mode says whether the mass beyond is bounded
print(f"  V(inf) = {cur.V_inf:.4f} (tail {cur.meta['tail']['mode']}); "
      f"survival(5) = {float(cur.survival(5.0)):.4f}")
print("""
The heavier claim tail stretches the maximal-short stretch (the volatility
gamble stays attractive longer) and lowers survival at every surplus level
relative to the mean-1 exponential law.
""")
