"""Model parameters and claim-size laws for the constrained-investment surplus model.

The insurer's surplus follows a compound-Poisson risk process (premium rate c,
claim intensity lambda, i.i.d. positive claims) and a fraction theta of the
surplus may be invested in a geometric-Brownian risky asset (drift mu,
volatility sigma), the remainder earning the risk-free rate r.  The investment
fraction is constrained to [-b, a]: at most a times the surplus long, at most
b times the surplus short.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ModelParams",
    "ClaimLaw",
    "ExponentialClaims",
    "GeneralClaims",
    "RegimeConstants",
    "ValidationReport",
    "validate",
    "regime_constants",
    "convex_start_condition",
]


@dataclass(frozen=True)
class ModelParams:
    """Exogenous constants of the surplus model.

    c      premium rate per unit time (> 0)
    lam    claim arrival intensity per unit time (> 0)
    mu     risky-asset drift per unit time (any sign relative to r)
    r      risk-free rate per unit time (> 0; r = 0 only in simulator
           oracle mode, never for the HJB solvers)
    sigma  risky-asset volatility per sqrt-time (> 0)
    a      maximal long fraction of surplus (> 0)
    b      maximal short fraction of surplus (> 0; b = 0 is not allowed)

    No ordering of mu and r is assumed; the sign of mu - r selects the
    starting regime and the switching case tables.
    """

    c: float
    lam: float
    mu: float
    r: float
    sigma: float
    a: float
    b: float


@dataclass(frozen=True)
class RegimeConstants:
    """Effective drift and volatility of a constant-fraction regime.

    For fraction gamma the invested surplus has drift r + gamma*(mu - r)
    and volatility |gamma|*sigma:

        gamma = a :  mu_bar = a*mu + (1 - a)*r,   sigma_bar = a*sigma
        gamma = -b:  mu_bar = -b*mu + (1 + b)*r,  sigma_bar = b*sigma
    """

    gamma: float
    mu_bar: float
    sigma_bar: float


def regime_constants(params: ModelParams, gamma: float) -> RegimeConstants:
    """Effective (mu_bar, sigma_bar) of the constant regime gamma in {a, -b}."""
    if not (gamma == params.a or gamma == -params.b):
        raise ValueError(f"gamma must be a={params.a} or -b={-params.b}, got {gamma}")
    mu_bar = params.r + gamma * (params.mu - params.r)
    sigma_bar = abs(gamma) * params.sigma
    return RegimeConstants(gamma=gamma, mu_bar=mu_bar, sigma_bar=sigma_bar)


class ClaimLaw:
    """Claim-size distribution on (0, inf) with continuous density and finite mean."""

    mean: float

    def pdf(self, s):
        raise NotImplementedError

    def cdf(self, s):
        raise NotImplementedError

    def pdf_derivative(self, s):
        """d/ds of the density; numerical fallback, overridden where analytic.

        One-sided near s = 0 where the density has no left extension.  The
        step is per element, so a batched call agrees with scalar calls.
        """
        s = np.asarray(s, dtype=float)
        eps = 1e-6 * np.maximum(1.0, s)
        up = self.pdf(s + eps)
        central = (up - self.pdf(s - eps)) / (2 * eps)
        onesided = (up - self.pdf(s)) / eps
        return np.where(s - eps >= 0, central, onesided)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """`size` claim sizes, drawn element by element from `rng`.

        Calls of sizes a and then b return the draws of one call of size
        a + b; the simulator's claim tables draw in row blocks and rely on
        this.  A sampler that breaks it still gives valid estimates, but not
        the bits of a single draw.
        """
        raise NotImplementedError

    @property
    def density_at_zero(self) -> float:
        """Right limit f(0+), used in the second-derivative boundary value."""
        return float(self.pdf(1e-12))


class ExponentialClaims(ClaimLaw):
    """Exponential claim sizes with mean m: f(s) = exp(-s/m)/m."""

    def __init__(self, mean: float):
        if mean <= 0:
            raise ValueError("claim mean must be positive")
        self.mean = float(mean)

    def pdf(self, s):
        s = np.asarray(s, dtype=float)
        return np.where(s >= 0, np.exp(-s / self.mean) / self.mean, 0.0)

    def cdf(self, s):
        s = np.asarray(s, dtype=float)
        return np.where(s >= 0, 1.0 - np.exp(-s / self.mean), 0.0)

    def pdf_derivative(self, s):
        return -self.pdf(s) / self.mean

    def sample(self, rng, size):
        return rng.exponential(self.mean, size)

    @property
    def density_at_zero(self) -> float:
        return 1.0 / self.mean

    def __repr__(self):
        return f"ExponentialClaims(mean={self.mean})"


class GeneralClaims(ClaimLaw):
    """User-supplied claim law: density, cdf and declared mean (no fitting).

    A sampler is optional; without one, draws fall back to inverse-transform
    by vectorised bisection on the cdf.
    """

    def __init__(
        self,
        pdf: Callable[[np.ndarray], np.ndarray],
        cdf: Callable[[np.ndarray], np.ndarray],
        mean: float,
        sampler: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None,
        pdf_derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        if mean <= 0:
            raise ValueError("claim mean must be positive")
        self._pdf = pdf
        self._cdf = cdf
        self.mean = float(mean)
        self._sampler = sampler
        self._dpdf = pdf_derivative

    def pdf(self, s):
        return np.asarray(self._pdf(np.asarray(s, dtype=float)), dtype=float)

    def cdf(self, s):
        return np.asarray(self._cdf(np.asarray(s, dtype=float)), dtype=float)

    def pdf_derivative(self, s):
        if self._dpdf is not None:
            return np.asarray(self._dpdf(np.asarray(s, dtype=float)), dtype=float)
        return super().pdf_derivative(s)

    def sample(self, rng, size):
        if self._sampler is not None:
            return np.asarray(self._sampler(rng, size), dtype=float)
        # inverse transform by bisection; upper bracket grown geometrically
        u = rng.random(size)
        lo = np.zeros(size)
        hi = np.full(size, max(1.0, 10.0 * self.mean))
        grow = self.cdf(hi) < u
        while np.any(grow):
            hi[grow] *= 2.0
            grow = self.cdf(hi) < u
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    def __repr__(self):
        return f"GeneralClaims(mean={self.mean})"


@dataclass
class ValidationReport:
    """Outcome of parameter/claim-law validation."""

    ok: bool
    violations: list = field(default_factory=list)
    convex_start: Optional[bool] = None  # exponential law only


def validate(params: ModelParams, law: ClaimLaw, oracle_mode: bool = False) -> ValidationReport:
    """Check the standing model assumptions; list every violation found.

    oracle_mode permits r = 0 so the simulator can be checked against the
    classical no-investment ruin formula; the HJB solvers always require r > 0.
    """
    v: list = []
    for name in ("c", "lam", "sigma", "a", "b"):
        if getattr(params, name) <= 0:
            v.append(f"{name} must be strictly positive (got {getattr(params, name)})")
    if params.r <= 0:
        if not (oracle_mode and params.r == 0):
            v.append(f"r must be strictly positive (got {params.r}); r = 0 requires oracle mode")
    if law.mean <= 0:
        v.append("claim mean must be positive")

    # density must integrate to 1 over (0, inf) within quadrature tolerance; quad
    # passes the built-in exponential density for every mean in [1e-3, 1e4]
    if not (type(law) is ExponentialClaims and 1e-3 <= law.mean <= 1e4):
        from scipy.integrate import quad
        try:
            total, _ = quad(lambda s: float(law.pdf(s)), 0.0, np.inf, limit=200)
            if not abs(total - 1.0) <= 1e-6:  # a NaN integral fails too
                v.append(f"claim density integrates to {total:.8f}, not 1 within 1e-6")
        except Exception as exc:  # non-integrable user density
            v.append(f"claim density quadrature failed: {exc}")

    convex = None
    if isinstance(law, ExponentialClaims) and not v:
        convex = convex_start_condition(params, law.mean)
    return ValidationReport(ok=not v, violations=v, convex_start=convex)


def convex_start_condition(params: ModelParams, m: float) -> bool:
    """Whether m*(a*mu + (1-a)*r - lambda) + c < 0 for exponential claims.

    When it holds the value function starts out convex at zero surplus
    (V''(0+) > 0 in the maximal-long regime), which is what produces the
    long -> short -> long switching pattern for mu > r and large b.
    """
    return m * (regime_constants(params, params.a).mu_bar - params.lam) + params.c < 0


def require_valid(params: ModelParams, law: ClaimLaw) -> None:
    """Raise ValueError with all violations if the configuration is invalid."""
    rep = validate(params, law)
    if not rep.ok:
        raise ValueError("invalid model configuration: " + "; ".join(rep.violations))
