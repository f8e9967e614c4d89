"""Solution curves of the HJB equation and their serialisation.

A solved curve tabulates (x, V, V', V'', J, phi, theta_star, regime) on the
integrator's grid together with the regime segmentation, the extrapolated
limit V(inf), and residual diagnostics.  Curves serialise to a CSV table plus
a JSON sidecar; the survival probability is V(x)/V(inf).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

__all__ = ["RegimeSegment", "SolutionCurve", "segments_from_regimes"]

REGIME_LONG = "A"      # maximal long fraction a
REGIME_SHORT = "B"     # maximal short fraction -b
REGIME_INTERIOR = "INT"
REGIME_ZERO = "ZERO"   # no investment; only occurs when mu = r

CSV_HEADER = "x,V,Vp,Vpp,J,phi,theta_star,regime"


@dataclass(frozen=True)
class RegimeSegment:
    """One maximal interval on which a single regime is active."""

    lo: float
    hi: float
    regime: str
    terminal_event: str  # switch condition that ended the segment

    def __contains__(self, x):
        return self.lo <= x <= self.hi


def segments_from_regimes(x, regime, last_event: str) -> list[RegimeSegment]:
    """Maximal runs of equal labels in the regime column, ended by "switch"."""
    segments = []
    lo = x[0]
    for i in range(1, len(x)):
        if regime[i] != regime[i - 1]:
            segments.append(RegimeSegment(lo, x[i], str(regime[i - 1]), "switch"))
            lo = x[i]
    segments.append(RegimeSegment(lo, x[-1], str(regime[-1]), last_event))
    return segments


@dataclass
class SolutionCurve:
    """Grid representation of a solved value function."""

    x: np.ndarray
    V: np.ndarray
    Vp: np.ndarray
    Vpp: np.ndarray
    J: np.ndarray
    phi: np.ndarray          # policy indicator (nan where undefined)
    theta_star: np.ndarray
    regime: np.ndarray       # array of strings A/B/INT/ZERO
    segments: list[RegimeSegment]
    V_inf: float
    params: Optional[object] = None   # ModelParams echo
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self._V_interp = PchipInterpolator(self.x, self.V, extrapolate=False)
        self._theta_interp = None

    # -- evaluation ---------------------------------------------------------

    def value(self, xq):
        """V at xq (pchip between nodes, V_inf beyond the grid)."""
        xq = np.asarray(xq, dtype=float)
        out = self._V_interp(np.clip(xq, self.x[0], self.x[-1]))
        return np.where(xq > self.x[-1], self.V[-1], out)

    def survival(self, xq):
        """Survival probability V(xq)/V(inf)."""
        return self.value(xq) / self.V_inf

    def theta(self, xq):
        """Optimal fraction at xq; clamped to the last grid value beyond it."""
        xq = np.asarray(xq, dtype=float)
        return np.interp(xq, self.x, self.theta_star)

    @property
    def switch_points(self) -> list[float]:
        return [s.hi for s in self.segments[:-1]]

    # -- serialisation ------------------------------------------------------

    def to_csv(self, path, manifest_hash: str = "") -> None:
        cols = [a.tolist() for a in (self.x, self.V, self.Vp, self.Vpp, self.J, self.phi,
                                     self.theta_star, self.regime)]
        row = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s\n"
        with open(path, "w") as fh:
            if manifest_hash:
                fh.write(f"# manifest: {manifest_hash}\n")
            fh.write(CSV_HEADER + "\n")
            fh.write("".join([row % r for r in zip(*cols)]))

    @classmethod
    def from_csv(cls, path) -> "SolutionCurve":
        """Re-read a curve table; segments are reconstructed from the regime column."""
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#") or line.startswith("x,"):
                    continue
                rows.append(line.split(","))
        cols = list(zip(*rows))
        x, V, Vp, Vpp, J, phi, theta = np.array(cols[:7], dtype=float)
        regime = np.array(cols[7])
        return cls(x=x, V=V, Vp=Vp, Vpp=Vpp, J=J, phi=phi, theta_star=theta, regime=regime,
                   segments=segments_from_regimes(x, regime, "end"), V_inf=float(V[-1]))

    def sidecar(self) -> dict:
        """JSON-serialisable metadata: limit, switch points, diagnostics."""
        d = {
            "V_inf": self.V_inf,
            "switch_points": self.switch_points,
            "segments": [
                {"lo": s.lo, "hi": s.hi, "regime": s.regime, "terminal_event": s.terminal_event}
                for s in self.segments
            ],
        }
        if self.params is not None:
            p = self.params
            d["params"] = {"c": p.c, "lambda": p.lam, "mu": p.mu, "r": p.r,
                           "sigma": p.sigma, "a": p.a, "b": p.b}
        d.update(self.meta)
        return d

    def to_json(self, path, manifest: Optional[dict] = None) -> None:
        d = self.sidecar()
        if manifest is not None:
            d["manifest"] = manifest
        with open(path, "w") as fh:
            json.dump(d, fh, indent=2, sort_keys=True)
            fh.write("\n")
