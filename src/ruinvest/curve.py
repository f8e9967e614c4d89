"""Solution curves of the HJB equation and their serialisation.

A solved curve tabulates (x, V, V', V'', J, phi, theta_star, regime) on the
integrator's grid together with the regime segmentation, the extrapolated
limit V(inf), and residual diagnostics.  Curves serialise to a CSV table plus
a JSON sidecar; the survival probability is V(x)/V(inf).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

__all__ = ["RegimeSegment", "SolutionCurve", "segments_from_regimes"]

REGIME_LONG = "A"      # maximal long fraction a
REGIME_SHORT = "B"     # maximal short fraction -b
REGIME_INTERIOR = "INT"
REGIME_ZERO = "ZERO"   # no investment; only occurs when mu = r

CSV_HEADER = "x,V,Vp,Vpp,J,phi,theta_star,regime"
MANIFEST_TAG = "# manifest: "
CSV_BLOCK = 4096      # rows formatted per write


@dataclass(frozen=True)
class RegimeSegment:
    """One maximal interval on which a single regime is active."""

    lo: float
    hi: float
    regime: str
    terminal_event: str  # switch condition that ended the segment


def segments_from_regimes(x, regime, last_event: str) -> list[RegimeSegment]:
    """Maximal runs of equal labels in the regime column, ended by "switch"."""
    regime = np.asarray(regime)
    cut = np.flatnonzero(regime[1:] != regime[:-1]) + 1
    lo, hi = [0, *cut], [*cut, len(x) - 1]
    events = ["switch"] * len(cut) + [last_event]
    return [RegimeSegment(x[i], x[j], str(regime[i]), e) for i, j, e in zip(lo, hi, events)]


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

    # -- evaluation ---------------------------------------------------------

    def value(self, xq):
        """V at xq (pchip between nodes, V at the last node beyond the grid)."""
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
        row = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s\n"
        with open(path, "w") as fh:
            if manifest_hash:
                fh.write(f"{MANIFEST_TAG}{manifest_hash}\n")
            fh.write(CSV_HEADER + "\n")
            for lo in range(0, len(self.x), CSV_BLOCK):
                cols = [a[lo:lo + CSV_BLOCK].tolist()
                        for a in (self.x, self.V, self.Vp, self.Vpp, self.J, self.phi,
                                  self.theta_star, self.regime)]
                fh.write("".join([row % r for r in zip(*cols)]))

    @classmethod
    def from_csv(cls, path) -> "SolutionCurve":
        """Re-read a curve table; segments are rebuilt from the regime column.

        V_inf is read from the sidecar beside it (curve.json for curve.csv) if
        that carries the table's manifest hash, else it is V at the last node.
        """
        with open(path) as fh:
            line = fh.readline()
            tag = line[len(MANIFEST_TAG):].strip() if line.startswith(MANIFEST_TAG) else None
            while line.startswith("#"):
                line = fh.readline()  # ends on the column header
            start = fh.tell()
            x, V, Vp, Vpp, J, phi, theta = np.loadtxt(fh, delimiter=",", usecols=range(7),
                                                       ndmin=2, unpack=True)
            fh.seek(start)
            regime = np.loadtxt(fh, dtype=str, delimiter=",", usecols=7, ndmin=1)
        sidecar = Path(path).with_suffix(".json")
        meta = json.loads(sidecar.read_text()) if sidecar.exists() else {}
        if meta.get("manifest", {}).get("hash") != tag:
            meta = {}  # the sidecar of another solve
        return cls(x=x, V=V, Vp=Vp, Vpp=Vpp, J=J, phi=phi, theta_star=theta, regime=regime,
                   segments=segments_from_regimes(x, regime, "end"),
                   V_inf=float(meta.get("V_inf", V[-1])))

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
