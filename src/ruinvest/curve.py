"""Solution curves of the HJB equation, and the writers of every artifact.

A solved curve tabulates (x, V, V', V'', J, phi, theta_star, regime) on the
integrator's grid together with the regime segmentation, the limit V(inf)
(V at the last node; the sidecar's tail entry bounds the mass beyond it or
says it is open), and residual diagnostics; the survival probability is
V(x)/V(inf).  Between nodes V is the cubic Hermite on the solver's own
(x, V, V') in each interval.  Every artifact, a curve's or
another, is a CSV table written by `write_table` or a JSON sidecar written by
`write_json`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["RegimeSegment", "SolutionCurve", "segments_from_regimes", "manifest_tag"]

REGIME_LONG = "A"      # maximal long fraction a
REGIME_SHORT = "B"     # maximal short fraction -b
REGIME_INTERIOR = "INT"
REGIME_ZERO = "ZERO"   # no investment; only occurs when mu = r

CSV_HEADER = "x,V,Vp,Vpp,J,phi,theta_star,regime"
MANIFEST_TAG = "# manifest: "
CSV_BLOCK = 4096      # rows formatted per write


def manifest_tag(line: str) -> Optional[str]:
    """Hash on an artifact's leading MANIFEST_TAG line, or None."""
    return line[len(MANIFEST_TAG):].strip() if line.startswith(MANIFEST_TAG) else None


def write_table(path, manifest_hash: str, header: str, row: str, columns, comments=()) -> None:
    """CSV artifact: the manifest line if a hash is given, a `# c` line per
    comment, the header, then `row % values` per entry of the columns."""
    columns = [np.asarray(a) for a in columns]
    row += "\n"
    with open(path, "w") as fh:
        if manifest_hash:
            fh.write(f"{MANIFEST_TAG}{manifest_hash}\n")
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), CSV_BLOCK):  # formatted from Python scalars
            cols = [a[lo:lo + CSV_BLOCK].tolist() for a in columns]
            fh.write("".join([row % r for r in zip(*cols)]))


def write_json(path, d: dict, manifest: Optional[dict] = None) -> None:
    """JSON artifact: d plus `manifest` if one is given, sorted keys, indent 2
    and a trailing newline; numpy arrays and scalars are written as tolist()."""
    with open(path, "w") as fh:
        json.dump(d if manifest is None else {**d, "manifest": manifest}, fh, indent=2,
                  sort_keys=True, default=lambda v: v.tolist())
        fh.write("\n")


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
        # value() reads x, V and Vp, so refuse what it could not interpolate
        x, V = np.asarray(self.x, dtype=float), np.asarray(self.V, dtype=float)
        Vp = np.asarray(self.Vp, dtype=float)
        if x.ndim != 1 or x.shape != V.shape or len(x) < 2:
            raise ValueError("`x` and `V` must be 1-D, of equal length and at least 2 long.")
        if Vp.shape != x.shape:
            raise ValueError("`Vp` must have the shape of `x`.")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(V)) and np.all(np.isfinite(Vp))):
            raise ValueError("`x`, `V` and `Vp` must contain only finite values.")
        if np.any(np.diff(x) <= 0):
            raise ValueError("`x` must be strictly increasing sequence.")

    # -- evaluation ---------------------------------------------------------

    def value(self, xq):
        """V at xq: the cubic Hermite on (x, V, V') in each interval, V at the
        first node below the grid and at the last node beyond it."""
        xq = np.asarray(xq, dtype=float)
        x, V, Vp = self.x, self.V, self.Vp
        xc = np.clip(xq, x[0], x[-1])
        i = np.clip(np.searchsorted(x, xc, side="right") - 1, 0, len(x) - 2)
        h = x[i + 1] - x[i]
        s = xc - x[i]
        d0, d1 = Vp[i], Vp[i + 1]
        m = (V[i + 1] - V[i]) / h
        c2 = (3.0 * m - 2.0 * d0 - d1) / h
        c3 = (d0 + d1 - 2.0 * m) / (h * h)
        out = V[i] + s * (d0 + s * (c2 + s * c3))
        return np.where(xq > x[-1], V[-1], out)

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
        write_table(path, manifest_hash, CSV_HEADER, "%.17g," * 7 + "%s",
                    (self.x, self.V, self.Vp, self.Vpp, self.J, self.phi, self.theta_star,
                     self.regime))

    @classmethod
    def from_csv(cls, path) -> "SolutionCurve":
        """Re-read a curve table; segments are rebuilt from the regime column
        and V_inf is V at the last node, as every solver sets it."""
        with open(path) as fh:
            line = fh.readline()
            while line.startswith("#"):
                line = fh.readline()  # ends on the column header
            start = fh.tell()
            x, V, Vp, Vpp, J, phi, theta = np.loadtxt(fh, delimiter=",", usecols=range(7),
                                                       ndmin=2, unpack=True)
            fh.seek(start)
            regime = np.loadtxt(fh, dtype=str, delimiter=",", usecols=7, ndmin=1)
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
        write_json(path, self.sidecar(), manifest)
