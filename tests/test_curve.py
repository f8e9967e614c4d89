import dataclasses

import numpy as np
import pytest

from ruinvest.curve import SolutionCurve
from ruinvest.general_solver import general_solve


def _curve(x, V, Vp=None):
    z = np.zeros(len(x))
    return SolutionCurve(x=np.asarray(x, dtype=float), V=np.asarray(V, dtype=float),
                         Vp=z if Vp is None else np.asarray(Vp, dtype=float), Vpp=z, J=z, phi=z,
                         theta_star=z, regime=np.full(len(x), "A"), segments=[])


def test_value_reproduces_a_cubic_from_its_own_slopes():
    rng = np.random.default_rng(16)
    x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.3, 40))])
    c = rng.normal(0.0, 1.0, 4)
    cubic = np.polynomial.Polynomial(c)
    curve = _curve(x, cubic(x), cubic.deriv()(x))
    xq = np.concatenate([x, x[0] + (x[-1] - x[0]) * rng.random(4000)])
    err = np.max(np.abs(curve.value(xq) - cubic(xq)))
    assert err <= 1e-14 * np.max(np.abs(curve.V))
    assert np.array_equal(curve.value(x[:-1]), curve.V[:-1])  # a node's own V, bit for bit
    # V at the first node below the grid, at the last node beyond it
    assert np.array_equal(curve.value([x[0] - 1.0, x[-1] + 1e-9, 1e6]),
                          [curve.V[0], curve.V[-1], curve.V[-1]])
    assert np.ndim(curve.value(x[7] + 1e-3)) == 0


def test_v_inf_is_the_last_node_and_no_field():
    # V(inf) is read off V, so no curve can hold another value for it
    curve = _curve([0.0, 1.0, 2.0], [1.0, 1.5, 1.75])
    assert curve.V_inf == 1.75
    assert "V_inf" not in {f.name for f in dataclasses.fields(SolutionCurve)}
    with pytest.raises(TypeError):
        dataclasses.replace(curve, V_inf=2.0)
    assert dataclasses.replace(curve, V=curve.V * 2.0).V_inf == 3.5


def test_solver_slopes_keep_every_piece_monotone(curve1, curve2, curve3, example1, exp_law):
    # Fritsch & Carlson's condition on every interval: a rising secant m and
    # both end slopes in [0, 3m].  A failing interval is a solver defect:
    # value() has no fallback
    for curve in (curve1, curve2, curve3, general_solve(example1, exp_law, x_max=11.0)):
        m = np.diff(curve.V) / np.diff(curve.x)
        d0, d1 = curve.Vp[:-1], curve.Vp[1:]
        ok = (m > 0) & (d0 >= 0) & (d1 >= 0) & (d0 <= 3 * m) & (d1 <= 3 * m)
        assert ok.all(), f"not monotone from x={curve.x[np.argmin(ok)]}"


@pytest.mark.parametrize("x, V, match", [
    ([1.0], [1.0], "at least 2"),
    ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0], "strictly increasing"),
    ([0.0, 2.0, 1.0], [1.0, 2.0, 3.0], "strictly increasing"),
    ([0.0, np.nan, 2.0], [1.0, 2.0, 3.0], "finite"),
    ([0.0, 1.0, 2.0], [1.0, np.inf, 3.0], "finite"),
    ([0.0, 1.0, 2.0], [1.0, 2.0], "equal length"),
])
def test_constructor_refuses_what_pchip_refuses(x, V, match):
    # the refusals of PchipInterpolator(x, V); value() still needs them
    with pytest.raises(ValueError, match=match):
        _curve(x, V)


@pytest.mark.parametrize("Vp, match", [
    ([1.0, np.nan, 1.0], "finite"),
    ([1.0, 1.0, -np.inf], "finite"),
    ([1.0, 1.0], "shape"),
    ([[1.0, 1.0, 1.0]], "shape"),
], ids=["nan", "inf", "short", "2-d"])
def test_constructor_refuses_a_slope_value_cannot_read(Vp, match):
    with pytest.raises(ValueError, match=match):
        _curve([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], Vp)


def test_from_csv_refuses_a_repeated_node(tmp_path, curve1):
    path = tmp_path / "curve.csv"
    curve1.to_csv(path, manifest_hash="deadbeef")
    lines = path.read_text().splitlines(keepends=True)
    lines.insert(100, lines[100])  # one row twice: x is no longer strictly increasing
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="strictly increasing"):
        SolutionCurve.from_csv(path)
