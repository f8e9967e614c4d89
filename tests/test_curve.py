import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from ruinvest.curve import SolutionCurve
from ruinvest.exp_solver import solve


def _curve(x, V):
    z = np.zeros(len(x))
    return SolutionCurve(x=np.asarray(x, dtype=float), V=np.asarray(V, dtype=float), Vp=z,
                         Vpp=z, J=z, phi=z, theta_star=z, regime=np.full(len(x), "A"),
                         segments=[], V_inf=1.0)


def _pchip_value(curve, xq):
    """SolutionCurve.value as written with scipy's PchipInterpolator."""
    xq = np.asarray(xq, dtype=float)
    ref = PchipInterpolator(curve.x, curve.V, extrapolate=False)
    return np.where(xq > curve.x[-1], curve.V[-1], ref(np.clip(xq, curve.x[0], curve.x[-1])))


def _probe_points(x, rng):
    """Every node, random interior points, both ends, and points off the grid."""
    span = x[-1] - x[0]
    inner = x[0] + span * rng.random(4000)
    between = x[:-1] + (x[1:] - x[:-1]) * rng.random(len(x) - 1)
    outside = [x[0] - 1.0, x[0] - 1e-9, np.nextafter(x[-1], np.inf), x[-1] + 1.0, 1e6]
    return np.concatenate([x, inner, between, [x[0], x[-1]], outside])


@pytest.fixture(scope="module")
def example_curves(example1, example2, example3):
    return [solve(p, 1.0) for p in (example1, example2, example3)]


def test_value_matches_pchip_bits_on_example_curves(example_curves):
    rng = np.random.default_rng(14)
    for curve in example_curves:
        xq = _probe_points(curve.x, rng)
        assert np.array_equal(curve.value(xq), _pchip_value(curve, xq))
        for s in xq[::97]:  # scalar calls give the same bits
            assert curve.value(s) == _pchip_value(curve, s)
            assert np.ndim(curve.value(s)) == 0


def test_value_matches_pchip_bits_on_small_curves():
    rng = np.random.default_rng(15)
    # two nodes: scipy's linear case; three and four nodes hit both end rules
    shapes = [([0.0, 2.0], [1.0, 3.5]),
              ([0.0, 0.5, 2.0], [1.0, 1.2, 3.5]),
              ([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 3.1, 5.0]),
              ([0.0, 1.0, 1.5, 4.0], [2.0, 1.0, 1.0, 4.0]),  # a flat run and a turn
              ([0.0, 1.0, 2.0], [0.0, 1.0, -9.0]),  # end slopes capped at 3 m0
              ([0.0, 1.0, 2.0], [-9.0, 1.0, 0.0])]
    for x, V in shapes:
        curve = _curve(x, V)
        xq = _probe_points(curve.x, rng)
        assert np.array_equal(curve.value(xq), _pchip_value(curve, xq))
    # random wiggly data exercises every branch of the derivative rule
    x = np.cumsum(rng.uniform(0.01, 1.0, 300))
    for V in (np.cumsum(rng.normal(0.0, 1.0, 300)), np.round(rng.normal(0.0, 1.0, 300))):
        curve = _curve(x, V)
        xq = _probe_points(curve.x, rng)
        assert np.array_equal(curve.value(xq), _pchip_value(curve, xq))


@pytest.mark.parametrize("x, V, match", [
    ([1.0], [1.0], "at least 2"),
    ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0], "strictly increasing"),
    ([0.0, 2.0, 1.0], [1.0, 2.0, 3.0], "strictly increasing"),
    ([0.0, np.nan, 2.0], [1.0, 2.0, 3.0], "finite"),
    ([0.0, 1.0, 2.0], [1.0, np.inf, 3.0], "finite"),
    ([0.0, 1.0, 2.0], [1.0, 2.0], "equal length"),
])
def test_constructor_refuses_what_pchip_refuses(x, V, match):
    with pytest.raises(ValueError, match=match):
        _curve(x, V)


def test_from_csv_refuses_a_repeated_node(tmp_path, curve1):
    path = tmp_path / "curve.csv"
    curve1.to_csv(path, manifest_hash="deadbeef")
    lines = path.read_text().splitlines(keepends=True)
    lines.insert(100, lines[100])  # one row twice: x is no longer strictly increasing
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="strictly increasing"):
        SolutionCurve.from_csv(path)
