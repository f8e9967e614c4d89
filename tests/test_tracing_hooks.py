"""The names the benchmark's tracer (perfbench/tracing.py) wraps still exist.

A renamed entry point would turn its per-layer metric into "unmeasured"
without failing the benchmark; this test fails instead.  It only reads
perfbench/.
"""
import importlib.util
from pathlib import Path

import pytest

import ruinvest
import ruinvest.cli  # noqa: F401  (instrument wraps names in the cli module)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_measure_solve(tracing, example1):
    tracer, solve = tracing.Tracer(), ruinvest.exp_solver.solve
    tracing.instrument(tracer, ruinvest)
    try:
        assert tracer.unmeasured == []
        curve = ruinvest.exp_solver.solve(example1, 1.0)
    finally:
        tracer.unwrap_all()
    assert ruinvest.exp_solver.solve is ruinvest.cli.solve is solve  # unwrapped

    counts = tracer.counters[None]
    march = curve.meta["march"]
    assert counts["exp_solver.solves"] == 1
    assert counts["exp_solver.nodes"] == len(curve.x)
    assert counts["exp_solver.nodes_per_target_sum"] == len(curve.x) / 900
    assert counts["exp_solver.segments"] == len(march) == len(curve.segments)
    assert counts["exp_solver.march_steps"] == sum(m["steps"] for m in march)
    assert counts["exp_solver.rhs_evals"] == sum(m["rhs_evals"] for m in march)
    # three switches each end a march on an event; the interior march reaches
    # x_max (4 events while it ended on the cancellation floor)
    assert counts["exp_solver.events"] == 3
    assert {"exp_solver.solve", "exp_solver.march", "series", "exp_solver.tail"} <= {
        span[0] for span in tracer.spans}
