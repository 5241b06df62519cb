"""The benchmark's per-layer tracer installs against the library.

``perfbench/tracing.py`` looks up each function and method it wraps by
name, so a renamed or deleted one fails ``Tracer.install``; this runs
it in-process on a small query instead of a timed benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

import exactreal.creal as creal
import exactreal.dyadic as dyadic
import exactreal.expr as expr

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_counts_and_uninstall_restores(tracing):
    originals = (creal.to_decimal, expr.parse, dyadic.Dyadic.__add__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        value = expr.evaluate(expr.parse("sqrt(2) + max(1, abs(0-3)) / 7"))
        assert creal.to_decimal(value, 20) == "1.84278499094452362023"  # sqrt(2) + 3/7
        # the query itself may make no Dyadic operation; this one is counted
        assert dyadic.Dyadic(3, -1) + 1 == dyadic.Dyadic(5, -1)
        metrics = tracer.layer_metrics(queries=1)
    finally:
        tracer.uninstall()
    assert not tracer.installed
    assert (creal.to_decimal, expr.parse, dyadic.Dyadic.__add__) == originals
    assert metrics["expr.ast_nodes"] == 11
    assert metrics["creal.nodes"] > 0 and metrics["creal.approx.calls"] > 0
    assert metrics["algorithms.calls"] == 3
    assert metrics["dyadic.ops"] > 0 and metrics["interval.ops"] > 0
