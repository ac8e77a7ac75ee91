"""The benchmark's tracer wraps hcpack's functions where their callers look
them up; a traced pack and verification must give the untraced result."""

import importlib.util
from pathlib import Path

import pytest

from hcpack import Config, cycles, general, generate, geometry, structured

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pack_and_verify(config, n):
    """Pack and verify through the module attributes the tracer patches."""
    ps = generate(config, n, seed=1).to_point_set()
    if config is Config.CONVEX:
        packing = structured.pack_convex(n)
    elif config is Config.WHEEL:
        packing = structured.pack_wheel(n)
    else:
        packing = general.pack_general_detailed(ps).packing
    report = cycles.verify_packing(packing.cycles, n, geometry.oracle_for(ps))
    return [c.order for c in packing.cycles], report["ok"]


@pytest.mark.parametrize("config, n", [
    (Config.GENERAL, 20), (Config.CONVEX, 24), (Config.WHEEL, 16),
], ids=["general20", "convex24", "wheel16"])
def test_traced_pack_and_verify_match_the_untraced(config, n):
    untraced, ok = _pack_and_verify(config, n)
    assert ok
    tracer = _tracer_module().Tracer(cross_cap=10**9)
    with tracer.active():
        traced, traced_ok = _pack_and_verify(config, n)
    tracer.end_op()
    assert traced == untraced
    assert traced_ok
    assert tracer.counts["geometry.oracle.calls"] > 0
    assert tracer.counts["cycles.verify.calls"] == 1
