"""The benchmark's traced run wraps library functions by name; a rename or a
dropped call shows there as a missing per-layer value.  These tests catch
that in the ordinary test run."""

import importlib
import sys
from pathlib import Path

import pytest

from sr3d import isometry as iso

BENCHMARKS = str(Path(__file__).resolve().parents[1] / "benchmarks")


@pytest.fixture(scope="module")
def targets():
    sys.path.insert(0, BENCHMARKS)
    try:
        import layers
    finally:
        sys.path.remove(BENCHMARKS)
    return layers.TARGETS


def test_every_target_resolves(targets):
    missing = [f"{t.module}.{t.attr}" for t in targets
               if not hasattr(importlib.import_module(t.module), t.attr)]
    assert not missing


def test_nagano_check_reaches_both_flows(targets, monkeypatch):
    names = ("integrate_chart", "integrate_sl2")
    assert {("sr3d.isometry", n) for n in names} <= {(t.module, t.attr) for t in targets}
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(iso, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(iso, name, counted)
    iso.nagano_check([(0.3, -0.2, 0.5), (0.1, 0.4, -0.6)], 1.0, 40)
    assert calls == dict.fromkeys(names, 1)
