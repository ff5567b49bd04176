"""The benchmark's traced run wraps library functions by name; a rename or a
dropped call shows there as a missing per-layer value.  These tests catch
that in the ordinary test run."""

import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from sr3d import geodesics as geo
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


def test_certification_flies_every_schedule_inside_nagano_check(monkeypatch):
    # isometry.nagano_rk4_steps_per_op counts the flow steps taken inside
    # nagano_check spans, so the schedules' flows must stay in there.
    depth = [0]
    schedules = []
    flows = []
    nagano = iso.nagano_check

    def counted_nagano(controls, *args, **kwargs):
        schedules.append(tuple(controls))
        depth[0] += 1
        try:
            return nagano(controls, *args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(iso, "nagano_check", counted_nagano)
    for name in ("integrate_chart", "integrate_sl2"):
        def flow(controls, *args, _name=name, _fn=getattr(iso, name), **kwargs):
            flows.append((_name, tuple(controls), depth[0] > 0))
            return _fn(controls, *args, **kwargs)

        monkeypatch.setattr(iso, name, flow)
    iso.run_certification(samples=2, seed=3)
    per_schedule = Counter(schedules)
    assert len(per_schedule) == 2 and min(per_schedule.values()) >= 2
    on_path = [(name, inside) for name, controls, inside in flows if controls in per_schedule]
    assert {name for name, _ in on_path} == {"integrate_chart", "integrate_sl2"}
    assert all(inside for _, inside in on_path)


def test_a_distance_query_reaches_every_traced_shooting_layer(targets, monkeypatch):
    # The traced distance metrics sum these spans inside a shoot_distance
    # span: the grid and Jacobian batches, the single start and trial
    # endpoints, and one minimize per grid start.
    names = ("_batched_endpoints", "_shoot_endpoint", "minimize")
    assert {("sr3d.geodesics", n) for n in names} <= {(t.module, t.attr) for t in targets}
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(geo, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(geo, name, counted)
    model = geo.build_model("heisenberg")
    assert geo.shoot_distance(model, geo._geodesic_ends(model, 0.7, 0.4, 0.3)).converged
    assert calls["minimize"] == 3
    assert calls["_batched_endpoints"] >= 1 + 3  # the grid, then a Jacobian per start
    assert calls["_shoot_endpoint"] >= 3  # at least each start point
