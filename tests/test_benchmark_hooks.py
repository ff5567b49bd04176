"""The benchmark's traced run wraps library functions by name; a rename or a
dropped call shows there as a missing per-layer value.  These tests catch
that in the ordinary test run."""

import importlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sr3d import geodesics as geo
from sr3d import isometry as iso

BENCHMARKS = str(Path(__file__).resolve().parents[1] / "benchmarks")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, BENCHMARKS)
    try:
        import layers
        import tracing
        import workloads
    finally:
        sys.path.remove(BENCHMARKS)
    return layers, tracing, workloads


@pytest.fixture(scope="module")
def targets(bench):
    return bench[0].TARGETS


def test_every_target_resolves(targets):
    missing = [f"{t.module}.{t.attr}" for t in targets
               if not hasattr(importlib.import_module(t.module), t.attr)]
    assert not missing


def _key(schedule):
    return tuple(map(tuple, np.asarray(schedule, dtype=float).tolist()))


def test_nagano_check_reaches_both_flows(targets, monkeypatch):
    # One flight a side per call, one schedule or many: the chart lanes by
    # integrate_chart, the SL(2) side by integrate_sl2.
    traced = ("nagano_check", "integrate_chart", "integrate_sl2")
    assert {("sr3d.isometry", n) for n in traced} <= {(t.module, t.attr) for t in targets}
    names = ("integrate_chart", "integrate_sl2")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(iso, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(iso, name, counted)
    schedules = [[(0.3, -0.2, 0.5), (0.1, 0.4, -0.6)], [(0.2, 0.1, -0.3)]]
    iso.nagano_check(schedules[0], 1.0, 40)
    assert calls == {"integrate_chart": 1, "integrate_sl2": 1}
    iso.nagano_check(schedules, 1.0, 40)
    assert calls == {"integrate_chart": 2, "integrate_sl2": 2}


def test_certification_flies_every_schedule_inside_nagano_check(monkeypatch):
    # isometry.nagano_rk4_steps_per_op counts the flow steps taken inside
    # nagano_check spans, so the schedules' flows must stay in there.
    depth = [0]
    schedules = []
    flows = []
    nagano = iso.nagano_check

    def counted_nagano(controls, *args, **kwargs):
        schedules.extend(_key(s) for s in controls)
        depth[0] += 1
        try:
            return nagano(controls, *args, **kwargs)
        finally:
            depth[0] -= 1

    def chart(controls, *args, _fn=iso.integrate_chart, **kwargs):
        flows.extend(("chart", _key(s), depth[0] > 0) for s in controls)
        return _fn(controls, *args, **kwargs)

    def sl2(controls, *args, _fn=iso.integrate_sl2, **kwargs):
        flows.extend(("sl2", _key(s), depth[0] > 0) for s in controls)
        return _fn(controls, *args, **kwargs)

    monkeypatch.setattr(iso, "nagano_check", counted_nagano)
    monkeypatch.setattr(iso, "integrate_chart", chart)
    monkeypatch.setattr(iso, "integrate_sl2", sl2)
    iso.run_certification(samples=2, seed=3)
    per_schedule = Counter(schedules)
    assert len(per_schedule) == 2 and min(per_schedule.values()) >= 2
    on_path = [(name, s, inside) for name, s, inside in flows if s in per_schedule]
    assert {(name, s) for name, s, _ in on_path} == {(f, s) for f in ("chart", "sl2")
                                                     for s in per_schedule}
    assert all(inside for _, _, inside in on_path)


def test_a_traced_certify_op_gives_every_certify_metric(bench):
    # One certify op, traced as the benchmark traces it: a wrapped name that
    # left the op's path (nagano_check, integrate_sl2 inside it, ...) leaves
    # its metric Absent, which the benchmark reports as null.
    layers, tracing, wl = bench
    work, ctx = wl.WORKLOADS["certify"], wl.prepare("certify")
    tracer = tracing.Tracer("certify")
    with tracing.patched(tracer, layers.TARGETS):
        stats = wl.run_ops(work, ctx, work.make_items(7919, ctx), count=1,
                           on_op=tracer.op, keep_results=True)
    assert stats.failed == 0, stats.errors
    values = layers.evaluate(layers.certify_metrics(layers.Trace(tracer, stats)))
    assert {k: v for k, v in values.items() if not isinstance(v, float)} == {}
    assert values["isometry.nagano_rk4_steps_per_op"] > 0


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
