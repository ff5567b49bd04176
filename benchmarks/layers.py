"""Per-layer metrics: what the traced run wraps and how each number is made.

Two sources feed the per-layer metrics.  Traced passes of the workloads give
span times and counts per op (see :data:`TARGETS`).  Probes time single layers
directly: fresh-process imports and CLI subcommands, the catalog, model
construction, one right-hand-side evaluation and the batched endpoint kernel.
A metric that needs a function the library no longer has is reported as
:class:`Absent` with the missing name.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

import workloads as wl
from tracing import Target, Tracer, patched


class Absent(Exception):
    """A metric this version of the library cannot give; the reason says why."""


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _shoot_steps(t):
    fn = getattr(sys.modules["sr3d.geodesics"], "_shoot_steps", None)
    return None if fn is None else fn(float(t))


def _endpoint_info(args, kwargs, result):
    steps = _shoot_steps(_arg(args, kwargs, 3, "t"))
    return {"paths": 1, "steps": steps}


def _batched_info(args, kwargs, result):
    paths = int(np.size(_arg(args, kwargs, 1, "alphas")))
    steps = _shoot_steps(_arg(args, kwargs, 3, "t"))
    return {"paths": paths, "steps": None if steps is None else steps * paths}


def _minimize_info(args, kwargs, result):
    return {"nit": int(result.nit), "nfev": int(result.nfev), "fun": float(result.fun)}


def _control_flow_info(args, kwargs, result):
    # Steps the call runs: the total is split evenly over the segments.
    segments = len(_arg(args, kwargs, 0, "controls"))
    steps = _arg(args, kwargs, 2, "steps")
    return {"steps": max(1, steps // segments) * segments}


def _geodesic_info(args, kwargs, result):
    return {"model": _arg(args, kwargs, 0, "model").id,
            "steps": int(_arg(args, kwargs, 4, "steps"))}


TARGETS: Tuple[Target, ...] = (
    Target("sr3d.config", "rel_tol", count_only=True),
    Target("sr3d.algebra", "check_jacobi"),
    Target("sr3d.algebra", "identify_algebra"),
    Target("sr3d.algebra", "killing_form"),
    Target("sr3d.frames", "reeb_frame"),
    Target("sr3d.invariants", "canonical_frame"),
    Target("sr3d.invariants", "compute_chi"),
    Target("sr3d.invariants", "compute_kappa"),
    Target("sr3d.classify", "classify"),
    Target("sr3d.classify", "catalog"),
    Target("sr3d.cli", "structure_from_dict"),
    Target("sr3d.geodesics", "build_model"),
    Target("sr3d.geodesics", "integrate_geodesic", _geodesic_info),
    Target("sr3d.geodesics", "shoot_distance"),
    Target("sr3d.geodesics", "_batched_endpoints", _batched_info),
    Target("sr3d.geodesics", "_shoot_endpoint", _endpoint_info),
    Target("sr3d.geodesics", "minimize", _minimize_info),
    Target("sr3d.isometry", "run_certification"),
    Target("sr3d.isometry", "nagano_check"),
    Target("sr3d.isometry", "integrate_chart", _control_flow_info),
    Target("sr3d.isometry", "integrate_sl2", _control_flow_info),
    Target("sr3d.isometry", "psi_consistency"),
    Target("sr3d.isometry", "finite_difference_bracket"),
    Target("sr3d.isometry", "pushforward_check"),
    Target("sr3d.isometry", "pushforward_gram"),
    Target("sr3d.isometry", "quotient_check"),
)


class Trace:
    """Span totals of one traced pass, grouped by span name."""

    def __init__(self, tracer: Tracer, stats: wl.LoopStats):
        self.tracer, self.stats = tracer, stats
        self.by_name: Dict[str, list] = defaultdict(list)
        self.self_total: Dict[str, float] = defaultdict(float)
        for span, own in zip(tracer.spans, tracer.self_times()):
            self.by_name[span.name].append(span)
            self.self_total[span.name] += own

    def spans(self, name: str) -> list:
        if name in self.tracer.absent:
            raise Absent(self.tracer.absent[name])
        if not self.by_name.get(name):
            raise Absent(f"{name} was not called")
        return self.by_name[name]

    def count(self, name: str) -> int:
        if name in self.tracer.absent:
            raise Absent(self.tracer.absent[name])
        return self.tracer.counts[name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans(name))

    def mean_us(self, name: str) -> float:
        return 1e6 * self.total(name) / len(self.spans(name))

    def info_sum(self, name: str, key: str, where: Callable = None) -> float:
        total = 0
        for s in self.spans(name):
            if where is not None and not where(s):
                continue
            if s.info is None or s.info.get(key) is None:
                raise Absent(f"{name} gave no {key}")
            total += s.info[key]
        return total

    @property
    def ops(self) -> int:
        return len(self.by_name["op"])

    def results(self) -> List[Tuple[dict, Any]]:
        pairs = [(i, r) for i, r in zip(self.stats.items, self.stats.results)
                 if not isinstance(r, Exception)]
        if not pairs:
            raise Absent("no op returned a result")
        return pairs


def classify_metrics(t: Trace):
    n = t.ops
    return [
        ("config.rel_tol_calls_per_op", lambda: t.count("config.rel_tol") / n),
        ("algebra.check_jacobi_us", lambda: t.mean_us("algebra.check_jacobi")),
        ("algebra.identify_algebra_us", lambda: t.mean_us("algebra.identify_algebra")),
        ("algebra.killing_form_us", lambda: t.mean_us("algebra.killing_form")),
        ("frames.reeb_frame_us", lambda: t.mean_us("frames.reeb_frame")),
        ("frames.reeb_frame_calls_per_op", lambda: len(t.spans("frames.reeb_frame")) / n),
        ("invariants.canonical_frame_us", lambda: t.mean_us("invariants.canonical_frame")),
        ("invariants.compute_chi_us", lambda: t.mean_us("invariants.compute_chi")),
        ("invariants.compute_kappa_us", lambda: t.mean_us("invariants.compute_kappa")),
        ("classify.classify_self_us",
         lambda: 1e6 * t.self_total["classify.classify"] / len(t.spans("classify.classify"))),
        ("cli.structure_from_dict_us", lambda: t.mean_us("cli.structure_from_dict")),
    ]


def trajectory_metrics(t: Trace):
    def step_us(model):
        def value():
            mine = [s for s in t.spans("geodesics.integrate_geodesic")
                    if s.info["model"] == model]
            if not mine:
                raise Absent(f"no integrate_geodesic call on {model}")
            return 1e6 * sum(s.duration for s in mine) / sum(s.info["steps"] for s in mine)
        return value

    def worst(index):
        return lambda: max(wl.trajectory_accuracy(r)[index] for _, r in t.results())

    return [(f"geodesics.step_us.{m}", step_us(m)) for m in wl.MODEL_IDS] + [
        ("geodesics.hamiltonian_drift_max", worst(0)),
        ("geodesics.group_defect_max", worst(1)),
    ]


def distance_metrics(t: Trace):
    def queries():
        return len(t.spans("geodesics.shoot_distance"))

    def in_query(span):
        return t.tracer.within(span, "geodesics.shoot_distance")

    def per_query(fn):
        return lambda: fn() / queries()

    def hit_frac():
        hit_tol = getattr(sys.modules["sr3d.geodesics"], "HIT_TOLERANCE", None)
        if hit_tol is None:
            raise Absent("sr3d.geodesics.HIT_TOLERANCE not found")
        starts = t.spans("geodesics.minimize")
        return sum(s.info["fun"] < hit_tol for s in starts) / len(starts)

    def evals(key):
        def value():
            if key == "steps" and _shoot_steps(1.0) is None:
                raise Absent("sr3d.geodesics._shoot_steps not found")
            return (t.info_sum("geodesics._shoot_endpoint", key, in_query)
                    + t.info_sum("geodesics._batched_endpoints", key, in_query))
        return value

    return [
        ("geodesics.shoot_grid_s", per_query(lambda: sum(
            s.duration for s in t.spans("geodesics._batched_endpoints") if in_query(s)))),
        ("geodesics.shoot_refine_s", per_query(lambda: t.total("geodesics.minimize"))),
        ("geodesics.endpoint_evals_per_query", per_query(evals("paths"))),
        ("geodesics.rk4_steps_per_query", per_query(evals("steps"))),
        ("geodesics.optimizer_iters_per_query",
         per_query(lambda: t.info_sum("geodesics.minimize", "nit"))),
        ("geodesics.optimizer_fevals_per_query",
         per_query(lambda: t.info_sum("geodesics.minimize", "nfev"))),
        ("geodesics.start_hit_frac", hit_frac),
        ("geodesics.distance_err_max",
         lambda: max(abs(r.distance - i["length"]) for i, r in t.results())),
    ]


def certify_metrics(t: Trace):
    def runs():
        return len(t.spans("isometry.run_certification"))

    def per_op(*names):
        return lambda: sum(t.total(n) for n in names) / runs()

    def us_per_step(name):
        return lambda: 1e6 * t.total(name) / t.info_sum(name, "steps")

    def nagano_steps():
        def inside(span):
            return t.tracer.within(span, "isometry.nagano_check")
        return (t.info_sum("isometry.integrate_chart", "steps", inside)
                + t.info_sum("isometry.integrate_sl2", "steps", inside)) / runs()

    def worst_ratio():
        return max(r.max_residual / r.tolerance
                   for _, results in t.results() for r in results if r.tolerance > 0)

    return [
        ("isometry.nagano_s", per_op("isometry.nagano_check")),
        ("isometry.psi_consistency_s", per_op("isometry.psi_consistency")),
        ("isometry.fd_bracket_s", per_op("isometry.finite_difference_bracket")),
        ("isometry.pushforward_s",
         per_op("isometry.pushforward_check", "isometry.pushforward_gram")),
        ("isometry.quotient_s", per_op("isometry.quotient_check")),
        ("isometry.other_s", lambda: t.self_total["isometry.run_certification"] / runs()),
        ("isometry.integrate_chart_us_per_step", us_per_step("isometry.integrate_chart")),
        ("isometry.integrate_sl2_us_per_step", us_per_step("isometry.integrate_sl2")),
        ("isometry.nagano_rk4_steps_per_op", nagano_steps),
        ("isometry.worst_residual_over_tol", worst_ratio),
    ]


WORKLOAD_METRICS = {
    "classify": classify_metrics,
    "trajectory": trajectory_metrics,
    "certify": certify_metrics,
    "distance": distance_metrics,
}


def evaluate(defs) -> Dict[str, Any]:
    """Run each metric's thunk; a metric that cannot be made becomes Absent."""
    out = {}
    for name, thunk in defs:
        try:
            out[name] = float(thunk())
        except Absent as exc:
            out[name] = exc
    return out


# --- probes ----------------------------------------------------------------------

def _median_time(fn: Callable[[], Any], reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def child_env(src: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: Sequence[str], src: str, cwd: str, timeout: float = 150.0):
    """Run a child process to completion; returns (wall seconds, exit code, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run(list(argv), cwd=cwd, env=child_env(src), capture_output=True,
                          text=True, timeout=timeout)
    return time.perf_counter() - t0, proc.returncode, proc.stdout


IMPORT_CHILD = (
    "import time\nt0 = time.perf_counter()\nimport sr3d.cli\n"
    "print(repr(time.perf_counter() - t0))"
)

CLI_REPS = 3
BATCH_SIZES = (1, 108, 1024)
BATCH_T = 1.0


def cli_commands(structure_path: str) -> Dict[str, List[str]]:
    return {
        "catalog": ["catalog"],
        "figure1": ["figure1"],
        "classify": ["classify", "--input", structure_path],
        "invariants": ["invariants", "--input", structure_path],
        "geodesic": ["geodesic", "--model", "sl2"],
        "certify-isometry": ["certify-isometry", "--samples", "0"],
        "distance": ["distance", "--model", "heisenberg"],
    }


def process_probes(src: str, workdir: str, structure_path: str):
    """Fresh-process import time and each CLI subcommand as a process.

    Returns the metrics, the number of child processes run and how many
    of them failed.
    """
    out: Dict[str, Any] = {}
    runs = failed = 0
    py = sys.executable
    imports = []
    for _ in range(CLI_REPS):
        _, code, stdout = run_child([py, "-c", IMPORT_CHILD], src, workdir)
        runs += 1
        if code == 0:
            imports.append(float(stdout.strip().splitlines()[-1]))
        failed += code != 0
    out["cli.import_s"] = (statistics.median(imports) if imports
                           else Absent("import sr3d.cli failed"))
    for sub, argv in cli_commands(structure_path).items():
        walls, codes = [], []
        for _ in range(CLI_REPS):
            wall, code, _ = run_child([py, "-m", "sr3d.cli", *argv], src, workdir)
            walls.append(wall)
            codes.append(code)
        runs += CLI_REPS
        bad = [c for c in codes if c != 0]
        failed += len(bad)
        out[f"cli.{sub}_process_s"] = (
            statistics.median(walls) if not bad
            else Absent(f"sr3d.cli {sub} exited with code {bad[0]}"))
    return out, runs, failed


def kernel_probes(rng: np.random.Generator) -> Dict[str, Any]:
    """In-process timings of single layers, untraced."""
    geo = sys.modules["sr3d.geodesics"]
    cls = sys.modules["sr3d.classify"]
    out: Dict[str, Any] = {}
    out["classify.catalog_us"] = 1e6 * _median_time(cls.catalog, 31)
    out["geodesics.build_model_ms"] = 1e3 * _median_time(
        lambda: [geo.build_model(m) for m in wl.MODEL_IDS], 5) / len(wl.MODEL_IDS)

    tracer = Tracer("setup")
    with patched(tracer, [t for t in TARGETS if t.name == "classify.catalog"]):
        for m in wl.MODEL_IDS:
            geo.build_model(m)
    out["classify.catalog_calls_per_setup"] = (
        Absent(tracer.absent["classify.catalog"]) if tracer.absent
        else float(len(tracer.spans)))

    models = {m: geo.build_model(m) for m in wl.MODEL_IDS}
    frame = models["sl2"].frame
    rhs = getattr(geo, "vertical_rhs", None)
    if rhs is None:
        out["geodesics.vertical_rhs_ns"] = Absent("sr3d.geodesics.vertical_rhs not found")
    else:
        n = 20000

        def loop():
            for _ in range(n):
                rhs(frame, 0.8, 0.6, 0.7)
        out["geodesics.vertical_rhs_ns"] = 1e9 * _median_time(loop, 5) / n

    batched = getattr(geo, "_batched_endpoints", None)
    for size in BATCH_SIZES:
        alphas = rng.uniform(0.0, 2.0 * math.pi, size)
        h0s = rng.uniform(-1.0, 1.0, size)
        for m in wl.MODEL_IDS:
            name = f"geodesics.batched_endpoints_us_per_path.b{size}.{m}"
            if batched is None:
                out[name] = Absent("sr3d.geodesics._batched_endpoints not found")
                continue
            out[name] = 1e6 * _median_time(
                lambda: batched(models[m], alphas, h0s, BATCH_T), 3) / size
    return out
