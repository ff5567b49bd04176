"""Run the benchmark over several seeds and write results/BENCH_<label>.json.

    python3 benchmarks/summarize.py --label baseline --seeds 1-10

For every workload of BENCHMARK.json it makes one untraced run per seed, then
one traced run on the first seed.  The summary holds, per
workload and end-to-end metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread (quartile
distance over the median) next to the metric's bound; per-layer values and
the tracing overhead of the traced run; ``fail_frac`` (failed over attempted
ops across all runs); and the run record of each run.  Spreads above a third
of their bound are listed as unsteady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def summary_stats(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in names}
    for seed in seeds:
        for w in names:
            runs[w].append(run_once(w, seed, seconds, 0))
            print(f"{w} seed {seed}: {json.dumps(runs[w][-1]['result']['metrics'])}",
                  flush=True)

    out = {"label": args.label, "seeds": seeds, "run_seconds": seconds,
           "environment": runs[names[0]][0]["record"], "workloads": {}}
    unsteady = []
    for w in names:
        attempted = sum(r["result"]["attempted"] for r in runs[w])
        failed = sum(r["result"]["failed"] for r in runs[w])
        entry = {"fail_frac": failed / attempted, "attempted": attempted,
                 "correct": all(r["result"]["correct"] for r in runs[w]),
                 "end_to_end": {},
                 "runs": [r["record"] for r in runs[w]]}
        for name, bound in bounds.items():
            stats = summary_stats([r["result"]["metrics"][name]["value"] for r in runs[w]])
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            if stats["spread"] > bound / 3:
                unsteady.append(f"{w}.{name}: spread {stats['spread']:.3f}, bound {bound}")
        traced = run_once(w, seeds[0], seconds, 1)
        entry["per_layer"] = traced["result"]["metrics"]
        entry["trace_overhead_frac"] = traced["record"]["overhead_frac"]
        entry["trace_record"] = traced["record"]
        print(f"{w} traced: overhead {traced['record']['overhead_frac']:.3f}, standard error "
              f"{traced['record']['overhead_stderr']}", flush=True)
        out["workloads"][w] = entry

    path = BENCH_DIR / "results" / f"BENCH_{args.label}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n")
    for w in names:
        for name, s in out["workloads"][w]["end_to_end"].items():
            print(f"{w:10s} {name:12s} median {s['median']:.6g}  spread {s['spread']:.3f}"
                  f"  bound {s['bound']}")
    print("unsteady: " + ("; ".join(unsteady) if unsteady else "none"))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
