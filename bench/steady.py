"""Run every workload several times and report how steady each metric is.

    python3 bench/steady.py [--runs N] [--seconds S] [--first-seed K]
                            [--workloads shift-sweep,dissipative,cli] [--trace]

Runs bench/run.py N times per workload, seeds K .. K+N-1, interleaving the
workloads so that slow phases of the host fall on all of them.  For each
workload it prints operations attempted and failed per run, and for each
end-to-end metric the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median against the metric's bound in BENCHMARK.json.
With --trace it adds one traced run per workload and prints every per-layer
metric.  With --runs 1 --trace it is the one command that runs everything.
All raw results go to bench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def spread_table(name: str, runs: list, bounds: dict) -> list:
    lines = [f"== {name}: {len(runs)} runs"]
    for r in runs:
        lines.append(f"   seed {r['seed']:4d}  attempted {r['attempted']:7d}  failed {r['failed']:5d}  "
                     f"share {r['failed'] / r['attempted']:.6f}  correct {r['correct']}  wall {r['wall_s']:.1f}s")
    lines.append(f"   {'metric':14s} {'unit':5s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>8s} "
                 f"{'bound':>6s} {'spread/bound':>12s}")
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        unit = runs[0]["metrics"][metric]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(metric)
        ratio = f"{spread / bound:12.2f}" if bound else f"{'':12s}"
        lines.append(f"   {metric:14s} {unit:5s} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:8.4f} "
                     f"{bound if bound else '':>6} {ratio}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec.get("run_seconds", 30))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec.get("workloads", []))
                        or "shift-sweep,dissipative,cli")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    args = parser.parse_args()
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}

    runs = {name: [] for name in names}
    for i in range(args.runs):
        for name in names:
            runs[name].append(run_once(name, args.first_seed + i, args.seconds, 0))
            print(f"# {name} seed {args.first_seed + i}: {json.dumps(runs[name][-1]['metrics'])}", flush=True)
    traced = {}
    if args.trace:
        for name in names:
            traced[name] = run_once(name, args.first_seed, args.seconds, 1)

    out = []
    for name in names:
        out.extend(spread_table(name, runs[name], bounds))
        if name in traced:
            t = traced[name]
            out.append(f"   traced run (seed {t['seed']}): attempted {t['attempted']} failed {t['failed']} "
                       f"correct {t['correct']}")
            for metric, v in t["metrics"].items():
                out.append(f"     {metric:44s} {v['value']:14.4f} {v['unit']}")
    print("\n".join(out))
    (HERE / "out").mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (HERE / "out" / f"steady-{stamp}.json").write_text(json.dumps({"runs": runs, "traced": traced}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
