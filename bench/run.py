"""Benchmark of bloch-siegert-lab: one run of one workload.

    python3 bench/run.py --workload shift-sweep|dissipative|cli \\
        [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Run from anywhere inside a checkout; the package is imported from the
checkout's src/ and nothing else.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics (END_TO_END), --trace 1 the per-layer ones (PER_LAYER).
Details of the run (per-operation times, parts, problems found) go to
bench/out/result-<workload>-seed<N>-trace<T>.json, and the spans of the
last traced pass to bench/out/spans-<workload>-seed<N>.csv.

Timing.  Each operation is timed on its own, in round-robin passes over all
operations of the workload; the first pass of the library workloads is an
untimed warm-up.  An operation's figure is its fastest timed repeat, and
pass_s sums those figures: the host's slow phases only ever add time, so
the minimum is the statistic they move least (see README.md).
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported anywhere

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "bloch_siegert_lab"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
MIN_PASSES = 2

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_s", "s"),
)

ROADMAP_A = ("0.1", "1", "6", "21", "100")

PER_LAYER = (
    ("numerics.bessel_j.calls", "count"),
    ("numerics.bessel_j.self_ms", "ms"),
    ("numerics.bessel_j0_minus_1.calls", "count"),
    ("numerics.find_root_bracketed.calls", "count"),
    ("numerics.find_root_bracketed.self_ms", "ms"),
    ("numerics.minimize_scalar_bracketed.calls", "count"),
    ("chrw.solve_xi.calls", "count"),
    ("chrw.solve_xi.self_ms", "ms"),
    ("chrw.solve_xi.bessel_per_call", "count"),
    ("chrw.build_frame.calls", "count"),
    ("chrw.build_frame.self_ms", "ms"),
    ("floquet.solve_floquet.calls", "count"),
    ("floquet.solve_floquet.self_ms", "ms"),
    ("floquet.matrix_dim.mean", "rows"),
    ("floquet.propagator_samples.calls", "count"),
    ("floquet.propagator_samples.self_ms", "ms"),
    ("resonance.floquet.self_ms", "ms"),
    ("resonance.chrw.self_ms", "ms"),
    ("resonance.shirley.self_ms", "ms"),
    ("resonance.floquet.evals_per_shift", "count"),
    ("resonance.chrw.evals_per_shift", "count"),
    *((f"resonance.floquet.point_ms.A{a}", "ms") for a in ROADMAP_A),
    *((f"resonance.chrw.point_ms.A{a}", "ms") for a in ROADMAP_A),
    *((f"resonance.shirley.point_ms.A{a}", "ms") for a in ROADMAP_A[:4]),
    ("dissipative.truncation_order.calls", "count"),
    ("dissipative.truncation_order.self_ms", "ms"),
    ("dissipative.fourier_coefficients.self_ms", "ms"),
    ("dissipative.lindblad_tensor.self_ms", "ms"),
    ("dissipative.rates.calls", "count"),
    ("dissipative.rates.self_ms", "ms"),
    ("dissipative.harmonics.mean", "count"),
    ("dissipative.steady_state.self_ms", "ms"),
    ("dissipative.population_avg.self_ms", "ms"),
    ("dissipative.oracle_lindblad.self_ms", "ms"),
    ("spectrum.spectrum.calls", "count"),
    ("spectrum.spectrum.self_ms", "ms"),
    ("spectrum.laplace_g.calls", "count"),
    ("spectrum.laplace_g.self_ms", "ms"),
    ("spectrum.sidebands.mean", "count"),
    ("spectrum.asymmetry_metric.self_ms", "ms"),
    ("cli.cmd_shift_sweep.self_ms", "ms"),
    ("cli.cmd_population.self_ms", "ms"),
    ("cli.cmd_spectrum.self_ms", "ms"),
    ("cli.cmd_validate.self_ms", "ms"),
    ("import.bloch_siegert_lab_ms", "ms"),
    ("import.scipy.integrate_ms", "ms"),
    ("import.scipy.linalg_ms", "ms"),
    ("import.scipy.special_ms", "ms"),
    ("import.numpy_ms", "ms"),
    *((f"layer.{name}.self_ms", "ms") for name in
      ("numerics", "chrw", "floquet", "resonance", "dissipative", "spectrum", "cli", "bench")),
    ("trace.layer_share_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("pass.cold_s", "s"),
)


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources, failed set-up)."""


# ---------------------------------------------------------------------------
# environment


def child_env() -> Dict[str, str]:
    """Environment of every process started: one BLAS thread, checkout src/."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    env.pop("BSL_THREADS", None)
    return env


def import_package():
    init = SRC / PACKAGE / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no package sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import bloch_siegert_lab as pkg

    if Path(pkg.__file__).resolve() != init.resolve():
        raise BenchError(f"imported {pkg.__file__}, not the checkout's package")
    return pkg


def build(name: str, seed: int, tiny: bool):
    return workloads.WORKLOADS[name](seed, tiny)


def setup_probe(name: str, seed: int, tiny: bool) -> None:
    """What set-up means: a fresh interpreter imports the package and builds the inputs."""
    import_package()
    build(name, seed, tiny)


def measure_setup(name: str, seed: int, tiny: bool) -> List[float]:
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)]
    if tiny:
        argv.append("--tiny")
    OUT.mkdir(exist_ok=True)
    times = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        code, _ = workloads.spawn(argv, child_env(), OUT / "setup.stdout", OUT / "setup.stderr")
        times.append(time.perf_counter() - start)
        if code != 0:
            raise BenchError(f"set-up probe exited {code}: {(OUT / 'setup.stderr').read_text()[-500:]}")
    return times


def import_times() -> Dict[str, float]:
    """Cumulative import time per module, ms, median of IMPORT_REPEATS `-X importtime` runs."""
    wanted = {PACKAGE: "import.bloch_siegert_lab_ms", "scipy.integrate": "import.scipy.integrate_ms",
              "scipy.linalg": "import.scipy.linalg_ms", "scipy.special": "import.scipy.special_ms",
              "numpy": "import.numpy_ms"}
    samples: Dict[str, List[float]] = {v: [] for v in wanted.values()}
    argv = [sys.executable, "-X", "importtime", "-c", f"import {PACKAGE}"]
    for _ in range(IMPORT_REPEATS):
        code, _ = workloads.spawn(argv, child_env(), OUT / "import.stdout", OUT / "import.stderr")
        if code != 0:
            raise BenchError("importing the package failed")
        for line in (OUT / "import.stderr").read_text().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                samples[wanted[parts[2].strip()]].append(int(parts[1]) / 1000.0)
    return {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}


# ---------------------------------------------------------------------------
# passes


def run_pass(ops: List[workloads.Op], times: Dict[str, List[float]] = None) -> Dict[str, object]:
    clock = time.perf_counter
    results = {}
    for op in ops:
        start = clock()
        try:
            result = op.call()
        except Exception as exc:  # a failed operation is a result, counted and checked
            result = exc
        if times is not None:
            times[op.key].append(clock() - start)
        results[op.key] = result
    return results


def fastest(times: Dict[str, List[float]]) -> Dict[str, float]:
    return {k: min(v) for k, v in times.items()}


def sum_parts(ops: List[workloads.Op], per_op: Dict[str, float]) -> Dict[str, float]:
    parts: Dict[str, float] = {}
    for op in ops:
        parts[op.part] = parts.get(op.part, 0.0) + per_op[op.key]
    return parts


def time_up(start: float, seconds: float, last_pass: float, passes: int) -> bool:
    """Stop once the next pass would end past the budget by more than half of it."""
    return passes >= MIN_PASSES and time.perf_counter() - start + 0.5 * last_pass >= seconds


# ---------------------------------------------------------------------------
# the two kinds of run


def untraced_run(ops, seconds: float, warmup: bool) -> dict:
    first = run_pass(ops) if warmup else None
    times = {op.key: [] for op in ops}
    walls: List[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results = run_pass(ops, times)
        walls.append(time.perf_counter() - t0)
        if first is None:
            first = results
        if time_up(start, seconds, walls[-1], len(walls)):
            break
    return dict(first=first, last=results, times=times, walls=walls, passes=len(walls) + (1 if warmup else 0))


def traced_run(ops, seconds: float, warmup: bool) -> dict:
    """Alternate untraced and traced passes; the traced ones give the per-layer figures."""
    from tracer import Tracer

    import bloch_siegert_lab.cli  # noqa: F401  (its commands are traced too)

    cold = None
    if warmup:
        t0 = time.perf_counter()
        first = run_pass(ops)
        cold = time.perf_counter() - t0
    rec = Tracer()
    times = {op.key: [] for op in ops}
    walls: List[float] = []
    traced_walls: List[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results = run_pass(ops, times)
        walls.append(time.perf_counter() - t0)
        if cold is None:
            first, cold = results, walls[0]
        rec.install()
        try:
            traced_walls.append(rec.run_pass(lambda: run_pass(ops)))
        finally:
            rec.uninstall()
        if time_up(start, seconds, walls[-1] + traced_walls[-1], len(walls) + 1):
            break
    return dict(first=first, last=results, times=times, walls=walls, traced_walls=traced_walls,
                tracer=rec, cold=cold, passes=2 * len(walls) + (1 if warmup else 0))


def layer_metrics(run: dict, imports: Dict[str, float]) -> Dict[str, float]:
    from tracer import layer_of

    rec = run["tracer"]
    n = len(run["traced_walls"])
    self_ms = {k: 1e3 * v / n for k, v in rec.self_s.items()}
    calls = {k: v / n for k, v in rec.calls.items()}
    m: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for name, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            m[name] = calls.get(base, 0.0)
        elif kind == "self_ms" and not name.startswith("layer."):
            span = {"resonance.floquet": "resonance.bs_floquet_numeric", "resonance.chrw": "resonance.bs_chrw",
                    "resonance.shirley": "resonance.bs_shirley_iterative"}.get(base, base)
            m[name] = self_ms.get(span, 0.0)
        elif kind == "mean" and rec.obs_n.get(base):
            m[name] = rec.obs_sum[base] / rec.obs_n[base]
    xi_calls = rec.calls.get("chrw.solve_xi", 0)
    if xi_calls:
        m["chrw.solve_xi.bessel_per_call"] = rec.nested[("chrw.solve_xi", "numerics.bessel_j")] / xi_calls
    layers: Dict[str, float] = {}
    for span, value in self_ms.items():
        layer = layer_of(span) or "bench"
        layers[layer] = layers.get(layer, 0.0) + value
    for layer, value in layers.items():
        m[f"layer.{layer}.self_ms"] = value
    # self times are per-pass means, so the share is taken against the mean traced pass
    covered = sum(v for k, v in layers.items() if k != "bench")
    m["trace.layer_share_pct"] = 100.0 * covered / (1e3 * statistics.mean(run["traced_walls"]))
    m["trace.overhead_pct"] = 100.0 * (statistics.median(run["traced_walls"]) / statistics.median(run["walls"]) - 1.0)
    m["pass.cold_s"] = run["cold"]
    # per-shift evaluation counts from ShiftResult.iterations, per-point medians
    first = run["first"]
    for method in ("floquet", "chrw"):
        its = [r.iterations for k, r in first.items() if k.startswith(method + " ") and hasattr(r, "iterations")]
        if its:
            m[f"resonance.{method}.evals_per_shift"] = statistics.mean(its)
    for method in ("floquet", "chrw", "shirley"):
        for a in ROADMAP_A:
            key = workloads.shift_key(method, float(a))
            name = f"resonance.{method}.point_ms.A{a}"
            if name in m and key in run["times"]:
                m[name] = 1e3 * statistics.median(run["times"][key])
    m.update(imports)
    return m


# ---------------------------------------------------------------------------


def cli_runner(folder_root: Path, in_process: bool, rss: List[int]) -> Callable:
    """run(command, argv, round) -> (exit code, output path) for the cli workload."""
    env = child_env()

    def run(command: str, argv: List[str], round_no: int):
        folder = folder_root / f"round{round_no}"
        folder.mkdir(parents=True, exist_ok=True)
        out = folder / f"{command}.csv"
        if in_process:
            from bloch_siegert_lab.cli import main

            try:
                code = main([*argv, "--out", str(out)])
            except SystemExit as exc:
                code = exc.code
            return code, out
        full = [sys.executable, "-m", "bloch_siegert_lab.cli", *argv, "--out", str(out)]
        code, peak = workloads.spawn(full, env, folder / f"{command}.stdout", folder / f"{command}.stderr")
        rss.append(peak)
        return code, out

    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, args.tiny)
            return 0
        return bench(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


def bench(args) -> int:
    pkg = import_package()
    OUT.mkdir(exist_ok=True)
    workload = build(args.workload, args.seed, args.tiny)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    metrics: Dict[str, float] = {}
    rss: List[int] = []
    if args.trace == 0:
        metrics["setup_s"] = statistics.median(measure_setup(args.workload, args.seed, args.tiny))
    is_cli = isinstance(workload, workloads.Cli)
    if is_cli:
        if args.trace:
            os.environ["BSL_THREADS"] = "1"  # traced code must not run on two threads at once
        ops = workload.ops(cli_runner(OUT / f"cli-{tag}", bool(args.trace), rss))
    else:
        ops = workload.ops(pkg)
    if is_cli and not args.trace:
        # warm the file cache and compile the package once; the rounds are timed
        code, _ = workloads.spawn([sys.executable, "-c", f"import {PACKAGE}.cli"], child_env(),
                                  OUT / "warm.stdout", OUT / "warm.stderr")
        if code != 0:
            raise BenchError("importing the package failed")
        run = untraced_run(ops, args.seconds, warmup=False)
    elif args.trace:
        imports = import_times()
        # an in-process cli pass takes seconds and has little to warm up
        run = traced_run(ops, args.seconds, warmup=not is_cli)
    else:
        run = untraced_run(ops, args.seconds, warmup=True)
    per_op = fastest(run["times"])
    parts = sum_parts(ops, per_op)
    if args.trace:
        metrics.update(layer_metrics(run, imports))
        run["tracer"].write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        peak_kb = max(rss) if is_cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = peak_kb / 1024.0
        metrics["pass_s"] = sum(parts.values())

    verdict = workload.check(run["last"], run["first"], pkg)
    for key, why in verdict.failed.items():
        kind = "known fault" if key in workload.known_faults else "FAIL"
        print(f"bench: {kind}: {key}: {why}", file=sys.stderr)
    for why in verdict.problems:
        print(f"bench: FAIL: {why}", file=sys.stderr)
    spec = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": set(verdict.failed) <= set(workload.known_faults) and not verdict.problems,
        "attempted": len(ops) * run["passes"],
        "failed": len(verdict.failed) * run["passes"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  passes=run["passes"], pass_walls_s=run["walls"], parts_s=parts, per_op_s=per_op,
                  failed_ops=verdict.failed, problems=verdict.problems)
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
