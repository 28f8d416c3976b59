"""Smoke test of the benchmark itself.

    python3 bench/test_smoke.py          (or: python3 -m pytest bench/test_smoke.py)

Runs every workload (those of BENCHMARK.json and cli) at tiny size, untraced and traced, and
checks that each run exits 0, reports correct outputs and emits exactly the
metric names and units BENCHMARK.json lists, in its order.  Then checks that
the benchmark refuses to run, without printing a result, in a directory
holding only BENCHMARK.json and the benchmark's files.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = _spec()["command"]
    argv = [sys.executable if command[0] == "python3" else command[0], *command[1:],
            "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def test_every_workload_emits_the_listed_metrics():
    spec = _spec()
    # cli is not in BENCHMARK.json (too unsteady to gate) but must keep working
    names = [w["name"] for w in spec["workloads"]]
    for workload in names + [w for w in ("cli",) if w not in names]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, f"{workload} trace {trace}: {proc.stderr[-2000:]}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, f"{workload} trace {trace}: {proc.stderr[-2000:]}"
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
            emitted = [(name, m["unit"]) for name, m in result["metrics"].items()]
            assert emitted == [(m["name"], m["unit"]) for m in listed], f"{workload} trace {trace}"
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_without_package_sources():
    spec = _spec()
    bare = HERE / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = _run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0
        assert not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_every_workload_emits_the_listed_metrics()
    test_refuses_without_package_sources()
    print("bench smoke test: ok")
