"""Self-test of the benchmark at toy size.

    python3 bench/selftest.py

Runs bench/run.py on every workload at toy size, untraced and traced, and
checks that the last line names every metric of BENCHMARK.json with its
unit, that the table above it prints each of them, and that every run
passed its check. Then runs every workload against a deliberately wrong
reference and checks that every run fails, so that failed_ratio reads 1.
Exits 0 when all of this holds.
"""
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload: str, trace: int, *extra: str):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--toy", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    table = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and line.startswith("  "):
            table[parts[0]] = (float(parts[1]), parts[2])
    return table, json.loads(lines[-1])


def wrong_reference(workload: str) -> dict:
    with open(ROOT / ".bench_out" / f"{workload}-seed0-trace0.json") as f:
        params = json.load(f)["params"]
    wrong = {"eps_dia": 1.0, "eps_x": 1.0, "eps_V": 1.0}
    if workload == "paper-sweep":
        return {workload: {"params": params, "cells": [wrong] * 16}}
    return {workload: {"params": params, "final": wrong}}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((BENCH_DIR / "layer_map.json").read_text())
    problems = []
    mapped = [m for layer in layer_map["layers"].values() for m in layer["metrics"]]
    if sorted(mapped) != sorted(m["name"] for m in spec["per_layer"]):
        problems.append("layer_map.json and the per-layer metrics of BENCHMARK.json differ")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            table, result = run(workload, trace)
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{workload} trace {trace}: metrics {got} != {expected}")
            if {name: unit for name, (_, unit) in table.items() if name in expected} != expected:
                problems.append(f"{workload} trace {trace}: printed table lacks a metric or unit")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} runs failed")

        path = ROOT / ".bench_out" / "wrong-reference.json"
        path.write_text(json.dumps(wrong_reference(workload)))
        table, result = run(workload, 0, "--reference", str(path))
        if result["correct"] or result["failed"] != result["attempted"] or table["failed_ratio"][0] != 1.0:
            problems.append(f"{workload}: a wrong reference left runs passing: {result}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
