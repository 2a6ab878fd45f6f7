"""Measure one point of the benchmark's trajectory.

    python3 bench/trajectory.py [--record LABEL]

Runs ``run.py`` once per seed (1..10) on each workload of ``BENCHMARK.json``
with tracing off, then once more with tracing on, and prints for every
end-to-end metric its median, quartiles and spread, the interquartile
distance as a share of the median, next to a third of the metric's bound.
With ``--record`` the point (environment, end-to-end quartiles and the
traced per-layer values) is appended to ``bench/record.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RECORD = os.path.join(BENCH, "record.json")
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy

    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    point = {"label": args.record, "date": time.strftime("%Y-%m-%d"), "environment": environment(),
             "run_seconds": spec["run_seconds"], "seeds": list(range(1, RUNS + 1)),
             "end_to_end": {}, "per_layer": {}}
    for workload in workloads:
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in point["seeds"]]
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
            flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"{workload:14} {name:16} median {med:<12.6g} {unit:8} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f}  bound/3 {bound / 3:.4f}  {flag}", flush=True)
            print(f"{'':14} {'':16} runs " + " ".join(f"{v:.4g}" for v in values), flush=True)
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload:14} check_fail_frac  {failed / attempted:.6g} fraction "
              f"({failed} failed of {attempted} checks)", flush=True)
        point["end_to_end"][workload] = rows
        traced = run_once(workload, 1, spec["run_seconds"], 1)
        point["per_layer"][workload] = {
            k: v["value"] for k, v in traced["metrics"].items() if v["value"]
        }
        top = sorted(((v, k) for k, v in point["per_layer"][workload].items() if k.endswith(".self_s")),
                     reverse=True)[:5]
        print(f"{workload:14} top self_s: " + ", ".join(f"{k} {v:.3g}" for v, k in top), flush=True)
        print(f"{workload:14} trace.overhead_frac "
              f"{point['per_layer'][workload].get('trace.overhead_frac', 0):.4f}", flush=True)
    if args.record:
        with open(RECORD, encoding="utf-8") as fh:
            record = json.load(fh)
        record["trajectory"].append(point)
        with open(RECORD, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
