"""One benchmark job in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --outdir DIR --job-id K [--traced] [--setup-only]

Imports ``homing`` from the checkout's ``src`` and builds the job's inputs
(timed together as set-up), runs the job (timed alone), and prints one JSON
line: set-up and job seconds at the speed probe's reference speed
(``probe.py``), the job's wall seconds, peak RSS after the job, and the path
of the outputs for the checks.  The process is pinned to one CPU, chosen by
the job id, and the probe runs beside both timed parts.  A fresh process per
job means set-up and peak memory belong to that job, and the module-level
caches in ``counting`` start empty, as they do for every user of
``homing verify``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def peak_rss_mb() -> float:
    """High-water resident memory of this process image.  Read from /proc:
    on Linux, getrusage's ru_maxrss keeps the parent's peak across exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--job-id", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import probe
    import workloads

    probe.pin(args.job_id)
    with probe.Probe() as setup_probe:
        t0 = time.perf_counter()
        sys.path.insert(0, SRC)
        workloads.import_library(args.workload)
        inputs = workloads.make_inputs(args.workload, args.seed, args.outdir)
        setup_s = time.perf_counter() - t0

    homing = sys.modules["homing"]
    if os.path.dirname(os.path.dirname(os.path.abspath(homing.__file__))) != SRC:
        raise RuntimeError(f"homing imported from {homing.__file__}, not {SRC}")
    report = {"setup_s": setup_probe.at_ref(setup_s)}
    if not args.setup_only:
        import spans

        recorder = None
        if args.traced:
            recorder = spans.Recorder()
            recorder.install()
        else:
            spans.assert_unwrapped()
        with probe.Probe() as job_probe:
            t1 = time.perf_counter()
            result = workloads.run_job(args.workload, inputs)
            job_wall_s = time.perf_counter() - t1
        report["job_wall_s"] = job_wall_s
        report["job_s"] = job_probe.at_ref(job_wall_s)
        report["probe_mean_s"] = job_probe.mean_s()
        report["peak_rss_mb"] = peak_rss_mb()
        if recorder is not None:
            report["spans"] = os.path.join(args.outdir, f"spans-{args.job_id}.npz")
            recorder.save(report["spans"], args.job_id)
        report["outputs"] = workloads.save_outputs(args.workload, inputs, result)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
