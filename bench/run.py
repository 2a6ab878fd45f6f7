"""The homing benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
Workloads are defined in ``workloads.py``: ``enum-n9``, ``words-n9``,
``trace-rot20`` and ``verify-all-n7``.  Only ``words-n9`` uses the seed.

With ``--trace 0`` the run starts one job after another, each in a fresh
process, until the next would end after ``--seconds`` (at least one job).
It reports the end-to-end metrics:

- ``units_per_s``: the units of work of all jobs divided by their summed
  time, set-up excluded.  Each job's time is its wall time put at the speed
  probe's reference speed (``probe.py``): on a shared host a CPU runs at full
  speed or up to about half speed in spells, which move the wall time of a
  whole run by a quarter; the probe, timed beside the job on the same CPU,
  moves with them and takes them out.  The wall-time rate is printed too;
- ``peak_rss_mb``: peak resident memory of the process that ran a job,
  median over the jobs;
- ``setup_s``: importing ``homing`` and building the inputs in a fresh
  process, at the probe's reference speed like the jobs, the median over
  ``SETUP_SAMPLES`` processes: every job, plus set-up-only processes before
  and after the jobs;
- ``check_pass_frac``: checks passed over checks attempted, where a job that
  raised fails all of its checks.  Its complement, ``check_fail_frac``, is
  printed on the line above the result.

With ``--trace 1`` the run makes one untraced and one traced job and
reports the per-layer metrics of the traced one, plus
``trace.overhead_frac`` = 1 - traced / untraced units per second.

Every job's outputs are checked against independent oracles (``checks.py``)
after its timer stops.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 21  # fresh processes whose set-up is timed, per run
DEADLINE_S = 170  # every worker is stopped by then, so a run ends within 180 s

sys.path.insert(0, BENCH)
import checks  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the 28 properties of `verify.SUITES` at the commit that defined the benchmark
VERIFY_CHECKS = (
    "check_placement_semantics", "check_inversion", "check_extremes_placed_once",
    "check_acyclicity", "check_weight_range", "check_binary_readings", "check_tiebreak",
    "check_block_formula", "check_zero_append", "check_marking_monotonic",
    "check_displacement_weight_increase", "check_extremal_bound", "check_stage_monotone",
    "check_lis_lower_bound", "check_unique_worst_case", "check_stage_advance_premise",
    "check_max_heights", "check_eviction_duality", "check_stage1_longest",
    "check_weight_certificate", "check_mn_code_shape", "check_firing_steps",
    "check_schedule_total", "check_word_bijection", "check_confluence",
    "check_recurrence_language", "check_short_firing_injectivity",
    "check_partition_roundtrip",
)

# counters derived from span amounts: metric -> (span, unit, better)
COUNTERS = {
    "perms.displacement_successors.edges": ("perms.displacement_successors", "count", "lower"),
    "strategies.steps": ("strategies.run_strategy", "count", "lower"),
    "heights.states": ("heights.build_height_table", "count", "lower"),
    "heights.worst_cases": ("heights.members_at", "count", "higher"),
    "firings.displacements": ("firings.firing_moves", "count", "lower"),
    "cli.output_bytes": ("cli.main", "bytes", "lower"),
}


def per_layer_spec() -> list[dict]:
    """Every per-layer metric: name, unit and which direction is better."""
    out = []
    for name in spans.LAYERS:
        span = spans.span_name(name)
        out.append({"name": f"{span}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{span}.self_s", "unit": "s", "better": "lower"})
    out += [{"name": f"verify.{c}.self_s", "unit": "s", "better": "lower"} for c in VERIFY_CHECKS]
    out += [{"name": m, "unit": u, "better": b} for m, (_, u, b) in COUNTERS.items()]
    out.append({"name": "strategies.bfs_useful_ratio", "unit": "ratio", "better": "higher"})
    out.append({"name": "firings.displacements_per_letter", "unit": "moves/letter", "better": "lower"})
    out += [{"name": f"{m}.errors", "unit": "count", "better": "lower"} for m in spans.MODULES]
    out.append({"name": "trace.overhead_frac", "unit": "fraction", "better": "lower"})
    return out


def per_layer_metrics(summary: dict, overhead_frac: float) -> dict[str, float]:
    def get(span: str, field: str) -> float:
        return summary.get(span, {}).get(field, 0)

    traced_checks = {k.split(".", 1)[1] for k in summary if k.startswith("verify.")}
    if traced_checks != set(VERIFY_CHECKS):
        raise RuntimeError(
            "verify.SUITES no longer matches VERIFY_CHECKS: "
            f"new {sorted(traced_checks - set(VERIFY_CHECKS))}, "
            f"gone {sorted(set(VERIFY_CHECKS) - traced_checks)}"
        )
    values: dict[str, float] = {}
    for name in spans.LAYERS:
        span = spans.span_name(name)
        values[f"{span}.calls"] = get(span, "calls")
        values[f"{span}.self_s"] = get(span, "self_s")
    for c in VERIFY_CHECKS:
        values[f"verify.{c}.self_s"] = get(f"verify.{c}", "self_s")
    for metric, (span, _, _) in COUNTERS.items():
        values[metric] = get(span, "amount")
    edges = summary["edges_in_bfs"]["amount"]
    values["strategies.bfs_useful_ratio"] = (
        get("strategies.min_placements_table", "amount") / edges if edges else 0.0
    )
    letters = get("firings.firing_moves", "calls")
    values["firings.displacements_per_letter"] = (
        get("firings.firing_moves", "amount") / letters if letters else 0.0
    )
    for module in spans.MODULES:
        values[f"{module}.errors"] = sum(
            s["errors"] for k, s in summary.items() if k.startswith(module + ".") and "errors" in s
        )
    values["trace.overhead_frac"] = overhead_frac
    return values


def spawn(args, outdir: str, job_id: int, traced=False, setup_only=False) -> dict:
    """Run one worker process to completion; its JSON report, or an error.
    The worker is killed at the run's deadline."""
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--outdir", outdir, "--job-id", str(job_id),
    ]
    cmd += ["--traced"] * traced + ["--setup-only"] * setup_only
    env = dict(os.environ, TMPDIR=outdir)
    timeout = max(DEADLINE_S - (time.perf_counter() - args.started), 1)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"job still running {DEADLINE_S} s into the run"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"error": tail[0]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Checks attempted and failed over a run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def check(self, report: dict) -> bool:
        if "error" in report:
            print(f"job raised: {report['error']}", file=sys.stderr)
            results = [("job completed", False)] * checks.CHECK_COUNTS[self.workload]
        else:
            try:
                results = checks.run_checks(self.workload, report)
            except (OSError, ValueError, KeyError, TypeError) as err:
                print(f"outputs unreadable: {err!r}", file=sys.stderr)
                results = [("outputs readable", False)] * checks.CHECK_COUNTS[self.workload]
        for name, passed in results:
            if not passed:
                print(f"check failed: {name}", file=sys.stderr)
        self.attempted += len(results)
        self.failed += sum(1 for _, passed in results if not passed)
        return all(passed for _, passed in results)


def _spread(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}"


def setup_samples(args, outdir: str, count: int, first_id: int) -> list[float]:
    """Set-up seconds of ``count`` set-up-only processes."""
    out = []
    for k in range(count):
        report = spawn(args, outdir, first_id + k, setup_only=True)
        if "error" in report:
            break
        out.append(report["setup_s"])
    return out


def end_to_end(args, outdir: str, tally: Tally) -> dict[str, tuple[float, str]]:
    units = WORKLOADS[args.workload][0]
    # half the set-up samples before the jobs and half after, so that one
    # slow spell of the machine moves fewer of them
    setups = setup_samples(args, outdir, SETUP_SAMPLES // 2, 1000)
    jobs = []
    started = time.perf_counter()
    while True:
        t = time.perf_counter()
        report = spawn(args, outdir, len(jobs))
        if tally.check(report):
            jobs.append(report)
        if time.perf_counter() - started + (time.perf_counter() - t) > args.seconds:
            break
    setups += [j["setup_s"] for j in jobs]
    setups += setup_samples(args, outdir, SETUP_SAMPLES - len(setups), 2000)
    metrics = {"check_pass_frac": (1 - tally.failed / tally.attempted, "fraction")}
    if jobs and setups:
        rates = [units / j["job_s"] for j in jobs]
        rate = units * len(jobs) / sum(j["job_s"] for j in jobs)
        wall_rate = units * len(jobs) / sum(j["job_wall_s"] for j in jobs)
        slowdown = [j["probe_mean_s"] / probe.PROBE_REF_S for j in jobs]
        rss = [j["peak_rss_mb"] for j in jobs]
        print(f"units_per_s      {rate:.6g} units/s  per job {_spread(rates)}")
        print(f"  wall time      {wall_rate:.6g} units/s  probe time / reference per job "
              + " ".join(f"{x:.3f}" for x in slowdown))
        print(f"peak_rss_mb      {statistics.median(rss):.6g} MB  {_spread(rss)}")
        print(f"setup_s          {statistics.median(setups):.6g} s  {_spread(setups)}")
        metrics["units_per_s"] = (rate, "units/s")
        metrics["peak_rss_mb"] = (statistics.median(rss), "MB")
        metrics["setup_s"] = (statistics.median(setups), "s")
    return metrics


def traced_run(args, outdir: str, tally: Tally) -> dict[str, tuple[float, str]]:
    units = WORKLOADS[args.workload][0]
    base = spawn(args, outdir, 0)
    traced = spawn(args, outdir, 1, traced=True)
    if not (tally.check(base) and tally.check(traced)):
        return {}
    overhead = 1 - base["job_s"] / traced["job_s"]
    values = per_layer_metrics(spans.summarize(traced["spans"]), overhead)
    units_of = {m["name"]: m["unit"] for m in per_layer_spec()}
    print(f"untraced {units / base['job_s']:.6g} units/s, traced {units / traced['job_s']:.6g} units/s")
    return {name: (value, units_of[name]) for name, value in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.started = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "homing", "__init__.py")):
        print(f"bench: no library sources under {ROOT}/src/homing", file=sys.stderr)
        return 2

    size, unit, _ = WORKLOADS[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  {size} {unit} per job")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tally = Tally(args.workload)
    try:
        spawn(args, outdir, -1, setup_only=True)  # fills the bytecode caches, not counted
        run = traced_run if args.trace else end_to_end
        metrics = run(args, outdir, tally)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if tally.attempted == 0:
        print("bench: no job completed", file=sys.stderr)
        return 1
    print(f"check_fail_frac  {tally.failed / tally.attempted:.6g} fraction  "
          f"({tally.failed} failed of {tally.attempted} checks)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
