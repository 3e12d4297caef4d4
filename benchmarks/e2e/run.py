"""The repo benchmark: four request workloads, end to end and by layer.

    python3 benchmarks/e2e/run.py                       # everything
    python3 benchmarks/e2e/run.py --workload oltp_prepared --seed 7 \\
        --seconds 15 --trace 0                          # one run

One run = one workload in one mode.  ``--trace 0`` measures the
end-to-end metrics with nothing installed; ``--trace 1`` measures the
per-layer metrics with the benchmark's tracer wrapped around the
engine's entry points.  Every metric is printed by name with its unit,
the outputs are checked, and the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is non-zero when any output check failed.  ``BENCHMARK.json`` at
the repo root declares the workloads and metrics; a run that would
emit anything else is an error.

The system under test is always ``Database()`` with its *defaults*, so
a later change of a default shows up here.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    raise SystemExit(f"no engine source at {ROOT / 'src' / 'repro'}: "
                     f"nothing to measure")
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from layers import layer_metrics  # noqa: E402
from tracer import Tracer, engine_targets, totals_delta  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: how many times a run sets the system up; ``setup_s`` is the median
SETUPS = 3
#: shares of ``--seconds`` a traced run spends untraced / traced
UNTRACED_SHARE, TRACED_SHARE = 0.3, 0.6


def timed_setup(workload, tracer=None):
    start = time.perf_counter()
    system = harness.make_system(workload, tracer)
    return system, time.perf_counter() - start


def counts_of(rounds) -> tuple[int, int, int]:
    """(attempted, failed, wrong) over measured rounds."""
    failed = sum(r.failed for r in rounds)
    return (sum(len(r.latencies) for r in rounds) + failed, failed,
            sum(r.wrong for r in rounds))


def delta(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0)
            for key, value in after.items()}


def run_untraced(workload, seconds: float) -> dict:
    """End-to-end metrics; nothing installed in the engine."""
    system, first_setup = timed_setup(workload)
    setups = [first_setup]
    gc.collect()
    gc.freeze()
    before = system.snapshot()
    rounds = harness.measure(system, workload, seconds)
    after = system.snapshot()
    gc.unfreeze()
    problems = harness.size_problems(workload, before["sizes"],
                                     after["sizes"])
    problems += system.finish(verify=True)
    # The peak was read before anything else is built in this process;
    # the remaining set-ups and the differential run come after.
    for _ in range(SETUPS - 1):
        system, seconds_taken = timed_setup(workload)
        setups.append(seconds_taken)
        if workload.served or len(setups) < SETUPS:
            system.finish()
    if workload.served:
        system = harness.InProcessSystem(workload)
    problems += harness.differential_problems(workload, system)
    system.finish()

    segments = harness.segment_stats(rounds)
    attempted, failed, wrong = counts_of(rounds)
    if wrong:
        problems.append(f"{wrong} replies were not the expected ones")
    rates = [s["ops_per_s"] for s in segments]
    metrics = {name: (statistics.median(s[name] for s in segments), unit)
               for name, unit in (("ops_per_s", "1/s"),
                                  ("op_latency_p50_us", "us"),
                                  ("op_latency_p99_us", "us"),
                                  ("cpu_us_per_op", "us"))}
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (after["max_rss_kb"] / 1024, "MiB")
    counted = delta(after["counters"], before["counters"])
    return {
        "metrics": metrics,
        "attempted": attempted, "failed": failed, "problems": problems,
        "segments": segments, "setups_s": setups,
        "drift": abs(rates[-1] - rates[0]) > 0.15 * rates[0],
        "counts": {key: counted.get(key, 0)
                   for key in ("tokens.routed", "rules.fired",
                               "wal.records")},
    }


def run_traced(workload, seconds: float) -> dict:
    """Per-layer metrics: an untraced stretch for the overhead ratio,
    then the same stream from the start with the tracer installed."""
    system, _ = timed_setup(workload)
    untraced = harness.measure(system, workload,
                               seconds * UNTRACED_SHARE)
    system.finish()

    tracer = Tracer()
    if not workload.served:              # the server child installs its own
        tracer.install(engine_targets())
    try:
        system, _ = timed_setup(workload, tracer)
        gc.collect()
        gc.freeze()
        before = system.snapshot()
        rounds = harness.measure(system, workload, seconds * TRACED_SHARE)
        after = system.snapshot()
        gc.unfreeze()
        problems = system.finish(verify=True)
    finally:
        tracer.uninstall()
    if not workload.served:
        harness.OUT.mkdir(exist_ok=True)
        tracer.dump(harness.OUT / f"trace-{workload.name}.jsonl")

    attempted, failed, wrong = counts_of(untraced + rounds)
    if wrong:
        problems.append(f"{wrong} replies were not the expected ones")
    latencies = [ns for r in rounds for ns in r.latencies]
    wall_ns = sum(r.wall_ns for r in rounds)

    def rate(measured) -> float:
        return sum(len(r.latencies) for r in measured) \
            / (sum(r.wall_ns for r in measured) / 1e9)

    totals = totals_delta(after["totals"], before["totals"])
    metrics = layer_metrics(
        ops=len(latencies), wall_ns=wall_ns,
        connections=workload.clients, served=workload.served,
        totals=totals,
        lifetime=after["totals"],
        counters=delta(after["counters"], before["counters"]),
        final_counters=after["counters"],
        plans_built=after["plans_built"] - before["plans_built"],
        wal_samples=(before["wal"], after["wal"]),
        client_mean_ns=statistics.fmean(latencies),
        untraced_ops_per_s=rate(untraced), traced_ops_per_s=rate(rounds))
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems,
            # the raw material, for the results record
            "ops_traced": len(latencies), "wall_ns": wall_ns,
            "client_mean_us": statistics.fmean(latencies) / 1e3,
            "span_totals": totals}


# ----------------------------------------------------------------------

def host_fingerprint() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            # never look for a repository above the checkout
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "git_sha": sha or "unknown"}


def run_one(args, declared: dict) -> int:
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    result = (run_traced if args.trace else run_untraced)(
        workload, args.seconds)
    metrics = result.pop("metrics")
    expected = [m["name"] for m in
                declared["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(expected):
        raise SystemExit(
            f"emitted metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(expected))}")
    correct = not result["problems"]
    for name in expected:
        number, unit = metrics[name]
        print(f"{workload.name:16} {name:52} {number:14.4f} {unit}")
    print(f"{workload.name:16} ops attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for problem in result["problems"]:
        print(f"{workload.name}: CHECK FAILED: {problem}",
              file=sys.stderr)
    if result.get("drift"):
        print(f"{workload.name}: drift: first and last segment "
              f"throughput differ by more than 15 %", file=sys.stderr)
    wire = {name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in expected}
    record = {"workload": workload.name, "trace": args.trace,
              "seed": args.seed, "scale": args.scale,
              "seconds": args.seconds, "host": host_fingerprint(),
              "correct": correct, "metrics": wire, **result}
    results = pathlib.Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": wire}))
    return 0 if correct else 1


def run_all(args, declared: dict) -> int:
    """Every workload, untraced then traced, each in its own process
    (so peak memory and set-up are per workload)."""
    status = 0
    for spec in declared["workloads"]:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"),
                 "--workload", spec["name"], "--trace", str(trace),
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--scale", str(args.scale), "--results", args.results])
            status = status or done.returncode
    return status


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="default: all of them, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"],
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink rows and rules (smoke runs)")
    parser.add_argument("--results",
                        default=str(harness.OUT / "results.jsonl"),
                        help="JSON-lines file every run is appended to")
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args, declared)
    return run_one(args, declared)


if __name__ == "__main__":
    raise SystemExit(main())
