"""Check ``BENCHMARK.json`` against the driver's contract, then smoke-run
every workload and check what it prints.

    python3 benchmarks/e2e/selfcheck.py

Static part: exactly the contract's keys; name / unit / path / command
shapes and size limits; 2-8 workloads, 1-16 end-to-end metrics (each
with a bound of at most 0.25, one of them ``setup_s`` in ``s``, lower is
better), 1-128 per-layer metrics; every name used once; the declared
workloads are the ones ``workloads.py`` implements; all the driver's
runs fit its time cap on paper.

Smoke part: each workload once per mode at ``--scale 0.1 --seconds 1``;
the last line of standard output must be a JSON object with exactly the
contract's keys, ``correct`` true, every declared metric of that mode
emitted once with a finite value and nothing undeclared.  Exits
non-zero on the first list of problems.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = ROOT / "BENCHMARK.json"

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
#: the driver's wall-clock cap for all its 4 + 22 x workloads runs
TIME_CAP_S = 3420
SMOKE_CAP_S = 30


def check_manifest(doc: dict) -> list[str]:
    problems: list[str] = []

    def need(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    need(MANIFEST.stat().st_size <= 64 * 1024, "file exceeds 64 KiB")
    need(set(doc) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"},
         f"top-level keys are {sorted(doc)}")
    if problems:
        return problems

    paths = doc["paths"]
    need(isinstance(paths, list) and 1 <= len(paths) <= 16,
         "paths: 1 to 16 directories")
    for path in paths:
        need(isinstance(path, str) and PATH.fullmatch(path) is not None
             and not path.startswith("/") and ".." not in path.split("/"),
             f"path {path!r} is not a plain relative path")
        directory = ROOT / path
        need(directory.is_dir(), f"path {path!r} is not a directory")
        for entry in directory.rglob("*"):
            need(not entry.is_symlink(), f"{entry} is a link")

    command = doc["command"]
    need(isinstance(command, list) and 1 <= len(command) <= 32
         and all(isinstance(c, str) and len(c) <= 200 for c in command),
         "command: at most 32 strings of at most 200 characters")
    for word in command:
        need(not word.startswith("/") and ".." not in word.split("/"),
             f"command word {word!r} leaves the checkout")
        if (ROOT / word).exists():
            need(any(word == p or word.startswith(p.rstrip("/") + "/")
                     for p in paths),
                 f"command names {word!r}, which is outside paths")

    need(isinstance(doc["run_seconds"], int)
         and not isinstance(doc["run_seconds"], bool)
         and 1 <= doc["run_seconds"] <= 60,
         "run_seconds: a whole number from 1 to 60")

    names: list[str] = []

    def entries(key: str, low: int, high: int, keys: set) -> list[dict]:
        items = doc[key]
        need(isinstance(items, list) and low <= len(items) <= high,
             f"{key}: {low} to {high} entries")
        for item in items:
            need(isinstance(item, dict) and set(item) == keys,
                 f"{key} entry {item!r} must have exactly {sorted(keys)}")
        items = [i for i in items if isinstance(i, dict)
                 and set(i) == keys]
        names.extend(i["name"] for i in items)
        return items

    for workload in entries("workloads", 2, 8, {"name", "why"}):
        why = workload["why"]
        need(isinstance(why, str) and 0 < len(why) <= 200
             and "\n" not in why,
             f"workload {workload['name']}: why is one line of at most "
             f"200 characters")
    metric_keys = {"name", "unit", "better"}
    end_to_end = entries("end_to_end", 1, 16, metric_keys | {"bound"})
    per_layer = entries("per_layer", 1, 128, metric_keys)
    for metric in end_to_end + per_layer:
        need(isinstance(metric["unit"], str)
             and UNIT.fullmatch(metric["unit"]) is not None,
             f"{metric['name']}: unit {metric['unit']!r}")
        need(metric["better"] in ("lower", "higher"),
             f"{metric['name']}: better is 'lower' or 'higher'")
    for metric in end_to_end:
        bound = metric["bound"]
        need(isinstance(bound, (int, float)) and not isinstance(bound, bool)
             and 0 < bound <= 0.25,
             f"{metric['name']}: bound must be in (0, 0.25]")
    need(any(m["name"] == "setup_s" and m["unit"] == "s"
             and m["better"] == "lower" for m in end_to_end),
         "end_to_end needs setup_s in s, lower is better")
    for name in names:
        need(isinstance(name, str) and NAME.fullmatch(name) is not None,
             f"name {name!r} is not [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}")
    need(len(set(names)) == len(names),
         f"names used more than once: "
         f"{sorted({n for n in names if names.count(n) > 1})}")

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    declared = [w["name"] for w in doc["workloads"]
                if isinstance(w, dict) and "name" in w]
    need(sorted(declared) == sorted(WORKLOADS),
         f"declared workloads {declared} != implemented "
         f"{sorted(WORKLOADS)}")
    return problems


def check_output(stdout: str, declared: list[str]) -> list[str]:
    lines = stdout.strip().splitlines()
    if not lines:
        return ["printed nothing"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return [f"last line is not JSON: {lines[-1][:80]!r}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys are {sorted(result)}"]
    problems = []
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not (isinstance(result["attempted"], int)
            and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append("attempted/failed are not whole numbers >= 1/0")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(declared):
        problems.append(f"emitted != declared: "
                        f"{sorted(set(metrics) ^ set(declared))}")
    for name, metric in metrics.items():
        if set(metric) != {"value", "unit"} \
                or isinstance(metric["value"], bool) \
                or not isinstance(metric["value"], (int, float)) \
                or not math.isfinite(metric["value"]):
            problems.append(f"{name}: not a finite number with a unit")
    return problems


def smoke(doc: dict) -> list[str]:
    problems = []
    started = time.perf_counter()
    for workload in doc["workloads"]:
        # both modes at once: the host has two cores
        runs = [(trace, key, subprocess.Popen(
            [sys.executable, str(HERE / "run.py"),
             "--workload", workload["name"], "--trace", str(trace),
             "--seed", "1", "--seconds", "1", "--scale", "0.1",
             "--results", str(HERE / "out" / "selfcheck.jsonl")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))]
        for trace, key, process in runs:
            label = f"{workload['name']} --trace {trace}"
            try:
                stdout, stderr = process.communicate(timeout=180)
            except subprocess.TimeoutExpired:
                process.kill()
                process.communicate()
                problems.append(f"{label}: no result within 180 s")
                continue
            if process.returncode:
                problems.append(
                    f"{label}: exit code {process.returncode}: "
                    f"{stderr.strip()[-300:]}")
                continue
            problems += [f"{label}: {p}" for p in check_output(
                stdout, [m["name"] for m in doc[key]])]
    elapsed = time.perf_counter() - started
    print(f"smoke: {2 * len(doc['workloads'])} runs in {elapsed:.1f} s")
    if elapsed > SMOKE_CAP_S:
        problems.append(f"smoke took {elapsed:.1f} s (cap {SMOKE_CAP_S})")
    return problems


def main() -> int:
    try:
        doc = json.loads(MANIFEST.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"BENCHMARK.json: {exc}")
        return 1
    problems = check_manifest(doc)
    if not problems:
        runs = 4 + 22 * len(doc["workloads"])
        print(f"manifest ok: {len(doc['workloads'])} workloads, "
              f"{len(doc['end_to_end'])} end-to-end and "
              f"{len(doc['per_layer'])} per-layer metrics; the driver's "
              f"{runs} runs leave {TIME_CAP_S / runs:.1f} s each, "
              f"{doc['run_seconds']} s of it measured")
        problems = smoke(doc)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selfcheck", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
