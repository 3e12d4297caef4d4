"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl
    python3 benchmarks/e2e/compare.py A1.jsonl,A2.jsonl B1.jsonl,B2.jsonl

Each side is one results file written by ``run.py --results`` (or
several, comma-separated); A is the base, B the candidate.  For every
end-to-end metric, one row per workload: both medians with their
quartiles, B's change relative to A (the base is named in the header),
the regression bound ``BENCHMARK.json`` fixes, and a verdict:

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``regressed`` — it is;
* ``unresolved`` — a side's own spread (quartile distance over median)
  is wider than the bound, so the runs cannot tell.

Exits 1 when any row regressed.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load(side: str) -> dict:
    """``workload -> metric -> [values]`` of the untraced runs."""
    values: dict = {}
    for path in side.split(","):
        for line in pathlib.Path(path).read_text().splitlines():
            record = json.loads(line)
            if record["trace"]:
                continue
            metrics = values.setdefault(record["workload"], {})
            for name, metric in record["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
    return values


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def cell(q1: float, median: float, q3: float, n: int) -> str:
    return f"{median:.5g} ({q1:.5g}..{q3:.5g}) n={n}"


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, candidate = load(sys.argv[1]), load(sys.argv[2])
    regressed = False
    for metric in declared["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        print(f"\n{name} [{metric['unit']}], {metric['better']} is "
              f"better, bound {bound:.0%} of A")
        print(f"  {'workload':16} {'A median (q1..q3)':>34} "
              f"{'B median (q1..q3)':>34} {'B vs A':>8}  verdict")
        for spec in declared["workloads"]:
            workload = spec["name"]
            a = base.get(workload, {}).get(name)
            b = candidate.get(workload, {}).get(name)
            if not a or not b:
                continue
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            change = (bm - am) / am
            spread = max((a3 - a1) / am, (b3 - b1) / bm)
            if spread > bound:
                verdict = f"unresolved (spread {spread:.1%})"
            elif sign * change > bound:
                verdict = "regressed"
                regressed = True
            else:
                verdict = "ok"
            print(f"  {workload:16} {cell(a1, am, a3, len(a)):>34} "
                  f"{cell(b1, bm, b3, len(b)):>34} {change:+8.1%}  "
                  f"{verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
