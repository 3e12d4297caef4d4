"""Counter overhead gate: engine counters must stay (nearly) free.

The observability layer threads an :class:`~repro.observe.EngineStats`
registry through every hot path — selection-index probes, α-memory
maintenance, P-node transitions, token routing, agenda selection.  Each
bump is a guarded dict increment; this benchmark holds the layer to its
budget: with counters *enabled*, a bulk append routed as one Δ-set
(the same shape as ``test_batch_tokens.py``) must run within
``MAX_OVERHEAD`` of the same workload with counters *disabled*.

The gate is the median, over ``PAIRS`` alternating pairs of fresh runs
(the side that goes first alternates too), of each pair's ratio of
process CPU times: drift of the host and of the other processes on it
falls on both halves of a pair alike, and a median of 30 such ratios
resolves a few percent where a ratio of two medians of five did not.
Under CI the bar is relaxed because shared runners make
single-digit-percent comparisons noisy.  The run also emits the final
counter snapshot via :meth:`EngineStats.to_json` into
``BENCH_observe.json``, alongside the other BENCH artifacts.
"""

import json
import statistics
import time

from common import alternating_pairs, emit, median_time, running_in_ci
from repro import Database

N_RULES = 64
N_ROWS = 10_000
DISTINCT_SALARIES = 32
#: alternating (counters on, counters off) pairs the gate takes the
#: median pair ratio of
PAIRS = 30
#: counters may cost at most 5% on the bulk-append workload
MAX_OVERHEAD = 1.25 if running_in_ci() else 1.05


def _rows():
    return [("bulk%05d" % i, 18 + (i % 12),
             1000.0 * (i % DISTINCT_SALARIES) + 400.0, 1, 1)
            for i in range(N_ROWS)]


def _prepared_database(counters_enabled):
    db = Database(network="a-treat")
    db.stats.enabled = counters_enabled
    db.execute_script("""
        create emp (name = text, age = int4, sal = float8,
                    dno = int4, jno = int4)
        create bench_log (name = text)
    """)
    db._rules_suspended = True
    for i in range(N_RULES):
        low, high = 1000 * i, 1000 * i + 800
        db.execute(f"define rule observe_rule_{i} "
                   f"if {low} < emp.sal and emp.sal <= {high} "
                   f"and emp.age > 21 "
                   f"then append to bench_log(name = emp.name)")
    return db


def _measure(rows, counters_enabled):
    """(seconds to append and route the batch, P-node total, final
    counters)."""
    db = _prepared_database(counters_enabled)
    start = time.process_time()
    db.hooks.insert_many("emp", rows)
    elapsed = time.process_time() - start
    pnode_total = sum(len(db.network.pnode(name))
                      for name in db.network.rules)
    return elapsed, pnode_total, db.stats


def test_observe_overhead(benchmark):
    rows = _rows()
    holder = {}

    def run():
        pairs = alternating_pairs(lambda on: _measure(rows, on), PAIRS)
        enabled, disabled = zip(*pairs)
        holder["ratio"] = statistics.median(
            on / off for (on, _, _), (off, _, _) in pairs)
        holder["enabled"] = median_time([t for t, _, _ in enabled])
        holder["disabled"] = median_time([t for t, _, _ in disabled])
        totals = {total for _, total, _ in enabled + disabled}
        assert len(totals) == 1, f"P-node contents diverged: {totals}"
        holder["pnode_total"] = totals.pop()
        stats = enabled[-1][2]
        assert stats.get("tokens.routed") == N_ROWS
        assert stats.get("selection.probes") > 0
        assert stats.get("pnode.inserts") == holder["pnode_total"]
        # counters off => nothing recorded
        assert disabled[-1][2].snapshot() == {}
        holder["snapshot_json"] = stats.to_json(
            workload="batch_tokens", rules=N_RULES, rows=N_ROWS)

    benchmark.pedantic(run, rounds=1, iterations=1)

    overhead = holder["ratio"]
    snapshot = json.loads(holder["snapshot_json"])
    text = "\n".join([
        f"Counter overhead ({N_ROWS} tuples, {N_RULES} rules)",
        f"counters on  {holder['enabled']:.4f}s | "
        f"counters off {holder['disabled']:.4f}s | "
        f"median pair ratio {overhead:.3f}x over {PAIRS} pairs "
        f"(bar {MAX_OVERHEAD}x)",
        f"{len(snapshot['counters'])} distinct counters recorded",
    ])
    emit("observe", text, {
        "network": "a-treat",
        "rules": N_RULES,
        "rows": N_ROWS,
        "pairs": PAIRS,
        "enabled_s": holder["enabled"],
        "disabled_s": holder["disabled"],
        "overhead": overhead,
        "max_overhead": MAX_OVERHEAD,
        "pnode_total": holder["pnode_total"],
        "stats": snapshot,
    })
    assert overhead <= MAX_OVERHEAD, (
        f"counters cost {overhead:.3f}x "
        f"(budget {MAX_OVERHEAD}x)")
