"""Bulk append (one routed Δ-set) vs per-row appends.

:meth:`~repro.txn.transitions.TransitionHooks.insert_many` applies every
heap insert first and routes the combined Δ-set once through
:meth:`~repro.core.network.DiscriminationNetwork.process_tokens`; a
per-row :meth:`~repro.txn.transitions.TransitionHooks.insert` routes
each row's tokens as it goes.  Every token takes the same path either
way — one selection-index probe, one residual check per candidate
memory — so the bulk form saves only the per-row call chain and must be
no slower, with P-node contents identical.

Workload: ``N_ROWS`` tuples appended to a relation watched by
``N_RULES`` single-variable rules, each with an anchored salary interval
plus a residual age conjunct, on a default ``Database()``.  The gate is
the median, over ``PAIRS`` alternating pairs of fresh runs (the side
that goes first alternates too), of each pair's ratio of process CPU
times.  A full garbage collection runs before each timed side, so a
collection the other side's allocations made due cannot land in it;
drift of the host falls on both halves of a pair alike.  The bar is
relaxed under CI.
"""

import gc
import statistics
import time

from common import alternating_pairs, emit, median_time, speedup_bar
from repro import Database

N_RULES = 64
N_ROWS = 10_000
DISTINCT_SALARIES = 32
#: alternating (per-row, bulk) pairs the gate takes the median pair
#: ratio of
PAIRS = 12
MIN_SPEEDUP = speedup_bar(1.0)


def _rows():
    return [("bulk%05d" % i, 18 + (i % 12),
             1000.0 * (i % DISTINCT_SALARIES) + 400.0, 1, 1)
            for i in range(N_ROWS)]


def _prepared_database():
    db = Database()
    db.execute_script("""
        create emp (name = text, age = int4, sal = float8,
                    dno = int4, jno = int4)
        create bench_log (name = text)
    """)
    db._rules_suspended = True
    for i in range(N_RULES):
        low, high = 1000 * i, 1000 * i + 800
        db.execute(f"define rule batch_rule_{i} "
                   f"if {low} < emp.sal and emp.sal <= {high} "
                   f"and emp.age > 21 "
                   f"then append to bench_log(name = emp.name)")
    return db


def _measure(rows, bulk):
    """CPU seconds to append ``rows`` (heap, Δ-sets and token
    routing)."""
    db = _prepared_database()
    gc.collect()
    start = time.process_time()
    if bulk:
        db.hooks.insert_many("emp", rows)
    else:
        for values in rows:
            db.hooks.insert("emp", values)
    elapsed = time.process_time() - start
    assert db.network.batches_processed == (1 if bulk else 0)
    total = sum(len(db.network.pnode(name)) for name in db.network.rules)
    return elapsed, total


def test_batch_tokens(benchmark):
    rows = _rows()
    holder = {}

    def run():
        pairs = alternating_pairs(lambda is_bulk: _measure(rows, is_bulk),
                                  PAIRS)
        bulk, per_row = zip(*pairs)
        holder["ratio"] = statistics.median(
            row / many for (many, _), (row, _) in pairs)
        holder["per_row"] = median_time([t for t, _ in per_row])
        holder["bulk"] = median_time([t for t, _ in bulk])
        totals = {total for _, total in per_row + bulk}
        assert len(totals) == 1, f"P-node contents diverged: {totals}"
        holder["pnode_total"] = totals.pop()

    benchmark.pedantic(run, rounds=1, iterations=1)

    speedup = holder["ratio"]
    text = "\n".join([
        f"Bulk append vs per-row appends ({N_ROWS} tuples, "
        f"{N_RULES} rules)",
        f"per-row {holder['per_row']:.4f}s | "
        f"bulk {holder['bulk']:.4f}s | "
        f"median pair ratio {speedup:.2f}x over {PAIRS} pairs",
        f"P-node entries either way: {holder['pnode_total']}",
    ])
    emit("batch_tokens", text, {
        "network": "a-treat",
        "rules": N_RULES,
        "rows": N_ROWS,
        "distinct_salaries": DISTINCT_SALARIES,
        "pairs": PAIRS,
        "per_row_append_s": holder["per_row"],
        "bulk_append_s": holder["bulk"],
        "bulk_speedup": speedup,
        "pnode_total": holder["pnode_total"],
    })
    assert speedup >= MIN_SPEEDUP, (
        f"bulk append {speedup:.2f}x the per-row speed "
        f"(need >= {MIN_SPEEDUP}x)")
