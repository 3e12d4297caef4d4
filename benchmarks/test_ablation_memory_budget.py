"""Ablation: storage-budgeted memory materialization (paper §8).

"…the most worthy memory nodes would be materialized for the best
possible performance given the available storage."  This bench sweeps a
storage budget over a rule set with heterogeneous selectivities and
reports the α entries actually stored and the resulting token-burst
cost — the storage/time frontier the optimizer walks.  The budget is
applied to an all-stored rule base (``optimize_memories`` swaps its
memories in place); the "at activation" column sets the budget first and
lets each rule plan its memories under what is left as it is defined,
which must also stay within the budget.
"""

import time

import pytest

from repro import Database
from repro.core.memory_optimizer import optimize_memories
from common import emit

ROWS = 800
BUDGETS = (0, 50, 400, 10000)


def build(budget: float | None = None) -> Database:
    """The rule base; with ``budget`` set before activation, each rule
    plans its memories under what is left of it."""
    db = Database()
    if budget is not None:
        optimize_memories(db, budget_entries=budget)
    db.execute_script("""
        create big (a = int4, k = int4)
        create small (k = int4, tag = text)
        create log (a = int4)
    """)
    big = db.catalog.relation("big")
    for i in range(ROWS):
        big.insert((i, i % 25))
    for k in range(25):
        db.catalog.relation("small").insert((k, f"t{k}"))
    db._rules_suspended = True
    # three rules with very different memory sizes
    db.execute(f"define rule r_wide if big.a >= {ROWS // 10} "
               f"and big.k = small.k then append to log(a = big.a)")
    db.execute(f"define rule r_mid if big.a >= {ROWS - ROWS // 4} "
               f"and big.k = small.k then append to log(a = big.a)")
    db.execute(f"define rule r_thin if big.a >= {ROWS - 20} "
               f"and big.k = small.k then append to log(a = big.a)")
    return db


def burst(db, count: int = 30) -> float:
    tids = []
    start = time.perf_counter()
    for i in range(count):
        tids.append(db.hooks.insert("small", (i % 25, "probe")))
    elapsed = time.perf_counter() - start
    for tid in tids:
        db.hooks.delete("small", tid)
    return elapsed


@pytest.mark.parametrize("budget", BUDGETS)
def test_burst_under_budget(benchmark, budget):
    db = build()
    optimize_memories(db, budget_entries=budget)
    benchmark.pedantic(lambda: burst(db), rounds=5, warmup_rounds=1)


def test_memory_budget_table(benchmark):
    holder = {}

    def run():
        rows = []
        for budget in BUDGETS:
            db = build()
            plan = optimize_memories(db, budget_entries=budget)
            stored = db.network.memory_entry_count()
            at_activation = build(budget).network.memory_entry_count()
            cost = min(burst(db) for _ in range(5))
            rows.append((budget, stored, at_activation,
                         len(plan.materialized()), cost))
        holder["rows"] = rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = holder["rows"]
    lines = [f"Storage-budgeted materialization ({ROWS}-row big relation, "
             f"3 rules; 30-token bursts)",
             f"{'budget':>7} | {'α entries':>9} | {'at activation':>13} | "
             f"{'materialized':>12} | {'burst time':>11}"]
    lines.append("-" * len(lines[1]))
    for budget, stored, at_activation, materialized, cost in rows:
        lines.append(f"{budget:>7} | {stored:>9} | {at_activation:>13} | "
                     f"{materialized:>12} | {cost * 1000:>9.2f}ms")
    emit("ablation_memory_budget", "\n".join(lines))
    # Shape: stored entries are monotone in budget and never exceed it,
    # either way the budget is applied; the fully-materialized end is
    # the fastest or tied.
    for budget, stored, at_activation, _, _ in rows:
        assert stored <= budget and at_activation <= budget
    entries = [r[1] for r in rows]
    assert entries == sorted(entries)
    assert rows[-1][4] <= rows[0][4] * 1.5
