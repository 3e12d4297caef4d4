"""Ablation: virtual vs stored α-memories (paper section 4.2).

The paper's motivation for virtual α-memories: "if selection conditions
have low selectivity … α-memories will contain a large amount of data
that is redundant since it is already stored in base tables".  This bench
sweeps the selection predicate's selectivity on a 2000-row relation and
reports, for a stored (budget ∞) and a virtual (budget 0) middle memory:

* the materialised α-memory entries (storage the virtual node saves);
* the per-token join-test time (the price the virtual node pays by
  scanning or probing the base relation instead), each cell the best of
  ``RUNS`` measurements on freshly built databases.

Expected shape: storage savings grow linearly with the qualifying
fraction; token time is comparable when an index supports the join probe
(the "space for time" trade the paper describes).
"""

import math
import time

import pytest

from repro import Database
from repro.core.memory_optimizer import optimize_memories
from common import emit

ROWS = 2000
SELECTIVITIES = (0.05, 0.25, 0.50, 0.90)
#: fresh measurements per timing cell; the cell reports the best
RUNS = 5

RULE = ('define rule watch if emp.sal > {cutoff} '
        'and emp.dno = dept.dno and dept.name = "d1" '
        'then append to bench_log(name = emp.name)')


def build(selectivity: float, budget: float, with_index: bool = True):
    db = Database()
    optimize_memories(db, budget)
    db.execute_script("""
        create emp (name = text, sal = float8, dno = int4)
        create dept (dno = int4, name = text)
        create bench_log (name = text)
    """)
    emp = db.catalog.relation("emp")
    for i in range(ROWS):
        emp.insert((f"e{i}", float(i), i % 50))
    for d in range(50):
        db.catalog.relation("dept").insert((d, f"d{d}"))
    if with_index:
        db.execute("define index empdno on emp (dno) using hash")
    cutoff = ROWS * (1.0 - selectivity)
    db._rules_suspended = True
    db.execute(RULE.format(cutoff=cutoff))
    return db


def token_time(db, repeats: int = 100) -> float:
    """Time dept-side tokens, which join through the emp memory."""
    tids = []
    start = time.perf_counter()
    for _ in range(repeats):
        tids.append(db.hooks.insert("dept", (1, "d1")))
    elapsed = time.perf_counter() - start
    for tid in tids:
        db.hooks.delete("dept", tid)
    db.network.flush_dynamic()
    return elapsed / repeats


def best_token_time(selectivity: float, budget: float,
                    with_index: bool = True, repeats: int = 100) -> float:
    """The best of :data:`RUNS` :func:`token_time` measurements, each
    on a freshly built database."""
    return min(token_time(build(selectivity, budget, with_index), repeats)
               for _ in range(RUNS))


@pytest.mark.parametrize("selectivity", SELECTIVITIES)
@pytest.mark.parametrize("budget", [math.inf, 0], ids=["stored", "virtual"])
def test_dept_token_join(benchmark, selectivity, budget):
    db = build(selectivity, budget)
    tids = []

    def run():
        tids.append(db.hooks.insert("dept", (1, "d1")))

    benchmark.pedantic(run, rounds=50, iterations=1, warmup_rounds=2)
    for tid in tids:
        db.hooks.delete("dept", tid)


def test_virtual_memory_table(benchmark):
    holder = {}

    def run():
        rows = []
        for selectivity in SELECTIVITIES:
            stored = build(selectivity, math.inf)
            virtual = build(selectivity, 0)
            rows.append((
                selectivity,
                stored.network.memory_entry_count("watch"),
                virtual.network.memory_entry_count("watch"),
                best_token_time(selectivity, math.inf),
                best_token_time(selectivity, 0),
            ))
        holder["rows"] = rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = holder["rows"]
    lines = [f"Virtual vs stored α-memories ({ROWS}-row emp, indexed "
             f"join attribute, best of {RUNS})",
             f"{'selectivity':>11} | {'stored entries':>14} | "
             f"{'virtual entries':>15} | {'stored token':>12} | "
             f"{'virtual token':>13}"]
    lines.append("-" * len(lines[1]))
    for sel, s_entries, v_entries, s_tok, v_tok in rows:
        lines.append(
            f"{sel:>11.2f} | {s_entries:>14} | {v_entries:>15} | "
            f"{s_tok * 1e6:>10.1f}us | {v_tok * 1e6:>11.1f}us")
    emit("ablation_virtual_memory", "\n".join(lines))
    # Shape: stored entries grow with selectivity; virtual stays at the
    # dept-memory-only level, saving the emp fraction entirely.
    stored_entries = [r[1] for r in rows]
    virtual_entries = [r[2] for r in rows]
    assert stored_entries[-1] > stored_entries[0]
    assert all(v < 5 for v in virtual_entries)
    assert stored_entries[-1] >= 0.9 * ROWS * SELECTIVITIES[-1]


def test_virtual_memory_scan_vs_index_cost(benchmark):
    """Without an index on the join attribute the virtual node pays a
    full relation scan per probe — the optimisation question the paper
    poses at the end of section 4.2."""
    holder = {}

    def run():
        holder["indexed"] = best_token_time(0.5, 0, repeats=30)
        holder["unindexed"] = best_token_time(0.5, 0, with_index=False,
                                              repeats=30)

    benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Virtual α-memory probe cost: index scan vs sequential scan "
             f"(best of {RUNS})",
             f"{'access path':>12} | {'token time':>12}",
             "-" * 29,
             f"{'index':>12} | "
             f"{holder['indexed'] * 1e6:>10.1f}us",
             f"{'seq scan':>12} | "
             f"{holder['unindexed'] * 1e6:>10.1f}us"]
    emit("ablation_virtual_memory_index", "\n".join(lines))
    assert holder["unindexed"] > holder["indexed"]
