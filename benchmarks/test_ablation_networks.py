"""Ablation: Rete vs TREAT vs A-TREAT (paper sections 4.2 and 7).

Compares the three discrimination networks on the same rule set and
token stream, reporting per-token processing time and resident network
state (α entries; β partials for Rete).  Expected shape: Rete carries
the largest state (α + β), TREAT drops the β state, and A-TREAT's
virtual nodes (storage budget 0) drop the α state as well — the paper's
storage argument — while token times stay within a small factor of each
other.
"""

import math
import time

import pytest

from repro import Database
from repro.core.memory_optimizer import optimize_memories
from common import emit

ROWS = 600


def build(network: str, budget: float):
    db = Database(network=network)
    optimize_memories(db, budget)
    db.execute_script("""
        create emp (name = text, sal = float8, dno = int4)
        create dept (dno = int4, name = text)
        create bench_log (name = text)
    """)
    emp = db.catalog.relation("emp")
    for i in range(ROWS):
        emp.insert((f"e{i}", float(i), i % 20))
    for d in range(20):
        db.catalog.relation("dept").insert((d, f"d{d}"))
    db.execute("define index empdno on emp (dno) using hash")
    db._rules_suspended = True
    # a moderately selective join rule: ~half of emp qualifies
    db.execute(f'define rule watch if emp.sal > {ROWS / 2} '
               f'and emp.dno = dept.dno and dept.name = "d3" '
               f'then append to bench_log(name = emp.name)')
    return db


#: (network, storage budget, label)
CONFIGS = [
    ("rete", math.inf, "Rete"),
    ("treat", math.inf, "TREAT"),
    ("a-treat", 0, "A-TREAT(virtual)"),
]


def run_stream(db, burst: int = 40) -> float:
    """Insert/modify/delete a burst of emp tuples; returns elapsed."""
    start = time.perf_counter()
    tids = []
    for i in range(burst):
        tids.append(db.hooks.insert(
            "emp", (f"probe{i}", float(ROWS - i), i % 20)))
    for tid in tids[::2]:
        db.hooks.replace("emp", tid, ("probe*", float(ROWS + 1), 3))
    for tid in tids:
        db.hooks.delete("emp", tid)
    db.deltasets.clear()
    return time.perf_counter() - start


@pytest.mark.parametrize("network,budget,label", CONFIGS,
                         ids=[c[2] for c in CONFIGS])
def test_token_stream(benchmark, network, budget, label):
    db = build(network, budget)
    benchmark.pedantic(lambda: run_stream(db), rounds=10,
                       warmup_rounds=2)


def test_network_comparison_table(benchmark):
    holder = {}

    def run():
        rows = []
        for network, budget, label in CONFIGS:
            db = build(network, budget)
            alpha = db.network.memory_entry_count("watch")
            beta = (db.network.beta_entry_count("watch")
                    if network == "rete" else 0)
            samples = [run_stream(db) for _ in range(5)]
            rows.append((label, alpha, beta, min(samples)))
        holder["rows"] = rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = holder["rows"]
    lines = [f"Discrimination network comparison ({ROWS}-row emp, "
             f"one join rule, 40-token bursts)",
             f"{'network':>17} | {'α entries':>9} | {'β entries':>9} | "
             f"{'burst time':>11}"]
    lines.append("-" * len(lines[1]))
    for name, alpha, beta, seconds in rows:
        lines.append(f"{name:>17} | {alpha:>9} | {beta:>9} | "
                     f"{seconds * 1000:>9.2f}ms")
    emit("ablation_networks", "\n".join(lines))
    by_name = {name: (alpha, beta) for name, alpha, beta, _ in rows}
    rete_alpha, rete_beta = by_name["Rete"]
    treat_alpha, treat_beta = by_name["TREAT"]
    virt_alpha, virt_beta = by_name["A-TREAT(virtual)"]
    # Rete carries β state on top of the same α state as TREAT
    assert rete_beta > 0
    assert treat_beta == 0
    assert rete_alpha == treat_alpha
    # virtual α-memories eliminate the materialised α state
    assert virt_alpha < treat_alpha
    assert virt_alpha == 0
