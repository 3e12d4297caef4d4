"""Ablation: always-reoptimize vs cached rule-action plans (paper §5.3).

Ariel "uses a strategy called always reoptimize that produces all plans
for execution of rule actions at rule fire time"; pre-planning
alternatives save the optimizer call but "are all subject to errors where
they run non-optimal plans" and must track plan/schema dependencies.
This bench measures the firing cost of a join-action rule under both
strategies, and demonstrates the stale-plan hazard always-reoptimize
avoids: after an index appears, the reoptimizing strategy switches to it
immediately.
"""

import time

import pytest

from repro import Database
from repro.planner.plans import plan_operators
from common import emit

FIRINGS = 60


def build(cache: bool) -> Database:
    """``cache=False`` is always-reoptimize: the rule's stored action
    plans are dropped before each firing, so every firing plans anew."""
    db = Database()
    if not cache:
        plan_firing = db.action_planner.plan_firing

        def reoptimizing(rule, matches):
            for entry in rule.actions:
                entry.planned, entry.schema_version = None, -1
            return plan_firing(rule, matches)
        db.action_planner.plan_firing = reoptimizing
    db.execute_script("""
        create ticket (tno = int4, dno = int4)
        create dept (dno = int4, name = text)
        create routed (tno = int4, dname = text)
    """)
    for d in range(40):
        db.execute(f'append dept(dno={d}, name="d{d}")')
    db.execute("define rule route on append ticket "
               "then append to routed(tno = ticket.tno, "
               "dname = dept.name) where ticket.dno = dept.dno")
    return db


def fire_many(db: Database, count: int = FIRINGS) -> float:
    start = time.perf_counter()
    for i in range(count):
        db.execute(f"append ticket(tno={i}, dno={i % 40})")
    return time.perf_counter() - start


@pytest.mark.parametrize("cache", [False, True],
                         ids=["always-reoptimize", "cached-plans"])
def test_firing_cost(benchmark, cache):
    def setup():
        return (build(cache),), {}

    benchmark.pedantic(lambda db: fire_many(db), setup=setup, rounds=3)


def test_plan_caching_table(benchmark):
    holder = {}

    def run():
        reopt = build(cache=False)
        cached = build(cache=True)
        holder["reopt_time"] = fire_many(reopt)
        holder["cached_time"] = fire_many(cached)
        holder["reopt_plans"] = reopt.action_planner.plans_built
        holder["cached_plans"] = cached.action_planner.plans_built
    benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"Rule action planning strategies over {FIRINGS} firings",
             f"{'strategy':>18} | {'total time':>11} | "
             f"{'optimizer calls':>15}",
             "-" * 52,
             f"{'always reoptimize':>18} | "
             f"{holder['reopt_time'] * 1000:>9.2f}ms | "
             f"{holder['reopt_plans']:>15}",
             f"{'cached plans':>18} | "
             f"{holder['cached_time'] * 1000:>9.2f}ms | "
             f"{holder['cached_plans']:>15}"]
    emit("ablation_plan_caching", "\n".join(lines))
    assert holder["reopt_plans"] == FIRINGS
    assert holder["cached_plans"] == 1


def test_reoptimize_adapts_to_new_index(benchmark):
    """The correctness half of the trade-off: after defining an index on
    the action's join attribute, always-reoptimize uses it on the next
    firing; the cached strategy only recovers because DDL invalidates
    its cache (the dependency tracking the paper says pre-planning
    strategies must implement)."""
    holder = {}

    def run():
        db = build(cache=False)
        db.execute("append ticket(tno=0, dno=0)")
        db.execute("define index deptdno on dept (dno) using hash")
        # capture the plan for the next firing
        rule = db.manager.rule("route").compiled
        plans = db.action_planner.plan_firing(rule, [])
        holder["ops"] = plan_operators(plans[0].plan)
    benchmark.pedantic(run, rounds=1, iterations=1)
    assert "IndexProbe" in holder["ops"]
