"""Tests for storage-budgeted α-memory materialization (paper §8)."""

import pytest

from repro import Database
from repro.core.memory_optimizer import (
    MemoryChoice, _density_key, apply_plan, optimize_memories,
    plan_memories)


@pytest.fixture
def db():
    database = Database(virtual_policy="never")   # start all-stored
    database.execute_script("""
        create big (a = int4, k = int4)
        create small (k = int4, tag = text)
        create log (a = int4)
    """)
    for i in range(200):
        database.execute(f"append big(a = {i}, k = {i % 10})")
    for k in range(10):
        database.execute(f'append small(k = {k}, tag = "t{k}")')
    database._rules_suspended = True
    # rule wide: keeps ~190/200 of big -> expensive to store
    database.execute("define rule wide if big.a >= 10 "
                     "and big.k = small.k "
                     "then append to log(a = big.a)")
    # rule narrow: keeps ~10/200 of big -> cheap to store
    database.execute("define rule narrow if big.a < 10 "
                     "and big.k = small.k "
                     "then append to log(a = big.a)")
    return database


class TestPlanning:
    def test_candidates_enumerated(self, db):
        plan = plan_memories(db, budget_entries=1000)
        pairs = {(c.rule_name, c.var) for c in plan.choices}
        assert ("wide", "big") in pairs
        assert ("narrow", "big") in pairs
        assert ("wide", "small") in pairs

    def test_generous_budget_materializes_everything(self, db):
        plan = plan_memories(db, budget_entries=10000)
        assert all(c.materialize for c in plan.choices
                   if c.benefit_per_probe > 0)

    def test_tight_budget_prefers_worthy_nodes(self, db):
        # room for the narrow big-memory (~10) and the small memories
        # (~10 each) but not for the wide big-memory (~190)
        plan = plan_memories(db, budget_entries=60)
        assert plan.decision("narrow", "big") is True
        assert plan.decision("wide", "big") is False
        assert plan.used_budget() <= 60

    def test_zero_budget_materializes_nothing(self, db):
        plan = plan_memories(db, budget_entries=0)
        assert plan.materialized() == []

    def test_weights_bias_choices(self, db):
        # make wide's probes count 100x: its big memory becomes the most
        # worthy, and with budget for only one big memory it wins
        plan = plan_memories(db, budget_entries=195,
                             weights={"wide": 100.0, "narrow": 0.001})
        assert plan.decision("wide", "big") is True

    def test_plan_str(self, db):
        text = str(plan_memories(db, budget_entries=60))
        assert "memory plan" in text
        assert "wide/big" in text

    def test_knapsack_never_exceeds_budget(self, db):
        for budget in (0, 5, 25, 60, 100, 195, 10000):
            plan = plan_memories(db, budget_entries=budget)
            assert plan.used_budget() <= budget

    def test_decision_unknown_memory_is_none(self, db):
        plan = plan_memories(db, budget_entries=60)
        assert plan.decision("wide", "nope") is None
        assert plan.decision("ghost", "big") is None

    def test_worth_tie_break_is_deterministic(self):
        # four candidates with identical benefit density: the knapsack
        # must order them by (rule, var), not dict/sort happenstance
        ties = [MemoryChoice(rule, var, "r", 10.0, 20.0, False)
                for rule in ("b_rule", "a_rule")
                for var in ("y", "x")]
        ordered = sorted(ties, key=_density_key)
        assert [(c.rule_name, c.var) for c in ordered] == [
            ("a_rule", "x"), ("a_rule", "y"),
            ("b_rule", "x"), ("b_rule", "y")]

    def test_virtual_probe_estimate_uses_the_join_attribute(self):
        # a virtual big memory answers a k-probe through the index on
        # big.k, so each probe yields ~rows / distinct(k) = all 800 rows:
        # storing the memory saves the index descent (log2 802 ≈ 9.6)
        db = Database(virtual_policy="never")
        db.execute_script("""
            create big (a = int4, k = int4)
            create small (k = int4)
            create log (a = int4)
            define index big_k on big (k) using hash
        """)
        db.bulk_append("big", ((i, 7) for i in range(800)))
        db.bulk_append("small", ((7,),))
        db._rules_suspended = True
        db.execute("define rule r if big.a >= 0 and big.k = small.k "
                   "then append to log(a = big.a)")
        choice, = [c for c in plan_memories(db, 10000).choices
                   if c.var == "big"]
        assert choice.benefit_per_probe == pytest.approx(9.65, abs=0.01)
        assert choice.materialize is True

    def test_simple_and_dynamic_memories_excluded(self, db):
        db.execute("define rule ev on append big "
                   "then append to log(a = big.a)")
        db.execute("define rule solo if big.a > 195 "
                   "then append to log(a = big.a)")
        plan = plan_memories(db, budget_entries=1000)
        names = {c.rule_name for c in plan.choices}
        assert "ev" not in names
        assert "solo" not in names


class TestApplying:
    def test_apply_rebuilds_memories(self, db):
        plan = plan_memories(db, budget_entries=60)
        reactivated = apply_plan(db, plan)
        assert reactivated == 2
        assert db.network.memory("narrow", "big").is_virtual is False
        assert db.network.memory("wide", "big").is_virtual is True

    def test_storage_respects_budget(self, db):
        optimize_memories(db, budget_entries=60)
        assert db.network.memory_entry_count() <= 60

    def test_rules_still_work_after_optimization(self, db):
        optimize_memories(db, budget_entries=60)
        db._rules_suspended = False
        db.execute("append big(a = 5, k = 3)")     # narrow rule fires
        db.execute("append big(a = 150, k = 3)")   # wide rule fires
        logged = sorted(db.relation_rows("log"))
        assert (5,) in logged and (150,) in logged

    def test_equivalent_matching_before_and_after(self, db):
        before = {
            name: sorted(
                tuple(sorted((var, entry.values)
                             for var, entry in m.bindings))
                for m in db.network.pnode(name).matches())
            for name in ("wide", "narrow")}
        optimize_memories(db, budget_entries=60)
        after = {
            name: sorted(
                tuple(sorted((var, entry.values)
                             for var, entry in m.bindings))
                for m in db.network.pnode(name).matches())
            for name in ("wide", "narrow")}
        assert before == after

    def test_inactive_rules_skipped(self, db):
        db.execute("deactivate rule wide")
        plan = plan_memories(db, budget_entries=60)
        assert apply_plan(db, plan) == 1
        assert not db.manager.rule("wide").active

    def test_applied_plan_matches_heap_rebuild(self, db):
        """P-node contents after apply_plan must equal a from-scratch
        rebuild (deactivate + reactivate under the default policy maps
        every memory back to stored, re-priming from the heap)."""
        def pnode_sets():
            return {
                name: sorted(
                    tuple(sorted((var, entry.values)
                                 for var, entry in m.bindings))
                    for m in db.network.pnode(name).matches())
                for name in ("wide", "narrow")}

        optimize_memories(db, budget_entries=60)
        after_plan = pnode_sets()
        for name in ("wide", "narrow"):
            db.manager.deactivate(name)
            db.manager.activate(name)
        assert pnode_sets() == after_plan
