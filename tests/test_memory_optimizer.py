"""Tests for storage-budgeted α-memory materialization (paper §8): the
one storage decision, its budget contract, and swapping a memory stored
↔ virtual without anything observable changing."""

import math

import pytest

from repro import Database, persist
from repro.core.memory_optimizer import (
    MemoryChoice, _density_key, apply_plan, optimize_memories,
    plan_memories)
from repro.core.validate import check_network
from repro.errors import ArielError, MemoryBudgetError, RuleError

from tests.helpers import budgeted
from tests.test_network_equivalence import alpha_snapshot, pnode_snapshot


@pytest.fixture
def db():
    database = Database()   # the default budget ∞: all stored
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

    def test_infinite_budget_stores_even_what_saves_nothing(self, db):
        plan = plan_memories(db, budget_entries=math.inf)
        assert any(c.benefit_per_probe == 0 for c in plan.choices)
        assert all(c.materialize for c in plan.choices)

    @pytest.mark.parametrize("budget", [-1, -0.5, float("nan"),
                                        -math.inf])
    def test_bad_budgets_rejected(self, db, budget):
        for call in (plan_memories, optimize_memories):
            with pytest.raises(MemoryBudgetError, match="memory budget"):
                call(db, budget)
        assert issubclass(MemoryBudgetError, ArielError)
        assert db.network.memory_budget == math.inf     # left alone

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
        db = Database()
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
        changing = sum(c.materialize
                       == db.network.memory(c.rule_name, c.var).is_virtual
                       for c in plan.choices)
        assert apply_plan(db, plan) == changing > 0
        assert db.network.memory("narrow", "big").is_virtual is False
        assert db.network.memory("wide", "big").is_virtual is True
        for c in plan.choices:
            assert db.network.memory(c.rule_name, c.var).is_virtual \
                is not c.materialize
        assert db.network.memory_budget == 60
        assert apply_plan(db, plan) == 0        # nothing left to change

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
        plan = plan_memories(db, budget_entries=0)
        db.execute("deactivate rule wide")
        assert apply_plan(db, plan) == 2        # narrow's two memories
        assert not db.manager.rule("wide").active
        db.execute("activate rule wide")        # under the budget 0
        assert db.network.memory("wide", "big").is_virtual

    def test_applied_plan_matches_heap_rebuild(self, db):
        """P-node contents after apply_plan must equal a from-scratch
        rebuild (deactivate + reactivate re-primes from the heap, under
        what is left of the budget)."""
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


# ----------------------------------------------------------------------
# a storage decision is unobservable
# ----------------------------------------------------------------------

def _engine(network):
    """Three rules (a self-join among them) that have all fired."""
    db = Database(network=network)
    db.execute_script("""
        create big (a = int4, k = int4)
        create small (k = int4, tag = text)
        create log (rule = text, a = int4)
        create other (x = int4)
    """)
    db.bulk_append("big", [(i, i % 10) for i in range(200)])
    db.execute("define rule wide if big.a >= 10 and big.k = small.k "
               'then append to log(rule = "wide", a = big.a)')
    db.execute("define rule narrow if big.a < 10 and big.k = small.k "
               'then append to log(rule = "narrow", a = big.a)')
    db.execute("define rule pair if x.k = y.k and x.a < y.a and x.a < 3 "
               "from x in big, y in big "
               'then append to log(rule = "pair", a = y.a)')
    for k in range(3):
        db.execute(f'append small(k = {k}, tag = "t{k}")')
    return db


def _observed(db):
    return (pnode_snapshot(db), db.firings,
            [(r.sequence, r.rule_name, r.match_count)
             for r in db.firing_log],
            {rel: sorted(db.relation_rows(rel))
             for rel in ("big", "small", "log", "other")})


_AFTERWARDS = (
    "append other(x = 1)",                  # reaches no rule
    "append big(a = 5, k = 1)",
    "append small(k = 7, tag = \"t7\")",
    "replace big (k = 2) where big.a = 11",
    "delete small where small.k = 0",
    "do append big(a = 1, k = 7) delete big where big.a = 21 end",
)


@pytest.mark.parametrize("network,budget", [
    ("a-treat", math.inf), ("a-treat", 0), ("a-treat", 60),
    ("rete", math.inf),
], ids=["a-treat-inf", "a-treat-zero", "a-treat-mixed", "rete-inf"])
def test_optimizing_after_firings_is_unobservable(network, budget):
    """P-nodes, firings, the firing log and every relation stay what an
    engine that never called ``optimize_memories`` has — at the call,
    with matches pending in the P-nodes, and for every statement after
    it (a re-primed P-node would re-fire consumed matches)."""
    db, reference = _engine(network), _engine(network)
    assert db.firings == 7 and _observed(db) == _observed(reference)
    for engine in (db, reference):
        engine._rules_suspended = True      # let matches pile up
        engine.execute("append big(a = 2, k = 0)")
    optimize_memories(db, budget)
    swapped = [m for m in db.network._memories.values() if m.is_virtual]
    assert bool(swapped) is (budget != math.inf)
    assert _observed(db) == _observed(reference)
    for engine in (db, reference):
        engine._rules_suspended = False
    for statement in _AFTERWARDS:
        db.execute(statement)
        reference.execute(statement)
        assert _observed(db) == _observed(reference), statement
    assert check_network(db) == []


def _network_state(db):
    network = db.network
    return (alpha_snapshot(db), pnode_snapshot(db),
            {name: {frozenset((var, entry.tid)
                              for var, entry in partial.items())
                    for partial in network.beta_partials(name)}
             for name in network.rules},
            db.manager.agenda.notified(), network.memory_budget)


@pytest.mark.parametrize("budget", [0, 60], ids=["zero", "mixed"])
def test_a_finite_budget_under_rete_changes_nothing(budget):
    """Rete stores every α-memory: a finite budget raises before a
    memory is swapped, leaving α- and β-memories, P-nodes, the agenda
    and the budget as they were, and every later statement as on an
    engine that never asked."""
    db, reference = _engine("rete"), _engine("rete")
    for engine in (db, reference):
        engine._rules_suspended = True      # let matches pile up
        engine.execute("append big(a = 2, k = 0)")
    before = _network_state(db)
    assert db.manager.agenda.notified() and any(before[2].values())
    for call in (plan_memories, optimize_memories):
        with pytest.raises(MemoryBudgetError, match="Rete"):
            call(db, budget)
    with pytest.raises(MemoryBudgetError, match="Rete"):
        apply_plan(db, plan_memories(budgeted(0), budget))
    assert _network_state(db) == before
    assert not any(m.is_virtual for m in db.network._memories.values())
    for engine in (db, reference):
        engine._rules_suspended = False
    for statement in _AFTERWARDS:
        db.execute(statement)
        reference.execute(statement)
        assert _observed(db) == _observed(reference), statement
    assert check_network(db) == []


# ----------------------------------------------------------------------
# the budget contract
# ----------------------------------------------------------------------

_JOIN = ("define rule {0} if big.a >= {1} and big.k = small.k "
         "then append to log(a = big.a)")


def _pattern_memories(db):
    return [m for m in db.network._memories.values()
            if not (m.spec.is_dynamic or m.spec.is_simple)]


class TestBudgetContract:
    def test_default_budget_stores_every_memory(self, db):
        assert db.network.memory_budget == math.inf
        assert not any(m.is_virtual for m in _pattern_memories(db))

    def test_zero_budget_sticks_even_on_empty_relations(self):
        db = budgeted(0)
        db.execute_script("""
            create big (a = int4, k = int4)
            create small (k = int4)
            create log (a = int4)
            define index small_k on small (k) using hash
        """)
        for i in range(3):
            db.execute(_JOIN.format(f"r{i}", i))
        db.execute("define rule ev on append big if big.k = small.k "
                   "then append to log(a = big.a)")
        memories = _pattern_memories(db)
        assert len(memories) == 7 and all(m.is_virtual for m in memories)
        assert not db.network.memory("ev", "big").is_virtual   # dynamic
        assert db.network._virtual_count == 7
        optimize_memories(db, math.inf)     # back to TREAT
        assert not any(m.is_virtual for m in _pattern_memories(db))
        assert db.network._virtual_count == 0

    @pytest.mark.parametrize("budget", [0, 5, 25, 60, 150, 400])
    def test_activation_stores_at_most_the_budget(self, db, budget):
        optimize_memories(db, budget)
        for i, low in enumerate((0, 150, 190, 100)):
            db.execute(_JOIN.format(f"late{i}", low))
            assert db.network.memory_entry_count() <= budget

    def test_activation_spends_what_is_left(self, db):
        optimize_memories(db, 12)
        assert db.network.memory_entry_count() == 10    # narrow's big
        db.execute(_JOIN.format("late", 195))        # 5 entries: no room
        assert db.network.memory("late", "big").is_virtual
        db.execute("remove rule narrow")
        db.execute(_JOIN.format("later", 195))       # room again
        assert not db.network.memory("later", "big").is_virtual

    def test_budget_is_not_checkpointed(self, tmp_path):
        db = Database(durable_path=tmp_path / "d")
        optimize_memories(db, 0)
        db.execute_script("""
            create big (a = int4, k = int4)
            create small (k = int4)
            create log (a = int4)
        """)
        db.execute(_JOIN.format("r", 0))
        assert all(m.is_virtual for m in _pattern_memories(db))
        db.close()
        for restored in (persist.loads(persist.dumps(db)),
                         Database.recover(tmp_path / "d")):
            assert restored.network.memory_budget == math.inf
            assert not any(m.is_virtual
                           for m in _pattern_memories(restored))
        restored.close()


class TestSwapping:
    def test_swap_reregisters_and_forgets_join_orders(self, db):
        network = db.network
        rule = network.rules["narrow"]
        db._rules_suspended = False
        db.execute("append big(a = 5, k = 3)")      # plans narrow's seeks
        assert any(key[0] == "order" for key in rule.join_memo)
        registered = len(network.selection_index)
        old = network.memory("narrow", "big")
        assert network.set_virtual("narrow", "big", True) is True
        new = network.memory("narrow", "big")
        assert new is not old and new.is_virtual and len(new) == 0
        assert len(network.selection_index) == registered
        assert new in network.selection_index.probe("big", (5, 3))
        assert old not in network.selection_index.probe("big", (5, 3))
        assert rule.join_memo == {}
        assert network._virtual_count == 1
        assert network.set_virtual("narrow", "big", True) is False
        assert network.set_virtual("narrow", "big", False) is True
        stored = network.memory("narrow", "big")
        assert len(stored) == 11 and stored.join_index_positions() == [1]
        assert network._virtual_count == 0
        assert check_network(db) == []

    def test_only_pattern_memories_swap(self, db):
        db.execute("define rule solo if big.a > 195 "
                   "then append to log(a = big.a)")
        db.execute("define rule ev on append big if big.k = small.k "
                   "then append to log(a = big.a)")
        for rule, var in (("solo", "big"), ("ev", "big")):
            with pytest.raises(RuleError, match="not a pattern memory"):
                db.network.set_virtual(rule, var, True)
        with pytest.raises(RuleError, match="no α-memory"):
            db.network.set_virtual("ghost", "big", True)
