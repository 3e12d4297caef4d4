"""Network-level tests: virtual α-memories, storage accounting, the
selection-index routing, and dynamic flushing."""

import math

import pytest

from repro import Database
from repro.core.alpha import VirtualAlphaMemory
from repro.core.memory_optimizer import optimize_memories
from repro.errors import MemoryBudgetError, RuleError

from tests.helpers import budgeted


def make_db(budget=0, network="a-treat", **kwargs):
    db = budgeted(budget, network=network, **kwargs)
    db.execute_script("""
        create emp (name = text, sal = float8, dno = int4)
        create dept (dno = int4, name = text)
        create log (name = text)
    """)
    for i in range(30):
        db.execute(f'append emp(name="e{i}", sal={1000.0 * i}, '
                   f'dno={i % 3})')
    for d in range(3):
        db.execute(f'append dept(dno={d}, name="d{d}")')
    return db


JOIN_RULE = ('define rule big if emp.sal > 5000 and emp.dno = dept.dno '
             'and dept.name = "d1" then append to log(emp.name)')


class TestVirtualMemories:
    def test_always_policy_uses_virtual(self):
        db = make_db(0)         # a zero budget: always virtual
        db._rules_suspended = True
        db.execute(JOIN_RULE)
        assert db.network.memory("big", "emp").is_virtual
        assert db.network.memory("big", "dept").is_virtual

    def test_never_policy_uses_stored(self):
        db = make_db(math.inf)  # the default budget: never virtual
        db._rules_suspended = True
        db.execute(JOIN_RULE)
        assert not db.network.memory("big", "emp").is_virtual

    def test_mixed_budget_stores_what_fits(self):
        db = make_db(10)
        db._rules_suspended = True
        # dept.name = "d1" keeps 1 of 3 rows: one entry saves a 3-row
        # scan per probe -> stored; emp.sal > 5000 keeps 24 of 30 rows,
        # which the 9 entries left cannot hold -> virtual
        db.execute(JOIN_RULE)
        assert db.network.memory("big", "emp").is_virtual
        assert not db.network.memory("big", "dept").is_virtual
        assert db.network.memory_entry_count() == 1

    def test_virtual_saves_storage(self):
        stored = make_db(math.inf)
        stored._rules_suspended = True
        stored.execute(JOIN_RULE)
        virtual = make_db(0)
        virtual._rules_suspended = True
        virtual.execute(JOIN_RULE)
        assert stored.network.memory_entry_count("big") > 0
        assert virtual.network.memory_entry_count("big") == 0

    def test_same_matches_either_way(self):
        results = []
        for budget in (0, math.inf):
            db = make_db(budget)
            db._rules_suspended = True
            db.execute(JOIN_RULE)
            pnode = db.network.pnode("big")
            results.append(sorted(
                m.entry("emp").values[0] for m in pnode.matches()))
        assert results[0] == results[1]
        assert results[0]       # non-empty: e7, e10, ... with dno 1

    def test_virtual_join_uses_index_when_available(self):
        db = make_db(0)
        db.execute("define index empdno on emp (dno) using hash")
        db._rules_suspended = True
        db.execute(JOIN_RULE)
        # trigger a token that joins dept -> emp through the virtual node
        db.execute('append dept(dno=1, name="d1")')
        memory = db.network.memory("big", "emp")
        assert isinstance(memory, VirtualAlphaMemory)
        assert memory.scan_count >= 1


class TestTokenRouting:
    def test_tokens_counted(self):
        db = make_db()
        db.execute(JOIN_RULE)      # a relation no rule names gets none
        before = db.network.tokens_processed
        db.execute('append emp(name="x", sal=1.0, dno=0)')
        assert db.network.tokens_processed == before + 1

    def test_replace_generates_two_tokens(self):
        db = make_db()
        db.execute(JOIN_RULE)      # a relation no rule names gets none
        before = db.network.tokens_processed
        db.execute('replace emp (sal = 99.0) where emp.name = "e0"')
        assert db.network.tokens_processed == before + 2   # − then Δ+

    def test_noop_replace_generates_no_tokens(self):
        db = make_db()
        db.execute('replace emp (sal = 123.0) where emp.name = "e0"')
        before = db.network.tokens_processed
        db.execute('replace emp (sal = 123.0) where emp.name = "e0"')
        assert db.network.tokens_processed == before

    def test_rules_on_other_relations_not_probed(self):
        db = make_db()
        db._rules_suspended = True
        db.execute(JOIN_RULE)
        # selection index: dept tokens only probe dept predicates
        probe = db.manager.network.selection_index.probe
        assert probe("log", ("x",)) == []


class TestDynamicFlush:
    def test_event_memory_flushed_after_transition(self):
        db = make_db()
        db.execute("define rule ev on append emp if emp.sal >= 0 "
                   "then append to log(emp.name)")
        db.execute('append emp(name="x", sal=1.0, dno=0)')
        memory = db.network.memory("ev", "emp")
        assert len(memory) == 0      # flushed after the cycle
        assert len(db.network.pnode("ev")) == 0

    def test_pattern_memory_not_flushed(self):
        db = make_db(math.inf)
        db._rules_suspended = True
        db.execute(JOIN_RULE)
        before = db.network.memory_entry_count("big")
        db.network.flush_dynamic()
        assert db.network.memory_entry_count("big") == before


class TestReteSpecifics:
    def test_beta_entries_exist(self):
        db = make_db(network="rete", budget=math.inf)
        db._rules_suspended = True
        db.execute(JOIN_RULE)
        assert db.network.beta_entry_count("big") > 0

    def test_beta_cleaned_on_delete(self):
        db = make_db(network="rete", budget=math.inf)
        db._rules_suspended = True
        db.execute(JOIN_RULE)
        before = db.network.beta_entry_count("big")
        db.execute("delete emp where emp.sal > 5000")
        assert db.network.beta_entry_count("big") < before

    def test_rete_default_is_stored(self):
        db = make_db(network="rete", budget=math.inf)
        db._rules_suspended = True
        db.execute(JOIN_RULE)
        assert not db.network.memory("big", "emp").is_virtual

    @pytest.mark.parametrize("budget", [0, 10])
    def test_rete_rejects_a_finite_budget(self, budget):
        """Rete is the stored baseline: the paper only remarks that
        virtual memories 'could also be used in the Rete algorithm'."""
        with pytest.raises(MemoryBudgetError, match="Rete"):
            make_db(budget, network="rete")
        db = make_db(math.inf, network="rete")
        db._rules_suspended = True
        db.execute(JOIN_RULE)
        with pytest.raises(MemoryBudgetError, match="Rete"):
            optimize_memories(db, budget)
        assert db.network.memory_budget == math.inf
        assert not db.network.memory("big", "emp").is_virtual

    def test_rete_rejects_multiway_join_mode(self):
        """Under Rete "auto" and "pairwise" both mean the β chain, also
        for a cyclic rule TREAT would route to the leapfrog step."""
        with pytest.raises(RuleError, match="multiway"):
            Database(network="rete", join_mode="multiway")
        matches = []
        for join_mode in ("auto", "pairwise"):
            db = make_db(math.inf, network="rete", join_mode=join_mode)
            db._rules_suspended = True
            db.execute("define rule tri if x.dno = y.dno "
                       "and y.name = z.name and z.dno = x.dno "
                       "from x in emp, y in emp, z in emp "
                       "then append to log(x.name)")
            assert sorted(db.network.beta_chain("tri")) == ["x", "y", "z"]
            assert db.stats.get("joins.multiway_planned") == 0
            matches.append(len(db.network.pnode("tri")))
        assert matches[0] == matches[1] == 300
