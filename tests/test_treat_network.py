"""Network-level tests: virtual α-memories, storage accounting, the
selection-index routing, dynamic flushing, and cyclic rules on the
pairwise seek against Rete's β chain."""

import math

import pytest

from repro.core.alpha import VirtualAlphaMemory
from repro.core.introspect import describe_join_plan
from repro.core.memory_optimizer import optimize_memories
from repro.core.validate import check_network
from repro.errors import MemoryBudgetError

from tests.helpers import budgeted
from tests.test_network_equivalence import firing_sequence


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


# ----------------------------------------------------------------------
# cyclic rules on the pairwise seek, against Rete's β chain
# ----------------------------------------------------------------------

#: a 4-variable cycle over three relations (t twice, as t and w)
FOUR = (
    "define rule four "
    "if t.a = u.b and u.k = v.c and v.k = w.k and w.a = t.a "
    "from t in t, u in u, v in v, w in t "
    'then append to log(tag = "four")')


def _pnode_values(db, name):
    return sorted(
        tuple(sorted((var, entry.values) for var, entry in m.bindings))
        for m in db.network.pnode(name).matches())


def _treat_and_rete(budget, script):
    """TREAT under ``budget`` and Rete with every memory stored, each
    given ``script``."""
    sides = []
    for network, side_budget in (("a-treat", budget), ("rete", "never")):
        db = budgeted(side_budget, network=network)
        db.execute_script(script)
        sides.append(db)
    return sides


@pytest.mark.parametrize("network,budget", [
    ("a-treat", "never"), ("a-treat", "always"),
    ("rete", "never"), ("rete", "always"),
])
class TestNanJoins:

    def test_nan_never_joins(self, network, budget):
        """Null and NaN satisfy no equi-join conjunct, at any depth of
        the seek or of the β chain.  Rete stores every memory, so its
        rows run it with an unbounded budget beside TREAT at ``budget``."""
        script = """
            create r (a = float8, b = float8)
            create s (b = float8, c = float8)
            create t (c = float8, a = float8)
            create log (tag = text)
        """
        if network == "rete":
            dbs = _treat_and_rete(budget, script)
        else:
            dbs = [budgeted(budget, network=network)]
            dbs[0].execute_script(script)
        for db in dbs:
            db._rules_suspended = True
            db.execute(
                "define rule ftri "
                "if r.a = s.b and s.c = t.c and t.a = r.a "
                "from r in r, s in s, t in t "
                'then append to log(tag = "f")')
            db.execute("append s(b = 1.0, c = 2.0)")
            db.execute("append t(c = 2.0, a = 1.0)")
            db.execute("append r(a = nan, b = nan)")
            db.execute("append r(a = null, b = 1.0)")
            db.execute("append s(b = nan, c = 2.0)")
            assert _pnode_values(db, "ftri") == []
            db.execute("append r(a = 1.0, b = 1.0)")
            assert len(_pnode_values(db, "ftri")) == 1
            assert check_network(db) == []


@pytest.mark.parametrize("budget", ["never", "always"])
class TestCyclicSeeks:

    def test_four_cycle_with_an_unconstrained_participant(self, budget):
        """Seeded from t, v shares no conjunct with the seed: the seek
        reaches it only through u or w, and finds what Rete's β chain
        finds."""
        treat, rete = _treat_and_rete(budget, """
            create t (a = int4, k = int4)
            create u (b = int4, k = int4)
            create v (c = int4, k = int4)
            create log (tag = text)
            """)
        for db in (treat, rete):
            db.execute(FOUR)
            db.execute("define rule tri "
                       "if t.a = u.b and u.k = v.c and v.k = t.k "
                       'then append to log(tag = "tri")')
        plan = describe_join_plan(treat.manager, "four")
        seed_t = next(line for line in plan.splitlines()
                      if line.strip().startswith("seek from t:"))
        order = seed_t.split(":")[1].strip().split(" -> ")
        assert order[0] == "t" and sorted(order) == ["t", "u", "v", "w"]
        assert order.index("v") > min(order.index("u"),
                                      order.index("w")), plan
        for db in (treat, rete):
            db.execute_script("""
                do
                append u(b = 0, k = 1)
                append u(b = 1, k = 2)
                append u(b = 2, k = 0)
                append u(b = 0, k = 2)
                end
            """)
            for i in range(6):
                db.execute(f"append v(c = {i % 3}, k = {i % 4})")
            for i in range(8):
                db.execute(f"append t(a = {i % 3}, k = {i % 4})")
            db.execute("replace v (k = 3) where v.c = 1")
            db.execute("delete u where u.b = 2")
            db.execute("append u(b = 2, k = 1)")
            db._rules_suspended = True
            db.execute("append t(a = 1, k = 3)")
            db.execute("append v(c = 2, k = 0)")
            db._rules_suspended = False  # consumed matches are not missing
            assert check_network(db) == []
        assert firing_sequence(treat) == firing_sequence(rete)
        assert len(firing_sequence(rete)) > 4
        for name in ("four", "tri"):
            assert _pnode_values(treat, name) == _pnode_values(rete, name)
        assert _pnode_values(rete, "four")
        assert treat.relation_rows("log") == rete.relation_rows("log")

    def test_self_join_multiplicity(self, budget):
        """A token joining to itself does so exactly the right number
        of times (the paper's ProcessedMemories invariant) on a cyclic
        self-join."""
        results = []
        for db in _treat_and_rete(budget, """
                create t (a = int4, k = int4)
                create log (tag = text)
                """):
            db._rules_suspended = True
            db.execute(
                "define rule cyc "
                "if x.a = y.a and y.k = z.k and z.a = x.a "
                "from x in t, y in t, z in t "
                'then append to log(tag = "cyc")')
            for i in range(4):
                db.execute(f"append t(a = {i % 2}, k = {i})")
            assert check_network(db) == []
            results.append(_pnode_values(db, "cyc"))
        treat, rete = results
        assert rete
        assert treat == rete
