"""Tests for adaptive join planning: cost-driven seek ordering, and the
α-memory join indexes the rule's join graph decides at activation."""

import gc
import weakref

import pytest

from repro import Database
from repro.core.introspect import describe_join_plan

from tests.helpers import budgeted


def _fill(db, relation, rows):
    db.bulk_append(relation, rows)


@pytest.fixture
def db():
    """Three relations of very different sizes, one three-way join rule.

    The variables sort alphabetically (big, s, tiny), so the static
    order from seed ``s`` would visit ``big`` first; a cost-driven
    planner must visit ``tiny`` first.
    """
    database = Database()
    database.execute_script("""
        create s (bk = int4, tk = int4)
        create big (bk = int4, pad = int4)
        create tiny (tk = int4)
        create log (bk = int4)
    """)
    _fill(database, "big", ((i % 5, i) for i in range(400)))
    _fill(database, "tiny", ((i,) for i in range(4)))
    database._rules_suspended = True
    database.execute("define rule j3 "
                     "if s.bk = big.bk and s.tk = tiny.tk "
                     "then append to log(bk = s.bk)")
    return database


class TestSeekOrdering:
    def test_planner_prefers_small_connected_memory(self, db):
        rule = db.network.rules["j3"]
        order = db.network.join_planner.order(rule, "s")
        # tiny (4 rows) must be joined before big (400 rows)
        assert order.index("tiny") < order.index("big")

    def test_static_baseline_would_pick_big_first(self, db):
        rule = db.network.rules["j3"]
        static = rule.join_order_from("s")
        assert static[0] == "big"     # alphabetical among connected

    def test_orders_are_memoized(self, db):
        rule = db.network.rules["j3"]
        planner = db.network.join_planner
        first = planner.order(rule, "s")
        planned = db.stats.get("joins.orders_planned")
        again = planner.order(rule, "s")
        assert again == first
        assert db.stats.get("joins.orders_planned") == planned
        assert db.stats.get("joins.order_cache_hits") >= 1

    def test_cardinality_shift_replans(self, db):
        rule = db.network.rules["j3"]
        planner = db.network.join_planner
        planner.order(rule, "s")
        planned = db.stats.get("joins.orders_planned")
        # grow tiny from 4 rows to 2004, almost all sharing one key: the
        # bucket signature changes (so the memo re-plans) and a tk probe
        # into tiny now expects ~500 matches vs ~80 for a bk probe into
        # big — the greedy choice flips
        _fill(db, "tiny", ((2,) for _ in range(2000)))
        order = planner.order(rule, "s")
        assert db.stats.get("joins.orders_planned") > planned
        assert order.index("big") < order.index("tiny")

    def test_catalog_version_invalidates_cache(self, db):
        rule = db.network.rules["j3"]
        planner = db.network.join_planner
        planner.order(rule, "s")
        assert rule.join_memo
        db.catalog.bump_version()
        planned = db.stats.get("joins.orders_planned")
        planner.order(rule, "s")   # the stale memo is emptied first
        assert rule.join_memo_version == db.catalog.schema_version
        assert db.stats.get("joins.orders_planned") == planned + 1

    def test_forced_hook_overrides_planning(self, db):
        rule = db.network.rules["j3"]
        planner = db.network.join_planner
        planner.forced = lambda rule, seed: ["big", "tiny"]
        assert planner.order(rule, "s") == ["big", "tiny"]

    def test_seek_uses_planned_order(self, db):
        # matching via the planned order still finds exactly the right
        # combinations
        db._rules_suspended = False
        db.execute("append s(bk = 1, tk = 2)")
        assert sorted(db.relation_rows("log")) == [(1,)] * 80

    def test_unconnected_variable_goes_last(self, db):
        db._rules_suspended = True
        db.execute("create lone (x = int4)")
        db.execute("append lone(x = 1)")
        db.execute("define rule cart "
                   "if s.bk = big.bk and lone.x > 0 "
                   "then append to log(bk = s.bk)")
        rule = db.network.rules["cart"]
        order = db.network.join_planner.order(rule, "s")
        assert order[-1] == "lone"

    def test_rule_removal_forgets_plans(self, db):
        rule = db.network.rules["j3"]
        planner = db.network.join_planner
        planner.order(rule, "s")
        assert rule.join_memo
        db.execute("remove rule j3")
        # the orders lived on the compiled rule, and it is gone
        assert set(vars(planner)) == {"network", "forced"}
        db.execute("define rule j3 if s.bk = big.bk "
                   "then append to log(bk = s.bk)")
        assert db.network.rules["j3"] is not rule
        assert db.network.rules["j3"].join_memo == {}

    def test_removed_rules_leave_no_virtual_estimates(self):
        """A rule's virtual-memory row estimates leave with the rule:
        after 500 define → remove cycles (fresh names, as rules come and
        go on a live engine, and one name redefined) every removed
        compiled rule, memo and all, is collected, and the planner holds
        nothing per rule."""
        db = budgeted(0)
        db.execute_script("""
            create a (k = int4, v = int4)
            create b (k = int4)
            create log (k = int4)
        """)
        db.bulk_append("a", ((i % 10, i) for i in range(40)))
        db.bulk_append("b", ((i,) for i in range(10)))
        db._rules_suspended = True
        removed = []
        for i in range(500):
            name = f"dyn{i}" if i % 2 else "same"
            db.execute(f"define rule {name} if a.k = b.k and a.v > {i % 40}"
                       f" then append to log(k = a.k)")
            rule = db.network.rules[name]
            # a token seek plans the rule's order, estimating a's rows
            db.execute(f"append b(k = {i % 10})")
            assert any(key[0] == "rows" for key in rule.join_memo)
            removed.append(weakref.ref(rule))
            del rule
            db.execute(f"remove rule {name}")
        gc.collect()
        assert [ref() for ref in removed] == [None] * len(removed)
        assert set(vars(db.network.join_planner)) == {"network", "forced"}


class TestPlanDescription:
    def test_plan_moves_no_counter_and_leaves_the_memo(self, db):
        """``\\plan`` is not token traffic: describing a rule moves no
        ``joins.*`` counter and leaves the rule's memo as it was, cold
        or warm, so the first real seek is still a planned one."""
        rule = db.network.rules["j3"]

        def joins():
            return {key: value for key, value in db.stats.counters.items()
                    if key.startswith("joins.")}
        before = joins()
        for _ in range(2):
            text = describe_join_plan(db.manager, "j3")
            assert "seek from s: s -> tiny -> big" in text
            assert joins() == before
            assert rule.join_memo == {}      # priming left it cold
        db.execute("append s(bk = 1, tk = 2)")
        assert db.stats.get("joins.orders_planned") == \
            before.get("joins.orders_planned", 0) + 1
        assert db.stats.get("joins.order_cache_hits") == \
            before.get("joins.order_cache_hits", 0)
        warm, after = dict(rule.join_memo), joins()
        describe_join_plan(db.manager, "j3")
        assert rule.join_memo == warm
        assert joins() == after


class TestChainOrdering:
    def test_rete_chain_starts_at_smallest_memory(self):
        db = Database(network="rete")
        db.execute_script("""
            create a (k = int4)
            create b (k = int4)
        """)
        db.bulk_append("a", ((i,) for i in range(50)))
        db.bulk_append("b", ((i,) for i in range(5)))
        db._rules_suspended = True
        db.execute("define rule rr if a.k = b.k then delete a")
        assert db.network.beta_chain("rr") == ["b", "a"]
        assert db.stats.get("joins.chains_planned") >= 1

    def test_rete_matches_unaffected_by_reorder(self):
        results = []
        for network in ("rete", "treat"):
            db = Database(network=network)
            db.execute_script("""
                create a (k = int4)
                create b (k = int4)
            """)
            db.bulk_append("a", ((i % 7,) for i in range(50)))
            db.bulk_append("b", ((i,) for i in range(5)))
            db._rules_suspended = True
            db.execute("define rule rr if a.k = b.k then delete a")
            db.bulk_append("a", ((i % 3,) for i in range(10)))
            matches = sorted(
                tuple(sorted((var, entry.values)
                             for var, entry in m.bindings))
                for m in db.network.pnode("rr").matches())
            results.append(matches)
        assert results[0] == results[1]


class TestJoinIndexesFromJoinGraph:
    """A stored α-memory carries a hash join-index on every attribute
    position its rule equi-joins it on, from ``define rule`` on — before
    any token arrives."""

    #: rule -> condition, and var -> the positions it is equi-joined on:
    #: 2-4 variables, a self-join, two conjuncts on one variable pair, a
    #: cyclic triangle, an ``on append`` (dynamic) variable, and a
    #: one-variable (simple) rule
    RULES = {
        "pair": ("if l.k = r.k", {"l": [0], "r": [0]}),
        "self": ("if r1.k = r2.pad from r1 in r, r2 in r",
                 {"r1": [0], "r2": [1]}),
        "twice": ("if l.k = r.k and l.j = r.k", {"l": [0, 1], "r": [0]}),
        "tri": ("if l.k = r.k and r.pad = m.a and m.b = l.j",
                {"l": [0, 1], "r": [0, 1], "m": [0, 1]}),
        "ev": ("on append l if l.k = r.k and r.pad = m.a",
               {"l": [0], "r": [0, 1], "m": [0]}),
        "four": ("if l.k = r.k and r.pad = m.a and m.b = n.c",
                 {"l": [0], "r": [0, 1], "m": [0, 1], "n": [0]}),
        "solo": ("if r.k > 3", {"r": []}),
    }

    CONFIGS = [{"network": "a-treat", "budget": "never"},
               {"network": "treat"},
               {"network": "rete"}]
    CONFIG_IDS = ["a-treat-never", "treat", "rete"]

    def _db(self, budget="never", **config):
        db = budgeted(budget, **config)
        db.execute_script("""
            create l (k = int4, j = int4)
            create r (k = int4, pad = int4)
            create m (a = int4, b = int4)
            create n (c = int4)
            create log (k = int4)
        """)
        db.bulk_append("r", ((i % 8, i % 5) for i in range(64)))
        db.bulk_append("m", ((i % 5, i % 3) for i in range(20)))
        db.bulk_append("n", ((i,) for i in range(3)))
        db._rules_suspended = True
        for name, (condition, _) in self.RULES.items():
            db.execute(f"define rule {name} {condition} "
                       f"then append to log(k = 1)")
        return db

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_indexes_exist_right_after_define(self, config):
        db = self._db(**config)
        for name, (_, expected) in self.RULES.items():
            rule = db.network.rules[name]
            for var, positions in expected.items():
                memory = db.network.memory(name, var)
                assert not memory.is_virtual
                assert memory.join_index_positions() == positions, \
                    (name, var)
                assert positions == sorted({
                    p for _, _, p in rule.equijoins_by_var.get(var, ())})
        assert db.network.memory("solo", "r").spec.is_simple

    def test_virtual_memories_carry_no_index(self):
        db = self._db(network="a-treat", budget="always")
        virtual = 0
        for name, (_, expected) in self.RULES.items():
            for var in expected:
                memory = db.network.memory(name, var)
                if memory.is_virtual:
                    virtual += 1
                    assert not hasattr(memory, "join_index_positions")
                else:       # dynamic or simple: stored whatever the budget
                    assert memory.spec.is_dynamic or memory.spec.is_simple
        assert virtual == 15

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_dynamic_memory_keeps_its_indexes_across_flush(self, config):
        db = self._db(**config)
        memory = db.network.memory("ev", "l")
        assert memory.spec.is_dynamic
        db.execute("append l(k = 3, j = 0)")
        assert len(memory) == 1         # suspended: not flushed yet
        db.network.flush_dynamic()
        assert len(memory) == 0
        assert memory.join_index_positions() == [0]
        db._rules_suspended = False
        db.execute("append l(k = 3, j = 0)")
        assert memory.join_index_positions() == [0]

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_first_token_probes_the_index(self, config):
        db = self._db(**config)     # l is empty: priming probed nothing
        before = db.stats.get("alpha.join_probes")
        db.execute("append l(k = 3, j = 0)")
        assert db.stats.get("alpha.join_probes") > before
        memory = db.network.memory("pair", "r")
        assert {e.values[0] for e in memory.join_probe(0, 3)} == {3}

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_plan_description_shows_the_index(self, config):
        from repro.core.introspect import describe_join_plan
        db = self._db(**config)
        text = describe_join_plan(db.manager, "pair")
        assert text.count("join-index(es) [k]") == 2
        assert "join-index(es) [k, pad]" in describe_join_plan(
            db.manager, "tri")
