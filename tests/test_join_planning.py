"""Tests for adaptive join planning: cost-driven seek ordering,
demand-driven join-index promotion, and feedback-driven α-memory
adaptation."""

import pytest

from repro import Database
from repro.core.alpha import MAX_JOIN_INDEXES, PROMOTE_COST_THRESHOLD
from repro.errors import ArielError


def _fill(db, relation, rows):
    db.bulk_append(relation, rows)


@pytest.fixture
def db():
    """Three relations of very different sizes, one three-way join rule.

    The variables sort alphabetically (big, s, tiny), so the static
    order from seed ``s`` would visit ``big`` first; a cost-driven
    planner must visit ``tiny`` first.
    """
    database = Database(virtual_policy="never")
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
        assert planner._orders
        db.catalog.bump_version()
        planned = db.stats.get("joins.orders_planned")
        planner.order(rule, "s")   # triggers _sync
        assert planner._version == db.catalog.schema_version
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
        db.execute("remove rule j3")
        assert not any(k[0] == "j3" for k in planner._orders)

    def test_removed_rules_leave_no_virtual_estimates(self):
        """A rule's virtual-memory row estimates leave with the rule:
        500 define → remove cycles (fresh names, as rules come and go on
        a live engine, and one name redefined) keep the cache bounded by
        the rules in the network."""
        db = Database(virtual_policy="always")
        db.execute_script("""
            create a (k = int4, v = int4)
            create b (k = int4)
            create log (k = int4)
        """)
        db.bulk_append("a", ((i % 10, i) for i in range(40)))
        db.bulk_append("b", ((i,) for i in range(10)))
        db._rules_suspended = True
        planner = db.network.join_planner
        sizes = []
        for i in range(500):
            name = f"dyn{i}" if i % 2 else "same"
            db.execute(f"define rule {name} if a.k = b.k and a.v > {i % 40}"
                       f" then append to log(k = a.k)")
            # a token seek plans the rule's order, estimating a's rows
            db.execute(f"append b(k = {i % 10})")
            assert any(k[0] == name for k in planner._virtual_rows)
            db.execute(f"remove rule {name}")
            sizes.append(len(planner._virtual_rows))
        assert max(sizes) == 0


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
        state = db.network._states["rr"]
        assert state.order[0] == "b"
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


class TestDemandDrivenIndexes:
    def _db(self):
        db = Database(virtual_policy="never")
        db.execute_script("""
            create l (k = int4)
            create r (k = int4, pad = int4)
        """)
        db.bulk_append("r", ((i % 8, i) for i in range(64)))
        db._rules_suspended = True
        db.execute("define rule jj if l.k = r.k then delete l")
        return db

    def test_demand_policy_starts_unindexed(self):
        db = self._db()
        assert db.network.memory("jj", "r").join_index_positions() == []

    def test_index_promoted_at_runtime_after_threshold(self):
        db = self._db()
        memory = db.network.memory("jj", "r")
        probes_needed = PROMOTE_COST_THRESHOLD // len(memory) + 1
        for i in range(probes_needed):
            db.execute(f"append l(k = {i % 8})")
        assert memory.join_index_positions() == [0]
        assert db.stats.get("alpha.join_indexes_promoted") == 1
        # degradation before the promotion was counted
        assert db.stats.get("joins.unindexed_probes") > 0
        assert memory.unindexed_probe_count > 0

    def test_promoted_index_answers_probes(self):
        db = self._db()
        memory = db.network.memory("jj", "r")
        for i in range(20):
            db.execute(f"append l(k = {i % 8})")
        assert memory.has_join_index(0)
        assert {e.values[0] for e in memory.join_probe(0, 3)} == {3}

    def test_promotion_visible_in_plan_description(self):
        db = self._db()
        for i in range(20):
            db.execute(f"append l(k = {i % 8})")
        from repro.core.introspect import describe_join_plan
        text = describe_join_plan(db.manager, "jj")
        assert "join-index(es) [k]" in text

    def test_index_cap_respected(self):
        from repro.core.alpha import AlphaMemory
        from repro.core.rules import VariableSpec
        spec = VariableSpec(var="v", relation="t")
        memory = AlphaMemory("rr", spec)
        for position in range(MAX_JOIN_INDEXES):
            memory.ensure_join_index(position)
        for _ in range(10_000):
            promoted = memory.note_unindexed_probe(MAX_JOIN_INDEXES)
            assert promoted is False
        assert len(memory.join_index_positions()) == MAX_JOIN_INDEXES


class TestFeedbackAdaptation:
    def _db(self):
        """Two symmetric event rules; only hot_rule sees traffic.

        The ``< 2`` selection keeps 40 of 80 rows, so materializing a
        memory saves 40 per probe (scan 80 vs iterate 40); a budget of
        50 entries fits exactly one of the two memories, and observed
        probe frequency must decide which.
        """
        db = Database(virtual_policy="always")
        db.execute_script("""
            create hp (k = int4)
            create cp (k = int4)
            create hot (k = int4)
            create cold (k = int4)
            create log (k = int4)
        """)
        db.bulk_append("hot", ((i % 4,) for i in range(80)))
        db.bulk_append("cold", ((i % 4,) for i in range(80)))
        db.execute("define rule hot_rule on append hp "
                   "if hp.k = hot.k and hot.k < 2 "
                   "then append to log(k = hp.k)")
        db.execute("define rule cold_rule on append cp "
                   "if cp.k = cold.k and cold.k < 2 "
                   "then append to log(k = cp.k)")
        return db

    def test_observed_probes_bias_materialization(self):
        db = self._db()
        for i in range(30):
            db.execute(f"append hp(k = {i % 4})")
        plan = db.adapt_memories(budget_entries=50)
        assert plan.decision("hot_rule", "hot") is True
        assert plan.decision("cold_rule", "cold") is False
        assert db.network.memory("hot_rule", "hot").is_virtual is False
        assert db.network.memory("cold_rule", "cold").is_virtual is True
        assert db.stats.get("memory.adaptations") == 1
        assert db.stats.get("memory.flips") == 1

    def test_adaptation_resets_probe_counters(self):
        db = self._db()
        for i in range(5):
            db.execute(f"append hp(k = {i % 4})")
        assert db.network.memory("hot_rule", "hot").probe_count > 0
        db.adapt_memories(budget_entries=50)
        assert db.network.memory("hot_rule", "hot").probe_count == 0

    def test_no_flip_means_no_reactivation(self):
        db = self._db()
        db.adapt_memories(budget_entries=0)   # nothing materializable
        flips = db.stats.get("memory.flips")
        db.adapt_memories(budget_entries=0)   # same verdict again
        assert db.stats.get("memory.flips") == flips
        assert db.stats.get("memory.adaptations") == 2

    def test_auto_trigger_every_n_transitions(self):
        db = self._db()
        db.enable_memory_adaptation(budget_entries=50, every=3)
        for i in range(7):
            db.execute(f"append hp(k = {i % 4})")
        assert db.stats.get("memory.adaptations") == 2
        db.disable_memory_adaptation()
        for i in range(6):
            db.execute(f"append hp(k = {i % 4})")
        assert db.stats.get("memory.adaptations") == 2

    def test_bad_interval_rejected(self):
        db = self._db()
        with pytest.raises(ArielError):
            db.enable_memory_adaptation(budget_entries=10, every=0)

    def test_rules_still_correct_after_adaptation(self):
        db = self._db()
        db.enable_memory_adaptation(budget_entries=50, every=2)
        for i in range(8):
            db.execute(f"append hp(k = {i % 4})")
        # k cycles 0..3; the two k<2 values each appear twice and join
        # 20 hot rows apiece — a mid-run storage flip must not change it
        assert len(db.relation_rows("log")) == 4 * 20
