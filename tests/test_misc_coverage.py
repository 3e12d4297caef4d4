"""Small coverage gaps: helper functions and secondary API surfaces."""

import pytest

from repro import Database
from repro.catalog.catalog import Catalog
from repro.catalog.schema import Schema
from repro.errors import ArielError, CatalogError
from repro.storage.heap import HeapRelation
from repro.storage.indexes import BTreeIndex


class TestCatalogSecondary:
    def test_rulesets_iteration(self):
        catalog = Catalog()
        catalog.store_rule("a", object(), "watchers")
        catalog.store_rule("b", object())
        names = {rs.name for rs in catalog.rulesets()}
        assert names == {"default_rules", "watchers"}

    def test_drop_rule_removes_from_all_rulesets(self):
        catalog = Catalog()
        catalog.store_rule("a", object(), "watchers")
        catalog.drop_rule("a")
        assert catalog.ruleset("watchers").rule_names == set()

    def test_missing_ruleset(self):
        with pytest.raises(CatalogError):
            Catalog().ruleset("nope")

    def test_relations_iteration(self):
        catalog = Catalog()
        catalog.create_relation("a", Schema.of(x="int"))
        catalog.create_relation("b", Schema.of(x="int"))
        assert {r.name for r in catalog.relations()} == {"a", "b"}

    def test_index_info_and_destroy(self):
        catalog = Catalog()
        catalog.create_relation("t", Schema.of(x="int"))
        catalog.create_index("ix", "t", "x", "hash")
        assert catalog.index_info("ix").kind == "hash"
        catalog.destroy_index("ix")
        with pytest.raises(CatalogError):
            catalog.index_info("ix")

    def test_duplicate_index_rejected(self):
        catalog = Catalog()
        catalog.create_relation("t", Schema.of(x="int"))
        catalog.create_index("ix", "t", "x")
        with pytest.raises(CatalogError):
            catalog.create_index("ix", "t", "x")

    def test_destroy_relation_drops_its_indexes(self):
        catalog = Catalog()
        catalog.create_relation("t", Schema.of(x="int"))
        catalog.create_index("ix", "t", "x")
        catalog.destroy_relation("t")
        with pytest.raises(CatalogError):
            catalog.index_info("ix")


class TestDatabaseSurface:
    def test_unknown_network_rejected(self):
        with pytest.raises(ArielError):
            Database(network="bogus")

    @pytest.mark.parametrize("knob, accepted, rejected", [
        ("join_mode", "pairwise",
         ("auto", "multiway", "leapfrog", "Pairwise", "", None)),
        ("batch_tokens", False, (True, 1, 0, None, "deferred")),
    ], ids=["join_mode", "batch_tokens"])
    def test_database_rejects_unknown_mode(self, knob, accepted, rejected):
        """One join algorithm (the pairwise seek) and one routing path
        (per statement): ``join_mode`` accepts ``"pairwise"`` and
        ``batch_tokens`` ``False``, and nothing else."""
        for value in rejected:
            with pytest.raises(ArielError, match=repr(accepted)):
                Database(**{knob: value})
        assert Database(**{knob: accepted}).network.network_name \
            == "A-TREAT"

    def test_removed_knobs_fail_loudly(self):
        for knob in ({"parallel_workers": 2},
                     {"parallel_backend": "thread"},
                     {"join_index_policy": "eager"},
                     {"selection_index": None},
                     {"virtual_policy": "never"}):
            with pytest.raises(TypeError):
                Database(**knob)
        db = Database()
        for method in ("adapt_memories", "enable_memory_adaptation",
                       "disable_memory_adaptation"):
            assert not hasattr(db, method)
        import repro.core.alpha as alpha
        for constant in ("PROMOTE_COST_THRESHOLD", "MAX_JOIN_INDEXES"):
            assert not hasattr(alpha, constant)

    def test_query_requires_retrieve(self):
        db = Database()
        db.execute("create t (a = int4)")
        from repro.errors import ExecutionError
        with pytest.raises(ExecutionError):
            db.query("append t(a = 1)")

    def test_execute_script_returns_results(self):
        db = Database()
        results = db.execute_script(
            "create t (a = int4)\nappend t(a = 1)\nretrieve (t.a)")
        assert results[0] is None
        assert results[1].count == 1
        assert results[2].rows == [(1,)]

    def test_explain_surface(self):
        db = Database()
        db.execute("create t (a = int4)")
        assert "SeqScan" in db.explain("retrieve (t.a) where t.a > 1")

    def test_relation_rows_helper(self):
        db = Database()
        db.execute("create t (a = int4)")
        db.execute("append t(a = 7)")
        assert db.relation_rows("t") == [(7,)]

    def test_firing_record_str(self):
        from repro.db import FiringRecord
        record = FiringRecord(3, "r", 2.0, 5)
        assert "#3" in str(record) and "5 match(es)" in str(record)


class TestHeapSecondary:
    def test_repr(self):
        rel = HeapRelation("t", Schema.of(x="int"))
        rel.insert((1,))
        assert "1 tuples" in repr(rel)

    def test_scan_where(self):
        rel = HeapRelation("t", Schema.of(x="int"))
        for i in range(6):
            rel.insert((i,))
        assert len(list(rel.scan_where(lambda v: v[0] % 2 == 0))) == 3

    def test_indexes_listing_order(self):
        rel = HeapRelation("t", Schema.of(x="int", y="int"))
        rel.attach_index(BTreeIndex("a", "t", "x", 0))
        rel.attach_index(BTreeIndex("b", "t", "y", 1))
        assert [i.name for i in rel.indexes()] == ["a", "b"]


class TestNetworkSurface:
    def test_network_repr(self):
        db = Database()
        db.execute("create t (a = int4)")
        db.execute("define rule r if t.a > 1 then delete t")
        assert "TreatNetwork" in repr(db.network)

    def test_add_duplicate_rule_rejected(self):
        from repro.errors import RuleError
        db = Database()
        db.execute("create t (a = int4)")
        db.execute("define rule r if t.a > 1 then delete t")
        compiled = db.network.rules["r"]
        with pytest.raises(RuleError):
            db.network.add_rule(compiled)

    def test_remove_unknown_rule_rejected(self):
        from repro.errors import RuleError
        db = Database()
        with pytest.raises(RuleError):
            db.network.remove_rule("ghost")
