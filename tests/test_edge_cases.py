"""Edge cases and failure injection across the whole stack."""

import pytest

from repro import Database
from repro.errors import (
    CatalogError, ExecutionError, SemanticError)

from tests.helpers import budgeted


@pytest.fixture
def db():
    database = Database()
    database.execute_script("""
        create t (a = int4, s = text)
        create log (a = int4)
    """)
    return database


class TestNullsThroughRuleNetwork:
    def test_null_attribute_fails_anchored_predicate(self, db):
        db.execute("define rule r if t.a > 5 then append to log(t.a)")
        db.execute('append t(a = null, s = "x")')
        assert db.relation_rows("log") == []

    def test_null_attribute_fails_residual_predicate(self, db):
        db.execute('define rule r if t.s != "x" and t.a > 0 '
                   'then append to log(t.a)')
        db.execute("append t(a = 1, s = null)")
        assert db.relation_rows("log") == []

    def test_null_join_attribute_never_joins(self, db):
        db.execute("create u (a = int4)")
        db.execute("define rule j if t.a = u.a "
                   "then append to log(t.a)")
        db.execute('append t(a = null, s = "x")')
        db.execute("append u(a = null)")
        assert db.relation_rows("log") == []

    def test_non_null_attributes_still_match(self, db):
        db.execute("define rule r if t.a > 5 then append to log(t.a)")
        db.execute('append t(a = 9, s = null)')
        assert db.relation_rows("log") == [(9,)]

    def test_null_replaced_by_value_triggers(self, db):
        db.execute("define rule r if t.a > 5 then append to log(t.a)")
        db.execute('append t(a = null, s = "x")')
        db.execute("replace t (a = 10)")
        assert db.relation_rows("log") == [(10,)]

    def test_value_replaced_by_null_retracts(self, db):
        db._rules_suspended = True
        db.execute("define rule r if t.a > 5 then append to log(t.a)")
        db.execute('append t(a = 9, s = "x")')
        assert len(db.network.pnode("r")) == 1
        db.execute("replace t (a = null)")
        assert len(db.network.pnode("r")) == 0


class TestErrorsDuringRuleActions:
    def test_division_by_zero_in_action_propagates(self, db):
        db.execute("define rule bad on append t "
                   "then append to log(a = t.a / 0)")
        with pytest.raises(ExecutionError):
            db.execute('append t(a = 1, s = "x")')
        # the triggering tuple itself was inserted before the action ran
        assert len(db.relation_rows("t")) == 1

    def test_engine_usable_after_action_error(self, db):
        db.execute("define rule bad on append t "
                   "then append to log(a = t.a / t.a)")
        with pytest.raises(ExecutionError):
            db.execute('append t(a = 0, s = "x")')
        db.execute("remove rule bad")
        db.execute('append t(a = 2, s = "y")')
        assert len(db.relation_rows("t")) == 2

    def test_abort_cleans_up_after_action_error(self, db):
        db.execute("define rule bad on append t "
                   "then append to log(a = t.a / t.a)")
        db.begin()
        with pytest.raises(ExecutionError):
            db.execute('append t(a = 0, s = "x")')
        db.abort()
        assert db.relation_rows("t") == []
        assert db.relation_rows("log") == []


class TestSchemaRuleInteractions:
    def test_destroy_relation_referenced_by_inactive_rule(self, db):
        db.execute("define rule r if t.a > 5 then delete t")
        db.execute("deactivate rule r")
        with pytest.raises(CatalogError):
            db.execute("destroy t")
        db.execute("remove rule r")
        db.execute("destroy t")
        assert not db.catalog.has_relation("t")

    def test_rule_on_missing_relation_rejected(self, db):
        with pytest.raises(SemanticError):
            db.execute("define rule r if nope.a > 5 then delete nope")

    def test_index_created_after_rule_used_by_virtual_memory(self):
        db = budgeted(0)
        db.execute("create big (a = int4, k = int4)")
        db.execute("create small (k = int4)")
        db.execute("create log (a = int4)")
        for i in range(30):
            db.execute(f"append big(a = {i}, k = {i % 5})")
        db.execute("define rule j if big.a >= 0 and big.k = small.k "
                   "then append to log(a = big.a)")
        db.execute("define index bigk on big (k) using hash")
        db.execute("append small(k = 3)")     # probes via the new index
        assert len(db.relation_rows("log")) == 6

    def test_retrieve_into_then_rule_on_it(self, db):
        db.execute("append t(a = 1, s = null)")
        db.execute("retrieve into snap (t.a)")
        db.execute("define rule r on append snap "
                   "then append to log(snap.a)")
        db.execute("append snap(a = 7)")
        assert db.relation_rows("log") == [(7,)]


class TestRuleRemovalDuringActivity:
    def test_remove_rule_clears_selection_index(self, db):
        db.execute("define rule r if t.a > 5 then delete t")
        index = db.network.selection_index
        assert len(index) == 1
        db.execute("remove rule r")
        assert len(index) == 0
        db.execute('append t(a = 10, s = "x")')
        assert len(db.relation_rows("t")) == 1

    def test_two_rules_one_removed_other_still_fires(self, db):
        db.execute("define rule keep if t.a > 5 "
                   "then append to log(t.a)")
        db.execute("define rule drop if t.a > 5 then delete t")
        db.execute("remove rule drop")
        db.execute('append t(a = 10, s = "x")')
        assert db.relation_rows("log") == [(10,)]
        assert len(db.relation_rows("t")) == 1


class TestMiscellaneous:
    def test_rule_with_from_var_unused_in_condition(self, db):
        # a from-bound variable ranges even if the condition ignores it:
        # the rule matches the cartesian combination
        db.execute("create u (k = int4)")
        db.execute("append u(k = 1)")
        db.execute("append u(k = 2)")
        db.execute("define rule r if t.a > 0 from x in u "
                   "then append to log(t.a)")
        db.execute('append t(a = 7, s = "s")')
        assert db.relation_rows("log") == [(7,), (7,)]

    def test_self_referencing_action_terminates_via_condition(self, db):
        db.execute("define rule dampen if t.a > 0 "
                   "then replace t (a = t.a - 1) where t.a > 0")
        db.execute('append t(a = 3, s = "x")')
        assert db.relation_rows("t") == [(0, "x")]

    def test_empty_relation_rule_activation(self, db):
        db.execute("define rule r if t.a > 5 then delete t")
        assert len(db.network.pnode("r")) == 0

    def test_bool_attribute_rules(self, db):
        db.execute("create flags (on_call = bool, who = text)")
        db.execute("define rule page if flags.on_call = true "
                   "then append to log(a = 1)")
        db.execute('append flags(on_call = false, who = "a")')
        assert db.relation_rows("log") == []
        db.execute('append flags(on_call = true, who = "b")')
        assert db.relation_rows("log") == [(1,)]

    def test_text_range_rule(self, db):
        """The selection index handles string intervals on any attribute."""
        db.execute('define rule mid if t.s >= "h" and t.s < "q" '
                   'then append to log(t.a)')
        db.execute('append t(a = 1, s = "apple")')
        db.execute('append t(a = 2, s = "mango")')
        db.execute('append t(a = 3, s = "zebra")')
        assert db.relation_rows("log") == [(2,)]

    def test_many_rules_same_predicate(self, db):
        for i in range(20):
            db.execute(f"define rule r{i} if t.a > 5 "
                       f"then append to log(t.a)")
        db.execute('append t(a = 10, s = "x")')
        assert len(db.relation_rows("log")) == 20

    def test_zero_variable_action_command(self, db):
        db.execute('define rule const on append t '
                   'then append to log(a = 42)')
        db.execute('append t(a = 1, s = "x")')
        assert db.relation_rows("log") == [(42,)]

    def test_deeply_cascading_priorities(self, db):
        """Chain a -> b -> c through three relations with priorities."""
        db.execute("create b (v = int4)")
        db.execute("create c (v = int4)")
        db.execute("define rule r1 priority 1 on append t "
                   "then append to b(v = t.a + 1)")
        db.execute("define rule r2 priority 2 on append b "
                   "then append to c(v = b.v + 1)")
        db.execute('append t(a = 1, s = "x")')
        assert db.relation_rows("c") == [(3,)]
