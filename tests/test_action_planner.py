"""Tests for query modification display and rule-action planning."""

import gc
import re
import weakref

import pytest

from repro import Database
from repro.core.action_planner import modified_action_text
from repro.errors import ExecutionError
from repro.lang.ast_nodes import deparse


@pytest.fixture
def db():
    database = Database()
    database.execute_script("""
        create emp (name = text, age = int4, sal = float8,
                    dno = int4, jno = int4)
        create dept (dno = int4, name = text)
        create job (jno = int4, title = text)
        create salarywatch (name = text, age = int4, sal = float8,
                            dno = int4, jno = int4)
        create log (name = text)
    """)
    return database


def compiled(db, name):
    return db.manager.rule(name).compiled


#: every rule :class:`TestQueryModificationText` displays, by name
DISPLAY_RULES = {
    "SalesClerkRule2": 'define rule SalesClerkRule2 '
                       'if emp.sal > 30000 and emp.jno = job.jno '
                       'and job.title = "Clerk" '
                       'then do '
                       'append to salarywatch(emp.all) '
                       'replace emp (sal = 30000) where emp.dno = dept.dno '
                       'and dept.name = "Sales" '
                       'replace emp (sal = 25000) where emp.dno = dept.dno '
                       'and dept.name != "Sales" '
                       'end',
    "NoBobs": 'define rule NoBobs on append emp '
              'if emp.name = "Bob" then delete emp',
    "raiselimit": "define rule raiselimit "
                  "if emp.sal > 1.1 * previous emp.sal "
                  "then append to log(name = emp.name) "
                  "where previous emp.sal > 0",
    "unshared": 'define rule unshared if emp.sal > 5 '
                'then append to log(name = "fixed")',
    "halting": "define rule halting if emp.sal > 5 then do "
               "append to log(emp.name) halt end",
    "sorted": "define rule sorted if emp.sal > 5 "
              "then retrieve unique into t2 (id = emp.age, s = emp.sal) "
              "sort by emp.sal desc",
    "negated": "define rule negated if emp.sal > 5 "
               "then append to salarywatch(sal = - -emp.sal)",
    "counted": "define rule counted if emp.sal > 5 "
               "then retrieve (n = count(emp.age), m = emp.name)",
}


def displayed(db, name):
    db.execute(DISPLAY_RULES[name])
    return modified_action_text(compiled(db, name))


class TestQueryModificationText:
    def test_paper_figure7(self, db):
        """The SalesClerkRule2 example: the action after modification
        must read like the paper's Figure 7."""
        text = displayed(db, "SalesClerkRule2")
        assert "append to salarywatch (P.emp.name" in text
        assert "replace' P.emp (sal = 30000) " \
               "where P.emp.dno = dept.dno" in text
        assert 'dept.name != "Sales"' in text
        # dept does not appear in the condition: it stays unqualified
        assert "P.dept" not in text

    def test_delete_prime(self, db):
        text = displayed(db, "NoBobs")
        assert text == "delete' P.emp"

    def test_previous_kept(self, db):
        text = displayed(db, "raiselimit")
        assert "previous P.emp.sal > 0" in text

    def test_unshared_command_untouched(self, db):
        text = displayed(db, "unshared")
        assert "P." not in text

    def test_halt_rendered(self, db):
        text = displayed(db, "halting")
        assert "halt" in text

    def test_unique_and_sort_by_kept(self, db):
        text = displayed(db, "sorted")
        assert text == ("retrieve unique into t2 (id = P.emp.age, "
                        "s = P.emp.sal) sort by P.emp.sal desc")

    def test_nested_negation_parenthesised(self, db):
        """``--`` would start a comment: the inner negation keeps its
        parentheses after the shared reference is qualified."""
        text = displayed(db, "negated")
        assert text == "append to salarywatch (sal = -(-P.emp.sal))"

    def test_aggregate_argument_qualified(self, db):
        text = displayed(db, "counted")
        assert text == "retrieve (n = count(P.emp.age), m = P.emp.name)"

    @pytest.mark.parametrize("name", DISPLAY_RULES)
    def test_display_is_the_deparsed_action(self, db, name):
        """One renderer: without its ``P.`` prefixes and primes, the
        displayed action is :func:`deparse` of the action."""
        text = displayed(db, name)
        plain = re.sub(r"\b(delete|replace)' ", r"\1 ",
                       re.sub(r"\bP\.", "", text))
        assert plain == deparse(compiled(db, name).definition.action)


class TestActionPlans:
    def test_pnodescan_in_action_plan(self, db):
        """Firing a rule whose action references shared vars plans a
        PnodeScan (paper Figure 8)."""
        db.execute('define rule watch if emp.sal > 100 '
                   'then append to log(emp.name)')
        db.execute('append emp(name="A", age=1, sal=200, dno=1, jno=1)')
        assert db.relation_rows("log") == [("A",)]
        assert db.action_planner.plans_built >= 1

    def test_unshared_action_runs_once_per_firing(self, db):
        db.execute('define rule once if new(emp) '
                   'then append to log(name = "tick")')
        db.execute("do "
                   'append emp(name="A", age=1, sal=1, dno=1, jno=1) '
                   'append emp(name="B", age=1, sal=1, dno=1, jno=1) '
                   "end")
        # one firing (set-oriented), one command execution, one row
        assert db.relation_rows("log") == [("tick",)]

    def test_shared_action_runs_per_match(self, db):
        db.execute('define rule each if new(emp) '
                   'then append to log(emp.name)')
        db.execute("do "
                   'append emp(name="A", age=1, sal=1, dno=1, jno=1) '
                   'append emp(name="B", age=1, sal=1, dno=1, jno=1) '
                   "end")
        assert sorted(db.relation_rows("log")) == [("A",), ("B",)]

    def test_action_join_against_base_relation(self, db):
        """Action joins the P-node with a relation not in the condition
        (the dept join of SalesClerkRule2)."""
        db.execute('append dept(dno=1, name="Sales")')
        db.execute('define rule cap if emp.sal > 1000 '
                   'then replace emp (sal = 1000) '
                   'where emp.dno = dept.dno and dept.name = "Sales"')
        db.execute('append emp(name="S", age=1, sal=9000, dno=1, jno=1)')
        assert db.query("retrieve (emp.sal)").rows == [(1000.0,)]

    def test_action_join_leaves_nonmatching(self, db):
        db.execute('append dept(dno=1, name="Sales")')
        db.execute('append dept(dno=2, name="Toy")')
        db.execute('define rule cap if emp.sal > 1000 '
                   'then replace emp (sal = 1000) '
                   'where emp.dno = dept.dno and dept.name = "Sales"')
        db.execute('append emp(name="T", age=1, sal=9000, dno=2, jno=1)')
        assert db.query("retrieve (emp.sal)").rows == [(9000.0,)]


class TestPlanCaching:
    def make(self):
        db = Database()
        db.execute("create t (a = int4)")
        db.execute("create log (a = int4)")
        db.execute("define rule r on append t "
                   "then append to log(a = t.a)")
        return db

    def test_cached_builds_once(self):
        db = self.make()
        db.execute("append t(a = 1)")
        db.execute("append t(a = 2)")
        assert db.action_planner.plans_built == 1
        assert sorted(db.relation_rows("log")) == [(1,), (2,)]

    def test_cache_invalidated_on_index_change(self):
        db = self.make()
        db.execute("append t(a = 1)")
        db.execute("define index ta on t (a)")
        db.execute("append t(a = 2)")
        assert db.action_planner.plans_built == 2
        assert sorted(db.relation_rows("log")) == [(1,), (2,)]


class TestPlanOwnership:
    """An action plan lives on its rule's ActionCommand and runs with the
    consumed matches as its parameter, so nothing outlives a firing or a
    rule."""

    make = TestPlanCaching.make

    def test_failing_action_is_rolled_back_and_frees_its_matches(self):
        db = self.make()
        db.execute("create log2 (a = int4)")
        db.execute("define rule half on append t then do "
                   "append to log2(a = t.a) "
                   "append to log2(a = 10 / (t.a - t.a)) end")
        consumed = []
        consume = db.manager.consume_matches

        def spying(rule):
            matches = consume(rule)
            consumed.extend(weakref.ref(match) for match in matches)
            return matches
        db.manager.consume_matches = spying
        with pytest.raises(ExecutionError):
            db.execute("append t(a = 1)")
        assert db.relation_rows("log2") == []     # first command undone
        assert consumed
        gc.collect()
        assert [ref() for ref in consumed] == [None] * len(consumed)
        db.manager.consume_matches = consume
        db.execute("remove rule half")
        db.execute("append t(a = 2)")             # the engine carries on
        assert (2,) in db.relation_rows("log")

    def test_deactivate_activate_rebuilds_the_plan(self):
        db = self.make()
        db.execute("append t(a = 1)")
        assert db.action_planner.plans_built == 1
        db.execute("deactivate rule r")
        db.execute("activate rule r")
        db.execute("append t(a = 2)")
        assert db.action_planner.plans_built == 2
        assert sorted(db.relation_rows("log")) == [(1,), (2,)]

    def test_redefined_rule_runs_its_new_action(self):
        db = self.make()
        db.execute("append t(a = 1)")
        db.execute("remove rule r")
        db.execute("define rule r on append t "
                   "then append to log(a = t.a * 10)")
        db.execute("append t(a = 2)")
        assert sorted(db.relation_rows("log")) == [(1,), (20,)]
