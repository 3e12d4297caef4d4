"""Paper-fidelity structural tests: Figures 3–8 reproduced exactly.

These tests pin the *structures* the paper draws, not just behavior:
the TREAT network of Figure 3, the A-TREAT network of Figure 4 with its
virtual middle node, the modified action of Figure 7, and a Figure-8
style plan for an action command.
"""

import math

from repro import Database
from repro.core.action_planner import modified_action_text
from repro.core.introspect import describe_rule
from repro.planner.plans import PNODE, explain, plan_operators

from tests.helpers import budgeted

#: room for the one-tuple dept and job memories, not for emp's 34
FIGURE4_BUDGET = 2


def build_salesclerk_db(budget):
    db = budgeted(budget)
    db.execute_script("""
        create emp (name = text, age = int4, sal = float8,
                    dno = int4, jno = int4)
        create dept (dno = int4, name = text, building = text)
        create job (jno = int4, title = text, paygrade = int4)
    """)
    # populate so 'sal > 30000' is unselective (most emps match) while
    # dept/job selections are selective — the Figure 4 setup
    for d in range(8):
        db.execute(f'append dept(dno={d}, name="d{d}")')
    db.execute('append dept(dno=99, name="Sales")')
    for j in range(8):
        db.execute(f'append job(jno={j}, title="j{j}", paygrade={j})')
    db.execute('append job(jno=99, title="Clerk", paygrade=1)')
    for i in range(40):
        db.execute(f'append emp(name="e{i}", age={20 + i}, '
                   f'sal={25000 + 1000 * i}, dno={i % 8}, jno={i % 8})')
    db._rules_suspended = True
    db.execute('define rule SalesClerkRule '
               'if emp.sal > 30000 and emp.dno = dept.dno '
               'and dept.name = "Sales" and emp.jno = job.jno '
               'and job.title = "Clerk" '
               'then delete emp')
    return db


class TestFigure3TreatNetwork:
    """Figure 3: the plain TREAT network — three stored α-memories."""

    def test_structure(self):
        db = build_salesclerk_db(math.inf)
        for var in ("emp", "dept", "job"):
            memory = db.network.memory("SalesClerkRule", var)
            assert not memory.is_virtual
            assert memory.kind_name == "stored-α"
        # α-memory contents mirror the selection conditions
        assert len(db.network.memory("SalesClerkRule", "dept")) == 1
        assert len(db.network.memory("SalesClerkRule", "job")) == 1
        assert len(db.network.memory("SalesClerkRule", "emp")) == 34

    def test_selection_anchors(self):
        db = build_salesclerk_db(math.inf)
        rule = db.network.rules["SalesClerkRule"]
        assert rule.specs["emp"].analysis.anchor.attr == "sal"
        assert rule.specs["dept"].analysis.anchor.attr == "name"
        assert rule.specs["job"].analysis.anchor.attr == "title"
        # joins exactly as drawn: dept.dno = emp.dno and emp.jno = job.jno
        joins = {frozenset(j.variables) for j in rule.joins}
        assert joins == {frozenset({"emp", "dept"}),
                         frozenset({"emp", "job"})}

    def test_figure5_memory_count(self):
        """Three tuple variables -> three α-memories, one P-node."""
        db = build_salesclerk_db(math.inf)
        assert len([1 for (name, _) in db.network._memories
                    if name == "SalesClerkRule"]) == 3


class TestFigure4ATreatNetwork:
    """Figure 4: identical, except alpha2 (emp, sal>30000) is virtual —
    'if the predicate sal>30000 is not very selective, then making
    alpha2 be virtual may be a reasonable choice'.  The §8 budget makes
    that choice: two entries pay for the dept and job memories, not for
    emp's."""

    def test_budget_reproduces_figure4(self):
        db = build_salesclerk_db(FIGURE4_BUDGET)
        assert db.network.memory("SalesClerkRule", "emp").is_virtual
        assert not db.network.memory("SalesClerkRule", "dept").is_virtual
        assert not db.network.memory("SalesClerkRule", "job").is_virtual
        assert db.network.memory_entry_count() == FIGURE4_BUDGET

    def test_storage_saved_is_the_emp_fraction(self):
        stored = build_salesclerk_db(math.inf)
        atreat = build_salesclerk_db(FIGURE4_BUDGET)
        saved = (stored.network.memory_entry_count("SalesClerkRule")
                 - atreat.network.memory_entry_count("SalesClerkRule"))
        assert saved == 34       # exactly the emp α-memory's contents

    def test_same_network_same_matches(self):
        stored = build_salesclerk_db(math.inf)
        atreat = build_salesclerk_db(FIGURE4_BUDGET)
        stored.execute('append emp(name="x", age=1, sal=50000, dno=99, '
                       'jno=99)')
        atreat.execute('append emp(name="x", age=1, sal=50000, dno=99, '
                       'jno=99)')
        assert len(stored.network.pnode("SalesClerkRule")) == \
            len(atreat.network.pnode("SalesClerkRule")) == 1


class TestFigure7QueryModification:
    def test_modified_text(self):
        db = Database()
        db.execute_script("""
            create emp (name = text, sal = float8, dno = int4,
                        jno = int4)
            create dept (dno = int4, name = text)
            create job (jno = int4, title = text)
            create salarywatch (name = text, sal = float8, dno = int4,
                                jno = int4)
        """)
        db.execute('define rule SalesClerkRule2 '
                   'if emp.sal > 30000 and emp.jno = job.jno '
                   'and job.title = "Clerk" '
                   'then do '
                   'append to salarywatch(emp.name, emp.sal, emp.dno, '
                   'emp.jno) '
                   'replace emp (sal = 30000) where emp.dno = dept.dno '
                   'and dept.name = "Sales" '
                   'replace emp (sal = 25000) where emp.dno = dept.dno '
                   'and dept.name != "Sales" '
                   'end')
        text = modified_action_text(
            db.manager.rule("SalesClerkRule2").compiled)
        # Figure 7, line for line (modulo our target-list rendering):
        assert "append to salarywatch (P.emp.name" in text
        assert ("replace' P.emp (sal = 30000) where P.emp.dno = dept.dno "
                'and dept.name = "Sales"') in text
        assert ("replace' P.emp (sal = 25000) where P.emp.dno = dept.dno "
                'and dept.name != "Sales"') in text

    def test_describe_rule_includes_both_views(self):
        db = Database()
        db.execute("create t (a = int4)")
        db.execute("define rule r if t.a > 1 then delete t")
        text = describe_rule(db.manager, "r")
        assert "if:       t.a > 1" in text
        assert "delete' P.t" in text


class TestFigure8ActionPlan:
    def test_action_plan_has_pnodescan_and_dept_access(self):
        """Figure 8: the replace' command plans as a join of a PnodeScan
        with an access path on dept."""
        db = Database()
        db.execute_script("""
            create emp (name = text, sal = float8, dno = int4)
            create dept (dno = int4, name = text)
        """)
        for d in range(30):
            db.execute(f'append dept(dno={d}, name="d{d}")')
        db.execute('append dept(dno=99, name="Sales")')
        db.execute("define index deptdno on dept (dno) using hash")
        db.execute('define rule cap if emp.sal > 30000 '
                   'then replace emp (sal = 30000) '
                   'where emp.dno = dept.dno and dept.name = "Sales"')
        db._rules_suspended = True
        db.execute('append emp(name="x", sal=99000, dno=99)')
        rule = db.manager.rule("cap").compiled
        matches = db.manager.consume_matches(rule)
        plans = db.action_planner.plan_firing(rule, matches)
        ops = plan_operators(plans[0].plan)
        assert "PnodeScan" in ops
        # the dept side is an index probe or scan joined to the P-node
        assert any(op in ops for op in
                   ("IndexProbe", "IndexScan", "SeqScan"))
        assert any(op in ops for op in
                   ("NestedLoopJoin", "HashJoin"))
        text = explain(plans[0].plan)
        assert "P(cap)" in text
        # the plan is the firing's prepared statement: its parameter is
        # the consumed matches
        db.executor.run(plans[0], {PNODE: matches})
        assert db.query("retrieve (emp.sal)").rows == [(30000.0,)]
