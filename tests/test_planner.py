"""Unit tests for the optimizer: access paths, join methods, join order."""

import pytest

from repro.lang.parser import parse_command
from repro.planner.plans import explain, plan_operators
from repro.planner.stats import NEQ_DEFAULT, OTHER_DEFAULT, RANGE_DEFAULT
from tests.helpers import paper_engine


@pytest.fixture
def engine():
    return paper_engine()


class TestAccessPaths:
    def test_seq_scan_without_index(self, engine):
        planned = engine.plan("retrieve (emp.name) where emp.sal > 30000")
        assert plan_operators(planned.plan) == ["SeqScan"]

    def test_btree_range_scan(self, engine):
        engine.run("define index empsal on emp (sal) using btree")
        planned = engine.plan("retrieve (emp.name) where emp.sal > 60000")
        assert "IndexScan" in plan_operators(planned.plan)
        assert "empsal" in explain(planned.plan)

    def test_btree_point_scan(self, engine):
        engine.run("define index empdno on emp (dno) using btree")
        planned = engine.plan("retrieve (emp.name) where emp.dno = 3")
        assert plan_operators(planned.plan) == ["IndexProbe"]
        assert "using empdno on 3" in explain(planned.plan)

    def test_hash_point_scan(self, engine):
        engine.run("define index empdno on emp (dno) using hash")
        planned = engine.plan("retrieve (emp.name) where emp.dno = 3")
        assert plan_operators(planned.plan) == ["IndexProbe"]

    def test_hash_index_unused_for_range(self, engine):
        engine.run("define index empsal on emp (sal) using hash")
        planned = engine.plan("retrieve (emp.name) where emp.sal > 60000")
        assert plan_operators(planned.plan) == ["SeqScan"]

    def test_residual_predicate_kept(self, engine):
        engine.run("define index empsal on emp (sal) using btree")
        planned = engine.plan(
            'retrieve (emp.name) where emp.sal > 60000 and '
            'emp.name != "emp03"')
        text = explain(planned.plan)
        assert "IndexScan" in text
        assert "!=" in text

    def test_unsatisfiable_predicate_plans_empty(self, engine):
        engine.run("define index empsal on emp (sal) using btree")
        for where in ("emp.sal > 10 and emp.sal < 5",
                      "emp.sal > 10 and emp.sal = 5",
                      "emp.name = \"emp03\" and emp.sal < 5"):
            assert engine.run(f"retrieve (emp.name) where {where}").rows \
                == [], where

    def test_false_constant_plans_empty(self, engine):
        planned = engine.plan("retrieve (emp.name) where 1 = 2")
        assert plan_operators(planned.plan) == ["EmptyPlan"]

    def test_no_variable_command_plans_singleton(self, engine):
        engine.run("create t (a = int4)")
        planned = engine.plan("append t(a = 1)")
        assert plan_operators(planned.plan) == ["SingletonPlan"]


class TestJoinMethods:
    def test_two_way_join_produces_join_operator(self, engine):
        planned = engine.plan(
            "retrieve (emp.name, dept.name) where emp.dno = dept.dno")
        ops = plan_operators(planned.plan)
        assert any(op in ops for op in
                   ("HashJoin", "NestedLoopJoin"))

    def test_index_nested_loop_preferred_with_index(self, engine):
        engine.run("define index empdno on emp (dno) using hash")
        planned = engine.plan(
            'retrieve (emp.name) where emp.dno = dept.dno and '
            'dept.name = "Toy"')
        ops = plan_operators(planned.plan)
        assert "IndexProbe" in ops

    def test_three_way_join(self, engine):
        planned = engine.plan(
            'retrieve (emp.name) where emp.dno = dept.dno and '
            'emp.jno = job.jno and dept.name = "Sales" and '
            'job.title = "Clerk"')
        ops = plan_operators(planned.plan)
        assert ops.count("SeqScan") + ops.count("IndexScan") \
            + ops.count("IndexProbe") == 3

    def test_cross_join_without_predicate(self, engine):
        planned = engine.plan("retrieve (dept.name, job.title)")
        assert "NestedLoopJoin" in plan_operators(planned.plan)

    def test_non_equi_join_uses_nested_loop(self, engine):
        planned = engine.plan(
            "retrieve (a.name, b.name) from a in emp, b in emp "
            "where a.sal < b.sal")
        ops = plan_operators(planned.plan)
        assert "NestedLoopJoin" in ops
        assert "HashJoin" not in ops

    def test_smaller_input_drives_join(self, engine):
        # dept (7 rows) should be on the build/outer side against
        # emp (25 rows) in a cost-based order
        planned = engine.plan(
            "retrieve (emp.name, dept.name) where emp.dno = dept.dno")
        text = explain(planned.plan)
        # whichever method is chosen, the plan must mention both scans
        assert "emp" in text and "dept" in text


class TestSelfJoin:
    def test_self_join_via_from_list(self, engine):
        planned = engine.plan(
            "retrieve (a.name, b.name) from a in emp, b in emp "
            "where a.dno = b.dno and a.jno = 1 and b.jno = 2")
        ops = plan_operators(planned.plan)
        assert ops.count("SeqScan") == 2 or "IndexProbe" in ops


class TestExplain:
    def test_explain_is_indented_tree(self, engine):
        planned = engine.plan(
            "retrieve (emp.name, dept.name) where emp.dno = dept.dno")
        lines = explain(planned.plan).splitlines()
        assert len(lines) >= 3
        assert lines[0][0] != " "
        assert any(line.startswith("  ") for line in lines[1:])


class TestSelectivity:
    """One bound recognizer serves the estimates: a literal, a constant
    expression and a parameter bound estimate alike, by comparison
    shape — ``1/distinct`` for ``=``, System R's 1/3 for a range."""

    @pytest.mark.parametrize("conjunct, expected", [
        ("emp.dno = 3", 1 / 7),
        ("3 = emp.dno", 1 / 7),
        ("emp.dno = 1 + 2", 1 / 7),
        ("emp.dno = $d", 1 / 7),
        ('emp.name = "emp03"', 1 / 25),
        ("emp.sal = inf", 1 / 25),
        ("emp.sal > 30000", RANGE_DEFAULT),
        ("30000 >= emp.sal", RANGE_DEFAULT),
        ("emp.sal < 1.1 * 30000", RANGE_DEFAULT),
        ("emp.sal <= $hi", RANGE_DEFAULT),
        ("emp.sal > -inf", RANGE_DEFAULT),
        ("emp.sal != 30000", NEQ_DEFAULT),
        ("emp.sal + 1 > 30000", OTHER_DEFAULT),
        ("emp.age = emp.jno", OTHER_DEFAULT),
    ])
    def test_estimate_by_comparison_shape(self, engine, conjunct,
                                          expected):
        command = engine.analyzer.analyze(parse_command(
            f"retrieve (emp.name) where {conjunct}"))
        assert engine.optimizer.stats.selection_selectivity(
            command.where, "emp", "emp") == pytest.approx(expected)
