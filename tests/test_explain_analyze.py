"""``explain [analyze]``: plan rendering with observed row counts,
loop counts and per-operator wall time."""

import re

import pytest

from repro import Database
from repro.core.pnode import Match, PNode
from repro.core.alpha import MemoryEntry
from repro.errors import SemanticError
from repro.lang import ast_nodes as ast
from repro.lang.expr import Bindings
from repro.lang.parser import parse_command
from repro.planner.plans import (
    PNODE, AnalyzedPlan, FilterPlan, HashJoin, PnodeScan, SeqScan,
    instrument)
from repro.storage.tuples import TupleId
from tests.helpers import MiniEngine


@pytest.fixture
def db():
    database = Database()
    database.execute_script("""
        create emp (name = text, age = int4, sal = float8, dno = int4)
        create dept (dno = int4, name = text)
        create log (name = text)
    """)
    for i in range(20):
        database.execute(f'append emp(name = "emp{i:02d}", '
                         f'age = {20 + i % 10}, sal = {1000.0 * i}, '
                         f'dno = {1 + i % 4})')
    for dno, name in enumerate(["Toy", "Sales", "Research", "Shipping"],
                               start=1):
        database.execute(f'append dept(dno = {dno}, name = "{name}")')
    return database


class TestParsing:
    def test_explain_parses_to_node(self):
        command = parse_command("explain retrieve (emp.name)")
        assert isinstance(command, ast.Explain)
        assert command.analyze is False
        assert isinstance(command.command, ast.Retrieve)

    def test_explain_analyze_sets_flag(self):
        command = parse_command(
            "explain analyze retrieve (emp.name)")
        assert command.analyze is True

    def test_deparse_round_trip(self):
        text = "explain analyze retrieve (emp.name)"
        command = parse_command(text)
        assert isinstance(parse_command(ast.deparse(command)),
                          ast.Explain)

    def test_non_data_command_rejected(self, db):
        with pytest.raises(SemanticError) as err:
            db.execute("explain create t (a = int4)")
        assert "data command" in str(err.value)


class TestExplainAnalyzeOperators:
    def test_seq_scan_reports_rows_and_time(self, db):
        out = db.execute(
            "explain analyze retrieve (emp.name) where emp.age > 24")
        assert "SeqScan" in out
        match = re.search(r"rows=(\d+) loops=1 time=[\d.]+ms", out)
        assert match and int(match.group(1)) == 10
        assert "Total: 10 row(s)" in out

    def test_index_scan(self, db):
        db.execute("define index empsal on emp (sal) using btree")
        out = db.execute(
            "explain analyze retrieve (emp.name) "
            "where emp.sal > 15000.0")
        assert "IndexScan" in out
        assert "rows=4" in out

    def test_join_reports_rows_in(self, db):
        out = db.execute(
            "explain analyze retrieve (emp.name, dept.name) "
            "where emp.dno = dept.dno")
        assert "Join" in out
        assert "rows_in=" in out
        assert "Total: 20 row(s)" in out

    def test_index_probe_nested_loop(self, db):
        db.execute("define index empdno on emp (dno) using hash")
        out = db.execute(
            'explain analyze retrieve (emp.name) '
            'where emp.dno = dept.dno and dept.name = "Toy"')
        assert "NestedLoopJoin" in out
        assert "IndexProbe" in out
        # the probe ran once per qualifying dept row
        assert "loops=1" in out

    def test_empty_plan(self, db):
        out = db.execute(
            "explain analyze retrieve (emp.name) "
            "where emp.age > 10 and 1 = 2")
        assert "Empty" in out
        assert "rows=0" in out
        assert "Total: 0 row(s)" in out

    def test_singleton_append_executes(self, db):
        out = db.execute(
            'explain analyze append emp(name = "new", age = 99, '
            'sal = 1.0, dno = 1)')
        assert "Singleton" in out
        assert "Total: 1 tuple(s) affected" in out
        assert len(db.relation_rows("emp")) == 21

    def test_analyze_delete_fires_rules(self, db):
        db.execute("define rule r on delete emp "
                   "then append to log(emp.name)")
        out = db.execute(
            "explain analyze delete emp where emp.age = 29")
        assert "tuple(s) affected" in out
        assert len(db.relation_rows("log")) == 2
        assert db.stats.get("rules.fired") >= 1


class TestNoCachePoisoning:
    def test_statement_cache_untouched_by_analyze(self, db):
        text = "retrieve (emp.name) where emp.age > 24"
        db.execute(f"explain analyze {text}")
        result = db.query(text)
        assert len(result) == 10
        cached = db.statement_cache.lookup(text)
        if cached is not None:
            planned = cached.current_plan()
            assert not isinstance(planned.plan, AnalyzedPlan)

    def test_explain_method_analyze_kwarg(self, db):
        out = db.explain("retrieve (emp.name)", analyze=True)
        assert "rows=20" in out
        plain = db.explain("retrieve (emp.name)")
        assert "rows=" not in plain


class TestInstrumentUnit:
    def _engine(self):
        engine = MiniEngine()
        engine.run("create l (k = int4, v = int4)")
        engine.run("create r (k = int4, w = int4)")
        for i in range(6):
            engine.run(f"append l(k = {i % 3}, v = {i})")
        for i in range(4):
            engine.run(f"append r(k = {i % 2}, w = {i})")
        return engine

    @staticmethod
    def _key(var):
        return ast.AttrRef(var=var, attr="k", position=0)

    def test_hash_join_counts(self):
        engine = self._engine()
        plan = HashJoin(SeqScan("l", "l"), SeqScan("r", "r"),
                        [self._key("l")], [self._key("r")])
        root = instrument(plan)
        out = list(root.rows(engine.context, Bindings()))
        # l keys: 0,1,2 ×2 each; r keys: 0,1 ×2 each → 2*2*2 = 8
        assert len(out) == 8
        assert root.rows_out == 8
        assert root.rows_in() == 10        # 6 build rows + 4 probe rows
        left, right = root.children()
        assert left.rows_out == 6 and right.rows_out == 4
        assert "HashJoin" in root.label()
        assert "rows_in=10" in root.label()

    def test_filter_plan_counts(self):
        engine = self._engine()
        predicate = ast.BinOp("<", ast.AttrRef(var="l", attr="v",
                                               position=1),
                              ast.Const(3))
        root = instrument(FilterPlan(SeqScan("l", "l"), predicate))
        out = list(root.rows(engine.context, Bindings()))
        assert len(out) == 3
        (child,) = root.children()
        assert child.rows_out == 6
        assert root.rows_in() == 6 and root.rows_out == 3

    def test_pnode_scan(self):
        engine = self._engine()
        pnode = PNode("r1", ["t"])
        for i in range(3):
            entry = MemoryEntry(TupleId("l", i), (i, i))
            pnode.insert(Match.of({"t": entry}), stamp=i)
        root = instrument(PnodeScan("r1", ["t"]))
        out = list(root.rows(engine.context,
                             Bindings(params={PNODE: pnode.take_all()})))
        assert len(out) == 3
        assert root.rows_out == 3
        assert "PnodeScan" in root.label()

    def test_instrument_leaves_original_untouched(self):
        plan = FilterPlan(SeqScan("l", "l"),
                          ast.BinOp("=", ast.Const(1), ast.Const(1)))
        instrument(plan)
        # the original tree must not contain instrumentation wrappers
        assert isinstance(plan.child, SeqScan)

    def test_loops_counted_per_execution(self):
        engine = self._engine()
        root = instrument(SeqScan("l", "l"))
        for _ in range(3):
            list(root.rows(engine.context, Bindings()))
        assert root.loops == 3
        assert root.rows_out == 18
        assert "loops=3" in root.label()
