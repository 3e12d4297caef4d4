"""Unit tests for the statistics module and the cost model."""

import pytest

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Schema
from repro.lang.parser import parse_command
from repro.lang.semantic import SemanticAnalyzer
from repro.planner import cost
from repro.planner.stats import (
    NEQ_DEFAULT, RANGE_DEFAULT, Statistics)


@pytest.fixture
def env():
    catalog = Catalog()
    catalog.create_relation("emp", Schema.of(
        name="text", sal="float", dno="int"))
    emp = catalog.relation("emp")
    for i in range(100):
        emp.insert((f"e{i}", float(i * 100), i % 10))
    return catalog, Statistics(catalog), SemanticAnalyzer(catalog)


def conjunct(env, text):
    catalog, stats, analyzer = env
    cmd = analyzer.analyze(parse_command(
        f"retrieve (emp.name) where {text}"))
    return cmd.where


class TestCardinality:
    def test_cardinality(self, env):
        catalog, stats, _ = env
        assert stats.cardinality("emp") == 100

    def test_distinct_by_scan(self, env):
        catalog, stats, _ = env
        assert stats.distinct("emp", "dno") == 10
        assert stats.distinct("emp", "name") == 100

    def test_distinct_via_hash_index(self, env):
        catalog, stats, _ = env
        catalog.create_index("idno", "emp", "dno", "hash")
        assert stats.distinct("emp", "dno") == 10

    def test_distinct_empty_relation(self, env):
        catalog, stats, _ = env
        catalog.create_relation("empty", Schema.of(x="int"))
        assert stats.distinct("empty", "x") == 1

    def test_distinct_cached_until_cardinality_moves(self, env):
        catalog, stats, _ = env
        first = stats.distinct("emp", "dno")
        emp = catalog.relation("emp")
        emp.insert(("new", 0.0, 999))         # +1% — cache holds
        assert stats.distinct("emp", "dno") == first
        for i in range(50):                    # +50% — cache invalidated
            emp.insert((f"n{i}", 0.0, 100 + i))
        assert stats.distinct("emp", "dno") > first


class TestSelectivity:
    def test_equality_uses_distinct(self, env):
        catalog, stats, _ = env
        sel = stats.selection_selectivity(
            conjunct(env, "emp.dno = 3"), "emp", "emp")
        assert sel == pytest.approx(1 / 10)

    def test_one_sided_range(self, env):
        catalog, stats, _ = env
        sel = stats.selection_selectivity(
            conjunct(env, "emp.sal > 100"), "emp", "emp")
        assert sel == pytest.approx(RANGE_DEFAULT)

    def test_two_sided_range_tighter(self, env):
        catalog, stats, _ = env
        sel = stats.selection_selectivity(
            conjunct(env, "emp.sal > 100 and emp.sal < 300").left,
            "emp", "emp")
        assert sel <= RANGE_DEFAULT

    def test_not_equal(self, env):
        catalog, stats, _ = env
        sel = stats.selection_selectivity(
            conjunct(env, "emp.dno != 3"), "emp", "emp")
        assert sel == pytest.approx(NEQ_DEFAULT)

    def test_scan_cardinality_combines(self, env):
        catalog, stats, _ = env
        rows = stats.scan_cardinality(
            "emp", "emp", [conjunct(env, "emp.dno = 3")])
        assert rows == pytest.approx(10.0)

    def test_join_selectivity_equi(self, env):
        catalog, stats, analyzer = env
        catalog.create_relation("dept", Schema.of(dno="int", name="text"))
        for d in range(10):
            catalog.relation("dept").insert((d, f"d{d}"))
        cmd = analyzer.analyze(parse_command(
            "retrieve (emp.name) where emp.dno = dept.dno"))
        sel = stats.join_selectivity(cmd.where,
                                     {"emp": "emp", "dept": "dept"})
        assert sel == pytest.approx(1 / 10)


class TestCostModel:
    def test_seq_scan(self):
        c, rows = cost.seq_scan_cost(1000, 50)
        assert c == 1000 and rows == 50

    def test_index_beats_seq_for_selective(self):
        seq, _ = cost.seq_scan_cost(10000, 10)
        idx, _ = cost.index_scan_cost(10)
        assert idx < seq

    def test_hash_beats_nlj_for_large_inputs(self):
        nlj, _ = cost.nested_loop_cost(1000, 1000, 1000, 500)
        hsh, _ = cost.hash_join_cost(1000, 1000, 1000, 1000, 500)
        assert hsh < nlj

    def test_index_nlj_beats_hash_for_small_outer(self):
        probe, _ = cost.index_nlj_cost(1, 1, 2.0, 2)
        hsh, _ = cost.hash_join_cost(1, 1, 10000, 10000, 2)
        assert probe < hsh
