"""Tests for the network self-check, including fault injection."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.alpha import MemoryEntry
from repro.core.validate import assert_consistent, check_network
from repro.storage.tuples import TupleId

from tests.helpers import budgeted
from tests.test_network_equivalence import RULES, apply_ops, _op


def build(budget="auto"):
    db = budgeted(budget)
    db.execute("create t (a = int4, k = int4)")
    db.execute("create u (b = int4, k = int4)")
    db.execute("create v (c = int4, k = int4)")
    db.execute("create log (tag = text)")
    return db


class TestCleanStates:
    def test_fresh_database_consistent(self):
        db = build()
        for rule in RULES[:4]:
            db.execute(rule)
        assert check_network(db) == []

    def test_after_workload_consistent(self):
        db = build()
        for rule in RULES:
            db.execute(rule)
        for i in range(30):
            db.execute(f"append t(a = {i % 7}, k = {i})")
            db.execute(f"append u(b = {i % 5}, k = {i})")
        db.execute("replace t (a = 99) where t.k = 3")
        db.execute("delete u where u.k = 4")
        assert_consistent(db)

    def test_suspended_firing_checks_completeness(self):
        db = build()
        db._rules_suspended = True
        db.execute(RULES[1])       # join rule
        db.execute("append t(a = 5, k = 1)")
        db.execute("append u(b = 5, k = 1)")
        assert_consistent(db)
        assert len(db.network.pnode("r_join")) == 1


class TestFaultInjection:
    def test_corrupt_alpha_extra_detected(self):
        db = build("never")
        db.execute(RULES[1])
        db.execute("append t(a = 5, k = 1)")
        memory = db.network.memory("r_join", "t")
        memory.insert(MemoryEntry(TupleId("t", 999), (1, 2)))
        problems = check_network(db)
        assert any(p.kind == "alpha-extra" for p in problems)

    def test_corrupt_alpha_missing_detected(self):
        db = build("never")
        db.execute(RULES[1])
        db.execute("append t(a = 5, k = 1)")
        memory = db.network.memory("r_join", "t")
        tid = next(iter([e.tid for e in memory.entries()]))
        memory.remove(tid)
        problems = check_network(db)
        assert any(p.kind == "alpha-missing" for p in problems)

    def test_corrupt_pnode_detected(self):
        db = build("never")
        db._rules_suspended = True
        db.execute(RULES[1])
        db.execute("append t(a = 5, k = 1)")
        db.execute("append u(b = 5, k = 1)")
        db.network.pnode("r_join").clear()
        problems = check_network(db)
        assert any(p.kind == "pnode-missing" for p in problems)

    def test_phantom_pnode_match_detected(self):
        from repro.core.pnode import Match
        db = build("never")
        db.execute(RULES[1])
        db.network.pnode("r_join").insert(Match.of({
            "t": MemoryEntry(TupleId("t", 77), (1, 1)),
            "u": MemoryEntry(TupleId("u", 88), (1, 1))}), 1)
        problems = check_network(db)
        assert any(p.kind == "pnode-extra" for p in problems)

    def test_assert_consistent_raises_with_report(self):
        db = build("never")
        db.execute(RULES[1])
        memory = db.network.memory("r_join", "t")
        memory.insert(MemoryEntry(TupleId("t", 999), (1, 2)))
        with pytest.raises(AssertionError) as excinfo:
            assert_consistent(db)
        assert "alpha-extra" in str(excinfo.value)

    def test_inconsistency_str(self):
        from repro.core.validate import Inconsistency
        text = str(Inconsistency("r", "alpha-extra", "t: t:9"))
        assert "[r] alpha-extra" in text


@settings(max_examples=20, deadline=None)
@given(st.lists(_op, min_size=1, max_size=12),
       st.sets(st.integers(0, len(RULES) - 1), min_size=1, max_size=4),
       st.sampled_from(["auto", "always", "never"]))
def test_network_consistent_after_random_workloads(ops, rule_indexes,
                                                   budget):
    """The self-check holds after arbitrary workloads under every
    storage budget — the strongest standing invariant of the whole
    system."""
    db = build(budget)
    for i in sorted(rule_indexes):
        db.execute(RULES[i])
    apply_ops(db, ops)
    assert_consistent(db)
