"""Property: an aborted transaction is observationally a no-op.

For random update sequences split into a prefix and a transactional
suffix, ``prefix; begin; suffix; abort`` must leave the database — data
AND rule-network behavior — indistinguishable from running the prefix
alone.  Behavioral equality is checked by applying a common probe
workload to both databases afterwards and comparing everything again
(DESIGN.md invariant 6, extended to the rule system)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import Database
from repro.errors import ExecutionError

from tests.test_network_equivalence import (
    RULES, apply_ops, _op, pnode_snapshot)


def build(rules):
    db = Database()
    db.execute("create t (a = int4, k = int4)")
    db.execute("create u (b = int4, k = int4)")
    db.execute("create v (c = int4, k = int4)")
    db.execute("create log (tag = text)")
    for rule in rules:
        db.execute(rule)
    return db


def state_of(db):
    return {
        "t": sorted(db.relation_rows("t")),
        "u": sorted(db.relation_rows("u")),
        "v": sorted(db.relation_rows("v")),
        "log": sorted(db.relation_rows("log")),
    }


@settings(max_examples=25, deadline=None)
@given(st.lists(_op, min_size=0, max_size=8),
       st.lists(_op, min_size=1, max_size=8),
       st.lists(_op, min_size=1, max_size=5),
       st.sets(st.integers(0, len(RULES) - 1), min_size=1, max_size=3))
# Regression: deleting (in the transaction) a tuple whose match a firing
# consumed *before* the transaction, then aborting, must not resurrect
# the consumed match — the probe's transient a=6 would fire it again.
@example(prefix=[("insert", "t", 0), ("insert", "t", 0),
                 ("insert", "t", 0), ("insert", "t", 6)],
         suffix=[("delete", "t", 28)],
         probe=[("block", 6, 0)],
         rule_indexes={0})
def test_abort_is_a_noop(prefix, suffix, probe, rule_indexes):
    rules = [RULES[i] for i in sorted(rule_indexes)]
    aborted = build(rules)
    apply_ops(aborted, prefix)
    aborted.begin()
    apply_ops(aborted, suffix)
    aborted.abort()

    reference = build(rules)
    apply_ops(reference, prefix)

    assert state_of(aborted) == state_of(reference)

    # Behavioral equality: the networks must react identically from here.
    apply_ops(aborted, probe)
    apply_ops(reference, probe)
    assert state_of(aborted) == state_of(reference)


@settings(max_examples=15, deadline=None)
@given(st.lists(_op, min_size=1, max_size=6),
       st.sets(st.integers(0, len(RULES) - 1), min_size=1, max_size=3))
def test_commit_then_more_work(ops, rule_indexes):
    """Counterpart sanity: committed work equals autocommitted work."""
    rules = [RULES[i] for i in sorted(rule_indexes)]
    committed = build(rules)
    committed.begin()
    apply_ops(committed, ops)
    committed.commit()

    plain = build(rules)
    apply_ops(plain, ops)

    assert state_of(committed) == state_of(plain)


def test_abort_after_failing_rule_action_restores_state():
    """A rule action that fails mid-transaction leaves its firing
    rolled back and the transaction open; abort must still restore the
    pre-transaction state — heap, P-nodes and α-memories — exactly."""
    rule = ("define rule bad on append t if t.a = 5 "
            "then append to u(b = t.k / (t.a - t.a), k = 99)")
    db = build([])
    db.execute(rule)
    db.execute("append u(b = 1, k = 1)")
    db.execute("append t(a = 1, k = 1)")
    db.begin()
    with pytest.raises(ExecutionError):
        db.execute("append t(a = 5, k = 2)")
    db.abort()

    reference = build([])
    reference.execute(rule)
    reference.execute("append u(b = 1, k = 1)")
    reference.execute("append t(a = 1, k = 1)")

    assert state_of(db) == state_of(reference)
    assert pnode_snapshot(db) == pnode_snapshot(reference)
    assert _alpha_values(db) == _alpha_values(reference)
    # behavior afterwards is identical too
    db.execute("append t(a = 2, k = 3)")
    reference.execute("append t(a = 2, k = 3)")
    assert state_of(db) == state_of(reference)


def _alpha_values(db):
    """Stored α-memory contents as sorted value lists (TID-free)."""
    out = {}
    for (rule, var), memory in db.network._memories.items():
        if memory.is_virtual:
            continue
        out[(rule, var)] = sorted(
            entry.values for entry in memory.entries())
    return out
