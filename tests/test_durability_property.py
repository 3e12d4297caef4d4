"""Crash-recovery property (the durability contract).

For any statement sequence, any armed crash point and any fsync policy:
``Database.recover`` must produce exactly the state of a fresh database
that executed only the durably-committed prefix of the sequence — heap
contents, stored α-memories, P-nodes, and agenda (checked behaviorally
by running a probe workload on both and comparing again).

The prefix rule per fault point:

* ``wal.append`` (plain or torn crash) and ``rule.fire`` — the command
  in flight never reached the log, so the prefix excludes it;
* ``wal.fsync`` — the record was written and flushed before the fsync
  died, so the prefix *includes* the in-flight command;
* ``txn.commit`` — the whole transaction vanishes.

Set ``WAL_FSYNC=always|commit|never`` to restrict the policy axis (the
CI crash matrix runs one policy per job); unset, every policy runs.
"""

import os
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.faults import SimulatedCrash

from tests.test_network_equivalence import RULES, pnode_snapshot

_env_policy = os.environ.get("WAL_FSYNC")
POLICIES = (_env_policy,) if _env_policy else ("always", "commit",
                                               "never")

SCHEMA = (
    "create t (a = int4, k = int4)",
    "create u (b = int4, k = int4)",
    "create v (c = int4, k = int4)",
    "create log (tag = text)",
)

PROBE = (
    "append t(a = 6, k = 101)",
    "append u(b = 6, k = 102)",
    "append v(c = 6, k = 103)",
    "replace t (a = 7) where t.k = 101",
    "delete u where u.k = 102",
)

_op = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from("tuv"),
              st.integers(0, 10)),
    st.tuples(st.just("delete"), st.sampled_from("tuv"),
              st.integers(0, 30)),
    st.tuples(st.just("modify"), st.sampled_from("tuv"),
              st.integers(0, 30), st.integers(0, 10)),
    st.tuples(st.just("block"), st.integers(0, 10), st.integers(0, 10)),
)


def ops_to_commands(ops):
    """The exact command texts ``apply_ops`` would execute — computed
    up front so both databases can run an identical prefix."""
    counters = {"t": 0, "u": 0, "v": 0}
    commands = []
    for op in ops:
        if op[0] == "insert":
            _, rel, value = op
            col = {"t": "a", "u": "b", "v": "c"}[rel]
            counters[rel] += 1
            commands.append(f"append {rel}({col} = {value}, "
                            f"k = {counters[rel]})")
        elif op[0] == "delete":
            _, rel, k = op
            commands.append(f"delete {rel} where {rel}.k = {k % 12}")
        elif op[0] == "modify":
            _, rel, k, value = op
            col = {"t": "a", "u": "b", "v": "c"}[rel]
            commands.append(f"replace {rel} ({col} = {value}) "
                            f"where {rel}.k = {k % 12}")
        else:
            _, a, b = op
            counters["t"] += 2
            commands.append(
                f"do "
                f"append t(a = {a}, k = {counters['t'] - 1}) "
                f"replace t (a = {b}) where t.k = {counters['t'] - 1} "
                f"append t(a = {b}, k = {counters['t']}) "
                f"delete t where t.k = {counters['t']} "
                f"end")
    return commands


def build(rules, durable_path=None, fsync="commit", checkpoint_every=0):
    kwargs = {}
    if durable_path is not None:
        kwargs = dict(durable_path=durable_path, fsync=fsync,
                      checkpoint_every=checkpoint_every)
    db = Database(**kwargs)
    for ddl in SCHEMA:
        db.execute(ddl)
    for rule in rules:
        db.execute(rule)
    return db


def heap_of(db):
    return {name: sorted(db.relation_rows(name))
            for name in ("t", "u", "v", "log")}


def alpha_of(db):
    """Stored α-memory contents as value multisets (TIDs are not
    stable across recovery, values are)."""
    out = {}
    for (rule, var), memory in db.network._memories.items():
        if memory.is_virtual:
            continue
        out[(rule, var)] = sorted(
            Counter(entry.values for entry in memory.entries()).items())
    return out


def assert_equivalent(recovered, reference):
    assert heap_of(recovered) == heap_of(reference)
    assert alpha_of(recovered) == alpha_of(reference)
    assert pnode_snapshot(recovered) == pnode_snapshot(reference)
    # agenda / network behavior: both must react identically from here
    for command in PROBE:
        recovered.execute(command)
        reference.execute(command)
    assert heap_of(recovered) == heap_of(reference)


def run_crash_case(point, fsync, ops, rules, crash_after, torn=None,
                   checkpoint_every=0):
    commands = ops_to_commands(ops)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state")
        db = build(rules, durable_path=path, fsync=fsync,
                   checkpoint_every=checkpoint_every)
        arm = dict(crash=True, after=crash_after)
        if torn is not None:
            arm["torn"] = torn
        db.faults.arm(point, **arm)
        completed = []
        crashed = False
        for command in commands:
            try:
                db.execute(command)
            except SimulatedCrash:
                crashed = True
                if point == "wal.fsync":
                    completed.append(command)
                break
            completed.append(command)
        if not crashed:
            db.faults.disarm()
            db.close()
        recovered = Database.recover(path)
        reference = build(rules)
        for command in completed:
            reference.execute(command)
        assert_equivalent(recovered, reference)
        if crashed:
            assert db.stats.get("faults.injected") >= 1
        recovered.close()


@pytest.mark.parametrize("fsync", POLICIES)
@pytest.mark.parametrize("point", ["wal.append", "wal.fsync",
                                   "rule.fire"])
@settings(max_examples=8, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=8),
       rule_indexes=st.sets(st.integers(0, len(RULES) - 1),
                            min_size=1, max_size=3),
       crash_after=st.integers(0, 10))
def test_crash_recovery_equals_durable_prefix(point, fsync, ops,
                                              rule_indexes, crash_after):
    rules = [RULES[i] for i in sorted(rule_indexes)]
    run_crash_case(point, fsync, ops, rules, crash_after)


@pytest.mark.parametrize("fsync", POLICIES)
@settings(max_examples=8, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=8),
       rule_indexes=st.sets(st.integers(0, len(RULES) - 1),
                            min_size=1, max_size=3),
       crash_after=st.integers(0, 6),
       torn=st.sampled_from([0.1, 0.5, 0.9]))
def test_torn_write_recovery(fsync, ops, rule_indexes, crash_after,
                             torn):
    rules = [RULES[i] for i in sorted(rule_indexes)]
    run_crash_case("wal.append", fsync, ops, rules, crash_after,
                   torn=torn)


@pytest.mark.parametrize("fsync", POLICIES)
@settings(max_examples=8, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=6),
       rule_indexes=st.sets(st.integers(0, len(RULES) - 1),
                            min_size=1, max_size=3),
       crash_after=st.integers(0, 8))
def test_crash_recovery_with_auto_checkpoints(fsync, ops, rule_indexes,
                                              crash_after):
    """Same contract with the checkpoint machinery churning mid-run."""
    rules = [RULES[i] for i in sorted(rule_indexes)]
    run_crash_case("wal.append", fsync, ops, rules, crash_after,
                   checkpoint_every=3)


@pytest.mark.parametrize("fsync", POLICIES)
@settings(max_examples=8, deadline=None)
@given(prefix=st.lists(_op, min_size=0, max_size=5),
       txn=st.lists(_op, min_size=1, max_size=5),
       rule_indexes=st.sets(st.integers(0, len(RULES) - 1),
                            min_size=1, max_size=3))
def test_commit_crash_loses_whole_transaction(fsync, prefix, txn,
                                              rule_indexes):
    rules = [RULES[i] for i in sorted(rule_indexes)]
    prefix_commands = ops_to_commands(prefix + txn)
    split = len(ops_to_commands(prefix))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state")
        db = build(rules, durable_path=path, fsync=fsync)
        for command in prefix_commands[:split]:
            db.execute(command)
        db.begin()
        for command in prefix_commands[split:]:
            db.execute(command)
        db.faults.arm("txn.commit", crash=True)
        with pytest.raises(SimulatedCrash):
            db.commit()
        recovered = Database.recover(path)
        reference = build(rules)
        for command in prefix_commands[:split]:
            reference.execute(command)
        assert_equivalent(recovered, reference)
        recovered.close()


@pytest.mark.parametrize("fsync", POLICIES)
@settings(max_examples=6, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=8),
       rule_indexes=st.sets(st.integers(0, len(RULES) - 1),
                            min_size=1, max_size=3))
def test_clean_shutdown_recovers_everything(fsync, ops, rule_indexes):
    """Degenerate crash point: no fault at all — recovery is lossless."""
    rules = [RULES[i] for i in sorted(rule_indexes)]
    run_crash_case("wal.append", fsync, ops, rules, crash_after=10_000)
