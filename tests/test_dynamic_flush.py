"""The end-of-transition flush costs the rules a transition touched.

``DiscriminationNetwork.flush_dynamic`` drains a registry of the rules
with a dynamic (event-/transition-/new-gated) variable that accepted a
token since the last flush, instead of walking the rule base.  Checked
here:

* the property — random statement streams leave exactly the state a
  reference database leaves whose network flushes with the old full
  walk (the oracle lives in this file only);
* the cost — ``network.dynamic_rules_flushed`` counts the rules that
  received an entry and does not depend on the size of the rule base;
* the registry's edges — failures, rule removal, abort, reload, recovery;
* ``check_network`` sees a missed flush;
* ``Database.firing_log`` is a bounded recent history.
"""


import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, persist
from repro.core.memory_optimizer import (
    apply_plan, optimize_memories, plan_memories)
from repro.core.pnode import PNode
from repro.core.validate import check_network
from repro.db import FIRING_LOG_KEEP
from repro.errors import ArielError, ExecutionError

from tests.test_network_equivalence import (
    alpha_snapshot, firing_sequence, pnode_snapshot)


# ----------------------------------------------------------------------
# the oracle: the full walk this change replaced
# ----------------------------------------------------------------------

def _full_walk_flush(network):
    for rule in network.rules.values():
        if not rule.has_dynamic_variable:
            continue
        for var in rule.dynamic_variables:
            network._memories[(rule.name, var)].flush()
        network._pnodes[rule.name].clear()
        network._join_memories(rule)
    network._dirty.clear()


def _use_full_walk(db):
    """Swap the network for a subclass flushing with the full walk."""
    cls = type(db.network)
    db.network.__class__ = type(
        "FullWalk" + cls.__name__, (cls,),
        {"flush_dynamic": _full_walk_flush})


# ----------------------------------------------------------------------
# (a) the property
# ----------------------------------------------------------------------

SCHEMA = """
    create t (a = int4, k = int4)
    create u (b = int4, k = int4)
    create v (c = int4, k = int4)
    create log (tag = text)
    create n (x = int4)
"""

PATTERN_RULES = [
    'define rule p_sel if t.a > 5 then append to log(tag = "sel")',
    'define rule p_join if t.a = u.b then append to log(tag = "join")',
]

#: every shape of dynamic rule: simple event / transition / new, mixed
#: (stored + gated variable, with the stored variable sorting before
#: and after the gated one), a cyclic mixed rule, a cascade, a failing
#: action and a ``halt``
DYNAMIC_RULES = {
    "e_app": 'on append t if t.a >= 0 then append to log(tag = "app")',
    "e_del": 'on delete t then append to log(tag = "del")',
    "e_rep": 'on replace u(b) if u.b > 3 then append to log(tag = "rep")',
    "tr": 'if t.a > previous t.a then append to log(tag = "tr")',
    "nw": 'if new(v) then append to log(tag = "new")',
    "mix": 'on append t if t.a = u.b then append to log(tag = "mix")',
    "mix_s": 'on append u if t.a = u.b then append to log(tag = "mix_s")',
    "mix_tr": ('if u.b > previous u.b and u.b = v.c '
               'then append to log(tag = "mix_tr")'),
    "mix3": ('on append t if t.a = u.b and u.k = v.k and v.c = t.a '
             'then append to log(tag = "mix3")'),
    "casc": 'on append u if u.b > 8 then append to v(c = u.b, k = 0)',
    "bad": ('on append v if v.c = 9 '
            'then append to n(x = v.c / (v.c - v.c))'),
    "stop": 'priority 9 on append t if t.a = 7 then halt',
}
RULE_NAMES = sorted(DYNAMIC_RULES)

NETWORKS = ("a-treat", "rete")

_rel = st.sampled_from("tuv")
_val = st.integers(0, 10)
_key = st.integers(0, 11)
_statement = st.one_of(
    st.tuples(st.just("insert"), _rel, _val),
    st.tuples(st.just("delete"), _rel, _key),
    st.tuples(st.just("modify"), _rel, _key, _val),
    st.tuples(st.just("retrieve"), _rel, _val),
    st.tuples(st.just("block"), _val, _val),
    st.tuples(st.sampled_from(("begin", "commit", "abort"))),
    st.tuples(st.sampled_from(("define", "deactivate", "activate",
                               "remove")),
              st.sampled_from(RULE_NAMES)),
    st.tuples(st.just("optimize")),
)

_COLUMN = {"t": "a", "u": "b", "v": "c"}


class _Driver:
    """Runs one generated statement on a database, returning the
    class of the engine error it raised (None = settled)."""

    def __init__(self, db):
        self.db = db
        self.keys = {"t": 0, "u": 0, "v": 0}
        self.in_txn = False

    def run(self, op):
        try:
            self._run(op)
        except ArielError as exc:
            if self.in_txn:
                # a failed statement leaves the transaction to abort()
                self.in_txn = False
                self.db.abort()
            return type(exc)
        return None

    def _run(self, op):
        db, kind = self.db, op[0]
        if kind == "insert":
            _, rel, value = op
            self.keys[rel] = (self.keys[rel] + 1) % 12
            db.execute(f"append {rel}({_COLUMN[rel]} = {value}, "
                       f"k = {self.keys[rel]})")
        elif kind == "delete":
            _, rel, k = op
            db.execute(f"delete {rel} where {rel}.k = {k}")
        elif kind == "modify":
            _, rel, k, value = op
            db.execute(f"replace {rel} ({_COLUMN[rel]} = {value}) "
                       f"where {rel}.k = {k}")
        elif kind == "retrieve":
            _, rel, value = op
            db.execute(f"retrieve ({rel}.k) "
                       f"where {rel}.{_COLUMN[rel]} = {value}")
        elif kind == "block":
            _, a, b = op
            db.execute(f"do append t(a = {a}, k = 3) "
                       f"replace t (a = {b}) where t.k = 3 "
                       f"append u(b = {b}, k = 3) "
                       f"delete t where t.a = {a} end")
        elif kind == "begin":
            if not self.in_txn:
                db.begin()
                self.in_txn = True
        elif kind in ("commit", "abort"):
            if self.in_txn:
                self.in_txn = False
                getattr(db, kind)()
        elif kind == "define":
            db.execute(f"define rule {op[1]} {DYNAMIC_RULES[op[1]]}")
        elif kind == "optimize":
            optimize_memories(db, 6)
        else:
            db.execute(f"{kind} rule {op[1]}")


def _build(network, initial, full_walk):
    db = Database(network=network)
    if full_walk:
        _use_full_walk(db)
    db.execute_script(SCHEMA)
    for text in PATTERN_RULES:
        db.execute(text)
    for name in initial:
        db.execute(f"define rule {name} {DYNAMIC_RULES[name]}")
    return db


def _state(db):
    return {
        "pnodes": pnode_snapshot(db),
        "alpha": alpha_snapshot(db),
        "beta": {name: len(list(db.network.beta_partials(name)))
                 for name in db.network.rules},
        "firings": firing_sequence(db),
        "rows": {rel: sorted(db.relation_rows(rel))
                 for rel in ("t", "u", "v", "log", "n")},
    }


@settings(max_examples=60, deadline=None)
@given(st.lists(_statement, min_size=1, max_size=24),
       st.sets(st.sampled_from(RULE_NAMES), max_size=6),
       st.sampled_from(NETWORKS))
def test_dirty_flush_equals_full_walk(ops, initial, network):
    initial = sorted(initial)
    db = _build(network, initial, full_walk=False)
    reference = _build(network, initial, full_walk=True)
    try:
        driver, oracle = _Driver(db), _Driver(reference)
        for op in ops:
            assert driver.run(op) == oracle.run(op), op
            assert _state(db) == _state(reference), op
            assert db.network._dirty == {}, op
            assert check_network(db) == [], op
    finally:
        db.close()
        reference.close()


# ----------------------------------------------------------------------
# (b) cost: proportional to the transition, not to the rule base
# ----------------------------------------------------------------------

def _interval_db(rules):
    db = Database()
    db.execute("create emp (id = int4, sal = int4)")
    db.execute("create log (id = int4)")
    for i in range(rules):
        db.execute(f"define rule r{i} on replace emp(sal) "
                   f"if emp.sal >= {10 * i} and emp.sal < {10 * i + 25} "
                   f"then append to log(id = emp.id)")
    for i in range(20):
        db.execute(f"append emp(id = {i}, sal = -1)")
    return db


def _flushed_by(db, statement):
    before = db.stats.get("network.dynamic_rules_flushed")
    db.execute(statement)
    return db.stats.get("network.dynamic_rules_flushed") - before


@pytest.mark.parametrize("rules", [50, 400])
def test_flush_count_independent_of_rule_base(rules):
    db = _interval_db(rules)
    assert _flushed_by(db, "retrieve (emp.sal) where emp.id = 3") == 0
    assert _flushed_by(db, "replace emp (sal = -7) where emp.id = 3") == 0
    assert _flushed_by(db, "replace emp (id = 3) where emp.id = 3") == 0
    for sal in (5, 47, 123, 321):
        touched = sum(1 for i in range(rules)
                      if 10 * i <= sal < 10 * i + 25)
        fired = db.firings
        assert _flushed_by(
            db, f"replace emp (sal = {sal}) where emp.id = 3") == touched
        assert db.firings - fired == touched
    # a set-oriented statement registers each rule once
    assert _flushed_by(db, "replace emp (sal = 48) where emp.id < 9") == 2
    assert check_network(db) == []


def test_counter_respects_stats_switch():
    db = _interval_db(3)
    db.stats.enabled = False
    db.execute("replace emp (sal = 5) where emp.id = 1")
    db.stats.enabled = True
    assert db.stats.get("network.dynamic_rules_flushed") == 0


def test_dynamic_attributes_are_computed_once():
    db = Database()
    db.execute_script(SCHEMA)
    db.execute(f"define rule mix {DYNAMIC_RULES['mix']}")
    db.execute(PATTERN_RULES[1])
    mix, join = db.network.rules["mix"], db.network.rules["p_join"]
    assert mix.has_dynamic_variable and mix.dynamic_variables == ["t"]
    assert not join.has_dynamic_variable and join.dynamic_variables == []
    assert "has_dynamic_variable" in vars(mix)


# ----------------------------------------------------------------------
# the registry's edges
# ----------------------------------------------------------------------

def _mixed_db(network="a-treat", **kwargs):
    db = Database(network=network, **kwargs)
    db.execute_script(SCHEMA)
    db.execute(f"define rule mix {DYNAMIC_RULES['mix']}")
    db.execute(f"define rule e_del {DYNAMIC_RULES['e_del']}")
    db.execute("append u(b = 4, k = 1)")
    return db


def _settled(db):
    return db.network._dirty == {} and check_network(db) == []


@pytest.mark.parametrize("network", ["a-treat", "rete"])
def test_failing_action_is_flushed(network):
    db = _mixed_db(network)
    db.execute("define rule bad on append t "
               "then append to n(x = t.a / (t.a - t.a))")
    with pytest.raises(ExecutionError):
        db.execute("append t(a = 4, k = 1)")
    assert _settled(db)
    assert len(db.network.memory("mix", "t")) == 0


@pytest.mark.parametrize("network", ["a-treat", "rete"])
def test_failure_inside_the_join_step_is_flushed(network, monkeypatch):
    """The rule registers before its memory is touched, so an entry
    stored by a join step that then blows up is still flushed."""
    db = _mixed_db(network)
    db.execute("remove rule e_del")
    add = PNode.add

    def exploding(*args, **kwargs):
        add(*args, **kwargs)
        raise RuntimeError("join step failed")

    # the join step stores the entry, then fails as its match lands
    monkeypatch.setattr(PNode, "add", exploding)
    with pytest.raises(RuntimeError):
        db.execute("append t(a = 4, k = 1)")
    monkeypatch.undo()
    assert _settled(db)
    assert len(db.network.memory("mix", "t")) == 0
    assert len(db.network.pnode("mix")) == 0


def test_removed_rule_leaves_the_registry():
    db = _mixed_db()
    db._rules_suspended = True          # nothing fires, nothing flushes
    db.execute("append t(a = 4, k = 1)")
    assert set(db.network._dirty) == {"mix"}
    db.execute("deactivate rule mix")
    assert db.network._dirty == {}
    db._rules_suspended = False
    db.execute("activate rule mix")
    db.execute("append t(a = 4, k = 2)")
    assert db.relation_rows("log") == [("mix",)]
    assert _settled(db)


def test_stale_registry_entry_is_skipped():
    db = _mixed_db()
    stale = db.network.rules["mix"]
    db.execute("deactivate rule mix")
    db.network._dirty["mix"] = stale            # a removed rule …
    db.network.flush_dynamic()
    assert db.network._dirty == {}
    db.execute("activate rule mix")
    db.network._dirty["mix"] = stale            # … and a rebuilt one
    db.network.flush_dynamic()
    assert _settled(db)


def test_adaptation_rebuild_mid_registration():
    db = _mixed_db()
    db._rules_suspended = True
    db.execute("append t(a = 4, k = 1)")
    # a zero budget stores nothing: the rebuild flips u to virtual
    apply_plan(db, plan_memories(db, 0))
    assert db.network.memory("mix", "u").is_virtual
    db._rules_suspended = False
    db.execute("retrieve (t.a)")
    assert _settled(db)


@pytest.mark.parametrize("durable", [False, True])
def test_abort_ends_with_an_empty_registry(durable, tmp_path):
    kwargs = {"durable_path": tmp_path / "d"} if durable else {}
    db = _mixed_db(**kwargs)
    db.begin()
    db.execute("append t(a = 4, k = 1)")
    db.abort()              # the undo's − token binds e_del, unfired
    assert _settled(db)
    assert len(db.network.pnode("e_del")) == 0
    fired = db.firings
    db.execute("retrieve (t.a)")
    assert db.firings == fired
    if durable:             # the aborted append never reaches the log
        db.close()
        restored = Database.recover(tmp_path / "d")
        assert _settled(restored)
        assert restored.relation_rows("t") == []
        assert restored.relation_rows("log") == []
        restored.close()


def test_abort_over_suspended_matches_leaves_dynamic_pnodes_empty():
    """With firing suspended, an event rule's P-node still holds the
    match its transition bound when ``begin`` snapshots it; ``abort``
    flushes it and must not put that match back, since a dynamic P-node
    is empty at every transition boundary."""
    db = _mixed_db()
    db.execute("append t(a = 9, k = 2)")
    db._rules_suspended = True
    db.execute("delete t where t.a = 9")      # binds e_del
    assert len(db.network.pnode("e_del")) == 1
    db.begin()
    db.abort()
    assert _settled(db)
    assert len(db.network.pnode("e_del")) == 0


def test_reload_and_recovery_end_with_an_empty_registry(tmp_path):
    db = _mixed_db(durable_path=tmp_path / "d")
    db.execute("append t(a = 4, k = 1)")
    db.execute("delete t where t.k = 1")
    db.close()
    for restored in (persist.loads(persist.dumps(db)),
                     Database.recover(tmp_path / "d")):
        assert _settled(restored)
        assert sorted(restored.relation_rows("log")) == \
            sorted(db.relation_rows("log"))
        restored.close()


# ----------------------------------------------------------------------
# check_network sees a missed flush
# ----------------------------------------------------------------------

def _kinds(db):
    return {(p.rule_name, p.kind) for p in check_network(db)}


def test_check_network_sees_unflushed_simple_pnode():
    """A single-variable event rule is simple-α: the token goes straight
    to the P-node, so only the P-node can show a forgotten flush."""
    db = _mixed_db()
    db.execute("append t(a = 1, k = 1)")
    db.network.flush_dynamic = lambda: None
    db._rules_suspended = True          # the match stays in the P-node
    db.execute("delete t where t.k = 1")
    db._rules_suspended = False
    assert ("e_del", "dynamic-pnode-not-empty") in _kinds(db)
    del db.network.flush_dynamic
    db.network.flush_dynamic()
    assert check_network(db) == []


def test_check_network_sees_unflushed_beta_partial():
    db = _mixed_db("rete")
    db.network.flush_dynamic = lambda: None
    db.execute("append t(a = 4, k = 1)")
    assert {("mix", "dynamic-not-empty"),
            ("mix", "dynamic-beta-not-empty")} <= _kinds(db)
    del db.network.flush_dynamic
    db.network.flush_dynamic()
    assert check_network(db) == []


def test_check_network_mid_transition_skips_the_flush_checks():
    db = _mixed_db()
    db._rules_suspended = True
    db.execute("append t(a = 4, k = 1)")
    assert check_network(db, between_transitions=False) == []


# ----------------------------------------------------------------------
# firing_log retention
# ----------------------------------------------------------------------

def _firing_db():
    db = Database()
    db.execute("create t (a = int4)")
    db.execute("create log (a = int4)")
    db.execute("define rule r on append t then append to log(a = t.a)")
    return db


def test_firing_log_keeps_a_bounded_recent_history():
    db = _firing_db()
    append = db.prepare("append t(a = $a)")
    for i in range(2 * FIRING_LOG_KEEP - 1):
        append.execute(a=i)
    # one short of the trim point: nothing dropped yet
    assert len(db.firing_log) == db.firings == 2 * FIRING_LOG_KEEP - 1
    assert db.firing_log[0].sequence == 1
    append.execute(a=-1)
    assert db.firings == 2 * FIRING_LOG_KEEP
    assert len(db.firing_log) == FIRING_LOG_KEEP
    append.execute(a=-2)
    sequences = [record.sequence for record in db.firing_log]
    assert sequences == list(range(db.firings - FIRING_LOG_KEEP,
                                   db.firings + 1))
    assert db.firing_log[-1].sequence == db.firings
    assert isinstance(db.firing_log, list)


def test_firing_log_never_exceeds_twice_the_bound():
    db = _firing_db()
    append = db.prepare("append t(a = $a)")
    longest = 0
    for i in range(5 * FIRING_LOG_KEEP):
        append.execute(a=i)
        longest = max(longest, len(db.firing_log))
    assert longest == 2 * FIRING_LOG_KEEP - 1
    assert db.firings == 5 * FIRING_LOG_KEEP
    assert [r.sequence for r in db.firing_log[-3:]] == \
        [db.firings - 2, db.firings - 1, db.firings]
    db.firing_log.clear()
    assert db.firing_log == []
    append.execute(a=0)
    assert db.firing_log[-1].sequence == db.firings
