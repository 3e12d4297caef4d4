"""Tokens nothing can see are not built, and a statement routes one
Δ-set: neither is observable.

The transition hooks record no Δ-set entry and route no token for a
relation on which the selection index holds no α-memory: those tokens
could reach nothing.  A delete builds no token either while every memory
on its relation is the simple memory of an event- or transition-gated
rule that a delete does not assert, and no rule is dirty.  A statement
of several rows, and a rule action's append, route their tokens as one
Δ-set.  The property below compares the default engine with
:class:`RouteEveryToken` — hooks that route the tokens of every write,
row by row, their ``*_many`` methods looping over the per-row ones —
while rules come and go, so relations flip between watched, blind to
retractions and unwatched, over writes from statements and from rule
actions, multi-row deletes and replaces, ``do … end`` blocks, explicit
transactions, a failing action, a persist round trip and durable
recovery.
"""

import tempfile
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro import Database, persist
from repro.core.validate import check_network
from repro.errors import ArielError
from repro.executor.executor import MutationHooks
from repro.txn.transitions import TransitionHooks

from tests.test_network_equivalence import pnode_snapshot


class PerRowHooks(TransitionHooks):
    """Transition hooks whose set-oriented methods are the per-row loops
    of the interface."""

    insert_many = MutationHooks.insert_many
    delete_many = MutationHooks.delete_many
    replace_many = MutationHooks.replace_many


class RouteEveryToken(Database):
    """The reference: hooks that route the tokens of every relation,
    row by row."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.hooks.__class__ = PerRowHooks
        self.hooks.network = None


SCHEMA = """
    create t (a = int4, k = int4)
    create u (b = int4, k = int4)
    create log (tag = text, v = int4)
    create aux (x = int4)
"""

#: rules chained through each other's writes, so a rule action writes
#: relations that may or may not be watched at the time
RULES = {
    "r_sel": 'if t.a > 5 then append to log(tag = "sel", v = t.a)',
    "r_join": "if t.a = u.b then append to aux(x = t.a)",
    "r_log": "on append log if log.v > 7 then append to u(b = log.v, k = 0)",
    "r_aux": "if aux.x > 3 then delete aux",
    "r_gone": 'on delete u then append to log(tag = "gone", v = u.b)',
    "r_rise": "if u.b > previous u.b then append to aux(x = u.b)",
    # a failing action: integer division by zero
    "r_bad": "if t.a = 13 then append to aux(x = t.k / (t.a - t.a))",
}

COLUMN = {"t": "a", "u": "b", "log": "v", "aux": "x"}

_value = st.integers(0, 14)
_relation = st.sampled_from(sorted(COLUMN))
_op = st.one_of(
    # one step of the named rule's lifecycle: define it if absent, else
    # deactivate / activate it, or remove it when the flag is set
    st.tuples(st.just("rule"), st.sampled_from(sorted(RULES)),
              st.booleans()),
    st.tuples(st.just("append"), _relation, _value),
    st.tuples(st.just("delete"), _relation, _value),
    st.tuples(st.just("replace"), _relation, _value, _value),
    st.tuples(st.just("block"), _value, _value),
    # several rows at once: a whole relation, or a range of it
    st.tuples(st.just("wipe"), _relation),
    st.tuples(st.just("bump"), _relation, _value),
    # a statement's rows land and leave inside one transition
    st.tuples(st.just("churn"), _relation, _value, _value),
    st.tuples(st.sampled_from(["begin", "commit", "abort", "persist",
                               "recover"])),
)


def _append(relation: str, value: int, k: int) -> str:
    if relation == "log":
        return f'append log(tag = "s", v = {value})'
    if relation == "aux":
        return f"append aux(x = {value})"
    return f"append {relation}({COLUMN[relation]} = {value}, k = {k})"


def statement(op, k: int, db) -> str | None:
    """The text an op sends to both engines (None: not a statement)."""
    kind = op[0]
    if kind == "rule":
        _, name, remove = op
        if not db.catalog.has_rule(name):
            return f"define rule {name} {RULES[name]}"
        if remove:
            return f"remove rule {name}"
        verb = "deactivate" if db.manager.rule(name).active else "activate"
        return f"{verb} rule {name}"
    if kind == "append":
        return _append(op[1], op[2], k)
    if kind == "delete":
        _, rel, value = op
        return f"delete {rel} where {rel}.{COLUMN[rel]} = {value}"
    if kind == "replace":
        _, rel, value, new = op
        col = COLUMN[rel]
        return f"replace {rel} ({col} = {new}) where {rel}.{col} = {value}"
    if kind == "block":
        _, a, b = op
        return (f"do {_append('t', a, k)} {_append('log', b, k)} "
                f"replace u (b = {a}) where u.b = {b} "
                f"delete aux where aux.x = {a} end")
    if kind == "wipe":
        return f"delete {op[1]}"
    if kind == "bump":
        _, rel, value = op
        col = COLUMN[rel]
        return (f"replace {rel} ({col} = {rel}.{col} + 1) "
                f"where {rel}.{col} < {value}")
    if kind == "churn":
        _, rel, a, b = op
        col = COLUMN[rel]
        return (f"do {_append(rel, a, k)} {_append(rel, b, k)} "
                f"delete {rel} where {rel}.{col} = {a} "
                f"replace {rel} ({col} = {a}) where {rel}.{col} = {b} end")
    return None


def observe(db) -> dict:
    """What must not depend on which relations get tokens."""
    alpha = {}
    for (rule, var), memory in db.network._memories.items():
        if not memory.is_virtual:
            alpha[(rule, var)] = sorted(e.values for e in memory.entries())
    return {
        "relations": {name: sorted(db.relation_rows(name))
                      for name in COLUMN},
        "pnodes": pnode_snapshot(db),
        "alpha": alpha,
        "firings": [(f.rule_name, f.match_count) for f in db.firing_log],
        "active": sorted(db.network.rules),
    }


def outcome(call):
    try:
        call()
    except ArielError as exc:
        return type(exc).__name__, str(exc)
    return None


class Pair:
    """The default engine and the reference, driven in lockstep."""

    def __init__(self, root: str):
        self.paths = (f"{root}/elide", f"{root}/every")
        self.dbs = [cls(durable_path=path, fsync="never")
                    for cls, path in zip((Database, RouteEveryToken),
                                         self.paths)]
        for db in self.dbs:
            db.execute_script(SCHEMA)

    def step(self, op, k: int) -> None:
        text = statement(op, k, self.dbs[0])
        kind = op[0]
        if text is not None:
            results = [outcome(lambda db=db: db.execute(text))
                       for db in self.dbs]
        elif kind in ("begin", "commit", "abort"):
            results = [outcome(getattr(db, kind)) for db in self.dbs]
        elif self.dbs[0]._in_transaction:
            return
        elif kind == "persist":
            self.check_round_trip()
            return
        else:
            for db in self.dbs:
                db.close()
            self.dbs = [cls.recover(path, fsync="never")
                        for cls, path in zip((Database, RouteEveryToken),
                                             self.paths)]
            results = [None, None]
        assert results[0] == results[1]

    def check_round_trip(self) -> None:
        script = persist.dumps(self.dbs[0])
        assert persist.dumps(self.dbs[1]) == script
        elided = persist.loads(script)
        with mock.patch.object(persist, "Database", RouteEveryToken):
            every = persist.loads(script)
        assert type(every) is RouteEveryToken
        for db in (elided, every):
            assert check_network(db) == []
            db.execute("append t(a = 9, k = 99)")
        assert observe(elided) == observe(every)

    def check(self) -> None:
        elided, every = self.dbs
        assert check_network(elided) == []
        assert check_network(every) == []
        assert observe(elided) == observe(every)
        assert elided.hooks.tokens_generated \
            <= every.hooks.tokens_generated


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(sorted(RULES)), unique=True),
       st.lists(_op, min_size=6, max_size=30))
# watched → unwatched → watched: t's only rule goes and comes back,
# around writes from a statement and from r_log's action
@example([], [("rule", "r_sel", False), ("rule", "r_log", False),
          ("append", "t", 9), ("rule", "r_sel", False),
          ("append", "t", 8), ("append", "log", 9),
          ("rule", "r_join", False), ("rule", "r_sel", False),
          ("append", "t", 9), ("recover",), ("append", "t", 9)])
# a failing action, then an abort that restores a deleted tuple of a
# watched relation and deletes appended ones of an unwatched one
@example(["r_bad", "r_join"], [("append", "t", 9), ("begin",),
          ("delete", "t", 9), ("append", "aux", 4), ("append", "t", 13),
          ("append", "u", 13), ("abort",), ("rule", "r_bad", True),
          ("append", "t", 13), ("persist",)])
# a log row appended and deleted in one transition: the on-append rule
# accepted the +, so its − must reach the P-node (a dirty rule)
@example(["r_log"], [("append", "log", 9), ("churn", "log", 9, 12),
                     ("churn", "log", 12, 3),
                     ("wipe", "log"), ("append", "log", 2),
                     ("begin",), ("wipe", "log"), ("abort",)])
# u watched only by an on-delete rule: every delete asserts the event
@example(["r_gone", "r_rise"], [("append", "u", 3), ("append", "u", 3),
                                ("bump", "u", 5), ("wipe", "u"),
                                ("rule", "r_gone", True),
                                ("append", "u", 4), ("delete", "u", 4)])
def test_elision_is_unobservable(rules, ops):
    with tempfile.TemporaryDirectory() as root:
        pair = Pair(root)
        try:
            ops = [("rule", name, False) for name in rules] + ops
            for k, op in enumerate(ops):
                pair.step(op, k)
                pair.check()
        finally:
            for db in pair.dbs:
                if not db.closed:
                    db.close()


# ----------------------------------------------------------------------
# the counts
# ----------------------------------------------------------------------

def _watched_and_unwatched():
    db = Database()
    db.execute_script(SCHEMA)
    db.execute(f"define rule r_sel {RULES['r_sel']}")
    return db


def _tokens(db) -> tuple[int, int, int]:
    return (db.hooks.tokens_generated, db.stats.get("tokens.generated"),
            db.network.tokens_processed)


def test_unwatched_relation_generates_no_tokens():
    """CI smoke: every kind of write to a relation no rule names makes
    no token, while a watched relation's writes are counted as ever."""
    db = _watched_and_unwatched()
    before = _tokens(db)
    db.execute_script("""
        append log(tag = "a", v = 1)
        replace log (v = 2) where log.v = 1
        do append log(tag = "b", v = 3) delete log where log.v = 2 end
        delete log
    """)
    db.bulk_append("log", [("c", i) for i in range(50)])
    db.begin()
    db.execute("append aux(x = 1)")
    db.abort()
    assert _tokens(db) == before
    db.execute("append t(a = 1, k = 1)")                  # +
    db.execute("replace t (a = 2) where t.a = 1")          # −, Δ+
    db.execute("delete t where t.a = 2")                   # −
    db.bulk_append("t", [(i, i) for i in range(4)])        # 4 × +
    assert _tokens(db) == tuple(n + 8 for n in before)


def test_a_rule_definition_makes_a_relation_watched_again():
    db = _watched_and_unwatched()
    db.execute('append log(tag = "a", v = 9)')
    assert db.hooks.tokens_generated == 0
    db.execute(f"define rule r_log {RULES['r_log']}")
    db.execute('append log(tag = "b", v = 9)')
    assert db.hooks.tokens_generated == 1
    assert sorted(db.relation_rows("u")) == [(9, 0)]
    db.execute("remove rule r_log")
    db.execute('append log(tag = "c", v = 9)')
    assert db.hooks.tokens_generated == 1


def test_a_token_routed_subscriber_sees_every_token():
    db = _watched_and_unwatched()
    seen = []
    token = db.on_event(lambda event, payload: seen.append(
        payload["relation"]), "token_routed")
    db.execute('append log(tag = "a", v = 1)')
    db.execute("append t(a = 1, k = 1)")
    assert seen == ["log", "t"]
    db.off_event(token)
    db.execute('append log(tag = "b", v = 2)')
    assert seen == ["log", "t"]
    assert db.hooks.tokens_generated == 2
    assert check_network(db) == []


def test_an_append_over_a_join_routes_one_delta_set():
    """An append over a join or a predicate, and ``retrieve into``,
    insert their rows as one Δ-set: one routing call carrying every
    row's token, and the same relations, P-nodes and firings as the
    route-every-token engine."""
    dbs = [Database(), RouteEveryToken()]
    calls = []
    for db in dbs:
        db.execute_script(SCHEMA)
        db.execute(f"define rule r_log {RULES['r_log']}")
        db.execute(f"define rule r_join {RULES['r_join']}")
        db.bulk_append("t", [(a, a) for a in range(12)])
        db.bulk_append("u", [(b, 0) for b in range(0, 12, 2)])
    route = dbs[0].hooks.route_tokens
    dbs[0].hooks.route_tokens = lambda tokens: (
        calls.append([t.relation for t in tokens]), route(tokens))
    # rows 0, 2, …, 10 of the join, then 9, 10, 11 of the predicate:
    # each statement's rows are one routed Δ-set (r_log's firings that
    # append to u follow it)
    for text, rows in (('append log(tag = "j", v = t.a) where t.a = u.b',
                        6),
                       ('append log(tag = "p", v = t.k) where t.a > 8',
                        3)):
        del calls[:]
        for db in dbs:
            db.execute(text)
        assert calls[0] == ["log"] * rows
        assert all(relation == "u" for call in calls[1:]
                   for relation in call)
    for db in dbs:
        db.execute("retrieve into big (w = log.v) where log.v > 8")
        db.execute("define rule r_big if big.w > 9 "
                   "then append to aux(x = big.w)")
    assert sorted(dbs[0].relation_rows("big")) == [
        (9,), (10,), (10,), (11,)]
    elided, every = dbs
    assert check_network(elided) == [] and check_network(every) == []
    assert observe(elided) == observe(every)
    assert sorted(elided.relation_rows("aux")) == sorted(
        every.relation_rows("aux"))
