"""Property: the compiled token routers route as routing everything does.

The default engine routes a token through the router its relation's
memories compiled for the token's kind (``core/routing.py``), and
builds no token of a kind no memory acts on.  The reference builds the
token of every write and hands it to *every* memory registered on its
relation at that moment, through the Figure-5 table
(:func:`~repro.core.alpha.verdict`), the memory's full selection
predicate and the memory's handler — it never consults a compiled
router, so a router left stale by a rule's removal or a storage swap
shows as a difference, or as a ``router`` inconsistency in
``check_network`` where it would only build tokens nothing reads.

Random rule bases cover the four token kinds and every gating (pattern,
``on append``, ``on delete``, ``on replace(...)``, transition), with
simple, stored and virtual (§8 budget) memories, self-joins and
unanchored memories, under TREAT and Rete; rules are defined,
deactivated, activated and removed, and ``optimize_memories`` swaps
memories, between statements.  After every step both engines must pass
``check_network`` and agree on relations, P-nodes, α-memories, firings
and every counter but the token counts.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import Database
from repro.core.alpha import verdict
from repro.core.memory_optimizer import optimize_memories
from repro.core.rete import ReteNetwork
from repro.core.tokens import TokenKind
from repro.core.treat import TreatNetwork
from repro.core.validate import check_network
from repro.errors import ArielError

from tests.test_network_equivalence import pnode_snapshot

SCHEMA = """
    create t (a = int4, k = int4)
    create u (b = int4, k = int4)
    create log (tag = text, v = int4)
"""

RULES = {
    "sel": 'if t.a > 5 then append to log(tag = "sel", v = t.a)',
    "resid": 'if t.a != 3 then append to log(tag = "resid", v = t.a)',
    "join": 'if t.a = u.b then append to log(tag = "join", v = t.k)',
    "both": ('if t.a > 2 and u.b < 8 and t.a = u.b '
             'then append to log(tag = "both", v = u.k)'),
    "self": ('if x.a = y.k from x in t, y in t '
             'then append to log(tag = "self", v = y.a)'),
    "e_app": 'on append t if t.a >= 4 then append to log(tag = "ea", v = 0)',
    "e_app_j": ('on append u if t.a = u.b '
                'then append to log(tag = "eaj", v = t.a)'),
    "e_del": 'on delete t then append to log(tag = "ed", v = t.a)',
    "e_del_j": ('on delete u if u.b = t.a '
                'then append to log(tag = "edj", v = u.b)'),
    "e_rep": 'on replace u(b) if u.b > 3 then append to log(tag = "er", v = 1)',
    "e_rep_j": ('on replace t(a) if t.a = u.b '
                'then append to log(tag = "erj", v = t.a)'),
    "tr": 'if t.a > previous t.a then append to log(tag = "tr", v = t.a)',
    "tr_j": ('if u.b > previous u.b and u.b = t.k '
             'then append to log(tag = "trj", v = u.b)'),
    # fires on the others' writes; its own write joins nothing (u.b > 20)
    "casc": ('on append log if log.v > 8 '
             'then append to u(b = log.v + 20, k = 0)'),
}
COLUMN = {"t": "a", "u": "b"}
#: what building fewer tokens moves: the token counts, and the
#: selections of a recognize-act cycle a statement that made no token
#: skips
IGNORED_COUNTERS = ("tokens.generated", "tokens.routed", "tokens.batches",
                    "selection.probes", "agenda.selections")


class _EveryMemory:
    """The reference's router for one (relation, kind): every memory
    registered on the relation now, in (rule, variable) order, that the
    table says acts on the kind — an insertion only where the token's
    values pass the memory's full selection predicate."""

    clean = virtual = True

    def __init__(self, network, relation, kind):
        self.network, self.relation, self.kind = network, relation, kind

    def route(self, token):
        network = self.network
        hits = []
        for memory in sorted(network._memories.values(),
                             key=lambda m: m.order_key):
            spec = memory.spec
            if spec.relation != self.relation:
                continue
            action = verdict(spec, self.kind)
            if action is None:
                continue
            if action != "delete" and not spec.selection_matches(
                    token.values, token.old_values):
                continue
            hits.append((memory.order_key, memory.handlers[self.kind][0]))
        if len(hits) > 1:
            network._route_pending(hits, token)
        elif hits:
            hits[0][1](token)


class _RouteEverything:
    """Installs :class:`_EveryMemory` routers for every relation once;
    they read the registration live, so no rebuild is ever needed."""

    def _compile_routes(self, relation):
        self._routers[relation] = {
            kind._value_: _EveryMemory(self, relation, kind)
            for kind in TokenKind}

    def stale_routes(self):
        return []


class _TreatReference(_RouteEverything, TreatNetwork):
    pass


class _ReteReference(_RouteEverything, ReteNetwork):
    pass


def build(network: str, reference: bool) -> Database:
    db = Database(network=network, max_firings=100)
    if reference:
        db.network.__class__ = (_ReteReference if network == "rete"
                                else _TreatReference)
        db.hooks.network = None        # build the token of every write
    db.execute_script(SCHEMA)
    return db


_value = st.integers(0, 10)
_rel = st.sampled_from(sorted(COLUMN))
_op = st.one_of(
    st.tuples(st.just("rule"), st.sampled_from(sorted(RULES)),
              st.sampled_from(["step", "remove"])),
    st.tuples(st.just("append"), _rel, _value, _value),
    st.tuples(st.just("bulk"), _rel, _value, _value),
    st.tuples(st.just("delete"), _rel, _value),
    st.tuples(st.just("replace"), _rel, _value, _value),
    st.tuples(st.just("block"), _value, _value),
    st.tuples(st.just("optimize"), st.sampled_from([math.inf, 0, 6])),
)


def statement(op, db) -> str | None:
    kind = op[0]
    if kind == "rule":
        _, name, how = op
        if not db.catalog.has_rule(name):
            return f"define rule {name} {RULES[name]}"
        if how == "remove":
            return f"remove rule {name}"
        verb = "deactivate" if db.manager.rule(name).active else "activate"
        return f"{verb} rule {name}"
    if kind == "append":
        _, rel, value, k = op
        return f"append {rel}({COLUMN[rel]} = {value}, k = {k})"
    if kind == "delete":
        _, rel, value = op
        return f"delete {rel} where {rel}.{COLUMN[rel]} = {value}"
    if kind == "replace":
        _, rel, value, new = op
        col = COLUMN[rel]
        return f"replace {rel} ({col} = {new}) where {rel}.{col} >= {value}"
    if kind == "block":
        _, a, b = op
        return (f"do append t(a = {a}, k = {b}) append u(b = {b}, k = {a}) "
                f"replace t (a = {b}) where t.a = {a} "
                f"delete u where u.b = {a} end")
    return None


def run(op, db):
    """The engine error an op raised (class and message), or None."""
    try:
        text = statement(op, db)
        if text is not None:
            db.execute(text)
        elif op[0] == "bulk":
            _, rel, value, k = op
            db.bulk_append(rel, [(value, k), (value + 1, k), (k, value)])
        else:
            optimize_memories(db, op[1])
    except ArielError as exc:
        return type(exc).__name__, str(exc)
    return None


def observe(db) -> dict:
    alpha = {}
    for (rule, var), memory in db.network._memories.items():
        alpha[(rule, var)] = (memory.is_virtual, sorted(
            e.values for e in ([] if memory.is_virtual
                               else memory.entries())))
    counters = {key: n for key, n in db.stats.counters.items()
                if key not in IGNORED_COUNTERS}
    return {
        "relations": {name: sorted(db.relation_rows(name))
                      for name in ("t", "u", "log")},
        "pnodes": pnode_snapshot(db),
        "alpha": alpha,
        "firings": [(f.rule_name, f.match_count) for f in db.firing_log],
        "active": sorted(db.network.rules),
        "counters": counters,
    }


@pytest.mark.parametrize("network", ["a-treat", "rete"])
@settings(max_examples=60, deadline=None)
@given(rules=st.lists(st.sampled_from(sorted(RULES)), unique=True,
                      max_size=6),
       ops=st.lists(_op, min_size=4, max_size=24))
# an unanchored memory's rule leaves, then its relation is written
@example(rules=["join", "resid"], ops=[
    ("append", "u", 4, 1), ("rule", "join", "remove"),
    ("append", "t", 4, 2), ("append", "u", 4, 3)])
# a stored memory turns virtual and back between writes
@example(rules=["both", "self"], ops=[
    ("append", "t", 4, 4), ("optimize", 0), ("append", "u", 4, 1),
    ("append", "t", 5, 4), ("optimize", math.inf), ("append", "u", 5, 0),
    ("delete", "t", 4)])
def test_compiled_routing_equals_routing_everything(network, rules, ops):
    dbs = [build(network, reference) for reference in (False, True)]
    ops = [("rule", name, "step") for name in rules] + ops
    for op in ops:
        results = [run(op, db) for db in dbs]
        assert results[0] == results[1], op
        for db in dbs:
            assert check_network(db) == [], op
        assert observe(dbs[0]) == observe(dbs[1]), op
