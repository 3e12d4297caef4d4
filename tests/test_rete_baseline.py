"""Rete is the paper's §7 baseline: stored α- and β-memories on one
pairwise chain.

* A fixed insert/delete/replace stream over the cyclic rules of
  ``test_cyclic_join_property.CYCLIC_RULES`` leaves the relation
  contents, firing log and P-node counts pinned below.  They were
  recorded from an engine whose Rete ran two of the three rules with a
  join step that kept no β state; the β chain must reproduce them
  exactly.
* ``\\plan`` describes the β chain Rete runs, not TREAT's seek plans.
* ``check_network`` recomputes every level of a rule's β chain.
"""

import random
from collections import Counter

from repro import Database
from repro.core.introspect import describe_join_plan
from repro.core.validate import check_network

from tests.test_cyclic_join_property import CYCLIC_RULES

#: the triangle, the cyclic self-join and the 4-variable cycle
PINNED_RULES = [CYCLIC_RULES[i] for i in (0, 1, 2)]
_COLUMN = {"t": "a", "u": "b", "v": "c"}


def _stream(n=120):
    rng = random.Random(1992)
    keys = {"t": 0, "u": 0, "v": 0}
    out = []
    for _ in range(n):
        rel = rng.choice("tuv")
        kind = rng.choices(("append", "delete", "replace"), (6, 2, 2))[0]
        col = _COLUMN[rel]
        if kind == "append":
            keys[rel] += 1
            out.append(f"append {rel}({col} = {rng.randrange(4)}, "
                       f"k = {keys[rel] % 5})")
        elif kind == "delete":
            out.append(f"delete {rel} where {rel}.k = {rng.randrange(5)} "
                       f"and {rel}.{col} = {rng.randrange(4)}")
        else:
            out.append(f"replace {rel} ({col} = {rng.randrange(4)}) "
                       f"where {rel}.k = {rng.randrange(5)}")
    return out


PNODES = {"m_four": 644, "m_self": 164, "m_tri": 109}
FIRINGS = [
    ("m_tri", 15), ("m_self", 72), ("m_four", 55), ("m_tri", 4),
    ("m_four", 16), ("m_tri", 2), ("m_four", 7), ("m_tri", 1),
    ("m_self", 9), ("m_four", 5), ("m_self", 88), ("m_four", 20),
    ("m_tri", 3), ("m_four", 9), ("m_tri", 4), ("m_four", 24),
    ("m_tri", 2), ("m_self", 27), ("m_four", 28), ("m_self", 15),
    ("m_four", 3), ("m_tri", 1), ("m_four", 3), ("m_tri", 1),
    ("m_four", 3), ("m_tri", 2), ("m_self", 17), ("m_four", 10),
    ("m_tri", 6), ("m_four", 24), ("m_tri", 1), ("m_four", 4),
    ("m_tri", 4), ("m_four", 28), ("m_tri", 4), ("m_self", 9),
    ("m_four", 24), ("m_tri", 2), ("m_self", 88), ("m_four", 16),
    ("m_tri", 1), ("m_four", 3)]
LOG = {"four": 18, "self": 8, "tri": 16}
ROWS = {
    "t": [(0, 3), (0, 3), (0, 3), (0, 4), (0, 4), (0, 4), (1, 1), (1, 2),
          (1, 2), (1, 3), (2, 0), (2, 1), (2, 1), (2, 4), (2, 4), (3, 0),
          (3, 0), (3, 0), (3, 0), (3, 4)],
    "u": [(0, 0), (0, 0), (0, 0), (0, 0), (0, 1), (0, 1), (0, 3), (0, 3),
          (0, 4), (1, 2), (1, 3), (2, 1), (2, 2), (2, 2), (2, 2), (2, 3),
          (2, 4), (2, 4), (2, 4), (3, 2), (3, 3)],
    "v": [(0, 3), (0, 3), (0, 4), (0, 4), (0, 4), (1, 0), (1, 0), (1, 2),
          (1, 3), (1, 4), (2, 0), (2, 1), (2, 2), (2, 2), (2, 2), (2, 2),
          (2, 3), (2, 3), (3, 0), (3, 1), (3, 1), (3, 1), (3, 1), (3, 4)],
}
PNODE_INSERTS = 1593


def test_rete_fixed_stream_is_pinned():
    """Half the stream loads data, the rules are defined (primed over
    it), a quarter more fires them, and the last quarter accumulates in
    the P-nodes with firing suspended."""
    db = Database(network="rete")
    db.execute_script("""
        create t (a = int4, k = int4)
        create u (b = int4, k = int4)
        create v (c = int4, k = int4)
        create log (tag = text)
    """)
    statements = _stream()
    for text in statements[:60]:
        db.execute(text)
    for rule in PINNED_RULES:
        db.execute(rule)
    for text in statements[60:90]:
        db.execute(text)
    db._rules_suspended = True
    for text in statements[90:]:
        db.execute(text)
    assert {name: len(db.network.pnode(name))
            for name in db.network.rules} == PNODES
    assert [(r.rule_name, r.match_count) for r in db.firing_log] \
        == FIRINGS
    assert Counter(tag for (tag,) in db.relation_rows("log")) == LOG
    assert {rel: sorted(db.relation_rows(rel)) for rel in "tuv"} == ROWS
    assert db.stats.get("pnode.inserts") == PNODE_INSERTS
    db._rules_suspended = False     # consumed matches are not missing
    assert check_network(db) == []


def _triangle(**kwargs):
    db = Database(**kwargs)
    db.execute_script("""
        create r (a = int4, b = int4)
        create s (b = int4, c = int4)
        create t (c = int4, a = int4)
        create log (tag = text)
    """)
    for i in range(4):
        db.execute(f"append r(a = {i}, b = {i % 2})")
        db.execute(f"append s(b = {i % 2}, c = {i})")
        db.execute(f"append t(c = {i}, a = {i})")
    db._rules_suspended = True
    db.execute("define rule tri "
               "if r.b = s.b and s.c = t.c and t.a = r.a "
               "from r in r, s in s, t in t "
               'then append to log(tag = "tri")')
    return db


def test_plan_shows_the_beta_chain_rete_runs():
    """Under Rete ``\\plan`` lists the α-memories and the β chain only:
    no TREAT seek plan, which Rete never runs."""
    db = _triangle(network="rete")
    text = describe_join_plan(db.manager, "tri")
    assert "seek from" not in text
    chain = db.network.beta_chain("tri")
    assert sorted(chain) == ["r", "s", "t"]
    assert text.splitlines()[1:] == [
        "  r in r: stored, 4 entries, join-index(es) [a, b]",
        "  s in s: stored, 4 entries, join-index(es) [b, c]",
        "  t in t: stored, 4 entries, join-index(es) [c, a]",
        "  beta chain: " + " -> ".join(chain)]
    treat = describe_join_plan(_triangle(network="a-treat").manager, "tri")
    assert "seek from r" in treat and "beta chain" not in treat


def _kinds(db):
    return Counter(p.kind for p in check_network(db))


def test_check_network_checks_every_beta_level():
    db = _triangle(network="rete")
    db.execute("append r(a = 1, b = 1)")
    db.execute("delete s where s.c = 2")
    assert check_network(db) == []
    state = db.network._states["tri"]
    lost = state.betas[1].popitem()
    assert _kinds(db) == {"beta-missing": 1}
    state.betas[1].update([lost])
    db.network._handle_delete = lambda rule, tid: None  # β left behind
    db.execute("delete r where r.a = 1")
    kinds = _kinds(db)
    assert set(kinds) == {"beta-extra"} and kinds["beta-extra"] >= 2


def test_a_self_join_purges_once_per_retraction():
    """Both memories of ``x in t, y in t`` see a deleted ``t`` tuple,
    but the P-node and the β chain are purged once per (rule, token)."""
    db = Database(network="rete")
    db.execute_script("""
        create t (a = int4, k = int4)
        create log (v = int4)
    """)
    db.execute("define rule self if x.a = y.k from x in t, y in t "
               "then append to log(v = y.a)")
    db.bulk_append("t", [(1, 1), (1, 2), (2, 1)])
    purges = []
    purge = db.network._handle_delete
    db.network._handle_delete = lambda rule, tid: (
        purges.append((rule.name, tid)), purge(rule, tid))
    db.execute("delete t where t.k = 1")
    assert len(purges) == 2 == len(set(purges))
    assert check_network(db) == []
