"""DESIGN.md invariant 2: the three networks are observationally equal.

For random rule sets and random update sequences, A-TREAT under a zero
and a mixed storage budget, plain TREAT (budget ∞, all stored) and Rete
must leave identical P-node contents and fire identically — the paper's
section 4.2 claim that a virtual α-memory "implicitly contains exactly
the same set of tokens as a stored α-memory node".

Rule firing is disabled here (rules write to inert log tables and we
compare the logs) — the point is condition testing equivalence, including
self-join multiplicities.
"""

from hypothesis import given, settings, strategies as st

from tests.helpers import budgeted


RULES = [
    # pattern selection only (simple-α)
    'define rule r_sel if t.a > 5 then append to log(tag = "sel")',
    # pattern join
    'define rule r_join if t.a = u.b then append to log(tag = "join")',
    # self join with equality
    ("define rule r_self if x.a = y.a from x in t, y in t "
     'then append to log(tag = "self")'),
    # join with selections on both sides
    ("define rule r_both if t.a > 2 and u.b < 8 and t.a = u.b "
     'then append to log(tag = "both")'),
    # event rule
    ('define rule r_ev on append t if t.a >= 0 '
     'then append to log(tag = "ev")'),
    # transition rule
    ("define rule r_tr if t.a > previous t.a "
     'then append to log(tag = "tr")'),
    # on delete
    ('define rule r_del on delete t then append to log(tag = "del")'),
    # three-way
    ("define rule r_three if t.a = u.b and u.b = v.c "
     'then append to log(tag = "three")'),
]


def build(network, budget, rules):
    db = budgeted(budget, network=network)
    db.execute("create t (a = int4, k = int4)")
    db.execute("create u (b = int4, k = int4)")
    db.execute("create v (c = int4, k = int4)")
    db.execute("create log (tag = text)")
    # an index on a join attribute is what a finite budget stores on
    # empty relations: under "auto" the u memories are stored, the rest
    # virtual
    db.execute("define index u_b on u (b) using hash")
    for i, rule in enumerate(rules):
        db.execute(rule)
    return db


def pnode_snapshot(db):
    """P-node contents as comparable value sets."""
    out = {}
    for name, rule in db.network.rules.items():
        matches = set()
        for match in db.network.pnode(name).matches():
            matches.add(tuple(
                (var, entry.values, entry.old_values)
                for var, entry in match.bindings))
        out[name] = frozenset(matches)
    return out


def alpha_snapshot(db):
    """Stored α-memory contents as comparable per-(rule, var) sets."""
    out = {}
    for (rule, var), memory in db.network._memories.items():
        if memory.is_virtual:
            continue
        out[(rule, var)] = frozenset(
            (entry.values, entry.old_values)
            for entry in memory.entries())
    return out


def firing_sequence(db):
    """The agenda's firing order as ``(rule, match-count)`` pairs."""
    return [(record.rule_name, record.match_count)
            for record in db.firing_log]


_op = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from("tuv"),
              st.integers(0, 10)),
    st.tuples(st.just("delete"), st.sampled_from("tuv"),
              st.integers(0, 30)),
    st.tuples(st.just("modify"), st.sampled_from("tuv"),
              st.integers(0, 30), st.integers(0, 10)),
    st.tuples(st.just("block"), st.integers(0, 10), st.integers(0, 10)),
)


def apply_ops(db, ops):
    counters = {"t": 0, "u": 0, "v": 0}
    for op in ops:
        if op[0] == "insert":
            _, rel, value = op
            col = {"t": "a", "u": "b", "v": "c"}[rel]
            counters[rel] += 1
            db.execute(f"append {rel}({col} = {value}, "
                       f"k = {counters[rel]})")
        elif op[0] == "delete":
            _, rel, k = op
            db.execute(f"delete {rel} where {rel}.k = {k % 12}")
        elif op[0] == "modify":
            _, rel, k, value = op
            col = {"t": "a", "u": "b", "v": "c"}[rel]
            db.execute(f"replace {rel} ({col} = {value}) "
                       f"where {rel}.k = {k % 12}")
        else:
            _, a, b = op
            counters["t"] += 2
            db.execute(
                f"do "
                f"append t(a = {a}, k = {counters['t'] - 1}) "
                f"replace t (a = {b}) where t.k = {counters['t'] - 1} "
                f"append t(a = {b}, k = {counters['t']}) "
                f"delete t where t.k = {counters['t']} "
                f"end")


@settings(max_examples=30, deadline=None)
@given(st.lists(_op, min_size=1, max_size=14),
       st.sets(st.integers(0, len(RULES) - 1), min_size=1, max_size=4))
def test_networks_equivalent(ops, rule_indexes):
    rules = [RULES[i] for i in sorted(rule_indexes)]
    databases = [
        build("a-treat", "always", rules),
        build("a-treat", "auto", rules),
        build("treat", "never", rules),
        build("rete", "never", rules),
    ]
    for db in databases:
        apply_ops(db, ops)
    reference_log = sorted(databases[0].relation_rows("log"))
    reference_t = sorted(databases[0].relation_rows("t"))
    for db in databases[1:]:
        assert sorted(db.relation_rows("log")) == reference_log
        assert sorted(db.relation_rows("t")) == reference_t
        assert db.firings == databases[0].firings


@settings(max_examples=25, deadline=None)
@given(st.lists(_op, min_size=1, max_size=12),
       st.sampled_from(["always", "never", "auto"]))
def test_pnodes_match_fresh_rematch(ops, budget):
    """DESIGN.md invariant 3: after arbitrary updates, a pure-pattern
    rule's incrementally maintained P-node equals what activating the
    same rule from scratch over the final data computes.

    Firing is suspended so P-nodes accumulate instead of being consumed.
    """
    rules = [RULES[1], RULES[2], RULES[3], RULES[7]]   # pattern only
    db = build("a-treat", budget, rules)
    db._rules_suspended = True
    apply_ops(db, ops)
    incremental = pnode_snapshot(db)

    fresh = budgeted(budget)
    fresh._rules_suspended = True
    fresh.execute("create t (a = int4, k = int4)")
    fresh.execute("create u (b = int4, k = int4)")
    fresh.execute("create v (c = int4, k = int4)")
    fresh.execute("create log (tag = text)")
    for rel in "tuv":
        col = {"t": "a", "u": "b", "v": "c"}[rel]
        for values in db.relation_rows(rel):
            fresh.execute(f"append {rel}({col} = {values[0]}, "
                          f"k = {values[1]})")
    for rule in rules:
        fresh.execute(rule)
    assert pnode_snapshot(fresh) == incremental
