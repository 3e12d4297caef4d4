"""Cyclic joins on the pairwise seek: TREAT against Rete's β chain.

For any generated statement sequence over cyclic rules, TREAT's
pairwise seek — at every storage budget, and with durability on — must
be *indistinguishable* from Rete's β chain with every memory stored:

* P-node contents and stored α-memory contents;
* the agenda's firing order — the exact ``(rule, match-count)``
  sequence of the firing log (both networks advance the insertion
  stamp once per complete combination, so agenda recency must agree);
* final relation contents (rule actions included);

and ``check_network`` finds nothing wrong with either after each
statement.  The rule pool is cycles — triangles, a cyclic self-join, a
4-variable cycle — where every seek order binds some variable before
all of its conjuncts can be checked, plus a non-equi residue and a
transition-gated cycle to exercise the residual checks and the Δ-set
paths.
"""

import pathlib
import tempfile

from hypothesis import given, settings, strategies as st

from repro.core.validate import check_network

from tests.helpers import budgeted
from tests.test_network_equivalence import (
    alpha_snapshot, firing_sequence, pnode_snapshot)

CYCLIC_RULES = [
    # the canonical triangle
    ("define rule m_tri if t.a = u.b and u.k = v.c and v.k = t.k "
     'then append to log(tag = "tri")'),
    # cyclic self-join over one relation
    ("define rule m_self if x.a = y.a and y.k = z.k and z.a = x.a "
     "from x in t, y in t, z in t "
     'then append to log(tag = "self")'),
    # 4-variable cycle with a cross link
    ("define rule m_four "
     "if t.a = u.b and u.k = v.c and v.k = w.k and w.a = t.a "
     "from t in t, u in u, v in v, w in t "
     'then append to log(tag = "four")'),
    # triangle with a non-equi residue (residual checks)
    ("define rule m_resid "
     "if t.a = u.b and u.k = v.c and v.k = t.k and t.k < u.k + 10 "
     'then append to log(tag = "resid")'),
    # transition-gated triangle (Δ-set / previous bindings)
    ("define rule m_trans "
     "if t.a > previous t.a and t.a = u.b and u.k = v.c "
     "and v.k = t.k "
     'then append to log(tag = "trans")'),
]

#: TREAT's (storage budget, durable): ∞, 0 and a mixed budget, and
#: durability on; the Rete reference stores everything
CONFIGS = [
    ("never", False),
    ("always", False),
    ("auto", False),
    ("never", True),
    ("always", True),
]

_op = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from("tuv"),
              st.integers(0, 6)),
    st.tuples(st.just("delete"), st.sampled_from("tuv"),
              st.integers(0, 20)),
    st.tuples(st.just("modify"), st.sampled_from("tuv"),
              st.integers(0, 20), st.integers(0, 6)),
)


def _build(network, budget, rules, durable_path):
    db = budgeted(budget, network=network, durable_path=durable_path,
                  fsync="never")
    db.execute("create t (a = int4, k = int4)")
    db.execute("create u (b = int4, k = int4)")
    db.execute("create v (c = int4, k = int4)")
    db.execute("create log (tag = text)")
    for rule in rules:
        db.execute(rule)
    return db


def _statements(ops) -> list[str]:
    counters = {"t": 0, "u": 0, "v": 0}
    out = []
    for op in ops:
        if op[0] == "insert":
            _, rel, value = op
            col = {"t": "a", "u": "b", "v": "c"}[rel]
            counters[rel] += 1
            out.append(f"append {rel}({col} = {value}, "
                       f"k = {counters[rel] % 8})")
        elif op[0] == "delete":
            _, rel, k = op
            out.append(f"delete {rel} where {rel}.k = {k % 8}")
        else:
            _, rel, k, value = op
            col = {"t": "a", "u": "b", "v": "c"}[rel]
            out.append(f"replace {rel} ({col} = {value}) "
                       f"where {rel}.k = {k % 8}")
    return out


def _snapshot(db):
    return (pnode_snapshot(db), alpha_snapshot(db), firing_sequence(db),
            {rel: sorted(db.relation_rows(rel))
             for rel in ("t", "u", "v", "log")})


@settings(max_examples=50, deadline=None)
@given(st.lists(_op, min_size=1, max_size=10),
       st.sets(st.integers(0, len(CYCLIC_RULES) - 1),
               min_size=1, max_size=3),
       st.sampled_from(CONFIGS))
def test_pairwise_seek_equals_the_beta_chain_on_cyclic_rules(
        ops, rule_indexes, config):
    budget, durable = config
    rules = [CYCLIC_RULES[i] for i in sorted(rule_indexes)]
    label = f"config={config}"
    with tempfile.TemporaryDirectory() as root:
        root = pathlib.Path(root)
        treat = _build("a-treat", budget, rules,
                       root / "treat" if durable else None)
        rete = _build("rete", "never", rules,
                      root / "rete" if durable else None)
        for text in _statements(ops):
            for db in (treat, rete):
                db.execute(text)
                assert check_network(db) == [], f"{label}: {text}"
        treat.close()
        rete.close()
    pn, alpha, fired, rows = _snapshot(treat)
    rete_pn, rete_alpha, rete_fired, rete_rows = _snapshot(rete)
    assert pn == rete_pn, f"{label}: P-nodes diverged"
    # TREAT stores what its budget paid for; Rete stores every memory
    assert alpha == {key: rete_alpha[key] for key in alpha}, \
        f"{label}: alpha memories diverged"
    assert fired == rete_fired, f"{label}: firing order diverged"
    assert rows == rete_rows, f"{label}: relations diverged"
