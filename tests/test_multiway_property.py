"""Multiway-vs-pairwise equivalence property (the algorithm contract).

For any generated statement sequence, the leapfrog multiway join step
must be *indistinguishable* from the pairwise probe chain — not just
set-equal but identical in every ordering-observable artifact:

* P-node contents and stored α-memory contents;
* the agenda's firing order — the exact ``(rule, match-count)``
  sequence of the firing log (both algorithms advance the insertion
  stamp once per complete combination, so agenda recency must agree);
* final relation contents (rule actions included).

The rule pool is weighted toward shapes the planner actually routes to
the triejoin — triangles, cyclic self-joins, 4-variable cycles — plus a
non-equi residue and a transition-gated cycle to exercise the residual
schedule and Δ-set paths.  Runs across storage budgets and with
durability on, so the multiway step composes with every other
propagation layer.  Rete has no multiway step: its rows compare Rete's
pairwise β chain against TREAT's multiway step.
"""

import pathlib
import tempfile

from hypothesis import given, settings, strategies as st

from tests.helpers import budgeted
from tests.test_network_equivalence import (
    alpha_snapshot, firing_sequence, pnode_snapshot)

MULTIWAY_RULES = [
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
    # triangle with a non-equi residue (residual schedule)
    ("define rule m_resid "
     "if t.a = u.b and u.k = v.c and v.k = t.k and t.k < u.k + 10 "
     'then append to log(tag = "resid")'),
    # transition-gated triangle (Δ-set / previous bindings)
    ("define rule m_trans "
     "if t.a > previous t.a and t.a = u.b and u.k = v.c "
     "and v.k = t.k "
     'then append to log(tag = "trans")'),
]

#: (network, storage budget, durable)
CONFIGS = [
    ("a-treat", "auto", False),
    ("a-treat", "never", False),
    ("a-treat", "always", True),
    ("rete", "never", False),
    ("rete", "never", True),
]

_op = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from("tuv"),
              st.integers(0, 6)),
    st.tuples(st.just("delete"), st.sampled_from("tuv"),
              st.integers(0, 20)),
    st.tuples(st.just("modify"), st.sampled_from("tuv"),
              st.integers(0, 20), st.integers(0, 6)),
)


def _build(join_mode, config, rules, durable_path):
    network, budget, durable = config
    if network == "rete" and join_mode == "multiway":
        network = "a-treat"
    db = budgeted(budget, network=network, batch_tokens=True,
                  join_mode=join_mode,
                  durable_path=durable_path if durable else None,
                  fsync="never")
    db.execute("create t (a = int4, k = int4)")
    db.execute("create u (b = int4, k = int4)")
    db.execute("create v (c = int4, k = int4)")
    db.execute("create log (tag = text)")
    for rule in rules:
        db.execute(rule)
    return db


def _apply(db, ops):
    counters = {"t": 0, "u": 0, "v": 0}
    for op in ops:
        if op[0] == "insert":
            _, rel, value = op
            col = {"t": "a", "u": "b", "v": "c"}[rel]
            counters[rel] += 1
            db.execute(f"append {rel}({col} = {value}, "
                       f"k = {counters[rel] % 8})")
        elif op[0] == "delete":
            _, rel, k = op
            db.execute(f"delete {rel} where {rel}.k = {k % 8}")
        else:
            _, rel, k, value = op
            col = {"t": "a", "u": "b", "v": "c"}[rel]
            db.execute(f"replace {rel} ({col} = {value}) "
                       f"where {rel}.k = {k % 8}")


@settings(max_examples=15, deadline=None)
@given(st.lists(_op, min_size=1, max_size=10),
       st.sets(st.integers(0, len(MULTIWAY_RULES) - 1),
               min_size=1, max_size=3),
       st.sampled_from(CONFIGS))
def test_multiway_equivalent_to_pairwise(ops, rule_indexes, config):
    rules = [MULTIWAY_RULES[i] for i in sorted(rule_indexes)]
    with tempfile.TemporaryDirectory() as root:
        root = pathlib.Path(root)
        snapshots = {}
        for mode in ("pairwise", "multiway"):
            db = _build(mode, config, rules, root / mode)
            _apply(db, ops)
            db.close()
            snapshots[mode] = (
                pnode_snapshot(db), alpha_snapshot(db),
                firing_sequence(db),
                {rel: sorted(db.relation_rows(rel))
                 for rel in ("t", "u", "v", "log")})
        label = f"config={config}"
        pw, mw = snapshots["pairwise"], snapshots["multiway"]
        assert mw[0] == pw[0], f"{label}: P-nodes diverged"
        assert mw[1] == pw[1], f"{label}: alpha memories diverged"
        assert mw[2] == pw[2], f"{label}: firing order diverged"
        assert mw[3] == pw[3], f"{label}: relations diverged"
