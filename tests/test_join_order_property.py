"""Property test: the seek join order is a pure performance choice.

Whatever permutation of the remaining variables the planner (or anyone,
via the ``forced`` hook) picks, the P-node must end up with exactly the
same match set — byte for byte over the bound values.
"""

import itertools

from hypothesis import given, settings, strategies as st

from tests.helpers import budgeted

_VARS = ("a", "b", "c")
_PERMUTATIONS = list(itertools.permutations(("b", "c")))


def _matches(db, rule_name):
    """A canonical, fully-ordered rendering of a P-node's match set."""
    return sorted(
        tuple(sorted((var, entry.values) for var, entry in m.bindings))
        for m in db.network.pnode(rule_name).matches())


def _build(order_index, budget, a_rows, b_rows, c_rows, extra):
    db = budgeted(budget)
    db.execute_script("""
        create a (x = int4, y = int4)
        create b (x = int4, z = int4)
        create c (z = int4)
    """)
    if a_rows:
        db.bulk_append("a", a_rows)
    if b_rows:
        db.bulk_append("b", b_rows)
    if c_rows:
        db.bulk_append("c", c_rows)
    db._rules_suspended = True
    # every seek from seed "a" walks the forced (b, c) permutation;
    # seeds "b"/"c" get the matching rotation of the remaining vars
    forced_tail = _PERMUTATIONS[order_index]

    db.execute("define rule r if a.x = b.x and b.z = c.z "
               "then delete a")
    db.network.join_planner.forced = \
        lambda rule, seed: [v for v in forced_tail + _VARS
                            if v != seed][:len(rule.variables) - 1]
    for relation, values in extra:
        db.bulk_append(relation, [values])
    return db


_small_int = st.integers(min_value=0, max_value=3)
_a_rows = st.lists(st.tuples(_small_int, _small_int), max_size=6)
_b_rows = st.lists(st.tuples(_small_int, _small_int), max_size=6)
_c_rows = st.lists(st.tuples(_small_int), max_size=4)
_extra = st.lists(
    st.one_of(
        st.tuples(st.just("a"), st.tuples(_small_int, _small_int)),
        st.tuples(st.just("b"), st.tuples(_small_int, _small_int)),
        st.tuples(st.just("c"), st.tuples(_small_int))),
    max_size=4)


@settings(max_examples=40, deadline=None)
@given(a_rows=_a_rows, b_rows=_b_rows, c_rows=_c_rows, extra=_extra,
       budget=st.sampled_from(["never", "always", "auto"]))
def test_any_join_order_same_matches(a_rows, b_rows, c_rows, extra,
                                     budget):
    reference = None
    for index in range(len(_PERMUTATIONS)):
        db = _build(index, budget, a_rows, b_rows, c_rows, extra)
        found = _matches(db, "r")
        if reference is None:
            reference = found
        else:
            assert found == reference, (
                f"permutation {_PERMUTATIONS[index]} under budget "
                f"{budget!r} changed the match set")


def test_forced_permutations_exhaustive_small_case():
    """A deterministic anchor: every permutation over a fixed dataset."""
    a_rows = [(1, 0), (2, 0), (1, 1)]
    b_rows = [(1, 5), (1, 6), (2, 5)]
    c_rows = [(5,), (6,)]
    extra = [("a", (1, 9)), ("b", (2, 6)), ("c", (5,))]
    results = [
        _matches(_build(i, budget, a_rows, b_rows, c_rows, extra), "r")
        for budget in ("never", "always")
        for i in range(len(_PERMUTATIONS))]
    assert all(r == results[0] for r in results)
    assert results[0]      # the case is non-trivial: matches exist
