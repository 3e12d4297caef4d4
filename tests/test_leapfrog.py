"""The worst-case-optimal multiway join step (leapfrog triejoin).

Covers the layer stack bottom-up: the leapfrog intersection primitive,
the null/NaN key rule of the α-memory join index the views are grouped
from, join-class / cyclicity analysis of the equi-join graph, the
planner's algorithm decision (mode resolution, eligibility gates,
fallback counters), introspection output, and end-to-end equivalence
of the multiway step with the pairwise chain on concrete triangle and
4-cycle workloads — including Rete's β chain (budget ∞) against TREAT's
multiway step at every budget.
"""

import pytest

from repro import Database
from repro.core.introspect import describe_join_plan
from repro.core.join_planner import JOIN_MODES, resolve_join_mode
from repro.core.leapfrog import (
    build_join_classes, equijoin_graph_is_cyclic, leapfrog_intersection)
from repro.errors import RuleError

from tests.helpers import budgeted
from tests.test_network_equivalence import firing_sequence

TRIANGLE = (
    "define rule triangle "
    "if r.a = s.b and s.c = t.c and t.a = r.a "
    "from r in r, s in s, t in t "
    'then append to log(tag = "tri")')
#: a 4-variable cycle over three relations (t twice, as t and w)
FOUR = (
    "define rule four "
    "if t.a = u.b and u.k = v.c and v.k = w.k and w.a = t.a "
    "from t in t, u in u, v in v, w in t "
    'then append to log(tag = "four")')


# ----------------------------------------------------------------------
# leapfrog intersection primitive
# ----------------------------------------------------------------------

class TestLeapfrogIntersection:

    def _run(self, key_lists):
        counter = [0]
        out = list(leapfrog_intersection(key_lists, counter))
        return out, counter[0]

    def test_basic_intersection(self):
        out, _ = self._run([[1, 3, 4, 5, 6, 7, 8, 9, 11],
                            [1, 2, 3, 5, 8, 13, 21],
                            [1, 2, 4, 5, 8, 10]])
        assert out == [1, 5, 8]

    def test_single_iterator_streams_all_keys(self):
        out, seeks = self._run([[2, 4, 6]])
        assert out == [2, 4, 6]

    def test_disjoint_lists_yield_nothing(self):
        out, _ = self._run([[1, 2, 3], [4, 5, 6]])
        assert out == []

    def test_empty_list_yields_nothing(self):
        out, seeks = self._run([[], [1, 2]])
        assert out == []
        assert seeks == 0

    def test_identical_lists(self):
        out, _ = self._run([[1, 2, 3], [1, 2, 3]])
        assert out == [1, 2, 3]

    def test_seeks_are_counted(self):
        _, seeks = self._run([[1, 100], [50, 100]])
        assert seeks >= 1

    def test_galloping_skips_wide_gaps(self):
        sparse = [0, 10_000]
        dense = list(range(0, 10_001, 2))
        out, _ = self._run([sparse, dense])
        assert out == [0, 10_000]


# ----------------------------------------------------------------------
# the keys the α-memory join index holds
# ----------------------------------------------------------------------

class TestSortedJoinKeys:
    """Leapfrog groups its sorted key views per seek from the α
    join-index, which holds no null or NaN key."""

    def test_null_and_nan_keys_are_excluded(self):
        db = Database()
        db.execute("create t (a = float8, k = int4)")
        db.execute("create u (b = float8, k = int4)")
        db.execute("create log (tag = text)")
        db.execute('define rule rj if t.a = u.b '
                   'then append to log(tag = "j")')
        memory = db.network._memories[("rj", "t")]
        position = 0
        db.execute("append t(a = 2.0, k = 1)")
        db.execute("append t(a = null, k = 2)")
        db.execute("append t(a = nan, k = 3)")
        db.execute("append t(a = 1.0, k = 4)")
        assert len(memory) == 4
        assert sorted(memory._join_indexes[position]) == [1.0, 2.0]
        assert list(memory.join_probe(position, None)) == []
        assert list(memory.join_probe(position, float("nan"))) == []
        db.execute("delete t where t.k = 2")
        db.execute("delete t where t.k = 3")
        assert sorted(memory._join_indexes[position]) == [1.0, 2.0]
        assert len(memory) == 2


# ----------------------------------------------------------------------
# join classes and cyclicity
# ----------------------------------------------------------------------

def _compile(db, name, text):
    """Define the rule and return its compiled form."""
    db.execute(text)
    return db.network.rules[name]


def _triangle_db():
    db = Database()
    db.execute_script("""
        create r (a = int4, b = int4)
        create s (b = int4, c = int4)
        create t (c = int4, a = int4)
        create log (tag = text)
    """)
    return db


class TestJoinGraphAnalysis:

    def test_triangle_classes_and_cycle(self):
        db = _triangle_db()
        rule = _compile(db, "triangle", TRIANGLE)
        classes = build_join_classes(rule)
        # r.a = s.b and t.a = r.a merge into one class; s.c = t.c is
        # the other
        assert len(classes) == 2
        merged = next(cls for cls in classes if "r" in cls.positions)
        assert set(merged.positions) == {"r", "s", "t"}
        assert merged.positions["r"] == (0,)
        other = next(cls for cls in classes
                     if "r" not in cls.positions)
        assert set(other.positions) == {"s", "t"}
        assert equijoin_graph_is_cyclic(rule)

    def test_chain_is_acyclic(self):
        db = Database()
        db.execute("create t (a = int4, k = int4)")
        db.execute("create u (b = int4, k = int4)")
        db.execute("create v (c = int4, k = int4)")
        db.execute("create log (tag = text)")
        rule = _compile(db, "chain",
                        'define rule chain if t.a = u.b '
                        'and u.b = v.c '
                        'then append to log(tag = "c")')
        assert not equijoin_graph_is_cyclic(rule)
        # parallel conjuncts between one pair are one edge, not a cycle
        rule2 = _compile(db, "par",
                         'define rule par if t.a = u.b '
                         'and t.k = u.k '
                         'then append to log(tag = "p")')
        assert not equijoin_graph_is_cyclic(rule2)


# ----------------------------------------------------------------------
# mode resolution and planner decisions
# ----------------------------------------------------------------------

class TestJoinModeResolution:

    def test_explicit_mode_wins(self):
        assert resolve_join_mode("multiway") == "multiway"
        assert Database().network.join_planner.mode == "auto"

    def test_unknown_mode_rejected(self):
        with pytest.raises(RuleError, match="unknown join mode"):
            resolve_join_mode("leapfrog")
        for mode in JOIN_MODES:
            assert resolve_join_mode(mode) == mode

    def test_database_rejects_unknown_mode(self):
        with pytest.raises(RuleError):
            Database(join_mode="bogus")


class TestPlannerDecision:

    def test_auto_plans_triangle_as_multiway(self):
        db = _triangle_db()
        db.execute(TRIANGLE)
        db.execute("append s(b = 1, c = 2)")
        db.execute("append t(c = 2, a = 1)")
        db.execute("append r(a = 1, b = 1)")
        stats = db.network.stats
        assert stats.get("joins.multiway_planned") >= 1
        assert stats.get("joins.multiway_seeks") >= 1
        assert stats.get("joins.leapfrog_seeks") >= 0
        assert sorted(db.relation_rows("log")) == [("tri",)]

    def test_pairwise_mode_never_plans_multiway(self):
        db = Database(join_mode="pairwise")
        db.execute_script("""
            create r (a = int4, b = int4)
            create s (b = int4, c = int4)
            create t (c = int4, a = int4)
            create log (tag = text)
        """)
        db.execute(TRIANGLE)
        db.execute("append s(b = 1, c = 2)")
        db.execute("append t(c = 2, a = 1)")
        db.execute("append r(a = 1, b = 1)")
        assert db.network.stats.get("joins.multiway_planned") == 0
        assert sorted(db.relation_rows("log")) == [("tri",)]

    def test_uncovered_variable_falls_back_with_counter(self):
        # w reaches no equi-join: candidate (cyclic core) but
        # ineligible, so the planner records a fallback
        db = Database(join_mode="multiway")
        db.execute_script("""
            create r (a = int4, b = int4)
            create s (b = int4, c = int4)
            create t (c = int4, a = int4)
            create w (x = int4)
            create log (tag = text)
        """)
        db.execute(
            "define rule lop "
            "if r.a = s.b and s.c = t.c and t.a = r.a and w.x > r.a "
            "from r in r, s in s, t in t, w in w "
            'then append to log(tag = "lop")')
        db.execute("append s(b = 1, c = 2)")
        db.execute("append t(c = 2, a = 1)")
        db.execute("append w(x = 9)")
        db.execute("append r(a = 1, b = 1)")
        stats = db.network.stats
        assert stats.get("joins.multiway_fallbacks") >= 1
        assert stats.get("joins.multiway_seeks") == 0
        assert sorted(db.relation_rows("log")) == [("lop",)]

    def test_two_variable_rules_stay_pairwise(self):
        db = Database(join_mode="multiway")
        db.execute("create t (a = int4, k = int4)")
        db.execute("create u (b = int4, k = int4)")
        db.execute("create log (tag = text)")
        db.execute('define rule rj if t.a = u.b '
                   'then append to log(tag = "j")')
        db.execute("append t(a = 1, k = 1)")
        db.execute("append u(b = 1, k = 1)")
        assert db.network.stats.get("joins.multiway_planned") == 0
        assert sorted(db.relation_rows("log")) == [("j",)]


# ----------------------------------------------------------------------
# introspection
# ----------------------------------------------------------------------

class TestDescribeMultiway:

    def test_plan_text_shows_trie_and_sources(self):
        db = Database(join_mode="multiway")
        db.execute_script("""
            create r (a = int4, b = int4)
            create s (b = int4, c = int4)
            create t (c = int4, a = int4)
            create log (tag = text)
        """)
        db.execute(TRIANGLE)
        text = describe_join_plan(db.manager, "triangle")
        assert "multiway" in text
        assert "cyclic equi-join graph" in text
        # seeding from r leaves the s.c = t.c class as a leapfrog
        # level with two participants; s and t seed-fix both classes
        assert "leapfrog[" in text
        assert "emit" in text
        assert "mode=multiway" in text

    def test_pairwise_rule_reports_shape_only(self):
        db = Database()
        db.execute("create t (a = int4, k = int4)")
        db.execute("create u (b = int4, k = int4)")
        db.execute("create log (tag = text)")
        db.execute('define rule rj if t.a = u.b '
                   'then append to log(tag = "j")')
        text = describe_join_plan(db.manager, "rj")
        assert "leapfrog[" not in text


# ----------------------------------------------------------------------
# end-to-end equivalence, deletes included
# ----------------------------------------------------------------------

def _pnode_values(db, name):
    return sorted(
        tuple(sorted((var, entry.values) for var, entry in m.bindings))
        for m in db.network.pnode(name).matches())


def _sides(network, budget):
    """(network, budget, join mode) of the pairwise and the multiway
    side of one row: Rete stores everything and joins only on its β
    chain, so its rows compare it with TREAT's multiway step."""
    if network == "rete":
        return [("rete", "never", "pairwise"),
                ("a-treat", budget, "multiway")]
    return [(network, budget, "pairwise"), (network, budget, "multiway")]


def _triangle_pair(network, budget):
    out = []
    for network, budget, mode in _sides(network, budget):
        db = budgeted(budget, network=network, join_mode=mode)
        db.execute_script("""
            create r (a = int4, b = int4)
            create s (b = int4, c = int4)
            create t (c = int4, a = int4)
            create log (tag = text)
        """)
        db._rules_suspended = True     # keep matches in the P-node
        db.execute(TRIANGLE)
        out.append(db)
    return out


@pytest.mark.parametrize("network,budget", [
    ("a-treat", "never"), ("a-treat", "always"),
    ("rete", "never"), ("rete", "always"),
])
class TestMultiwayEquivalence:

    def _load(self, db):
        for b in range(3):
            for c in range(4):
                db.execute(f"append s(b = {b}, c = {c})")
        for c in range(4):
            for a in range(3):
                db.execute(f"append t(c = {c}, a = {a})")
        for i in range(6):
            db.execute(f"append r(a = {i % 3}, b = {i % 3})")

    def test_insert_equivalence(self, network, budget):
        pairwise, multiway = _triangle_pair(network, budget)
        self._load(pairwise)
        self._load(multiway)
        assert _pnode_values(multiway, "triangle") \
            == _pnode_values(pairwise, "triangle")
        assert _pnode_values(multiway, "triangle")

    def test_delete_equivalence(self, network, budget):
        pairwise, multiway = _triangle_pair(network, budget)
        for db in (pairwise, multiway):
            self._load(db)
            db.execute("delete r where r.a = 1")
            db.execute("delete s where s.c = 2")
        assert _pnode_values(multiway, "triangle") \
            == _pnode_values(pairwise, "triangle")
        # re-inserts after deletes keep working
        for db in (pairwise, multiway):
            db.execute("append r(a = 1, b = 1)")
        assert _pnode_values(multiway, "triangle") \
            == _pnode_values(pairwise, "triangle")
        assert _pnode_values(multiway, "triangle")

    def test_nan_never_joins(self, network, budget):
        for network, budget, mode in _sides(network, budget):
            db = budgeted(budget, network=network, join_mode=mode)
            db.execute_script("""
                create r (a = float8, b = float8)
                create s (b = float8, c = float8)
                create t (c = float8, a = float8)
                create log (tag = text)
            """)
            db._rules_suspended = True
            db.execute(
                "define rule ftri "
                "if r.a = s.b and s.c = t.c and t.a = r.a "
                "from r in r, s in s, t in t "
                'then append to log(tag = "f")')
            db.execute("append s(b = 1.0, c = 2.0)")
            db.execute("append t(c = 2.0, a = 1.0)")
            db.execute("append r(a = nan, b = nan)")
            db.execute("append r(a = null, b = 1.0)")
            assert _pnode_values(db, "ftri") == []
            db.execute("append r(a = 1.0, b = 1.0)")
            assert len(_pnode_values(db, "ftri")) == 1


    def test_four_cycle_with_an_unconstrained_participant(
            self, network, budget):
        """Seeded from t, v joins no seed-fixed class: its first level
        view is grouped from the whole memory."""
        sides = []
        for network, budget, mode in _sides(network, budget):
            db = budgeted(budget, network=network, join_mode=mode)
            db.execute_script("""
                create t (a = int4, k = int4)
                create u (b = int4, k = int4)
                create v (c = int4, k = int4)
                create log (tag = text)
            """)
            db.execute(FOUR)
            db.execute("define rule tri "
                       "if t.a = u.b and u.k = v.c and v.k = t.k "
                       'then append to log(tag = "tri")')
            sides.append(db)
        pairwise, multiway = sides
        plan = describe_join_plan(multiway.manager, "four")
        seed_t = next(line for line in plan.splitlines()
                      if line.strip().startswith("seek from t:"))
        if budget == "never":
            assert "[u.k via restricted probe & v.c via memory scan]" \
                in seed_t, plan
        else:
            assert "[u.k via virtual scan & v.c via virtual scan]" \
                in seed_t, plan
        for db in sides:
            db.execute_script("""
                do
                append u(b = 0, k = 1)
                append u(b = 1, k = 2)
                append u(b = 2, k = 0)
                append u(b = 0, k = 2)
                end
            """)
            for i in range(6):
                db.execute(f"append v(c = {i % 3}, k = {i % 4})")
            for i in range(8):
                db.execute(f"append t(a = {i % 3}, k = {i % 4})")
            db.execute("replace v (k = 3) where v.c = 1")
            db.execute("delete u where u.b = 2")
            db.execute("append u(b = 2, k = 1)")
            db._rules_suspended = True
            db.execute("append t(a = 1, k = 3)")
            db.execute("append v(c = 2, k = 0)")
        assert multiway.network.stats.get("joins.multiway_seeks") > 0
        assert firing_sequence(multiway) == firing_sequence(pairwise)
        assert len(firing_sequence(pairwise)) > 4
        for name in ("four", "tri"):
            assert _pnode_values(multiway, name) \
                == _pnode_values(pairwise, name)
        assert _pnode_values(pairwise, "four")
        assert multiway.relation_rows("log") \
            == pairwise.relation_rows("log")


def test_self_join_multiplicity_multiway():
    """A token joining to itself does so exactly the right number of
    times (the paper's ProcessedMemories invariant) under multiway."""
    results = {}
    for mode in ("pairwise", "multiway"):
        for budget in ("never", "always"):
            db = budgeted(budget, join_mode=mode)
            db.execute("create t (a = int4, k = int4)")
            db.execute("create log (tag = text)")
            db._rules_suspended = True
            db.execute(
                "define rule cyc "
                "if x.a = y.a and y.k = z.k and z.a = x.a "
                "from x in t, y in t, z in t "
                'then append to log(tag = "cyc")')
            for i in range(4):
                db.execute(f"append t(a = {i % 2}, k = {i})")
            results[(mode, budget)] = _pnode_values(db, "cyc")
    reference = results[("pairwise", "never")]
    assert reference
    for key, value in results.items():
        assert value == reference, f"{key} diverged"
