"""Tests for the top-level selection predicate index."""

import pytest

from repro.core.selection_index import LinearIntervalIndex, SelectionIndex
from repro.intervals.ibstree import IBSTree
from repro.intervals.interval import Interval
from repro.intervals.skiplist import IntervalSkipList
from repro.lang.predicates import AttrInterval


class _FakeMemory:
    """Stand-in target with the attributes probe() sorting needs."""

    def __init__(self, name):
        self.rule_name = name

    def __repr__(self):
        return f"<mem {self.rule_name}>"


def anchor(attr, position, interval):
    return AttrInterval(attr, position, interval)


class TestSelectionIndex:
    def test_anchored_probe(self):
        index = SelectionIndex()
        low = _FakeMemory("low")
        high = _FakeMemory("high")
        index.add("emp", anchor("sal", 2, Interval.at_most(1000)), low)
        index.add("emp", anchor("sal", 2,
                                Interval.at_least(5000, closed=False)),
                  high)
        assert index.probe("emp", ("Ann", 30, 500)) == [low]
        assert index.probe("emp", ("Ann", 30, 9000)) == [high]
        assert index.probe("emp", ("Ann", 30, 3000)) == []

    def test_multiple_attributes(self):
        index = SelectionIndex()
        by_sal = _FakeMemory("sal")
        by_age = _FakeMemory("age")
        index.add("emp", anchor("sal", 2, Interval.at_least(1000)), by_sal)
        index.add("emp", anchor("age", 1, Interval.point(30)), by_age)
        got = index.probe("emp", ("Ann", 30, 2000))
        assert set(got) == {by_sal, by_age}

    def test_unanchored_always_candidates(self):
        index = SelectionIndex()
        residual = _FakeMemory("resid")
        index.add("emp", None, residual)
        assert index.probe("emp", ("Ann", 30, 0)) == [residual]

    def test_relations_are_separate(self):
        index = SelectionIndex()
        memory = _FakeMemory("m")
        index.add("emp", anchor("sal", 0, Interval.at_least(0)), memory)
        assert index.probe("dept", (100,)) == []

    def test_null_value_never_matches_anchor(self):
        index = SelectionIndex()
        memory = _FakeMemory("m")
        index.add("emp", anchor("sal", 0,
                                Interval.everything()), memory)
        assert index.probe("emp", (None,)) == []

    @pytest.mark.parametrize("factory", [
        IntervalSkipList, IBSTree, LinearIntervalIndex])
    def test_nan_probe_reaches_only_unanchored_targets(self, factory):
        """NaN compares false to every bound, so no anchor accepts it,
        whichever interval index holds the anchors (stabbed with NaN,
        each accepts it for some of these shapes)."""
        index = SelectionIndex(index_factory=factory)
        intervals = [Interval.at_most(10.0),
                     Interval.at_most(10.0, closed=False),
                     Interval.at_least(0.0),
                     Interval.at_least(0.0, closed=False),
                     Interval.point(5.0), Interval(0.0, 10.0),
                     Interval.everything()]
        for i, interval in enumerate(intervals):
            index.add("emp", anchor("sal", 1, interval),
                      _FakeMemory(f"m{i}"))
        residual = _FakeMemory("resid")
        index.add("emp", None, residual)
        assert index.probe("emp", ("Ann", float("nan"))) == [residual]
        assert len(index.probe("emp", ("Ann", 5.0))) == 8

    def test_null_still_reaches_unanchored(self):
        index = SelectionIndex()
        memory = _FakeMemory("m")
        index.add("emp", None, memory)
        assert index.probe("emp", (None,)) == [memory]

    def test_remove_anchored(self):
        index = SelectionIndex()
        memory = _FakeMemory("m")
        index.add("emp", anchor("sal", 0, Interval.at_least(0)), memory)
        index.remove(memory)
        assert index.probe("emp", (5,)) == []
        assert len(index) == 0

    def test_remove_unanchored(self):
        index = SelectionIndex()
        memory = _FakeMemory("m")
        index.add("emp", None, memory)
        index.remove(memory)
        assert index.probe("emp", (5,)) == []

    def test_removing_the_last_target_leaves_nothing_to_stab(self):
        """Once a relation's last target goes, a probe of it touches no
        interval index and the relation is unwatched; an attribute whose
        last anchor goes is stabbed no more."""
        stabs = []

        class CountingIndex(IntervalSkipList):
            def stab(self, value):
                stabs.append(value)
                return super().stab(value)

        index = SelectionIndex(index_factory=CountingIndex)
        by_sal, by_age = _FakeMemory("sal"), _FakeMemory("age")
        residual = _FakeMemory("resid")
        index.add("emp", anchor("sal", 2, Interval.at_least(0)), by_sal)
        index.add("emp", anchor("age", 1, Interval.at_least(0)), by_age)
        index.add("emp", None, residual)
        index.remove(by_age)
        assert index.probe("emp", ("Ann", 30, 5)) == [by_sal, residual]
        assert stabs == [5]
        index.remove(by_sal)
        assert index.watches("emp")
        assert index.probe("emp", ("Ann", 30, 5)) == [residual]
        index.remove(residual)
        assert not index.watches("emp")
        assert index.probe("emp", ("Ann", 30, 5)) == []
        assert stabs == [5]

    def test_rule_removal_unwatches_its_relations(self):
        from repro import Database

        db = Database()
        db.execute("create emp (name = text, sal = float8)")
        db.execute("create log (name = text)")
        index = db.network.selection_index
        db.execute("define rule r if emp.sal > 10.0 "
                   "then append to log(emp.name)")
        assert index.watches("emp") and not index.watches("log")
        db.execute("remove rule r")
        assert not index.watches("emp")

    def test_remove_unregistered(self):
        with pytest.raises(ValueError):
            SelectionIndex().remove(_FakeMemory("m"))

    def test_double_add_rejected(self):
        index = SelectionIndex()
        memory = _FakeMemory("m")
        index.add("emp", None, memory)
        with pytest.raises(ValueError):
            index.add("emp", None, memory)

    def test_identical_intervals_different_targets(self):
        index = SelectionIndex()
        a, b = _FakeMemory("a"), _FakeMemory("b")
        iv = Interval(10, 20)
        index.add("emp", anchor("sal", 0, iv), a)
        index.add("emp", anchor("sal", 0, iv), b)
        assert set(index.probe("emp", (15,))) == {a, b}
        index.remove(a)
        assert index.probe("emp", (15,)) == [b]

    def test_counts(self):
        index = SelectionIndex()
        index.add("emp", anchor("sal", 0, Interval.at_least(0)),
                  _FakeMemory("a"))
        index.add("emp", None, _FakeMemory("b"))
        assert index.anchored_count() == 1
        assert index.unanchored_count() == 1
        assert len(index) == 2

    @pytest.mark.parametrize("factory", [
        IntervalSkipList, IBSTree, LinearIntervalIndex])
    def test_pluggable_interval_index(self, factory):
        index = SelectionIndex(index_factory=factory)
        memories = [_FakeMemory(f"r{i}") for i in range(20)]
        for i, memory in enumerate(memories):
            index.add("emp",
                      anchor("sal", 0, Interval(i * 10, i * 10 + 15)),
                      memory)
        got = set(index.probe("emp", (12,)))
        assert got == {memories[0], memories[1]}

    def test_paper_benchmark_shape(self):
        """Shifted C1 < sal <= C2 predicates: each probe hits one rule."""
        index = SelectionIndex()
        memories = []
        for i in range(200):
            memory = _FakeMemory(f"rule{i}")
            memories.append(memory)
            index.add("emp", anchor(
                "sal", 0,
                Interval(1000 * i, 1000 * i + 500,
                         low_closed=False, high_closed=True)), memory)
        assert index.probe("emp", (250.0,)) == [memories[0]]
        assert index.probe("emp", (150250.0,)) == [memories[150]]
        assert index.probe("emp", (150750.0,)) == []


class TestLinearIntervalIndex:
    def test_matches_skiplist(self):
        linear = LinearIntervalIndex()
        skip = IntervalSkipList(seed=5)
        ivs = [Interval(i % 7, i % 7 + i % 5 + 1, payload=i)
               for i in range(30)]
        for iv in ivs:
            linear.insert(iv)
            skip.insert(iv)
        for probe in range(0, 13):
            assert linear.stab(probe) == skip.stab(probe)

    def test_duplicate_rejected(self):
        linear = LinearIntervalIndex()
        linear.insert(Interval(0, 1))
        with pytest.raises(ValueError):
            linear.insert(Interval(0, 1))

    def test_remove(self):
        linear = LinearIntervalIndex()
        iv = Interval(0, 10, payload="x")
        linear.insert(iv)
        linear.remove(iv)
        assert linear.stab(5) == set()
        assert len(linear) == 0


@pytest.mark.parametrize("network", ["a-treat", "rete"])
@pytest.mark.parametrize("join", [False, True], ids=["one-var", "two-var"])
@pytest.mark.parametrize("op", ["<", "<="])
def test_nan_satisfies_no_upper_bound_anchor(op, join, network):
    """A NaN salary fails ``emp.sal < 10.0`` and ``emp.sal <= 10.0``: the
    rule fires exactly for what the same condition retrieves, and no
    α-memory holds the NaN row."""
    from repro import Database
    from repro.core.validate import check_network

    condition = f"emp.sal {op} 10.0" + (" and dept.x = emp.sal"
                                         if join else "")
    db = Database(network=network)
    db.execute("create emp (id = int4, sal = float8)")
    db.execute("create dept (x = float8)")
    db.execute("create log (id = int4)")
    db.execute(f"define rule r if {condition} "
               f"then append to log(id = emp.id)")
    db.execute("append dept(x = 5.0)")
    db.execute("append dept(x = nan)")
    db.execute("append emp(id = 1, sal = nan)")
    db.execute("append emp(id = 2, sal = 5.0)")
    db.execute("append emp(id = 3, sal = 20.0)")
    db.execute("replace emp(sal = nan) where emp.id = 3")
    expected = db.execute(f"retrieve (emp.id) where {condition}").rows
    assert sorted(db.relation_rows("log")) == sorted(expected) == [(2,)]
    assert check_network(db) == []


_SHAPES = {
    "point": Interval.point(5.0),
    "closed": Interval(0.0, 10.0),
    "open": Interval(0.0, 10.0, False, False),
    "at_most": Interval.at_most(10.0),
    "at_least": Interval.at_least(0.0),
    "everything": Interval.everything(),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
@pytest.mark.parametrize("factory", [
    IntervalSkipList, IBSTree, LinearIntervalIndex])
def test_nan_stab_is_empty(factory, shape):
    """No index matches a NaN key: NaN compares false to every bound, so
    no interval contains it and every index kind answers its stab
    empty — alone and beside intervals of every other shape."""
    nan = float("nan")
    interval = _SHAPES[shape]
    assert not interval.contains_value(nan)
    alone = factory()
    alone.insert(interval)
    assert alone.stab(nan) == set()
    assert alone.stab(5.0) == {interval}
    every = factory()
    for other in _SHAPES.values():
        every.insert(other)
    assert every.stab(nan) == set()


def _node_levels(db) -> dict:
    """Every anchored attribute's skip-list node levels, in key order."""
    levels = {}
    for relation, attr_indexes in db.network.selection_index \
            ._relations.items():
        for attr, slot in attr_indexes.items():
            node = slot.index._header.forward[0]
            keys = []
            while node is not None:
                keys.append((node.key, node.level))
                node = node.forward[0]
            levels[(relation, attr)] = keys
    return levels


def test_one_rule_script_builds_one_skip_list_shape():
    """The selection index's skip lists draw their node levels from a
    fixed seed: two databases built from one script have the same node
    levels on every anchored attribute, so stab work is reproducible."""
    from repro import Database
    script = ["create emp (name = text, sal = float8, age = int4)",
              "create log (v = float8)"]
    script += [f"define rule s{i} if {100 * i} < emp.sal "
               f"and emp.sal <= {100 * i + 80} then append to log(v = 1)"
               for i in range(60)]
    script += [f"define rule a{i} if emp.age = {i} "
               f"then append to log(v = 2)" for i in range(40)]
    built = []
    for _ in range(2):
        db = Database()
        for text in script:
            db.execute(text)
        built.append(_node_levels(db))
    assert set(built[0]) == {("emp", "sal"), ("emp", "age")}
    assert built[0] == built[1]
    # 160 endpoints at p = 1/2: an unseeded pair would differ somewhere
    assert max(level for _, level in built[0][("emp", "sal")]) > 1
