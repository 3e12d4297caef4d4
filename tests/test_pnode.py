"""Tests for P-nodes and matches."""

from repro.core.alpha import MemoryEntry
from repro.core.pnode import Match, PNode
from repro.lang.expr import Bindings
from repro.storage.tuples import TupleId


def entry(relation, slot, *values, old=None):
    return MemoryEntry(TupleId(relation, slot), tuple(values), old)


def match(**parts):
    return Match.of(parts)


class TestMatch:
    def test_entry_lookup(self):
        m = match(emp=entry("emp", 0, "Ann"), dept=entry("dept", 1, "Toy"))
        assert m.entry("emp").values == ("Ann",)
        assert m.variables() == ("dept", "emp")

    def test_involves_tid(self):
        m = match(emp=entry("emp", 0, "Ann"))
        assert m.involves_tid(TupleId("emp", 0))
        assert not m.involves_tid(TupleId("emp", 1))

    def test_extend_binds_everything(self):
        m = match(emp=entry("emp", 0, "Ann", old=("Zoe",)),
                  dept=entry("dept", 1, "Toy"))
        bound = m.extend(Bindings())
        assert bound.current["emp"] == ("Ann",)
        assert bound.previous["emp"] == ("Zoe",)
        assert bound.tids["dept"] == TupleId("dept", 1)
        assert "dept" not in bound.previous

    def test_extend_does_not_mutate_outer(self):
        outer = Bindings()
        match(emp=entry("emp", 0, "A")).extend(outer)
        assert outer.current == {}

    def test_equality(self):
        a = match(emp=entry("emp", 0, "Ann"))
        b = match(emp=entry("emp", 0, "Ann"))
        assert a == b


class TestPNode:
    def make(self):
        return PNode("r", ["dept", "emp"])

    def test_insert_dedup(self):
        pnode = self.make()
        m = match(emp=entry("emp", 0, "A"), dept=entry("dept", 0, "D"))
        assert pnode.insert(m, stamp=1)
        assert not pnode.insert(m, stamp=2)
        assert len(pnode) == 1

    def test_insert_same_tids_new_values_updates(self):
        pnode = self.make()
        pnode.insert(match(emp=entry("emp", 0, "A"),
                           dept=entry("dept", 0, "D")), 1)
        assert pnode.insert(match(emp=entry("emp", 0, "B"),
                                  dept=entry("dept", 0, "D")), 2)
        assert len(pnode) == 1
        assert pnode.matches()[0].entry("emp").values == ("B",)

    def test_delete_by_tid(self):
        pnode = self.make()
        pnode.insert(match(emp=entry("emp", 0, "A"),
                           dept=entry("dept", 0, "D")), 1)
        pnode.insert(match(emp=entry("emp", 1, "B"),
                           dept=entry("dept", 0, "D")), 2)
        assert pnode.delete_by_tid(TupleId("emp", 0)) == 1
        assert len(pnode) == 1
        assert pnode.delete_by_tid(TupleId("dept", 0)) == 1
        assert len(pnode) == 0

    def test_recency_stamp(self):
        pnode = self.make()
        pnode.insert(match(emp=entry("emp", 0, "A"),
                           dept=entry("dept", 0, "D")), 5)
        pnode.insert(match(emp=entry("emp", 1, "B"),
                           dept=entry("dept", 0, "D")), 9)
        assert pnode.last_insert_stamp == 9

    def test_take_all_consumes(self):
        pnode = self.make()
        pnode.insert(match(emp=entry("emp", 0, "A"),
                           dept=entry("dept", 0, "D")), 1)
        taken = pnode.take_all()
        assert len(taken) == 1
        assert len(pnode) == 0
        assert not pnode

    def test_bool(self):
        pnode = self.make()
        assert not pnode
        pnode.insert(match(emp=entry("emp", 0, "A"),
                           dept=entry("dept", 0, "D")), 1)
        assert pnode
