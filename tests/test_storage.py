"""Unit and property tests for heap relations and secondary indexes."""

import pytest
from hypothesis import given, strategies as st

from repro.catalog.schema import Schema
from repro.errors import StorageError
from repro.storage.heap import HeapRelation
from repro.storage.indexes import BTreeIndex, HashIndex, make_index
from repro.storage.tuples import StoredTuple, TupleId


def make_emp():
    return HeapRelation("emp", Schema.of(name="text", age="int",
                                         salary="float", dno="int"))


class TestTupleId:
    def test_equality(self):
        assert TupleId("emp", 3) == TupleId("emp", 3)
        assert TupleId("emp", 3) != TupleId("emp", 4)
        assert TupleId("emp", 3) != TupleId("dept", 3)

    def test_hashable(self):
        assert len({TupleId("emp", 1), TupleId("emp", 1)}) == 1

    def test_str(self):
        assert str(TupleId("emp", 7)) == "emp:7"


class TestStoredTuple:
    def test_indexing(self):
        stored = StoredTuple(TupleId("emp", 0), ("Ann", 30))
        assert stored[0] == "Ann"
        assert stored[1] == 30
        assert len(stored) == 2


class TestHeapBasics:
    def test_insert_assigns_fresh_tids(self):
        emp = make_emp()
        t1 = emp.insert(("Ann", 30, 100.0, 1))
        t2 = emp.insert(("Bob", 40, 200.0, 2))
        assert t1 != t2
        assert len(emp) == 2

    def test_get(self):
        emp = make_emp()
        tid = emp.insert(("Ann", 30, 100.0, 1))
        assert emp.get(tid) == ("Ann", 30, 100.0, 1)

    def test_delete_returns_values(self):
        emp = make_emp()
        tid = emp.insert(("Ann", 30, 100.0, 1))
        assert emp.delete(tid) == ("Ann", 30, 100.0, 1)
        assert len(emp) == 0
        assert not emp.contains(tid)

    def test_delete_dangling_raises(self):
        emp = make_emp()
        tid = emp.insert(("Ann", 30, 100.0, 1))
        emp.delete(tid)
        with pytest.raises(StorageError):
            emp.delete(tid)

    def test_replace_preserves_tid(self):
        emp = make_emp()
        tid = emp.insert(("Ann", 30, 100.0, 1))
        old = emp.replace(tid, ("Ann", 31, 120.0, 1))
        assert old == ("Ann", 30, 100.0, 1)
        assert emp.get(tid) == ("Ann", 31, 120.0, 1)

    def test_slots_not_reused(self):
        emp = make_emp()
        t1 = emp.insert(("Ann", 30, 100.0, 1))
        emp.delete(t1)
        t2 = emp.insert(("Bob", 40, 200.0, 2))
        assert t2.slot > t1.slot

    def test_restore_after_delete(self):
        emp = make_emp()
        tid = emp.insert(("Ann", 30, 100.0, 1))
        values = emp.delete(tid)
        emp.restore(tid, values)
        assert emp.get(tid) == values

    def test_restore_over_live_slot_raises(self):
        emp = make_emp()
        tid = emp.insert(("Ann", 30, 100.0, 1))
        with pytest.raises(StorageError):
            emp.restore(tid, ("X", 1, 1.0, 1))

    def test_scan_in_slot_order(self):
        emp = make_emp()
        names = ["C", "A", "B"]
        for i, name in enumerate(names):
            emp.insert((name, i, 0.0, 0))
        assert [s.values[0] for s in emp.scan()] == names

    def test_scan_order_is_slot_order_after_undo(self):
        """Only ``restore`` (undo of a delete) can put a low slot after
        higher ones; scans and the row view must still be sorted."""
        emp = make_emp()
        tids = [emp.insert((f"e{i}", i, 0.0, 0)) for i in range(6)]
        doomed = emp.delete(tids[1]), emp.delete(tids[4])
        emp.insert(("late", 6, 0.0, 0))
        emp.restore(tids[4], doomed[1])         # abort, newest first
        emp.restore(tids[1], doomed[0])
        emp.insert(("later", 7, 0.0, 0))
        assert [s.tid.slot for s in emp.scan()] == list(range(8))
        assert [slot for slot, _ in emp.items()] == list(range(8))
        assert [s.values[1] for s in emp.scan()] == list(range(8))
        # a restore of the newest slot leaves the order alone
        last = TupleId("emp", 7)
        values = emp.delete(last)
        emp.restore(last, values)
        assert not emp._unordered
        assert [slot for slot, _ in emp.items()] == list(range(8))

    def test_lookup_pairs_live_tids_with_values(self):
        emp = make_emp()
        tids = [emp.insert((f"e{i}", i, 0.0, 0)) for i in range(4)]
        emp.delete(tids[2])
        assert emp.lookup(reversed(tids)) == [
            (tids[3], ("e3", 3, 0.0, 0)), (tids[1], ("e1", 1, 0.0, 0)),
            (tids[0], ("e0", 0, 0.0, 0))]

    def test_scan_where(self):
        emp = make_emp()
        for i in range(10):
            emp.insert((f"p{i}", i, float(i), 0))
        old = list(emp.scan_where(lambda v: v[1] >= 5))
        assert len(old) == 5

    def test_fetch_skips_dead(self):
        emp = make_emp()
        t1 = emp.insert(("Ann", 30, 100.0, 1))
        t2 = emp.insert(("Bob", 40, 200.0, 2))
        emp.delete(t1)
        fetched = list(emp.fetch([t1, t2]))
        assert [s.tid for s in fetched] == [t2]

    def test_wrong_relation_tid(self):
        emp = make_emp()
        with pytest.raises(StorageError):
            emp.get(TupleId("dept", 0))

    def test_type_checking_on_insert(self):
        emp = make_emp()
        with pytest.raises(Exception):
            emp.insert(("Ann", "thirty", 100.0, 1))


class TestHashIndex:
    def test_search(self):
        idx = HashIndex("i", "emp", "dno", 3)
        idx.insert(1, TupleId("emp", 0))
        idx.insert(1, TupleId("emp", 1))
        idx.insert(2, TupleId("emp", 2))
        assert set(idx.search(1)) == {TupleId("emp", 0), TupleId("emp", 1)}
        assert set(idx.search(3)) == set()

    def test_none_not_indexed(self):
        idx = HashIndex("i", "emp", "dno", 3)
        nan = float("nan")
        idx.insert(None, TupleId("emp", 0))
        idx.insert(nan, TupleId("emp", 1))
        idx.insert(2.0, TupleId("emp", 2))
        assert len(idx) == 1
        assert idx.distinct_keys() == 1
        assert list(idx.search(None)) == []
        assert list(idx.search(nan)) == []
        idx.delete(None, TupleId("emp", 0))
        idx.delete(nan, TupleId("emp", 1))
        assert list(idx.search(2.0)) == [TupleId("emp", 2)]

    def test_delete(self):
        idx = HashIndex("i", "emp", "dno", 3)
        idx.insert(1, TupleId("emp", 0))
        idx.delete(1, TupleId("emp", 0))
        assert set(idx.search(1)) == set()

    def test_delete_absent_raises(self):
        idx = HashIndex("i", "emp", "dno", 3)
        with pytest.raises(StorageError):
            idx.delete(1, TupleId("emp", 0))

    def test_distinct_keys(self):
        idx = HashIndex("i", "emp", "dno", 3)
        for i in range(10):
            idx.insert(i % 3, TupleId("emp", i))
        assert idx.distinct_keys() == 3


class TestBTreeIndex:
    def build(self, keys):
        idx = BTreeIndex("i", "emp", "age", 1)
        for i, key in enumerate(keys):
            idx.insert(key, TupleId("emp", i))
        return idx

    def test_equality_search(self):
        idx = self.build([5, 3, 5, 8])
        assert len(list(idx.search(5))) == 2
        assert len(list(idx.search(4))) == 0

    def test_range_inclusive(self):
        idx = self.build(list(range(10)))
        tids = list(idx.range_search(3, 6))
        assert len(tids) == 4

    def test_range_exclusive(self):
        idx = self.build(list(range(10)))
        tids = list(idx.range_search(3, 6, low_inclusive=False,
                                     high_inclusive=False))
        assert len(tids) == 2

    def test_range_unbounded(self):
        idx = self.build(list(range(10)))
        assert len(list(idx.range_search(None, 4))) == 5
        assert len(list(idx.range_search(5, None))) == 5
        assert len(list(idx.range_search(None, None))) == 10

    def test_null_and_nan_not_indexed(self):
        nan = float("nan")
        idx = self.build([1.0, 1.0, nan, None, 3.0])
        assert len(idx) == 3
        assert list(idx.search(nan)) == []
        assert list(idx.search(None)) == []
        assert list(idx.search(1.0)) == [TupleId("emp", 0),
                                         TupleId("emp", 1)]
        assert list(idx.range_search(1.0, None)) == [
            TupleId("emp", 0), TupleId("emp", 1), TupleId("emp", 4)]
        idx.delete(nan, TupleId("emp", 2))
        idx.delete(None, TupleId("emp", 3))
        assert len(idx) == 3

    def test_delete(self):
        idx = self.build([5, 5])
        idx.delete(5, TupleId("emp", 0))
        assert list(idx.search(5)) == [TupleId("emp", 1)]

    def test_incomparable_key_raises(self):
        idx = self.build([5])
        with pytest.raises(StorageError):
            idx.insert("five", TupleId("emp", 9))

    def test_make_index_factory(self):
        assert make_index("hash", "i", "r", "a", 0).kind == "hash"
        assert make_index("BTREE", "i", "r", "a", 0).kind == "btree"
        with pytest.raises(StorageError):
            make_index("gin", "i", "r", "a", 0)


class TestHeapWithIndexes:
    def make_indexed(self):
        emp = make_emp()
        emp.attach_index(BTreeIndex("emp_age", "emp", "age", 1))
        emp.attach_index(HashIndex("emp_dno", "emp", "dno", 3))
        return emp

    def test_indexes_maintained_on_insert(self):
        emp = self.make_indexed()
        tid = emp.insert(("Ann", 30, 100.0, 1))
        assert list(emp.index_on("age").search(30)) == [tid]
        assert list(emp.index_on("dno").search(1)) == [tid]

    def test_indexes_maintained_on_delete(self):
        emp = self.make_indexed()
        tid = emp.insert(("Ann", 30, 100.0, 1))
        emp.delete(tid)
        assert list(emp.index_on("age").search(30)) == []

    def test_indexes_maintained_on_replace(self):
        emp = self.make_indexed()
        tid = emp.insert(("Ann", 30, 100.0, 1))
        emp.replace(tid, ("Ann", 31, 100.0, 2))
        assert list(emp.index_on("age").search(30)) == []
        assert list(emp.index_on("age").search(31)) == [tid]
        assert list(emp.index_on("dno").search(2)) == [tid]

    def test_attach_bulk_loads(self):
        emp = make_emp()
        tids = [emp.insert((f"p{i}", i, 0.0, 0)) for i in range(5)]
        emp.attach_index(BTreeIndex("emp_age", "emp", "age", 1))
        assert list(emp.index_on("age").search(3)) == [tids[3]]

    def test_index_on_kind_filter(self):
        emp = self.make_indexed()
        assert emp.index_on("age", "btree") is not None
        assert emp.index_on("age", "hash") is None
        assert emp.index_on("nope") is None

    def test_detach(self):
        emp = self.make_indexed()
        emp.detach_index("emp_age")
        assert emp.index_on("age") is None
        with pytest.raises(StorageError):
            emp.detach_index("emp_age")

    def test_duplicate_index_name(self):
        emp = self.make_indexed()
        with pytest.raises(StorageError):
            emp.attach_index(BTreeIndex("emp_age", "emp", "age", 1))

    def test_wrong_relation_index(self):
        emp = make_emp()
        with pytest.raises(StorageError):
            emp.attach_index(BTreeIndex("x", "dept", "age", 1))


# ----------------------------------------------------------------------
# property tests: heap + indexes stay consistent under random operations
# ----------------------------------------------------------------------

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 50)),
        st.tuples(st.just("delete"), st.integers(0, 200)),
        st.tuples(st.just("replace"), st.integers(0, 200),
                  st.integers(0, 50)),
    ),
    max_size=60,
)


@given(_ops)
def test_heap_index_consistency(ops):
    """Random inserts/deletes/replaces keep index contents equal to a
    from-scratch rebuild from the heap."""
    rel = HeapRelation("t", Schema.of(k="int"))
    rel.attach_index(BTreeIndex("bt", "t", "k", 0))
    rel.attach_index(HashIndex("h", "t", "k", 0))
    live: list[TupleId] = []
    for op in ops:
        if op[0] == "insert":
            live.append(rel.insert((op[1],)))
        elif op[0] == "delete" and live:
            rel.delete(live.pop(op[1] % len(live)))
        elif op[0] == "replace" and live:
            rel.replace(live[op[1] % len(live)], (op[2],))
    expected: dict[int, set[TupleId]] = {}
    for stored in rel.scan():
        expected.setdefault(stored.values[0], set()).add(stored.tid)
    for key, tids in expected.items():
        assert set(rel.index_on("k", "btree").search(key)) == tids
        assert set(rel.index_on("k", "hash").search(key)) == tids
    total = sum(len(t) for t in expected.values())
    assert len(rel.index_on("k", "btree")) == total
    assert len(rel.index_on("k", "hash")) == total
