"""Unit and property tests for the interval index structures.

The headline property: for arbitrary interval sets and probe points, the
interval skip list and the IBS tree return exactly the intervals a brute
force scan returns (DESIGN.md invariant 1).
"""

import pytest
from hypothesis import given, strategies as st

from repro.intervals.interval import (
    Interval, NEG_INF, POS_INF, key_eq, key_le, key_lt)
from repro.intervals.ibstree import IBSTree
from repro.intervals.skiplist import IntervalSkipList


# ----------------------------------------------------------------------
# sentinels and Interval
# ----------------------------------------------------------------------

class TestSentinels:
    def test_neg_inf_below_everything(self):
        assert key_lt(NEG_INF, -10**18)
        assert key_lt(NEG_INF, "a")
        assert not key_lt(-10**18, NEG_INF)
        assert not key_lt(NEG_INF, NEG_INF)

    def test_pos_inf_above_everything(self):
        assert key_lt(10**18, POS_INF)
        assert key_lt("zzz", POS_INF)
        assert not key_lt(POS_INF, 10**18)
        assert not key_lt(POS_INF, POS_INF)

    def test_inf_ordering(self):
        assert key_lt(NEG_INF, POS_INF)
        assert not key_lt(POS_INF, NEG_INF)

    def test_key_eq(self):
        assert key_eq(NEG_INF, NEG_INF)
        assert key_eq(POS_INF, POS_INF)
        assert not key_eq(NEG_INF, POS_INF)
        assert not key_eq(NEG_INF, 0)
        assert key_eq(3, 3)
        assert key_eq(3, 3.0)

    def test_key_le(self):
        assert key_le(3, 3)
        assert key_le(NEG_INF, 3)
        assert not key_le(POS_INF, 3)

    def test_native_comparison_operators(self):
        assert NEG_INF < 5 and not (5 < NEG_INF)
        assert 5 < POS_INF and not (POS_INF < 5)


class TestInterval:
    def test_closed_contains(self):
        iv = Interval(1, 5)
        assert iv.contains_value(1)
        assert iv.contains_value(5)
        assert iv.contains_value(3)
        assert not iv.contains_value(0)
        assert not iv.contains_value(6)

    def test_open_endpoints(self):
        iv = Interval(1, 5, low_closed=False, high_closed=False)
        assert not iv.contains_value(1)
        assert not iv.contains_value(5)
        assert iv.contains_value(2)

    def test_point(self):
        iv = Interval.point(7)
        assert iv.contains_value(7)
        assert not iv.contains_value(6)

    def test_empty_intervals_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 1)
        with pytest.raises(ValueError):
            Interval(5, 5, low_closed=False)

    def test_at_least(self):
        iv = Interval.at_least(10, closed=False)
        assert not iv.contains_value(10)
        assert iv.contains_value(10**12)
        iv2 = Interval.at_least(10)
        assert iv2.contains_value(10)

    def test_at_most(self):
        iv = Interval.at_most(10)
        assert iv.contains_value(10)
        assert iv.contains_value(-10**12)
        assert not iv.contains_value(11)

    def test_everything(self):
        iv = Interval.everything()
        assert iv.contains_value(0)
        assert iv.contains_value("abc")

    def test_contains_interval_closure(self):
        iv = Interval(1, 5, low_closed=False)
        assert not iv.contains_interval(1, 3)
        assert iv.contains_interval(2, 5)
        assert iv.contains_open_interval(1, 5)

    def test_payload_distinguishes(self):
        assert Interval(1, 2, payload="a") != Interval(1, 2, payload="b")

    def test_str(self):
        assert str(Interval(1, 5, low_closed=False)) == "(1, 5]"

    def test_string_intervals(self):
        iv = Interval("apple", "mango")
        assert iv.contains_value("banana")
        assert not iv.contains_value("zebra")


# ----------------------------------------------------------------------
# index structure unit tests (parametrised over both structures)
# ----------------------------------------------------------------------

@pytest.fixture(params=[IntervalSkipList, IBSTree],
                ids=["skiplist", "ibstree"])
def index_cls(request):
    return request.param


class TestIndexBasics:
    def test_empty_stab(self, index_cls):
        assert index_cls().stab(5) == set()

    def test_single_interval(self, index_cls):
        idx = index_cls()
        iv = Interval(10, 20, payload="r1")
        idx.insert(iv)
        assert idx.stab(15) == {iv}
        assert idx.stab(10) == {iv}
        assert idx.stab(20) == {iv}
        assert idx.stab(9) == set()
        assert idx.stab(21) == set()

    def test_open_endpoints_respected(self, index_cls):
        idx = index_cls()
        iv = Interval(10, 20, low_closed=False, high_closed=False)
        idx.insert(iv)
        assert idx.stab(10) == set()
        assert idx.stab(20) == set()
        assert idx.stab(10.5) == {iv}

    def test_point_interval(self, index_cls):
        idx = index_cls()
        iv = Interval.point(42, payload="eq")
        idx.insert(iv)
        assert idx.stab(42) == {iv}
        assert idx.stab(41) == set()
        assert idx.stab(43) == set()

    def test_unbounded_intervals(self, index_cls):
        idx = index_cls()
        above = Interval.at_least(100, closed=False, payload="gt")
        below = Interval.at_most(100, payload="le")
        idx.insert(above)
        idx.insert(below)
        assert idx.stab(50) == {below}
        assert idx.stab(100) == {below}
        assert idx.stab(101) == {above}
        assert idx.stab(10**15) == {above}
        assert idx.stab(-10**15) == {below}

    def test_overlapping_intervals(self, index_cls):
        idx = index_cls()
        a = Interval(0, 10, payload="a")
        b = Interval(5, 15, payload="b")
        c = Interval(8, 9, payload="c")
        for iv in (a, b, c):
            idx.insert(iv)
        assert idx.stab(3) == {a}
        assert idx.stab(7) == {a, b}
        assert idx.stab(8.5) == {a, b, c}
        assert idx.stab(12) == {b}

    def test_duplicate_bounds_distinct_payloads(self, index_cls):
        idx = index_cls()
        a = Interval(1, 5, payload="x")
        b = Interval(1, 5, payload="y")
        idx.insert(a)
        idx.insert(b)
        assert idx.stab(3) == {a, b}
        assert {iv.payload for iv in idx.stab(3)} == {"x", "y"}

    def test_duplicate_interval_rejected(self, index_cls):
        idx = index_cls()
        iv = Interval(1, 5)
        idx.insert(iv)
        with pytest.raises(ValueError):
            idx.insert(iv)

    def test_remove(self, index_cls):
        idx = index_cls()
        a = Interval(0, 10, payload="a")
        b = Interval(5, 15, payload="b")
        idx.insert(a)
        idx.insert(b)
        idx.remove(a)
        assert idx.stab(7) == {b}
        assert idx.stab(3) == set()
        assert len(idx) == 1

    def test_remove_absent_raises(self, index_cls):
        with pytest.raises(ValueError):
            index_cls().remove(Interval(1, 2))

    def test_contains_and_iter(self, index_cls):
        idx = index_cls()
        iv = Interval(1, 5)
        idx.insert(iv)
        assert iv in idx
        assert Interval(1, 6) not in idx
        assert list(idx) == [iv]

    def test_stab_none_rejected(self, index_cls):
        with pytest.raises(ValueError):
            index_cls().stab(None)

    def test_shared_endpoints(self, index_cls):
        idx = index_cls()
        a = Interval(0, 5, payload="a")
        b = Interval(5, 10, payload="b")
        idx.insert(a)
        idx.insert(b)
        assert idx.stab(5) == {a, b}
        idx.remove(a)
        assert idx.stab(5) == {b}

    def test_reinsert_after_remove(self, index_cls):
        idx = index_cls()
        iv = Interval(0, 5)
        idx.insert(iv)
        idx.remove(iv)
        idx.insert(iv)
        assert idx.stab(2) == {iv}

    def test_string_keyed_intervals(self, index_cls):
        idx = index_cls()
        iv = Interval("b", "m", payload="strs")
        idx.insert(iv)
        assert idx.stab("d") == {iv}
        assert idx.stab("z") == set()

    def test_many_disjoint(self, index_cls):
        """The paper's benchmark shape: shifted disjoint ranges."""
        idx = index_cls()
        ivs = [Interval(1000 * i, 1000 * i + 500, payload=i)
               for i in range(100)]
        for iv in ivs:
            idx.insert(iv)
        for i in (0, 17, 50, 99):
            assert idx.stab(1000 * i + 250) == {ivs[i]}
            assert idx.stab(1000 * i + 750) == set()

    def test_nested_intervals(self, index_cls):
        idx = index_cls()
        ivs = [Interval(i, 100 - i, payload=i) for i in range(40)]
        for iv in ivs:
            idx.insert(iv)
        assert idx.stab(50) == set(ivs)
        assert idx.stab(5) == set(ivs[:6])
        # Peel off the outermost layers.
        for iv in ivs[:10]:
            idx.remove(iv)
        assert idx.stab(50) == set(ivs[10:])
        assert idx.stab(5) == set()


class TestSkipListInternals:
    def test_invariants_after_churn(self):
        idx = IntervalSkipList(seed=7)
        ivs = [Interval(i % 13, i % 13 + (i % 7) + 1, payload=i)
               for i in range(60)]
        for iv in ivs:
            idx.insert(iv)
            idx.check_invariants()
        for iv in ivs[::2]:
            idx.remove(iv)
            idx.check_invariants()

    def test_node_count_tracks_distinct_endpoints(self):
        idx = IntervalSkipList(seed=1)
        idx.insert(Interval(1, 5))
        idx.insert(Interval(1, 9, payload="p"))
        assert idx.node_count == 3
        idx.remove(Interval(1, 5))
        assert idx.node_count == 2

    def test_marker_count_positive(self):
        idx = IntervalSkipList(seed=1)
        idx.insert(Interval(1, 5))
        assert idx.marker_count() > 0


class TestIBSTreeInternals:
    def test_rebuild_keeps_answers(self):
        idx = IBSTree()
        # Monotone insertion order would degenerate an unbalanced BST;
        # the scapegoat rebuild must keep the height logarithmic.
        ivs = [Interval(i, i + 3, payload=i) for i in range(200)]
        for iv in ivs:
            idx.insert(iv)
        assert idx.height() <= 2.0 * 9 + 8   # ~2*log2(401)+slack
        assert idx.stab(100.5) == {ivs[98], ivs[99], ivs[100]}

    def test_tombstone_compaction(self):
        idx = IBSTree()
        ivs = [Interval(10 * i, 10 * i + 5, payload=i) for i in range(50)]
        for iv in ivs:
            idx.insert(iv)
        for iv in ivs[:40]:
            idx.remove(iv)
        assert idx.node_count < 60
        for iv in ivs[40:]:
            assert idx.stab(iv.low + 1) == {iv}


# ----------------------------------------------------------------------
# property tests vs brute force
# ----------------------------------------------------------------------

def brute_force(intervals, value):
    return {iv for iv in intervals if iv.contains_value(value)}


_bound = st.integers(-25, 25)


@st.composite
def interval_strategy(draw, payload):
    kind = draw(st.integers(0, 3))
    if kind == 0:          # point
        v = draw(_bound)
        return Interval.point(v, payload=payload)
    if kind == 1:          # one-sided above
        return Interval.at_least(draw(_bound), closed=draw(st.booleans()),
                                 payload=payload)
    if kind == 2:          # one-sided below
        return Interval.at_most(draw(_bound), closed=draw(st.booleans()),
                                payload=payload)
    lo = draw(_bound)
    hi = draw(st.integers(lo, 26))
    lo_c = draw(st.booleans())
    hi_c = draw(st.booleans())
    if lo == hi:
        lo_c = hi_c = True
    return Interval(lo, hi, lo_c, hi_c, payload=payload)


@st.composite
def interval_sets(draw):
    n = draw(st.integers(0, 25))
    return [draw(interval_strategy(payload=i)) for i in range(n)]


@given(interval_sets(),
       st.lists(st.one_of(_bound,
                          st.floats(-26, 26, allow_nan=False)),
                min_size=1, max_size=15))
def test_skiplist_matches_brute_force(intervals, probes):
    idx = IntervalSkipList(seed=42)
    for iv in intervals:
        idx.insert(iv)
    idx.check_invariants()
    for p in probes:
        assert idx.stab(p) == brute_force(intervals, p), f"probe {p}"


@given(interval_sets(),
       st.lists(st.one_of(_bound,
                          st.floats(-26, 26, allow_nan=False)),
                min_size=1, max_size=15))
def test_ibstree_matches_brute_force(intervals, probes):
    idx = IBSTree()
    for iv in intervals:
        idx.insert(iv)
    for p in probes:
        assert idx.stab(p) == brute_force(intervals, p), f"probe {p}"


@given(interval_sets(), st.data())
def test_indexes_match_brute_force_under_removal(intervals, data):
    """Insert everything, remove a random subset, compare all probes."""
    isl = IntervalSkipList(seed=3)
    ibs = IBSTree()
    for iv in intervals:
        isl.insert(iv)
        ibs.insert(iv)
    keep = list(intervals)
    if intervals:
        n_remove = data.draw(st.integers(0, len(intervals)))
        for _ in range(n_remove):
            i = data.draw(st.integers(0, len(keep) - 1))
            iv = keep.pop(i)
            isl.remove(iv)
            ibs.remove(iv)
    isl.check_invariants()
    for p in range(-27, 28):
        expected = brute_force(keep, p)
        assert isl.stab(p) == expected
        assert ibs.stab(p) == expected


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 8)),
                max_size=40))
def test_skiplist_interleaved_insert_remove(spans):
    """Interleave inserts and removals, checking invariants throughout."""
    idx = IntervalSkipList(seed=11)
    live: list[Interval] = []
    for n, (lo, width) in enumerate(spans):
        if n % 3 == 2 and live:
            iv = live.pop(n % len(live))
            idx.remove(iv)
        else:
            iv = Interval(lo, lo + width, payload=n)
            idx.insert(iv)
            live.append(iv)
        idx.check_invariants()
        for p in (0, 10, 20, 30, 40):
            assert idx.stab(p) == brute_force(live, p)
