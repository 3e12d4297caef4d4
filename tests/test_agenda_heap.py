"""The heap agenda selects what the scanning agenda selects.

:class:`ScanAgenda` is the agenda as it was before it became a heap:
every selection scans every notified rule.  The property drives both
through the same random steps — notify, insert a match (which notifies,
as the network does), drain a P-node (which the network reports to the
heap), consume a firing's matches, discard, redefine a rule with a new
priority (discard, then a fresh rule object and an empty P-node, as
deactivation and activation do) and remove a rule for good (discard,
as deactivation does) — and after every step both must pick the same
rule, have dropped as many stale names, and hold as many.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core.agenda import Agenda
from repro.core.alpha import MemoryEntry
from repro.core.pnode import Match, PNode
from repro.observe import EngineStats
from repro.storage.tuples import TupleId


class ScanAgenda:
    """The reference: a scan over the notified rules per selection."""

    def __init__(self):
        self._notified: dict[str, None] = {}
        self.stale_dropped = 0

    def notify(self, rule) -> None:
        self._notified[rule.name] = None

    def discard(self, rule_name: str) -> None:
        self._notified.pop(rule_name, None)

    def select(self, rules, pnode_of):
        best = None
        best_key = None
        stale = []
        for name in self._notified:
            rule = rules.get(name)
            if rule is None:
                stale.append(name)
                continue
            pnode = pnode_of(name)
            if not pnode:
                stale.append(name)
                continue
            key = (rule.priority, pnode.last_insert_stamp, rule.name)
            if best_key is None or key > best_key:
                best, best_key = rule, key
        for name in stale:
            self._notified.pop(name, None)
        self.stale_dropped += len(stale)
        return best

    def __len__(self) -> int:
        return len(self._notified)


class _Rule:
    def __init__(self, name, priority):
        self.name = name
        self.priority = priority


NAMES = ["a", "ab", "b", "ba", "c", "z"]

_name = st.sampled_from(NAMES)
_step = st.one_of(
    st.tuples(st.just("notify"), _name),
    # a match with the next stamp, or with a small fixed one (so equal
    # stamps tie across rules and fall through to the name)
    st.tuples(st.just("insert"), _name, st.sampled_from([None, 0, 1, 2])),
    st.tuples(st.just("drain"), _name),
    st.tuples(st.just("consume"), _name),
    st.tuples(st.just("discard"), _name),
    st.tuples(st.just("redefine"), _name, st.integers(0, 3)),
    st.tuples(st.just("remove"), _name),
)


class World:
    """Rules, P-nodes and the two agendas fed the same steps."""

    def __init__(self, priorities):
        self.rules = {name: _Rule(name, p)
                      for name, p in zip(NAMES, priorities)}
        self.pnodes = {name: PNode(name, ["t"]) for name in NAMES}
        self.retired: set[str] = set()
        self.heap, self.scan = Agenda(), ScanAgenda()
        self.heap.stats = EngineStats()
        self.stamp = 0
        self.slot = 0

    def notify(self, name):
        rule = self.rules[name]
        self.heap.notify(rule)
        self.scan.notify(rule)

    def step(self, op) -> None:
        kind, name = op[0], op[1]
        if name in self.retired:
            return
        pnode = self.pnodes[name]
        if kind == "notify":
            self.notify(name)
        elif kind == "insert":
            self.slot += 1
            self.stamp += 1
            stamp = self.stamp if op[2] is None else op[2]
            entry = MemoryEntry(TupleId("t", self.slot), (self.slot,))
            if pnode.insert(Match.of({"t": entry}), stamp):
                self.notify(name)
        elif kind == "drain":
            if pnode:                     # retracted; the network
                pnode.clear()             # reports the drain
                self.heap.drained(name)
        elif kind in ("consume", "discard"):
            if kind == "consume":
                pnode.take_all()
            self.heap.discard(name)
            self.scan.discard(name)
        elif kind == "redefine":
            self.heap.discard(name)
            self.scan.discard(name)
            self.rules[name] = _Rule(name, op[2])
            self.pnodes[name] = PNode(name, ["t"])
        else:                             # removed for good
            self.heap.discard(name)
            self.scan.discard(name)
            del self.rules[name]
            self.retired.add(name)

    def selections(self):
        pnode_of = self.pnodes.__getitem__
        picks = (self.heap.select(self.rules, pnode_of),
                 self.scan.select(self.rules, pnode_of))
        assert (self.heap.stats.get("agenda.stale_dropped")
                == self.scan.stale_dropped)
        assert len(self.heap) == len(self.scan)
        return picks


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=len(NAMES),
                max_size=len(NAMES)),
       st.lists(_step, max_size=60))
# a drained rule refilled between two selections the heap never saw it
# in, then a priority redefinition over a stale entry
@example([1, 1, 1, 1, 1, 1],
         [("insert", "a", None), ("insert", "b", None),
          ("drain", "a"), ("insert", "c", None), ("insert", "a", None),
          ("redefine", "b", 3), ("insert", "b", 0), ("remove", "c")])
# a keyed rule drained under a higher one's top entry, then refilled
# before it surfaces: both count it stale once
@example([0, 0, 1, 0, 0, 3],
         [("insert", "b", None), ("insert", "z", None), ("drain", "b"),
          ("insert", "b", None), ("consume", "z")])
# full ties on (priority, stamp): the greater name wins, prefixes too
@example([2, 2, 2, 2, 2, 2],
         [("insert", "a", 0), ("insert", "ab", 0), ("insert", "z", 0),
          ("consume", "z"), ("insert", "b", 0), ("insert", "ba", 0)])
def test_heap_selects_what_the_scan_selects(priorities, steps):
    world = World(priorities)
    for op in steps:
        world.step(op)
        assert len(world.heap) == len(world.scan)
        heap_pick, scan_pick = world.selections()
        assert heap_pick is scan_pick
    # whatever is left drains in the same order
    for _ in NAMES:
        heap_pick, scan_pick = world.selections()
        assert heap_pick is scan_pick
        if heap_pick is None:
            break
        world.step(("consume", heap_pick.name))


def test_a_removed_rule_is_not_kept_alive_by_its_entry():
    """Heap entries hold names and numbers only: a rule removed while
    its entry is still in the heap can be collected."""
    import gc
    import weakref
    agenda = Agenda()
    rules = {"r": _Rule("r", 1), "s": _Rule("s", 2)}
    pnodes = {name: PNode(name, ["t"]) for name in rules}
    for slot, name in enumerate(rules):
        pnodes[name].insert(Match.of({"t": MemoryEntry(
            TupleId("t", slot), (slot,))}), slot + 1)
        agenda.notify(rules[name])
    assert agenda.select(rules, pnodes.__getitem__) is rules["s"]
    ref = weakref.ref(rules.pop("r"))
    gc.collect()
    assert ref() is None
    assert len(agenda._heap) == 2


def test_a_drained_rule_refilled_before_it_surfaces_counts_stale():
    """``lo`` is keyed under ``c`` and ``d``.  ``c``'s firing retracts
    its match, so the selection that picks ``d`` drops ``lo`` as stale,
    and ``d``'s firing matches ``lo`` again: the network's drain report
    makes the heap count that drop, as a scan over the notified rules
    does."""
    from repro import Database
    db = Database()
    db.execute_script("""
        create t (x = int4)
        create s (x = int4)
        create r (x = int4)
        create log (x = int4)
    """)
    db.execute("define rule c priority 10 if s.x = 1 then delete t")
    db.execute("define rule d priority 5 if r.x = 1 "
               "then append to t(x = 7)")
    db.execute("define rule lo priority 1 if t.x > 0 "
               "then append to log(x = t.x)")
    stale = db.stats.get("agenda.stale_dropped")
    db.execute("do append t(x = 3) append s(x = 1) append r(x = 1) end")
    assert [record.rule_name for record in db.firing_log] == ["c", "d", "lo"]
    assert db.relation_rows("log") == [(7,)]
    assert db.stats.get("agenda.stale_dropped") == stale + 1
