"""Recognize-act correctness: the cascade guard, undo-backed recovery
from failed rule actions, and agenda stale-notification pruning."""

import pytest

from repro import Database
from repro.core.agenda import Agenda
from repro.core.alpha import MemoryEntry
from repro.core.pnode import Match, PNode
from repro.errors import ExecutionError, RuleError, RuleLoopError
from repro.observe import EngineStats
from repro.storage.tuples import TupleId


def network_state(db):
    """(α-memory entries, P-node match keys) — the network's view of
    the world, for comparison against a rebuilt database."""
    alphas = {}
    for key, memory in sorted(db.network._memories.items()):
        if hasattr(memory, "_entries"):
            alphas[key] = sorted(
                (entry.tid.slot, entry.values)
                for entry in memory.entries())
    pnodes = {
        name: sorted(
            tuple(entry.tid.slot for _, entry in match.bindings)
            for match in db.network.pnode(name).matches())
        for name in db.network.rules}
    return alphas, pnodes


class TestCascadeGuard:
    def _mutual_trigger_db(self, limit):
        db = Database(max_firings=limit)
        db.execute_script("""
            create a (n = int4)
            create b (n = int4)
        """)
        db.execute("define rule ra if a.n > 0 "
                   "then append to b(n = a.n)")
        db.execute("define rule rb if b.n > 0 "
                   "then append to a(n = b.n)")
        return db

    def test_mutual_trigger_raises_not_hangs(self):
        db = self._mutual_trigger_db(40)
        with pytest.raises(RuleLoopError):
            db.execute("append a(n = 1)")

    def test_error_names_the_cycling_rules(self):
        db = self._mutual_trigger_db(40)
        with pytest.raises(RuleLoopError) as err:
            db.execute("append a(n = 1)")
        message = str(err.value)
        assert "ra" in message and "rb" in message
        assert "40" in message

    def test_rule_loop_error_is_a_rule_error(self):
        assert issubclass(RuleLoopError, RuleError)

    def test_network_consistent_after_breach(self):
        db = self._mutual_trigger_db(40)
        with pytest.raises(RuleLoopError):
            db.execute("append a(n = 1)")
        # completed firings persist; the network must agree with the
        # heap exactly (every α-memory entry backed by a stored tuple)
        for relation in ("a", "b"):
            heap = {tid.slot for tid in
                    (s.tid for s in db.catalog.relation(relation).scan())}
            for key, memory in db.network._memories.items():
                if not hasattr(memory, "_entries"):
                    continue
                for entry in memory.entries():
                    if entry.tid.relation == relation:
                        assert entry.tid.slot in heap
        # and the engine stays usable with the rules removed
        db.execute("remove rule ra")
        db.execute("remove rule rb")
        db.execute("append a(n = 5)")

    def test_max_firings_is_settable_after_construction(self):
        db = self._mutual_trigger_db(1000)
        db.max_firings = 10
        assert db.manager.max_rule_cascade == 10
        with pytest.raises(RuleLoopError) as err:
            db.execute("append a(n = 1)")
        assert "10" in str(err.value)

    def test_cascade_depth_counter(self):
        db = self._mutual_trigger_db(40)
        with pytest.raises(RuleLoopError):
            db.execute("append a(n = 1)")
        assert db.stats.get("rules.max_cascade_depth") >= 40


def rebuild_from_heap(db):
    """A fresh database with the same schema, data and rules — the
    ground truth the recovered network must match."""
    from repro import persist
    return persist.loads(persist.dumps(db))


class TestFailedActionRecovery:
    def _failing_db(self):
        db = Database()
        db.execute_script("""
            create t (a = int4)
            create log (a = int4)
        """)
        db.execute("define rule watcher if log.a > 0 "
                   "then append to t(a = 0 - log.a)")
        db.execute("define rule bad on append t if t.a > 10 "
                   "then append to log(a = t.a / (t.a - t.a))")
        return db

    def test_network_matches_rebuilt_after_failed_action(self):
        db = self._failing_db()
        db.execute("append t(a = 1)")
        with pytest.raises(ExecutionError):
            db.execute("append t(a = 99)")
        rebuilt = rebuild_from_heap(db)
        assert sorted(db.relation_rows("t")) \
            == sorted(rebuilt.relation_rows("t"))
        assert network_state(db)[0] == network_state(rebuilt)[0]

    def test_partial_action_effects_rolled_back(self):
        db = Database()
        db.execute_script("""
            create t (a = int4)
            create log (a = int4)
        """)
        # the action writes one log row per match; with a match whose
        # expression faults, earlier rows of the same firing roll back
        db.execute("define rule bad on append t "
                   "then append to log(a = 10 / t.a)")
        with pytest.raises(ExecutionError):
            db.execute("do append t(a = 1) append t(a = 0) end")
        # the firing's partial output is gone from heap and network
        assert db.relation_rows("log") == []
        rebuilt = rebuild_from_heap(db)
        assert network_state(db)[0] == network_state(rebuilt)[0]

    def test_triggering_tuple_persists(self):
        db = self._failing_db()
        with pytest.raises(ExecutionError):
            db.execute("append t(a = 50)")
        assert (50,) in db.relation_rows("t")

    def test_engine_usable_after_recovery(self):
        db = self._failing_db()
        with pytest.raises(ExecutionError):
            db.execute("append t(a = 99)")
        db.execute("remove rule bad")
        db.execute("append t(a = 77)")
        db.execute("append log(a = 3)")          # watcher still fires
        assert (-3,) in db.relation_rows("t")

    def test_explicit_transaction_still_owned_by_abort(self):
        db = self._failing_db()
        db.begin()
        with pytest.raises(ExecutionError):
            db.execute("append t(a = 99)")
        db.abort()
        assert db.relation_rows("t") == []
        rebuilt = rebuild_from_heap(db)
        assert network_state(db)[0] == network_state(rebuilt)[0]


def _rule(name, priority=0.0):
    class Stub:
        pass
    stub = Stub()
    stub.name = name
    stub.priority = priority
    return stub


def _pnode_with_match(name, slot=0, stamp=1):
    pnode = PNode(name, ["t"])
    entry = MemoryEntry(TupleId("t", slot), (slot,))
    pnode.insert(Match.of({"t": entry}), stamp=stamp)
    return pnode


class TestAgendaStalePruning:
    def test_deactivated_rule_notification_dropped(self):
        agenda = Agenda()
        agenda.notify(_rule("gone"))
        live = _rule("live")
        agenda.notify(live)
        pnodes = {"live": _pnode_with_match("live")}
        # "gone" is no longer in the active-rule map (deactivated)
        selected = agenda.select({"live": live}, pnodes.__getitem__)
        assert selected is live
        assert len(agenda) == 1          # stale name pruned

    def test_drained_pnode_notification_dropped(self):
        agenda = Agenda()
        drained = _rule("drained")
        agenda.notify(drained)
        empty = PNode("drained", ["t"])
        selected = agenda.select({"drained": drained},
                                 {"drained": empty}.__getitem__)
        assert selected is None
        assert len(agenda) == 0

    def test_priority_dominates_recency(self):
        agenda = Agenda()
        low = _rule("low", priority=1.0)
        high = _rule("high", priority=5.0)
        agenda.notify(low)
        agenda.notify(high)
        pnodes = {"low": _pnode_with_match("low", stamp=100),
                  "high": _pnode_with_match("high", stamp=1)}
        assert agenda.select({"low": low, "high": high},
                             pnodes.__getitem__) is high

    def test_stamp_breaks_priority_ties(self):
        agenda = Agenda()
        old = _rule("old")
        new = _rule("new")
        agenda.notify(old)
        agenda.notify(new)
        pnodes = {"old": _pnode_with_match("old", stamp=1),
                  "new": _pnode_with_match("new", stamp=2)}
        assert agenda.select({"old": old, "new": new},
                             pnodes.__getitem__) is new

    def test_name_breaks_full_ties(self):
        agenda = Agenda()
        a = _rule("aaa")
        z = _rule("zzz")
        agenda.notify(a)
        agenda.notify(z)
        pnodes = {"aaa": _pnode_with_match("aaa", stamp=1),
                  "zzz": _pnode_with_match("zzz", stamp=1)}
        assert agenda.select({"aaa": a, "zzz": z},
                             pnodes.__getitem__) is z

    def test_stale_pruning_counters(self):
        agenda = Agenda()
        agenda.stats = EngineStats()
        agenda.notify(_rule("gone"))
        agenda.select({}, dict().__getitem__)
        assert agenda.stats.get("agenda.selections") == 1
        assert agenda.stats.get("agenda.stale_dropped") == 1
