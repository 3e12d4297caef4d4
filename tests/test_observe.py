"""Engine observability: counters, trace hooks, and their wiring."""

import io
import json

import pytest

from repro import Database
from repro.cli import Shell
from repro.observe import NULL_STATS, EngineStats, TraceHub


class TestEngineStats:
    def test_bump_and_get(self):
        stats = EngineStats()
        stats.bump("a.b")
        stats.bump("a.b", 4)
        assert stats.get("a.b") == 5
        assert stats.get("missing") == 0

    def test_disabled_bump_is_noop(self):
        stats = EngineStats(enabled=False)
        stats.bump("a.b")
        assert stats.get("a.b") == 0
        assert stats.snapshot() == {}

    def test_observe_max(self):
        stats = EngineStats()
        stats.observe_max("depth", 3)
        stats.observe_max("depth", 7)
        stats.observe_max("depth", 5)
        assert stats.get("depth") == 7

    def test_reset_clears_every_counter(self):
        stats = EngineStats()
        stats.bump("x")
        stats.bump("y", 10)
        stats.observe_max("z", 2)
        stats.reset()
        assert stats.snapshot() == {}
        assert stats.get("x") == 0
        # the registry keeps working after reset
        stats.bump("x")
        assert stats.get("x") == 1

    def test_hit_rate(self):
        stats = EngineStats()
        assert stats.hit_rate("h", "m") is None
        stats.bump("h", 3)
        stats.bump("m", 1)
        assert stats.hit_rate("h", "m") == pytest.approx(0.75)

    def test_to_json_round_trips_with_extras(self):
        stats = EngineStats()
        stats.bump("tokens.routed", 42)
        payload = json.loads(stats.to_json(workload="unit", rows=7))
        assert payload["counters"] == {"tokens.routed": 42}
        assert payload["workload"] == "unit"
        assert payload["rows"] == 7

    def test_report_renders_counters(self):
        stats = EngineStats()
        assert "no counters" in stats.report()
        stats.bump("alpha.inserts", 2)
        assert "alpha.inserts" in stats.report()
        assert "2" in stats.report()

    def test_note_tokens_routed(self):
        stats = EngineStats()
        stats.note_tokens_routed()
        stats.note_tokens_routed(5, batches=1)
        assert stats.get("tokens.routed") == 6
        assert stats.get("tokens.batches") == 1
        assert stats.get("selection.probes") == 6

    def test_note_tokens_routed_disabled(self):
        stats = EngineStats(enabled=False)
        stats.note_tokens_routed(5, batches=1)
        assert stats.get("tokens.routed") == 0

    def test_null_stats_shared_disabled(self):
        assert NULL_STATS.enabled is False
        NULL_STATS.bump("anything")
        assert NULL_STATS.snapshot() == {}


class TestTraceHub:
    def test_on_emit_off(self):
        hub = TraceHub()
        seen = []
        token = hub.on(lambda e, p: seen.append((e, p)), "rule_fired")
        assert hub.wants("rule_fired")
        assert not hub.wants("token_routed")
        hub.emit("rule_fired", {"rule": "r"})
        assert seen == [("rule_fired", {"rule": "r"})]
        assert hub.off(token) is True
        assert hub.off(token) is False
        assert not hub.wants("rule_fired")

    def test_none_subscribes_to_all_events(self):
        hub = TraceHub()
        seen = []
        hub.on(lambda e, p: seen.append(e))
        hub.emit("rule_fired", {})
        hub.emit("token_routed", {})
        hub.emit("plan_executed", {})
        assert seen == ["rule_fired", "token_routed", "plan_executed"]

    def test_unknown_event_rejected(self):
        hub = TraceHub()
        # an empty list names no event: registering nothing must not
        # leave the hub listening
        for events in ("no_such_event", []):
            with pytest.raises(ValueError) as err:
                hub.on(lambda e, p: None, events)
            assert "rule_fired" in str(err.value)
            assert len(hub) == 0 and not hub.listening


@pytest.fixture
def db():
    database = Database()
    database.execute_script("""
        create emp (name = text, sal = float8)
        create log (name = text)
    """)
    return database


class TestDatabaseCounters:
    def test_transition_and_firing_counters(self, db):
        db.execute("define rule r if emp.sal > 100.0 "
                   "then append to log(emp.name)")
        db.execute('append emp(name = "a", sal = 500.0)')
        assert db.stats.get("tokens.routed") >= 1
        assert db.stats.get("rules.fired") == 1
        assert db.stats.get("rules.max_cascade_depth") >= 1
        assert db.stats.get("plans.executed") >= 2   # append + action
        assert db.stats.get("agenda.selections") >= 1
        assert db.stats.get("selection.probes") >= 1

    def test_statement_cache_counters(self, db):
        db.execute('append emp(name = "a", sal = 1.0)')
        db.execute('append emp(name = "a", sal = 1.0)')
        assert db.stats.get("stmt_cache.misses") >= 1
        assert db.stats.get("stmt_cache.hits") >= 1

    def test_disable_freezes_counters(self, db):
        db.execute('append emp(name = "a", sal = 1.0)')
        db.stats.enabled = False
        before = db.stats.snapshot()
        db.execute('append emp(name = "b", sal = 2.0)')
        assert db.stats.snapshot() == before

    def test_reset_mid_session(self, db):
        # a rule on emp: tokens of a relation no rule names are not made
        db.execute("define rule r if emp.sal > 100.0 "
                   "then append to log(emp.name)")
        db.execute('append emp(name = "a", sal = 1.0)')
        assert db.stats.snapshot()
        db.stats.reset()
        assert db.stats.snapshot() == {}
        db.execute('append emp(name = "b", sal = 2.0)')
        assert db.stats.get("tokens.routed") >= 1

    def test_batched_routing_counters(self):
        db = Database()
        db.execute("create t (a = int4)")
        db.execute("create log (a = int4)")
        db.execute("define rule r if t.a > 0 then append to log(t.a)")
        db.bulk_append("t", [(1,), (2,), (3,)])
        assert db.stats.get("tokens.batches") >= 1
        assert db.stats.get("tokens.routed") >= 3


class TestDatabaseTraceEvents:
    def test_rule_fired_event(self, db):
        db.execute("define rule r if emp.sal > 100.0 "
                   "then append to log(emp.name)")
        events = []
        db.on_event(lambda e, p: events.append(p), "rule_fired")
        db.execute('append emp(name = "a", sal = 500.0)')
        assert len(events) == 1
        assert events[0]["rule"] == "r"
        assert events[0]["matches"] == 1

    def test_token_routed_event(self, db):
        events = []
        db.on_event(lambda e, p: events.append(p), "token_routed")
        db.execute('append emp(name = "a", sal = 500.0)')
        assert any(p["relation"] == "emp" and p["kind"] == "PLUS"
                   for p in events)

    def test_plan_executed_event_names_rule_actions(self, db):
        db.execute("define rule r if emp.sal > 100.0 "
                   "then append to log(emp.name)")
        events = []
        db.on_event(lambda e, p: events.append(p), "plan_executed")
        db.execute('append emp(name = "a", sal = 500.0)')
        commands = [p["command"] for p in events]
        assert "Append" in commands
        assert any(p.get("rule") == "r" for p in events)

    def test_off_event_stops_delivery(self, db):
        events = []
        token = db.on_event(lambda e, p: events.append(p))
        db.execute('append emp(name = "a", sal = 1.0)')
        seen = len(events)
        assert db.off_event(token) is True
        db.execute('append emp(name = "b", sal = 2.0)')
        assert len(events) == seen


class TestCliObservability:
    def _shell(self):
        out = io.StringIO()
        shell = Shell(Database(), out=out)
        return shell, out

    def test_stats_meta_command(self):
        shell, out = self._shell()
        shell.feed("create t (a = int4);")
        shell.feed("create log (a = int4);")
        shell.feed("define rule r if t.a > 5 then append to log(t.a);")
        shell.feed("append t(a = 1);")
        shell.feed("\\stats")
        text = out.getvalue()
        assert "tokens.routed" in text
        shell.feed("\\stats reset")
        assert "counters reset" in out.getvalue()

    def test_trace_toggle_prints_firings_live(self):
        shell, out = self._shell()
        shell.feed("create t (a = int4);")
        shell.feed("create log (a = int4);")
        shell.feed("define rule r if t.a > 0 then append to log(t.a);")
        shell.feed("\\trace on")
        shell.feed("append t(a = 5);")
        assert "[rule_fired] #1 r" in out.getvalue()
        shell.feed("\\trace off")
        shell.feed("append t(a = 6);")
        assert "[rule_fired] #2" not in out.getvalue()

    def test_bare_trace_still_lists_firing_log(self):
        shell, out = self._shell()
        shell.feed("\\trace")
        assert "no firings recorded" in out.getvalue()

    def test_explain_statement_renders_inline(self):
        """``explain analyze …`` typed as a plain statement prints the
        annotated plan, not the generic ``ok``."""
        shell, out = self._shell()
        shell.feed("create t (a = int4);")
        shell.feed("append t(a = 1);")
        shell.feed("explain analyze retrieve (t.a);")
        text = out.getvalue()
        assert "rows=1 loops=1" in text
        assert "Total: 1 row(s)" in text
