"""Tests for α-memory kinds and the Figure-5 dispatch table."""

import pytest

from repro import Database
from repro.catalog.catalog import Catalog
from repro.catalog.schema import Schema
from repro.core import tokens as tok
from repro.core.alpha import (
    AlphaMemory, MemoryEntry, VirtualAlphaMemory, dispatch)
from repro.core.rules import CompiledRule, VariableSpec
from repro.core.tokens import EventSpecifier
from repro.lang.ast_nodes import EventKind, EventSpec
from repro.lang.parser import parse_command
from repro.lang.semantic import SemanticAnalyzer
from repro.storage.tuples import TupleId

TID = TupleId("emp", 0)
APPEND = EventSpecifier(EventKind.APPEND)
DELETE = EventSpecifier(EventKind.DELETE)


def replace_event(*attrs):
    return EventSpecifier(EventKind.REPLACE, tuple(attrs))


def spec(event_kind=None, event_attrs=(), transition=False, new=False,
         simple=False):
    event = (EventSpec(event_kind, "emp", tuple(event_attrs))
             if event_kind else None)
    return VariableSpec(var="emp", relation="emp", event=event,
                        is_transition=transition, is_new=new,
                        is_simple=simple)


def t_plus(event=APPEND):
    return tok.plus("emp", TID, ("Ann", 1.0), event)


def t_minus(event=None):
    return tok.minus("emp", TID, ("Ann", 1.0), event)


def t_dplus(event=None, attrs=("sal",)):
    event = event or replace_event(*attrs)
    return tok.delta_plus("emp", TID, ("Ann", 2.0), ("Ann", 1.0), event)


def t_dminus():
    return tok.delta_minus("emp", TID, ("Ann", 2.0), ("Ann", 1.0),
                           replace_event("sal"))


class TestPatternDispatch:
    """Row 'stored/virtual/simple-α' of Figure 5."""

    def test_plus_inserts(self):
        op = dispatch(spec(), t_plus())
        assert op.op == "insert"
        assert op.entry.values == ("Ann", 1.0)
        assert op.entry.old_values is None

    def test_minus_deletes(self):
        op = dispatch(spec(), t_minus())
        assert op.op == "delete"
        assert op.tid == TID

    def test_delta_plus_inserts_new_half(self):
        op = dispatch(spec(), t_dplus())
        assert op.op == "insert"
        assert op.entry.values == ("Ann", 2.0)   # "insert newt"
        assert op.entry.old_values is None

    def test_delta_minus_deletes(self):
        assert dispatch(spec(), t_dminus()).op == "delete"

    def test_new_gate_uses_pattern_dispatch(self):
        assert dispatch(spec(new=True), t_plus()).op == "insert"
        assert dispatch(spec(new=True), t_dplus()).op == "insert"
        assert dispatch(spec(new=True), t_minus()).op == "delete"


class TestTransitionDispatch:
    """Row 'dynamic-trans-α': plain tokens are don't-care."""

    def test_plus_ignored(self):
        assert dispatch(spec(transition=True), t_plus()) is None

    def test_minus_ignored(self):
        assert dispatch(spec(transition=True), t_minus()) is None
        assert dispatch(spec(transition=True), t_minus(DELETE)) is None

    def test_delta_plus_inserts_pair(self):
        op = dispatch(spec(transition=True), t_dplus())
        assert op.op == "insert"
        assert op.entry.values == ("Ann", 2.0)
        assert op.entry.old_values == ("Ann", 1.0)

    def test_delta_minus_deletes(self):
        assert dispatch(spec(transition=True), t_dminus()).op == "delete"

    def test_transition_plus_event_gate(self):
        """Transition var also event-gated (finddemotions' emp): the Δ+
        must carry a matching replace specifier."""
        gated = spec(event_kind=EventKind.REPLACE, event_attrs=("jno",),
                     transition=True)
        assert dispatch(gated, t_dplus(attrs=("jno",))).op == "insert"
        assert dispatch(gated, t_dplus(attrs=("sal",))) is None


class TestOnAppendDispatch:
    def test_append_token_inserts(self):
        assert dispatch(spec(EventKind.APPEND), t_plus()).op == "insert"

    def test_minus_retracts(self):
        # case 1/2 retraction: − with append specifier removes the event
        assert dispatch(spec(EventKind.APPEND),
                        t_minus(APPEND)).op == "delete"

    def test_delta_tokens_ignored(self):
        assert dispatch(spec(EventKind.APPEND), t_dplus()) is None
        assert dispatch(spec(EventKind.APPEND), t_dminus()) is None


class TestOnDeleteDispatch:
    def test_delete_event_asserts(self):
        """The DESIGN.md clarification: a − with delete specifier binds
        the deleted tuple at an on-delete memory."""
        op = dispatch(spec(EventKind.DELETE), t_minus(DELETE))
        assert op.op == "insert"
        assert op.entry.values == ("Ann", 1.0)

    def test_insert_minus_does_not_trigger(self):
        """Case 2's final insert − (net effect nothing) must not look
        like a delete event — the logical-event guarantee."""
        assert dispatch(spec(EventKind.DELETE), t_minus(APPEND)) is None

    def test_plain_minus_does_not_trigger(self):
        assert dispatch(spec(EventKind.DELETE), t_minus(None)) is None

    def test_other_tokens_ignored(self):
        assert dispatch(spec(EventKind.DELETE), t_plus()) is None
        assert dispatch(spec(EventKind.DELETE), t_dplus()) is None


class TestOnReplaceDispatch:
    def test_delta_plus_matching_attrs(self):
        op = dispatch(spec(EventKind.REPLACE, ("sal",)),
                      t_dplus(attrs=("sal", "name")))
        assert op.op == "insert"
        assert op.entry.old_values == ("Ann", 1.0)

    def test_delta_plus_non_matching_attrs(self):
        assert dispatch(spec(EventKind.REPLACE, ("jno",)),
                        t_dplus(attrs=("sal",))) is None

    def test_empty_gate_matches_any_replace(self):
        assert dispatch(spec(EventKind.REPLACE),
                        t_dplus(attrs=("sal",))).op == "insert"

    def test_delta_minus_retracts(self):
        assert dispatch(spec(EventKind.REPLACE, ("sal",)),
                        t_dminus()).op == "delete"

    def test_plus_ignored(self):
        assert dispatch(spec(EventKind.REPLACE), t_plus()) is None


class TestAlphaMemory:
    def test_insert_remove(self):
        memory = AlphaMemory("r", spec())
        entry = MemoryEntry(TID, ("Ann", 1.0))
        assert memory.insert(entry)
        assert len(memory) == 1
        assert memory.get(TID) == entry
        assert memory.remove(TID) == entry
        assert len(memory) == 0

    def test_duplicate_insert_reports_false(self):
        memory = AlphaMemory("r", spec())
        entry = MemoryEntry(TID, ("Ann", 1.0))
        assert memory.insert(entry)
        assert not memory.insert(entry)

    def test_changed_values_reinsert(self):
        memory = AlphaMemory("r", spec())
        memory.insert(MemoryEntry(TID, ("Ann", 1.0)))
        assert memory.insert(MemoryEntry(TID, ("Ann", 2.0)))
        assert memory.get(TID).values == ("Ann", 2.0)
        assert len(memory) == 1

    def test_remove_absent_is_none(self):
        assert AlphaMemory("r", spec()).remove(TID) is None

    def test_flush(self):
        memory = AlphaMemory("r", spec())
        memory.insert(MemoryEntry(TID, ("Ann", 1.0)))
        memory.flush()
        assert len(memory) == 0

    def test_null_and_nan_keys_are_excluded(self):
        """A join index holds no null or NaN key — neither satisfies an
        equi-join conjunct — while the memory holds their entries."""
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

    @pytest.mark.parametrize("kwargs,expected", [
        (dict(), "stored-α"),
        (dict(transition=True), "dynamic-trans-α"),
        (dict(event_kind=EventKind.APPEND), "dynamic-on-α"),
        (dict(new=True), "dynamic-new-α"),
        (dict(simple=True), "simple-α"),
        (dict(simple=True, transition=True), "simple-trans-α"),
        (dict(simple=True, event_kind=EventKind.DELETE), "simple-on-α"),
    ])
    def test_kind_names(self, kwargs, expected):
        assert AlphaMemory("r", spec(**kwargs)).kind_name == expected


class TestVirtualAlphaMemory:
    def make(self):
        catalog = Catalog()
        catalog.create_relation("emp", Schema.of(
            name="text", sal="float", dno="int"))
        catalog.create_relation("dept", Schema.of(dno="int", name="text"))
        emp = catalog.relation("emp")
        for i in range(10):
            emp.insert((f"e{i}", float(i * 1000), i % 3))
        analyzer = SemanticAnalyzer(catalog)
        # build the spec through CompiledRule for realistic predicates
        cmd = analyzer.analyze(parse_command(
            "define rule r2 if emp.sal > 3000 and emp.dno = dept.dno "
            "then delete emp"))
        rule = CompiledRule(cmd, catalog)
        return catalog, VirtualAlphaMemory("r2", rule.specs["emp"])

    def test_stores_nothing(self):
        catalog, memory = self.make()
        assert len(memory) == 0
        assert memory.is_virtual

    def test_candidates_filtered(self):
        catalog, memory = self.make()
        values = {e.values[0] for e in memory.candidates(catalog)}
        assert values == {"e4", "e5", "e6", "e7", "e8", "e9"}

    def test_equality_constraint(self):
        catalog, memory = self.make()
        # dno position is 2; constrain dno = 1 -> e4, e7 (sal>3000)
        got = {e.values[0]
               for e in memory.candidates(catalog, equality=(2, 1))}
        assert got == {"e4", "e7"}

    def test_equality_constraint_with_index(self):
        catalog, memory = self.make()
        catalog.create_index("empdno", "emp", "dno", "hash")
        got = {e.values[0]
               for e in memory.candidates(catalog, equality=(2, 1))}
        assert got == {"e4", "e7"}

    def test_null_equality_yields_nothing(self):
        catalog, memory = self.make()
        assert list(memory.candidates(catalog, equality=(2, None))) == []

    def test_scan_count(self):
        catalog, memory = self.make()
        list(memory.candidates(catalog))
        list(memory.candidates(catalog))
        assert memory.scan_count == 2
