"""Tests for tokens and Δ-set token generation (paper §4.3.1 cases 1–4)."""

import pytest
from hypothesis import given, strategies as st

from repro.catalog.schema import Schema
from repro.core import tokens as tok
from repro.core.alpha import MemoryEntry
from repro.core.deltasets import DeltaSets
from repro.core.tokens import EventSpecifier, Token, TokenKind
from repro.lang.ast_nodes import EventKind
from repro.storage.tuples import TupleId

TID = TupleId("emp", 0)
SCHEMA = Schema.of(name="text", sal="float")


class TestTokenBasics:
    def test_plus(self):
        token = tok.plus("emp", TID, ("Ann", 1.0))
        assert token.kind is TokenKind.PLUS
        assert not token.kind.is_delta
        assert token.kind.is_insertion

    def test_delta_requires_old(self):
        with pytest.raises(ValueError):
            Token(TokenKind.DELTA_PLUS, "emp", TID, ("A",))

    def test_plain_rejects_old(self):
        with pytest.raises(ValueError):
            Token(TokenKind.PLUS, "emp", TID, ("A",), ("B",))

    def test_str(self):
        token = tok.delta_plus("emp", TID, ("B",), ("A",),
                               EventSpecifier(EventKind.REPLACE, ("name",)))
        text = str(token)
        assert "Δ+" in text and "replace(name)" in text

    def test_delta_minus_requires_old(self):
        with pytest.raises(ValueError):
            Token(TokenKind.DELTA_MINUS, "emp", TID, ("A",))

    def test_keyword_construction_is_validated_too(self):
        with pytest.raises(ValueError):
            Token(kind=TokenKind.MINUS, relation="emp", tid=TID,
                  values=("A",), old_values=("B",))
        token = Token(kind=TokenKind.DELTA_MINUS, relation="emp", tid=TID,
                      values=("B",), old_values=("A",))
        assert token == tok.delta_minus("emp", TID, ("B",), ("A",))

    @pytest.mark.parametrize("value", [
        tok.plus("emp", TID, ("Ann", 1.0)),
        MemoryEntry(TID, ("Ann", 1.0)),
        TID,
    ], ids=["Token", "MemoryEntry", "TupleId"])
    def test_value_types_are_immutable(self, value):
        """Tokens, α entries and tuple ids are shared between memories,
        P-nodes and Δ-sets: none of their fields can be reassigned."""
        field = type(value)._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_process_tokens_does_not_iterate_a_bare_token(self):
        """A Token is a (named) tuple; handing one to process_tokens
        must not route its six fields as six 'tokens'."""
        from repro import Database
        db = Database()
        db.execute("create emp (name = text, sal = float8)")
        db.execute("define rule r if emp.sal > 0 "
                   "then append to emp(name = \"x\", sal = 0.0)")
        token = tok.plus("emp", TupleId("emp", 0), ("Ann", 1.0))
        routed = db.network.tokens_processed
        with pytest.raises(TypeError):
            db.network.process_tokens(token)
        assert db.network.tokens_processed == routed
        db.network.process_tokens([token])
        assert db.network.tokens_processed == routed + 1
        assert len(db.network.pnode("r")) == 1

    def test_event_specifier_str(self):
        assert str(EventSpecifier(EventKind.APPEND)) == "append"
        assert str(EventSpecifier(EventKind.REPLACE, ("a", "b"))) == \
            "replace(a, b)"


def make_ds():
    ds = DeltaSets()
    ds.register_schema("emp", SCHEMA)
    return ds


def kinds(tokens):
    return [t.kind for t in tokens]


def events(tokens):
    return [t.event.kind if t.event else None for t in tokens]


class TestCase1InsertThenModify:
    """im*: net effect insert."""

    def test_insert(self):
        ds = make_ds()
        out = ds.record_insert("emp", TID, ("Ann", 1.0))
        assert kinds(out) == [TokenKind.PLUS]
        assert events(out) == [EventKind.APPEND]
        assert ds.net_effect(TID) == "insert"

    def test_insert_then_modify(self):
        ds = make_ds()
        ds.record_insert("emp", TID, ("Ann", 1.0))
        out = ds.record_modify("emp", TID, ("Ann", 1.0), ("Ann", 2.0))
        # insert −, then insert + with the new value (paper case 1)
        assert kinds(out) == [TokenKind.MINUS, TokenKind.PLUS]
        assert events(out) == [EventKind.APPEND, EventKind.APPEND]
        assert out[0].values == ("Ann", 1.0)
        assert out[1].values == ("Ann", 2.0)
        assert ds.net_effect(TID) == "insert"

    def test_second_modify_retracts_latest(self):
        ds = make_ds()
        ds.record_insert("emp", TID, ("Ann", 1.0))
        ds.record_modify("emp", TID, ("Ann", 1.0), ("Ann", 2.0))
        out = ds.record_modify("emp", TID, ("Ann", 2.0), ("Ann", 3.0))
        assert out[0].values == ("Ann", 2.0)
        assert out[1].values == ("Ann", 3.0)


class TestCase2InsertModifyDelete:
    """im*d: net effect nothing."""

    def test_insert_then_delete(self):
        ds = make_ds()
        ds.record_insert("emp", TID, ("Ann", 1.0))
        out = ds.record_delete("emp", TID, ("Ann", 1.0))
        # the final delete generates an insert − (append specifier):
        # it must NOT look like a delete event
        assert kinds(out) == [TokenKind.MINUS]
        assert events(out) == [EventKind.APPEND]
        assert ds.net_effect(TID) == "untouched"

    def test_insert_modify_delete(self):
        ds = make_ds()
        ds.record_insert("emp", TID, ("Ann", 1.0))
        ds.record_modify("emp", TID, ("Ann", 1.0), ("Ann", 2.0))
        out = ds.record_delete("emp", TID, ("Ann", 2.0))
        assert kinds(out) == [TokenKind.MINUS]
        assert out[0].values == ("Ann", 2.0)
        assert events(out) == [EventKind.APPEND]


class TestCase3ModifyExisting:
    """m+: net effect modify."""

    def test_first_modify(self):
        ds = make_ds()
        out = ds.record_modify("emp", TID, ("Ann", 1.0), ("Ann", 2.0))
        # a simple − with NO event specifier, then a modify Δ+
        assert kinds(out) == [TokenKind.MINUS, TokenKind.DELTA_PLUS]
        assert out[0].event is None
        assert out[0].values == ("Ann", 1.0)
        assert out[1].event.kind is EventKind.REPLACE
        assert out[1].values == ("Ann", 2.0)
        assert out[1].old_values == ("Ann", 1.0)
        assert ds.net_effect(TID) == "modify"

    def test_later_modify_swaps_pair(self):
        ds = make_ds()
        ds.record_modify("emp", TID, ("Ann", 1.0), ("Ann", 2.0))
        out = ds.record_modify("emp", TID, ("Ann", 2.0), ("Ann", 3.0))
        assert kinds(out) == [TokenKind.DELTA_MINUS, TokenKind.DELTA_PLUS]
        # the old half always refers to the value at transition start
        assert out[0].values == ("Ann", 2.0)
        assert out[0].old_values == ("Ann", 1.0)
        assert out[1].values == ("Ann", 3.0)
        assert out[1].old_values == ("Ann", 1.0)

    def test_replace_target_list_is_net(self):
        ds = make_ds()
        ds.record_modify("emp", TID, ("Ann", 1.0), ("Ann", 2.0))
        out = ds.record_modify("emp", TID, ("Ann", 2.0), ("Bob", 2.0))
        # net change vs transition start: both name and sal
        assert set(out[1].event.attributes) == {"name", "sal"}

    def test_net_target_list_cancels(self):
        ds = make_ds()
        ds.record_modify("emp", TID, ("Ann", 1.0), ("Ann", 2.0))
        out = ds.record_modify("emp", TID, ("Ann", 2.0), ("Bob", 1.0))
        # sal returned to its original value: net change is name only
        assert out[1].event.attributes == ("name",)


class TestCase4ModifyThenDelete:
    """m*d: net effect delete."""

    def test_modify_then_delete(self):
        ds = make_ds()
        ds.record_modify("emp", TID, ("Ann", 1.0), ("Ann", 2.0))
        out = ds.record_delete("emp", TID, ("Ann", 2.0))
        # modify Δ− retracting the pair, then a delete −
        assert kinds(out) == [TokenKind.DELTA_MINUS, TokenKind.MINUS]
        assert out[0].values == ("Ann", 2.0)
        assert out[0].old_values == ("Ann", 1.0)
        assert out[1].event.kind is EventKind.DELETE
        assert ds.net_effect(TID) == "untouched"

    def test_plain_delete(self):
        ds = make_ds()
        out = ds.record_delete("emp", TID, ("Ann", 1.0))
        assert kinds(out) == [TokenKind.MINUS]
        assert events(out) == [EventKind.DELETE]


class TestLifecycle:
    def test_clear(self):
        ds = make_ds()
        ds.record_insert("emp", TID, ("A", 1.0))
        ds.record_modify("emp", TupleId("emp", 1), ("B", 1.0), ("B", 2.0))
        assert ds.inserted_count() == 1
        assert ds.modified_count() == 1
        ds.clear()
        assert ds.inserted_count() == 0
        assert ds.modified_count() == 0

    def test_without_schema_positions_used(self):
        ds = DeltaSets()
        out = ds.record_modify("emp", TID, ("Ann", 1.0), ("Ann", 2.0))
        assert out[1].event.attributes == ("1",)


# ----------------------------------------------------------------------
# property: token streams are self-cancelling per the net-effect table
# ----------------------------------------------------------------------

@given(st.lists(st.sampled_from(["modify", "delete", "nothing"]),
                min_size=0, max_size=6),
       st.booleans())
def test_net_effect_property(ops, starts_inserted):
    """Simulate one tuple's life through a transition and check that
    replaying the emitted tokens against a naive 'memory' leaves exactly
    the net effect: the memory holds the final value iff the tuple
    survives, and holds a Δ pair iff the net effect is a modify."""
    ds = DeltaSets()
    tid = TupleId("t", 0)
    value = 0
    alive = True
    all_tokens = []
    if starts_inserted:
        all_tokens += ds.record_insert("t", tid, (value,))
    for op in ops:
        if not alive:
            break
        if op == "modify":
            all_tokens += ds.record_modify("t", tid, (value,),
                                           (value + 1,))
            value += 1
        elif op == "delete":
            all_tokens += ds.record_delete("t", tid, (value,))
            alive = False

    # naive pattern memory: apply +/Δ+ as insert-new, −/Δ− as delete
    memory: dict = {}
    pairs: dict = {}
    for token in all_tokens:
        if token.kind is TokenKind.PLUS:
            memory[token.tid] = token.values
        elif token.kind is TokenKind.MINUS:
            memory.pop(token.tid, None)
        elif token.kind is TokenKind.DELTA_PLUS:
            memory[token.tid] = token.values
            pairs[token.tid] = (token.values, token.old_values)
        else:
            memory.pop(token.tid, None)
            pairs.pop(token.tid, None)

    existed_before = not starts_inserted
    if alive and (starts_inserted or ops.count("modify")):
        if starts_inserted:
            assert memory.get(tid) == (value,)
        elif any(op == "modify" for op in ops):
            assert memory.get(tid) == (value,)
            assert pairs[tid] == ((value,), (0,))
    if not alive:
        assert tid not in memory
        assert tid not in pairs
