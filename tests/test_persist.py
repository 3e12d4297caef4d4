"""Tests for null literals, database dump/load, and the firing trace."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.errors import SemanticError
from repro import persist


def make_db():
    db = Database()
    db.execute_script("""
        create emp (name = text, age = int4, sal = float8, ok = bool)
        create log (name = text)
        append emp(name="Ann", age=30, sal=50000.5, ok=true)
        append emp(name="quo\\"ted", age=2, sal=1.0, ok=false)
        append emp(name="partial")
    """)
    db.execute('define rule watch in watchers priority 2 '
               'if emp.sal > 40000 then append to log(emp.name)')
    db.execute("define rule ondel on delete emp "
               "then append to log(emp.name)")
    return db


class TestNullLiteral:
    def test_append_null(self):
        db = Database()
        db.execute("create t (a = int4, b = text)")
        db.execute("append t(a = null, b = null)")
        assert db.relation_rows("t") == [(None, None)]

    def test_null_comparison_never_true(self):
        db = Database()
        db.execute("create t (a = int4)")
        db.execute("append t(a = null)")
        db.execute("append t(a = 5)")
        assert db.query("retrieve (t.a) where t.a = null").rows == []
        assert db.query("retrieve (t.a) where t.a != null").rows == []

    def test_null_in_replace(self):
        db = Database()
        db.execute("create t (a = int4)")
        db.execute("append t(a = 5)")
        db.execute("replace t (a = null)")
        assert db.relation_rows("t") == [(None,)]

    def test_null_arithmetic_type_checks(self):
        db = Database()
        db.execute("create t (a = int4)")
        db.execute("append t(a = 1)")
        assert db.query("retrieve (x = t.a + null)").rows == [(None,)]

    def test_null_not_boolean_misuse(self):
        db = Database()
        db.execute("create t (a = int4, s = text)")
        with pytest.raises(SemanticError):
            db.execute('retrieve (t.a) where t.s + 1 = null')

    def test_round_trip_deparse(self):
        from repro.lang.ast_nodes import deparse
        from repro.lang.parser import parse_command
        tree = parse_command("append t(a = null)")
        assert "null" in deparse(tree)
        assert parse_command(deparse(tree)) == tree


class TestDumpLoad:
    def test_round_trip_data(self):
        db = make_db()
        restored = persist.loads(persist.dumps(db))
        assert sorted(restored.relation_rows("emp")) == sorted(
            db.relation_rows("emp"))
        assert sorted(restored.relation_rows("log")) == sorted(
            db.relation_rows("log"))

    def test_round_trip_schema_and_types(self):
        db = make_db()
        restored = persist.loads(persist.dumps(db))
        assert restored.catalog.relation("emp").schema == \
            db.catalog.relation("emp").schema

    def test_round_trip_indexes(self):
        db = make_db()
        db.execute("define index isal on emp (sal) using btree")
        restored = persist.loads(persist.dumps(db))
        info = restored.catalog.index_info("isal")
        assert info.relation == "emp" and info.kind == "btree"

    def test_round_trip_rules_active(self):
        db = make_db()
        restored = persist.loads(persist.dumps(db))
        assert restored.manager.rule("watch").active
        assert restored.manager.rule("watch").definition.priority == 2.0
        assert "watch" in restored.catalog.ruleset("watchers").rule_names
        # the restored rule actually works
        restored.execute('append emp(name="New", age=1, sal=99999, '
                         'ok=true)')
        assert ("New",) in restored.relation_rows("log")

    def test_round_trip_inactive_rule(self):
        db = make_db()
        db.execute("deactivate rule watch")
        restored = persist.loads(persist.dumps(db))
        assert not restored.manager.rule("watch").active

    def test_load_does_not_fire_on_historical_data(self):
        """Dumped log contents must not be duplicated by the load: data
        loads before rules, and pattern-rule priming consumes matches
        only once."""
        db = Database()
        db.execute("create t (a = int4)")
        db.execute("create log (a = int4)")
        db.execute("define rule r on append t "
                   "then append to log(a = t.a)")
        db.execute("append t(a = 1)")
        assert db.relation_rows("log") == [(1,)]
        restored = persist.loads(persist.dumps(db))
        assert restored.relation_rows("log") == [(1,)]

    def test_special_characters_round_trip(self):
        db = Database()
        db.execute("create t (s = text)")
        db.catalog.relation("t").insert(('line\nbreak\t"quote"\\',))
        restored = persist.loads(persist.dumps(db))
        assert restored.relation_rows("t") == [('line\nbreak\t"quote"\\',)]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(max_size=40), min_size=1, max_size=5))
    def test_arbitrary_strings_round_trip(self, strings):
        """The literal codec is total over str: any Python string —
        control characters, ``\\r``, quotes, backslashes — survives
        dumps → loads unchanged (the WAL reuses this codec, so this is
        also the WAL's value-fidelity guarantee)."""
        db = Database()
        db.execute("create t (s = text)")
        for value in strings:
            db.catalog.relation("t").insert((value,))
        restored = persist.loads(persist.dumps(db))
        assert sorted(restored.relation_rows("t")) == sorted(
            (value,) for value in strings)

    def test_carriage_return_survives_file_round_trip(self, tmp_path):
        """``\\r`` must survive the *file* path too: without escaping,
        universal-newline translation on read would corrupt it."""
        db = Database()
        db.execute("create t (s = text)")
        for value in ("a\rb", "a\r\nb", "\r", "\x00\x1b[0m"):
            db.catalog.relation("t").insert((value,))
        path = tmp_path / "dump.arl"
        persist.dump(db, path)
        restored = persist.load(path)
        assert sorted(restored.relation_rows("t")) == sorted(
            [("a\rb",), ("a\r\nb",), ("\r",), ("\x00\x1b[0m",)])

    def test_null_values_round_trip(self):
        db = Database()
        db.execute("create t (a = int4, b = text)")
        db.execute("append t(a = null, b = null)")
        restored = persist.loads(persist.dumps(db))
        assert restored.relation_rows("t") == [(None, None)]

    def test_dump_file(self, tmp_path):
        db = make_db()
        path = tmp_path / "dump.arl"
        persist.dump(db, path)
        restored = persist.load(path)
        assert len(restored.relation_rows("emp")) == 3

    def test_non_finite_floats_round_trip(self):
        db = Database()
        db.execute("create t (a = float8)")
        db.catalog.relation("t").insert((float("inf"),))
        db.catalog.relation("t").insert((float("-inf"),))
        db.catalog.relation("t").insert((float("nan"),))
        restored = persist.loads(persist.dumps(db))
        values = [row[0] for row in restored.relation_rows("t")]
        assert values[0] == float("inf")
        assert values[1] == float("-inf")
        assert math.isnan(values[2])

    def test_load_with_network_choice(self):
        db = make_db()
        restored = persist.loads(persist.dumps(db), network="rete")
        assert restored.network.network_name == "Rete"


class TestFiringTrace:
    def test_trace_records_firings(self):
        db = Database()
        db.execute("create t (a = int4)")
        db.execute("create log (a = int4)")
        db.execute("define rule r priority 3 on append t "
                   "then append to log(a = t.a)")
        db.execute("append t(a = 1)")
        db.execute("append t(a = 2)")
        assert len(db.firing_log) == 2
        record = db.firing_log[0]
        assert record.rule_name == "r"
        assert record.priority == 3.0
        assert record.match_count == 1
        assert record.sequence == 1
        assert "r" in str(record)

    def test_set_oriented_match_count(self):
        db = Database()
        db.execute("create t (a = int4)")
        db.execute("create log (a = int4)")
        db.execute("define rule r if new(t) "
                   "then append to log(a = t.a)")
        db.execute("do append t(a=1) append t(a=2) append t(a=3) end")
        assert len(db.firing_log) == 1
        assert db.firing_log[0].match_count == 3


class TestFloatFidelity:
    """Dumps must round-trip floats exactly, non-finite values included."""

    EDGE_FLOATS = [0.1, 1e-7, 1.5e300, 5e-324, -0.0, 123456.789,
                   float("inf"), float("-inf"), float("nan")]

    def _dump_of(self, values):
        db = Database()
        db.execute("create t (a = float8)")
        for value in values:
            db.catalog.relation("t").insert((value,))
        return persist.dumps(db)

    def test_edge_floats_dump_load_dump_idempotent(self):
        first = self._dump_of(self.EDGE_FLOATS)
        second = persist.dumps(persist.loads(first))
        assert first == second

    def test_exact_bit_pattern_round_trip(self):
        import struct

        restored = persist.loads(self._dump_of(self.EDGE_FLOATS))
        values = [row[0] for row in restored.relation_rows("t")]
        assert len(values) == len(self.EDGE_FLOATS)
        for original, loaded in zip(self.EDGE_FLOATS, values):
            assert struct.pack("<d", original) \
                == struct.pack("<d", loaded)

    def test_scientific_literal_overflowing_to_inf(self):
        db = Database()
        db.execute("create t (a = float8)")
        db.execute("append t(a = 1e999)")     # parses as float('inf')
        assert db.relation_rows("t") == [(float("inf"),)]
        dumped = persist.dumps(db)
        assert "inf" in dumped

    @given(value=st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=200, deadline=None)
    def test_property_dump_load_dump_idempotent(self, value):
        first = self._dump_of([value])
        second = persist.dumps(persist.loads(first))
        assert first == second
