"""The literal-lifted statement cache: one plan per statement shape.

``Database.execute(text)`` keys its statement cache by the *shape* of a
DML text (literals replaced by their types) and runs the shape's one
plan with the text's literals as parameters.  The property here runs
the same stream of literal-varying texts on a default database and on
``Database(statement_cache_size=0)`` — the full parse → analyze → plan
pipeline for every text — and demands the same observable behaviour;
the count-based tests pin what the cache saves.  At the end, the same
kind of oracle for the statement kernel: kernel against iterator.
"""

from __future__ import annotations

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.prepared
from repro import Database
from repro.errors import ArielError, SemanticError
from repro.executor.executor import ResultSet
from repro.lang.expr import Bindings, compile_expr, is_true
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_command
from repro.planner.plans import AnalyzedPlan
from repro.prepared import shape_of

# ----------------------------------------------------------------------
# shapes
# ----------------------------------------------------------------------


def shape(text):
    return shape_of(tokenize(text))


class TestShapeOf:
    def test_literals_are_replaced_by_their_types(self):
        key, literals = shape('replace emp (sal = 1.5, name = "x") '
                              'where emp.id = 7')
        assert literals == [1.5, "x", 7]
        assert key == ("replace", "emp", "(", "sal", "=", float, ",",
                       "name", "=", str, ")", "where", "emp", ".", "id",
                       "=", int, None)

    def test_same_shape_whatever_the_literals_and_the_spacing(self):
        a, _ = shape("retrieve (emp.name) where emp.id = 3")
        b, _ = shape("RETRIEVE (emp.name)\n  where emp.id=12345 -- x")
        assert a == b

    def test_literal_type_is_part_of_the_shape(self):
        keys = {shape(f"retrieve (t.a) where t.a = {lit}")[0]
                for lit in ("1", "2", "1.0", "1e3", '"1"', '"one"')}
        assert len(keys) == 3

    def test_keyword_literals_stay_in_the_key(self):
        key, literals = shape("replace t (a = null, b = true, c = inf) "
                              "where t.d = nan or t.e = false")
        assert literals == []
        assert {"null", "true", "inf", "nan", "false"} <= set(key)

    def test_a_sign_is_an_operator_not_part_of_the_literal(self):
        key, literals = shape("retrieve (t.a) where t.a = -5")
        assert literals == [5] and key[-4:] == ("=", "-", int, None)

    @pytest.mark.parametrize("text", [
        "create t (a = int4)", "destroy t", "define index i on t (a)",
        "define rule r if t.a > 1 then delete t", "remove rule r",
        "activate rule r", "do append t(a = 1) delete t end",
        "explain retrieve (t.a)", "halt", "", "42", '"retrieve"',
        "retrieve into u (t.a) where t.a = 1",
        "retrieve unique into u (t.a)",
        "retrieve (t.a) where t.a = $1",
        "append t(a = $a, b = 2)",
    ])
    def test_texts_the_cache_does_not_serve(self, text):
        assert shape(text) is None


# ----------------------------------------------------------------------
# equivalence property: lifted == the full pipeline on every text
# ----------------------------------------------------------------------

RULES = [
    "define rule high if emp.sal > 5000 "
    "then append to log(tag = emp.name, v = emp.sal)",
    "define rule cut on replace emp(sal) "
    "if emp.sal < previous emp.sal "
    "then append to log(tag = \"cut\", v = previous emp.sal - emp.sal)",
    "define rule gone on delete emp "
    "then append to log(tag = \"gone\", v = emp.sal)",
    "define rule pair if emp.dno = dept.dno and dept.floor > 2 "
    "and emp.sal > 8000 "
    "then append to log(tag = dept.name, v = emp.id)",
]


#: the stored salaries: 700 × id
SALARIES = [700.0 * i for i in range(12)]
#: the same with the values no index holds: NaN at ids 2, 5 and 9,
#: null at ids 4 and 10
ODD_SALARIES = [float("nan") if i in (2, 5, 9) else
                None if i in (4, 10) else sal
                for i, sal in enumerate(SALARIES)]


def company(cache_size: int, salaries: list = SALARIES) -> Database:
    db = Database(statement_cache_size=cache_size)
    db.execute_script("""
        create emp (id = int4, name = text, sal = float8, dno = int4)
        create dept (dno = int4, name = text, floor = int4)
        create log (tag = text, v = float8)
        define index emp_id on emp (id) using hash
        define index emp_sal on emp (sal)
    """)
    for rule in RULES:
        db.execute(rule)
    db.bulk_append("dept", [(d, f"d{d}", d + 1) for d in range(4)])
    db.bulk_append("emp", [(i, f"e{i}", sal, i % 4)
                           for i, sal in enumerate(salaries)])
    return db


def quoted(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


INTS = st.integers(min_value=-3, max_value=16).map(str)
FLOATS = st.sampled_from(
    ["0.0", "0.5", "1.5", "2e3", "7e3", "9999.75", ".25", "1.5e+3"])
NUMS = st.one_of(INTS, FLOATS,
                 st.integers(0, 10_000).map(lambda n: str(float(n))))
ZEROISH = st.sampled_from(["0", "0.0", "2", "4.0"])
# where-clause bounds only (a NaN sort key would make order undefined):
# stored salaries, so equalities match, and bounds that *compute* NaN —
# a lifted bound is evaluated per execution, not folded at plan time
BOUNDS = st.one_of(NUMS, st.sampled_from(
    ["700", "1400.0", "3500", "1e999", "1e999 - 1e999", "1e999 * 0"]))
TEXTS = st.one_of(
    st.sampled_from(['"e1"', '"e7"', '"d2"', '""']),
    st.text(alphabet='ab "\\\n', max_size=4).map(quoted))
ANY = st.one_of(INTS, FLOATS, TEXTS,
                st.sampled_from(["null", "true", "nan", "inf"]))


def fmt(template: str, *parts):
    return st.tuples(*parts).map(lambda values: template.format(*values))


STATEMENTS = st.one_of(
    # retrieves: point, range (possibly empty), no where, strings,
    # a literal-only conjunct, aggregates over a literal, sorted
    fmt("retrieve (emp.name, emp.sal) where emp.id = {}", INTS),
    fmt("retrieve (emp.id) where emp.sal >= {} and emp.sal < {}",
        NUMS, NUMS),
    fmt("retrieve (emp.id, x = emp.sal * {} + {})", NUMS, NUMS),
    fmt("retrieve (emp.id) where emp.name = {} or emp.dno = {}",
        TEXTS, INTS),
    fmt("retrieve (emp.id) where {} = {} and emp.dno = {}",
        INTS, INTS, INTS),
    fmt("retrieve (n = count(emp.id), s = sum(emp.sal) + {}) "
        "where emp.dno = {}", NUMS, INTS),
    fmt("retrieve (emp.dno, m = max(emp.sal) * {}) where emp.id > {}",
        NUMS, INTS),
    fmt("retrieve (emp.id, emp.sal) where emp.sal > {} "
        "sort by sal desc, id", NUMS),
    fmt("retrieve (x = emp.sal + {}, emp.id) where emp.sal > {} "
        "sort by emp.sal * {}, emp.id, emp.sal", NUMS, NUMS, NUMS),
    fmt("retrieve (e.name, d.name) from e in emp, d in dept "
        "where e.dno = d.dno and d.floor = {} and e.sal < {} "
        "sort by e.name, d.name", INTS, NUMS),
    # several bounds on one indexed attribute: a range beside an
    # equality (either order), duplicate lower bounds, empty ranges
    fmt("retrieve (emp.id) where emp.sal > {} and emp.sal = {}",
        BOUNDS, BOUNDS),
    fmt("retrieve (emp.id) where emp.sal = {} and emp.sal <= {}",
        BOUNDS, BOUNDS),
    fmt("retrieve (emp.id) where emp.sal > {} and emp.sal >= {} "
        "and emp.sal < {}", BOUNDS, BOUNDS, BOUNDS),
    fmt("retrieve (emp.name) where emp.id >= {} and emp.id = {}",
        INTS, INTS),
    fmt("delete emp where emp.sal < {} and emp.sal = {}", BOUNDS, BOUNDS),
    fmt("replace emp (dno = {}) where emp.sal >= {} and emp.sal = {}",
        INTS, BOUNDS, BOUNDS),
    # a division after ``where`` (never lifted: a constant bound folds,
    # and raises, at plan time whether or not a row reaches it)
    fmt("retrieve (emp.id) where emp.id = {} and emp.sal = {} / {}",
        INTS, NUMS, ZEROISH),
    # appends, well- and ill-typed in every column
    fmt("append emp(id = {}, name = {}, sal = {}, dno = {})",
        INTS, TEXTS, NUMS, INTS),
    fmt("append emp(id = {}, name = {}, sal = {}, dno = {})",
        ANY, ANY, ANY, ANY),
    fmt("append to log(tag = {}, v = {})", ANY, ANY),
    # replaces: set-oriented and point, division by a literal zero
    fmt("replace emp (sal = {}) where emp.id = {}", NUMS, INTS),
    fmt("replace emp (sal = emp.sal - {}) where emp.sal > {}",
        NUMS, NUMS),
    fmt("replace emp (sal = emp.sal / {}) where emp.dno = {}",
        ZEROISH, INTS),
    fmt("replace emp (sal = {}, name = {}) where emp.id = {}",
        ANY, ANY, INTS),
    fmt("replace emp (dno = {} / {}) where emp.id = {}",
        INTS, ZEROISH, INTS),
    # deletes: point, range, all
    fmt("delete emp where emp.id = {}", INTS),
    fmt("delete emp where emp.sal < {} or emp.name = {}", NUMS, ANY),
    st.just("delete emp"),
    # comparisons the analyzer must keep rejecting, and plain errors
    fmt("retrieve (emp.id) where emp.name > {}", ANY),
    fmt("retrieve (emp.id) where emp.sal = {} and emp.id = {}", ANY, ANY),
    fmt("retrieve (emp.id) where not {}", ANY),
    fmt("retrieve (emp.id) where emp.id = {} {}", INTS, INTS),
    fmt("retrieve (emp.nope) where emp.id = {}", INTS),
    fmt("delete nope where nope.id = {}", INTS),
)


def outcome(db: Database, text: str):
    try:
        result = db.execute(text)
    except ArielError as exc:
        return type(exc).__name__, str(exc)
    rows = getattr(result, "rows", None)
    if rows is None:
        return "count", result.count
    if "sort by" not in text:           # order is the plan's business
                                        # (the sorted ones break every tie)
        rows = sorted(rows, key=repr)
    return result.columns, [repr(row) for row in rows]


def state(db: Database):
    return ({name: sorted(map(repr, db.relation_rows(name)))
             for name in ("emp", "dept", "log")},
            db.firings,
            sorted((r.rule_name, r.match_count) for r in db.firing_log))


@settings(max_examples=150, deadline=None)
@given(st.lists(STATEMENTS, min_size=1, max_size=25))
def test_lifted_statements_equal_the_full_pipeline(texts):
    lifted, full = company(128), company(0)
    for text in texts:
        assert outcome(lifted, text) == outcome(full, text), text
        assert state(lifted) == state(full), text
    assert len(full.statement_cache) == 0
    assert full.stats.get("stmt_cache.hits") == 0


def test_the_property_sees_a_key_without_types(monkeypatch):
    """Mutation check: drop the literal's type from the key and an
    ill-typed literal executes against the well-typed one's plan."""
    db = company(128)
    db.execute('append emp(id = 90, name = "a", sal = 1.0, dno = 1)')
    ill_typed = 'append emp(id = 91, name = "a", sal = "x", dno = 1)'
    assert outcome(db, ill_typed) == outcome(company(0), ill_typed) \
        == ("SemanticError",
            "cannot assign text expression to float8 attribute 'sal'")

    def untyped(tokens):
        found = shape_of(tokens)
        if found is None:
            return None
        key, literals = found
        return tuple("?" if isinstance(part, type) else part
                     for part in key), literals

    monkeypatch.setattr("repro.db.shape_of", untyped)
    mutant = company(128)
    mutant.execute('append emp(id = 90, name = "a", sal = 1.0, dno = 1)')
    assert outcome(mutant, ill_typed) != outcome(company(0), ill_typed)


# ----------------------------------------------------------------------
# what the cache saves, as counts
# ----------------------------------------------------------------------


def count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestOnePlanPerShape:
    def test_a_thousand_point_retrieves_plan_once(self, monkeypatch):
        db = company(128)
        db.bulk_append("emp", [(i, f"e{i}", 1.0, 0)
                               for i in range(100, 1100)])
        plans = count_calls(monkeypatch, db.optimizer, "plan_command")
        parses = count_calls(monkeypatch, repro.prepared, "parse_command")
        size = len(db.statement_cache)
        misses = db.stats.get("stmt_cache.misses")
        for i in range(100, 1100):
            rows = db.execute(
                f"retrieve (emp.name) where emp.id = {i}").rows
            assert rows == [(f"e{i}",)]
        assert db.stats.get("stmt_cache.misses") == misses + 1
        assert db.stats.get("stmt_cache.hits") >= 999
        assert len(db.statement_cache) == size + 1
        assert len(plans) == 1 and len(parses) == 1

    def test_lru_is_over_shapes(self):
        db = company(128)
        for i in range(200):
            db.execute(f"retrieve (x{i} = emp.sal) where emp.id = 1")
        assert len(db.statement_cache) == 128
        assert shape("retrieve (x199 = emp.sal) where emp.id = 5")[0] \
            in db.statement_cache
        assert shape("retrieve (x0 = emp.sal) where emp.id = 5")[0] \
            not in db.statement_cache

    def test_cache_off_runs_no_shape_logic(self, monkeypatch):
        db = company(0)
        calls = count_calls(monkeypatch, repro.db, "shape_of")
        scans = count_calls(monkeypatch, repro.db, "tokenize")
        db.execute("retrieve (emp.name) where emp.id = 1")
        db.explain("retrieve (emp.name) where emp.id = 1")
        db.execute_readonly("retrieve (emp.name) where emp.id = 1")
        assert calls == [] and scans == []
        assert len(db.statement_cache) == 0

    def test_failures_are_never_cached(self):
        db = company(128)
        size = len(db.statement_cache)
        for text in ('append emp(id = 1.5, name = "a", sal = 1, dno = 1)',
                     "retrieve (emp.nope) where emp.id = 1",
                     "retrieve (emp.id) where emp.id = 1 2"):
            for _ in range(2):
                with pytest.raises(ArielError):
                    db.execute(text)
        assert len(db.statement_cache) == size

    def test_ddl_and_rule_commands_take_no_lookup(self):
        db = company(128)
        before = (db.stats.get("stmt_cache.hits"),
                  db.stats.get("stmt_cache.misses"),
                  len(db.statement_cache))
        db.execute("create t (a = int4)")
        db.execute("define rule t_r if t.a > 1 then delete t")
        db.execute("do append t(a = 1) append t(a = 5) end")
        db.execute("retrieve into u (t.a) where t.a = 1")
        db.execute("remove rule t_r")
        assert (db.stats.get("stmt_cache.hits"),
                db.stats.get("stmt_cache.misses"),
                len(db.statement_cache)) == before


class TestTypesSurviveAReplan:
    def test_replan_rechecks_the_literal_types(self):
        """``destroy``/``create`` changes an attribute's type under a
        cached shape: the replan analyzes the typed placeholders, so
        the text that is now ill-typed raises what it would uncached."""
        db = Database()
        db.execute("create t (a = int4, b = int4)")
        text = "append t(a = 1, b = 5)"
        db.execute(text)
        db.execute("destroy t")
        db.execute("create t (a = int4, b = text)")
        with pytest.raises(SemanticError) as cached:
            db.execute(text)
        fresh = Database(statement_cache_size=0)
        fresh.execute("create t (a = int4, b = text)")
        with pytest.raises(SemanticError) as uncached:
            fresh.execute(text)
        assert str(cached.value) == str(uncached.value) \
            == "cannot assign int4 expression to text attribute 'b'"
        assert db.relation_rows("t") == []
        # and the well-typed text of the new schema is its own shape
        db.execute('append t(a = 1, b = "five")')
        assert db.relation_rows("t") == [(1, "five")]

    def test_int_literal_against_a_float_attribute(self):
        db = company(128)
        db.execute("replace emp (sal = 5) where emp.id = 1")
        db.execute("replace emp (sal = 6) where emp.id = 2")
        assert db.execute("retrieve (emp.sal) where emp.id = 2").rows \
            == [(6.0,)]
        assert isinstance(db.relation_rows("emp")[2][2], float)


class TestExplainShowsTheCachedPlan:
    def test_bounds_print_as_the_texts_own_literals(self):
        db = company(128)
        low = db.explain("retrieve (emp.id) where emp.sal > 100.5 "
                         "and emp.sal <= 900")
        assert "IndexScan emp as emp using emp_sal (100.5, 900]" in low
        assert "$" not in low
        again = db.explain("retrieve (emp.id) where emp.sal > -2.5 "
                           "and emp.sal <= 7")
        assert "(-2.5, 7]" in again
        text = 'retrieve (emp.id) where emp.name = "a $1 b"'
        assert '"a $1 b"' in db.explain(text)

    def test_explain_and_execute_share_the_entry(self, monkeypatch):
        db = company(128)
        plans = count_calls(monkeypatch, db.optimizer, "plan_command")
        db.explain("retrieve (emp.name) where emp.id = 3")
        assert db.execute("retrieve (emp.name) where emp.id = 4").rows \
            == [("e4",)]
        assert db.execute_readonly(
            "retrieve (emp.name) where emp.id = 5").rows == [("e5",)]
        assert len(plans) == 1


def test_smoke_two_thousand_literal_varying_statements():
    """CI's statement-shape smoke (counts, not timings): 2,000 texts of
    five shapes, a rule defined and removed half way."""
    db = company(128)
    db.bulk_append("emp", [(i, f"e{i}", 1.0, 0) for i in range(100, 500)])
    texts = []
    for i in range(100, 500):
        texts += [
            f"retrieve (emp.name, emp.sal) where emp.id = {i}",
            f"retrieve (emp.id) where emp.id >= {i} and emp.id < {i + 9}",
            f"replace emp (sal = {i}.25, dno = {i % 4}) where emp.id = {i}",
            f'append emp(id = {i + 1000}, name = "n{i}", sal = {i}.5, '
            f"dno = 1)",
            f"delete emp where emp.id = {i + 1000}",
        ]
    before = {key: db.stats.get(key) for key in
              ("stmt_cache.hits", "stmt_cache.misses", "plan_cache.replans")}
    for n, text in enumerate(texts):
        if n == 700:
            db.execute("define rule smoke if emp.sal > 300 and emp.id > 99 "
                       "then append to log(tag = emp.name, v = emp.sal)")
            fired = db.firings
        if n == 1400:
            db.execute("remove rule smoke")
            # ids 240..379 went by: smoke matched the 80 replaces and
            # the 80 appends above 300, ``gone`` the 140 deletes
            assert db.firings == fired + 80 + 80 + 140
        db.execute(text)
    hits, misses, replans = (db.stats.get(key) - before[key]
                             for key in before)
    assert hits + misses == 2000 and misses == 5
    assert hits / (hits + misses) >= 0.99
    assert replans == 0
    assert db.execute("retrieve (emp.sal) where emp.id = 499").rows \
        == [(499.25,)]
    assert len(db.relation_rows("emp")) == 412


@pytest.mark.parametrize("cache_size", [128, 0])
def test_a_nan_bound_anchors_no_index_scan(cache_size):
    """Found by the property above: a B-tree answers a range over
    ``[nan, nan]`` with every row.  A bound that is or computes NaN —
    a constant or a lifted parameter alike — makes the scan or probe
    yield nothing at run time."""
    db = company(cache_size)
    for text in ("retrieve (emp.id) where emp.sal = nan and emp.id = 0",
                 "retrieve (emp.id) where emp.sal = nan",
                 "retrieve (emp.id) where emp.sal >= nan",
                 "retrieve (emp.id) where emp.sal = 1e999 - 1e999",
                 "retrieve (emp.id) where emp.sal >= 1e999 * 0",
                 "retrieve (emp.id) where emp.sal < 1e999 - 1e999",
                 "retrieve (emp.id) where emp.sal > 0 and "
                 "emp.sal < 1e999 * 0"):
        assert db.execute(text).rows == [], text


@pytest.mark.parametrize("cache_size", [128, 0])
def test_a_range_beside_an_equality_is_still_checked(cache_size):
    """Review finding: the lifted plan probed ``emp_sal`` on the
    equality and dropped the range conjunct it had also "folded", so
    contradictory bounds returned — and deleted, and replaced — rows."""
    db = company(cache_size)
    for bounds in ("emp.sal > 1000 and emp.sal = 700",
                   "emp.sal = 700 and emp.sal > 1000",
                   "emp.sal < 100 and emp.sal = 700",
                   "emp.sal >= 701 and emp.sal <= 7000 and emp.sal = 700"):
        assert db.execute(f"retrieve (emp.id) where {bounds}").rows == []
        assert db.execute(f"delete emp where {bounds}").count == 0
        assert db.execute(
            f"replace emp (dno = 9) where {bounds}").count == 0
    assert len(db.relation_rows("emp")) == 12
    assert db.execute("retrieve (emp.id) where emp.sal >= 700 "
                      "and emp.sal = 700").rows == [(1,)]
    # the second lower bound is not folded either
    assert db.execute("retrieve (emp.id) where emp.sal > 700 and "
                      "emp.sal > 7000").rows == [(11,)]


class TestSameErrorsAsTheFullPipeline:
    """Review findings: where the cached path answered differently."""

    @pytest.mark.parametrize("cache_size", [128, 0])
    def test_execute_readonly_rejects_a_mutation_with_one_message(
            self, cache_size):
        db = company(cache_size)
        before = state(db)
        for text in ('append to log(tag = "x", v = 1.0)',
                     "delete emp where emp.id = 1",
                     "retrieve into u (emp.id) where emp.id = 1",
                     "create u (a = int4)"):
            for _ in range(2):          # a miss, then (cached) a hit
                with pytest.raises(ArielError) as raised:
                    db.execute_readonly(text)
                assert str(raised.value) == (
                    "execute_readonly serves plain retrieve commands "
                    "only; route mutations through execute()")
        assert state(db) == before

    @pytest.mark.parametrize("cache_size", [128, 0])
    def test_a_zero_divisor_in_a_bound_raises_without_rows(
            self, cache_size):
        db = company(cache_size)
        db.execute("create t0 (id = int4)")
        for run in (db.execute, db.explain, db.execute_readonly):
            for text in ("retrieve (t0.id) where t0.id = 1/0",
                         "retrieve (emp.name) where emp.id = 99 "
                         "and emp.sal = 1 / 0"):
                with pytest.raises(ArielError) as raised:
                    run(text)
                assert (type(raised.value).__name__, str(raised.value)) \
                    == ("ExecutionError", "division by zero")

    def test_a_division_after_where_is_not_lifted(self):
        assert shape("retrieve (t.a) where t.a = 4 / 2") is None
        assert shape("delete t where t.a / 2 > 1") is None
        assert shape("retrieve (t.a) where t.b = 1 sort by t.a / 2") is None
        key, literals = shape("replace t (a = t.a / 2) where t.b = 1")
        assert literals == [2, 1] and "/" in key


# ----------------------------------------------------------------------
# the definitional oracle: a where clause means what a nested loop says
# ----------------------------------------------------------------------

#: stored ids, departments and salaries, int-vs-float, and the values no
#: index orders — null, NaN spelt out and computed, the infinities
ORACLE_BOUNDS = st.one_of(
    st.integers(-1, 12).map(str),
    st.integers(0, 11).map(lambda i: str(700 * i)),
    st.sampled_from(["2.0", "2.5", "1400.0", "3500.5", "-0.0", "nan",
                     "null", "inf", "-inf", "1e999 - 1e999", "1e999 * 0"]))
#: a hash-indexed, a B-tree-indexed and an unindexed attribute
ORACLE_ATTRS = st.sampled_from(["id", "sal", "dno"])
ORACLE_OPS = st.sampled_from(["=", "<", "<=", ">", ">=", "!="])


@st.composite
def where_clauses(draw):
    """1–3 conjuncts over id, sal and dno, piling on one attribute often
    enough that ranges beside equalities, redundant and contradictory
    bounds all turn up, with the attribute on either side."""
    home = draw(ORACLE_ATTRS)
    conjuncts = []
    for _ in range(draw(st.integers(1, 3))):
        attr = draw(st.one_of(st.just(home), ORACLE_ATTRS))
        op, bound = draw(ORACLE_OPS), draw(ORACLE_BOUNDS)
        conjuncts.append(draw(st.sampled_from(
            [f"emp.{attr} {op} {bound}", f"{bound} {op} emp.{attr}"])))
    return " and ".join(conjuncts)


def nested_loop(db: Database, where: str) -> list:
    """The ``emp.id`` of every stored row satisfying ``where``: the
    analyzed predicate evaluated over a plain heap scan — no optimizer,
    no index, no statement cache."""
    command = db.analyzer.analyze(
        parse_command(f"retrieve (emp.id) where {where}"))
    predicate = compile_expr(command.where)
    return sorted(stored.values[0]
                  for stored in db.catalog.relation("emp").scan()
                  if is_true(predicate(Bindings({"emp": stored.values}))))


@settings(max_examples=150, deadline=None)
@given(where_clauses())
def test_where_clauses_mean_what_a_nested_loop_says(where):
    for cache_size, salaries in ((128, SALARIES), (0, SALARIES),
                                 (128, ODD_SALARIES), (0, ODD_SALARIES)):
        db = company(cache_size, salaries)
        expected = nested_loop(db, where)
        rows = db.execute(f"retrieve (emp.id) where {where}").rows
        assert sorted(row[0] for row in rows) == expected, \
            (cache_size, salaries, where)
        assert db.execute(f"delete emp where {where}").count \
            == len(expected), (cache_size, salaries, where)
        assert nested_loop(db, where) == []
        assert len(db.relation_rows("emp")) == 12 - len(expected)


@pytest.mark.parametrize("text, plan", [
    # a literal point probes the hash index, as a parameter would
    ("retrieve (emp.name) where emp.id = 3",
     "IndexProbe emp as emp using emp_id on 3"),
    ("retrieve (emp.id) where emp.sal = 700",
     "IndexProbe emp as emp using emp_sal on 700"),
    ("retrieve (emp.id) where emp.sal > 100.5 and emp.sal <= 900",
     "IndexScan emp as emp using emp_sal (100.5, 900]"),
    ("retrieve (emp.id) where 700 <= emp.sal",
     "IndexScan emp as emp using emp_sal [700, +inf)"),
    # contradictory: the range is empty at run time, not at plan time
    ("retrieve (emp.id) where emp.sal > 900 and emp.sal < 5",
     "IndexScan emp as emp using emp_sal (900, 5)"),
    ("retrieve (emp.id) where emp.sal > 1000 and emp.sal = 700",
     "IndexProbe emp as emp using emp_sal on 700 [emp.sal > 1000]"),
    # redundant: the first lower bound anchors, the rest is residual
    ("retrieve (emp.id) where emp.sal > 10 and emp.sal > 2000",
     "IndexScan emp as emp using emp_sal (10, +inf) [emp.sal > 2000]"),
    # a NaN key finds nothing at run time
    ("retrieve (emp.id) where emp.sal = nan",
     "IndexProbe emp as emp using emp_sal on nan"),
    ('retrieve (emp.id) where emp.name = "e3"',
     'SeqScan emp as emp [emp.name = "e3"]'),
    ('delete emp where emp.id = 3 and emp.sal < 3500.5',
     "IndexProbe emp as emp using emp_id on 3 [emp.sal < 3500.5]"),
])
def test_one_plan_whichever_path(text, plan):
    """One bound analysis: a text prints the same plan through the
    statement cache (its literals lifted to parameters) and through the
    full pipeline (its literals constants)."""
    lifted, full = company(128).explain(text), company(0).explain(text)
    assert lifted == full == plan


# ----------------------------------------------------------------------
# the statement kernel: the same outcomes as the iterator executor
# ----------------------------------------------------------------------

#: kernel-shaped statements: point probes on a hash index (non-unique on
#: dno), B-tree equality (sal), residuals, replaces that move the key
#: they were found by, and appends whose values may not coerce
KERNEL_STATEMENTS = {
    "get": "retrieve (emp.name, emp.sal, x = emp.sal * 2 + $c) "
           "where emp.id = $k",
    "by_dno": "retrieve (emp.id, emp.name) where emp.dno = $k "
              "and emp.sal > $lo",
    "by_sal": "retrieve (emp.id) where emp.sal = $k",
    "move_id": "replace emp (id = emp.id + $d) where emp.id = $k",
    "move_sal": "replace emp (sal = $s, dno = $d) where emp.sal = $k",
    "raise": "replace emp (sal = emp.sal + $x) where emp.dno = $k "
             "and emp.id > $lo",
    "drop": "delete emp where emp.dno = $k",
    "drop_one": "delete emp where emp.id = $k and emp.sal < $s",
    "sweep": "delete emp where emp.name = $n or emp.sal < $s",
    "hire": "append emp(id = $i, name = $n, sal = $s, dno = $d)",
    "open": "append dept(dno = $d, name = $n, floor = $f)",
    "note": "append log($n, $s, 2.5)",
}

#: rule actions of the kernel's append shape: 1, 2 and 3 variables,
#: ``previous`` values, constants, arithmetic, named targets out of
#: schema order with one attribute left null, positional targets, and
#: rows read straight off one or two matched tuples
KERNEL_RULES = [
    "define rule up on replace emp(sal) if emp.sal > previous emp.sal "
    "then append to log(tag = emp.name, v = emp.sal - previous emp.sal, "
    "w = 1.5)",
    'define rule gone on delete emp '
    'then append to log(v = emp.sal, tag = "gone")',
    "define rule moved on replace emp(dno) if emp.dno = dept.dno "
    "then append to log(tag = dept.name, v = previous emp.dno, "
    "w = emp.dno * 10)",
    "define rule paid if emp.dno = dept.dno and dept.floor > 2 "
    "then append to log(tag = dept.name, v = emp.sal)",
    "define rule trio if e1.dno = d.dno and e2.dno = d.dno "
    "and e1.id < e2.id and d.floor > 1 from e1 in emp, e2 in emp, "
    "d in dept then append to log(d.name, e1.id + e2.id, d.floor)",
]

#: keys and values: stored ids, departments and salaries, duplicates,
#: absent keys, null, NaN, and types the attribute does not hold
KERNEL_VALUES = st.one_of(
    st.integers(-1, 12),
    st.integers(0, 11).map(lambda i: 100.0 * (i % 8)),
    st.sampled_from([None, float("nan"), 0.5, 99, "x", "e1"]))


def kernel_op():
    """``(statement name, parameter vector)``."""
    return st.one_of(*[
        st.tuples(st.just(name), st.fixed_dictionaries(
            {param: KERNEL_VALUES
             for param in dict.fromkeys(re.findall(r"\$(\w+)", text))}))
        for name, text in KERNEL_STATEMENTS.items()])


def kernel_company(kernel: bool):
    """The same database either way; ``kernel=False`` runs every plan
    it builds — statements and rule actions — through the iterator
    executor, on a copy of each PlannedCommand with ``kernel`` cleared.
    Returns the database, its prepared statements and its token log."""
    db = Database()
    if not kernel:
        plan_command = db.optimizer.plan_command
        db.optimizer.plan_command = lambda *args, **kwargs: \
            dataclasses.replace(plan_command(*args, **kwargs), kernel=None)
    db.execute_script("""
        create emp (id = int4, name = text, sal = float8, dno = int4)
        create dept (dno = int4, name = text, floor = int4)
        create log (tag = text, v = float8, w = float8)
        define index emp_id on emp (id) using hash
        define index emp_dno on emp (dno) using hash
        define index emp_sal on emp (sal) using btree
    """)
    for rule in KERNEL_RULES:
        db.execute(rule)
    db.bulk_append("dept", [(d, f"d{d}", d) for d in range(4)])
    db.bulk_append("emp", [(i, f"e{i}", 100.0 * (i % 8), i % 3)
                           for i in range(10)])
    tokens = []
    route = db.hooks.route_tokens

    def recording(batch):
        tokens.extend((t.kind.name, t.relation, t.tid.slot, repr(t.values),
                       repr(t.old_values)) for t in batch)
        route(batch)
    db.hooks.route_tokens = recording
    prepared = {name: db.prepare(text)
                for name, text in KERNEL_STATEMENTS.items()}
    return db, prepared, tokens


def kernel_outcome(prepared, params):
    try:
        result = prepared.execute_with(params)
    except Exception as exc:      # a mistyped key's TypeError too
        return type(exc).__name__, str(exc)
    if isinstance(result, ResultSet):
        return result.columns, [repr(row) for row in result.rows]
    return "count", result.count


def heap_digest(db):
    """Every relation's (slot, values) in slot order, every P-node, and
    the firing log."""
    return ({name: [(s.tid.slot, repr(s.values))
                    for s in db.catalog.relation(name).scan()]
             for name in ("emp", "dept", "log")},
            {name: sorted(map(repr, db.network.pnode(name).matches()))
             for name in db.network.rules},
            [(r.sequence, r.rule_name, r.match_count)
             for r in db.firing_log])


@settings(max_examples=120, deadline=None)
@given(st.lists(kernel_op(), min_size=1, max_size=20),
       st.lists(kernel_op(), max_size=10))
def test_kernel_equals_iterator(committed, aborted):
    (fast, fast_sql, fast_tokens), (slow, slow_sql, slow_tokens) = \
        kernel_company(True), kernel_company(False)
    for name, params in committed:
        assert kernel_outcome(fast_sql[name], params) \
            == kernel_outcome(slow_sql[name], params), (name, params)
        assert heap_digest(fast) == heap_digest(slow), (name, params)
        assert fast_tokens == slow_tokens, (name, params)
    before = heap_digest(fast)
    for db in (fast, slow):
        db.begin()
    for name, params in aborted:
        assert kernel_outcome(fast_sql[name], params) \
            == kernel_outcome(slow_sql[name], params), (name, params)
    for db in (fast, slow):
        db.abort()
    assert fast_tokens == slow_tokens
    assert heap_digest(fast) == heap_digest(slow)
    assert heap_digest(fast)[:2] == before[:2]      # heap and P-nodes


def test_kernel_runs_every_statement_and_action_of_the_oracle():
    """The oracle compares the kernel with something: every statement
    above and every rule action compiles to one, and only where asked."""
    for kernel in (True, False):
        db, prepared, _ = kernel_company(kernel)
        for statement in prepared.values():
            assert (statement.current_plan().kernel is not None) is kernel
        ran = []
        run = db.executor.run

        def spying(planned, params=None, ran=ran, run=run):
            ran.append(planned.kernel is not None)
            return run(planned, params)
        db.executor.run = spying
        firings = db.firings
        db.execute('append dept(dno = 1, name = "d1b", floor = 3)')
        db.execute("replace emp (sal = emp.sal + 1.0, dno = emp.dno + 1) "
                   "where emp.id = 4")
        db.execute("delete emp where emp.id = 5")
        # three statements and every action they fired (trio, paid,
        # up, trio, moved, gone)
        assert db.firings - firings == len(ran) - 3 == 6
        assert set(ran) == {kernel}


def test_matches_left_by_a_halt_fire_on_the_next_statement():
    """An empty transition skips the recognize-act cycle only while the
    agenda is empty: a halting firing leaves another rule's match
    pending, and a retrieve that makes no token still fires it."""
    db = Database()
    db.execute_script("""
        create t (id = int4, a = int4)
        create log (a = int4)
        define index t_id on t (id) using hash
        define rule stop priority 9 if t.a > 5 then halt
        define rule note priority 1 if t.a > 5 then append to log(a = t.a)
    """)
    db.execute("append t(id = 1, a = 7)")
    assert db.relation_rows("log") == [] and len(db.manager.agenda) == 1
    get = db.prepare("retrieve (t.a) where t.id = $id")
    tokens = db.hooks.tokens_generated
    assert get.execute(id=1).rows == [(7,)]
    assert db.hooks.tokens_generated == tokens
    assert db.relation_rows("log") == [(7,)]
    # the agenda is empty now: the next retrieve runs no cycle at all
    selections = db.stats.get("agenda.selections")
    assert get.execute(id=1).rows == [(7,)]
    assert db.stats.get("agenda.selections") == selections


@pytest.mark.parametrize("text, plan", [
    ("retrieve (emp.name, x = emp.sal + 1) where emp.id = 3",
     "IndexProbe emp as emp using emp_id on 3"),
    ("retrieve (emp.id) where emp.sal = 700 and emp.dno > 0",
     "IndexProbe emp as emp using emp_sal on 700 [emp.dno > 0]"),
    ("replace emp (sal = emp.sal * 2) where emp.id = 3",
     "IndexProbe emp as emp using emp_id on 3"),
    ("delete emp where emp.id = 3 and emp.sal < 3500.5",
     "IndexProbe emp as emp using emp_id on 3 [emp.sal < 3500.5]"),
    ('append emp(id = 30, name = "n", sal = 2.5, dno = 1)', "Singleton"),
])
def test_kernel_shapes_explain_and_analyze_the_plan(text, plan):
    """``explain`` prints the plan whatever runs it, and ``explain
    analyze`` instruments the iterator tree: its copy has no kernel."""
    db = company(128)
    assert db.explain(text) == company(0).explain(text) == plan
    assert db.statement_cache.lookup(shape(text)[0]) \
        .current_plan().kernel is not None
    ran = []
    run = db.executor.run

    def spying(planned, params=None):
        ran.append(planned)
        return run(planned, params)
    db.executor.run = spying
    analyzed = db.explain(text, analyze=True)
    assert ran[0].kernel is None and isinstance(ran[0].plan, AnalyzedPlan)
    assert analyzed.startswith(plan + " (") and "loops=1" in analyzed
