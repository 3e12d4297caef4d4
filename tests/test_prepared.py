"""Prepared statements: parameter signatures, parameterized access
paths, catalog-version invalidation, the transparent statement cache,
and ad-hoc/prepared equivalence (including rule firings)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.errors import ExecutionError, SemanticError
from repro.lang.lexer import tokenize
from repro.prepared import StatementCache, shape_of


def small_db(cache_size: int = 128) -> Database:
    db = Database(statement_cache_size=cache_size)
    db.execute("create emp (id = int4, name = text, sal = float8)")
    for i in range(10):
        db.execute(f'append emp(id = {i}, name = "e{i}", '
                   f'sal = {1000.0 * i})')
    return db


def shape(text: str) -> tuple:
    """The statement cache's key for ``text``."""
    return shape_of(tokenize(text))[0]


class TestSignatures:
    def test_named_signature_in_first_appearance_order(self):
        db = small_db()
        p = db.prepare("retrieve (emp.name) "
                       "where emp.sal > $lo and emp.sal < $hi "
                       "and emp.id != $lo")
        assert p.signature == ("lo", "hi")

    def test_positional_signature(self):
        db = small_db()
        p = db.prepare("retrieve (emp.name) where emp.id = $1")
        assert p.signature == ("1",)
        assert [r for r in p.execute_with({"1": 3}).rows] == [("e3",)]

    def test_no_parameters(self):
        db = small_db()
        p = db.prepare("retrieve (emp.name) where emp.id = 2")
        assert p.signature == ()
        assert p.execute().rows == [("e2",)]

    def test_missing_parameter_rejected(self):
        db = small_db()
        p = db.prepare("retrieve (emp.name) where emp.id = $id")
        with pytest.raises(ExecutionError, match=r"missing value.*\$id"):
            p.execute()

    def test_unknown_parameter_rejected(self):
        db = small_db()
        p = db.prepare("retrieve (emp.name) where emp.id = $id")
        with pytest.raises(ExecutionError,
                           match=r"unknown parameter.*\$bogus"):
            p.execute(id=1, bogus=2)

    def test_ddl_not_preparable(self):
        db = small_db()
        with pytest.raises(ExecutionError, match="cannot prepare"):
            db.prepare("create t (a = int4)")

    def test_retrieve_into_not_preparable(self):
        db = small_db()
        with pytest.raises(ExecutionError, match="cannot prepare"):
            db.prepare("retrieve into t (emp.name)")

    def test_rule_definitions_reject_parameters(self):
        db = small_db()
        with pytest.raises(SemanticError,
                           match=r"\$floor is not allowed in a rule"):
            db.execute("define rule r if emp.sal > $floor "
                       "then delete emp")

    def test_repr_shows_signature(self):
        db = small_db()
        p = db.prepare("retrieve (emp.name) where emp.id = $id")
        assert "$id" in repr(p)


class TestParameterizedPlans:
    def test_equality_param_uses_hash_index(self):
        db = small_db()
        db.execute("define index emp_id on emp (id) using hash")
        p = db.prepare("retrieve (emp.name) where emp.id = $id")
        assert "IndexProbe" in p.explain()
        assert "$id" in p.explain()
        assert p.execute(id=4).rows == [("e4",)]
        assert p.execute(id=7).rows == [("e7",)]
        assert p.execute(id=99).rows == []

    def test_range_params_use_btree_index(self):
        db = small_db()
        db.execute("define index emp_sal on emp (sal)")
        p = db.prepare("retrieve (emp.name) "
                       "where emp.sal >= $lo and emp.sal < $hi")
        plan = p.explain()
        assert "IndexScan" in plan and "$lo" in plan and "$hi" in plan
        rows = sorted(p.execute(lo=2000.0, hi=4001.0).rows)
        assert rows == [("e2",), ("e3",), ("e4",)]
        # bounds re-resolve per execution, same plan object
        assert sorted(p.execute(lo=8000.0, hi=8500.0).rows) == [("e8",)]
        assert p.replans == 1

    def test_null_range_bound_yields_no_rows(self):
        db = small_db()
        db.execute("define index emp_sal on emp (sal)")
        p = db.prepare("retrieve (emp.name) where emp.sal >= $lo")
        assert p.execute(lo=None).rows == []

    def test_nan_bound_yields_no_rows(self):
        db = small_db()
        db.execute("define index emp_sal on emp (sal)")
        nan = float("nan")
        p = db.prepare("retrieve (emp.name) where emp.sal >= $lo")
        assert p.execute(lo=nan).rows == []
        p = db.prepare("retrieve (emp.name) "
                       "where emp.sal > $lo and emp.sal <= $hi")
        assert p.execute(lo=0.0, hi=nan).rows == []
        p = db.prepare("retrieve (emp.name) where emp.sal = $x")
        assert "IndexProbe" in p.explain()
        assert p.execute(x=nan).rows == []

    def test_range_beside_an_equality_stays_in_the_residual(self):
        db = small_db()
        db.execute("define index emp_sal on emp (sal)")
        p = db.prepare("retrieve (emp.name) "
                       "where emp.sal > $lo and emp.sal = $x")
        plan = p.explain()
        assert "IndexProbe" in plan and "on $x [emp.sal > $lo]" in plan
        assert p.execute(lo=6000.0, x=5000.0).rows == []
        assert p.execute(lo=4000.0, x=5000.0).rows == [("e5",)]
        p = db.prepare("delete emp where emp.sal = $x and emp.sal < $hi")
        assert p.execute(x=5000.0, hi=2000.0).count == 0
        assert p.execute(x=5000.0, hi=5000.5).count == 1

    def test_second_bound_on_one_side_stays_in_the_residual(self):
        db = small_db()
        db.execute("define index emp_sal on emp (sal)")
        p = db.prepare("retrieve (emp.name) where emp.sal > $a "
                       "and emp.sal > $b and emp.sal < $c")
        assert "IndexScan" in p.explain()
        assert sorted(p.execute(a=1000.0, b=6000.0, c=8500.0).rows) \
            == [("e7",), ("e8",)]
        assert sorted(p.execute(a=6000.0, b=1000.0, c=8500.0).rows) \
            == [("e7",), ("e8",)]

    def test_param_without_index_filters_at_runtime(self):
        db = small_db()
        p = db.prepare("retrieve (emp.name) where emp.id = $id")
        assert "SeqScan" in p.explain()
        assert p.execute(id=5).rows == [("e5",)]

    def test_param_in_append_values(self):
        db = small_db()
        p = db.prepare("append emp(id = $id, name = $name, sal = $sal)")
        result = p.execute(id=50, name="fresh", sal=123.0)
        assert result.count == 1
        assert (50, "fresh", 123.0) in db.relation_rows("emp")

    def test_param_shared_across_conjuncts(self):
        db = small_db()
        p = db.prepare("retrieve (emp.name) "
                       "where emp.id = $n and emp.sal = $n * 1000.0")
        assert p.execute(n=6).rows == [("e6",)]
        assert p.execute(n=3).rows == [("e3",)]


class TestInvalidation:
    def test_new_index_is_picked_up(self):
        db = small_db()
        p = db.prepare("retrieve (emp.name) where emp.id = $id")
        assert "SeqScan" in p.explain()
        before = p.execute(id=3).rows
        db.execute("define index emp_id on emp (id) using hash")
        assert p.execute(id=3).rows == before
        assert "IndexProbe" in p.explain()
        assert p.replans == 2

    def test_dropped_index_never_probed(self):
        db = small_db()
        db.execute("define index emp_id on emp (id) using hash")
        p = db.prepare("retrieve (emp.name) where emp.id = $id")
        assert "IndexProbe" in p.explain()
        before = p.execute(id=3).rows
        db.execute("remove index emp_id")
        assert p.execute(id=3).rows == before
        assert "SeqScan" in p.explain()

    def test_rule_lifecycle_leaves_catalog_version(self):
        """The catalog keeps one version, of relations and indexes: a
        rule's lifecycle does not move it (the rule drops its own
        cached plans instead), DDL does."""
        db = small_db()
        v0 = db.catalog.schema_version
        for text in ("define rule r if emp.sal > 1e9 then delete emp",
                     "deactivate rule r", "activate rule r",
                     "remove rule r"):
            db.execute(text)
            assert db.catalog.schema_version == v0
        assert not hasattr(db.catalog, "version")
        db.execute("define index emp_sal on emp (sal)")
        assert db.catalog.schema_version > v0

    def test_rule_lifecycle_does_not_replan_user_statements(self):
        """A user command's plan depends on relations, indexes and
        statistics; define / deactivate / activate / remove move only
        what rule-action plans are checked against."""
        db = small_db()
        db.execute("create log (id = int4)")
        p = db.prepare("retrieve (emp.name) where emp.id = $id")
        text = "replace emp (sal = {}) where emp.id = {}"
        db.execute(text.format(1.0, 1))
        entry = db.statement_cache.lookup(shape(text.format(1.0, 1)))
        replans = db.stats.get("plan_cache.replans")
        schema = db.catalog.schema_version
        fired = []
        for n, command in enumerate((
                "define rule r if emp.sal > 5e6 "
                "then append to log(id = emp.id)",
                "deactivate rule r", "activate rule r", "remove rule r")):
            db.execute(command)
            db.execute(text.format(6e6 + n, 2))
            fired.append(len(db.relation_rows("log")))
            assert p.execute(id=2).rows == [("e2",)]
        # the cached plan kept serving, and the rule saw its updates
        # exactly while it was active (activation also primes: +1)
        assert fired == [1, 1, 3, 3]
        assert db.execute("retrieve (emp.sal) where emp.id = 2").rows \
            == [(6e6 + 3,)]
        assert db.catalog.schema_version == schema
        assert db.stats.get("plan_cache.replans") == replans
        assert (entry.replans, p.replans) == (1, 1)
        # relation and index changes still replan both
        db.execute("define index emp_id on emp (id) using hash")
        db.execute(text.format(2.0, 1))
        assert p.execute(id=2).rows == [("e2",)]
        assert (entry.replans, p.replans) == (2, 2)
        db.execute("destroy log")
        db.execute(text.format(3.0, 1))
        assert entry.replans == 3
        assert db.stats.get("plan_cache.replans") == replans + 3

    def test_replan_is_lazy_and_counted(self):
        db = small_db()
        p = db.prepare("retrieve (emp.name) where emp.id = $id")
        p.execute(id=1)
        p.execute(id=2)
        assert (p.replans, p.executions) == (1, 2)
        db.execute("create other (a = int4)")
        db.execute("destroy other")
        # two DDL bumps, one replan at next use
        p.execute(id=3)
        assert (p.replans, p.executions) == (2, 3)

    def test_relation_recreate_resolves_fresh_schema(self):
        db = small_db()
        p = db.prepare("retrieve (emp.name) where emp.id = $id")
        assert p.execute(id=1).rows == [("e1",)]
        db.execute("destroy emp")
        db.execute("create emp (id = int4, name = text, sal = float8)")
        db.execute('append emp(id = 1, name = "reborn", sal = 0.0)')
        assert p.execute(id=1).rows == [("reborn",)]


class TestExplainStaleness:
    def test_explain_reflects_index_created_after_first_explain(self):
        # regression: explain used to re-plan from scratch each call
        # while execute served a cached plan — after DDL the two could
        # disagree.  Both now route through the statement cache.
        db = small_db()
        text = "retrieve (emp.name) where emp.id = 3"
        assert "SeqScan" in db.explain(text)
        db.execute("define index emp_id on emp (id) using hash")
        after = db.explain(text)
        assert "emp_id" in after and "SeqScan" not in after
        assert db.execute(text).rows == [("e3",)]

    def test_explain_matches_what_execute_runs(self):
        db = small_db()
        text = "retrieve (emp.name) where emp.id = 3"
        db.execute(text)                      # populates the cache
        db.execute("define index emp_id on emp (id) using hash")
        assert "emp_id" in db.explain(text)
        entry = db.statement_cache.lookup(shape(text))
        assert entry is not None and entry.replans == 2
        # explain showed the entry execute runs: same access path and
        # index, the lifted bound printed as this text's own literal
        assert db.explain(text) == entry.explain({"1": 3})
        assert "IndexProbe emp as emp using emp_id on 3" in db.explain(text)
        assert db.explain("retrieve (emp.name) where emp.id = 4") \
            == db.explain(text).replace("on 3", "on 4")


class TestStatementCache:
    def test_repeated_text_hits_cache(self):
        db = small_db()
        text = "retrieve (emp.name) where emp.id = 3"
        hits = db.statement_cache.hits      # small_db's own appends
        for _ in range(3):
            assert db.execute(text).rows == [("e3",)]
        assert shape(text) in db.statement_cache
        assert db.statement_cache.hits == hits + 2
        assert db.statement_cache.lookup(shape(text)).replans == 1

    def test_cached_entry_replans_after_ddl(self):
        db = small_db()
        text = "retrieve (emp.name) where emp.id = 3"
        db.execute(text)
        db.execute("define index emp_id on emp (id) using hash")
        assert db.execute(text).rows == [("e3",)]
        assert db.statement_cache.lookup(shape(text)).replans == 2

    def test_lru_eviction(self):
        cache = StatementCache(capacity=2)
        sentinel = object()
        cache.store("a", sentinel)
        cache.store("b", sentinel)
        cache.lookup("a")                     # refresh a
        cache.store("c", sentinel)            # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert len(cache) == 2

    def test_zero_capacity_disables_caching(self):
        db = small_db(cache_size=0)
        text = "retrieve (emp.name) where emp.id = 3"
        assert db.execute(text).rows == [("e3",)]
        assert len(db.statement_cache) == 0

    def test_ddl_never_cached(self):
        db = small_db()
        db.execute("create t (a = int4)")
        assert "create t (a = int4)" not in db.statement_cache


class TestExecuteMany:
    def test_bulk_parameterized_append(self):
        db = small_db()
        results = db.execute_many(
            "append emp(id = $id, name = $name, sal = $sal)",
            [{"id": 100 + i, "name": f"bulk{i}", "sal": float(i)}
             for i in range(5)])
        assert [r.count for r in results] == [1] * 5
        rows = db.relation_rows("emp")
        assert (104, "bulk4", 4.0) in rows and len(rows) == 15

    def test_results_in_input_order(self):
        db = small_db()
        results = db.execute_many(
            "retrieve (emp.name) where emp.id = $id",
            [{"id": 2}, {"id": 0}, {"id": 42}])
        assert [r.rows for r in results] == [[("e2",)], [("e0",)], []]


# ----------------------------------------------------------------------
# equivalence property: prepared-with-params behaves byte-identically to
# ad-hoc text, across all four DML kinds, with and without active rules
# ----------------------------------------------------------------------

IDS = st.integers(min_value=0, max_value=30)
SALS = st.integers(min_value=0, max_value=10_000).map(float)
NAMES = st.text(alphabet="abcdefgh", max_size=6)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("retrieve"), IDS),
        st.tuples(st.just("append"), IDS, NAMES, SALS),
        st.tuples(st.just("delete"), SALS),
        st.tuples(st.just("replace"), IDS, SALS),
    ),
    min_size=1, max_size=10)


def equivalence_db(rules: bool) -> Database:
    # the ad-hoc side gets no statement cache so it exercises the plain
    # parse → analyze → plan → execute pipeline for every command
    db = Database(statement_cache_size=0)
    db.execute_script("""
        create emp (id = int4, name = text, sal = float8)
        create log (id = int4, sal = float8)
    """)
    db.execute("define index emp_id on emp (id) using hash")
    if rules:
        db.execute("define rule high_sal if emp.sal > 5000 "
                   "then append to log(id = emp.id, sal = emp.sal)")
        db.execute("define rule low_sal if emp.sal < 100 "
                   "then append to log(id = emp.id, sal = 0.0)")
    for i in range(8):
        db.execute(f'append emp(id = {i}, name = "seed{i}", '
                   f'sal = {i * 900.0})')
    return db


def observable_state(db: Database):
    return (sorted(db.relation_rows("emp")),
            sorted(db.relation_rows("log")),
            db.firings)


@pytest.mark.parametrize("rules", [False, True])
@settings(max_examples=20, deadline=None)
@given(ops=OPS)
def test_prepared_equivalent_to_adhoc(rules, ops):
    adhoc = equivalence_db(rules)
    other = equivalence_db(rules)
    prepared = {
        "retrieve": other.prepare(
            "retrieve (emp.name, emp.sal) where emp.id = $id"),
        "append": other.prepare(
            "append emp(id = $id, name = $name, sal = $sal)"),
        "delete": other.prepare("delete emp where emp.sal > $floor"),
        "replace": other.prepare(
            "replace emp (sal = emp.sal + $delta) where emp.id = $id"),
    }
    for op in ops:
        kind = op[0]
        if kind == "retrieve":
            a = adhoc.execute(f"retrieve (emp.name, emp.sal) "
                              f"where emp.id = {op[1]}")
            p = prepared[kind].execute(id=op[1])
            assert sorted(map(str, a.rows)) == sorted(map(str, p.rows))
        elif kind == "append":
            _, ident, name, sal = op
            a = adhoc.execute(f'append emp(id = {ident}, '
                              f'name = "{name}", sal = {sal})')
            p = prepared[kind].execute(id=ident, name=name, sal=sal)
            assert a.count == p.count
        elif kind == "delete":
            a = adhoc.execute(f"delete emp where emp.sal > {op[1]}")
            p = prepared[kind].execute(floor=op[1])
            assert a.count == p.count
        else:
            _, ident, delta = op
            a = adhoc.execute(f"replace emp (sal = emp.sal + {delta}) "
                              f"where emp.id = {ident}")
            p = prepared[kind].execute(id=ident, delta=delta)
            assert a.count == p.count
        assert observable_state(adhoc) == observable_state(other)


class TestShellMetaCommands:
    @pytest.fixture
    def shell(self):
        import io
        from repro.cli import Shell
        out = io.StringIO()
        sh = Shell(small_db(), out=out)
        return sh, out

    def test_timing_toggle(self, shell):
        sh, out = shell
        sh.feed("\\timing on")
        sh.feed("retrieve (emp.name) where emp.id = 1;")
        assert "Time:" in out.getvalue() and "ms" in out.getvalue()
        sh.feed("\\timing off")
        assert "timing is off" in out.getvalue()

    def test_prepare_and_exec_named(self, shell):
        sh, out = shell
        sh.feed("\\prepare byid retrieve (emp.name) where emp.id = $id")
        assert "prepared byid($id)" in out.getvalue()
        sh.feed("\\exec byid id=4")
        assert "e4" in out.getvalue()

    def test_exec_positional_fills_signature(self, shell):
        sh, out = shell
        sh.feed("\\prepare ins append emp(id = $id, name = $name, "
                "sal = $sal)")
        sh.feed('\\exec ins 77 "kim" 5.5')
        assert "1 tuple(s) affected" in out.getvalue()
        assert (77, "kim", 5.5) in sh.db.relation_rows("emp")

    def test_exec_unknown_statement(self, shell):
        sh, out = shell
        sh.feed("\\exec nope id=1")
        assert "no prepared statement 'nope'" in out.getvalue()

    def test_exec_too_many_positionals(self, shell):
        sh, out = shell
        sh.feed("\\prepare one retrieve (emp.name) where emp.id = $id")
        sh.feed("\\exec one 1 2")
        assert "too many positional arguments" in out.getvalue()

    def test_prepare_rejects_ddl(self, shell):
        sh, out = shell
        sh.feed("\\prepare bad create t (a = int4)")
        assert "error: cannot prepare" in out.getvalue()


class TestTargetListCompiledOnce:
    """An append / replace target list is compiled once per planned
    command — by the statement kernel when the plan is built, else by
    the executor on the first run — not once per execution."""

    @staticmethod
    def _count_compiles(monkeypatch):
        from repro.executor import executor
        calls = []
        real = executor.compile_expr

        def counting(expr):
            calls.append(expr)
            return real(expr)

        monkeypatch.setattr(executor, "compile_expr", counting)
        return calls

    def test_prepared_append_and_replace(self, monkeypatch):
        db = small_db()
        calls = self._count_compiles(monkeypatch)
        app = db.prepare("append emp(id = $id, name = $name, sal = $sal)")
        rep = db.prepare("replace emp (sal = emp.sal + $d) "
                         "where emp.id = $id")
        for i in range(20, 25):
            app.execute(id=i, name=f"e{i}", sal=1.0)
            rep.execute(id=i, d=float(i))
        assert len(calls) == 3 + 1
        assert sorted(db.execute("retrieve (emp.sal) "
                                 "where emp.id >= 20").column("sal")) \
            == [21.0, 22.0, 23.0, 24.0, 25.0]
        # a replan (DDL moved the catalog version) compiles afresh
        db.execute("define index emp_id on emp (id) using hash")
        del calls[:]
        app.execute(id=30, name="e30", sal=2.0)
        app.execute(id=31, name="e31", sal=2.0)
        assert len(calls) == 3

    def test_cached_action_plan(self, monkeypatch):
        db = Database()
        db.execute("create emp (id = int4, sal = float8)")
        db.execute("create log (id = int4, sal = float8)")
        db.execute("define rule r if emp.sal > 10 "
                   "then append to log(id = emp.id, sal = emp.sal * 2)")
        db.execute("append emp(id = 0, sal = 11.0)")
        calls = self._count_compiles(monkeypatch)
        for i in range(1, 6):
            db.execute(f"append emp(id = {i}, sal = {10.0 + i})")
        # the five ad-hoc appends share the first one's shape, so its
        # plan serves them all: neither they nor the rule's cached
        # action plan compile anything more
        assert len(calls) == 0
        assert sorted(db.relation_rows("log"))[-1] == (5, 30.0)
