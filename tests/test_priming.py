"""Activation primes a rule through the network, in one pass.

``DiscriminationNetwork.prime_rule`` loads each stored α-memory with one
``VariableSpec.select`` pass and fills the P-node by joining the
just-loaded memories through the network's own join step.  Checked here:

* the property — every way a rule gets activated (``define``,
  ``deactivate`` + ``activate``, each under the storage budget an
  interleaved ``optimize_memories`` left, which also swaps memories in
  place; a ``persist`` round trip, ``Database.recover``) leaves exactly
  the state a reference database leaves whose network primes by running
  the planned query the paper describes (the oracle lives in this file
  only), and ``check_network`` — an independent from-scratch evaluation
  — agrees;
* the cost — ``network.prime_tuples_examined`` is one pass per stored
  variable (plus the seed's, when the seed is not stored), whatever the
  relation size;
* priming leaves the ``joins.*`` / ``virtual.*`` / ``alpha.join_probes``
  counters alone, and the join indexes exist before it runs;
* ``ActionPlanner`` lets go of a removed rule's matches.
"""

import contextlib
import gc
import itertools
import math
import pathlib
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, persist
from repro.core.alpha import MemoryEntry
from repro.core.memory_optimizer import optimize_memories
from repro.core.network import DiscriminationNetwork
from repro.core.pnode import Match
from repro.core.validate import check_network
from repro.executor.executor import ExecutionContext
from repro.lang.expr import Bindings

from tests.helpers import budgeted


# ----------------------------------------------------------------------
# the oracle: the planned-query priming this change replaced
# ----------------------------------------------------------------------

def _query_prime(network, rule):
    """Paper §6: one one-variable query per tuple variable, plus a query
    equivalent to the entire rule condition to load the P-node."""
    for var in rule.variables:
        spec = rule.specs[var]
        memory = network._memories[(rule.name, var)]
        if memory.is_virtual or spec.is_dynamic or spec.is_simple:
            continue
        for stored in network.catalog.relation(spec.relation).scan():
            if spec.selection_matches(stored.values, None):
                memory.insert(MemoryEntry(stored.tid, stored.values))
    rebuild = (network._join_memories            # Rete's β chain
               if hasattr(network, "beta_entry_count") else None)
    if rule.has_dynamic_variable:
        if rebuild is not None:
            rebuild(rule)
        return
    plan = network.optimizer.plan_variables(
        rule.variables, rule.condition, rule.var_relations)
    pnode = network._pnodes[rule.name]
    inserted = False
    for bound in plan.rows(ExecutionContext(network.catalog), Bindings()):
        parts = {var: MemoryEntry(bound.tids[var], bound.current[var])
                 for var in rule.variables}
        network._stamp += 1
        inserted |= pnode.insert(Match.of(parts), network._stamp)
    if rebuild is not None:
        rebuild(rule)
    if inserted:
        network.on_match(rule)


def _use_query_priming(db):
    """Swap the network for a subclass priming with the planned query."""
    cls = type(db.network)
    db.network.__class__ = type(
        "QueryPrimed" + cls.__name__, (cls,), {"prime_rule": _query_prime})
    return db


@contextlib.contextmanager
def _query_priming_everywhere():
    """For databases built inside ``persist.loads`` / ``recover``."""
    saved = DiscriminationNetwork.prime_rule
    DiscriminationNetwork.prime_rule = _query_prime
    try:
        yield
    finally:
        DiscriminationNetwork.prime_rule = saved


# ----------------------------------------------------------------------
# (a) the property
# ----------------------------------------------------------------------

#: t.a carries a b-tree, u.b a hash index, v.c a b-tree; the float
#: columns (where NaN can sit) carry none
SCHEMA = """
    create t (a = int4, x = float8, k = int4)
    create u (b = int4, y = float8, k = int4)
    create v (c = int4, k = int4)
    create log (tag = text, n = int4)
    create tick (n = int4)
    define index t_a on t (a) using btree
    define index u_b on u (b) using hash
    define index v_c on v (c) using btree
"""

_LOG = 'then append to log(tag = "{0}", n = {1})'

#: condition shapes: 1-3 variables, self-joins, the cyclic triangle,
#: dynamic rules (nothing primed), point / open / closed / half-open /
#: unbounded anchors, residual-only and selection-free variables, an
#: anchor on an indexed (t.a, v.c) and an un-indexed (t.x, u.y)
#: attribute, int-vs-float comparisons at the anchor
RULES = {
    "point": ("if t.a = 3", "t.k"),
    "point_f": ("if t.x = 3", "t.k"),
    "open": ("if t.a > 4", "t.k"),
    "open_f": ("if t.a > 2.5", "t.k"),
    "closed": ("if t.a >= 2 and t.a <= 6", "t.k"),
    "half": ("if 2 < t.a and t.a <= 6", "t.k"),
    "unidx": ("if t.x < 2.5", "t.k"),
    "unidx_closed": ("if 1.0 <= t.x and t.x <= 3.0", "t.k"),
    "resid": ("if t.a != 3", "t.k"),
    "resid_arith": ("if t.a + t.k > 6", "t.k"),
    "both": ("if t.a > 1 and t.x != 2.0 and t.k < 9", "t.k"),
    "free2": ("if t.a = u.b", "u.k"),
    "sel2": ("if t.a > 3 and t.a = u.b and u.y <= 5.0", "u.k"),
    "theta": ("if t.a < u.b and u.b <= 4", "t.k"),
    "self": ("if t1.a = t2.a and t1.k < t2.k from t1 in t, t2 in t",
             "t2.k"),
    "self_sel": ("if t1.a > 2 and t2.a > 2 and t1.a = t2.a "
                 "from t1 in t, t2 in t", "t1.k"),
    "chain": ("if t.a = u.b and u.k = v.k and v.c >= 1", "v.k"),
    "tri": ("if t.a = u.b and u.k = v.k and v.c = t.a", "v.k"),
    "tri_self": ("if x.a = y.a and y.k = z.k and z.a = x.a "
                 "from x in t, y in t, z in t", "z.k"),
    "cross": ("if t.a = 2 and v.c = 2", "v.k"),
    "ev": ("on append t if t.a > 2", "t.k"),
    "tr": ("if t.a > previous t.a", "t.k"),
    "nw": ("if new(v) and v.c > 0", "v.k"),
    "mix": ("on append t if t.a = u.b and u.y > 1.0", "u.k"),
}
RULE_NAMES = sorted(RULES)
#: one rule whose action deletes (set-oriented, so order-independent)
DELETING = 'if v.c = 0 and v.c = u.b then delete v'


def _rule_text(name):
    if name == "purge":
        return f"define rule purge {DELETING}"
    condition, n = RULES[name]
    return f"define rule {name} {condition} " + _LOG.format(name, n)


#: (network, storage budget — see tests.helpers.BUDGETS); Rete
#: stores every memory, so only at budget ∞
CONFIGS = [config for config in itertools.product(
    ("a-treat", "treat", "rete"), ("auto", "always", "never"))
    if config[0] != "rete" or config[1] == "never"]

_int = st.integers(0, 7)
_float = st.one_of(st.none(), st.just(float("nan")),
                   st.sampled_from((0.0, 1.0, 2.0, 2.5, 3.0, 5.0, 6.5)))
_float_plain = st.one_of(st.none(),
                         st.sampled_from((0.0, 1.0, 2.0, 3.5, 5.0, 7.0)))
_maybe_int = st.one_of(st.none(), _int)
_rows = st.fixed_dictionaries({
    "t": st.lists(st.tuples(_maybe_int, _float), max_size=14),
    "u": st.lists(st.tuples(_maybe_int, _float_plain), max_size=14),
    "v": st.lists(st.tuples(_maybe_int), max_size=12),
})
_rule = st.sampled_from(RULE_NAMES + ["purge"])
_op = st.one_of(
    st.tuples(st.sampled_from(("define", "define", "deactivate",
                               "activate", "remove")), _rule),
    st.tuples(st.just("optimize"), st.integers(0, 40)),
    st.tuples(st.just("insert"), st.sampled_from("tuv"), _int,
              st.sampled_from(("half", "null", "nan"))),
    st.tuples(st.just("delete"), st.sampled_from("tuv"), _int),
    st.tuples(st.just("modify"), st.sampled_from("tuv"), _int, _int),
)
_COLUMN = {"t": "a", "u": "b", "v": "c"}


def _build(config, rows, root, oracle):
    network, budget = config
    db = budgeted(budget, network=network, durable_path=root)
    if oracle:
        _use_query_priming(db)
    db.execute_script(SCHEMA)
    for rel in "tuv":
        db.bulk_append(rel, [row + (k,)
                             for k, row in enumerate(rows[rel])])
    return db


def _norm(values):
    """NaN is not equal to itself: make snapshots comparable."""
    if values is None:
        return None
    return tuple("nan" if isinstance(v, float) and math.isnan(v) else v
                 for v in values)


def _network_state(db):
    network = db.network
    return {
        "pnodes": {
            name: sorted(
                ([(var, _norm(e.values), _norm(e.old_values))
                  for var, e in match.bindings]
                 for match in network.pnode(name).matches()), key=repr)
            for name in network.rules},
        "alpha": {
            key: sorted(((e.tid.slot, _norm(e.values))
                         for e in memory.entries()), key=repr)
            for key, memory in network._memories.items()
            if not memory.is_virtual},
        "virtual": sorted(key for key, memory
                          in network._memories.items()
                          if memory.is_virtual),
        "beta": {name: len(list(network.beta_partials(name)))
                 for name in network.rules},
    }


def _join_counters(db):
    """The join-step counters the e2e layer metrics read."""
    return {key: value for key, value in db.stats.counters.items()
            if key.startswith(("joins.", "virtual."))
            or key == "alpha.join_probes"}


def _rows_state(db):
    return {rel: sorted(map(_norm, db.relation_rows(rel)),
                        key=repr)
            for rel in ("t", "u", "v", "log")}


def _firings(db):
    return [(r.rule_name, r.match_count) for r in db.firing_log]


class _Driver:
    def __init__(self, db):
        self.db = db
        self.next_key = 100

    def lifecycle(self, op):
        """Run one activation-changing op with firing suspended, so the
        freshly primed P-nodes can be looked at; False = rejected."""
        db = self.db
        db._rules_suspended = True
        try:
            if op[0] == "optimize":
                optimize_memories(db, op[1])
            elif op[0] == "define":
                db.execute(_rule_text(op[1]))
            else:
                db.execute(f"{op[0]} rule {op[1]}")
        except Exception as exc:        # noqa: BLE001 - compared below
            return type(exc)
        finally:
            db._rules_suspended = False
        return None

    def fire(self):
        """Any transition wakes the rules primed while suspended."""
        self.db.execute("append tick(n = 1)")

    def data(self, op):
        db, kind, rel = self.db, op[0], op[1]
        col = _COLUMN[rel]
        if kind == "insert":
            self.next_key += 1
            # a float drawn after rules exist: k.5, null or NaN
            value = f"{op[2]}.5" if op[3] == "half" else op[3]
            extra = ", ".join(
                f"{name} = {value}" for name in ("x", "y")
                if name in [a.name for a in
                            db.catalog.relation(rel).schema])
            db.execute(f"append {rel}({col} = {op[2]}, "
                       f"k = {self.next_key}"
                       + (f", {extra})" if extra else ")"))
        elif kind == "delete":
            db.execute(f"delete {rel} where {rel}.k = {op[2]}")
        else:
            db.execute(f"replace {rel} ({col} = {op[3]}) "
                       f"where {rel}.k = {op[2]}")


def _compare(db, reference, where, primed=None):
    """Same state as the oracle's, and consistent with a from-scratch
    evaluation — which, while firing is suspended, includes that the
    P-node of the rule just ``primed`` is complete (the others were
    legitimately drained by their firings)."""
    assert _network_state(db) == _network_state(reference), where
    assert [p for p in check_network(db)
            if p.kind != "pnode-missing" or p.rule_name == primed] \
        == [], where


@settings(max_examples=70, deadline=None)
@given(_rows, st.lists(_op, min_size=1, max_size=14),
       st.sampled_from(CONFIGS))
def test_network_priming_equals_query_priming(rows, ops, config):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        db = _build(config, rows, tmp / "new", oracle=False)
        reference = _build(config, rows, tmp / "ref", oracle=True)
        treat_family = config[0] != "rete"
        try:
            driver, oracle = _Driver(db), _Driver(reference)
            for op in ops:
                if op[0] in ("insert", "delete", "modify"):
                    driver.data(op)
                    oracle.data(op)
                else:
                    before = _join_counters(db)
                    outcome = driver.lifecycle(op)
                    assert outcome == oracle.lifecycle(op), op
                    primed = op[1] if outcome is None and op[0] in (
                        "define", "activate") else None
                    # completeness of the primed P-nodes is checked
                    # against a from-scratch evaluation while suspended
                    db._rules_suspended = True
                    try:
                        _compare(db, reference, op, primed)
                    finally:
                        db._rules_suspended = False
                    if op[0] != "optimize":
                        # priming is not token traffic (on Rete the β
                        # build always counted, on both sides alike)
                        assert _join_counters(db) \
                            == _join_counters(reference), op
                        if treat_family:
                            assert _join_counters(db) == before, op
                    if treat_family:
                        # one stamp per complete combination, as the
                        # query gave one row per combination: agenda
                        # recency reads nothing else
                        assert db.network._stamp \
                            == reference.network._stamp, op
                    driver.fire()
                    oracle.fire()
                _compare(db, reference, op)
                assert _rows_state(db) == _rows_state(reference), op
                assert _firings(db) == _firings(reference), op

            # a persist round trip re-primes every rule from the script
            loaded = persist.loads(persist.dumps(db))
            with _query_priming_everywhere():
                ref_loaded = persist.loads(persist.dumps(reference))
            _compare(loaded, ref_loaded, "persist")
            assert _rows_state(loaded) == _rows_state(db)

            # and so does recovery (checkpoint script + WAL replay)
            db.close()
            reference.close()
            # the budget is not checkpointed: both come back all-stored
            network = config[0]
            recovered = Database.recover(tmp / "new", network=network)
            with _query_priming_everywhere():
                ref_recovered = Database.recover(tmp / "ref",
                                                 network=network)
            try:
                _compare(recovered, ref_recovered, "recover")
                assert _rows_state(recovered) == _rows_state(reference)
            finally:
                recovered.close()
                ref_recovered.close()
        finally:
            for handle in (db, reference):
                if not handle._closed:
                    handle.close()


# ----------------------------------------------------------------------
# the kernel and its access paths, edge by edge
# ----------------------------------------------------------------------

def _spec_db(rows, condition, index=None):
    db = Database()
    db.execute("create t (a = int4, x = float8, k = int4)")
    db.execute("create log (tag = text, n = int4)")
    if index:
        db.execute(f"define index t_i on t ({index[0]}) using {index[1]}")
    db.bulk_append("t", rows)
    db._rules_suspended = True
    db.execute(f"define rule r if {condition} and t.k = u.k "
               f"from t in t, u in t " + _LOG.format("r", "t.k"))
    return db, db.network.rules["r"].specs["t"]


NAN = float("nan")
EDGE_ROWS = [(1, 1.0, 0), (2, 2.0, 1), (3, 3.0, 2), (None, None, 3),
             (3, NAN, 4), (4, 2, 5), (6, 6.5, 6), (2, 2.0, 7)]


@pytest.mark.parametrize("condition, expected", [
    ("t.a = 3", {2, 4}),
    ("t.a >= 2 and t.a <= 4", {1, 2, 4, 5, 7}),
    ("t.a > 2 and t.a < 4", {2, 4}),
    ("2 < t.a and t.a <= 6", {2, 4, 5, 6}),
    ("t.a >= 4", {5, 6}),
    ("t.a < 2.5", {0, 1, 7}),
    ("t.x = 2", {1, 5, 7}),
    ("t.x <= 2.0", {0, 1, 5, 7}),
    ("t.x > 2.0", {2, 6}),
    ("t.x != 2.0", {0, 2, 4, 6}),            # residual only; NaN != 2
    ("t.a >= 2 and t.x != 2.0", {2, 4, 6}),
    ("t.a + t.k > 7", {5, 6, 7}),
])
@pytest.mark.parametrize("index", [None, ("a", "btree"), ("a", "hash"),
                                   ("x", "btree")])
def test_select_matches_the_full_selection_predicate(condition, expected,
                                                     index):
    db, spec = _spec_db(EDGE_ROWS, condition, index)
    relation = db.catalog.relation("t")
    want = {s.values[2] for s in relation.scan()
            if spec.selection_matches(s.values, None)}
    assert want == expected
    got = list(spec.select(relation))
    assert sorted(v[2] for _, v in got) == sorted(want)
    assert all(relation.get(tid) is values for tid, values in got)
    for position, value in ((0, 3), (0, 2.0), (1, 2), (2, 5), (0, 99)):
        narrowed = {v[2] for _, v in spec.select(relation,
                                                 (position, value))}
        assert narrowed == {s.values[2] for s in relation.scan()
                            if s.values[2] in want
                            and s.values[position] == value}
    # a null or NaN equality matches nothing, not the null / NaN rows
    assert list(spec.select(relation, (0, None))) == []
    assert list(spec.select(relation, (1, NAN))) == []
    assert check_network(db) == []


def test_select_uses_an_index_when_one_fits():
    rows = [(i % 50, float(i), i) for i in range(1000)]
    for condition, index, at_most in (
            ("t.a = 7", ("a", "hash"), 20),
            ("t.a = 7", ("a", "btree"), 20),
            ("t.a >= 10 and t.a < 12", ("a", "btree"), 40),
            ("t.a >= 10 and t.a < 12", ("a", "hash"), 1000),
            ("t.x < 5.0", None, 1000)):
        db, spec = _spec_db(rows, condition, index)
        tally = [0]
        found = list(spec.select(db.catalog.relation("t"), tally=tally))
        assert tally[0] == at_most, (condition, index)
        assert len(found) == sum(
            1 for r in rows if spec.selection_matches(r, None))
    # an equality the caller supplies is probed first …
    db, spec = _spec_db(rows, "t.x < 500.0", ("a", "hash"))
    tally = [0]
    assert len(list(spec.select(db.catalog.relation("t"), (0, 7),
                                tally))) == 10
    assert tally[0] == 20
    # … and falls back on the anchor's index when it has none
    db, spec = _spec_db(rows, "t.a >= 10 and t.a < 12", ("a", "btree"))
    tally = [0]
    assert len(list(spec.select(db.catalog.relation("t"), (2, 510),
                                tally))) == 1
    assert tally[0] == 40


def test_primed_match_order_is_seed_memory_order():
    db = Database(network="treat")
    db.execute_script("""
        create t (a = int4, k = int4)
        create u (b = int4, k = int4)
        create log (tag = text, n = int4)
    """)
    db.bulk_append("t", [(i % 3, i) for i in range(9)])
    db.bulk_append("u", [(i, i) for i in range(3)])
    db._rules_suspended = True
    db.execute("define rule r if t.a = u.b " + _LOG.format("r", "t.k"))
    matches = db.network.pnode("r").matches()
    assert len(matches) == 9
    # u is the smaller loaded memory: matches come out in its slot order
    assert [m.entry("u").values[0] for m in matches] == sorted(
        m.entry("u").values[0] for m in matches)


# ----------------------------------------------------------------------
# (b) cost: one pass per stored variable, whatever the relation size
# ----------------------------------------------------------------------

#: a finite budget the knapsack does not run out of: it stores what
#: saves probe work and leaves the rest virtual (A-TREAT)
_ROOMY = 10 ** 6


def _company(rows, budget=_ROOMY):
    db = budgeted(budget)
    db.execute_script("""
        create emp (id = int4, sal = float8, dno = int4, jno = int4)
        create dept (dno = int4, name = text)
        create job (jno = int4, title = text)
        create log (id = int4)
        define index emp_id on emp (id) using btree
        define index dept_dno on dept (dno) using hash
        define index job_jno on job (jno) using hash
    """)
    db.bulk_append("dept", [(i, f"d{i}") for i in range(40)])
    db.bulk_append("job", [(i, f"j{i}") for i in range(10)])
    db.bulk_append("emp", [(i, (i % 100) * 10.0, i % 40, i % 10)
                           for i in range(rows)])
    return db


def _examined_by(db, text):
    primed = db.stats.get("network.rules_primed")
    before = db.stats.get("network.prime_tuples_examined")
    db.execute(text)
    assert db.stats.get("network.rules_primed") == primed + 1
    return db.stats.get("network.prime_tuples_examined") - before


_ACTION = "then append to log(id = emp.id)"
_SHAPES = {
    1: "100 < emp.sal and emp.sal <= 150",
    2: "100 < emp.sal and emp.sal <= 150 and emp.dno = dept.dno",
    3: ("100 < emp.sal and emp.sal <= 150 and emp.dno = dept.dno "
        "and emp.jno = job.jno"),
}


@pytest.mark.parametrize("rows", [500, 5000])
def test_activation_examines_each_stored_relation_once(rows):
    db = _company(rows)
    for variables, condition in _SHAPES.items():
        name = f"r{variables}"
        examined = _examined_by(
            db, f"define rule {name} if {condition} {_ACTION}")
        rule = db.network.rules[name]
        stored = [v for v in rule.variables
                  if not db.network.memory(name, v).is_virtual]
        # dept and job keep every row and answer a join probe through
        # their dno/jno index as cheaply as a stored scan, so the budget
        # leaves them virtual: the stored emp memory (the seed) is the
        # only relation read
        assert stored == ["emp"]
        budget = sum(len(db.catalog.relation(rule.specs[v].relation))
                     for v in stored)
        assert rows <= examined <= 1.05 * budget
        assert db.firing_log[-1].match_count == rows // 20
        db.execute(f"deactivate rule {name}")
        assert _examined_by(db, f"activate rule {name}") == examined
        assert check_network(db) == []
    # an index on the anchor attribute makes the pass sub-linear
    assert _examined_by(
        db, f"define rule narrow if emp.id >= 10 and emp.id < 20 "
            f"and emp.dno = dept.dno {_ACTION}") == 10


def test_all_stored_rule_reads_each_relation_once():
    db = Database(network="treat")
    db.execute_script("""
        create a (k = int4)
        create b (k = int4)
        create log (k = int4)
    """)
    db.bulk_append("a", [(i % 50,) for i in range(2000)])
    db.bulk_append("b", [(i,) for i in range(50)])
    db._rules_suspended = True
    # the join graph indexed both memories before priming loaded them,
    # so priming's 50 seeks into the 2,000-entry a memory are bucket
    # lookups, not scans
    indexed_at_priming = []
    prime_rule = db.network.prime_rule

    def recording_prime(rule):
        indexed_at_priming.extend(
            db.network.memory(rule.name, var).join_index_positions()
            for var in rule.variables)
        prime_rule(rule)

    db.network.prime_rule = recording_prime
    assert _examined_by(db, "define rule ab if a.k = b.k "
                            "then append to log(k = a.k)") == 2050
    assert indexed_at_priming == [[0], [0]]
    assert len(db.network.pnode("ab")) == 2000
    assert db.stats.get("alpha.join_probes") == 0
    assert db.stats.get("joins.seeks") == 0
    assert check_network(db) == []


def test_prime_counters_respect_the_stats_switch():
    db = _company(100)
    db.stats.enabled = False
    db.execute(f"define rule r if {_SHAPES[2]} {_ACTION}")
    assert db.stats.enabled is False
    db.stats.enabled = True
    assert db.stats.get("network.rules_primed") == 0
    assert db.stats.get("network.prime_tuples_examined") == 0


@pytest.mark.parametrize("budget", [_ROOMY, math.inf],
                         ids=["a-treat", "treat"])
def test_priming_does_not_feed_probe_feedback(budget):
    db = _company(600, budget)
    for variables in (2, 3):
        db.execute(f"define rule r{variables} if {_SHAPES[variables]} "
                   f"{_ACTION}")
    assert not [key for key in db.stats.counters
                if key.startswith(("joins.", "virtual."))
                or key == "alpha.join_probes"]
    assert db.stats.get("pnode.inserts") == 2 * 30
    # token traffic still counts
    db.execute("append emp(id = 9000, sal = 120.0, dno = 3, jno = 3)")
    assert db.stats.get("joins.seeks") == 2


# ----------------------------------------------------------------------
# the action planner lets go of removed rules
# ----------------------------------------------------------------------

def _live_matches():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Match)


@pytest.mark.parametrize("deactivate_first", [False, True])
def test_removed_rules_leave_nothing_in_the_action_planner(deactivate_first):
    db = _company(200)
    db.execute(f"define rule keep if {_SHAPES[2]} {_ACTION}")
    baseline = None
    for i in range(300):
        db.execute(f"define rule dyn{i} if {_SHAPES[1 + i % 3]} {_ACTION}")
        assert db.firing_log[-1].rule_name == f"dyn{i}"
        if deactivate_first:
            db.execute(f"deactivate rule dyn{i}")
        db.execute(f"remove rule dyn{i}")
        if i == 20:
            baseline = _live_matches()
    assert _live_matches() <= baseline
    # the planner keeps no per-rule state; the plans went with the rules
    assert set(vars(db.action_planner)) == {"catalog", "optimizer",
                                            "plans_built"}
