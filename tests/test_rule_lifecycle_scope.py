"""A rule's lifecycle re-plans only that rule.

The catalog keeps one version, of relations and indexes.  A rule's
action plans (``ActionCommand.planned``) and join plans
(``CompiledRule.join_memo``) live on its compiled rule, so defining,
deactivating, activating or removing rule ``x`` drops only ``x``'s —
deactivation drops the compiled rule — and leaves every other rule's in
place; a ``define index`` still re-plans them all.
"""

import random

import pytest

from repro import Database
from repro.core.introspect import describe_join_plan

STANDING = {
    "one": "if emp.sal > 100.0 "
           "then append to log(tag = emp.name, v = emp.sal)",
    "two": "if emp.sal > 100.0 and emp.dno = dept.dno "
           "then append to log(tag = dept.name, v = emp.sal)",
    "three": "if emp.sal > 100.0 and emp.dno = dept.dno "
             "and emp.jno = job.jno "
             "then append to log(tag = job.title, v = emp.sal)",
}

#: a rule the probe never reaches
DEFINE_X = ('define rule x if emp.sal < 0.0 and emp.dno = dept.dno '
            'then append to log(tag = "x", v = emp.sal)')


def company() -> Database:
    db = Database()
    db.execute_script("""
        create emp (id = int4, name = text, sal = float8, dno = int4,
                    jno = int4)
        create dept (dno = int4, name = text)
        create job (jno = int4, title = text)
        create log (tag = text, v = float8)
    """)
    db.bulk_append("dept", [(d, f"d{d}") for d in range(4)])
    db.bulk_append("job", [(j, f"j{j}") for j in range(3)])
    db.bulk_append("emp", [(i, f"e{i}", float(i % 50), i % 4, i % 3)
                           for i in range(200)])
    for name, body in STANDING.items():
        db.execute(f"define rule {name} {body}")
    return db


def probe(db: Database) -> None:
    """Fire every standing rule once, each join rule seeking from emp,
    and leave every memory the size it was."""
    fired = db.firings
    db.execute('append emp(id = 999, name = "p", sal = 500.0, dno = 1, '
               'jno = 1)')
    db.execute("delete emp where emp.id = 999")
    assert db.firings == fired + len(STANDING)


def planned(db: Database) -> tuple[int, int]:
    return (db.action_planner.plans_built,
            db.stats.get("joins.orders_planned"))


@pytest.mark.parametrize("commands", [
    [DEFINE_X],
    [DEFINE_X, "deactivate rule x"],
    [DEFINE_X, "deactivate rule x", "activate rule x"],
    [DEFINE_X, "remove rule x"],
    [DEFINE_X, "deactivate rule x", "remove rule x"],
], ids=["define", "deactivate", "activate", "remove", "remove-inactive"])
def test_a_lifecycle_op_leaves_the_other_rules_plans(commands):
    db = company()
    probe(db)
    before = planned(db)
    probe(db)
    assert planned(db) == before          # steady state: nothing re-planned
    for text in commands:
        db.execute(text)
    before = planned(db)
    probe(db)
    assert planned(db) == before


def test_a_lifecycle_op_replans_its_own_rule():
    db = company()
    db.execute("define rule mine if emp.sal > 100.0 "
               'then append to log(tag = "mine", v = emp.sal)')
    db.execute('append emp(id = 998, name = "m", sal = 700.0, dno = 0, '
               'jno = 0)')
    plans = db.action_planner.plans_built
    db.execute("deactivate rule mine")
    assert db.manager.rule("mine").compiled is None   # plans went too
    db.execute("activate rule mine")      # primes: fires on id 998
    assert db.action_planner.plans_built == plans + 1


def test_define_index_replans_every_rule():
    db = company()
    probe(db)
    plans, orders = planned(db)
    db.execute("define index emp_dno on emp (dno) using hash")
    probe(db)
    assert db.action_planner.plans_built == plans + len(STANDING)
    assert db.stats.get("joins.orders_planned") >= orders + 2


def test_a_redefined_rule_owns_its_join_plans():
    """Rule ``x`` is a cyclic triangle, then is removed and redefined as
    an acyclic chain over the same relations: its join indexes, seek
    orders and firings are the chain's, planned afresh."""
    db = Database()
    db.execute_script("""
        create r (a = int4, b = int4)
        create s (b = int4, c = int4)
        create t (c = int4, a = int4)
        create log (tag = text, v = float8)
    """)
    over = "from r in r, s in s, t in t then append to log(tag = "
    db.execute("define rule x if r.a = s.b and s.c = t.c and t.a = r.a "
               + over + '"cyclic", v = 0.0)')
    db.execute("append s(b = 1, c = 2)")
    db.execute("append t(c = 2, a = 5)")
    db.execute("append r(a = 1, b = 0)")   # a chain, but no triangle
    # one seek from each variable, each planning its own order
    assert db.stats.get("joins.seeks") == 3
    assert db.stats.get("joins.orders_planned") == 3
    text = describe_join_plan(db.manager, "x")
    assert "t in t: stored, 1 entries, join-index(es) [c, a]" in text
    assert "seek from r: r -> s -> t" in text
    assert "seek from t: t -> r -> s" in text
    assert db.relation_rows("log") == []
    db.execute("remove rule x")
    db.execute("define rule x if r.a = s.b and s.c = t.c "
               + over + '"acyclic", v = 1.0)')
    assert db.relation_rows("log") == [("acyclic", 1.0)]   # primed
    text = describe_join_plan(db.manager, "x")
    assert "t in t: stored, 1 entries, join-index(es) [c]" in text
    assert "seek from r: r -> s -> t" in text
    assert "seek from t: t -> s -> r" in text
    seeks, orders = (db.stats.get("joins.seeks"),
                     db.stats.get("joins.orders_planned"))
    db.execute("append r(a = 1, b = 7)")
    assert db.relation_rows("log") == [("acyclic", 1.0)] * 2
    assert db.stats.get("joins.seeks") == seeks + 1
    assert db.stats.get("joins.orders_planned") == orders + 1


def test_deactivate_activate_replans_joins():
    """Reactivation compiles a new rule with a cold join memo: its next
    seek plans again while the other rules' orders hit; ``define
    index`` re-plans every join rule."""
    db = company()
    probe(db)
    rule = db.network.rules["three"]
    assert rule.join_memo
    db.execute("deactivate rule three")
    assert db.manager.rule("three").compiled is None
    db.execute("activate rule three")
    fresh = db.network.rules["three"]
    assert fresh is not rule and fresh.join_memo == {}
    orders = db.stats.get("joins.orders_planned")
    probe(db)
    assert db.stats.get("joins.orders_planned") == orders + 1
    assert fresh.join_memo
    db.execute("define index emp_dno on emp (dno) using hash")
    probe(db)
    assert db.stats.get("joins.orders_planned") == orders + 3


# ----------------------------------------------------------------------
# CI smoke
# ----------------------------------------------------------------------

def test_smoke_two_thousand_ops_with_rule_lifecycle():
    """CI's rule-lifecycle smoke (counts, not timings): 2,000 ops, one
    in 25 a rule define / deactivate / activate / remove, over 24
    standing rules of 1, 2 and 3 variables.  Fewer action plans are
    built than there are distinct rules, and only emp — the one
    relation the rules watch — makes tokens."""
    db = Database()
    db.execute_script("""
        create emp (id = int4, name = text, sal = float8, dno = int4,
                    jno = int4)
        create dept (dno = int4, name = text)
        create job (jno = int4, title = text)
        create log (name = text, tag = int4, sal = float8)
        create dynlog (name = text, tag = int4, sal = float8)
        define index emp_id on emp (id) using btree
        define index dept_dno on dept (dno) using hash
        define index job_jno on job (jno) using hash
    """)
    rng = random.Random(5)
    db.bulk_append("dept", [(d, f"d{d}") for d in range(8)])
    db.bulk_append("job", [(j, f"j{j}") for j in range(6)])
    high = 400
    db.bulk_append("emp", [(i, f"e{i}", rng.uniform(0, 8000), i % 8,
                            i % 6) for i in range(high)])

    def rule(name, variables, low, target, tag):
        condition = f"{low} < emp.sal and emp.sal <= {low + 400}"
        if variables >= 2:
            condition += " and emp.dno = dept.dno"
        if variables >= 3:
            condition += " and emp.jno = job.jno"
        return (f"define rule {name} if {condition} then append to "
                f"{target}(name = emp.name, tag = {tag}, sal = emp.sal)")

    defined = set()
    for variables in (1, 2, 3):
        for i in range(8):
            defined.add(f"std{variables}_{i}")
            db.execute(rule(f"std{variables}_{i}", variables, 1000 * i,
                            "log", i))
    # every standing rule fired on the rows its definition primed
    assert db.action_planner.plans_built == 24
    plans, fired = db.action_planner.plans_built, db.firings
    tokens = db.stats.get("tokens.generated")
    emp_tokens = lifecycle = 0
    for n in range(1, 2001):
        if n % 25 == 0:
            number, phase = divmod(lifecycle, 4)
            lifecycle += 1
            name = f"dyn{number}"
            if phase == 0:
                defined.add(name)
                text = rule(name, 1 + number % 3, rng.uniform(0, 7600),
                            "dynlog", number)
            else:
                text = ("deactivate", "activate", "remove")[phase - 1] \
                    + f" rule {name}"
            db.execute(text)
            continue
        draw = rng.random()
        if draw < 0.4:
            i = rng.randrange(high)
            db.execute(f"retrieve (emp.name) where emp.id = {i}")
        elif draw < 0.8:
            i = rng.randrange(high)
            db.execute(f"replace emp (sal = {n}.5) where emp.id = {i}")
            emp_tokens += 2
        else:
            db.execute(f'append emp(id = {high}, name = "e{high}", '
                       f"sal = {n}.25, dno = {n % 8}, jno = {n % 6})")
            high += 1
            emp_tokens += 1
    assert lifecycle == 80 and len(defined) == 24 + 20
    assert db.firings - fired > 500
    # a dyn rule is planned once per activation (define, activate); no
    # standing rule is re-planned
    plans = db.action_planner.plans_built - plans
    assert plans <= 2 * 20 <= len(defined)
    # log and dynlog got rows from every firing, and no tokens
    assert len(db.relation_rows("log")) + len(db.relation_rows("dynlog")) \
        >= db.firings
    assert db.stats.get("tokens.generated") - tokens == emp_tokens
