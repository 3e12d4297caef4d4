"""Scale stress: many rules, larger relations, mixed workload — the
incremental network must agree with naive recomputation throughout."""

import random

import pytest

from repro import Database
from repro.core.validate import check_network
from repro.lang.expr import Bindings, compile_expr, is_true

from tests.helpers import budgeted


def naive_matches(db, rule_name):
    """Recompute a pattern rule's matches from scratch, directly."""
    rule = db.network.rules[rule_name]
    relations = {var: list(db.catalog.relation(rel).scan())
                 for var, rel in rule.var_relations.items()}
    variables = rule.variables
    condition = compile_expr(rule.condition) if rule.condition else None

    def recurse(i, bound):
        if i == len(variables):
            yield tuple((bound[v].tid.relation, bound[v].tid.slot)
                        for v in variables)
            return
        var = variables[i]
        for stored in relations[var]:
            bound[var] = stored
            bindings = Bindings({v: s.values for v, s in bound.items()})
            # evaluate only when fully bound (cheap enough at this size)
            if i + 1 == len(variables):
                if condition is None or is_true(condition(bindings)):
                    yield tuple(
                        (bound[v].tid.relation, bound[v].tid.slot)
                        for v in variables)
            else:
                yield from recurse(i + 1, bound)
        bound.pop(var, None)

    return sorted(recurse(0, {}))


def network_matches(db, rule_name):
    rule = db.network.rules[rule_name]
    return sorted(
        tuple((match.entry(v).tid.relation, match.entry(v).tid.slot)
              for v in rule.variables)
        for match in db.network.pnode(rule_name).matches())


@pytest.mark.parametrize("network,budget", [
    ("a-treat", "auto"), ("a-treat", "always"), ("rete", "never")])
def test_incremental_equals_naive_at_scale(network, budget):
    rng = random.Random(1992)
    db = budgeted(budget, network=network)
    db._rules_suspended = True     # accumulate matches, don't fire
    db.execute("create emp (sal = float8, dno = int4, k = int4)")
    db.execute("create dept (dno = int4, size = int4)")
    db.execute("define index empdno on emp (dno) using hash")

    # 40 single-variable rules with shifted ranges + 10 join rules
    for i in range(40):
        low, high = i * 50, i * 50 + 120
        db.execute(f"define rule s{i} if {low} < emp.sal "
                   f"and emp.sal <= {high} "
                   f"then append to dept(dno = 0, size = 0)")
    for i in range(10):
        db.execute(f"define rule j{i} if emp.sal > {i * 200} "
                   f"and emp.dno = dept.dno and dept.size > {i % 4} "
                   f"then append to dept(dno = 0, size = 0)")

    live = []
    for step in range(600):
        action = rng.random()
        if action < 0.5 or not live:
            sal = rng.uniform(0, 2100)
            dno = rng.randrange(12)
            tid = db.hooks.insert("emp", (sal, dno, step))
            live.append(tid)
        elif action < 0.8:
            tid = live[rng.randrange(len(live))]
            sal = rng.uniform(0, 2100)
            dno = rng.randrange(12)
            db.hooks.replace("emp", tid, (sal, dno, step))
        else:
            tid = live.pop(rng.randrange(len(live)))
            db.hooks.delete("emp", tid)
        if step % 100 == 0:
            db.hooks.insert("dept", (rng.randrange(12),
                                     rng.randrange(6)))
        db.deltasets.clear()

    checked = 0
    for name in list(db.network.rules):
        assert network_matches(db, name) == naive_matches(db, name), name
        checked += 1
    assert checked == 50
    assert check_network(db) == []


def test_large_single_transition_block():
    """One giant do…end block: Δ-sets must net out correctly."""
    db = Database()
    db.execute("create t (a = int4, k = int4)")
    db.execute("create log (k = int4)")
    db.execute("define rule watch on replace t(a) "
               "then append to log(k = t.k)")
    for k in range(50):
        db.execute(f"append t(a = 0, k = {k})")
    # modify every tuple 3 times inside one block; half net out to the
    # original value (no event), half don't
    body = []
    for k in range(50):
        body.append(f"replace t (a = 1) where t.k = {k}")
        body.append(f"replace t (a = 2) where t.k = {k}")
        final = 0 if k % 2 == 0 else 3
        body.append(f"replace t (a = {final}) where t.k = {k}")
    db.execute("do " + " ".join(body) + " end")
    logged = sorted(v[0] for v in db.relation_rows("log"))
    assert logged == [k for k in range(50) if k % 2 == 1]
