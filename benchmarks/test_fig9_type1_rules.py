"""Figure 9: install / activate / token-test times, 1-tuple-variable
rules (paper section 6).

Rules have the single-relation predicate ``Cᵢ < emp.sal <= Cᵢ'``; the
figure sweeps 25–200 rules.  The key expectations carried over from the
paper: installation and activation grow roughly linearly in the number of
rules, while token-test time stays nearly flat thanks to the selection
predicate index (a token probes the interval index and touches only the
rules it matches).
"""

import pytest

from common import (
    RULE_COUNTS, activate_rules, bench_table_once, bench_token_test,
    figure_table, install_rules, make_database)

TYPE = 1


@pytest.mark.parametrize("count", RULE_COUNTS)
def test_installation(benchmark, count):
    def setup():
        return (make_database(),), {}

    def run(db):
        install_rules(db, count, TYPE)

    benchmark.pedantic(run, setup=setup, rounds=3)


@pytest.mark.parametrize("count", RULE_COUNTS)
def test_activation(benchmark, count):
    def setup():
        db = make_database()
        db._rules_suspended = True
        install_rules(db, count, TYPE)
        return (db,), {}

    def run(db):
        activate_rules(db, count, TYPE)

    benchmark.pedantic(run, setup=setup, rounds=3)


def test_activation_5000_rows(benchmark):
    """The figures' 25-row ``emp`` is too small for priming to show in
    the activation column; this point activates 25 rules over 5,000
    rows, where it is one selection pass over ``emp`` per rule."""
    count, rows = 25, 5000

    def setup():
        db = make_database()
        db.bulk_append("emp", [
            (f"big{i:04d}", 30, 1000.0 * (i % count) + 400.0, i % 7, i % 5)
            for i in range(rows - 25)])
        db._rules_suspended = True
        install_rules(db, count, TYPE)
        return (db,), {}

    def run(db):
        activate_rules(db, count, TYPE)
        assert db.stats.get("network.prime_tuples_examined") \
            == count * rows
        assert len(db.network.pnode(f"bench_rule_{TYPE}_0")) \
            == rows // count

    benchmark.pedantic(run, setup=setup, rounds=3)


@pytest.mark.parametrize("count", RULE_COUNTS)
def test_token_test(benchmark, count):
    bench_token_test(benchmark, count, TYPE)


def test_figure9_table(benchmark):
    """Regenerate the paper's Figure 9 table."""

    def check(rows):
        installs = [r[1] for r in rows]
        tokens = [r[3] for r in rows]
        # installation grows with rule count...
        assert installs[-1] > installs[0]
        # ...but token test must NOT grow linearly with it: the selection
        # index keeps the 8x rule increase well under 8x token cost.
        assert tokens[-1] < tokens[0] * 4

    bench_table_once(benchmark, lambda: figure_table(TYPE), "fig9",
                     "Figure 9: one-tuple-variable rules (seconds)",
                     check,
                     meta={"network": "a-treat", "tuple_variables": TYPE})
