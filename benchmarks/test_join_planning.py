"""Cost-driven seek ordering vs the static join order.

The TREAT seek walks the rule's remaining variables in some order; the
paper leaves that order static.  This benchmark builds the adversarial
shape for a static order: rule ``if s.bk = big.bk and s.tk = tiny.tk``
where ``big`` holds ~2000 tuples in a handful of dense ``bk`` buckets
and ``tiny`` holds 4.  The variables sort alphabetically, so the static
``join_order_from("s")`` extends into **big** first — every token fans
out over a ~400-entry bucket before tiny rejects it — while the
cost-driven planner extends into **tiny** first and rejects 90% of the
tokens after a single probe (their ``tk`` values don't exist in tiny).

The static baseline runs through the ``JoinPlanner.forced`` hook, so
both measurements share every other code path (the join indexes the
rule's equi-joins give both memories included).  Median of ``REPEATS``
fresh runs each, per the perf-gate policy in ``common.py``; the bar is
≥2× (relaxed under CI) with P-node match sets verified identical.
"""

import time

from common import emit, median_time, speedup_bar
from repro import Database

N_BIG = 2_000         # dense big-bucket rows (5 buckets of ~400)
N_TINY = 4
N_TOKENS = 600        # s-rows routed through the network
MATCH_EVERY = 10      # every 10th token actually matches (~10%)
REPEATS = 3
MIN_SPEEDUP = speedup_bar(2.0)


def _token_rows():
    """~90% of tokens carry a tk absent from tiny (rejected there);
    the matching ~10% carry a bk hitting a deliberately sparse big
    bucket, so match fan-out stays small in both orders."""
    rows = []
    for i in range(N_TOKENS):
        if i % MATCH_EVERY == 0:
            rows.append((77, i % N_TINY))         # 2 big rows, 1 tiny
        else:
            rows.append((i % 5, 1_000 + i))       # dense big, no tiny
    return rows


def _prepared_database():
    db = Database()
    db.execute_script("""
        create s (bk = int4, tk = int4)
        create big (bk = int4, pad = int4)
        create tiny (tk = int4)
        create bench_log (bk = int4)
    """)
    db.bulk_append("big", [(i % 5, i) for i in range(N_BIG)]
                   + [(77, -1), (77, -2)])
    db.bulk_append("tiny", [(i,) for i in range(N_TINY)])
    db._rules_suspended = True
    db.execute("define rule seek_rule "
               "if s.bk = big.bk and s.tk = tiny.tk "
               "then append to bench_log(bk = s.bk)")
    return db


def _match_set(db):
    return sorted(
        tuple(sorted((var, entry.values) for var, entry in m.bindings))
        for m in db.network.pnode("seek_rule").matches())


def _measure(rows, static: bool):
    """Seconds to route the token stream under one seek order."""
    db = _prepared_database()
    if static:
        db.network.join_planner.forced = \
            lambda rule, seed: rule.join_order_from(seed)
    start = time.perf_counter()
    db.bulk_append("s", rows)
    elapsed = time.perf_counter() - start
    return elapsed, _match_set(db)


def test_join_planning(benchmark):
    rows = _token_rows()
    holder = {}

    def run():
        static = [_measure(rows, static=True) for _ in range(REPEATS)]
        planned = [_measure(rows, static=False) for _ in range(REPEATS)]
        holder["static"] = median_time([t for t, _ in static])
        holder["planned"] = median_time([t for t, _ in planned])
        matches = [m for _, m in static + planned]
        assert all(m == matches[0] for m in matches), \
            "seek order changed the match set"
        assert matches[0], "workload produced no matches"
        holder["matches"] = len(matches[0])

    benchmark.pedantic(run, rounds=1, iterations=1)

    speedup = holder["static"] / holder["planned"]
    text = "\n".join([
        f"Adaptive seek ordering ({N_TOKENS} tokens, "
        f"{N_BIG}-row big / {N_TINY}-row tiny)",
        f"static order   {holder['static']:.4f}s",
        f"planned order  {holder['planned']:.4f}s | {speedup:.2f}x",
        f"P-node matches either way: {holder['matches']}",
    ])
    emit("join_planning", text, {
        "network": "a-treat",
        "big_rows": N_BIG,
        "tiny_rows": N_TINY,
        "tokens": N_TOKENS,
        "match_fraction": 1.0 / MATCH_EVERY,
        "repeats": REPEATS,
        "static_order_s": holder["static"],
        "planned_order_s": holder["planned"],
        "speedup": speedup,
        "pnode_matches": holder["matches"],
    })
    assert speedup >= MIN_SPEEDUP, (
        f"planned seek order only {speedup:.2f}x faster "
        f"(need >= {MIN_SPEEDUP}x)")
