"""Leapfrog triejoin vs the pairwise probe chain on a triangle query.

The adversarial shape for *any* pairwise order is the classic triangle
``r(a,b) ⋈ s(b,c) ⋈ t(c,a)`` with heavy dangling intermediates: each
token's ``b`` bucket in ``s`` fans out over ``K`` candidate ``c`` values
that ``t`` later rejects, and symmetrically each candidate ``c`` in
``t`` fans out over junk ``a`` values — whichever second relation the
pairwise chain extends into first, it enumerates ~K·F partials per
token before the third relation prunes them.  The worst-case-optimal
step instead intersects the sorted ``c`` key sets of the restricted
``s`` and ``t`` views by leapfrogging, touching O(K) keys to find the
single agreeing value.

Both measurements run the same engine build; only ``join_mode``
differs (forced ``"pairwise"`` vs forced ``"multiway"``).  Median of
``REPEATS`` fresh runs each, per the perf-gate policy in ``common.py``;
the bar is ≥3× (relaxed under CI) with P-node match sets verified
identical and the auto planner asserted to pick multiway on its own.
"""

import time

from common import PERF_REPEATS, emit, median_time, speedup_bar
from repro import Database

N_TOKENS = 200        # r-rows routed through the network
K = 50                # per-bucket fan-out in s and t
F = 50                # junk rows behind each dangling candidate
B = 10                # distinct b buckets the tokens hash into
MIN_SPEEDUP = speedup_bar(3.0)

TRIANGLE_RULE = (
    "define rule triangle "
    "if e1.b = e2.b and e2.c = e3.c and e3.a = e1.a "
    "from e1 in r, e2 in s, e3 in t "
    "then append to bench_log(a = e1.a)")


def _token_rows():
    return [(i, i % B) for i in range(N_TOKENS)]


def _prepared_database(join_mode: str):
    db = Database(batch_tokens=True, join_mode=join_mode)
    db.execute_script("""
        create r (a = int4, b = int4)
        create s (b = int4, c = int4)
        create t (c = int4, a = int4)
        create bench_log (a = int4)
    """)
    s_rows, t_rows = [], []
    for b in range(B):
        # K dangling candidates c in [0, K) that t never closes for
        # this b's tokens, plus the single closing row at c = 2K
        s_rows.extend((b, c) for c in range(K))
        s_rows.append((b, 2 * K))
    for c in range(K, 2 * K):
        # junk behind the other direction: distinct b values so the
        # s-side probe stays empty, heavy a fan-out on the t side
        s_rows.extend((10_000 + c * F + j, c) for j in range(F))
    for a in range(N_TOKENS):
        t_rows.extend((c, a) for c in range(K, 2 * K))
        t_rows.append((2 * K, a))         # the closing row
    for c in range(K):
        t_rows.extend((c, 10_000 + c * F + j) for j in range(F))
    db.bulk_append("s", s_rows)
    db.bulk_append("t", t_rows)
    db._rules_suspended = True
    db.execute(TRIANGLE_RULE)
    return db


def _match_set(db):
    return sorted(
        tuple(sorted((var, entry.values) for var, entry in m.bindings))
        for m in db.network.pnode("triangle").matches())


def _measure(rows, join_mode: str):
    """Seconds to route the token stream under one join algorithm."""
    db = _prepared_database(join_mode)
    start = time.perf_counter()
    db.bulk_append("r", rows)
    elapsed = time.perf_counter() - start
    return elapsed, _match_set(db)


def test_multiway_joins(benchmark):
    rows = _token_rows()
    holder = {}

    def run():
        pairwise = [_measure(rows, "pairwise")
                    for _ in range(PERF_REPEATS)]
        multiway = [_measure(rows, "multiway")
                    for _ in range(PERF_REPEATS)]
        holder["pairwise"] = median_time([t for t, _ in pairwise])
        holder["multiway"] = median_time([t for t, _ in multiway])
        matches = [m for _, m in pairwise + multiway]
        assert all(m == matches[0] for m in matches), \
            "join algorithm changed the match set"
        assert len(matches[0]) == N_TOKENS, \
            "every token should close exactly one triangle"
        holder["matches"] = len(matches[0])

    benchmark.pedantic(run, rounds=1, iterations=1)

    # the auto planner must choose multiway for this shape on its own
    auto_db = _prepared_database("auto")
    auto_db.bulk_append("r", rows[:5])
    assert auto_db.network.stats.get("joins.multiway_planned") >= 1, \
        "auto mode failed to plan the triangle as a multiway join"
    assert auto_db.network.stats.get("joins.leapfrog_seeks") >= 1

    speedup = holder["pairwise"] / holder["multiway"]
    text = "\n".join([
        f"Triangle join, {N_TOKENS} tokens "
        f"(fan-out K={K}, junk depth F={F}, {B} buckets)",
        f"pairwise chain     {holder['pairwise']:.4f}s",
        f"leapfrog triejoin  {holder['multiway']:.4f}s | "
        f"{speedup:.2f}x",
        f"P-node matches either way: {holder['matches']}",
    ])
    emit("multiway", text, {
        "network": "a-treat",
        "tokens": N_TOKENS,
        "fanout_k": K,
        "junk_f": F,
        "buckets": B,
        "repeats": PERF_REPEATS,
        "pairwise_s": holder["pairwise"],
        "multiway_s": holder["multiway"],
        "speedup": speedup,
        "pnode_matches": holder["matches"],
    })
    assert speedup >= MIN_SPEEDUP, (
        f"leapfrog triejoin only {speedup:.2f}x faster "
        f"(need >= {MIN_SPEEDUP}x)")
