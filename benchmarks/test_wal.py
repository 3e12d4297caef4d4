"""WAL overhead gate: durability must stay cheap when fsync is off.

Every heap mutation a transition makes is journaled as a logical WAL
record (CRC-framed JSON of the encoded values), buffered, and flushed
at the recovery-scope boundary.  With ``fsync="never"`` the only costs
are record encoding and buffered file writes — no device syncs — so a
durable database should track an in-memory one closely on a rule-firing
transition workload.  This benchmark holds that journaling path to
``MAX_OVERHEAD`` of the plain in-memory run.

The gate is the median, over ``PAIRS`` alternating pairs of fresh runs
(the side that goes first alternates too), of each pair's ratio of
durable to in-memory time (perf-gate policy in ``common.py``); CI
relaxes the bar for shared-runner noise.  The run records the WAL
counters and final log size into ``BENCH_wal.json``.
"""

import os
import statistics
import tempfile
import time

from common import alternating_pairs, emit, median_time, running_in_ci
from repro import Database

N_RULES = 16
N_ROWS = 2_000
#: alternating (durable, in-memory) pairs the gate takes the median
#: pair ratio of
PAIRS = 15
#: journaling with fsync="never" may cost at most 35% on transitions
MAX_OVERHEAD = 1.75 if running_in_ci() else 1.35


def _build(durable_path=None):
    kwargs = {}
    if durable_path is not None:
        kwargs = dict(durable_path=durable_path, fsync="never",
                      checkpoint_every=0)
    db = Database(network="a-treat", **kwargs)
    db.execute_script("""
        create emp (name = text, age = int4, sal = float8)
        create bench_log (name = text)
    """)
    for i in range(N_RULES):
        low, high = 1000 * i, 1000 * i + 800
        db.execute(f"define rule wal_rule_{i} "
                   f"if {low} < emp.sal and emp.sal <= {high} "
                   f"then append to bench_log(name = emp.name)")
    return db


def _workload(db):
    start = time.perf_counter()
    for i in range(N_ROWS):
        db.execute(f"append emp(name = \"w{i:05d}\", "
                   f"age = {18 + i % 12}, "
                   f"sal = {1000.0 * (i % 24) + 400.0})")
    elapsed = time.perf_counter() - start
    fired = len(db.relation_rows("bench_log"))
    return elapsed, fired


def _measure_plain():
    db = _build()
    return _workload(db) + (None,)


def _measure_durable():
    with tempfile.TemporaryDirectory() as tmp:
        db = _build(durable_path=os.path.join(tmp, "state"))
        elapsed, fired = _workload(db)
        meta = {
            "wal_records": db.stats.get("wal.records"),
            "wal_bytes": os.path.getsize(db._durability.wal_path),
            "wal_fsyncs": db.stats.get("wal.fsyncs"),
        }
        db.close()
        return elapsed, fired, meta


def test_wal_overhead(benchmark):
    holder = {}

    def run():
        pairs = alternating_pairs(
            lambda durable: (_measure_durable() if durable
                             else _measure_plain()), PAIRS)
        durable, plain = zip(*pairs)
        holder["ratio"] = statistics.median(
            d / p for (d, _, _), (p, _, _) in pairs)
        holder["plain"] = median_time([t for t, _, _ in plain])
        holder["durable"] = median_time([t for t, _, _ in durable])
        fired = {f for _, f, _ in plain + durable}
        assert len(fired) == 1, f"rule firings diverged: {fired}"
        holder["fired"] = fired.pop()
        holder["meta"] = durable[-1][2]

    benchmark.pedantic(run, rounds=1, iterations=1)

    overhead = holder["ratio"]
    meta = holder["meta"]
    assert meta["wal_records"] >= N_ROWS   # every append journaled
    assert meta["wal_fsyncs"] == 0         # fsync="never"
    text = "\n".join([
        f"WAL overhead ({N_ROWS} transitions, {N_RULES} rules, "
        f"fsync=never)",
        f"in-memory {holder['plain']:.4f}s | "
        f"durable {holder['durable']:.4f}s | "
        f"median pair ratio {overhead:.3f}x over {PAIRS} pairs "
        f"(bar {MAX_OVERHEAD}x)",
        f"{meta['wal_records']} records, {meta['wal_bytes']} bytes "
        f"logged, {holder['fired']} rule firings",
    ])
    emit("wal", text, {
        "network": "a-treat",
        "rules": N_RULES,
        "rows": N_ROWS,
        "pairs": PAIRS,
        "fsync": "never",
        "plain_s": holder["plain"],
        "durable_s": holder["durable"],
        "overhead": overhead,
        "max_overhead": MAX_OVERHEAD,
        "wal_records": meta["wal_records"],
        "wal_bytes": meta["wal_bytes"],
        "firings": holder["fired"],
    })
    assert overhead <= MAX_OVERHEAD, (
        f"durable journaling cost {overhead:.3f}x "
        f"(budget {MAX_OVERHEAD}x)")
