"""Sustained evaluations/sec through the serving stack, in one process.

Boots the full front end — the one event-loop thread of ``RuleServer``,
the JSON-lines protocol, sessions, ``RuleService``'s engine lock — over
the load generator's demo rule base, and measures closed-loop prepared-
statement throughput at 1 and 4 client threads (median of
``PERF_REPEATS`` runs each).  Results land in BENCH_serving.json.

What this file can and cannot say.  The clients are threads of the
*same* process, so on a GIL build they compete with the loop thread for
the interpreter, and on a multi-CPU host the rate depends first of all
on whether the threads handing the GIL to each other share a CPU
(≈ 15k/s pinned to one CPU, ≈ 5–6k/s spread over two, for either
serving design — EXPERIMENTS, e2e record 3).  The 4-vs-1 ratio
therefore says little about the server: on the 2-CPU host that
measured PR 16 it read 0.31x, 0.73x, 0.31x, 0.82x and 2.12x in five
runs of PR 8's thread-per-connection design and 1.12x, 1.03x, 1.03x in
three of the event loop.  The measurement of record for serving
throughput is the repo benchmark's ``served_durable`` workload
(``benchmarks/e2e/``), whose clients live in another process.  This
file keeps two things that one does not: the gate from
:func:`common.parallel_speedup_bar` as an *overhead guard* (on a GIL
build: 4 clients must not cost more than ``clients/nominal`` over one;
CI relaxes it by ``CI_BAR_FACTOR``; the emitted json records
``cpu_count``), and the replay check at 1, 2 and 4 clients on a
``fsync="never"`` durable database.

Correctness rides along: every measured client count runs a mixed
read/write workload, and the engine state it leaves — P-node contents,
firing order, relations, WAL bytes — must be identical to replaying
the service's ``serial_log`` serially on a fresh database.
"""

import pathlib
import tempfile

from common import (
    PERF_REPEATS, emit, median_time, parallel_speedup_bar)
from repro.serve import RuleServer
from repro.serve.loadgen import demo_database, run_load
from repro.serve.service import replay_serial

CLIENTS = 4
NOMINAL_SPEEDUP = 2.0
MIN_SPEEDUP = parallel_speedup_bar(NOMINAL_SPEEDUP, CLIENTS)
ROWS = 200
DURATION = 0.6
WRITE_RATIO = 0.1


def _pnode_snapshot(db):
    out = {}
    for name in db.network.rules:
        matches = set()
        for match in db.network.pnode(name).matches():
            matches.add(tuple(
                (var, entry.values, entry.old_values)
                for var, entry in match.bindings))
        out[name] = frozenset(matches)
    return out


def _state(db):
    return {
        "pnodes": _pnode_snapshot(db),
        "firings": [(r.rule_name, r.match_count)
                    for r in db.firing_log],
        "relations": {rel: sorted(db.relation_rows(rel))
                      for rel in ("emp", "audit")},
    }


def _measure(clients: int, durable_root: pathlib.Path) -> dict:
    """One load run against a fresh durable server; returns the
    summary plus the equivalence evidence."""
    live_dir = durable_root / f"live-c{clients}"
    server = RuleServer(db=demo_database(
        rows=ROWS, durable_path=live_dir, fsync="never"))
    host, port = server.start()
    try:
        summary = run_load(host, port, clients=clients,
                           duration=DURATION, rows=ROWS,
                           write_ratio=WRITE_RATIO)
        history = server.service.serial_history()
    finally:
        server.stop(close_db=True)
    assert summary["errors"] == [], summary["errors"]
    assert summary["ops"] > 0

    live_db = server.service.db
    replay_dir = durable_root / f"replay-c{clients}"
    replayed = demo_database(rows=ROWS, durable_path=replay_dir,
                             fsync="never")
    replay_serial(replayed, history)
    replayed.close()
    assert _state(replayed) == _state(live_db), \
        f"{clients}-client run diverged from its serial replay"
    assert (replay_dir / "wal.log").read_bytes() == \
        (live_dir / "wal.log").read_bytes(), \
        f"{clients}-client WAL differs from its serial replay"
    return summary


def test_serving_throughput_scales():
    rates: dict[int, float] = {}
    summaries: dict[int, dict] = {}
    with tempfile.TemporaryDirectory() as root:
        root = pathlib.Path(root)
        for clients in (1, 2, CLIENTS):
            repeats = PERF_REPEATS if clients in (1, CLIENTS) else 1
            samples = []
            for repeat in range(repeats):
                summary = _measure(
                    clients, root / f"r{repeat}")
                samples.append(summary["ops_per_sec"])
                summaries[clients] = summary
            # median_time() is just a median; rates are fine too
            rates[clients] = median_time(samples)

    speedup = rates[CLIENTS] / rates[1]
    lines = ["serving throughput (sustained evaluations/sec)",
             f"{'clients':>8} {'evals/sec':>12} {'speedup':>9}"]
    for clients, rate in sorted(rates.items()):
        lines.append(f"{clients:>8} {rate:>12.1f} "
                     f"{rate / rates[1]:>8.2f}x")
    lines.append(f"gate: {CLIENTS} clients >= {MIN_SPEEDUP:.2f}x "
                 f"of 1 client")
    emit("serving", "\n".join(lines), data={
        "rows": ROWS,
        "duration_s": DURATION,
        "write_ratio": WRITE_RATIO,
        "rates": {str(c): r for c, r in rates.items()},
        "speedup_4c": round(speedup, 3),
        "min_speedup": MIN_SPEEDUP,
        "reads": summaries[CLIENTS]["reads"],
        "writes": summaries[CLIENTS]["writes"],
    })
    assert speedup >= MIN_SPEEDUP, (
        f"{CLIENTS} concurrent clients sustained {speedup:.2f}x the "
        f"single-client rate; the gate on this host is "
        f"{MIN_SPEEDUP:.2f}x (see parallel_speedup_bar)")
