"""Load generator for the rule-evaluation service.

Drives a :class:`~repro.serve.server.RuleServer` with N concurrent
clients executing a prepared-statement workload (the ezrules
evaluator-service shape: event in → rule outcome out) and reports
sustained evaluations/sec.  This is both the CI smoke driver and the
measurement engine behind ``BENCH_serving.json``.

Run standalone (boots its own server over a demo rule base)::

    python -m repro.serve.loadgen --standalone --clients 4 --duration 2

or point it at a running server with ``--host``/``--port``.  The
workload mixes reads (an indexed prepared retrieve) with writes (a
prepared replace that triggers an audit rule) in a configurable ratio;
every client reports its own op count and the summary totals both.
"""

from __future__ import annotations

import argparse
import json
import threading
import time

from repro.db import Database
from repro.serve.client import ServiceClient
from repro.serve.server import RuleServer

#: prepared read: one indexed probe, the "evaluate for entity" shape
READ_STATEMENT = ("retrieve (e.name, e.sal) from e in emp "
                  "where e.id = $id")

#: prepared write: bump one entity's salary — fires the audit rule
WRITE_STATEMENT = ("replace e (sal = $sal) from e in emp "
                   "where e.id = $id")


def demo_database(rows: int = 200, rules: int = 4,
                  **database_kwargs) -> Database:
    """A demo rule base for standalone load runs: an indexed entity
    relation, an audit log, and range rules that fire on updates."""
    db = Database(**database_kwargs)
    db.execute("create emp (id = int4, name = text, sal = float8)")
    db.execute("create audit (tag = text, who = text)")
    db.execute("define index emp_id on emp (id) using hash")
    for i in range(rules):
        low = 1000.0 * i
        high = low + 500.0
        db.execute(
            f'define rule audit_{i} on replace emp '
            f'if {low} < emp.sal and emp.sal <= {high} '
            f'then append to audit(tag = "band{i}", who = emp.name)')
    db.bulk_append("emp", [
        (i, f"emp{i:04d}", 1000.0 * (i % rules) + 250.0)
        for i in range(rows)])
    return db


def _client_loop(host: str, port: int, deadline: float, rows: int,
                 write_every: int, offset: int, tally: dict) -> None:
    """One closed-loop client: exec, wait for the reply, repeat; what
    it did goes into ``tally``."""
    try:
        with ServiceClient(host, port) as client:
            client.prepare("probe", READ_STATEMENT)
            if write_every:
                client.prepare("bump", WRITE_STATEMENT)
            i = offset
            while time.perf_counter() < deadline:
                i += 1
                if write_every and i % write_every == 0:
                    client.exec_prepared("bump", {
                        "id": i % rows, "sal": 250.0 + (i % 2000)})
                    tally["writes"] += 1
                else:
                    client.exec_prepared("probe", {"id": i % rows})
                    tally["reads"] += 1
    except Exception as exc:   # surfaced in the summary
        tally["error"] = f"{type(exc).__name__}: {exc}"


def run_load(host: str, port: int, clients: int = 4,
             duration: float = 2.0, rows: int = 200,
             write_ratio: float = 0.0) -> dict:
    """Drive the server with ``clients`` concurrent closed-loop
    clients for ``duration`` seconds; returns a summary dict
    (``ops_per_sec`` is the headline sustained evaluations/sec)."""
    write_every = int(round(1.0 / write_ratio)) if write_ratio else 0
    start = time.perf_counter()
    deadline = start + duration
    tallies = [{"reads": 0, "writes": 0, "error": None}
               for _ in range(clients)]
    workers = [
        threading.Thread(
            target=_client_loop, name=f"loadgen-{i}", daemon=True,
            args=(host, port, deadline, rows, write_every, i * 7919,
                  tally))
        for i, tally in enumerate(tallies)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=duration + 30.0)
    elapsed = time.perf_counter() - start
    reads = sum(t["reads"] for t in tallies)
    writes = sum(t["writes"] for t in tallies)
    total = reads + writes
    return {
        "clients": clients,
        "duration_s": round(elapsed, 4),
        "reads": reads,
        "writes": writes,
        "ops": total,
        "ops_per_sec": round(total / elapsed, 2) if elapsed else 0.0,
        "per_client": [t["reads"] + t["writes"] for t in tallies],
        "errors": [t["error"] for t in tallies if t["error"]],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="load-generate against a repro rule server")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--standalone", action="store_true",
                        help="boot a demo server in-process first")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--duration", type=float, default=2.0)
    parser.add_argument("--rows", type=int, default=200)
    parser.add_argument("--write-ratio", type=float, default=0.1,
                        help="fraction of ops that are writes")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the summary as JSON")
    args = parser.parse_args(argv)

    server = None
    host, port = args.host, args.port
    if args.standalone:
        server = RuleServer(db=demo_database(rows=args.rows))
        host, port = server.start()
        print(f"standalone server on {host}:{port}")
    elif not port:
        parser.error("--port is required unless --standalone")
    try:
        summary = run_load(host, port, clients=args.clients,
                           duration=args.duration, rows=args.rows,
                           write_ratio=args.write_ratio)
    finally:
        if server is not None:
            server.stop(close_db=True)
    print(f"clients={summary['clients']} ops={summary['ops']} "
          f"({summary['reads']} reads, {summary['writes']} writes) "
          f"in {summary['duration_s']}s -> "
          f"{summary['ops_per_sec']} evaluations/sec")
    for error in summary["errors"]:
        print(f"client error: {error}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
    return 1 if summary["errors"] or not summary["ops"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
