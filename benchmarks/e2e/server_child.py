"""The served system under test: a ``RuleServer`` child process.

Started by ``harness.ServedSystem``.  Builds the workload's rule base
on a durable ``Database`` with the engine's default durability policy
(``fsync="commit"``, ``checkpoint_every=1000``), serves it over TCP on
an ephemeral port, and answers a JSON-lines control channel on
stdin/stdout:

* start-up -> ``{"port": N}`` once the server accepts connections;
* ``cpu`` -> this process's CPU time;
* ``snapshot`` -> counters, sizes, RSS, WAL sample, tracer totals;
* ``stop`` -> stop the server, close the database, exit;
* ``verify`` -> stop the server; reply with the network check and the
  live state's digest *after* closing the database (so the parent can
  recover the durable directory meanwhile); then replay the service's
  serial history on a fresh database, reply whether it reproduced the
  live state, and exit.

With ``--trace 1`` the benchmark's tracer wraps the engine's entry
points (and ``RuleServer._dispatch``) inside this process, and the span
totals travel back in ``snapshot`` replies.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from repro import Database  # noqa: E402
from repro.core.validate import check_network  # noqa: E402
from repro.serve.server import RuleServer  # noqa: E402
from repro.serve.service import RuleService, replay_serial  # noqa: E402

import harness  # noqa: E402
from tracer import Tracer, engine_targets  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def reply(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--durable", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(engine_targets())
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    db = Database(durable_path=args.durable)
    workload.build(db)
    service = RuleService(db)
    server = RuleServer(service)
    _, port = server.start()
    gc.collect()
    gc.freeze()
    reply({"port": port})

    for line in sys.stdin:
        command = json.loads(line)["cmd"]
        if command == "cpu":
            reply({"cpu_ns": time.process_time_ns()})
        elif command == "snapshot":
            reply(harness.snapshot(db, tracer))
        elif command in ("stop", "verify"):
            break
    else:
        command = "stop"                   # parent went away
    history = service.serial_history()
    server.stop(shutdown_service=True)
    if tracer is not None:
        tracer.dump(harness.OUT / f"trace-{workload.name}.jsonl")
        tracer.uninstall()
    if command == "stop":
        db.close()
        reply({})
        return
    problems = [f"check_network: {issue}" for issue in check_network(db)]
    live = harness.digest(db)
    db.close()
    reply({"problems": problems, "digest": live})
    fresh = Database()
    workload.build(fresh)
    replay_serial(fresh, history)
    replayed = harness.digest(fresh)
    reply({"problems": [] if replayed == live else [
        f"serial replay of {len(history)} writes differs from the live "
        f"state ({replayed['firing_count']} vs {live['firing_count']} "
        f"firings)"]})


if __name__ == "__main__":
    main()
