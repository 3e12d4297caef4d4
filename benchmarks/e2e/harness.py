"""Systems under test, the measuring loop, and the output checks.

Two *systems* expose one interface (``streams``, ``run_round``,
``snapshot``, ``finish``): :class:`InProcessSystem` hosts the
``Database`` in this process; :class:`ServedSystem` starts
``server_child.py`` (a ``RuleServer`` over a durable database) and
talks to it over TCP connections, with a JSON-lines control channel on
the child's stdin/stdout for snapshots and shutdown.  Constructing a
system *is* the set-up the benchmark times: schema, rows, rules (defined
and primed), prepared statements, server boot and connect, warm-up ops.

Measurement is closed loop: every caller sends its next op only when
the previous reply arrived.  Ops are generated in chunks *outside* the
timed region; one *round* runs one chunk per caller.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import resource
import shutil
import subprocess
import sys
import threading
import time
from itertools import islice
from typing import NamedTuple

from repro import Database
from repro.core.validate import check_network
from repro.errors import ArielError
from repro.serve.client import ServiceClient

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"

#: timing metrics are medians over this many equal consecutive segments
SEGMENTS = 5
#: the configuration every optimisation must stay equivalent to
REFERENCE_CONFIG = {"network": "treat", "join_mode": "pairwise",
                    "batch_tokens": False}


class Round(NamedTuple):
    """One chunk per caller, run concurrently."""

    latencies: list      # ns, one per completed op
    wall_ns: int
    cpu_ns: int          # every process of the system under test
    failed: int          # ops that raised (no latency recorded)
    wrong: int           # ops whose reply was not the expected one


# ----------------------------------------------------------------------
# replies
# ----------------------------------------------------------------------

def reply_matches(result, expect) -> bool:
    """Whether an engine result (or its wire form) is what the op's
    generator said it must be: a count or the exact rows."""
    if isinstance(result, dict):                       # wire form
        rows = result.get("rows")
        count = result.get("count")
    else:
        rows = getattr(result, "rows", None)
        count = result if isinstance(result, int) \
            else getattr(result, "count", None)
    if isinstance(expect, int):
        return (len(rows) if rows is not None else count) == expect
    return rows is not None and [tuple(r) for r in rows] == expect


def drive(run, ops, tracer=None, first_op_id: int = 0):
    """Send ``ops`` one after another through ``run``; returns
    ``(latencies_ns, failed, wrong)``."""
    now = time.perf_counter_ns
    latencies = []
    failed = wrong = 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_op_id + i
        start = now()
        try:
            result = run(op)
        except ArielError:
            failed += 1
            continue
        latencies.append(now() - start)
        expect = op[3]
        if expect is not None and not reply_matches(result, expect):
            wrong += 1
    return latencies, failed, wrong


# ----------------------------------------------------------------------
# state digests and snapshots (also used inside the server child)
# ----------------------------------------------------------------------

def digest(db) -> dict:
    """Order-independent relation contents plus the firing order."""
    relations = {}
    for relation in db.catalog.relations():
        rows = sorted(repr(s.values) for s in relation.scan())
        relations[relation.name] = hashlib.sha256(
            "\n".join(rows).encode()).hexdigest()
    firings = [(f.rule_name, f.match_count) for f in db.firing_log]
    return {"relations": relations,
            "firings": hashlib.sha256(repr(firings).encode()).hexdigest(),
            "firing_count": len(firings)}


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def snapshot(db, tracer=None) -> dict:
    """Everything the metrics are deltas of, JSON-safe."""
    wal = db.wal_info()
    if wal is not None:
        wal = {"records": wal["records"],
               "bytes": os.path.getsize(
                   os.path.join(wal["path"], "wal.log"))}
    return {
        "counters": dict(db.stats.counters),
        "plans_built": db.action_planner.plans_built,
        "sizes": {r.name: len(r) for r in db.catalog.relations()},
        "max_rss_kb": max_rss_kb(),
        "wal": wal,
        "totals": tracer.totals() if tracer is not None else None,
    }


# ----------------------------------------------------------------------
# systems under test
# ----------------------------------------------------------------------

class InProcessSystem:
    """The ``Database`` lives in this process; one caller."""

    def __init__(self, workload, tracer=None, **database_kwargs):
        self.tracer = tracer
        self.db = Database(**database_kwargs)
        workload.build(self.db)
        self.prepared = {name: self.db.prepare(text)
                         for name, text in workload.statements.items()}
        self.streams = [workload.stream(0)]
        self.run_round([list(islice(self.streams[0],
                                    workload.warmup_ops))])

    def run(self, op):
        verb, a, b, _ = op
        if verb == "exec":
            return self.prepared[a].execute_with(b)
        if verb == "text":
            return self.db.execute(a)
        return self.db.bulk_append(a, b)

    def run_round(self, chunks, first_op_id: int = 0) -> Round:
        cpu = time.process_time_ns()
        start = time.perf_counter_ns()
        latencies, failed, wrong = drive(self.run, chunks[0],
                                         self.tracer, first_op_id)
        wall = time.perf_counter_ns() - start
        return Round(latencies, wall, time.process_time_ns() - cpu,
                     failed, wrong)

    def snapshot(self) -> dict:
        return snapshot(self.db, self.tracer)

    def finish(self, verify: bool = False) -> list[str]:
        """Release the system; with ``verify`` returns the problems the
        output checks found (empty = correct)."""
        problems = []
        if verify:
            problems = [f"check_network: {issue}"
                        for issue in check_network(self.db)]
        self.db.close()
        return problems


class ServedSystem:
    """A ``RuleServer`` child process on a durable database, driven by
    one closed-loop TCP connection per client."""

    def __init__(self, workload, trace: bool = False):
        self.durable = OUT / f"durable-{os.getpid()}"
        shutil.rmtree(self.durable, ignore_errors=True)
        OUT.mkdir(exist_ok=True)
        self.clients: list[ServiceClient] = []
        self.child = subprocess.Popen(
            [sys.executable, str(HERE / "server_child.py"),
             "--workload", workload.name, "--seed", str(workload.seed),
             "--scale", repr(workload.scale),
             "--durable", str(self.durable), "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            port = self._control()["port"]
            for _ in range(workload.clients):
                client = ServiceClient("127.0.0.1", port)
                self.clients.append(client)
                for name, text in workload.statements.items():
                    client.prepare(name, text)
            self.streams = [workload.stream(c)
                            for c in range(workload.clients)]
            self.run_round([list(islice(s, workload.warmup_ops))
                            for s in self.streams])
        except BaseException:
            self.kill()
            raise

    def _control(self, command: str | None = None) -> dict:
        if command is not None:
            self.child.stdin.write(json.dumps({"cmd": command}) + "\n")
            self.child.stdin.flush()
        line = self.child.stdout.readline()
        if not line:
            raise RuntimeError("server child exited unexpectedly")
        return json.loads(line)

    def _cpu_ns(self) -> int:
        return time.process_time_ns() + self._control("cpu")["cpu_ns"]

    def run_round(self, chunks, first_op_id: int = 0) -> Round:
        results: list = [None] * len(chunks)

        def caller(i: int) -> None:
            client = self.clients[i]
            results[i] = drive(
                lambda op: client.exec_prepared(op[1], op[2]), chunks[i])

        threads = [threading.Thread(target=caller, args=(i,))
                   for i in range(len(chunks))]
        cpu = self._cpu_ns()
        start = time.perf_counter_ns()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter_ns() - start
        cpu = self._cpu_ns() - cpu
        if None in results:
            raise RuntimeError("a client thread died")
        return Round([ns for r in results for ns in r[0]], wall, cpu,
                     sum(r[1] for r in results),
                     sum(r[2] for r in results))

    def snapshot(self) -> dict:
        return self._control("snapshot")

    def finish(self, verify: bool = False) -> list[str]:
        """Stop the child.  With ``verify``: the child checks the
        network and replays its serial history on a fresh database
        while this process recovers the durable directory the child
        left behind — every acknowledged write must be there."""
        problems = []
        try:
            for client in self.clients:
                client.close()
            closed = self._control("verify" if verify else "stop")
            if verify:
                problems += closed["problems"]
                recovered = Database.recover(self.durable)
                try:
                    if digest(recovered)["relations"] \
                            != closed["digest"]["relations"]:
                        problems.append(
                            "recovered relations differ from the live "
                            "relations at shutdown")
                finally:
                    recovered.close()
                problems += self._control()["problems"]
            self.child.stdin.close()
            self.child.wait(timeout=60)
        finally:
            self.kill()
        return problems

    def kill(self) -> None:
        """Make sure the child is gone and its files with it."""
        for client in self.clients:
            client.close()
        if self.child.poll() is None:
            self.child.kill()
        self.child.wait()
        for stream in (self.child.stdin, self.child.stdout):
            if stream is not None and not stream.closed:
                stream.close()
        shutil.rmtree(self.durable, ignore_errors=True)


def make_system(workload, tracer=None):
    if workload.served:
        return ServedSystem(workload, trace=tracer is not None)
    return InProcessSystem(workload, tracer)


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------

def measure(system, workload, seconds: float) -> list[Round]:
    """Run rounds until ``seconds`` of measured wall time are spent."""
    rounds: list[Round] = []
    budget = seconds * 1e9
    spent = 0
    op_id = 0
    while spent < budget:
        chunks = [list(islice(stream, workload.chunk_ops))
                  for stream in system.streams]
        done = system.run_round(chunks, op_id)
        op_id += workload.chunk_ops
        rounds.append(done)
        spent += done.wall_ns
    return rounds


def quantile(ordered: list, q: float):
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def segment_stats(rounds: list[Round]) -> list[dict]:
    """Per-segment throughput, latency and CPU over ``SEGMENTS`` equal
    consecutive groups of rounds (fewer when the run was that short)."""
    count = min(SEGMENTS, len(rounds))
    per = len(rounds) // count
    out = []
    for i in range(count):
        group = rounds[i * per:(i + 1) * per]
        latencies = sorted(ns for r in group for ns in r.latencies)
        ops = len(latencies)
        out.append({
            "ops": ops,
            "ops_per_s": ops / (sum(r.wall_ns for r in group) / 1e9),
            "op_latency_p50_us": quantile(latencies, 0.50) / 1e3,
            "op_latency_p99_us": quantile(latencies, 0.99) / 1e3,
            "cpu_us_per_op": sum(r.cpu_ns for r in group) / 1e3 / ops,
        })
    return out


def size_problems(workload, before: dict, after: dict) -> list[str]:
    """Relations the workload promises to hold flat must end within
    their tolerance of where they started."""
    problems = []
    for relation, tolerance in workload.flat_relations.items():
        start, end = before[relation], after[relation]
        if abs(end - start) > tolerance * start:
            problems.append(
                f"{relation} drifted from {start} to {end} rows "
                f"(tolerance {tolerance:.0%})")
    return problems


def differential_problems(workload, system) -> list[str]:
    """Run the next ops of the stream on ``system`` (default
    configuration) and on the reference configuration; relation
    contents and the firing order must agree."""
    reference = InProcessSystem(workload, **REFERENCE_CONFIG)
    try:
        for side in (system, reference):
            done = side.run_round([list(islice(
                side.streams[0], workload.differential_ops))])
            if done.failed or done.wrong:
                return [f"differential run: {done.failed} failed, "
                        f"{done.wrong} wrong replies"]
        ours, theirs = digest(system.db), digest(reference.db)
        if ours != theirs:
            differing = sorted(
                name for name in ours["relations"]
                if ours["relations"][name]
                != theirs["relations"].get(name))
            return [f"default and reference configuration disagree "
                    f"(relations {differing}, firings "
                    f"{ours['firing_count']} vs "
                    f"{theirs['firing_count']})"]
        return []
    finally:
        reference.finish()
