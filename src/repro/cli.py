"""An interactive Ariel shell.

Run with ``python -m repro`` (optionally passing script files to execute
first).  Commands are the POSTQUEL/ARL language; backslash meta-commands
inspect the system:

=============  ====================================================
``\\d``         list relations (or ``\\d name`` for one schema)
``\\rules``     list rules and network statistics
``\\rule name`` describe one rule's network and modified action
``\\plan name`` show one rule's adaptive join plan: per-memory
               stored/virtual decision, the join-index set its
               equi-joins give it, and the pairwise seek order from
               every seed — or, under Rete, the β-chain order
``\\explain q`` show the plan for a data command; ``\\explain analyze
               q`` executes it and annotates every operator with rows,
               loops and wall time
``\\begin`` / ``\\commit`` / ``\\abort``  transaction control
``\\net``       network diagnostics
``\\stats``     engine counters (``\\stats reset`` clears them)
``\\trace``     the last rule firings; ``\\trace on|off`` toggles a
               live printout of every firing as it happens
``\\timing``    toggle per-command wall-clock reporting (``on|off``)
``\\prepare``   ``\\prepare <name> <stmt>`` — prepare a parameterized
               statement under a session name
``\\exec``      ``\\exec <name> [k=v ...]`` — run a prepared statement
               (positional literals fill ``$1``-style parameters)
``\\dump file`` write the database as an ARL script
``\\load file`` replace the session database from a dump (the current
               database is kept if the load fails)
``\\wal``       durability status: WAL path, generation, record count,
               fsync policy, degraded state
``\\serve``     concurrent serving: ``\\serve [host[:port]]`` exposes
               the session database over TCP (``\\serve status``
               inspects it, ``\\serve stop`` shuts it down)
``\\checkpoint``  force a checkpoint (durable databases only)
``\\q``         quit
=============  ====================================================

Multi-line input is supported: a command is executed when its line ends
with ``;`` or when the line is blank; ``do … end`` blocks are gathered
until ``end``.
"""

from __future__ import annotations

import re
import sys
import time

from repro.core.introspect import (
    describe_join_plan, describe_rule, network_summary)
from repro.db import Database
from repro.errors import ArielError
from repro.executor.executor import DmlResult, ResultSet
from repro.lang.lexer import tokenize
from repro.prepared import Prepared

PROMPT = "ariel> "
CONTINUE_PROMPT = "....> "

_BANNER = """\
Ariel reproduction shell — POSTQUEL + ARL.  \\q quits, \\d lists
relations, \\rules lists rules, \\rule <name> describes one.
End a command with ';' or a blank line."""


class Shell:
    """Line-oriented REPL over a Database."""

    def __init__(self, db: Database | None = None,
                 out=sys.stdout):
        self.db = db or Database()
        self.out = out
        self._buffer: list[str] = []
        self._timing = False
        self._prepared: dict[str, Prepared] = {}
        self._trace_token: int | None = None
        self._server = None         # RuleServer started by \serve

    # ------------------------------------------------------------------

    def run(self, stdin=None) -> None:
        if stdin is None:
            stdin = sys.stdin       # bound at call time, not import time
        self._print(_BANNER)
        while True:
            prompt = CONTINUE_PROMPT if self._buffer else PROMPT
            self.out.write(prompt)
            self.out.flush()
            line = stdin.readline()
            if not line:
                break
            if not self.feed(line.rstrip("\n")):
                break
        self._stop_server()

    def feed(self, line: str) -> bool:
        """Process one input line; returns False to quit."""
        stripped = line.strip()
        if not self._buffer and stripped.startswith("\\"):
            return self._meta(stripped)
        if not stripped:
            if self._buffer:
                self._execute("\n".join(self._buffer))
                self._buffer.clear()
            return True
        self._buffer.append(line)
        if self._complete(stripped):
            self._execute("\n".join(self._buffer))
            self._buffer.clear()
        return True

    def _complete(self, last_line: str) -> bool:
        """Ready to execute?  A command ends with ';' (or a blank line,
        handled by the caller), but never inside an open do … end."""
        words = re.findall(r"\b(?:do|end)\b",
                           " ".join(self._buffer).lower())
        if words.count("do") > words.count("end"):
            return False
        return last_line.endswith(";")

    # ------------------------------------------------------------------

    def _execute(self, text: str) -> None:
        text = text.strip().rstrip(";").strip()
        if not text:
            return
        started = time.perf_counter()
        try:
            result = self.db.execute(text)
        except ArielError as exc:
            self._print(f"error: {exc}")
            return
        elapsed = time.perf_counter() - started
        self._show_result(result)
        if self._timing:
            self._print(f"Time: {elapsed * 1000.0:.3f} ms")

    def _show_result(self, result) -> None:
        if isinstance(result, ResultSet):
            self._print(str(result))
            self._print(f"({len(result)} row(s))")
        elif isinstance(result, DmlResult):
            self._print(f"ok: {result.count} tuple(s) affected; "
                        f"{self.db.firings} rule firing(s) so far")
        elif isinstance(result, str):
            # explain / explain analyze return their rendering
            self._print(result)
        else:
            self._print("ok")

    def _meta(self, line: str) -> bool:
        command, _, argument = line.partition(" ")
        argument = argument.strip()
        try:
            if command in ("\\q", "\\quit"):
                return False
            if command == "\\d":
                self._describe_relations(argument)
            elif command == "\\rules":
                self._print(network_summary(self.db.manager))
            elif command == "\\rule":
                if not argument:
                    self._print("usage: \\rule <name>")
                else:
                    self._print(describe_rule(self.db.manager, argument))
            elif command == "\\plan":
                if not argument:
                    self._print("usage: \\plan <rule>")
                else:
                    self._print(describe_join_plan(self.db.manager,
                                                   argument))
            elif command == "\\explain":
                if argument.startswith("analyze "):
                    self._print(self.db.explain(
                        argument[len("analyze "):], analyze=True))
                else:
                    self._print(self.db.explain(argument))
            elif command == "\\begin":
                self.db.begin()
                self._print("transaction open")
            elif command == "\\commit":
                self.db.commit()
                self._print("committed")
            elif command == "\\abort":
                self.db.abort()
                self._print("aborted")
            elif command == "\\net":
                network = self.db.network
                self._print(
                    f"network={network.network_name} "
                    f"tokens={network.tokens_processed} "
                    f"firings={self.db.firings} "
                    f"alpha-entries={network.memory_entry_count()}")
            elif command == "\\stats":
                if argument == "reset":
                    self.db.stats.reset()
                    self._print("counters reset")
                elif argument:
                    self._print("usage: \\stats [reset]")
                else:
                    self._print(self.db.stats.report())
            elif command == "\\trace":
                self._trace(argument)
            elif command == "\\timing":
                if argument not in ("", "on", "off"):
                    self._print("usage: \\timing [on|off]")
                else:
                    self._timing = (argument == "on" if argument
                                    else not self._timing)
                    state = "on" if self._timing else "off"
                    self._print(f"timing is {state}")
            elif command == "\\prepare":
                self._prepare(argument)
            elif command == "\\exec":
                self._exec(argument)
            elif command == "\\dump":
                if not argument:
                    self._print("usage: \\dump <file>")
                else:
                    from repro import persist
                    persist.dump(self.db, argument)
                    self._print(f"dumped to {argument}")
            elif command == "\\load":
                self._load(argument)
            elif command == "\\wal":
                self._wal_status()
            elif command == "\\serve":
                self._serve(argument)
            elif command == "\\checkpoint":
                self.db.checkpoint()
                self._print("checkpoint complete")
            else:
                self._print(f"unknown meta-command {command!r} "
                            f"(try \\d, \\rules, \\rule, \\plan, "
                            f"\\explain, \\begin, \\commit, \\abort, "
                            f"\\net, \\stats, \\trace, \\timing, "
                            f"\\prepare, \\exec, \\dump, \\load, "
                            f"\\wal, \\checkpoint, \\serve, \\q)")
        except (ArielError, OSError, UnicodeError) as exc:
            self._print(f"error: {exc}")
        return True

    def _load(self, argument: str) -> None:
        """Replace the session database from a dump file.

        The dump loads into a *fresh* database first; the session swaps
        over only on success, so a malformed or unreadable file leaves
        the current database untouched.
        """
        if not argument:
            self._print("usage: \\load <file>")
            return
        from repro import persist
        try:
            loaded = persist.load(argument)
        except (ArielError, OSError, UnicodeError) as exc:
            self._print(f"error: could not load {argument}: {exc}")
            self._print("the session database is unchanged")
            return
        if self._server is not None:
            self._stop_server()
            self._print("rule server stopped (it served the old "
                        "database)")
        self.db = loaded
        # the trace registration died with the old database
        self._trace_token = None
        self._print(f"loaded {argument} (fresh database)")

    def _wal_status(self) -> None:
        info = self.db.wal_info()
        if info is None:
            self._print("database is in-memory (no durable path)")
            return
        self._print(f"durable path        {info['path']}")
        self._print(f"fsync policy        {info['fsync']}")
        self._print(f"wal generation      {info['generation']}")
        self._print(f"wal records         {info['records']}")
        self._print(f"pending entries     {info['pending']}")
        self._print(f"checkpoint every    {info['checkpoint_every']}")
        degraded = info["degraded"] or "no"
        self._print(f"degraded            {degraded}")

    def _serve(self, argument: str) -> None:
        """``\\serve [host[:port] | status | stop]`` — expose the
        session database to concurrent clients over TCP.

        While serving, shell commands and remote clients share one
        database: the shell's own commands bypass the service's engine
        lock, so quiesce the shell (or use only ``\\serve status``)
        while clients are connected.
        """
        from repro.serve import RuleServer, RuleService
        if argument == "stop":
            if self._server is None:
                self._print("no rule server is running")
            else:
                self._stop_server()
                self._print("rule server stopped")
            return
        if argument == "status":
            if self._server is None:
                self._print("no rule server is running")
            else:
                host, port = self._server.address
                status = self._server.status()
                self._print(f"serving on {host}:{port}")
                self._print(f"sessions            {status['sessions']}")
                self._print(f"transaction owner   "
                            f"{status['transaction_owner']}")
                self._print(f"parked requests     "
                            f"{status['parked']}")
                self._print(f"serialized commands "
                            f"{status['serial_log_entries']}")
            return
        if self._server is not None:
            host, port = self._server.address
            self._print(f"already serving on {host}:{port} "
                        f"(\\serve stop to stop)")
            return
        host, port = "127.0.0.1", 0
        if argument:
            host, colon, port_text = argument.rpartition(":")
            if not colon:
                host, port_text = argument, ""
            if port_text:
                try:
                    port = int(port_text)
                except ValueError:
                    self._print("usage: \\serve [host[:port]"
                                " | status | stop]")
                    return
        server = RuleServer(RuleService(db=self.db), host=host,
                            port=port)
        try:
            host, port = server.start()
        except OSError as exc:
            self._print(f"error: could not bind: {exc}")
            return
        self._server = server
        self._print(f"serving the session database on {host}:{port} "
                    f"(\\serve status, \\serve stop)")

    def _stop_server(self) -> None:
        """Stop the \\serve server, if one is running (keeps self.db
        open — the shell still owns it)."""
        server, self._server = self._server, None
        if server is not None:
            server.stop(shutdown_service=True, close_db=False)

    def _trace(self, argument: str) -> None:
        if argument == "on":
            if self._trace_token is None:
                self._trace_token = self.db.on_event(
                    self._print_trace_event, "rule_fired")
            self._print("live rule-firing trace is on")
        elif argument == "off":
            if self._trace_token is not None:
                self.db.off_event(self._trace_token)
                self._trace_token = None
            self._print("live rule-firing trace is off")
        elif argument:
            self._print("usage: \\trace [on|off]")
        else:
            if not self.db.firing_log:
                self._print("no firings recorded")
            for record in self.db.firing_log[-20:]:
                self._print(str(record))

    def _print_trace_event(self, event: str, payload: dict) -> None:
        self._print(f"[{event}] #{payload['sequence']} "
                    f"{payload['rule']} (priority {payload['priority']}, "
                    f"{payload['matches']} match(es))")

    def _prepare(self, argument: str) -> None:
        name, _, statement = argument.partition(" ")
        statement = statement.strip()
        if not name or not statement:
            self._print("usage: \\prepare <name> <statement>")
            return
        prepared = self.db.prepare(statement)
        self._prepared[name] = prepared
        sig = ", ".join(f"${p}" for p in prepared.signature)
        self._print(f"prepared {name}({sig})")

    def _exec(self, argument: str) -> None:
        name, _, rest = argument.partition(" ")
        if not name:
            self._print("usage: \\exec <name> [param=value ...]")
            return
        prepared = self._prepared.get(name)
        if prepared is None:
            known = ", ".join(sorted(self._prepared)) or "none"
            self._print(f"no prepared statement {name!r} "
                        f"(prepared: {known})")
            return
        params = self._parse_exec_args(rest.strip(), prepared.signature)
        if params is None:
            return
        started = time.perf_counter()
        result = prepared.execute_with(params)
        elapsed = time.perf_counter() - started
        self._show_result(result)
        if self._timing:
            self._print(f"Time: {elapsed * 1000.0:.3f} ms")

    def _parse_exec_args(self, text: str,
                         signature: tuple[str, ...]
                         ) -> dict[str, object] | None:
        """``k=v`` pairs and/or bare literals (positional, filling the
        signature in order); values are ARL literals."""
        params: dict[str, object] = {}
        position = 0
        tokens = tokenize(text)
        i = 0

        def literal(j):
            """(ok, value, next_index) for a literal at tokens[j]."""
            token = tokens[j]
            if token.kind in ("number", "string"):
                return True, token.value, j + 1
            if token.kind == "keyword" and token.value in ("true", "false",
                                                           "null"):
                return True, {"true": True, "false": False,
                              "null": None}[token.value], j + 1
            if (token.kind, token.value) == ("op", "-") \
                    and tokens[j + 1].kind == "number":
                return True, -tokens[j + 1].value, j + 2
            return False, None, j

        while tokens[i].kind != "eof":
            token = tokens[i]
            if token.kind == "ident" \
                    and (tokens[i + 1].kind, tokens[i + 1].value) \
                    == ("op", "="):
                ok, value, i = literal(i + 2)
                if not ok:
                    self._print(f"bad value for parameter {token.value!r}")
                    return None
                params[str(token.value)] = value
            else:
                ok, value, i = literal(i)
                if not ok:
                    self._print(f"cannot parse argument near {token}")
                    return None
                if position >= len(signature):
                    self._print("too many positional arguments "
                                f"(statement takes {len(signature)})")
                    return None
                params[signature[position]] = value
                position += 1
        return params

    def _describe_relations(self, name: str) -> None:
        if name:
            relation = self.db.catalog.relation(name)
            self._print(f"{name} ({len(relation)} tuple(s))")
            for attr in relation.schema:
                self._print(f"  {attr.name:<20} {attr.type.value}")
            for index in relation.indexes():
                self._print(f"  index {index.name} on {index.attribute} "
                            f"using {index.kind}")
            return
        relations = sorted(self.db.catalog.relations(),
                           key=lambda r: r.name)
        if not relations:
            self._print("no relations")
            return
        for relation in relations:
            self._print(f"{relation.name:<24} {len(relation):>6} "
                        f"tuple(s), {len(relation.schema)} attribute(s)")

    def _print(self, text: str) -> None:
        self.out.write(text + "\n")


def main(argv: list[str] | None = None) -> int:
    """Entry point: run script files, then an interactive shell."""
    argv = list(sys.argv[1:] if argv is None else argv)
    db = Database()
    shell = Shell(db)
    for path in argv:
        try:
            with open(path) as handle:
                db.execute_script(handle.read())
            print(f"loaded {path}")
        except (OSError, ArielError) as exc:
            print(f"error loading {path}: {exc}", file=sys.stderr)
            return 1
    if sys.stdin is not None:
        shell.run()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
