"""A benchmark-owned span tracer that measures the engine from outside.

``Tracer.install()`` replaces the public entry points of each module —
at class / module-attribute level — with wrappers that record one span
per call; ``uninstall()`` puts the originals back.  Nothing under
``src/`` knows it exists (in-engine timers are a later change), so it
must be installed *before* the ``Database`` is constructed: the
transition hooks capture ``RuleManager.process_token(s)`` as bound
methods at construction time.

A span is ``(id, name, start_ns, end_ns, parent_id, op_id)``.  Spans
are kept in memory (the first ``span_cap`` of them; the per-name totals
cover all) and written out by :meth:`dump`.  A layer's *self time* is
its span's duration minus the part its child spans cover.  Stacks are
per thread, so in the server child a span's parent is always on its own
thread; a write's engine span runs on the service's writer thread and
is therefore *not* a child of the handler thread's service span — which
is exactly what makes "service span − engine span" the queue + gate
wait.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

#: name -> [calls, self_ns, total_ns, max_ns]
Totals = dict


class Tracer:
    def __init__(self, span_cap: int = 200_000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        #: identifier shared by the spans of the op being driven (the
        #: driver sets it; server handler threads derive their own)
        self.op_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: list = []          # every thread's state
        self._lock = threading.Lock()
        self._patched: list[tuple] = []   # (owner, attribute, original)

    # ------------------------------------------------------------------

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
            return state

    def wrap(self, fn, name: str, leaf_name: str | None = None,
             op_id_of=None):
        """``fn`` recording a span named ``name`` per call.

        ``leaf_name`` renames the spans that had no child span (used to
        tell a service call that ran the engine on its own thread from
        one that handed it to the writer thread).  ``op_id_of(args)``
        derives the op identifier for everything beneath this span.
        """
        now = time.perf_counter_ns
        get_state = self._state
        ids = self._ids
        spans = self.spans
        cap = self.span_cap

        def traced(*args, **kwargs):
            state = get_state()
            stack = state.stack
            if op_id_of is not None:
                state.op_id = op_id_of(args)
            frame = [next(ids), 0]         # span id, child time
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                child = frame[1]
                label = leaf_name if leaf_name and not child else name
                total = state.totals.get(label)
                if total is None:
                    total = state.totals[label] = [0, 0, 0, 0]
                total[0] += 1
                total[1] += duration - child
                total[2] += duration
                if duration > total[3]:
                    total[3] = duration
                if len(spans) < cap:
                    op_id = state.op_id
                    spans.append((frame[0], label, start, end, parent,
                                  self.op_id if op_id is None else op_id))

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Patch every ``(owner, attribute, name[, leaf_name[,
        op_id_of]])`` target."""
        for owner, attribute, name, *rest in targets:
            original = owner.__dict__[attribute]
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(original, name, *rest))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------

    def totals(self) -> Totals:
        """Per-name ``[calls, self_ns, total_ns, max_ns]`` summed over
        threads (a copy; subtract two to get an interval)."""
        merged: Totals = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for name, (calls, self_ns, total_ns, max_ns) \
                    in list(state.totals.items()):
                into = merged.setdefault(name, [0, 0, 0, 0])
                into[0] += calls
                into[1] += self_ns
                into[2] += total_ns
                into[3] = max(into[3], max_ns)
        return merged

    def dump(self, path) -> None:
        """Write the kept spans as JSON lines."""
        with open(path, "w") as f:
            for span_id, name, start, end, parent, op_id in self.spans:
                f.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "op": op_id}))
                f.write("\n")


class _ThreadState:
    __slots__ = ("stack", "totals", "op_id")

    def __init__(self):
        self.stack: list[list] = []
        self.totals: Totals = {}
        self.op_id = None


def totals_delta(after: Totals, before: Totals) -> Totals:
    """``after - before`` per name (max is the later high-water mark)."""
    out: Totals = {}
    for name, (calls, self_ns, total_ns, max_ns) in after.items():
        b = before.get(name, (0, 0, 0, 0))
        out[name] = [calls - b[0], self_ns - b[1], total_ns - b[2],
                     max_ns]
    return out


def engine_targets() -> list[tuple]:
    """The public entry points of each layer, by span name.

    ``RuleServer._dispatch`` is the one private hook: the connection
    handler exposes no public per-request method.
    """
    import repro.db
    import repro.prepared
    import repro.serve.service
    from repro.core.action_planner import ActionPlanner
    from repro.core.manager import RuleManager
    from repro.core.selection_index import SelectionIndex
    from repro.db import Database
    from repro.executor.executor import Executor
    from repro.lang.semantic import SemanticAnalyzer
    from repro.planner.optimizer import Optimizer
    from repro.prepared import Prepared
    from repro.serve.server import RuleServer
    from repro.serve.service import RuleService
    from repro.txn.durability import DurabilityManager
    from repro.txn.transitions import TransitionHooks

    def request_op_id(args):
        _, session, request = args
        return f"{session.id}:{request.get('id')}"

    targets = [
        # the facade: statement-cache lookup, transition scope and the
        # recognize-act loop's own glue show up as its self time
        (Database, "execute", "db.execute"),
        (Database, "bulk_append", "db.bulk_append"),
        (Database, "prepare", "db.prepare"),
        (SemanticAnalyzer, "analyze", "lang.analyze"),
        (Optimizer, "plan_command", "planner.plan_command"),
        (Prepared, "execute_with", "prepared.execute"),
        (Prepared, "execute_readonly", "prepared.execute_readonly"),
        (Executor, "run", "executor.run"),
        (TransitionHooks, "flush_tokens", "txn.transitions.flush_tokens"),
        (RuleManager, "process_token", "core.network.process_tokens"),
        (RuleManager, "process_tokens", "core.network.process_tokens"),
        (RuleManager, "select_rule", "core.agenda.select_rule"),
        (RuleManager, "consume_matches", "core.pnode.consume_matches"),
        (RuleManager, "end_of_rule_processing",
         "core.manager.end_of_rule_processing"),
        (RuleManager, "define", "core.manager.define"),
        (RuleManager, "activate", "core.manager.activate"),
        (RuleManager, "deactivate", "core.manager.deactivate"),
        (RuleManager, "remove", "core.manager.remove"),
        (SelectionIndex, "probe", "core.selection_index.probe"),
        (SelectionIndex, "probe_many", "core.selection_index.probe"),
        (ActionPlanner, "plan_firing", "core.action_planner.plan_firing"),
        (DurabilityManager, "flush_boundary",
         "txn.durability.flush_boundary"),
        (DurabilityManager, "journal_statement",
         "txn.durability.journal_statement"),
        (DurabilityManager, "checkpoint", "txn.durability.checkpoint"),
        (RuleService, "execute_prepared", "serve.service.read",
         "serve.service.write"),
        (RuleServer, "_dispatch", "serve.server.dispatch", None,
         request_op_id),
    ]
    targets += [(TransitionHooks, method, "txn.transitions.mutate")
                for method in ("insert", "insert_many", "delete",
                               "replace")]
    # every module that imported the parser function by name
    targets += [(module, "parse_command", "lang.parse")
                for module in (repro.db, repro.prepared,
                               repro.serve.service)]
    return targets
