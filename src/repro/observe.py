"""Engine observability: counters, trace hooks, and stats snapshots.

The paper's evaluation (Figures 9-11) rests on per-layer cost
attribution — token testing vs. priming vs. installation — and this
module is what lets our engine report the same decomposition at
runtime:

* :class:`EngineStats` — a process-wide counter registry threaded
  through the hot paths (selection-index probes, α-memory maintenance,
  join probes, virtual-memory scans, P-node transitions, agenda
  selections, rule firings, cache hit rates).  Counters are plain dict
  bumps guarded by one attribute check, cheap enough to leave on in
  production and off-able wholesale (``stats.enabled = False``).
* :class:`TraceHub` — the engine's one listener registry for discrete
  events (``rule_fired``, ``token_routed``, ``plan_executed``), exposed
  as ``Database.on_event``; ``Database.subscribe``'s trigger delivery is
  a ``rule_fired`` listener too.  Emission is gated per event type so
  an idle hub costs one dict lookup.

Counter taxonomy (dotted names, grouped by layer — see
docs/ARCHITECTURE.md, "Observing the engine"):

=====================  ==================================================
``selection.*``        top-level predicate index (probes)
``alpha.*``            α-memory maintenance and join-index probes
``virtual.*``          virtual α-memory base-relation scans
``pnode.*``            P-node match insertions / retractions
``agenda.*``           conflict-resolution selections and stale pruning
``rules.*``            firings, matches consumed, cascade depth
``tokens.*``           tokens built (``generated``: watched relations
                       only, less the retractions no memory can see)
                       and routed; ``batches``: Δ-sets of two or more
                       tokens routed as one — one per multi-row
                       statement or rule-action append
``network.*``          end-of-transition flush (dynamic rules a
                       transition touched, hence flushed) and rule
                       activation (rules primed, tuples the priming
                       passes examined — one bump per activation)
``joins.*``            the pairwise seek (seeks run, orders planned /
                       cache hits) and β chains planned
``stmt_cache.*``       transparent statement-cache hits / misses
``plan_cache.*``       prepared-statement executions / replans
``actions.*``          rule-action plans built
``plans.*``            top-level command plans executed
``wal.*``              write-ahead log records / fsyncs / retries /
                       checkpoints
``recovery.*``         WAL records replayed by ``Database.recover``
``faults.*``           injected faults (see :mod:`repro.faults`)
``serve.*``            the serving layer (sessions opened / closed,
                       reads, writes, deferred ops, transaction
                       denials)
=====================  ==================================================

Counter bumps are read-modify-write and therefore not atomic across
threads.  Every bump — the engine's and the serving layer's own
``serve.*`` keys — happens on the thread driving the call, under the
serving layer's one engine lock.
"""

from __future__ import annotations

import json
from typing import Callable

#: event types :class:`TraceHub` recognises
TRACE_EVENTS = ("rule_fired", "token_routed", "plan_executed")


class EngineStats:
    """A registry of named monotonic counters.

    Hot paths bump entries of :attr:`counters` directly after checking
    :attr:`enabled` — the pattern is::

        stats = self.stats
        if stats.enabled:
            stats.counters["alpha.inserts"] = \\
                stats.counters.get("alpha.inserts", 0) + 1

    which costs one attribute load, one branch, and one dict store per
    event; cool paths use :meth:`bump`.  Disabling stops collection
    without detaching the registry from the components that hold it.
    """

    __slots__ = ("enabled", "counters")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.counters: dict[str, int] = {}

    # ------------------------------------------------------------------

    def bump(self, key: str, n: int = 1) -> None:
        """Add ``n`` to one counter (no-op while disabled)."""
        if self.enabled:
            counters = self.counters
            counters[key] = counters.get(key, 0) + n

    def note_tokens_routed(self, n: int = 1, batches: int = 0) -> None:
        """Count routed tokens (and, optionally, a propagated batch).

        The single bookkeeping point shared by the per-token and
        batched propagation paths, so both count identically (a no-op
        while disabled).  Every routed token probes the selection index
        exactly once, so ``selection.probes`` is counted here too: one
        bump per batch, not per probe.
        """
        if self.enabled:
            counters = self.counters
            counters["tokens.routed"] = \
                counters.get("tokens.routed", 0) + n
            if batches:
                counters["tokens.batches"] = \
                    counters.get("tokens.batches", 0) + batches
            counters["selection.probes"] = \
                counters.get("selection.probes", 0) + n

    def observe_max(self, key: str, value: int) -> None:
        """Track a high-water mark (e.g. deepest rule cascade seen)."""
        if self.enabled:
            counters = self.counters
            if value > counters.get(key, 0):
                counters[key] = value

    def get(self, key: str) -> int:
        return self.counters.get(key, 0)

    def reset(self) -> None:
        """Zero every counter (collection state is unaffected)."""
        self.counters.clear()

    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        """The counters as a sorted plain dict (safe to mutate)."""
        return dict(sorted(self.counters.items()))

    def to_json(self, **extra) -> str:
        """A JSON snapshot of the counters, with optional extra fields
        (the benchmarks attach workload metadata this way)."""
        payload: dict = {"counters": self.snapshot()}
        payload.update(extra)
        return json.dumps(payload, indent=2, sort_keys=True)

    def hit_rate(self, hits_key: str, misses_key: str) -> float | None:
        """``hits / (hits + misses)`` for a cache counter pair, or None
        when the pair has recorded nothing."""
        hits = self.counters.get(hits_key, 0)
        misses = self.counters.get(misses_key, 0)
        total = hits + misses
        return hits / total if total else None

    def report(self) -> str:
        """Counters as an aligned text table (the CLI's ``\\stats``)."""
        items = sorted(self.counters.items())
        if not items:
            return "no counters recorded"
        width = max(len(k) for k, _ in items)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in items)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"EngineStats({state}, {len(self.counters)} counters)"


#: shared disabled registry: the default for components constructed
#: outside a Database, so hot paths never need a None check
NULL_STATS = EngineStats(enabled=False)


class TraceHub:
    """Callback registry for discrete engine events.

    Callbacks receive ``(event_type, payload_dict)``.  Emission sites
    guard with :meth:`wants` so an event with no listener costs one
    dict lookup and no payload construction.  A ``rule_fired`` payload
    carries ``sequence``, ``rule``, ``priority``, ``matches`` (how
    many) and ``bindings`` (the consumed matches; read, never keep).
    """

    def __init__(self):
        self._by_event: dict[str, dict[int, Callable]] = {}
        self._next_token = 0
        #: whether any callback is registered (the firing step checks
        #: this once instead of asking :meth:`wants` per event type)
        self.listening = False

    def on(self, callback: Callable[[str, dict], None],
           events=None) -> int:
        """Register ``callback`` for the given event types (all of
        :data:`TRACE_EVENTS` when None); returns a token for
        :meth:`off`."""
        if events is None:
            events = TRACE_EVENTS
        elif isinstance(events, str):
            events = (events,)
        events = tuple(events)
        unknown = [e for e in events if e not in TRACE_EVENTS]
        if unknown or not events:
            raise ValueError(
                f"unknown trace event(s) {unknown or 'none given'}; "
                f"expected a non-empty subset of {list(TRACE_EVENTS)}")
        self._next_token += 1
        token = self._next_token
        for event in events:
            self._by_event.setdefault(event, {})[token] = callback
        self.listening = True
        return token

    def off(self, token: int) -> bool:
        """Unregister a callback; True if anything was removed."""
        removed = False
        for listeners in self._by_event.values():
            if listeners.pop(token, None) is not None:
                removed = True
        self.listening = any(self._by_event.values())
        return removed

    def wants(self, event: str) -> bool:
        """Does any callback listen for this event type?"""
        return bool(self._by_event.get(event))

    def emit(self, event: str, payload: dict) -> None:
        """Deliver one event to its listeners (caller checked
        :meth:`wants`, or accepts the lookup cost)."""
        listeners = self._by_event.get(event)
        if not listeners:
            return
        for callback in list(listeners.values()):
            callback(event, payload)

    def __len__(self) -> int:
        return len({token for listeners in self._by_event.values()
                    for token in listeners})
