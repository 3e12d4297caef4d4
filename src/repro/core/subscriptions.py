"""Application notification: trigger delivery to subscribers.

The paper's conclusion lists as future work "support for streamlined
development of applications that can receive data from database triggers
asynchronously (e.g., safety and integrity alert monitors, stock
tickers)".  This module implements that as a consumer of the firing
stream: applications register callbacks on rule names (or on every
rule) — each one a ``rule_fired`` listener on the database's
:class:`~repro.observe.TraceHub`, the one listener registry — and
receive a :class:`Notification` for each firing — the rule, the firing
sequence number, and a read-only snapshot of the matched data —
decoupled from the recognize-act cycle: notifications are queued during
rule processing and delivered after the cycle completes, or dropped if
it raises, so a subscriber can never observe (or deadlock on) a
half-finished cascade, and exceptions in subscribers cannot corrupt rule
processing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.pnode import Match


@dataclass(frozen=True)
class MatchSnapshot:
    """One matched combination, frozen for delivery: per tuple variable,
    its attribute values (and pre-transition values when present)."""

    values: dict[str, tuple]
    previous: dict[str, tuple]

    def __getitem__(self, var: str) -> tuple:
        return self.values[var]


@dataclass(frozen=True)
class Notification:
    """One rule firing as seen by a subscriber."""

    sequence: int
    rule_name: str
    matches: tuple[MatchSnapshot, ...]

    def __len__(self) -> int:
        return len(self.matches)


Subscriber = Callable[[Notification], None]


class SubscriptionHub:
    """The delivery queue for firing subscribers.

    A subscriber is a ``rule_fired`` listener on the database's trace
    hub (:meth:`listener` builds it): at each firing it filters by rule
    name and queues a snapshot here.  :meth:`deliver` runs once the
    recognize-act cycle settles; a cycle that raises drops the queue
    instead (:meth:`discard`), since its cascade never finished.
    """

    def __init__(self):
        self._queue: list[tuple[Subscriber, Notification]] = []
        #: exceptions raised by subscribers (delivery never propagates
        #: them into rule processing); newest last
        self.errors: list[tuple[int, Exception]] = []

    @property
    def pending(self) -> bool:
        """Whether notifications await :meth:`deliver`."""
        return bool(self._queue)

    # ------------------------------------------------------------------

    def listener(self, callback: Subscriber, rule_name: str | None):
        """A ``rule_fired`` trace listener queueing ``callback``'s
        notification of every firing of ``rule_name`` (of any rule when
        None)."""
        def on_fired(event: str, payload: dict) -> None:
            if rule_name is None or payload["rule"] == rule_name:
                self.record_firing(callback, payload["sequence"],
                                   payload["rule"], payload["bindings"])
        return on_fired

    def record_firing(self, callback: Subscriber, sequence: int,
                      rule_name: str, matches: list[Match]) -> None:
        """Queue a firing for ``callback`` (called inside the cycle);
        the subscribers of one firing share one snapshot."""
        queue = self._queue
        if queue and queue[-1][1].sequence == sequence:
            notification = queue[-1][1]
        else:
            notification = Notification(sequence, rule_name, tuple(
                MatchSnapshot(
                    values={var: entry.values
                            for var, entry in match.bindings},
                    previous={var: entry.old_values
                              for var, entry in match.bindings
                              if entry.old_values is not None})
                for match in matches))
        queue.append((callback, notification))

    def discard(self) -> None:
        """Drop queued notifications (their cycle raised)."""
        self._queue.clear()

    def deliver(self) -> int:
        """Deliver queued notifications; returns how many were sent.

        Called after the recognize-act cycle completes.  Subscriber
        exceptions are captured into :attr:`errors`, never raised.
        """
        delivered = 0
        queue, self._queue = self._queue, []
        for callback, notification in queue:
            try:
                callback(notification)
                delivered += 1
            except Exception as exc:      # noqa: BLE001 — isolate
                self.errors.append((notification.sequence, exc))
        return delivered
