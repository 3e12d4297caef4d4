"""Application notification: trigger delivery to subscribers.

The paper's conclusion lists as future work "support for streamlined
development of applications that can receive data from database triggers
asynchronously (e.g., safety and integrity alert monitors, stock
tickers)".  This module implements that: applications register callbacks
on rule names (or on every rule) and receive a :class:`Notification`
for each firing — the rule, the firing sequence number, and a read-only
snapshot of the matched data — decoupled from the recognize-act cycle:
callbacks are queued during rule processing and delivered after the
cycle completes, so a subscriber can never observe (or deadlock on) a
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


@dataclass
class _Subscription:
    rule_name: str | None           # None = every rule
    callback: Subscriber
    token: int


class SubscriptionHub:
    """Registry and delivery queue for firing subscribers."""

    def __init__(self):
        self._subscriptions: list[_Subscription] = []
        self._queue: list[Notification] = []
        self._next_token = 1
        #: exceptions raised by subscribers (delivery never propagates
        #: them into rule processing); newest last
        self.errors: list[tuple[int, Exception]] = []

    # ------------------------------------------------------------------

    def subscribe(self, callback: Subscriber,
                  rule_name: str | None = None) -> int:
        """Register a callback; returns a token for unsubscribe.

        ``rule_name`` of None subscribes to every rule's firings.
        """
        token = self._next_token
        self._next_token += 1
        self._subscriptions.append(
            _Subscription(rule_name, callback, token))
        return token

    def unsubscribe(self, token: int) -> bool:
        """Remove a subscription; returns False if the token is unknown."""
        before = len(self._subscriptions)
        self._subscriptions = [s for s in self._subscriptions
                               if s.token != token]
        return len(self._subscriptions) != before

    @property
    def active(self) -> bool:
        return bool(self._subscriptions)

    @property
    def pending(self) -> bool:
        """Whether notifications await :meth:`deliver`."""
        return bool(self._queue)

    # ------------------------------------------------------------------

    def record_firing(self, sequence: int, rule_name: str,
                      matches: list[Match]) -> None:
        """Queue a firing for delivery (called inside the cycle)."""
        if not any(s.rule_name in (None, rule_name)
                   for s in self._subscriptions):
            return
        snapshots = tuple(
            MatchSnapshot(
                values={var: entry.values
                        for var, entry in match.bindings},
                previous={var: entry.old_values
                          for var, entry in match.bindings
                          if entry.old_values is not None})
            for match in matches)
        self._queue.append(Notification(sequence, rule_name, snapshots))

    def deliver(self) -> int:
        """Deliver queued notifications; returns how many were sent.

        Called after the recognize-act cycle completes.  Subscriber
        exceptions are captured into :attr:`errors`, never raised.
        """
        delivered = 0
        queue, self._queue = self._queue, []
        for notification in queue:
            for subscription in list(self._subscriptions):
                if subscription.rule_name not in (None,
                                                  notification.rule_name):
                    continue
                try:
                    subscription.callback(notification)
                    delivered += 1
                except Exception as exc:      # noqa: BLE001 — isolate
                    self.errors.append((notification.sequence, exc))
        return delivered
