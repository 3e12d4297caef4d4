"""Intervals with open/closed endpoints and infinity sentinels.

Rule selection predicates come in three shapes (paper section 4.1):

* closed intervals:  ``c1 < r.a <= c2``  (any mix of <, <=)
* open intervals:    ``c < r.a``  or  ``r.a < c``  (one-sided)
* points:            ``r.a = c``

All three are represented uniformly as an :class:`Interval` over an
extended order with :data:`NEG_INF` / :data:`POS_INF` sentinels, so the
index structures never special-case unbounded predicates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Hashable


@functools.total_ordering
class _NegInf:
    """Sentinel below every value (singleton :data:`NEG_INF`)."""

    __slots__ = ()

    def __eq__(self, other):
        return other is self

    def __lt__(self, other):
        return other is not self

    def __hash__(self):
        return hash("_NegInf")

    def __repr__(self):
        return "-inf"


@functools.total_ordering
class _PosInf:
    """Sentinel above every value (singleton :data:`POS_INF`)."""

    __slots__ = ()

    def __eq__(self, other):
        return other is self

    def __lt__(self, other):
        return False

    def __hash__(self):
        return hash("_PosInf")

    def __repr__(self):
        return "+inf"


NEG_INF = _NegInf()
POS_INF = _PosInf()


def key_lt(a, b) -> bool:
    """Total order over values extended with the infinity sentinels."""
    if a is NEG_INF:
        return b is not NEG_INF
    if b is NEG_INF:
        return False
    if b is POS_INF:
        return a is not POS_INF
    if a is POS_INF:
        return False
    return a < b


def key_eq(a, b) -> bool:
    """Equality over values extended with the infinity sentinels."""
    if a is NEG_INF or b is NEG_INF:
        return a is b
    if a is POS_INF or b is POS_INF:
        return a is b
    return a == b


def key_le(a, b) -> bool:
    return key_lt(a, b) or key_eq(a, b)


@dataclass(frozen=True)
class Interval:
    """An interval with optional payload, used as the index's marker unit.

    ``payload`` identifies the client object the interval stands for (an
    α-memory node in the selection predicate index); two predicates with
    identical bounds but different payloads are distinct intervals.
    """

    low: object
    high: object
    low_closed: bool = True
    high_closed: bool = True
    payload: Hashable = None

    def __post_init__(self):
        if key_lt(self.high, self.low):
            raise ValueError(f"empty interval: {self}")
        if key_eq(self.low, self.high) and not (self.low_closed
                                                and self.high_closed):
            raise ValueError(f"empty interval: {self}")

    @classmethod
    def point(cls, value, payload: Hashable = None) -> "Interval":
        """The degenerate interval [value, value] (an ``=`` predicate)."""
        return cls(value, value, True, True, payload)

    @classmethod
    def at_least(cls, low, closed: bool = True,
                 payload: Hashable = None) -> "Interval":
        """``low <(=) x``: one-sided interval unbounded above."""
        return cls(low, POS_INF, closed, False, payload)

    @classmethod
    def at_most(cls, high, closed: bool = True,
                payload: Hashable = None) -> "Interval":
        """``x <(=) high``: one-sided interval unbounded below."""
        return cls(NEG_INF, high, False, closed, payload)

    @classmethod
    def everything(cls, payload: Hashable = None) -> "Interval":
        """The interval containing every value."""
        return cls(NEG_INF, POS_INF, False, False, payload)

    def contains_value(self, value) -> bool:
        """True if ``value`` lies inside this interval.  NaN lies in
        none: it compares false to every bound."""
        if value != value:
            return False
        if key_lt(value, self.low) or key_lt(self.high, value):
            return False
        if key_eq(value, self.low) and not self.low_closed:
            return False
        if key_eq(value, self.high) and not self.high_closed:
            return False
        return True

    def contains_interval(self, low, high) -> bool:
        """True if the *closed* interval [low, high] lies inside this one."""
        if key_lt(low, self.low) or key_lt(self.high, high):
            return False
        if key_eq(low, self.low) and not self.low_closed:
            return False
        if key_eq(high, self.high) and not self.high_closed:
            return False
        return True

    def contains_open_interval(self, low, high) -> bool:
        """True if the *open* interval (low, high) lies inside this one.

        Used for markers on bottom-level index edges, whose interior
        excludes both endpoint keys.
        """
        return key_le(self.low, low) and key_le(high, self.high)

    def __str__(self) -> str:
        lo = "[" if self.low_closed else "("
        hi = "]" if self.high_closed else ")"
        return f"{lo}{self.low!r}, {self.high!r}{hi}"
