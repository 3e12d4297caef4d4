"""Tokens: the unit of change flowing through the discrimination network.

Ariel generalises the production-system token to four kinds (paper
section 4.3.3):

* ``+``  — insertion of a new tuple value;
* ``−``  — deletion of a tuple value;
* ``Δ+`` — insertion of a *transition* (new, old) pair;
* ``Δ−`` — deletion of a previously inserted transition pair.

Every token may carry an *event specifier* — ``append``, ``delete`` or
``replace(target-list)`` — naming the logical event that created it; a
``−`` token from the first in-transition modification of a pre-existing
tuple carries none (paper §4.3.1 case 3).  "On-conditions in the
top-level discrimination network are the only conditions that ever
examine the event-specifier on a token."

:class:`Token` is a named tuple that still rejects a Δ kind without
``old_values`` and a plain kind with them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import NamedTuple

from repro.lang.ast_nodes import EventKind
from repro.storage.tuples import TupleId


class TokenKind(enum.Enum):
    """The four token kinds of paper section 4.3.3."""

    PLUS = "+"
    MINUS = "-"
    DELTA_PLUS = "Δ+"
    DELTA_MINUS = "Δ-"

    @property
    def is_delta(self) -> bool:
        return self is TokenKind.DELTA_PLUS or self is TokenKind.DELTA_MINUS

    @property
    def is_insertion(self) -> bool:
        """True for the kinds that add data (+ and Δ+)."""
        return self is TokenKind.PLUS or self is TokenKind.DELTA_PLUS


@dataclass(frozen=True)
class EventSpecifier:
    """``append``, ``delete`` or ``replace(target-list)``.

    ``attributes`` (replace only) names the fields whose values changed —
    computed against the value the tuple had at the *beginning of the
    transition*, so the specifier reflects the logical net effect.
    """

    kind: EventKind
    attributes: tuple[str, ...] = ()

    def __str__(self) -> str:
        if self.kind is EventKind.REPLACE and self.attributes:
            return f"replace({', '.join(self.attributes)})"
        return self.kind.value


class _TokenFields(NamedTuple):
    """Token's fields: a NamedTuple class cannot define ``__new__``."""

    kind: TokenKind
    relation: str
    tid: TupleId
    values: tuple
    old_values: tuple | None = None
    event: EventSpecifier | None = None


class Token(_TokenFields):
    """One change notification.

    ``values`` is the tuple value the token carries (the *new* half for Δ
    tokens); ``old_values`` is the value at the beginning of the
    transition, present only on Δ tokens.  ``event`` is the event
    specifier, or None for the plain ``−`` of case 3/4.
    """

    __slots__ = ()

    def __new__(cls, kind: TokenKind, relation: str, tid: TupleId,
                values: tuple, old_values: tuple | None = None,
                event: EventSpecifier | None = None):
        if kind is TokenKind.DELTA_PLUS or kind is TokenKind.DELTA_MINUS:
            if old_values is None:
                raise ValueError(f"{kind.value} token needs old_values")
        elif old_values is not None:
            raise ValueError(
                f"{kind.value} token must not carry old_values")
        return tuple.__new__(cls, (kind, relation, tid, values,
                                   old_values, event))

    def __str__(self) -> str:
        event = f" on {self.event}" if self.event else ""
        if self.kind.is_delta:
            return (f"{self.kind.value}({self.relation}:{self.tid.slot} "
                    f"new={self.values} old={self.old_values}){event}")
        return (f"{self.kind.value}({self.relation}:{self.tid.slot} "
                f"{self.values}){event}")


#: ``Token(...)`` without ``__new__``'s kind check
_new_token = partial(tuple.__new__, Token)
_PLUS, _MINUS = TokenKind.PLUS, TokenKind.MINUS


def plus(relation: str, tid: TupleId, values: tuple,
         event: EventSpecifier | None = None) -> Token:
    """A ``+`` token (its kind needs no ``old_values`` check)."""
    return _new_token((_PLUS, relation, tid, values, None, event))


def plus_many(relation: str, tids, values_of,
              event: EventSpecifier | None = None) -> list[Token]:
    """One ``+`` token per parallel (tid, values) pair."""
    return list(map(_new_token, zip(repeat(_PLUS), repeat(relation), tids,
                                    values_of, repeat(None), repeat(event))))


def minus(relation: str, tid: TupleId, values: tuple,
          event: EventSpecifier | None = None) -> Token:
    """A ``−`` token (its kind needs no ``old_values`` check)."""
    return _new_token((_MINUS, relation, tid, values, None, event))


def delta_plus(relation: str, tid: TupleId, new: tuple, old: tuple,
               event: EventSpecifier | None = None) -> Token:
    """A ``Δ+`` token carrying a (new, old) pair."""
    return Token(TokenKind.DELTA_PLUS, relation, tid, new, old, event)


def delta_minus(relation: str, tid: TupleId, new: tuple, old: tuple,
                event: EventSpecifier | None = None) -> Token:
    """A ``Δ−`` token retracting a (new, old) pair."""
    return Token(TokenKind.DELTA_MINUS, relation, tid, new, old, event)
