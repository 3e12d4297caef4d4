"""α-memory nodes and the token × memory action table (paper Figure 5).

The paper identifies seven α-memory kinds — stored, virtual, dynamic-on,
dynamic-trans, simple, simple-trans, simple-on — which factor cleanly into
three orthogonal axes captured here:

* **storage**: stored (materialised entries), *virtual* (predicate only,
  answering joins by filtered base-relation scans — the A-TREAT idea), or
  *simple* (single-variable rule: matches pass straight to the P-node);
* **event gate**: the variable is bound by the rule's ``on`` clause and
  only tokens carrying the matching event specifier bind it;
* **transition gate**: the condition uses ``previous var.…`` and only
  Δ tokens bind it.

:func:`verdict` is the action table: given a variable's gating and a
token kind, it names the memory operation every such token gets
(insert an entry, delete by tuple id, or nothing), with the gate on the
token's event specifier an insertion still has to pass.  The network
compiles each memory's four verdicts into its token routers once, when
the memory is registered; :func:`dispatch` applies the same table to a
single token.  One clarification to Figure 5, noted in DESIGN.md: at an
``on delete`` memory, a ``−`` token whose specifier is ``delete``
*asserts* the event (inserts the tuple) so the rule can bind the deleted
data; the figure's "delete t" row applies to the other specifiers,
which retract prior assertions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

from repro.core.rules import VariableSpec
from repro.core.tokens import EventSpecifier, Token, TokenKind
from repro.lang.ast_nodes import EventKind, EventSpec
from repro.observe import NULL_STATS
from repro.storage.tuples import TupleId


class MemoryEntry(NamedTuple):
    """One tuple (or transition pair) held by an α-memory."""

    tid: TupleId
    values: tuple
    old_values: tuple | None = None


@dataclass(frozen=True)
class MemoryOp:
    """The action the network must take for a token at one memory."""

    op: str                       # 'insert' | 'delete'
    entry: MemoryEntry | None = None
    tid: TupleId | None = None


class Insert(NamedTuple):
    """An insertion verdict: the entry keeps the token's ``old_values``
    (a transition pair) or not, and ``gate`` — when not None — decides
    from the token's event specifier whether the insertion happens."""

    keeps_old: bool
    gate: Callable[[EventSpecifier | None], bool] | None = None


#: the deletion verdict: drop the entry with the token's tuple id
DELETE = "delete"


def verdict(spec: VariableSpec, kind: TokenKind) -> Insert | str | None:
    """The Figure-5 action table, parameterised by the variable's gates:
    what every token of ``kind`` does at the memory — an :class:`Insert`,
    :data:`DELETE`, or None for the "don't care" entries.  The caller
    verifies an insertion's values against the memory's selection
    predicate."""
    if spec.is_transition:
        if kind is TokenKind.DELTA_PLUS:
            return Insert(True, _replace_gate(spec.event))
        return DELETE if kind is TokenKind.DELTA_MINUS else None
    event = spec.event
    if event is None:                       # a pattern memory
        if kind is TokenKind.PLUS or kind is TokenKind.DELTA_PLUS:
            # Δ+ is "insert newt": project the new half of the pair
            return _INSERT_NEW
        return DELETE
    if event.kind is EventKind.APPEND:
        if kind is TokenKind.PLUS:
            return _INSERT_APPENDED
        return DELETE if kind is TokenKind.MINUS else None
    if event.kind is EventKind.DELETE:
        # event assertion: bind the deleted tuple to the rule
        return _INSERT_DELETED if kind is TokenKind.MINUS else None
    # on replace(target-list)
    if kind is TokenKind.DELTA_PLUS:
        return Insert(True, _replace_gate(event))
    if kind is TokenKind.DELTA_MINUS or kind is TokenKind.MINUS:
        return DELETE
    return None


def dispatch(spec: VariableSpec, token: Token) -> MemoryOp | None:
    """The :func:`verdict` of one token, as the memory operation it
    performs (None when the table or the insertion's gate says no-op)."""
    action = verdict(spec, token.kind)
    if action is None:
        return None
    if action is DELETE:
        return MemoryOp("delete", tid=token.tid)
    if action.gate is not None and not action.gate(token.event):
        return None
    return MemoryOp("insert", MemoryEntry(
        token.tid, token.values,
        token.old_values if action.keeps_old else None))


def _is_append(event: EventSpecifier | None) -> bool:
    return event is not None and event.kind is EventKind.APPEND


def _is_delete(event: EventSpecifier | None) -> bool:
    return event is not None and event.kind is EventKind.DELETE


_INSERT_NEW = Insert(False)
_INSERT_APPENDED = Insert(False, _is_append)
_INSERT_DELETED = Insert(False, _is_delete)


def _replace_gate(gate: EventSpec | None):
    """The event test of a Δ+ at an on-replace or transition memory
    (None: a pure transition condition accepts any Δ+).  A gate with an
    attribute list only fires when the update touched at least one
    listed attribute (paper section 4.3)."""
    if gate is None:
        return None
    listed = frozenset(gate.attributes)

    def matches(event: EventSpecifier | None) -> bool:
        if event is None or event.kind is not EventKind.REPLACE:
            return False
        return not listed or not listed.isdisjoint(event.attributes)
    return matches


class AlphaMemory:
    """A materialised α-memory: entries keyed by tuple id.

    Covers the stored, dynamic-on, dynamic-trans and simple kinds; the
    virtual kind is :class:`VirtualAlphaMemory`.  For simple memories the
    network routes entries straight to the P-node and this object stays
    empty ("simple memories never contain a persistent collection",
    paper §4.3.3).

    ``join_positions`` are the attribute positions the rule equi-joins
    this variable on: each gets a hash join-index, built empty here and
    maintained by every insert/remove/flush, so every equality probe of
    the join step is a bucket lookup.  Like a storage index, a
    join-index holds no null or NaN key: neither satisfies an equi-join
    conjunct, so probing one finds nothing.
    """

    is_virtual = False

    #: engine counter registry (``alpha.*``); the owning network replaces
    #: the shared disabled default with the Database's registry
    stats = NULL_STATS

    def __init__(self, rule_name: str, spec: VariableSpec,
                 join_positions: Iterable[int] = ()):
        self.rule_name = rule_name
        self.spec = spec
        #: back-references set by the owning network at add_rule time so
        #: the token hot path skips the by-name lookups
        self.rule = None
        self.pnode = None
        self._entries: dict[TupleId, MemoryEntry] = {}
        # join indexes: attribute position -> {value -> {tid -> entry}}
        # (inner dicts keep insertion order, matching entries() iteration
        # semantics for determinism)
        self._join_indexes: dict[int, dict[object,
                                           dict[TupleId, MemoryEntry]]] = {
            position: {} for position in join_positions}
        #: the same, as (position, buckets) pairs for the update loops
        self._indexed = tuple(self._join_indexes.items())

    @property
    def kind_name(self) -> str:
        """The paper's name for this memory's kind."""
        prefix = "simple" if self.spec.is_simple else (
            "dynamic" if self.spec.is_dynamic else "stored")
        if self.spec.is_transition:
            return f"{prefix}-trans-α" if prefix != "stored" \
                else "dynamic-trans-α"
        if self.spec.event is not None:
            return f"{prefix}-on-α" if prefix != "stored" \
                else "dynamic-on-α"
        if self.spec.is_new:
            return f"{prefix}-new-α" if prefix != "stored" \
                else "dynamic-new-α"
        return f"{prefix}-α"

    def insert(self, entry: MemoryEntry) -> bool:
        """Add an entry; returns False if the tid was already present
        with the same values (idempotent re-insert)."""
        tid = entry.tid
        entries = self._entries
        existing = entries.get(tid)
        if existing == entry:
            return False
        stats = self.stats
        if stats.enabled:
            counters = stats.counters
            counters["alpha.inserts"] = \
                counters.get("alpha.inserts", 0) + 1
        entries[tid] = entry
        values = entry.values
        for position, buckets in self._indexed:
            if existing is not None:
                _unindex(buckets, existing.values[position], tid)
            value = values[position]
            if value is None or value != value:
                continue
            bucket = buckets.get(value)
            if bucket is None:
                buckets[value] = {tid: entry}
            else:
                bucket[tid] = entry
        return True

    def remove(self, tid: TupleId) -> MemoryEntry | None:
        """Discard the entry for a tuple id, returning it if present."""
        entry = self._entries.pop(tid, None)
        if entry is not None:
            stats = self.stats
            if stats.enabled:
                counters = stats.counters
                counters["alpha.deletes"] = \
                    counters.get("alpha.deletes", 0) + 1
            values = entry.values
            for position, buckets in self._indexed:
                _unindex(buckets, values[position], tid)
        return entry

    def get(self, tid: TupleId) -> MemoryEntry | None:
        return self._entries.get(tid)

    def entries(self) -> Iterator[MemoryEntry]:
        return iter(list(self._entries.values()))

    def flush(self) -> None:
        """Empty the memory (dynamic memories, after each transition's
        rule processing)."""
        self._entries.clear()
        for buckets in self._join_indexes.values():
            buckets.clear()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # join indexes
    # ------------------------------------------------------------------

    def join_index_positions(self) -> list[int]:
        """The attribute positions carrying a join index."""
        return list(self._join_indexes)

    def join_buckets(self, position: int) -> dict:
        """The join index of ``position`` itself, ``{value: {tid:
        entry}}``, for a compiled seek step that reads its bucket with
        no call (it counts ``alpha.join_probes`` itself)."""
        return self._join_indexes[position]

    def sizer(self) -> Callable[[], int]:
        """A callable answering ``len(self)`` (the entry dict's own)."""
        return self._entries.__len__

    def join_probe(self, position: int, value) -> Iterator[MemoryEntry]:
        """Entries whose attribute at ``position`` equals ``value`` —
        the O(1) bucket lookup replacing the full-memory scan of the
        TREAT/Rete join step.  ``position`` must be one of the memory's
        join positions."""
        stats = self.stats
        if stats.enabled:
            counters = stats.counters
            counters["alpha.join_probes"] = \
                counters.get("alpha.join_probes", 0) + 1
        bucket = self._join_indexes[position].get(value)
        if not bucket:
            return iter(())
        return iter(list(bucket.values()))

    def __repr__(self) -> str:
        return (f"AlphaMemory({self.rule_name}/{self.spec.var}, "
                f"{self.kind_name}, {len(self)} entries)")


def _unindex(buckets: dict, value, tid: TupleId) -> None:
    """Drop ``tid`` from the join-index bucket of ``value``, and the
    bucket once it drains; a null or NaN value has none."""
    bucket = buckets.get(value)
    if bucket is not None:
        bucket.pop(tid, None)
        if not bucket:
            del buckets[value]


class VirtualAlphaMemory:
    """A virtual α-memory: the A-TREAT space optimisation (paper §4.2).

    Holds only the selection predicate; its conceptual contents are
    derived on demand by scanning the base relation with the predicate as
    a filter, optionally sharpened with an equality constraint substituted
    from the token being joined ("the predicate can be modified by
    substituting constants from a token … to make the predicate more
    selective").  An index on the constrained attribute is used when one
    exists.
    """

    is_virtual = True

    #: engine counter registry (``virtual.*``); the owning network
    #: replaces the shared disabled default with the Database's registry
    stats = NULL_STATS

    def __init__(self, rule_name: str, spec: VariableSpec):
        self.rule_name = rule_name
        self.spec = spec
        #: back-references set by the owning network at add_rule time so
        #: the token hot path skips the by-name lookups
        self.rule = None
        self.pnode = None
        #: diagnostics: how many base-relation scans this memory answered
        self.scan_count = 0

    @property
    def kind_name(self) -> str:
        return "virtual-α"

    def candidates(self, catalog, equality: tuple[int, object] | None = None
                   ) -> list[MemoryEntry]:
        """The memory's conceptual contents, derived from the relation.

        ``equality`` is an optional ``(position, value)`` constraint from
        the join conjunct being evaluated; the access path (index probe
        on that attribute, index on the predicate's anchor attribute,
        or one filtered heap pass) is :meth:`VariableSpec.select`'s.
        """
        self.scan_count += 1
        stats = self.stats
        if stats.enabled:
            counters = stats.counters
            counters["virtual.scans"] = \
                counters.get("virtual.scans", 0) + 1
        relation = catalog.relation(self.spec.relation)
        return [MemoryEntry(tid, values) for tid, values
                in self.spec.select(relation, equality)]

    def __len__(self) -> int:
        return 0        # stores nothing: that is the point

    def flush(self) -> None:
        return None

    def __repr__(self) -> str:
        return f"VirtualAlphaMemory({self.rule_name}/{self.spec.var})"
