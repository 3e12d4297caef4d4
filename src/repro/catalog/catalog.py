"""The system catalog: relations, indexes, rules and rulesets.

Mirrors the paper's architecture (Figure 2): the *rule catalog* maintains
the definitions of rules; here it is one facet of a single system catalog
that also tracks base relations and secondary indexes.  Rule objects are
stored opaquely (the catalog does not depend on the rule subsystem) —
``repro.core.manager`` is the module that interprets them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.catalog.schema import Schema
from repro.errors import CatalogError
from repro.storage.heap import HeapRelation
from repro.storage.indexes import Index, make_index

#: Ruleset used when ``define rule`` has no ``in ruleset`` clause (paper §2.1).
DEFAULT_RULESET = "default_rules"


@dataclass(frozen=True)
class IndexInfo:
    """Catalog record for a secondary index."""

    name: str
    relation: str
    attribute: str
    kind: str


@dataclass
class RulesetInfo:
    """A named grouping of rules ("simply a means of grouping rules together
    for programmer convenience", paper §2.1)."""

    name: str
    rule_names: set[str] = field(default_factory=set)


class Catalog:
    """Registry of all persistent schema objects in one database."""

    def __init__(self):
        self._relations: dict[str, HeapRelation] = {}
        self._indexes: dict[str, IndexInfo] = {}
        self._rules: dict[str, object] = {}
        self._rulesets: dict[str, RulesetInfo] = {
            DEFAULT_RULESET: RulesetInfo(DEFAULT_RULESET)}
        #: monotonic version of relations and indexes (advanced only by
        #: :meth:`bump_version`): all that a user command's plan, a
        #: rule-action plan and a join order depend on.  Cached plans
        #: record the version they were built against and are
        #: invalidated on mismatch.  Rule lifecycle does not move it —
        #: a rule leaving the network drops its own cached plans.
        self.schema_version = 0

    def bump_version(self) -> None:
        """Advance the schema version."""
        self.schema_version += 1

    # ------------------------------------------------------------------
    # relations
    # ------------------------------------------------------------------

    def create_relation(self, name: str, schema: Schema) -> HeapRelation:
        """Create and register a new base relation."""
        if name in self._relations:
            raise CatalogError(f"relation {name!r} already exists")
        relation = HeapRelation(name, schema)
        self._relations[name] = relation
        self.bump_version()
        return relation

    def destroy_relation(self, name: str) -> None:
        """Drop a relation and every index defined on it."""
        if name not in self._relations:
            raise CatalogError(f"no relation named {name!r}")
        dependent_rules = [rule_name for rule_name, rule in self._rules.items()
                           if name in getattr(rule, "referenced_relations",
                                              ())]
        if dependent_rules:
            raise CatalogError(
                f"cannot destroy {name!r}: referenced by rule(s) "
                f"{sorted(dependent_rules)}")
        del self._relations[name]
        for index_name in [n for n, info in self._indexes.items()
                           if info.relation == name]:
            del self._indexes[index_name]
        self.bump_version()

    def relation(self, name: str) -> HeapRelation:
        """Look up a relation by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise CatalogError(f"no relation named {name!r}") from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def relations(self) -> Iterator[HeapRelation]:
        return iter(self._relations.values())

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------

    def create_index(self, name: str, relation_name: str, attribute: str,
                     kind: str = "btree") -> Index:
        """Create a secondary index and load it with current data."""
        if name in self._indexes:
            raise CatalogError(f"index {name!r} already exists")
        relation = self.relation(relation_name)
        position = relation.schema.position(attribute)
        index = make_index(kind, name, relation_name, attribute, position)
        relation.attach_index(index)
        self._indexes[name] = IndexInfo(name, relation_name, attribute,
                                        index.kind)
        self.bump_version()
        return index

    def destroy_index(self, name: str) -> None:
        """Drop a secondary index."""
        try:
            info = self._indexes.pop(name)
        except KeyError:
            raise CatalogError(f"no index named {name!r}") from None
        self.relation(info.relation).detach_index(name)
        self.bump_version()

    def index_info(self, name: str) -> IndexInfo:
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError(f"no index named {name!r}") from None

    def indexes(self) -> Iterator[IndexInfo]:
        return iter(self._indexes.values())

    # ------------------------------------------------------------------
    # rules and rulesets
    # ------------------------------------------------------------------

    def store_rule(self, name: str, rule: object,
                   ruleset: str | None = None) -> None:
        """Record a rule definition in the rule catalog.

        ``rule`` is opaque to the catalog.  The rule is added to ``ruleset``
        (created on demand), defaulting to :data:`DEFAULT_RULESET`.
        """
        if name in self._rules:
            raise CatalogError(f"rule {name!r} already exists")
        ruleset = ruleset or DEFAULT_RULESET
        self._rules[name] = rule
        self._rulesets.setdefault(
            ruleset, RulesetInfo(ruleset)).rule_names.add(name)

    def drop_rule(self, name: str) -> object:
        """Remove a rule from the catalog and its ruleset; returns it."""
        try:
            rule = self._rules.pop(name)
        except KeyError:
            raise CatalogError(f"no rule named {name!r}") from None
        for ruleset in self._rulesets.values():
            ruleset.rule_names.discard(name)
        return rule

    def rule(self, name: str) -> object:
        try:
            return self._rules[name]
        except KeyError:
            raise CatalogError(f"no rule named {name!r}") from None

    def has_rule(self, name: str) -> bool:
        return name in self._rules

    def rules(self) -> dict[str, object]:
        """Name -> rule mapping (a copy; mutation-safe)."""
        return dict(self._rules)

    def ruleset(self, name: str) -> RulesetInfo:
        try:
            return self._rulesets[name]
        except KeyError:
            raise CatalogError(f"no ruleset named {name!r}") from None

    def rulesets(self) -> Iterator[RulesetInfo]:
        return iter(self._rulesets.values())
