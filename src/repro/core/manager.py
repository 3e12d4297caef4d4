"""The rule manager: install / activate / deactivate lifecycle (paper §6).

The paper's performance section separates three rule costs, and the
manager keeps them separate operations:

* **installation** — "storing a persistent copy of the rule syntax tree
  in the rule catalog" (:meth:`RuleManager.install`);
* **activation** — compiling the rule, building its discrimination
  network structures, and priming them from current data (the paper
  runs queries for that; :meth:`DiscriminationNetwork.prime_rule` goes
  through the network) (:meth:`RuleManager.activate`);
* **token testing** — routing an update's tokens through the network
  (:meth:`RuleManager.process_token`).

The manager also owns the **cascade guard**: every firing of one
triggering transition is recorded in a trace, and exceeding
``max_rule_cascade`` firings raises :class:`~repro.errors.RuleLoopError`
naming the rules that kept re-firing — two mutually-triggering rules
become a diagnosable error instead of an unbounded loop.
"""

from __future__ import annotations

from collections import Counter

from repro.catalog.catalog import Catalog
from repro.core.action_planner import ActionPlanner
from repro.core.agenda import Agenda
from repro.core.network import DiscriminationNetwork
from repro.core.pnode import Match
from repro.core.rules import CompiledRule
from repro.core.tokens import Token
from repro.core.treat import TreatNetwork
from repro.errors import RuleError, RuleLoopError
from repro.lang import ast_nodes as ast
from repro.observe import EngineStats, NULL_STATS
from repro.planner.optimizer import Optimizer

#: how many trailing firings the cascade guard inspects when naming the
#: rules caught in a loop
_CASCADE_TAIL = 50


class InstalledRule:
    """Catalog record of an installed rule: its syntax tree plus its
    compiled form once activated."""

    def __init__(self, definition: ast.DefineRule):
        self.definition = definition
        self.compiled: CompiledRule | None = None

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def active(self) -> bool:
        return self.compiled is not None

    @property
    def referenced_relations(self):
        scope = getattr(self.definition, "condition_scope", {}) or {}
        return frozenset(scope.values())

    def __repr__(self) -> str:
        state = "active" if self.active else "installed"
        return f"InstalledRule({self.name!r}, {state})"


class RuleManager:
    """Owns the discrimination network, the agenda, and rule lifecycle."""

    def __init__(self, catalog: Catalog,
                 optimizer: Optimizer | None = None,
                 network_cls: type[DiscriminationNetwork] = TreatNetwork,
                 max_rule_cascade: int = 1000,
                 stats: EngineStats | None = None):
        self.catalog = catalog
        self.optimizer = optimizer or Optimizer(catalog)
        #: rule-action plans (each lives on its rule's ActionCommand)
        self.action_planner = ActionPlanner(catalog, self.optimizer)
        self.stats = stats or NULL_STATS
        self.agenda = Agenda()
        self.agenda.stats = self.stats
        self.network = network_cls(
            catalog, self.optimizer,
            on_match=self.agenda.notify,
            on_drain=self.agenda.drained,
            stats=self.stats)
        #: rule name -> its P-node (the agenda validates names with it)
        self._pnode_of = self.network._pnodes.__getitem__
        self.halted = False
        #: bound on firings per triggering transition (cascade guard)
        self.max_rule_cascade = max_rule_cascade
        #: rule names fired by the current cascade, in firing order
        self._cascade_trace: list[str] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def install(self, definition: ast.DefineRule) -> InstalledRule:
        """Store a (semantically analyzed) rule in the rule catalog."""
        record = InstalledRule(definition)
        self.catalog.store_rule(definition.name, record,
                                definition.ruleset)
        return record

    def activate(self, name: str) -> CompiledRule:
        """Compile the rule, build its network structures, and prime."""
        record = self._record(name)
        if record.active:
            raise RuleError(f"rule {name!r} is already active")
        compiled = CompiledRule(record.definition, self.catalog)
        self.network.add_rule(compiled, prime=True)
        record.compiled = compiled
        return compiled

    def deactivate(self, name: str) -> None:
        """Tear down the rule's network structures; keep it installed."""
        record = self._record(name)
        if not record.active:
            raise RuleError(f"rule {name!r} is not active")
        self.network.remove_rule(name)
        self.agenda.discard(name)
        record.compiled = None

    def remove(self, name: str) -> None:
        """Drop a rule entirely (deactivating it first if needed)."""
        record = self._record(name)
        if record.active:
            self.deactivate(name)
        self.catalog.drop_rule(name)

    def define(self, definition: ast.DefineRule,
               activate: bool = True) -> InstalledRule:
        """Install and (by default) immediately activate a rule."""
        record = self.install(definition)
        if activate:
            self.activate(definition.name)
        return record

    # ------------------------------------------------------------------
    # the match / conflict-resolution interface
    # ------------------------------------------------------------------

    def process_token(self, token: Token) -> None:
        self.network.process_token(token)

    def process_tokens(self, tokens) -> None:
        """Set-oriented routing of a whole Δ-set batch."""
        self.network.process_tokens(tokens)

    def select_rule(self) -> CompiledRule | None:
        """Conflict resolution: the next rule to fire, if any."""
        return self.agenda.select(self.network.rules, self._pnode_of)

    def consume_matches(self, rule: CompiledRule) -> list[Match]:
        """Take the rule's whole P-node for a set-oriented firing."""
        matches = self._pnode_of(rule.name).take_all()
        self.agenda.discard(rule.name)
        return matches

    def end_of_rule_processing(self) -> None:
        """Once a transition's recognize-act processing completes,
        flush the dynamic memories and P-nodes of the rules it touched
        (nothing to do for a transition that reached no dynamic rule)."""
        self.network.flush_dynamic()
        self.halted = False

    # ------------------------------------------------------------------
    # the cascade guard
    # ------------------------------------------------------------------

    def begin_cascade(self) -> None:
        """Reset the firing trace at the start of a triggering
        transition's recognize-act cycle."""
        self._cascade_trace.clear()

    def note_firing(self, rule: CompiledRule) -> None:
        """Record one firing of the current cascade; raises
        :class:`~repro.errors.RuleLoopError` — naming the rules caught
        in the loop — once the cascade exceeds ``max_rule_cascade``."""
        trace = self._cascade_trace
        trace.append(rule.name)
        stats = self.stats
        if stats.enabled:
            counters = stats.counters
            counters["rules.fired"] = counters.get("rules.fired", 0) + 1
            if len(trace) > counters.get("rules.max_cascade_depth", 0):
                counters["rules.max_cascade_depth"] = len(trace)
        if len(trace) > self.max_rule_cascade:
            cycling = ", ".join(self.cycling_rules())
            raise RuleLoopError(
                f"rule processing exceeded {self.max_rule_cascade} "
                f"firings per transition; cycling rule(s): {cycling}")

    def cycling_rules(self) -> list[str]:
        """The rules that kept re-firing, from the trace tail: any rule
        fired at least twice in the last {_CASCADE_TAIL} firings (every
        participant of a mutual-trigger loop repeats there), else every
        rule in the tail."""
        tail = self._cascade_trace[-_CASCADE_TAIL:]
        counts = Counter(tail)
        cycling = sorted(name for name, n in counts.items() if n >= 2)
        return cycling or sorted(set(tail))

    def halt(self) -> None:
        """An explicit ``halt`` executed in a rule action."""
        self.halted = True

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def installed_rules(self) -> list[InstalledRule]:
        return [r for r in self.catalog.rules().values()
                if isinstance(r, InstalledRule)]

    def active_rules(self) -> dict[str, CompiledRule]:
        return dict(self.network.rules)

    def rule(self, name: str) -> InstalledRule:
        return self._record(name)

    def _record(self, name: str) -> InstalledRule:
        record = self.catalog.rule(name)
        if not isinstance(record, InstalledRule):
            raise RuleError(f"{name!r} is not a rule record")
        return record
