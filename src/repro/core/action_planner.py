"""The rule action planner: query modification and plan construction.

At rule definition time, :func:`modified_action_text` performs the
visible part of query modification (paper section 5.1): every reference
to a tuple variable shared between condition and action is rewritten to
range over the P-node (``V.attr → P.V.attr``) and ``replace``/``delete``
commands targeting a shared variable become ``replace'``/``delete'`` —
the primed forms that locate their targets by the tuple identifiers
stored in the P-node.  The rewritten text is what the rule catalog
displays, matching the paper's Figure 7: it is
:func:`~repro.lang.ast_nodes.deparse` of each command, with only those
two rewrites overridden.

At rule *fire* time, :class:`ActionPlanner` builds an execution plan for
each action command: commands referencing shared variables are planned
with a :class:`~repro.planner.plans.PnodeScan` seed binding all of them
at once, and "the rest of the query plan is constructed as usual by the
query optimizer" (section 5.2 / Figure 8).  An action is thus a prepared
statement whose one parameter is the set of matches its firing consumed:
the firing runs the plan with those matches under
:data:`~repro.planner.plans.PNODE` in the parameter vector.  The paper's
Ariel **always reoptimizes** — plans are rebuilt at every firing —
because a pre-planned action (section 5.3) can go stale.  Here each plan
lives on its :class:`~repro.core.rules.ActionCommand` with the schema
version it was built at: DDL makes it rebuild, and deactivating the rule
drops the compiled rule and its plans with it.
"""

from __future__ import annotations

from repro.catalog.catalog import Catalog
from repro.core.pnode import Match
from repro.core.rules import ActionCommand, CompiledRule
from repro.lang import ast_nodes as ast
from repro.lang.ast_nodes import Deparser
from repro.planner.optimizer import Optimizer, PlannedCommand
from repro.planner.plans import PnodeScan


class ActionPlanner:
    """Builds execution plans for rule actions at fire time."""

    def __init__(self, catalog: Catalog, optimizer: Optimizer):
        self.catalog = catalog
        self.optimizer = optimizer
        #: diagnostics: how many times the optimizer ran for actions
        self.plans_built = 0

    def plan_firing(self, rule: CompiledRule, matches: list[Match]
                    ) -> tuple[PlannedCommand | None, ...]:
        """The plan of every command of the rule action (None for
        ``halt``), built on first use and again whenever the schema
        version has moved since — the prepared statements' invalidation
        rule.  ``matches`` sizes the P-node seed of a new plan."""
        version = self.catalog.schema_version
        cached = rule.firing_plans
        if cached is not None and cached[0] == version:
            return cached[1]
        out: list[PlannedCommand | None] = []
        for entry in rule.actions:
            if isinstance(entry.command, ast.Halt):
                out.append(None)
                continue
            if entry.schema_version != version:
                entry.planned = self._plan_one(rule, entry, len(matches))
                entry.schema_version = version
            out.append(entry.planned)
        rule.firing_plans = (version, tuple(out))
        return rule.firing_plans[1]

    def _plan_one(self, rule: CompiledRule, entry: ActionCommand,
                  match_count: int) -> PlannedCommand:
        self.plans_built += 1
        if entry.shared_vars:
            return self.optimizer.plan_command(
                entry.command, seed=PnodeScan(rule.name, rule.variables),
                seed_rows=float(max(match_count, 1)))
        return self.optimizer.plan_command(entry.command)


# ----------------------------------------------------------------------
# query modification display (paper Figures 6 and 7)
# ----------------------------------------------------------------------

def modified_action_text(rule: CompiledRule) -> str:
    """The rule action after query modification, as the paper displays it:
    shared variable references become ``P.var.attr`` and commands whose
    target is shared become ``replace'`` / ``delete'``."""
    lines = [_ModifiedDeparser(entry).render(entry.command)
             for entry in rule.actions]
    if len(lines) == 1:
        return lines[0]
    inner = "\n".join("    " + line for line in lines)
    return f"do\n{inner}\nend"


class _ModifiedDeparser(Deparser):
    """:func:`~repro.lang.ast_nodes.deparse` of one action command, with
    its shared variables ranging over the P-node."""

    def __init__(self, entry: ActionCommand):
        self.shared = entry.shared_vars
        self.targets_pnode = entry.targets_pnode

    def _render_AttrRef(self, node: ast.AttrRef) -> str:
        prefix = "previous " if node.previous else ""
        return f"{prefix}{self._qualify(node.var)}.{node.attr}"

    def _render_AllRef(self, node: ast.AllRef) -> str:
        return f"{self._qualify(node.var)}.all"

    def _render_Delete(self, node: ast.Delete) -> str:
        return self._primed(super()._render_Delete(node))

    def _render_Replace(self, node: ast.Replace) -> str:
        return self._primed(super()._render_Replace(node))

    def _qualify(self, var: str) -> str:
        return f"P.{var}" if var in self.shared else var

    def _primed(self, text: str) -> str:
        """``delete emp …`` becomes ``delete' P.emp …`` when the target is
        a condition variable."""
        if not self.targets_pnode:
            return text
        verb, _, rest = text.partition(" ")
        return f"{verb}' P.{rest}"
