"""The rule action planner: query modification and plan construction.

At rule definition time, :func:`modified_action_text` performs the
visible part of query modification (paper section 5.1): every reference
to a tuple variable shared between condition and action is rewritten to
range over the P-node (``V.attr → P.V.attr``) and ``replace``/``delete``
commands targeting a shared variable become ``replace'``/``delete'`` —
the primed forms that locate their targets by the tuple identifiers
stored in the P-node.  The rewritten text is what the rule catalog
displays, matching the paper's Figure 7.

At rule *fire* time, :class:`ActionPlanner` builds an execution plan for
each action command: commands referencing shared variables are planned
with a :class:`~repro.planner.plans.PnodeScan` seed binding all of them
at once, and "the rest of the query plan is constructed as usual by the
query optimizer" (section 5.2 / Figure 8).  The paper's Ariel **always
reoptimizes** — plans are rebuilt at every firing — because a
pre-planned action (section 5.3) can go stale.  Here a plan is kept per
(rule, command) with the schema version it was built at, rebuilt after
DDL and dropped when its rule leaves the network, which removes that
hazard; :attr:`ActionPlanner.cache_plans` switches the reuse off so the
ablation benchmark can still measure always-reoptimize.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.core.pnode import FrozenMatches, Match
from repro.core.rules import ActionCommand, CompiledRule
from repro.lang import ast_nodes as ast
from repro.lang.ast_nodes import deparse
from repro.planner.optimizer import Optimizer, PlannedCommand
from repro.planner.plans import PnodeScan


@dataclass
class PlannedAction:
    """One action command ready to execute, or a halt marker."""

    planned: PlannedCommand | None     # None for halt
    is_halt: bool = False


class _MatchesHolder:
    """A stable P-node facade whose matches are swapped per firing.

    Cached plans keep a PnodeScan over this holder; re-binding the
    consumed matches here lets the same plan object serve every firing.
    """

    def __init__(self, rule_name: str, variables: list[str]):
        self.rule_name = rule_name
        self.variables = list(variables)
        self._matches: list[Match] = []

    def set(self, matches: list[Match]) -> None:
        self._matches = matches

    def matches(self) -> list[Match]:
        return self._matches

    def __len__(self) -> int:
        return len(self._matches)


class ActionPlanner:
    """Builds execution plans for rule actions at fire time."""

    def __init__(self, catalog: Catalog, optimizer: Optimizer):
        self.catalog = catalog
        self.optimizer = optimizer
        #: reuse a plan until the schema version moves; False is the
        #: paper's always-reoptimize (kept for the §5.3 ablation)
        self.cache_plans = True
        self._holders: dict[str, _MatchesHolder] = {}
        #: (rule, command index) -> (plan, schema version it was built at)
        self._cache: dict[tuple[str, int], tuple[PlannedAction, int]] = {}
        #: diagnostics: how many times the optimizer ran for actions
        self.plans_built = 0

    def plan_firing(self, rule: CompiledRule,
                    matches: FrozenMatches) -> list[PlannedAction]:
        """Plans for every command of the rule action, bound to the
        matches consumed by this firing.

        Cached plans carry the schema version they were built against
        and are rebuilt lazily whenever the schema has changed since —
        the same invalidation mechanism the prepared-statement cache
        uses, so no caller needs to notify the planner of DDL.
        """
        holder = self._holders.get(rule.name)
        if holder is None:
            holder = _MatchesHolder(rule.name, rule.variables)
            self._holders[rule.name] = holder
        holder.set(matches.matches())
        version = self.catalog.schema_version
        out: list[PlannedAction] = []
        for i, entry in enumerate(rule.actions):
            key = (rule.name, i)
            if self.cache_plans:
                cached = self._cache.get(key)
                if cached is not None and cached[1] == version:
                    out.append(cached[0])
                    continue
            planned = self._plan_one(rule, entry, holder, len(matches))
            if self.cache_plans:
                self._cache[key] = (planned, version)
            out.append(planned)
        return out

    def invalidate(self, rule_name: str | None = None) -> None:
        """Drop cached plans explicitly.

        Version tracking already invalidates plans made stale by DDL;
        this is for a rule that left the network (removed or
        deactivated), whose plans and match holder would otherwise stay
        — and serve a redefinition under the same name.
        """
        if rule_name is None:
            self._cache.clear()
            self._holders.clear()
            return
        self._holders.pop(rule_name, None)
        for key in [k for k in self._cache if k[0] == rule_name]:
            del self._cache[key]

    def end_firing(self, rule_name: str) -> None:
        """Let go of the matches a finished firing consumed (a cached
        plan keeps its holder, which would otherwise keep them)."""
        holder = self._holders.get(rule_name)
        if holder is not None:
            holder.set([])

    # ------------------------------------------------------------------

    def _plan_one(self, rule: CompiledRule, entry: ActionCommand,
                  holder: _MatchesHolder, match_count: int
                  ) -> PlannedAction:
        if isinstance(entry.command, ast.Halt):
            return PlannedAction(None, is_halt=True)
        self.plans_built += 1
        if entry.shared_vars:
            seed = PnodeScan(holder)
            planned = self.optimizer.plan_command(
                entry.command, seed=seed,
                seed_rows=float(max(match_count, 1)))
        else:
            planned = self.optimizer.plan_command(entry.command)
        return PlannedAction(planned)


# ----------------------------------------------------------------------
# query modification display (paper Figures 6 and 7)
# ----------------------------------------------------------------------

def modified_action_text(rule: CompiledRule) -> str:
    """The rule action after query modification, as the paper displays it:
    shared variable references become ``P.var.attr`` and commands whose
    target is shared become ``replace'`` / ``delete'``."""
    lines = [_modified_command(rule, entry) for entry in rule.actions]
    if len(lines) == 1:
        return lines[0]
    inner = "\n".join("    " + line for line in lines)
    return f"do\n{inner}\nend"


def _modified_command(rule: CompiledRule, entry: ActionCommand) -> str:
    command = entry.command
    shared = entry.shared_vars
    if isinstance(command, ast.Halt):
        return "halt"
    if isinstance(command, ast.Append):
        targets = _render_targets(command.targets, shared)
        text = f"append to {command.relation} ({targets})"
        return text + _render_tail(command, shared)
    if isinstance(command, ast.Delete):
        name = "delete'" if entry.targets_pnode else "delete"
        target = _qualify_var(command.target_var, shared)
        return f"{name} {target}" + _render_tail(command, shared)
    if isinstance(command, ast.Replace):
        name = "replace'" if entry.targets_pnode else "replace"
        target = _qualify_var(command.target_var, shared)
        assignments = _render_targets(command.assignments, shared)
        return (f"{name} {target} ({assignments})"
                + _render_tail(command, shared))
    if isinstance(command, ast.Retrieve):
        targets = _render_targets(command.targets, shared)
        into = f" into {command.into}" if command.into else ""
        return f"retrieve{into} ({targets})" + _render_tail(command,
                                                            shared)
    return deparse(command)


def _qualify_var(var: str, shared: frozenset[str]) -> str:
    return f"P.{var}" if var in shared else var


def _render_targets(columns, shared: frozenset[str]) -> str:
    parts = []
    for col in columns:
        text = _render_expr(col.expr, shared)
        parts.append(f"{col.name} = {text}" if col.name else text)
    return ", ".join(parts)


def _render_tail(command, shared: frozenset[str]) -> str:
    text = ""
    if command.from_items:
        items = ", ".join(f"{f.var} in {f.relation}"
                          for f in command.from_items)
        text += f" from {items}"
    if command.where is not None:
        text += f" where {_render_expr(command.where, shared)}"
    return text


def _render_expr(expr: ast.Expr, shared: frozenset[str]) -> str:
    if isinstance(expr, ast.AttrRef):
        prefix = "previous " if expr.previous else ""
        var = _qualify_var(expr.var, shared)
        return f"{prefix}{var}.{expr.attr}"
    if isinstance(expr, ast.AllRef):
        return f"{_qualify_var(expr.var, shared)}.all"
    if isinstance(expr, ast.BinOp):
        left = _render_operand(expr.left, expr.op, shared, is_right=False)
        right = _render_operand(expr.right, expr.op, shared,
                                is_right=True)
        return f"{left} {expr.op} {right}"
    if isinstance(expr, ast.UnaryOp):
        operand = _render_expr(expr.operand, shared)
        if isinstance(expr.operand, ast.BinOp):
            operand = f"({operand})"
        return (f"not {operand}" if expr.op == "not"
                else f"{expr.op}{operand}")
    return deparse(expr)


_PRECEDENCE = {
    "or": 1, "and": 2,
    "=": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4, "*": 5, "/": 5,
}


def _render_operand(child: ast.Expr, parent_op: str,
                    shared: frozenset[str], is_right: bool) -> str:
    text = _render_expr(child, shared)
    if not isinstance(child, ast.BinOp):
        return text
    child_prec = _PRECEDENCE[child.op]
    parent_prec = _PRECEDENCE[parent_op]
    if child_prec < parent_prec or (child_prec == parent_prec
                                    and is_right):
        return f"({text})"
    return text
