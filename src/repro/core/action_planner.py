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
from repro.lang.ast_nodes import deparse
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
