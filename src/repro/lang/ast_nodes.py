"""Abstract syntax for the POSTQUEL subset and ARL.

Every node is a plain dataclass; semantic analysis decorates some of them
in place (attribute positions, inferred types) but the shapes here are
what the parser produces and what ``deparse`` renders back to text.  Rule
definitions are stored in the rule catalog as these syntax trees, exactly
as in the paper ("its definition, represented as a syntax tree, is placed
in the rule catalog", section 5.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------

@dataclass
class Expr:
    """Base class for expression nodes."""


@dataclass
class Const(Expr):
    """A literal: number, string or boolean."""

    value: object


@dataclass
class AttrRef(Expr):
    """``var.attr`` or ``previous var.attr``.

    ``previous`` refers to "the value that a tuple attribute had at the
    beginning of a transition" (paper section 2.3).  ``position`` is
    filled in by semantic analysis.
    """

    var: str
    attr: str
    previous: bool = False
    position: int | None = None

    def key(self) -> tuple[str, str, bool]:
        return (self.var, self.attr, self.previous)


@dataclass
class AllRef(Expr):
    """``var.all`` — the whole tuple, usable in target lists."""

    var: str


@dataclass
class Param(Expr):
    """``$name`` or ``$1`` — a prepared-statement parameter placeholder.

    Positional placeholders are named by their ordinal (``$1`` → name
    ``"1"``).  The value is supplied per execution through the parameter
    vector of :class:`~repro.lang.expr.Bindings`; ``type`` is inferred by
    semantic analysis from the attribute context the placeholder appears
    in (None when the context does not pin a type).
    """

    name: str
    type: object | None = None

    def key(self) -> str:
        return self.name


@dataclass
class BinOp(Expr):
    """Binary operator: comparison, arithmetic, or and/or."""

    op: str
    left: Expr
    right: Expr


@dataclass
class UnaryOp(Expr):
    """Unary operator: ``-`` or ``not``."""

    op: str
    operand: Expr


@dataclass
class NewCall(Expr):
    """``new(var)`` — "a selection condition which is always true"
    (paper section 2.1), awakening the rule on any new tuple value."""

    var: str


AGGREGATE_FUNCS = ("count", "sum", "avg", "min", "max")


@dataclass
class AggregateCall(Expr):
    """``count|sum|avg|min|max(expr)`` in a retrieve target list.

    POSTQUEL-style implicit grouping: when any target contains an
    aggregate, the aggregate-free targets become the group keys.
    ``count(var.all)`` counts rows; other aggregates skip nulls.
    """

    func: str
    argument: Expr


COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")
ARITHMETIC_OPS = ("+", "-", "*", "/")
LOGICAL_OPS = ("and", "or")


# ----------------------------------------------------------------------
# command building blocks
# ----------------------------------------------------------------------

@dataclass
class FromItem:
    """``var in relation``: binds a tuple variable to a relation."""

    var: str
    relation: str


@dataclass
class ResultColumn:
    """One entry of a retrieve/append target list.

    ``name`` may be None (positional, or derived from the expression);
    ``expr`` may be an :class:`AllRef` to expand a whole tuple.
    """

    name: Optional[str]
    expr: Expr


@dataclass
class ColumnDef:
    """``name = typename`` in a create command."""

    name: str
    type_name: str


class EventKind(enum.Enum):
    """The three triggering events of the ``on`` clause (paper §2.1)."""

    APPEND = "append"
    DELETE = "delete"
    REPLACE = "replace"


@dataclass
class EventSpec:
    """``on append|delete|replace relation [ (attrs) ]``.

    ``attributes`` narrows a replace event to updates touching any of the
    listed attributes; empty means any attribute.
    """

    kind: EventKind
    relation: str
    attributes: tuple[str, ...] = ()


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

@dataclass
class Command:
    """Base class for command nodes."""


@dataclass
class CreateRelation(Command):
    """``create rel (a = int4, b = text, ...)``"""

    name: str
    columns: list[ColumnDef]


@dataclass
class DestroyRelation(Command):
    """``destroy rel``"""

    name: str


@dataclass
class DefineIndex(Command):
    """``define index name on rel (attr) [using btree|hash]``"""

    name: str
    relation: str
    attribute: str
    kind: str = "btree"


@dataclass
class RemoveIndex(Command):
    """``remove index name``"""

    name: str


@dataclass
class Append(Command):
    """``append [to] rel (targets) [from ...] [where ...]``

    Targets are either all named (``name = expr``) or all positional.
    With a where clause (or expressions referencing other variables), the
    command appends one tuple per qualifying binding.
    """

    relation: str
    targets: list[ResultColumn]
    from_items: list[FromItem] = field(default_factory=list)
    where: Optional[Expr] = None


@dataclass
class Delete(Command):
    """``delete var [from ...] [where ...]``"""

    target_var: str
    from_items: list[FromItem] = field(default_factory=list)
    where: Optional[Expr] = None
    #: set by query modification: locate tuples via P-node TIDs (delete')
    via_pnode: bool = False


@dataclass
class Replace(Command):
    """``replace var (assignments) [from ...] [where ...]``"""

    target_var: str
    assignments: list[ResultColumn]
    from_items: list[FromItem] = field(default_factory=list)
    where: Optional[Expr] = None
    #: set by query modification: locate tuples via P-node TIDs (replace')
    via_pnode: bool = False


@dataclass
class SortKey:
    """One ``sort by`` key: an expression and a direction."""

    expr: Expr
    ascending: bool = True


@dataclass
class Retrieve(Command):
    """``retrieve [unique] [into rel] (targets) [from ...] [where ...]
    [sort by expr [asc|desc], ...]``"""

    targets: list[ResultColumn]
    into: Optional[str] = None
    from_items: list[FromItem] = field(default_factory=list)
    where: Optional[Expr] = None
    sort_keys: list[SortKey] = field(default_factory=list)
    unique: bool = False


@dataclass
class Block(Command):
    """``do cmd1 cmd2 ... end`` — a transition block.

    "Blocks may not be nested.  The programmer designing a database
    transaction thus has control over where transitions occur."
    (paper section 2.2.1)
    """

    commands: list[Command]


@dataclass
class DefineRule(Command):
    """``define rule name [in ruleset] [priority p] [on event]
    [if condition [from ...]] then action`` (paper section 2.1)."""

    name: str
    action: Command
    ruleset: Optional[str] = None
    priority: float = 0.0
    event: Optional[EventSpec] = None
    condition: Optional[Expr] = None
    from_items: list[FromItem] = field(default_factory=list)


@dataclass
class RemoveRule(Command):
    """``remove rule name``"""

    name: str


@dataclass
class ActivateRule(Command):
    """``activate rule name`` — build the rule's discrimination network
    and prime its memories (paper section 6)."""

    name: str


@dataclass
class DeactivateRule(Command):
    """``deactivate rule name`` — tear the rule's network down."""

    name: str


@dataclass
class Halt(Command):
    """``halt`` — stop the recognize-act cycle (paper Figure 1)."""


@dataclass
class Explain(Command):
    """``explain [analyze] <command>`` — show (and with ``analyze``,
    execute and profile) a data command's physical plan."""

    command: Command
    analyze: bool = False


CommandNode = Union[
    CreateRelation, DestroyRelation, DefineIndex, RemoveIndex,
    Append, Delete, Replace, Retrieve, Block,
    DefineRule, RemoveRule, ActivateRule, DeactivateRule, Halt,
    Explain,
]


# ----------------------------------------------------------------------
# parameter collection
# ----------------------------------------------------------------------

def collect_params(node) -> list[Param]:
    """Every :class:`Param` node of a command (or expression), in
    first-appearance order.  The de-duplicated name sequence is a
    statement's *parameter signature*."""
    out: list[Param] = []
    _walk_params(node, out)
    return out


def _walk_params(node, out: list[Param]) -> None:
    if node is None:
        return
    if isinstance(node, Param):
        out.append(node)
    elif isinstance(node, BinOp):
        _walk_params(node.left, out)
        _walk_params(node.right, out)
    elif isinstance(node, UnaryOp):
        _walk_params(node.operand, out)
    elif isinstance(node, AggregateCall):
        _walk_params(node.argument, out)
    elif isinstance(node, ResultColumn):
        _walk_params(node.expr, out)
    elif isinstance(node, SortKey):
        _walk_params(node.expr, out)
    elif isinstance(node, Append):
        for col in node.targets:
            _walk_params(col, out)
        _walk_params(node.where, out)
    elif isinstance(node, Delete):
        _walk_params(node.where, out)
    elif isinstance(node, Replace):
        for col in node.assignments:
            _walk_params(col, out)
        _walk_params(node.where, out)
    elif isinstance(node, Retrieve):
        for col in node.targets:
            _walk_params(col, out)
        _walk_params(node.where, out)
        for key in node.sort_keys:
            _walk_params(key, out)
    elif isinstance(node, Block):
        for command in node.commands:
            _walk_params(command, out)
    elif isinstance(node, DefineRule):
        _walk_params(node.condition, out)
        _walk_params(node.action, out)


def param_signature(node) -> tuple[str, ...]:
    """Distinct parameter names of a command, in first-appearance order."""
    seen: set[str] = set()
    names: list[str] = []
    for param in collect_params(node):
        if param.name not in seen:
            seen.add(param.name)
            names.append(param.name)
    return tuple(names)


# ----------------------------------------------------------------------
# deparser
# ----------------------------------------------------------------------

def deparse(node) -> str:
    """Render an AST node back to command text.

    The output reparses to an equal tree (round-trip property, tested);
    it is also how rule definitions are displayed to users.
    """
    return Deparser().render(node)


class Deparser:
    """Renders AST nodes as command text, one ``_render_<Node>`` method
    per node type; subclasses override a method to change one form."""

    def render(self, node) -> str:
        method = getattr(self, f"_render_{type(node).__name__}", None)
        if method is None:
            raise TypeError(f"cannot deparse {type(node).__name__}")
        return method(node)

    # -- expressions ---------------------------------------------------

    def _render_Const(self, node: Const) -> str:
        if node.value is None:
            return "null"
        if isinstance(node.value, bool):
            return "true" if node.value else "false"
        if isinstance(node.value, str):
            from repro.lang.literals import encode_string
            return encode_string(node.value)
        return repr(node.value)

    def _render_AttrRef(self, node: AttrRef) -> str:
        prefix = "previous " if node.previous else ""
        return f"{prefix}{node.var}.{node.attr}"

    def _render_AllRef(self, node: AllRef) -> str:
        return f"{node.var}.all"

    def _render_Param(self, node: Param) -> str:
        return f"${node.name}"

    def _render_NewCall(self, node: NewCall) -> str:
        return f"new({node.var})"

    def _render_AggregateCall(self, node: AggregateCall) -> str:
        return f"{node.func}({self.render(node.argument)})"

    def _render_BinOp(self, node: BinOp) -> str:
        left = self._maybe_paren(node.left, node.op, is_right=False)
        right = self._maybe_paren(node.right, node.op, is_right=True)
        return f"{left} {node.op} {right}"

    def _render_UnaryOp(self, node: UnaryOp) -> str:
        operand = self.render(node.operand)
        if isinstance(node.operand, BinOp):
            operand = f"({operand})"
        if node.op == "not":
            return f"not {operand}"
        if operand.startswith("-"):
            # avoid "--x", which the lexer would read as a comment
            operand = f"({operand})"
        return f"{node.op}{operand}"

    _PRECEDENCE = {
        "or": 1, "and": 2,
        "=": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
        "+": 4, "-": 4, "*": 5, "/": 5,
    }

    def _maybe_paren(self, child: Expr, parent_op: str,
                     is_right: bool) -> str:
        text = self.render(child)
        if not isinstance(child, BinOp):
            return text
        parent_prec = self._PRECEDENCE[parent_op]
        child_prec = self._PRECEDENCE[child.op]
        if child_prec < parent_prec or (child_prec == parent_prec
                                        and is_right):
            return f"({text})"
        return text

    # -- helpers ---------------------------------------------------------

    def _render_targets(self, targets: list[ResultColumn]) -> str:
        parts = []
        for col in targets:
            expr = self.render(col.expr)
            parts.append(f"{col.name} = {expr}" if col.name else expr)
        return ", ".join(parts)

    def _render_tail(self, from_items, where) -> str:
        text = ""
        if from_items:
            items = ", ".join(f"{f.var} in {f.relation}" for f in from_items)
            text += f" from {items}"
        if where is not None:
            text += f" where {self.render(where)}"
        return text

    # -- commands --------------------------------------------------------

    def _render_CreateRelation(self, node: CreateRelation) -> str:
        cols = ", ".join(f"{c.name} = {c.type_name}" for c in node.columns)
        return f"create {node.name} ({cols})"

    def _render_DestroyRelation(self, node: DestroyRelation) -> str:
        return f"destroy {node.name}"

    def _render_DefineIndex(self, node: DefineIndex) -> str:
        return (f"define index {node.name} on {node.relation} "
                f"({node.attribute}) using {node.kind}")

    def _render_RemoveIndex(self, node: RemoveIndex) -> str:
        return f"remove index {node.name}"

    def _render_Append(self, node: Append) -> str:
        text = (f"append to {node.relation} "
                f"({self._render_targets(node.targets)})")
        return text + self._render_tail(node.from_items, node.where)

    def _render_Delete(self, node: Delete) -> str:
        text = f"delete {node.target_var}"
        return text + self._render_tail(node.from_items, node.where)

    def _render_Replace(self, node: Replace) -> str:
        text = (f"replace {node.target_var} "
                f"({self._render_targets(node.assignments)})")
        return text + self._render_tail(node.from_items, node.where)

    def _render_Retrieve(self, node: Retrieve) -> str:
        unique = " unique" if node.unique else ""
        into = f" into {node.into}" if node.into else ""
        text = (f"retrieve{unique}{into} "
                f"({self._render_targets(node.targets)})")
        text += self._render_tail(node.from_items, node.where)
        if node.sort_keys:
            keys = ", ".join(
                self.render(k.expr) + ("" if k.ascending else " desc")
                for k in node.sort_keys)
            text += f" sort by {keys}"
        return text

    def _render_Block(self, node: Block) -> str:
        inner = "\n".join("    " + self.render(c) for c in node.commands)
        return f"do\n{inner}\nend"

    def _render_DefineRule(self, node: DefineRule) -> str:
        parts = [f"define rule {node.name}"]
        if node.ruleset:
            parts.append(f"in {node.ruleset}")
        if node.priority:
            parts.append(f"priority {node.priority!r}")
        if node.event:
            event = f"on {node.event.kind.value} {node.event.relation}"
            if node.event.attributes:
                event += f" ({', '.join(node.event.attributes)})"
            parts.append(event)
        if node.condition is not None:
            cond = f"if {self.render(node.condition)}"
            if node.from_items:
                items = ", ".join(f"{f.var} in {f.relation}"
                                  for f in node.from_items)
                cond += f" from {items}"
            parts.append(cond)
        parts.append(f"then {self.render(node.action)}")
        return "\n".join(parts)

    def _render_RemoveRule(self, node: RemoveRule) -> str:
        return f"remove rule {node.name}"

    def _render_ActivateRule(self, node: ActivateRule) -> str:
        return f"activate rule {node.name}"

    def _render_DeactivateRule(self, node: DeactivateRule) -> str:
        return f"deactivate rule {node.name}"

    def _render_Halt(self, node: Halt) -> str:
        return "halt"

    def _render_Explain(self, node: Explain) -> str:
        analyze = " analyze" if node.analyze else ""
        return f"explain{analyze} {self.render(node.command)}"
