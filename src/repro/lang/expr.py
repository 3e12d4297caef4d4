"""Expression evaluation: bindings and a closure compiler.

Expressions are compiled once (per plan, per rule predicate) into nested
Python closures over a :class:`Bindings` environment; this is the hot path
of both query execution and token testing, so attribute positions are
resolved at compile time and evaluation does no name lookups.

Null semantics are SQL-like three-valued logic: comparisons and arithmetic
involving a null yield null (``None``); ``and``/``or``/``not`` follow
Kleene logic; a WHERE clause or rule predicate accepts a row only when the
result is exactly ``True``.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ExecutionError, SemanticError
from repro.lang import ast_nodes as ast


class Bindings:
    """Evaluation environment: tuple variables bound to value tuples.

    ``current`` maps a tuple variable to its tuple of attribute values;
    ``previous`` maps a variable to the values it had at the beginning of
    the transition (only present for transition-condition variables);
    ``tids`` maps a variable to the TupleId of the bound stored tuple when
    it has one (scans of base relations and P-nodes provide it; values
    computed on the fly do not); ``params`` is the prepared-statement
    parameter vector (name -> value), set once at the plan root and never
    mutated during execution, so copies share it by reference.
    """

    __slots__ = ("current", "previous", "tids", "params")

    def __init__(self, current: dict[str, tuple] | None = None,
                 previous: dict[str, tuple] | None = None,
                 tids: dict[str, object] | None = None,
                 params: dict[str, object] | None = None):
        self.current = current if current is not None else {}
        self.previous = previous if previous is not None else {}
        self.tids = tids if tids is not None else {}
        self.params = params if params is not None else _NO_PARAMS

    def child(self) -> "Bindings":
        """A copy that can be extended without mutating this one."""
        return Bindings(dict(self.current), dict(self.previous),
                        dict(self.tids), self.params)

    def bind(self, var: str, values: tuple, tid=None,
             previous: tuple | None = None) -> "Bindings":
        """A copy with ``var`` (re)bound."""
        out = self.child()
        out.current[var] = values
        if tid is not None:
            out.tids[var] = tid
        if previous is not None:
            out.previous[var] = previous
        return out

    def rebind(self, var: str, values: tuple, tid=None,
               previous: tuple | None = None) -> "Bindings":
        """Mutate-in-place variant of :meth:`bind` for the scan hot path.

        Safe only when the caller owns this Bindings and its consumer
        does not retain yielded bindings across iterations (scans under
        a hash join's build side must keep using :meth:`bind`).
        """
        self.current[var] = values
        if tid is not None:
            self.tids[var] = tid
        if previous is not None:
            self.previous[var] = previous
        return self

    def __repr__(self) -> str:
        return f"Bindings({self.current!r}, previous={self.previous!r})"


#: shared empty parameter vector for parameterless execution
_NO_PARAMS: dict[str, object] = {}

Evaluator = Callable[[Bindings], object]


def compile_expr(expr: ast.Expr) -> Evaluator:
    """Compile an analyzed expression into a closure over Bindings.

    AttrRef nodes must carry their resolved ``position`` (set by semantic
    analysis).
    """
    if isinstance(expr, ast.Const):
        value = expr.value
        return lambda b: value
    if isinstance(expr, ast.AttrRef):
        if expr.position is None:
            raise SemanticError(
                f"unresolved attribute reference {expr.var}.{expr.attr}; "
                f"run semantic analysis first")
        var, pos = expr.var, expr.position
        if expr.previous:
            return lambda b: b.previous[var][pos]
        return lambda b: b.current[var][pos]
    if isinstance(expr, ast.Param):
        name = expr.name

        def eval_param(b: Bindings):
            try:
                return b.params[name]
            except KeyError:
                raise ExecutionError(
                    f"no value bound for parameter ${name}") from None
        return eval_param
    if isinstance(expr, ast.NewCall):
        return lambda b: True
    if isinstance(expr, ast.UnaryOp):
        operand = compile_expr(expr.operand)
        if expr.op == "-":
            return lambda b: _negate(operand(b))
        if expr.op == "not":
            return lambda b: _not(operand(b))
        raise SemanticError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, ast.BinOp):
        return _compile_binop(expr)
    if isinstance(expr, ast.AllRef):
        raise SemanticError(
            f"{expr.var}.all is only valid in a target list")
    if isinstance(expr, ast.AggregateCall):
        raise SemanticError(
            f"{expr.func}() must be evaluated by the aggregation "
            f"executor, not compiled directly")
    raise SemanticError(f"cannot compile {type(expr).__name__}")


def is_true(value: object) -> bool:
    """Predicate acceptance under three-valued logic."""
    return value is True


def _compile_binop(expr: ast.BinOp) -> Evaluator:
    if expr.op == "and":
        left = compile_expr(expr.left)
        right = compile_expr(expr.right)

        def eval_and(b: Bindings):
            lhs = left(b)
            if lhs is False:
                return False
            rhs = right(b)
            if rhs is False:
                return False
            if lhs is None or rhs is None:
                return None
            return True
        return eval_and
    if expr.op == "or":
        left = compile_expr(expr.left)
        right = compile_expr(expr.right)

        def eval_or(b: Bindings):
            lhs = left(b)
            if lhs is True:
                return True
            rhs = right(b)
            if rhs is True:
                return True
            if lhs is None or rhs is None:
                return None
            return False
        return eval_or

    left = compile_expr(expr.left)
    right = compile_expr(expr.right)
    op = expr.op
    if op in ast.COMPARISON_OPS:
        compare = _COMPARATORS[op]

        def eval_cmp(b: Bindings):
            lhs = left(b)
            if lhs is None:
                return None
            rhs = right(b)
            if rhs is None:
                return None
            return compare(lhs, rhs)
        return eval_cmp
    if op in ast.ARITHMETIC_OPS:
        combine = _ARITHMETIC[op]

        def eval_arith(b: Bindings):
            lhs = left(b)
            if lhs is None:
                return None
            rhs = right(b)
            if rhs is None:
                return None
            return combine(lhs, rhs)
        return eval_arith
    raise SemanticError(f"unknown operator {op!r}")


def _negate(value):
    if value is None:
        return None
    return -value


def _not(value):
    if value is None:
        return None
    return not value


def _divide(a, b):
    if b == 0:
        raise ExecutionError("division by zero")
    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
        return a // b
    return a / b


_COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _divide,
}


def constant_value(expr: ast.Expr):
    """Fold a constant expression to its value.

    Raises SemanticError if the expression references any tuple variable
    or parameter placeholder (a parameter is only known at bind time).
    Used by predicate analysis to extract interval bounds like
    ``1.1 * 30000``.
    """
    if references_variables(expr) or contains_params(expr):
        raise SemanticError("expression is not constant")
    return compile_expr(expr)(Bindings())


def contains_params(expr: ast.Expr) -> bool:
    """True if the expression mentions any ``$param`` placeholder."""
    if isinstance(expr, ast.Param):
        return True
    if isinstance(expr, ast.BinOp):
        return contains_params(expr.left) or contains_params(expr.right)
    if isinstance(expr, ast.UnaryOp):
        return contains_params(expr.operand)
    if isinstance(expr, ast.AggregateCall):
        return contains_params(expr.argument)
    return False


def references_variables(expr: ast.Expr) -> bool:
    """True if the expression mentions any tuple variable."""
    return bool(variables_of(expr))


def variables_of(expr: ast.Expr) -> set[str]:
    """All tuple variables mentioned (current or previous)."""
    out: set[str] = set()
    _collect_vars(expr, out)
    return out


def _collect_vars(expr: ast.Expr, out: set[str]) -> None:
    if isinstance(expr, (ast.AttrRef, ast.AllRef, ast.NewCall)):
        out.add(expr.var)
    elif isinstance(expr, ast.BinOp):
        _collect_vars(expr.left, out)
        _collect_vars(expr.right, out)
    elif isinstance(expr, ast.UnaryOp):
        _collect_vars(expr.operand, out)
    elif isinstance(expr, ast.AggregateCall):
        _collect_vars(expr.argument, out)


def previous_variables_of(expr: ast.Expr) -> set[str]:
    """Variables referenced with the ``previous`` keyword."""
    out: set[str] = set()

    def walk(node: ast.Expr) -> None:
        if isinstance(node, ast.AttrRef) and node.previous:
            out.add(node.var)
        elif isinstance(node, ast.BinOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.UnaryOp):
            walk(node.operand)

    walk(expr)
    return out
