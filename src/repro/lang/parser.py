"""Recursive-descent parser for the POSTQUEL subset and ARL.

The grammar follows the paper's section 2 exactly where it is spelled out
(the ``define rule`` form, events, ``previous``, ``new()``, ``do … end``
blocks) and standard POSTQUEL for the data commands::

    command   := create | destroy | define-index | remove-index
               | append | delete | replace | retrieve | block
               | define-rule | remove-rule | activate | deactivate | halt
    append    := "append" ["to"] name "(" targets ")" tail
    delete    := "delete" ["from"] name tail
    replace   := "replace" name "(" targets ")" tail
    retrieve  := "retrieve" ["into" name] "(" targets ")" tail
    tail      := ["from" from-list] ["where" expr]
    rule      := "define" "rule" name ["in" name] ["priority" number]
                 ["on" event] ["if" expr ["from" from-list]] "then" action
    event     := ("append" ["to"] | "delete" ["from"] | "replace" ["to"])
                 name ["(" name-list ")"]
    action    := command | block
    block     := "do" command+ "end"

Expression precedence, loosest first: ``or``, ``and``, ``not``,
comparisons, ``+ -``, ``* /``, unary minus.
"""

from __future__ import annotations

from repro.catalog.schema import AttributeType
from repro.errors import ParseError
from repro.lang import ast_nodes as ast
from repro.lang.lexer import Token, tokenize

#: the type a number or string literal has, by the class of its value
LITERAL_TYPES = {int: AttributeType.INT, float: AttributeType.FLOAT,
                 str: AttributeType.TEXT}


class Parser:
    """Parses one command (or a script of commands) from command text
    or from its token list.

    With ``lift=True`` the n-th number or string literal parses to
    ``Param("n", <the literal's type>)`` instead of a constant: analysis
    checks it as it checks the literal, and the plan serves any literals
    of those types (the statement cache, :mod:`repro.prepared`).
    """

    def __init__(self, source: str | list[Token], lift: bool = False):
        self._tokens = tokenize(source) if isinstance(source, str) \
            else source
        self._pos = 0
        self._lift = lift
        self._lifted = 0

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        i = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[i]

    def _advance(self) -> Token:
        token = self._peek()
        if token.kind != "eof":
            self._pos += 1
        return token

    def _check(self, kind: str, value=None) -> bool:
        token = self._peek()
        if token.kind != kind:
            return False
        return value is None or token.value == value

    def _accept(self, kind: str, value=None) -> Token | None:
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: str, value=None) -> Token:
        token = self._peek()
        if not self._check(kind, value):
            expected = value if value is not None else kind
            raise ParseError(f"expected {expected!r}, found {token}",
                             token.line, token.column)
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        return self._expect("keyword", word)

    def _name(self) -> str:
        """An identifier; keywords are allowed where a name is required
        (so a relation may have an attribute called ``priority``)."""
        token = self._peek()
        if token.kind in ("ident", "keyword"):
            self._advance()
            return str(token.value)
        raise ParseError(f"expected a name, found {token}",
                         token.line, token.column)

    def at_end(self) -> bool:
        return self._peek().kind == "eof"

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def parse_command(self) -> ast.Command:
        """Parse exactly one command; trailing input is an error."""
        command = self._command()
        if not self.at_end():
            token = self._peek()
            raise ParseError(f"unexpected input after command: {token}",
                             token.line, token.column)
        return command

    def parse_script(self) -> list[ast.Command]:
        """Parse a sequence of commands until end of input."""
        commands = []
        while not self.at_end():
            commands.append(self._command())
        return commands

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------

    def _command(self) -> ast.Command:
        token = self._peek()
        if token.kind != "keyword":
            raise ParseError(f"expected a command, found {token}",
                             token.line, token.column)
        handlers = {
            "create": self._create,
            "destroy": self._destroy,
            "append": self._append,
            "delete": self._delete,
            "replace": self._replace,
            "retrieve": self._retrieve,
            "do": self._block,
            "define": self._define,
            "remove": self._remove,
            "activate": self._activate,
            "deactivate": self._deactivate,
            "halt": self._halt,
            "explain": self._explain,
        }
        handler = handlers.get(token.value)
        if handler is None:
            raise ParseError(f"unknown command {token}",
                             token.line, token.column)
        return handler()

    def _create(self) -> ast.CreateRelation:
        self._expect_keyword("create")
        name = self._name()
        self._expect("op", "(")
        columns = []
        while True:
            col_name = self._name()
            self._expect("op", "=")
            type_name = self._name()
            columns.append(ast.ColumnDef(col_name, type_name))
            if not self._accept("op", ","):
                break
        self._expect("op", ")")
        return ast.CreateRelation(name, columns)

    def _destroy(self) -> ast.DestroyRelation:
        self._expect_keyword("destroy")
        return ast.DestroyRelation(self._name())

    def _explain(self) -> ast.Explain:
        self._expect_keyword("explain")
        analyze = bool(self._accept("keyword", "analyze"))
        return ast.Explain(self._command(), analyze)

    def _define(self) -> ast.Command:
        self._expect_keyword("define")
        if self._accept("keyword", "rule"):
            return self._define_rule()
        if self._accept("keyword", "index"):
            return self._define_index()
        token = self._peek()
        raise ParseError(f"expected 'rule' or 'index' after define, "
                         f"found {token}", token.line, token.column)

    def _define_index(self) -> ast.DefineIndex:
        name = self._name()
        self._expect_keyword("on")
        relation = self._name()
        self._expect("op", "(")
        attribute = self._name()
        self._expect("op", ")")
        kind = "btree"
        if self._accept("keyword", "using"):
            kind = self._name()
        return ast.DefineIndex(name, relation, attribute, kind)

    def _remove(self) -> ast.Command:
        self._expect_keyword("remove")
        if self._accept("keyword", "rule"):
            return ast.RemoveRule(self._name())
        if self._accept("keyword", "index"):
            return ast.RemoveIndex(self._name())
        token = self._peek()
        raise ParseError(f"expected 'rule' or 'index' after remove, "
                         f"found {token}", token.line, token.column)

    def _activate(self) -> ast.ActivateRule:
        self._expect_keyword("activate")
        self._expect_keyword("rule")
        return ast.ActivateRule(self._name())

    def _deactivate(self) -> ast.DeactivateRule:
        self._expect_keyword("deactivate")
        self._expect_keyword("rule")
        return ast.DeactivateRule(self._name())

    def _halt(self) -> ast.Halt:
        self._expect_keyword("halt")
        return ast.Halt()

    def _append(self) -> ast.Append:
        self._expect_keyword("append")
        self._accept("keyword", "to")
        relation = self._name()
        self._expect("op", "(")
        targets = self._target_list()
        self._expect("op", ")")
        from_items, where = self._tail()
        return ast.Append(relation, targets, from_items, where)

    def _delete(self) -> ast.Delete:
        self._expect_keyword("delete")
        # "delete from emp" is tolerated, matching the event syntax; but
        # "delete emp from d in dept" keeps "from" as the tail keyword, so
        # only consume "from" when a name follows immediately followed by
        # neither "in" nor end-of-names context.  Simplest unambiguous
        # rule: accept "from" here only when the next-next token is not
        # "in".
        if (self._check("keyword", "from")
                and not self._looks_like_from_list(1)):
            self._advance()
        target = self._name()
        from_items, where = self._tail()
        return ast.Delete(target, from_items, where)

    def _looks_like_from_list(self, offset: int) -> bool:
        """True if tokens at ``offset`` look like ``var in rel``."""
        return (self._peek(offset).kind in ("ident", "keyword")
                and self._peek(offset + 1).kind == "keyword"
                and self._peek(offset + 1).value == "in")

    def _replace(self) -> ast.Replace:
        self._expect_keyword("replace")
        target = self._name()
        self._expect("op", "(")
        assignments = self._target_list()
        self._expect("op", ")")
        for col in assignments:
            if col.name is None:
                raise ParseError(
                    "replace assignments must be of the form attr = expr")
        from_items, where = self._tail()
        return ast.Replace(target, assignments, from_items, where)

    def _retrieve(self) -> ast.Retrieve:
        self._expect_keyword("retrieve")
        unique = bool(self._accept("keyword", "unique"))
        into = None
        if self._accept("keyword", "into"):
            into = self._name()
        self._expect("op", "(")
        targets = self._target_list()
        self._expect("op", ")")
        from_items, where = self._tail()
        sort_keys: list[ast.SortKey] = []
        if self._accept("keyword", "sort"):
            self._expect_keyword("by")
            sort_keys.append(self._sort_key())
            while self._accept("op", ","):
                sort_keys.append(self._sort_key())
        return ast.Retrieve(targets, into, from_items, where, sort_keys,
                            unique)

    def _sort_key(self) -> ast.SortKey:
        expr = self._expr()
        ascending = True
        if self._accept("keyword", "desc"):
            ascending = False
        else:
            self._accept("keyword", "asc")
        return ast.SortKey(expr, ascending)

    def _block(self) -> ast.Block:
        self._expect_keyword("do")
        commands = []
        while not self._check("keyword", "end"):
            if self.at_end():
                token = self._peek()
                raise ParseError("unterminated do ... end block",
                                 token.line, token.column)
            commands.append(self._command())
        self._expect_keyword("end")
        if not commands:
            raise ParseError("empty do ... end block")
        return ast.Block(commands)

    def _define_rule(self) -> ast.DefineRule:
        name = self._name()
        ruleset = None
        if self._accept("keyword", "in"):
            ruleset = self._name()
        priority = 0.0
        if self._accept("keyword", "priority"):
            priority = float(self._signed_number())
        event = None
        if self._accept("keyword", "on"):
            event = self._event_spec()
        condition = None
        from_items: list[ast.FromItem] = []
        if self._accept("keyword", "if"):
            condition = self._expr()
            if self._accept("keyword", "from"):
                from_items = self._from_list()
        self._expect_keyword("then")
        action = self._command()
        return ast.DefineRule(name, action, ruleset, priority, event,
                              condition, from_items)

    def _event_spec(self) -> ast.EventSpec:
        token = self._peek()
        kinds = {"append": ast.EventKind.APPEND,
                 "delete": ast.EventKind.DELETE,
                 "replace": ast.EventKind.REPLACE}
        if token.kind != "keyword" or token.value not in kinds:
            raise ParseError(
                f"expected append, delete or replace after 'on', "
                f"found {token}", token.line, token.column)
        kind = kinds[self._advance().value]
        # optional "to"/"from" filler per the paper's grammar
        if kind is ast.EventKind.DELETE:
            self._accept("keyword", "from")
        else:
            self._accept("keyword", "to")
        relation = self._name()
        attributes: tuple[str, ...] = ()
        if self._accept("op", "("):
            names = [self._name()]
            while self._accept("op", ","):
                names.append(self._name())
            self._expect("op", ")")
            attributes = tuple(names)
        return ast.EventSpec(kind, relation, attributes)

    def _signed_number(self):
        sign = -1 if self._accept("op", "-") else 1
        token = self._expect("number")
        return sign * token.value

    # ------------------------------------------------------------------
    # target lists, from lists, tails
    # ------------------------------------------------------------------

    def _target_list(self) -> list[ast.ResultColumn]:
        targets = [self._target()]
        while self._accept("op", ","):
            targets.append(self._target())
        return targets

    def _target(self) -> ast.ResultColumn:
        # "name = expr" when an identifier is directly followed by '='
        # (but not '==' ... there is no '=='), otherwise a bare expression.
        if (self._peek().kind in ("ident", "keyword")
                and self._peek().value not in ("previous", "new", "not",
                                               "true", "false")
                and self._peek(1).kind == "op"
                and self._peek(1).value == "="):
            name = self._name()
            self._advance()   # '='
            return ast.ResultColumn(name, self._expr())
        return ast.ResultColumn(None, self._expr())

    def _from_list(self) -> list[ast.FromItem]:
        items = [self._from_item()]
        while self._accept("op", ","):
            items.append(self._from_item())
        return items

    def _from_item(self) -> ast.FromItem:
        var = self._name()
        self._expect_keyword("in")
        relation = self._name()
        return ast.FromItem(var, relation)

    def _tail(self) -> tuple[list[ast.FromItem], ast.Expr | None]:
        from_items: list[ast.FromItem] = []
        where = None
        if self._accept("keyword", "from"):
            from_items = self._from_list()
        if self._accept("keyword", "where"):
            where = self._expr()
        return from_items, where

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def _expr(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while self._accept("keyword", "or"):
            left = ast.BinOp("or", left, self._and_expr())
        return left

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while self._accept("keyword", "and"):
            left = ast.BinOp("and", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.Expr:
        if self._accept("keyword", "not"):
            return ast.UnaryOp("not", self._not_expr())
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        token = self._peek()
        if token.kind == "op" and token.value in ast.COMPARISON_OPS:
            self._advance()
            op = token.value
            right = self._additive()
            return ast.BinOp(op, left, right)
        # "!=" may also be written "! ="?  No: the lexer produces '!='
        # as one token only; a lone '!' is a lex error.
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("+", "-"):
                self._advance()
                left = ast.BinOp(token.value, left,
                                 self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("*", "/"):
                self._advance()
                left = ast.BinOp(token.value, left, self._unary())
            else:
                return left

    def _unary(self) -> ast.Expr:
        if self._accept("op", "-"):
            operand = self._unary()
            # Fold negative numeric literals into the constant so that
            # "-1" parses as Const(-1), matching what deparse emits.
            if isinstance(operand, ast.Const) \
                    and isinstance(operand.value, (int, float)) \
                    and not isinstance(operand.value, bool):
                return ast.Const(-operand.value)
            return ast.UnaryOp("-", operand)
        return self._primary()

    def _primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind == "param":
            self._advance()
            return ast.Param(str(token.value))
        if token.kind in ("number", "string"):
            self._advance()
            if self._lift:
                self._lifted += 1
                return ast.Param(str(self._lifted),
                                 LITERAL_TYPES[type(token.value)])
            return ast.Const(token.value)
        if self._accept("keyword", "true"):
            return ast.Const(True)
        if self._accept("keyword", "false"):
            return ast.Const(False)
        if self._accept("keyword", "null"):
            return ast.Const(None)
        # inf/nan are literals unless used as a tuple variable (inf.attr)
        for word, literal in (("inf", float("inf")), ("nan", float("nan"))):
            if self._check("keyword", word) and not (
                    self._peek(1).kind == "op"
                    and self._peek(1).value == "."):
                self._advance()
                return ast.Const(literal)
        if self._accept("op", "("):
            expr = self._expr()
            self._expect("op", ")")
            return expr
        if self._accept("keyword", "previous"):
            var = self._name()
            self._expect("op", ".")
            attr = self._name()
            return ast.AttrRef(var, attr, previous=True)
        if self._check("keyword", "new") and self._peek(1).kind == "op" \
                and self._peek(1).value == "(":
            self._advance()
            self._advance()
            var = self._name()
            self._expect("op", ")")
            return ast.NewCall(var)
        if (token.kind == "ident"
                and token.value in ast.AGGREGATE_FUNCS
                and self._peek(1).kind == "op"
                and self._peek(1).value == "("):
            self._advance()
            self._advance()
            argument = self._expr()
            self._expect("op", ")")
            return ast.AggregateCall(str(token.value), argument)
        if token.kind in ("ident", "keyword"):
            var = self._name()
            self._expect("op", ".")
            attr = self._name()
            if attr == "all":
                return ast.AllRef(var)
            return ast.AttrRef(var, attr)
        raise ParseError(f"expected an expression, found {token}",
                         token.line, token.column)


def parse_command(source: str | list[Token],
                  lift: bool = False) -> ast.Command:
    """Parse exactly one command from text or from its tokens."""
    return Parser(source, lift).parse_command()


def parse_script(text: str) -> list[ast.Command]:
    """Parse a whole script (commands separated by whitespace/newlines)."""
    return Parser(text).parse_script()
