"""The one-scan tokenizer equals the character loop it replaced.

``repro.lang.lexer.tokenize`` scans the text with one compiled regular
expression; the loop below is what it replaced.  Over generated command
text they must agree token for token (kind, value, line, column) and
error for error (message and position).
"""

from hypothesis import given, settings, strategies as st

from repro.errors import ParseError
from repro.lang.lexer import KEYWORDS, Token, tokenize

DIGITS = frozenset("0123456789")

#: multi-character operators first so maximal munch applies
OPERATORS = ("!=", "<=", ">=", "=", "<", ">", "+", "-", "*", "/",
             "(", ")", ",", ".")


class CharLoopLexer:
    """The character-at-a-time tokenizer ``repro.lang.lexer`` had before
    the one-scan rewrite, kept verbatim as the oracle — but for the digit
    test, which is ASCII-only here as there (``str.isdigit`` accepts
    characters ``int()`` rejects)."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def tokens(self) -> list[Token]:
        """Tokenize the whole input, ending with a single EOF token."""
        out: list[Token] = []
        while True:
            token = self._next_token()
            out.append(token)
            if token.kind == "eof":
                return out

    # ------------------------------------------------------------------

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.text[i] if i < len(self.text) else ""

    def _skip_trivia(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n;":
                # A stray semicolon is treated as whitespace: scripts may
                # separate commands with either newlines or semicolons.
                self._advance()
            elif ch == "#" or self.text.startswith("--", self.pos):
                while self.pos < len(self.text) \
                        and self.text[self.pos] != "\n":
                    self._advance()
            else:
                return

    def _next_token(self) -> Token:
        self._skip_trivia()
        if self.pos >= len(self.text):
            return Token("eof", None, self.line, self.column)
        line, column = self.line, self.column
        ch = self._peek()
        if ch == '"':
            return self._string(line, column)
        if ch in DIGITS or (ch == "." and self._peek(1) in DIGITS):
            return self._number(line, column)
        if ch.isalpha() or ch == "_":
            return self._word(line, column)
        if ch == "$":
            return self._param(line, column)
        for op in OPERATORS:
            if self.text.startswith(op, self.pos):
                self._advance(len(op))
                return Token("op", op, line, column)
        raise ParseError(f"unexpected character {ch!r}", line, column)

    def _string(self, line: int, column: int) -> Token:
        self._advance()   # opening quote
        chars: list[str] = []
        while True:
            ch = self._peek()
            if ch == "":
                raise ParseError("unterminated string literal", line, column)
            if ch == "\\":
                escape = self._peek(1)
                mapped = {"n": "\n", "t": "\t", "r": "\r", '"': '"',
                          "\\": "\\"}.get(escape)
                if mapped is None:
                    raise ParseError(f"bad escape \\{escape}",
                                     self.line, self.column)
                chars.append(mapped)
                self._advance(2)
            elif ch == '"':
                self._advance()
                return Token("string", "".join(chars), line, column)
            else:
                chars.append(ch)
                self._advance()

    def _number(self, line: int, column: int) -> Token:
        start = self.pos
        saw_dot = False
        saw_exp = False
        while self.pos < len(self.text):
            ch = self._peek()
            if ch in DIGITS:
                self._advance()
            elif ch == "." and not saw_dot and not saw_exp \
                    and self._peek(1) in DIGITS:
                saw_dot = True
                self._advance()
            elif ch in "eE" and not saw_exp and (
                    self._peek(1) in DIGITS
                    or (self._peek(1) in "+-" and self._peek(2) in DIGITS)):
                saw_exp = True
                self._advance(2 if self._peek(1) in "+-" else 1)
            else:
                break
        text = self.text[start:self.pos]
        value: object
        if saw_dot or saw_exp:
            value = float(text)
        else:
            value = int(text)
        return Token("number", value, line, column)

    def _param(self, line: int, column: int) -> Token:
        """``$name`` or ``$1`` — a prepared-statement placeholder."""
        self._advance()   # '$'
        start = self.pos
        if self._peek() in DIGITS:
            while self._peek() in DIGITS:
                self._advance()
        else:
            while self._peek().isalnum() or self._peek() == "_":
                self._advance()
        name = self.text[start:self.pos]
        if not name:
            raise ParseError("expected a parameter name after '$'",
                             line, column)
        return Token("param", name, line, column)

    def _word(self, line: int, column: int) -> Token:
        start = self.pos
        while self.pos < len(self.text) and (self._peek().isalnum()
                                             or self._peek() == "_"):
            self._advance()
        word = self.text[start:self.pos]
        if word.lower() in KEYWORDS:
            return Token("keyword", word.lower(), line, column)
        return Token("ident", word, line, column)


def char_loop(text):
    return CharLoopLexer(text).tokens()


def outcome(scan, text):
    try:
        return [tuple(token) for token in scan(text)]
    except ParseError as exc:
        return str(exc)


WORDS = sorted(KEYWORDS) + [
    "RETRIEVE", "Append", "wHeRe", "emp", "e1_x", "_a", "Emp2", "x",
    "e", "E", "é", "naïve", "İ", "K"]
NUMBERS = ["0", "5", "12", "007", ".5", "1.5", "1e5", "1.5e+3", "2E-2",
           "1.", "1.e", "5e", "5e+", "1e5e3", "1.5.3", "9" * 25]
STRINGS = ['""', '"abc"', '"a b;c"', r'"a\n\t\r\"\\"', r'"a\q"', '"a\nb"',
           '"', '"abc', '"abc\\', "\\"]
PARAMS = ["$", "$1", "$12x", "$name", "$_a", "$é", "$²"]
TRIVIA = [" ", "  ", "\t", "\r", "\n", ";", "-- c\n", "--", "# c\n", "#",
          "- -"]
JUNK = ["@", "!", "'", "`", "?", "[", "{", "~", "\x0b", "\xa0", "²", "٣",
        "½", "x²", "5٣"]
ATOMS = (WORDS + NUMBERS + STRINGS + PARAMS + TRIVIA + JUNK
         + list(OPERATORS))

command_text = st.lists(st.sampled_from(ATOMS), max_size=12).map("".join)


@settings(max_examples=600, deadline=None)
@given(command_text)
def test_one_scan_tokenizer_equals_the_character_loop(text):
    assert outcome(tokenize, text) == outcome(char_loop, text)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=30))
def test_equal_on_arbitrary_text(text):
    assert outcome(tokenize, text) == outcome(char_loop, text)


def test_the_oracle_is_not_vacuous():
    text = 'Append emp(a = "x\\n", b = 1.5e+3) -- c\n where emp.id != $1'
    tokens = outcome(char_loop, text)
    assert tokens == outcome(tokenize, text)
    assert [t[1] for t in tokens[:3]] == ["append", "emp", "("]
    assert tokens[-1] == ("eof", None, 2, 20)
    assert outcome(char_loop, "a @") \
        == "unexpected character '@' (line 1, column 3)"
