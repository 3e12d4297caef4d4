"""Tokenizer for the POSTQUEL subset and ARL.

Keywords are case-insensitive (normalised to lower case); identifiers are
case-sensitive.  Strings use double quotes with backslash escapes, matching
the paper's examples (``dept.name = "Sales"``).  Comments run from ``--``
or ``#`` to end of line.  Number literals are ASCII digits.

The whole text is scanned once by one compiled regular expression: each
match skips the trivia before a token and captures the token in the one
group that names its kind; the last alternatives catch what is not a
token, so the scan itself raises every lexical error at its position.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import ParseError

KEYWORDS = frozenset({
    "create", "destroy", "append", "delete", "replace", "retrieve",
    "into", "to", "from", "where", "in", "define", "remove", "rule",
    "index", "on", "if", "then", "priority", "do", "end", "using",
    "and", "or", "not", "previous", "new", "true", "false", "null",
    "activate", "deactivate", "halt", "sort", "by", "asc", "desc",
    "unique", "explain", "analyze", "inf", "nan",
})


class Token(NamedTuple):
    """One lexical token with its source position (1-based)."""

    kind: str          # 'keyword' | 'ident' | 'number' | 'string' | 'op'
                       # | 'param' | 'eof'
    value: object
    line: int
    column: int

    def __str__(self) -> str:
        if self.kind == "eof":
            return "<end of input>"
        return repr(self.value)


# One match = the trivia before a token (a stray semicolon is trivia:
# scripts may separate commands with newlines or semicolons) + the token,
# captured by the one group that names its kind.  A number comes before
# the operators so ``.5`` is not a dot, multi-character operators before
# single ones so maximal munch applies, and the last three alternatives
# catch what is not a token.
_SCAN = re.compile(r"""
    (?: [ \t\r\n;]+ | (?: \# | -- ) [^\n]* )*
    (?: ( [A-Za-z_] \w* )                                  # 1 word
      | ( (?: [0-9]+ (?: \.[0-9]+ )? | \.[0-9]+ )
          (?: [eE] [+-]? [0-9]+ )? )                       # 2 number
      | ( != | <= | >= | [=<>+\-*/(),.] )                  # 3 op
      | ( " (?: [^"\\] | \\. )* " )                        # 4 string
      | ( \$ (?: [0-9]+ | \w* ) )                          # 5 param
      | ( \Z )                                             # 6 eof
      | ( \w+ )                                            # 7 non-ASCII word
      | ( " )                                              # 8 unclosed string
      | ( . )                                              # 9 junk
    )""", re.VERBOSE | re.DOTALL)
_WORD, _NUMBER, _OP, _STRING, _PARAM, _EOF, _UWORD, _UNCLOSED = range(1, 9)

_ESCAPE = re.compile(r"\\(.?)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_new = tuple.__new__


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` fully, ending with a single EOF token."""
    out: list[Token] = []
    line, line_start, seen = 1, 0, 0
    multiline = "\n" in text
    for match in _SCAN.finditer(text):
        group = match.lastindex
        start = match.start(group)
        if multiline:
            newlines = text.count("\n", seen, start)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", seen, start) + 1
            seen = start
        value = match.group(group)
        if group == _WORD or group == _UWORD:
            lowered = value.lower()
            if lowered in KEYWORDS:
                kind, value = "keyword", lowered
            elif group == _WORD or value[0].isalpha():
                kind = "ident"
            else:       # a numeral outside ASCII: a word character only
                raise _error(f"unexpected character {value[0]!r}",
                             text, start)
        elif group == _OP:
            kind = "op"
        elif group == _NUMBER:
            kind = "number"
            value = int(value) if value.isdigit() else float(value)
        elif group == _STRING:
            kind = "string"
            value = value[1:-1]
            if "\\" in value:
                value = _unescape(value, text, start + 1)
        elif group == _PARAM:
            kind = "param"
            value = value[1:]
            if not value:
                raise _error("expected a parameter name after '$'",
                             text, start)
        elif group == _EOF:
            out.append(Token("eof", None, line, start - line_start + 1))
            return out
        elif group == _UNCLOSED:
            _unescape(text[start + 1:], text, start + 1)
            raise _error("unterminated string literal", text, start)
        else:
            raise _error(f"unexpected character {value!r}", text, start)
        out.append(_new(Token, (kind, value, line, start - line_start + 1)))


def _error(message: str, text: str, at: int) -> ParseError:
    """A ParseError at offset ``at`` of ``text``."""
    return ParseError(message, text.count("\n", 0, at) + 1,
                      at - text.rfind("\n", 0, at))


def _unescape(body: str, text: str, offset: int) -> str:
    """``body`` (the inside of a string literal, found at
    ``text[offset:]``) with its escapes replaced."""
    def replace(match):
        mapped = _ESCAPES.get(match.group(1))
        if mapped is None:
            raise _error(f"bad escape \\{match.group(1)}", text,
                         offset + match.start())
        return mapped
    return _ESCAPE.sub(replace, body)


class Lexer:
    """``Lexer(text).tokens()`` — the class form of :func:`tokenize`."""

    def __init__(self, text: str):
        self.text = text

    def tokens(self) -> list[Token]:
        return tokenize(self.text)
