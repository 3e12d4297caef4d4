"""Unit tests for the tokenizer."""

import pytest

from repro.errors import ParseError
from repro.lang.lexer import tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)[:-1]]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestLexer:
    def test_empty(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == "eof"

    def test_keywords_case_insensitive(self):
        assert values("APPEND Append append") == ["append"] * 3
        assert kinds("retrieve") == ["keyword"]

    def test_identifiers_case_sensitive(self):
        tokens = tokenize("Emp emp")
        assert tokens[0].value == "Emp"
        assert tokens[1].value == "emp"

    def test_numbers(self):
        assert values("42") == [42]
        assert values("3.5") == [3.5]
        assert values("1.5e3") == [1500.0]
        assert values("2E-2") == [0.02]
        assert isinstance(values("42")[0], int)
        assert isinstance(values("42.0")[0], float)

    def test_strings(self):
        assert values('"Bob"') == ["Bob"]
        assert values(r'"a\"b"') == ['a"b']
        assert values(r'"line\n"') == ["line\n"]

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize('"oops')

    def test_bad_escape(self):
        with pytest.raises(ParseError):
            tokenize(r'"\x"')

    def test_operators(self):
        assert values("< <= > >= = != + - * / ( ) , .") == [
            "<", "<=", ">", ">=", "=", "!=", "+", "-", "*", "/",
            "(", ")", ",", "."]

    def test_maximal_munch(self):
        assert values("a<=b") == ["a", "<=", "b"]
        assert values("a<b") == ["a", "<", "b"]

    def test_comments(self):
        assert values("a -- comment\n b") == ["a", "b"]
        assert values("a # comment\n b") == ["a", "b"]

    def test_semicolons_are_trivia(self):
        assert values("a; b") == ["a", "b"]

    def test_dotted_reference(self):
        assert values("emp.sal") == ["emp", ".", "sal"]
        assert kinds("emp.sal") == ["ident", "op", "ident"]

    def test_positions(self):
        tokens = tokenize("ab\n cd")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 2)

    def test_unexpected_char(self):
        with pytest.raises(ParseError) as excinfo:
            tokenize("a @ b")
        assert "line 1" in str(excinfo.value)

    def test_rule_text_from_paper(self):
        text = 'define rule NoBobs on append emp if emp.name = "Bob" ' \
               'then delete emp'
        words = values(text)
        assert "define" in words
        assert "rule" in words
        assert "NoBobs" in words
        assert "Bob" in words


class TestLexicalErrors:
    """Every lexical error is a ParseError naming its own position."""

    def error(self, text):
        with pytest.raises(ParseError) as excinfo:
            tokenize(text)
        return str(excinfo.value)

    def test_non_ascii_numeral_is_not_a_number(self):
        # str.isdigit() accepts '²', which int() rejects: it used to
        # escape as ValueError
        assert self.error("x = ²") == \
            "unexpected character '²' (line 1, column 5)"

    def test_non_ascii_decimal_digit_is_not_a_number(self):
        # '٣' (ARABIC-INDIC DIGIT THREE) used to lex silently as 3
        assert self.error("x = ٣") == \
            "unexpected character '٣' (line 1, column 5)"
        assert self.error("x = 5٣") == \
            "unexpected character '٣' (line 1, column 6)"

    def test_non_ascii_letters_are_identifier_characters(self):
        assert values("é1 = naïve²") == ["é1", "=", "naïve²"]

    def test_dollar_alone(self):
        assert self.error("a = \n  $ + 1") == \
            "expected a parameter name after '$' (line 2, column 3)"

    def test_unterminated_string_position(self):
        assert self.error('a\n = "oops\nmore') == \
            "unterminated string literal (line 2, column 4)"

    def test_bad_escape_position(self):
        assert self.error('a = "ok\\n\nno\\x"') == \
            "bad escape \\x (line 2, column 3)"
        # the escape is reported even when the string never closes,
        # and a lone trailing backslash is a bad escape too
        assert self.error('"no\\q') == "bad escape \\q (line 1, column 4)"
        assert self.error('"no\\') == "bad escape \\ (line 1, column 4)"

    def test_eof_position_after_trailing_newline(self):
        eof = tokenize("a -- x\n")[-1]
        assert (eof.kind, eof.line, eof.column) == ("eof", 2, 1)

    def test_multiline_string_advances_the_line(self):
        tokens = tokenize('"a\nb" c')
        assert tokens[0].value == "a\nb"
        assert (tokens[1].line, tokens[1].column) == (2, 4)
