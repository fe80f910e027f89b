from __future__ import annotations

import pytest

from congo.errors import LexError
from congo.lexer import TokenKind, tokenize


def lex(source):
    return [(t.kind, t.text) for t in tokenize(source)[:-1]]  # drop EOF


def test_context_declaration_token_run():
    assert lex("contexts = [Weather()]") == [
        (TokenKind.IDENT, "contexts"),
        (TokenKind.PUNCT, "="),
        (TokenKind.PUNCT, "["),
        (TokenKind.IDENT, "Weather"),
        (TokenKind.PUNCT, "("),
        (TokenKind.PUNCT, ")"),
        (TokenKind.PUNCT, "]"),
    ]


def test_annotation_with_trailing_plus_marker():
    toks = lex("|a|@(Ctx=TRUE)+ -> 1")
    assert toks == [
        (TokenKind.PUNCT, "|"),
        (TokenKind.IDENT, "a"),
        (TokenKind.PUNCT, "|"),
        (TokenKind.PUNCT, "@("),
        (TokenKind.IDENT, "Ctx"),
        (TokenKind.PUNCT, "="),
        (TokenKind.IDENT, "TRUE"),
        (TokenKind.PUNCT, ")"),
        (TokenKind.PUNCT, "+"),
        (TokenKind.PUNCT, "->"),
        (TokenKind.INT, "1"),
    ]


def test_leading_plus_annotation_marker():
    toks = lex("|a| +@(Ctx=TRUE) { }")
    texts = [t for _, t in toks]
    assert texts == ["|", "a", "|", "+", "@(", "Ctx", "=", "TRUE", ")", "{", "}"]


def test_keywords_vs_identifiers():
    toks = dict(((t.text, t.kind) for t in tokenize(
        "module function let return if else while true false null not contexts proceed"
    )[:-1]))
    for kw in ("module", "function", "let", "return", "if", "else", "while",
               "true", "false", "null", "not"):
        assert toks[kw] is TokenKind.KEYWORD
    # positional words stay plain identifiers so they work as method names
    assert toks["contexts"] is TokenKind.IDENT
    assert toks["proceed"] is TokenKind.IDENT


def test_number_literals():
    toks = tokenize("7 3.25 10.0")[:-1]
    assert [(t.kind, t.value) for t in toks] == [
        (TokenKind.INT, 7),
        (TokenKind.FLOAT, 3.25),
        (TokenKind.FLOAT, 10.0),
    ]


def test_float_literal_too_large_for_a_double_is_a_lex_error():
    with pytest.raises(LexError) as err:
        tokenize("x = " + "9" * 400 + ".5")
    assert err.value.message == "float literal is too large for a double"
    assert err.value.span.column == 5


def test_integer_then_dot_is_not_a_float():
    # "1.x" must lex as INT DOT IDENT so dotted names stay expressible
    kinds = [t.kind for t in tokenize("1.x")[:-1]]
    assert kinds == [TokenKind.INT, TokenKind.PUNCT, TokenKind.IDENT]


def test_string_escapes():
    (tok,) = tokenize(r'"a\nb\t\"c\\"')[:-1]
    assert tok.kind is TokenKind.STRING
    assert tok.value == 'a\nb\t"c\\'


def test_unterminated_string_reports_opening_quote():
    with pytest.raises(LexError) as err:
        tokenize('"unterminated')
    assert err.value.span.line == 1
    assert err.value.span.column == 1


def test_unsupported_escape_rejected():
    with pytest.raises(LexError):
        tokenize(r'"bad \q escape"')


def test_comments_run_to_end_of_line():
    toks = lex("1 # base function\n2")
    assert toks == [(TokenKind.INT, "1"), (TokenKind.INT, "2")]


def test_adjacent_pipes_lex_as_one_token():
    assert lex("||") == [(TokenKind.PUNCT, "||")]
    assert lex("| |") == [(TokenKind.PUNCT, "|"), (TokenKind.PUNCT, "|")]


def test_two_char_operators():
    assert [t for _, t in lex("== != <= >= -> && ||")] == [
        "==", "!=", "<=", ">=", "->", "&&", "||",
    ]


# numbers are ASCII digits: superscript two and Arabic-Indic three are not
@pytest.mark.parametrize("bad", ["@", "&", "!", ";", "$", "^", "~", "\u00b2", "\u0663"])
def test_illegal_characters(bad):
    with pytest.raises(LexError):
        tokenize(f"let a = 1 {bad}")


def test_backslash_before_a_line_break_leaves_the_string_unterminated():
    with pytest.raises(LexError) as err:
        tokenize('let s = "ab\\\nc"')
    assert err.value.message == "unterminated string literal"
    assert (err.value.span.line, err.value.span.column) == (1, 9)


def test_unsupported_escape_is_reported_before_a_missing_quote():
    with pytest.raises(LexError) as err:
        tokenize('  "a\\qb')
    assert err.value.message == "unsupported escape '\\q' in string literal"
    assert err.value.span.column == 5


def test_eof_after_a_trailing_comment_sits_at_the_hash():
    eof = tokenize("let a = 1  # done")[-1]
    assert eof.kind is TokenKind.EOF
    assert (eof.span.line, eof.span.column) == (1, 12)
    assert tokenize("a\n")[-1].span.line == 2


def test_bare_at_not_followed_by_paren():
    with pytest.raises(LexError) as err:
        tokenize("@x")
    assert "@" in str(err.value)


def test_spans_track_lines_and_columns():
    toks = tokenize("let a = 1\n  a = 2\n")
    spans = [(t.text, t.span.line, t.span.column) for t in toks[:-1]]
    assert spans == [
        ("let", 1, 1), ("a", 1, 5), ("=", 1, 7), ("1", 1, 9),
        ("a", 2, 3), ("=", 2, 5), ("2", 2, 7),
    ]


def test_crlf_sources_lex_cleanly():
    toks = tokenize("let a = 1\r\nlet b = 2\r\n")
    assert [t.text for t in toks[:-1]] == ["let", "a", "=", "1", "let", "b", "=", "2"]
    assert toks[4].span.line == 2 and toks[4].span.column == 1


def test_eof_token_terminates_stream():
    toks = tokenize("")
    assert len(toks) == 1
    assert toks[0].kind is TokenKind.EOF
