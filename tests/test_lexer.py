from __future__ import annotations

import math
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congo.errors import LexError
from congo.lexer import Token, TokenKind, tokenize
from congo.nodes import SourceSpan


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


# --- the lexer against a reference with one named group per token class ------

# The table-driven lexer this module's lexer replaced, kept as the oracle:
# one named group per token class, dispatched on ``lastgroup``.
_REFERENCE_TOKEN = re.compile(r"""
      (?P<float>   [0-9]+ \. [0-9]+ )
    | (?P<int>     [0-9]+ )
    | (?P<name>    [A-Za-z_] [A-Za-z0-9_]* )
    | (?P<string>  " (?P<body> (?: [^"\\] | \\. )* ) (?P<close> "? ) )
    | (?P<punct>   @\( | -> | == | != | <= | >= | \|\| | && | [-=<>+*/%()\[\]{},|:.] )
    | (?P<end>     \# .* | $ )
    | (?P<bad>     [^ \t\r] )
""", re.VERBOSE)

_REFERENCE_KEYWORDS = {
    "module", "function", "let", "return", "if", "else", "while",
    "true", "false", "null", "not",
}
_REFERENCE_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


def reference_tokenize(source, file="<oracle>"):
    tokens = []
    for line, text in enumerate(source.split("\n"), 1):
        for m in _REFERENCE_TOKEN.finditer(text):
            kind, start = m.lastgroup, m.start()
            if kind == "end":
                break
            word = m.group()
            span = SourceSpan(file, line, start + 1)
            if kind == "name":
                kind = TokenKind.KEYWORD if word in _REFERENCE_KEYWORDS else TokenKind.IDENT
                tokens.append(Token(kind, word, None, span))
            elif kind == "punct":
                tokens.append(Token(TokenKind.PUNCT, word, None, span))
            elif kind == "int":
                try:
                    value = int(word)
                except ValueError:
                    raise LexError(
                        f"integer literal has more than {sys.get_int_max_str_digits()} digits",
                        span,
                    ) from None
                tokens.append(Token(TokenKind.INT, word, value, span))
            elif kind == "float":
                value = float(word)
                if math.isinf(value):
                    raise LexError("float literal is too large for a double", span)
                tokens.append(Token(TokenKind.FLOAT, word, value, span))
            elif kind == "string":
                body = m.group("body")
                for esc in re.finditer(r"\\(.)", body):
                    if esc.group(1) not in _REFERENCE_ESCAPES:
                        raise LexError(
                            f"unsupported escape '{esc.group()}' in string literal",
                            SourceSpan(file, line, start + 2 + esc.start()),
                        )
                if not m.group("close"):
                    raise LexError("unterminated string literal", span)
                value = re.sub(r"\\(.)", lambda esc: _REFERENCE_ESCAPES[esc.group(1)], body)
                tokens.append(Token(TokenKind.STRING, value, value, span))
            else:
                raise LexError(f"illegal character {word!r}", span)
    tokens.append(Token(TokenKind.EOF, "", None, SourceSpan(file, line, start + 1)))
    return tokens


def lexed(lexer, source):
    """The tokens ``lexer`` makes of ``source``, or its error's message and span."""
    try:
        return lexer(source, "<oracle>")
    except LexError as err:
        return ("LexError", err.message, err.span)


# Fragments of every token class, each of which lexes on its own ...
_TOKENS = (
    # keywords, names (with the positional words), numbers
    "module", "function", "let", "return", "if", "else", "while", "true", "false",
    "null", "not", "contexts", "proceed", "x", "_a1", "Weather", "RAINY", "letx",
    "0", "7", "42", "3.25", "10.0", "1.", ".5", "1.x", "007",
    # strings: escapes, an empty one, one that closes after an escaped quote
    '"s"', '""', r'"a\nb\tc\r"', r'"q\"q"', r'"back\\"', r'"\\\\"',
    # every punctuator, and the layer-marker runs
    "@(", "->", "==", "!=", "<=", ">=", "||", "&&", "-", "=", "<", ">", "+", "*",
    "/", "%", "(", ")", "[", "]", "{", "}", ",", "|", ":", ".", ")+", "|+@(",
    # comments: one mid-line, a bare hash
    "# note", "#",
)
# ... and of every way a line can go wrong.
_ERRORS = (
    # a lone '!', '&', '@' or '$', other punctuation, non-ASCII letters and digits
    "!", "&", "@", "$", ";", "^", "~", "\\", "é", "²", "٣",
    # unterminated strings and bad escapes
    '"open', r'"bad\q"', r'"tail\"', '"ab\\', r'"\x"',
    # an int past Python's int-from-text limit, and a float too large for a double
    "9" * (sys.get_int_max_str_digits() + 1), "9" * 400 + ".5",
)
_SEPARATORS = ("", " ", "  ", "\t", "\r", "\n", "\r\n", " \n", "\n\n")
_CHARACTERS = "ab9_.\"\\#@!&$|=-+ \t\r\né"


@st.composite
def _sources(draw):
    """Runs of tokens and separators, with at most one piece that may fail
    to lex (a listed error or a few random characters) put in anywhere."""
    pieces = draw(st.lists(st.tuples(st.sampled_from(_TOKENS), st.sampled_from(_SEPARATORS)),
                           max_size=30))
    if draw(st.booleans()):
        bad = draw(st.sampled_from(_ERRORS) | st.text(_CHARACTERS, min_size=1, max_size=3))
        at = draw(st.integers(0, len(pieces)))
        pieces.insert(at, (bad, draw(st.sampled_from(_SEPARATORS))))
    return "".join(piece + sep for piece, sep in pieces)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_sources())
@example("let a = 1 # the end")  # a comment that ends the source
@example("a\r\n\tb != c\r")
@example("1. .5 1.x")
@example('"tail\\"')
@example("9" * (sys.get_int_max_str_digits() + 1))
@example("9" * 400 + ".5")
@example("! & @ $ é ٣")
def test_the_lexer_agrees_with_a_named_group_reference(source):
    assert lexed(tokenize, source) == lexed(reference_tokenize, source)
