"""Oracles for the front end's positions and its Python-level cost.

Every token's span points at its own text, the tokens of a line cover it
up to whitespace and a comment, and a source cut at any token boundary
either parses or raises a ``CongoError`` that points inside the source.
``parse`` refuses a stream without its EOF token, the one the parser's
lookahead rests on.  The last test counts the Python calls ``tokenize``
and ``parse`` make.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path

import pytest

from congo import nodes, parse, parse_source, tokenize
from congo.errors import CongoError, ParseError
from congo.lexer import Token, TokenKind
from congo.nodes import SourceSpan
from test_frontend_gc import big_module

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.congo"))

# Every token class: keywords, identifiers, ints, floats, strings with each
# escape, every punctuator, comments, tabs, CRLF line ends and the layer
# marker runs '@(', ')+' and '|+@('.
EVERY_TOKEN = "\r\n".join([
    "# a leading comment",
    "module spans.sample   # a trailing comment",
    "contexts = [Weather(), Battery()]",
    'function f = |a, b| -> 1',
    'function f = |a, b| @(Weather=RAINY)+ { println("tab\\there \\"q\\" \\\\ \\n\\r") }',
    "function f = |a,b|+@(Battery=LOW, Weather=SUNNY) {",
    "\tlet x = 3.25 * a - 10 % 4 / 2",
    "  if x >= 1.5 && not (b != 2) || x <= 0 { return -x } else { x = x / 2 }",
    "  while x < 10 && x > -1 { x = x + 1 }",
    '  return a:size() + "" == null',
    "}",
    "function f = |a, b| @(Weather=SUNNY) -> proceed(a, b) + true",
    "function g = || -> |y| -> [y]   # not valid ConGo past the lexer",
    "# a comment at the end, with no newline after it",
])

SOURCES = {
    **{path.name: path.read_text() for path in DEMOS},
    "big_module(200)": big_module(200),
    "every token": EVERY_TOKEN,
}


def string_end(line: str, quote: int) -> int:
    """The index just past the string literal whose opening quote is at ``quote``."""
    i = quote + 1
    while i < len(line) and line[i] != '"':
        i += 2 if line[i] == "\\" else 1
    return min(i + 1, len(line))


@pytest.mark.parametrize("name", SOURCES)
def test_every_span_points_at_its_tokens_own_text(name):
    source = SOURCES[name]
    lines = source.split("\n")
    tokens = tokenize(source, name)
    covered = {}  # line -> the index just past the last token on it
    for tok in tokens[:-1]:
        assert type(tok) is Token and type(tok.span) is SourceSpan
        assert tok.span.file == name
        line, start = lines[tok.span.line - 1], tok.span.column - 1
        if tok.kind is TokenKind.STRING:
            assert line[start] == '"'
            end = string_end(line, start)
        else:
            end = start + len(tok.text)
            assert line[start:end] == tok.text
        # what lies between this token and the one before it on its line
        assert line[covered.get(tok.span.line, 0):start].strip(" \t\r") == ""
        covered[tok.span.line] = end
    for number, line in enumerate(lines, 1):
        rest = line[covered.get(number, 0):].lstrip(" \t\r")
        assert rest == "" or rest.startswith("#")
    # EOF sits at the end of the last line, or at the '#' of a comment ending it
    eof, last = tokens[-1], lines[-1]
    comment = last.find("#", covered.get(len(lines), 0))
    assert type(eof) is Token and eof.kind is TokenKind.EOF
    assert eof.span == (name, len(lines), (comment if comment >= 0 else len(last)) + 1)


def test_tokens_keep_their_named_tuple_behaviour():
    tokens = tokenize('let s = "a\\tb" 1.5', "<t>")
    assert [repr(t) for t in tokens] == [
        "Token(keyword, 'let', 1:1)",
        "Token(ident, 's', 1:5)",
        "Token(punct, '=', 1:7)",
        "Token(string, 'a\\tb', 1:9)",
        "Token(float, '1.5', 1:16)",
        "Token(eof, '', 1:19)",
    ]
    string = tokens[3]
    assert (string.kind, string.text, string.value) == (TokenKind.STRING, "a\tb", "a\tb")
    assert str(string.span) == "<t>:1:9"
    assert repr(string.span) == "SourceSpan(file='<t>', line=1, column=9)"
    assert string.span == SourceSpan("<t>", 1, 9) and string.span._replace(line=4).line == 4
    moved = string._replace(span=string.span._replace(column=2))
    assert type(moved) is Token and moved.span == ("<t>", 1, 2)
    assert tokens[4].value == 1.5 and tokens[4]._asdict()["text"] == "1.5"


def token_offsets(source: str):
    """The offset in ``source`` at which each token (EOF left out) starts."""
    starts = [0]
    for line in source.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    return [starts[t.span.line - 1] + t.span.column - 1 for t in tokenize(source)[:-1]]


def inside(span: SourceSpan, source: str) -> bool:
    lines = source.split("\n")
    return 1 <= span.line <= len(lines) and 1 <= span.column <= len(lines[span.line - 1]) + 1


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_a_demo_cut_at_any_token_boundary_parses_or_raises_inside_the_source(path):
    source = path.read_text()
    offsets = token_offsets(source)
    raised = 0
    for offset in offsets:
        prefix = source[:offset]
        try:
            parse_source(prefix, "<cut>")
        except CongoError as exc:  # an IndexError or any other error fails the test
            assert exc.span is not None and exc.span.file == "<cut>"
            assert inside(exc.span, prefix), (offset, exc)
            raised += 1
    # only a cut between declarations, or right after a complete operand,
    # leaves a module that parses
    assert raised > 0.9 * len(offsets)


# Each of these ends where the parser looks past the current token.
@pytest.mark.parametrize("tail,message,line,column", [
    ("contexts =", "expected contexts, function, found 'contexts'", 2, 1),
    ("contexts = [", "expected context constructor, found 'end of input'", 2, 13),
    ("function f = |o| -> o:", "expected contexts, function, found ':'", 2, 22),
    ("function f = |o| -> o: m", "expected contexts, function, found ':'", 2, 22),
    ("function f = |o| -> o +", "expected (, a literal, an identifier, |, found 'end of input'", 2, 24),
    ("function f = |x| @(", "expected context name, found 'end of input'", 2, 20),
    ("function f = |x| +", "expected ->, @(, {, found '+'", 2, 18),
    ("function f = |x| +@(", "expected context name, found 'end of input'", 2, 21),
    ("function f = |x| { x", "expected }, found 'end of input'", 2, 21),
    ("function f = |x| { x =", "expected (, a literal, an identifier, |, found 'end of input'", 2, 23),
])
def test_lookahead_at_the_end_of_input_reports_the_same_error(tail, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_source("module m\n" + tail, "<cut>")
    assert str(err.value) == f"{message} (<cut>:{line}:{column})"
    assert err.value.span == SourceSpan("<cut>", line, column)


def test_a_string_with_an_operators_text_is_a_string_literal():
    # the parser compares a token's text before its kind
    body = parse_source(
        'module m\nfunction f = |x| { let a = x "+" "-" "not" x "(" x ":" x "=" "true" "null" }'
    ).decls[0].fn.body
    assert body.stmts == (
        nodes.LetStmt("a", nodes.Ident("x", None), None),
        *(nodes.ExprStmt(nodes.StringLit(text, None), None) for text in ("+", "-", "not")),
        nodes.ExprStmt(nodes.Ident("x", None), None),
        nodes.ExprStmt(nodes.StringLit("(", None), None),
        nodes.ExprStmt(nodes.Ident("x", None), None),
        nodes.ExprStmt(nodes.StringLit(":", None), None),
        nodes.ExprStmt(nodes.Ident("x", None), None),
        *(nodes.ExprStmt(nodes.StringLit(text, None), None) for text in ("=", "true", "null")),
    )


@pytest.mark.parametrize("tokens", [
    [], tokenize("module m")[:-1], tokenize("module m\nfunction f = || -> 1 +")[:-1],
], ids=["empty", "module", "operator"])
def test_a_token_stream_without_its_eof_token_is_refused(tokens):
    with pytest.raises(ValueError, match="must end with its EOF token"):
        parse(tokens)


def python_calls(fn, *args):
    """The Python function calls ``fn(*args)`` makes, itself included."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    gc.collect()  # no finalizer of earlier garbage runs inside the count
    # nor a collector callback some other library installed (hypothesis does)
    callbacks, gc.callbacks[:] = gc.callbacks[:], []
    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
        gc.callbacks[:] = callbacks
    return calls, result


# The counts measured once tokens were built by tuple.__new__ and the parser
# read the current token in place and consumed it with one test.  tokenize
# makes two calls (itself and the collector pause) plus one per string
# literal; a Python call per token, or per parser lookup, fails here.
def test_python_calls_of_the_front_end_stay_within_the_measured_count():
    source = big_module(200)
    calls, tokens = python_calls(tokenize, source, "<calls>")
    strings = sum(tok.kind is TokenKind.STRING for tok in tokens)
    assert (len(tokens), strings) == (29216, 200)
    assert calls <= 2 + strings
    calls, _ = python_calls(parse, tokens)
    assert calls <= 77431
