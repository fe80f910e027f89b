"""Lexer for ConGo source text.

One token table drives the scan: a single pattern with one named group
per token class, applied to each line in turn, as in Lex.  Comments run
from ``#`` to end of line.  The layer-marker sequences ``@(``, ``)+`` and
``|+@(`` are emitted as ordinary token runs (``@(`` is one token, the
plus signs separate tokens) and disambiguated by the parser from their
position.

Each ``Token`` and its ``SourceSpan`` is built with the C tuple
constructor (``tuple.__new__``), so a token costs no Python-level call;
only a string literal calls ``_decode``.

``tokenize`` runs with the cyclic collector paused (:func:`congo.nodes.gc_paused`).
"""

from __future__ import annotations

import math
import re
import sys
from enum import Enum
from typing import List, NamedTuple

from .errors import LexError
from .nodes import SourceSpan, gc_paused


class TokenKind(Enum):
    IDENT = "ident"
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    KEYWORD = "keyword"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset({
    "module", "function", "let", "return", "if", "else", "while",
    "true", "false", "null", "not",
})

# 'contexts' and 'proceed' stay ordinary identifiers; the parser treats
# them positionally so they remain usable as method and property names.

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}

# Tried left to right at each position; spaces, tabs and carriage returns
# between tokens match no group and are skipped.  Numbers are ASCII
# digits only.  A string runs to its closing quote or, when it has none,
# to the end of the line: ``close`` is then empty.
_TOKEN = re.compile(r"""
      (?P<float>   [0-9]+ \. [0-9]+ )
    | (?P<int>     [0-9]+ )
    | (?P<name>    [A-Za-z_] [A-Za-z0-9_]* )
    | (?P<string>  " (?P<body> (?: [^"\\] | \\. )* ) (?P<close> "? ) )
    | (?P<punct>   @\( | -> | == | != | <= | >= | \|\| | && | [-=<>+*/%()\[\]{},|:.] )
    | (?P<end>     \# .* | $ )
    | (?P<bad>     [^ \t\r] )
""", re.VERBOSE)

_ESCAPE = re.compile(r"\\(.)")


class Token(NamedTuple):
    kind: TokenKind
    text: str
    value: object  # decoded literal for INT/FLOAT/STRING, else None
    span: SourceSpan

    def __repr__(self) -> str:  # compact form keeps test failures readable
        return f"Token({self.kind.value}, {self.text!r}, {self.span.line}:{self.span.column})"


def _decode(m: re.Match, span: SourceSpan) -> str:
    """The value of a string token; ``span`` is its opening quote."""
    body = m.group("body")
    for esc in _ESCAPE.finditer(body):
        if esc.group(1) not in _ESCAPES:
            raise LexError(
                f"unsupported escape '{esc.group()}' in string literal",
                SourceSpan(span.file, span.line, span.column + 1 + esc.start()),
            )
    if not m.group("close"):
        raise LexError("unterminated string literal", span)
    return _ESCAPE.sub(lambda esc: _ESCAPES[esc.group(1)], body)


@gc_paused
def tokenize(source: str, file: str = "<string>") -> List[Token]:
    """Tokenize ``source``, ending the stream with a single EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    new = tuple.__new__  # builds a Token or a SourceSpan with no Python-level call
    finditer = _TOKEN.finditer
    # the kinds of the common tokens: an Enum member read off its class is a
    # Python-level lookup
    ident, keyword, punct, integer = TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.PUNCT, TokenKind.INT
    for line, text in enumerate(source.split("\n"), 1):
        for m in finditer(text):  # every line ends with an 'end' match
            kind, start = m.lastgroup, m.start()
            if kind == "end":
                break
            word = m.group()
            span = new(SourceSpan, (file, line, start + 1))
            if kind == "name":
                append(new(Token, (keyword if word in KEYWORDS else ident, word, None, span)))
            elif kind == "punct":
                append(new(Token, (punct, word, None, span)))
            elif kind == "int":
                try:
                    value = int(word)
                except ValueError:  # longer than Python's int-from-text limit
                    raise LexError(
                        f"integer literal has more than {sys.get_int_max_str_digits()} digits",
                        span,
                    ) from None
                append(new(Token, (integer, word, value, span)))
            elif kind == "float":
                value = float(word)
                if math.isinf(value):
                    raise LexError("float literal is too large for a double", span)
                append(new(Token, (TokenKind.FLOAT, word, value, span)))
            elif kind == "string":
                value = _decode(m, span)
                append(new(Token, (TokenKind.STRING, value, value, span)))
            else:
                raise LexError(f"illegal character {word!r}", span)
    # the end of the last line, or the '#' of a comment that ends the source
    append(new(Token, (TokenKind.EOF, "", None, new(SourceSpan, (file, line, start + 1)))))
    return tokens
