"""The front end turns any text into a module or a ConGo error, never a crash."""

from __future__ import annotations

import sys
from decimal import Decimal

from hypothesis import example, given, settings
from hypothesis import strategies as st

from congo.errors import CongoError
from congo.lowering import compile_source
from congo.parser import parse_source
from congo.printer import format_module

# every character the lexer gives a meaning to, plus some it rejects
_ALPHABET = (
    "abfxzAC_0189 \t\r\n\"\\#@&!=<>+-*/%()[]{},|:."
    ";$'\u00e9\f\u00b2\u0663"  # illegal, among them two non-ASCII digits
)

_FRAGMENTS = [
    "module m\n", "contexts = [C()]\n", "function f = ", "||", "|x|", "@(C=ON)",
    "+@(C=ON)", ")+", "->", "{", "}", "let ", "return ", "if ", "else ", "while ",
    "proceed(", "f(", "x: m(", "println(", "setConcrete(", "\"s\\n\"", "1.5", "\\\n",
]

_LONG_DIGITS = st.integers(
    sys.get_int_max_str_digits() - 2, sys.get_int_max_str_digits() + 2
).map(lambda n: "7" * n)

_SOURCES = st.lists(
    st.one_of(
        st.text(alphabet=_ALPHABET, max_size=6),
        st.sampled_from(_FRAGMENTS),
        _LONG_DIGITS,
    ),
    max_size=25,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.booleans(), _SOURCES)
def test_compile_source_raises_only_congo_errors(with_header, text):
    try:
        compile_source(("module m\n" if with_header else "") + text)
    except CongoError:
        pass


def _exact_literal(value: float) -> str:
    """``value`` written out in full positional digits, as ConGo source."""
    text = format(Decimal(value), "f")
    return text if "." in text else text + ".0"


@settings(max_examples=200, deadline=None)
@example([1e23, 1e-05, 5e-324, 1.7976931348623157e308])
@given(st.lists(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(abs),
    min_size=1, max_size=4,
))
def test_float_literals_survive_a_print_parse_round_trip(values):
    src = "module m\nfunction main = || -> " + " + ".join(map(_exact_literal, values)) + "\n"
    first = parse_source(src)
    assert parse_source(format_module(first)) == first
