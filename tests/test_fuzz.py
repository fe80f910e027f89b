"""The front end turns any text into a module or a ConGo error, never a crash."""

from __future__ import annotations

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from congo.errors import CongoError
from congo.lowering import compile_source

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
