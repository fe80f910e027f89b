from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import congo.nodes as N
from congo.errors import DuplicateBaseError, ParseError
from congo.parser import parse_source
from congo.printer import format_expr, format_module

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.congo"))

SP = N.SourceSpan("<gen>", 1, 1)


def parse_fn(source, name="f"):
    """Parse a single function declaration and return its lambda."""
    mod = parse_source(f"module m\nfunction {name} = {source}\n")
    return mod.decls[0].fn


# --- positive forms -------------------------------------------------------


def test_module_header_dotted_name():
    mod = parse_source("module demo.hero.core\n")
    assert mod.name == "demo.hero.core"
    assert mod.context_decl is None
    assert mod.decls == ()


def test_context_declaration_two_ctors():
    mod = parse_source("module m\ncontexts = [ConfusedHero(), Weather()]\n")
    assert mod.context_decl.ctors == ("ConfusedHero", "Weather")


def test_base_plus_replace_layer_pair():
    mod = parse_source(
        "module m\nfunction f = || -> 42\nfunction f = ||@(C=TRUE) -> 7\n"
    )
    base, layer = mod.decls
    assert base.name == layer.name == "f"
    assert base.fn.annotation is None
    assert layer.fn.annotation.mode is N.LayerMode.REPLACE
    assert layer.fn.annotation.constraints == (("C", "TRUE"),)


def test_annotation_modes():
    replace = parse_fn("|a| @(C=TRUE) -> 1")
    before = parse_fn("|a| @(C=TRUE)+ -> 1")
    after = parse_fn("|a| +@(C=TRUE) -> 1")
    assert replace.annotation.mode is N.LayerMode.REPLACE
    assert before.annotation.mode is N.LayerMode.BEFORE_BASE
    assert after.annotation.mode is N.LayerMode.AFTER_BASE


def test_multi_constraint_annotation_preserves_written_order():
    lam = parse_fn("|a| @(B=X, A=Y) -> 1")
    assert lam.annotation.constraints == (("B", "X"), ("A", "Y"))


def test_compact_and_block_bodies():
    compact = parse_fn("|a| -> a + 1")
    block = parse_fn("|a| { return a }")
    assert N.is_compact(compact)
    assert not N.is_compact(block)


def test_zero_param_lambda_uses_pipe_pipe():
    lam = parse_fn("|| -> 0")
    assert lam.params == ()


def test_else_if_chain():
    lam = parse_fn(
        "|n| {\n"
        "  if n < 0 { return 0 }\n"
        "  else if n == 0 { return 1 }\n"
        "  else { return 2 }\n"
        "}"
    )
    outer = lam.body.stmts[0]
    assert isinstance(outer.orelse, N.IfStmt)
    assert isinstance(outer.orelse.orelse, N.Block)


def test_precedence_and_associativity():
    lam = parse_fn("|a, b, c| -> a + b * c == a - b / c || not a && b < c")
    # || is the loosest, so it sits at the root
    assert isinstance(lam.body, N.BinaryOp) and lam.body.op == "||"
    left, right = lam.body.left, lam.body.right
    assert left.op == "=="
    assert left.left.op == "+" and left.left.right.op == "*"
    assert right.op == "&&"
    assert isinstance(right.left, N.UnaryOp) and right.left.op == "not"


def test_method_call_chain_colon_at_line_end():
    lam = parse_fn("|| {\n  let o = DynamicObject():\n    x(1):\n    y(2)\n  return o\n}")
    let = lam.body.stmts[0]
    assert isinstance(let.value, N.MethodCall) and let.value.name == "y"
    assert let.value.receiver.name == "x"


def test_proceed_parses_positionally():
    lam = parse_fn("|a| @(C=TRUE) -> proceed(a + 1)")
    assert isinstance(lam.body, N.Proceed)
    # and as a plain identifier elsewhere
    lam2 = parse_fn("|proceed| -> proceed")
    assert lam2.params == ("proceed",)


def test_call_paren_must_share_the_callee_line():
    # newline before '(' means: identifier statement, then a parenthesized
    # expression statement, not a call
    lam = parse_fn("|f, x| {\n  let a = f\n  (x)\n  return a\n}")
    stmts = lam.body.stmts
    assert isinstance(stmts[0], N.LetStmt)
    assert isinstance(stmts[0].value, N.Ident)
    assert isinstance(stmts[1], N.ExprStmt)
    assert isinstance(stmts[1].expr, N.Ident)


def test_return_value_must_share_the_return_line():
    # a value-looking token on the next line starts a new statement
    lam = parse_fn("|| {\n  return\n  0\n}")
    stmts = lam.body.stmts
    assert isinstance(stmts[0], N.ReturnStmt) and stmts[0].value is None
    assert isinstance(stmts[1], N.ExprStmt)
    assert isinstance(stmts[1].expr, N.IntLit)


def test_bare_return_before_assignment():
    lam = parse_fn("|| {\n  return\n  a = 1\n}")
    stmts = lam.body.stmts
    assert isinstance(stmts[0], N.ReturnStmt) and stmts[0].value is None
    assert isinstance(stmts[1], N.AssignStmt)


def test_strings_with_a_keywords_or_punctuators_text_stay_string_literals():
    # statements branch on the current token's text: the kind must still
    # tell a keyword or punctuator from a string that reads the same
    mod = parse_source(
        "module m\n"
        "function f = |x| {\n"
        '  "let"\n  "return"\n  "if"\n  "while"\n  "{"\n  "}"\n'
        '  if x { "else" }\n'
        '  g("(", ")", ",", "|")\n'
        '  let y = "="\n'
        '  return "contexts"\n'
        "}\n"
    )

    def s(text):
        return N.StringLit(text, SP)

    assert mod.decls[0].fn.body.stmts == (
        *(N.ExprStmt(s(text), SP) for text in ("let", "return", "if", "while", "{", "}")),
        N.IfStmt(N.Ident("x", SP), N.Block((N.ExprStmt(s("else"), SP),), SP), None, SP),
        N.ExprStmt(N.Call("g", tuple(s(text) for text in ("(", ")", ",", "|")), SP), SP),
        N.LetStmt("y", s("="), SP),
        N.ReturnStmt(s("contexts"), SP),
    )
    assert parse_source(format_module(mod), "<printed>") == mod


def test_line_starting_operator_begins_a_new_statement():
    lam = parse_fn("|a, b| {\n  a\n  - b\n}")
    stmts = lam.body.stmts
    assert isinstance(stmts[0].expr, N.Ident)
    assert isinstance(stmts[1].expr, N.UnaryOp) and stmts[1].expr.op == "-"


def test_line_starting_lambda_is_not_a_boolean_or():
    lam = parse_fn("|a| {\n  a\n  || -> 1\n}")
    stmts = lam.body.stmts
    assert isinstance(stmts[0].expr, N.Ident)
    assert isinstance(stmts[1].expr, N.Lambda)


def test_expression_may_break_after_an_operator():
    lam = parse_fn("|| {\n  return 1 +\n    2 * 3\n}")
    ret = lam.body.stmts[0]
    assert isinstance(ret.value, N.BinaryOp) and ret.value.op == "+"


def test_spans_point_into_the_source():
    src = "module m\nfunction f = |a| {\n  return a + 1\n}\n"
    mod = parse_source(src)
    lines = src.splitlines()
    for node in N.walk(mod):
        span = getattr(node, "span", None)
        if span is None:
            continue
        assert 1 <= span.line <= len(lines)
        assert 1 <= span.column <= len(lines[span.line - 1]) + 1


# --- negative fixtures, spans frozen by hand ------------------------------


def test_duplicate_base_reported_at_second_declaration():
    with pytest.raises(DuplicateBaseError) as err:
        parse_source("module m\nfunction f = || -> 1\nfunction f = || -> 2\n")
    assert (err.value.span.line, err.value.span.column) == (3, 1)


def test_duplicate_parameter():
    with pytest.raises(ParseError) as err:
        parse_source("module m\nfunction f = |a, a| -> 1\n")
    assert (err.value.span.line, err.value.span.column) == (2, 18)


def test_annotation_cannot_carry_both_plus_markers():
    with pytest.raises(ParseError) as err:
        parse_source("module m\nfunction f = |a| +@(C=TRUE)+ -> 1\n")
    assert (err.value.span.line, err.value.span.column) == (2, 28)


def test_duplicate_context_within_annotation():
    with pytest.raises(ParseError) as err:
        parse_source("module m\nfunction f = |a| @(C=TRUE, C=FALSE) -> 1\n")
    assert (err.value.span.line, err.value.span.column) == (2, 28)
    assert "duplicate context" in err.value.message


def test_second_contexts_declaration_rejected():
    with pytest.raises(ParseError) as err:
        parse_source("module m\ncontexts = [A()]\ncontexts = [B()]\n")
    assert (err.value.span.line, err.value.span.column) == (3, 1)


def test_context_ctor_requires_call_parens():
    with pytest.raises(ParseError) as err:
        parse_source("module m\ncontexts = [A]\n")
    assert (err.value.span.line, err.value.span.column) == (2, 14)


def test_missing_body_names_the_expected_tokens():
    with pytest.raises(ParseError) as err:
        parse_source("module m\nfunction f = |a|\nfunction g = || -> 1\n")
    assert err.value.expected == frozenset({"->", "{", "@("})


def test_only_declarations_at_top_level():
    with pytest.raises(ParseError) as err:
        parse_source("module m\nlet x = 1\n")
    assert err.value.expected == frozenset({"contexts", "function"})


def test_method_colon_cannot_start_a_line():
    src = "module m\nfunction f = |o| {\n  return o\n  : g()\n}\n"
    with pytest.raises(ParseError) as err:
        parse_source(src)
    assert (err.value.span.line, err.value.span.column) == (4, 3)


def test_120_nested_parenthesised_operations_parse():
    src = "module m\nfunction f = || -> " + "(1 + " * 120 + "1" + ")" * 120 + "\n"
    expr, depth = parse_source(src).decls[0].fn.body, 0
    while isinstance(expr, N.BinaryOp):
        assert expr.op == "+" and expr.left == N.IntLit(1, expr.left.span)
        expr, depth = expr.right, depth + 1
    assert depth == 120 and expr.value == 1


@pytest.mark.parametrize("body, open_, close", [("-> ", "(", ")"), ("", "{ ", " }")])
def test_nesting_deeper_than_the_stack_is_a_parse_error(body, open_, close):
    src = f"module m\nfunction f = || {body}" + open_ * 2000 + "1" + close * 2000 + "\n"
    with pytest.raises(ParseError, match="nesting too deep") as err:
        parse_source(src)
    assert err.value.span.line == 2


# --- round-trips -----------------------------------------------------------


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_corpus_round_trips(path):
    first = parse_source(path.read_text(), file=str(path))
    printed = format_module(first)
    second = parse_source(printed, file="<printed>")
    assert first == second


_ident = st.sampled_from(["a", "b", "c", "tmp", "box"])
_ctx = st.sampled_from(["Alpha", "Beta", "Gamma"])
_meta = st.sampled_from(["ON", "OFF", "HIGH"])
_string_text = st.text(alphabet='abXY 09.!\n\t"\\', max_size=6)


def _literals():
    return st.one_of(
        st.integers(0, 9999).map(lambda v: N.IntLit(v, SP)),
        st.tuples(st.integers(0, 99), st.integers(0, 99)).map(
            lambda ab: N.FloatLit(float(f"{ab[0]}.{ab[1]}"), SP)
        ),
        _string_text.map(lambda s: N.StringLit(s, SP)),
        st.booleans().map(lambda b: N.BoolLit(b, SP)),
        st.just(N.NullLit(SP)),
        _ident.map(lambda n: N.Ident(n, SP)),
    )


_BINOPS = ["||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"]


def _exprs():
    return st.recursive(
        _literals(),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(_BINOPS), inner, inner).map(
                lambda t: N.BinaryOp(t[0], t[1], t[2], SP)
            ),
            st.tuples(st.sampled_from(["-", "not"]), inner).map(
                lambda t: N.UnaryOp(t[0], t[1], SP)
            ),
            st.tuples(_ident, st.lists(inner, max_size=2)).map(
                lambda t: N.Call(t[0], tuple(t[1]), SP)
            ),
            st.tuples(inner, _ident, st.lists(inner, max_size=2)).map(
                lambda t: N.MethodCall(t[0], t[1], tuple(t[2]), SP)
            ),
            st.lists(inner, max_size=1).map(lambda a: N.Proceed(tuple(a), SP)),
        ),
        max_leaves=12,
    )


def _stmts():
    expr = _exprs()
    simple = st.one_of(
        st.tuples(_ident, expr).map(lambda t: N.LetStmt(t[0], t[1], SP)),
        st.tuples(_ident, expr).map(lambda t: N.AssignStmt(t[0], t[1], SP)),
        st.one_of(st.none(), expr).map(lambda v: N.ReturnStmt(v, SP)),
        expr.map(lambda e: N.ExprStmt(e, SP)),
    )

    def compound(inner):
        block = st.lists(inner, max_size=2).map(lambda s: N.Block(tuple(s), SP))
        return st.one_of(
            st.tuples(expr, block, st.one_of(st.none(), block)).map(
                lambda t: N.IfStmt(t[0], t[1], t[2], SP)
            ),
            st.tuples(expr, block).map(lambda t: N.WhileStmt(t[0], t[1], SP)),
        )

    return st.recursive(simple, compound, max_leaves=6)


@st.composite
def _modules(draw):
    n_decls = draw(st.integers(1, 3))
    ctx_decl = draw(
        st.one_of(
            st.none(),
            st.lists(_ctx, min_size=1, max_size=3, unique=True).map(
                lambda cs: N.ContextDecl(tuple(cs), SP)
            ),
        )
    )
    decls = []
    for index in range(n_decls):
        params = draw(st.lists(_ident, max_size=3, unique=True))
        annotation = draw(
            st.one_of(
                st.none(),
                st.tuples(
                    st.lists(st.tuples(_ctx, _meta), min_size=1, max_size=2,
                             unique_by=lambda cv: cv[0]),
                    st.sampled_from(list(N.LayerMode)),
                ).map(lambda t: N.LayerAnnotation(tuple(t[0]), t[1], SP)),
            )
        )
        body = draw(
            st.one_of(
                _exprs(),
                st.lists(_stmts(), max_size=3).map(lambda s: N.Block(tuple(s), SP)),
            )
        )
        lam = N.Lambda(tuple(params), annotation, body, SP)
        decls.append(N.FunctionDecl(f"fn{index}", lam, SP))
    return N.ModuleAst("gen.mod", ctx_decl, tuple(decls), SP)


@settings(max_examples=120, deadline=None)
@given(_modules())
def test_print_parse_round_trip(module):
    printed = format_module(module)
    reparsed = parse_source(printed, file="<roundtrip>")
    assert reparsed == module


@settings(max_examples=150, deadline=None)
@given(_exprs())
def test_expression_print_parse_round_trip(expr):
    printed = format_expr(expr)
    lam = parse_fn(f"|a, b, c, tmp, box| -> {printed}")
    assert lam.body == expr
