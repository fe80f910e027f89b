from __future__ import annotations

import dataclasses
import itertools
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import congo.nodes as N
from congo.errors import (
    ArityMismatchError,
    ManglingCollisionError,
    MissingBaseError,
    ProceedOutsideLayerError,
    RedefinitionError,
    UnknownContextError,
)
from congo.interpreter import RunConfig, run
from congo.lowering import MANGLE_MARKER, compile_source, format_ir, mangle
from test_frontend_gc import big_module


def lower_src(body: str):
    return compile_source("module m\n" + body, file="<test>")


# --- mangling ---------------------------------------------------------------


def test_mangle_single_constraint():
    assert (
        mangle("getPos", [("ConfusedHero", "TRUE")])
        == "getPos__$context$__ConfusedHero_TRUE"
    )


def test_mangle_sorts_by_context_name():
    assert mangle("f", [("B", "X"), ("A", "Y")]) == "f__$context$__A_Y__B_X"


def test_mangle_rejects_empty_constraints():
    with pytest.raises(ValueError):
        mangle("f", [])


def test_mangle_injective_over_two_constraint_permutations():
    # brute force: every ordered pair of distinct (ctx, meta) constraints
    ctxs = ["A", "B", "C"]
    metas = ["X", "Y"]
    pairs = [(c, m) for c in ctxs for m in metas]
    seen = {}
    for a, b in itertools.permutations(pairs, 2):
        if a[0] == b[0]:
            continue  # same context twice is rejected upstream
        name = mangle("f", [a, b])
        key = frozenset((a, b))
        assert seen.setdefault(name, key) == key, name


_us_free = st.text(alphabet="ABCDEFgh", min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(_us_free, _us_free), min_size=1, max_size=4,
        unique_by=lambda cv: cv[0],
    ),
    st.lists(
        st.tuples(_us_free, _us_free), min_size=1, max_size=4,
        unique_by=lambda cv: cv[0],
    ),
)
def test_mangle_injective_without_underscores(left, right):
    # underscores in identifiers can collide by construction; the lowering
    # pass turns those into ManglingCollisionError instead
    if frozenset(left) != frozenset(right):
        assert mangle("f", left) != mangle("f", right)
    else:
        assert mangle("f", left) == mangle("f", right)


def test_underscore_identifiers_can_collide_and_are_rejected():
    assert mangle("f", [("A", "Y_B")]) == mangle("f", [("A_Y", "B")])
    with pytest.raises(ManglingCollisionError):
        lower_src(
            "contexts = [A(), A_Y()]\n"
            "function f = || -> 0\n"
            "function f = || @(A=Y_B) -> 1\n"
            "function f = || @(A_Y=B) -> 2\n"
        )


# --- table construction -------------------------------------------------------


def test_base_keeps_its_own_name():
    lowered = lower_src("function f = || -> 0\n")
    table = lowered.tables["f"]
    assert table.base.variant_id.mangled_name == "f"
    assert table.base.constraints == ()
    assert table.base.mode is N.LayerMode.REPLACE
    assert table.layers == []


def test_layer_gets_mangled_name_and_declaration_order():
    lowered = lower_src(
        "contexts = [C()]\n"
        "function f = |x| -> 0\n"
        "function f = |x| @(C=ON) -> 1\n"
        "function f = |x| @(C=OFF) -> 2\n"
    )
    table = lowered.tables["f"]
    assert [v.variant_id.mangled_name for v in table.layers] == [
        f"f{MANGLE_MARKER}C_ON",
        f"f{MANGLE_MARKER}C_OFF",
    ]
    assert [v.variant_id.declaration_index for v in table.variants()] == [0, 1, 2]
    assert [name for name, t in lowered.tables.items() if t.layers] == ["f"]


def test_table_completeness():
    src = (
        "contexts = [C()]\n"
        "function f = || -> 0\n"
        "function f = || @(C=ON) -> 1\n"
        "function g = |x| -> x\n"
    )
    lowered = lower_src(src)
    total = sum(len(t.variants()) for t in lowered.tables.values())
    assert total == 3


def test_arity_mismatch_across_variants():
    with pytest.raises(ArityMismatchError):
        lower_src(
            "contexts = [C()]\n"
            "function f = |x| -> x\n"
            "function f = |x, y| @(C=ON) -> x\n"
        )


def test_duplicate_constraint_set_rejected():
    with pytest.raises(RedefinitionError):
        lower_src(
            "contexts = [A(), B()]\n"
            "function f = || -> 0\n"
            "function f = || @(A=X, B=Y) -> 1\n"
            "function f = || @(B=Y, A=X) -> 2\n"
        )


def test_constraint_on_undeclared_context():
    with pytest.raises(UnknownContextError) as err:
        lower_src(
            "contexts = [C()]\nfunction f = || -> 0\nfunction f = || @(Ghost=TRUE) -> 1\n"
        )
    assert "Ghost" in err.value.message


def test_annotation_without_any_context_declaration():
    with pytest.raises(UnknownContextError):
        lower_src("function f = || -> 0\nfunction f = || @(C=ON) -> 1\n")


def test_layers_without_base_need_replace_mode():
    with pytest.raises(MissingBaseError):
        lower_src("contexts = [C()]\nfunction f = || @(C=ON)+ -> 1\n")
    # all-REPLACE layers without a base are fine at lowering time
    lowered = lower_src("contexts = [C()]\nfunction f = || @(C=ON) -> 1\n")
    assert lowered.tables["f"].base is None


# --- desugaring ----------------------------------------------------------------


def test_before_base_appends_return_proceed():
    lowered = lower_src(
        "contexts = [C()]\n"
        "function f = |x| -> 0\n"
        "function f = |x| @(C=ON)+ { let y = 1 }\n"
    )
    body = lowered.tables["f"].layers[0].body.body
    assert isinstance(body.stmts[-1], N.ReturnStmt)
    assert isinstance(body.stmts[-1].value, N.Proceed)
    assert body.stmts[-1].value.args == ()
    # declared mode survives on the variant for IR dumps
    assert lowered.tables["f"].layers[0].mode is N.LayerMode.BEFORE_BASE


def test_after_base_binds_result_then_returns_it():
    lowered = lower_src(
        "contexts = [C()]\n"
        "function f = |x| -> 0\n"
        "function f = |x| +@(C=ON) { let y = 1 }\n"
    )
    body = lowered.tables["f"].layers[0].body.body
    first, last = body.stmts[0], body.stmts[-1]
    assert isinstance(first, N.LetStmt) and first.name == "$base"
    assert isinstance(first.value, N.Proceed)
    assert isinstance(last, N.ReturnStmt)
    assert isinstance(last.value, N.Ident) and last.value.name == "$base"


def test_replace_body_is_untouched():
    lowered = lower_src(
        "contexts = [C()]\n"
        "function f = |x| -> 0\n"
        "function f = |x| @(C=ON) -> proceed(x) + 1\n"
    )
    body = lowered.tables["f"].layers[0].body.body
    assert isinstance(body, N.BinaryOp)


def test_compact_before_body_still_proceeds():
    lowered = lower_src(
        "contexts = [C()]\n"
        "function f = |x| -> 0\n"
        "function f = |x| @(C=ON)+ -> 99\n"
    )
    body = lowered.tables["f"].layers[0].body.body
    assert isinstance(body, N.Block)
    assert isinstance(body.stmts[0], N.ExprStmt)
    assert isinstance(body.stmts[1].value, N.Proceed)


# --- proceed placement -----------------------------------------------------------


def test_proceed_in_plain_function_rejected():
    src = "function f = |x| -> proceed(x)\n"
    with pytest.raises(ProceedOutsideLayerError) as err:
        lower_src(src)
    assert (err.value.span.line, err.value.span.column) == (2, 21)


def test_proceed_in_base_of_layered_function_lowers():
    lowered = lower_src(
        "contexts = [C()]\n"
        "function f = |x| -> proceed(x)\n"
        "function f = |x| @(C=ON) -> 1\n"
    )
    assert lowered.tables["f"].base is not None


def test_proceed_inside_nested_annotated_lambda_is_fine():
    # the enclosing function has no layers, but the lambda literal does;
    # its proceed belongs to the future method chain, not to this body
    lowered = lower_src(
        "contexts = [C()]\n"
        "function build = |o| {\n"
        "  o: define(\"m\", |this| @(C=ON) -> proceed())\n"
        "  return o\n"
        "}\n"
    )
    assert "build" in lowered.tables


def test_compact_body_that_is_a_lambda_leaves_its_proceed_to_runtime():
    # a lambda value's proceed belongs to whatever chain later calls it,
    # whether the lambda is the compact body or returned from a block
    assert "f" in lower_src("function f = || -> || -> proceed()\n").tables
    assert "f" in lower_src("function f = || { return || -> proceed() }\n").tables


# --- site marking and IR dumps ----------------------------------------------------


def test_contextual_marking_matches_brute_force_rescan():
    # a rescan of every variant body finds each textual call with its own
    # site id, contextual or not, also inside nested lambdas and in the
    # layers lowering desugars
    src = (
        "contexts = [C()]\n"
        "function f = |x| -> g(x) + h(x) + g(x)\n"
        "function g = |x| -> x\n"
        "function g = |x| @(C=ON)+ { println(g(x)) }\n"
        "function h = |x| {\n"
        "  let k = |y| -> h(y): unwrap()\n"
        "  return x: unwrap() + k(x)\n"
        "}\n"
    )
    lowered = lower_src(src)
    calls = {
        id(node): node
        for table in lowered.tables.values()
        for variant in table.variants()
        for node in N.walk(variant.body)
        if isinstance(node, (N.Call, N.MethodCall))
    }
    assert len(calls) == 9
    site_ids = [node.site_id for node in calls.values()]
    assert all(isinstance(site, int) for site in site_ids)
    assert len(set(site_ids)) == len(site_ids)
    again = {n.site_id for n in N.walk(lower_src(src).ast) if isinstance(n, N.Call)}
    assert again.isdisjoint(site_ids)


def test_format_ir_is_stable_and_line_oriented():
    lowered = lower_src(
        "contexts = [A(), B()]\n"
        "function f = || -> 0\n"
        "function f = || @(B=Y, A=X)+ -> 1\n"
    )
    assert format_ir(lowered).splitlines() == [
        "TABLE f VARIANT f MODE REPLACE CONSTRAINTS -",
        "TABLE f VARIANT f__$context$__A_X__B_Y MODE BEFORE_BASE CONSTRAINTS A=X,B=Y",
    ]


# --- walk against a reference over every field ---------------------------------


def reference_walk(node, into_lambdas=True):
    """``nodes.walk`` as it was first written: every dataclass field, each
    value tested with ``isinstance`` against every node class."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for f in dataclasses.fields(current):
            value = getattr(current, f.name)
            for child in value if type(value) is tuple else (value,):
                if isinstance(child, N.NODE_TYPES) and (
                    into_lambdas or not isinstance(child, N.Lambda)
                ):
                    stack.append(child)


# Before and after layers (so lowering hangs a desugared lambda on each),
# nested lambdas, and every statement form; run once, so the bodies that ran
# hold their generated code and nested lambdas their compile-time scope.
WALKED = """module walk.sample

contexts = [Weather(), Battery()]

function f = |x| {
  let g = |y| -> y + x
  if x > 1 && not (x == 5) { return g(x) } else if x < -3 { x = x: neg() } else {
    while x < 0 { x = x + 1 }
  }
  return g(1) + 2.5 * f2(x, "s", null, true)
}
function f = |x| @(Weather=RAINY)+ { println(x) }
function f = |x| +@(Battery=LOW) { let q = |z| -> z q(x) }
function f = |x| @(Weather=RAINY, Battery=LOW) -> proceed(x + 1)
function f2 = |a, b, c, d| -> a

function main = || {
  setConcrete("Weather", "rainfall_mm", 7.0)
  setConcrete("Battery", "charge_pct", 5.0)
  return f(3)
}
"""


def walked_modules():
    ran = compile_source(WALKED, file="<walk>")
    run(ran, config=RunConfig(println=lambda line: None))
    return [ran, compile_source(big_module(3), file="<walk>")]


@pytest.mark.parametrize("into_lambdas", [True, False])
def test_walk_yields_what_a_walk_over_every_field_yields(into_lambdas):
    for lowered in walked_modules():
        lambdas = [n for n in N.walk(lowered.ast) if isinstance(n, N.Lambda)]
        assert any(lam.desugared is not None for lam in lambdas)
        roots = [lowered.ast, *lambdas]
        roots += [v.body for table in lowered.tables.values() for v in table.variants()]
        for root in roots:
            got = list(N.walk(root, into_lambdas))
            want = list(reference_walk(root, into_lambdas))
            assert len(got) == len(want)
            assert all(a is b for a, b in zip(got, want))


def test_walk_reads_only_the_fields_whose_type_hints_name_a_node():
    # the compile-time scope a nested lambda keeps is typed object: it holds no node
    assert typing.get_type_hints(N.Lambda)["outer"] is object
    assert N._NODE_FIELDS[N.Lambda] == ("annotation", "body", "desugared")
    assert N._NODE_FIELDS[N.IfStmt] == ("cond", "then", "orelse")
    assert N._NODE_FIELDS[N.MethodCall] == ("receiver", "args")
    assert N._NODE_FIELDS[N.ModuleAst] == ("context_decl", "decls")
    assert N._NODE_FIELDS[N.LayerAnnotation] == N._NODE_FIELDS[N.Ident] == ()
    (ran, _) = walked_modules()
    scopes = [n.outer for n in N.walk(ran.ast) if isinstance(n, N.Lambda)]
    assert any(scope is not None for scope in scopes)
    assert not any(isinstance(scope, N.NODE_TYPES) for scope in scopes)
