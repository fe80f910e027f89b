"""The generated code of ConGo bodies: its arithmetic and logic against a
reference walker over the AST, what may enter the Python source, and the
cache of generated code.
"""

from __future__ import annotations

import re
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congo import interpreter as interpreter_module
from congo import nodes as N
from congo.context import is_number
from congo.errors import (
    CongoError,
    CongoTypeError,
    DivisionByZeroError,
    UnknownFunctionError,
)
from congo.interpreter import CachePolicy, DispatchMode, RunConfig, Runtime, stringify
from congo.lowering import compile_source

from helpers import run_program

# --- expressions against a reference walker -----------------------------------------

_HUGE = 2 ** 1100 + 3  # too large to become a float
_BINARY = ("+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||")
_PARAMS = ("p0", "p1", "p2")
# what a literal can spell; a parameter also brings negative numbers
_LITERALS = st.one_of(
    st.integers(0, 9), st.sampled_from([0, 97, _HUGE, 2.5, 0.0, True, False, "a", "", None]),
)
_VALUES = st.one_of(
    st.integers(-9, 9), st.sampled_from([0, _HUGE, -_HUGE, 2.5, -0.5, 0.0]),
    st.booleans(), st.sampled_from(["a", "", None]),
)
_LEAVES = st.one_of(
    st.tuples(st.just("literal"), _LITERALS),
    st.tuples(st.just("param"), st.sampled_from(_PARAMS)),
)
_TREES = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.tuples(st.just("binary"), st.sampled_from(_BINARY), sub, sub),
        st.tuples(st.sampled_from(["-", "not"]), sub),
    ),
    max_leaves=8,
)


def _source(tree) -> str:
    kind = tree[0]
    if kind == "literal":
        value = tree[1]
        if value is None or isinstance(value, bool):
            return {None: "null", True: "true", False: "false"}[value]
        return f'"{value}"' if isinstance(value, str) else repr(value)
    if kind == "param":
        return tree[1]
    if kind == "binary":
        return f"({_source(tree[2])} {tree[1]} {_source(tree[3])})"
    return f"{kind} ({_source(tree[1])})"


def _not_bool(what: str, value, span) -> CongoTypeError:
    return CongoTypeError(f"{what} must be a boolean, got {stringify(value, span)!r}", span)


def _reference(node, params):
    """ConGo's value of an expression node, by the README's rules; every
    arithmetic, comparison and equality operator is _apply_binary's."""
    kind = type(node)
    if kind in (N.IntLit, N.FloatLit, N.StringLit, N.BoolLit):
        return node.value
    if kind is N.NullLit:
        return None
    if kind is N.Ident:
        return params[node.name]
    if kind is N.UnaryOp:
        value = _reference(node.operand, params)
        if node.op == "-":
            if not is_number(value):
                raise CongoTypeError("unary '-' needs a number", node.span)
            return -value
        if not isinstance(value, bool):
            raise _not_bool("operand of 'not'", value, node.span)
        return not value
    left = _reference(node.left, params)
    if node.op in ("&&", "||"):
        if not isinstance(left, bool):
            raise _not_bool(f"left operand of '{node.op}'", left, node.span)
        if left is (node.op == "||"):
            return left
        right = _reference(node.right, params)
        if not isinstance(right, bool):
            raise _not_bool(f"right operand of '{node.op}'", right, node.span)
        return right
    right = _reference(node.right, params)
    return interpreter_module._apply_binary(node.op, left, right, node.span)


def _outcome(thunk):
    try:
        value = thunk()
    except CongoError as exc:
        return type(exc), exc.message, exc.span
    return type(value), value


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tree=_TREES, values=st.tuples(_VALUES, _VALUES, _VALUES))
@example(tree=("binary", "+", ("literal", "a"), ("param", "p0")), values=(1, 0, 0))
@example(tree=("binary", "+", ("param", "p0"), ("literal", 1)), values=(True, 0, 0))
@example(tree=("binary", "/", ("param", "p0"), ("literal", 0)), values=(5, 0, 0))
@example(tree=("binary", "%", ("param", "p0"), ("param", "p1")), values=(-7, 0, 0))
@example(tree=("binary", "/", ("param", "p0"), ("param", "p1")), values=(-7, 2, 0))
@example(tree=("binary", "*", ("param", "p0"), ("literal", 2.5)), values=(_HUGE, 0, 0))
@example(tree=("binary", "==", ("param", "p0"), ("literal", 1)), values=(True, 0, 0))
@example(tree=("binary", "<", ("literal", "a"), ("param", "p0")), values=("b", 0, 0))
@example(tree=("binary", "&&", ("param", "p0"), ("literal", 1)), values=(True, 0, 0))
@example(tree=("binary", "||", ("param", "p0"), ("literal", 1)), values=(True, 0, 0))
@example(tree=("-", ("param", "p0")), values=(False, 0, 0))
@example(tree=("not", ("param", "p0")), values=(None, 0, 0))
def test_generated_expressions_agree_with_a_reference_walker(tree, values):
    src = f"module m\nfunction f = |{', '.join(_PARAMS)}| -> {_source(tree)}\n"
    lowered = compile_source(src, file="<test>")
    params = dict(zip(_PARAMS, values))
    want = _outcome(lambda: _reference(lowered.tables["f"].base.body.body, params))
    with Runtime(lowered, RunConfig(dispatch_mode=DispatchMode.DIRECT)) as runtime:
        got = _outcome(lambda: runtime.call("f", values))
    assert got == want


def test_right_operands_nested_past_the_indentation_limit_run():
    # each right operand of '&&' and '||' indents its code one level, and
    # CPython refuses 100 levels: an expression that deep is outlined
    for op, last, want in (("&&", "false", False), ("||", "true", True)):
        seed = "true" if op == "&&" else "false"
        expr = f"({seed} {op} " * 150 + last + ")" * 150
        assert run_program(f"module m\nfunction main = || -> {expr}\n")[0] is want
        src = f"module m\nfunction main = |x| -> {f'({seed} {op} ' * 150}x{')' * 150}\n"
        with pytest.raises(CongoTypeError) as err:
            run_program(src, args=(1,))
        assert err.value.message == f"right operand of '{op}' must be a boolean, got '1'"


# A call checks its callee before it evaluates its arguments; a method call
# evaluates its receiver and arguments first.
@pytest.mark.parametrize("body,error,message", [
    ("x(1 / 0)", CongoTypeError, "'x' is not callable"),
    ("{ let y = x return y(1 / 0) }", CongoTypeError, "'y' is not callable"),
    ("nope(1 / 0)", UnknownFunctionError, "unknown function 'nope'"),
    ("x: m(1 / 0)", DivisionByZeroError, "division by zero"),
])
def test_a_call_fails_on_its_callee_before_evaluating_its_arguments(body, error, message):
    arrow = "" if body.startswith("{") else "-> "
    with pytest.raises(error) as err:
        run_program(f"module m\nfunction f = |x| {arrow}{body}\n", entry="f", args=(5,))
    assert err.value.message == message


# --- what may enter the Python source -------------------------------------------------

CLASH = (
    "module m\n"
    "contexts = [Weather()]\n"
    "function make = |frame, interp| -> frame + interp\n"
    "function body = |t0| {\n"
    "  let k0 = t0 * 2\n"
    "  let _UNBOUND = \"\\\"); raise SystemExit(1) #\"\n"
    "  let s0 = \"k0 \\\\ t0 \\n b0(interp, frame) ' ''' \"\n"
    "  if k0 > 2 {\n"
    "    let t1 = make(k0, 1)\n"
    "    return _UNBOUND + s0 + t1\n"
    "  }\n"
    "  return make(t0, k0)\n"
    "}\n"
    "function body = |t0| @(Weather=RAINY) -> proceed(t0 + 1) + \"|def make(): pass\"\n"
    "function main = || {\n"
    "  let frame = DynamicObject()\n"
    "  frame: interp(\"NEXT\")\n"
    "  frame: define(\"b0\", |this, UNBOUND| -> this: interp() + UNBOUND)\n"
    "  return body(1) + \"/\" + body(0) + \"/\" + frame: b0(\"frame[0]\")\n"
    "}\n"
)
CLASH_RESULT = (
    "\"); raise SystemExit(1) #k0 \\ t0 \n b0(interp, frame) ' ''' 5"
    "|def make(): pass/3|def make(): pass/NEXTframe[0]"
)
CLASH_NAMES = {"frame", "interp", "make", "body", "t0", "k0", "_UNBOUND", "s0", "t1", "b0"}
# Every Python name in generated code comes from one scheme: these globals
# and attributes, and locals and cells numbered by the generator.  A ConGo
# name may equal one of them (UNBOUND above) and means the same to ConGo.
SCHEME_NAMES = set(interpreter_module._GLOBALS) | {
    "type", "int", "isinstance",
    "_tables", "_BUILTINS", "get", "layers", "base", "_invoke", "_sites", "store",
    "epoch", "_dispatch", "methods", "properties", "version",
}
SCHEME_LOCAL = re.compile(r"(interp|frame|[tskb][0-9]+)\Z")


def generated_functions(fn):
    """``fn`` and every generated function its closure reaches."""
    seen, stack = [], [fn]
    while stack:
        fn = stack.pop()
        if fn in seen:
            continue
        seen.append(fn)
        for cell in fn.__closure__ or ():
            if isinstance(cell.cell_contents, types.FunctionType) \
                    and cell.cell_contents.__code__.co_filename == "<congo>":
                stack.append(cell.cell_contents)
    return seen


@pytest.mark.parametrize("mode", list(DispatchMode))
def test_congo_names_and_strings_never_enter_the_generated_code(mode):
    lowered = compile_source(CLASH, file="<test>")
    config = RunConfig(dispatch_mode=mode, initial_values=(("Weather", "rainfall_mm", 9.0),),
                       println=lambda text: None)
    with Runtime(lowered, config) as runtime:
        assert runtime.call("main") == CLASH_RESULT
    bodies = [n for n in N.walk(lowered.ast) if isinstance(n, N.Lambda) and n.code]
    bodies += [v.body for t in lowered.tables.values() for v in t.variants() if v.body.code]
    assert len(bodies) >= 5
    for lam in bodies:
        for fn in generated_functions(lam.code):
            code = fn.__code__
            assert code.co_filename == "<congo>"
            assert not CLASH_NAMES & set(code.co_names), (lam, code.co_names)
            assert set(code.co_names) <= SCHEME_NAMES, (lam, code.co_names)
            local = code.co_varnames + code.co_cellvars + code.co_freevars
            assert all(SCHEME_LOCAL.match(name) for name in local), (lam, local)
            # literals, names and messages are all closure cells
            assert not [c for c in code.co_consts if isinstance(c, str)], (lam, code.co_consts)
    # the if block is a function of its own, reached through the body's closure
    assert len(generated_functions(lowered.tables["body"].base.body.code)) == 2


# --- the cache of generated code --------------------------------------------------------

TWINS = (
    "module m\n"
    "contexts = [Weather(), Battery()]\n"
    "function f = |x| -> x + 1\n"
    "function f = |x| @(Weather=RAINY) -> proceed() * 3 + 5\n"
    "function f = |x| @(Battery=LOW) -> proceed() * 3 + 7\n"
)


@pytest.mark.parametrize("policy", list(CachePolicy))
def test_layers_that_differ_only_in_a_literal_share_one_code_object(policy):
    lowered = compile_source(TWINS, file="<test>")
    config = RunConfig(dispatch_mode=DispatchMode.DIRECT, cache_policy=policy,
                       initial_values=(("Weather", "rainfall_mm", 9.0),
                                       ("Battery", "charge_pct", 5.0)))
    with Runtime(lowered, config) as runtime:
        # the Battery layer, declared last, runs first
        assert runtime.call("f", (2,)) == ((2 + 1) * 3 + 5) * 3 + 7
        assert runtime.call("f", (4,)) == ((4 + 1) * 3 + 5) * 3 + 7
    rainy, low = (v.body.code for v in lowered.tables["f"].layers)
    assert rainy is not low
    assert rainy.__code__ is low.__code__
    base = lowered.tables["f"].base.body.code
    assert base.__code__ is not rainy.__code__


def test_the_code_cache_stays_within_its_cap():
    # f_n reads its n-th parameter, at slot n + 3: one source per n
    count = interpreter_module._MAX_CODES + 10
    lines = ["module m"]
    for n in range(1, count + 1):
        params = ", ".join(f"a{i}" for i in range(1, n + 1))
        lines.append(f"function f{n} = |{params}| -> a{n}")
    lowered = compile_source("\n".join(lines) + "\n", file="<test>")
    with Runtime(lowered, RunConfig(dispatch_mode=DispatchMode.DIRECT)) as runtime:
        for n in range(1, count + 1):
            assert runtime.call(f"f{n}", tuple(range(n))) == n - 1
            assert len(interpreter_module._CODES) <= interpreter_module._MAX_CODES
