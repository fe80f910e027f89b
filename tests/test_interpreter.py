from __future__ import annotations

import logging
import math
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congo import interpreter as interpreter_module
from congo.decision import (
    _MEMO_CAP,
    REQUEST_PATTERN,
    CountingDecisionMaker,
    DecisionMaker,
    DecisionResponse,
    DefaultDecisionMaker,
    register_decision_maker,
    unregister_decision_maker,
)
from congo.context import register_context, unregister_context
from congo.errors import (
    CallArityError,
    CongoError,
    CongoTypeError,
    ContextEvaluationError,
    DecisionFailedError,
    DecisionTimeoutError,
    DivisionByZeroError,
    MissingBaseError,
    NoApplicableVariantError,
    ProceedExhaustedError,
    RedefinitionError,
    UnknownContextError,
    UnknownDecisionMakerError,
    UnknownFunctionError,
    UnknownMethodError,
    UnknownVariableError,
    StackOverflowError,
)
from congo import nodes as N
from congo.interpreter import CachePolicy, DispatchMode, RunConfig, Runtime, run
from congo.lowering import VariantId, compile_source

from helpers import run_program


def eval_expr(expr: str):
    result, _ = run_program(f"module m\nfunction main = || -> {expr}\n")
    return result


# --- values and operators ------------------------------------------------------


def test_arithmetic_entry():
    assert eval_expr("41 + 1") == 42


@pytest.mark.parametrize(
    "expr,expected",
    [
        ("1 + 2.5", 3.5),
        ("2 * 3.0", 6.0),
        ("7 / 2", 3),
        ("7.0 / 2", 3.5),
        ("(0 - 7) / 2", -4),  # integer division floors
        ("7 % 3", 1),
        ("2 * 3 + 4", 10),
        ("2 + 3 * 4", 14),
        ("(2 + 3) * 4", 20),
        ("0 - 5", -5),
    ],
)
def test_numeric_operators(expr, expected):
    result = eval_expr(expr)
    assert result == expected
    assert type(result) is type(expected)


@pytest.mark.parametrize("expr", ["1 / 0", "1 % 0", "1.0 / 0"])
def test_division_by_zero(expr):
    with pytest.raises(DivisionByZeroError):
        eval_expr(expr)


@pytest.mark.parametrize(
    "expr,expected",
    [
        ('"a" + "b"', "ab"),
        ('"n=" + 1', "n=1"),
        ('1 + "!"', "1!"),
        ('"flag=" + true', "flag=true"),
        ('"v=" + null', "v=null"),
        ('"pi=" + 3.5', "pi=3.5"),
    ],
)
def test_string_concatenation_stringifies(expr, expected):
    assert eval_expr(expr) == expected


@pytest.mark.parametrize(
    "expr,expected",
    [
        ("1 == 1.0", True),
        ("1 == true", False),  # booleans never equal numbers
        ("true == true", True),
        ("null == null", True),
        ('"a" == "a"', True),
        ('"a" != "b"', True),
        ('"b" < "c"', True),
        ("2 <= 2", True),
        ("3 > 2.5", True),
        ("not false", True),
        ("null == 0", False),
    ],
)
def test_comparisons(expr, expected):
    assert eval_expr(expr) is expected


@pytest.mark.parametrize(
    "expr",
    [
        '1 + null', '"a" < 1', "true + true", "-true",
        # a bool never counts as a number, whichever side it is on
        "1 + true", "true * 2", "2 - false", "7 % true", "6 / true", "true < 2",
    ],
)
def test_operator_type_errors(expr):
    with pytest.raises(CongoTypeError):
        eval_expr(expr)


def test_boolean_operators_short_circuit():
    src = (
        "module m\n"
        "function boom = || -> 1 / 0\n"
        "function main = || -> false && boom() == 1 || true\n"
    )
    result, _ = run_program(src)
    assert result is True


def test_condition_must_be_boolean():
    with pytest.raises(CongoTypeError):
        run_program("module m\nfunction main = || { if 1 { return 2 } }\n")


# Every operator over every kind of operand the code generator tells apart,
# against _apply_binary on the same values: an int literal (no type test of
# its own, and no zero test as a divisor), a literal of any other type
# (always _apply_binary), a parameter (read with no unbound test), and any
# other expression.
_HUGE = 2 ** 1100 + 3  # too large to become a float
_OPERATORS = ("+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=")
_VALUES = st.one_of(
    st.integers(-9, 9), st.sampled_from([0, 97, _HUGE, -_HUGE, 2.5, -0.5, 0.0]),
    st.booleans(), st.sampled_from(["a", ""]),
)
_LITERALS = st.one_of(
    st.integers(0, 9), st.sampled_from([97, _HUGE, 2.5, 0.0, True, False, "a", None]),
)
_OPERANDS = st.one_of(
    st.tuples(st.just("literal"), _LITERALS),
    st.tuples(st.just("param"), _VALUES),
    st.tuples(st.just("expr"), _VALUES),
)


def _literal_source(value) -> str:
    if value is None or isinstance(value, bool):
        return {None: "null", True: "true", False: "false"}[value]
    return f'"{value}"' if isinstance(value, str) else repr(value)


def _outcome(thunk):
    try:
        value = thunk()
    except CongoError as exc:
        return type(exc), exc.message, exc.span
    return type(value), value


@settings(max_examples=300, deadline=None, derandomize=True)
@given(left=_OPERANDS, op=st.sampled_from(_OPERATORS), right=_OPERANDS)
@example(left=("param", 5), op="/", right=("literal", 0))
@example(left=("param", 5), op="%", right=("literal", 0))
@example(left=("expr", 5), op="/", right=("param", 0))
@example(left=("param", 5), op="%", right=("param", 0))
@example(left=("expr", -7), op="/", right=("literal", 2))
@example(left=("param", -7), op="%", right=("literal", 2))
@example(left=("literal", True), op="==", right=("literal", 1))
@example(left=("param", True), op="==", right=("literal", 1))
@example(left=("param", _HUGE), op="+", right=("literal", 2.5))
@example(left=("expr", _HUGE), op="*", right=("param", 0.5))
@example(left=("literal", "a"), op="+", right=("literal", 1))
@example(left=("param", "a"), op="+", right=("literal", 1))
def test_fused_operators_agree_with_apply_binary(left, op, right):
    # p and q are the parameter operands; r and s feed the expression operands
    sources = []
    for (kind, value), param, fed in ((left, "p", "r"), (right, "q", "s")):
        sources.append({"literal": _literal_source(value), "param": param,
                        "expr": f"same({fed})"}[kind])
    src = ("module m\nfunction same = |v| -> v\n"
           f"function f = |p, q, r, s| -> {sources[0]} {op} {sources[1]}\n")
    lowered = compile_source(src, file="<test>")
    span = lowered.tables["f"].base.body.body.span
    args = (left[1], right[1], left[1], right[1])
    with Runtime(lowered, RunConfig(dispatch_mode=DispatchMode.DIRECT)) as runtime:
        got = _outcome(lambda: runtime.call("f", args))
    want = _outcome(lambda: interpreter_module._apply_binary(op, left[1], right[1], span))
    assert got == want


# --- statements, scoping, closures ------------------------------------------------


def test_while_loop_and_assignment():
    src = (
        "module m\n"
        "function main = || {\n"
        "  let i = 0\n"
        "  let acc = 0\n"
        "  while i < 5 {\n"
        "    acc = acc + i\n"
        "    i = i + 1\n"
        "  }\n"
        "  return acc\n"
        "}\n"
    )
    assert run_program(src)[0] == 10


def test_else_if_dispatching():
    src = (
        "module m\n"
        "function grade = |n| {\n"
        "  if n < 10 { return \"low\" }\n"
        "  else if n < 100 { return \"mid\" }\n"
        "  else { return \"high\" }\n"
        "}\n"
        "function main = || -> grade(5) + grade(50) + grade(500)\n"
    )
    assert run_program(src)[0] == "lowmidhigh"


def test_block_scope_shadows_then_restores():
    src = (
        "module m\n"
        "function main = || {\n"
        "  let x = 1\n"
        "  if true {\n"
        "    let x = 2\n"
        "    x = x + 10\n"
        "  }\n"
        "  return x\n"
        "}\n"
    )
    assert run_program(src)[0] == 1


def test_assignment_reaches_enclosing_scope():
    src = (
        "module m\n"
        "function main = || {\n"
        "  let x = 1\n"
        "  if true { x = 99 }\n"
        "  return x\n"
        "}\n"
    )
    assert run_program(src)[0] == 99


def test_assignment_to_undefined_variable():
    with pytest.raises(UnknownVariableError):
        run_program("module m\nfunction main = || { y = 1 }\n")


def test_unknown_variable_read():
    with pytest.raises(UnknownVariableError):
        eval_expr("mystery")


def test_missing_return_gives_null():
    src = "module m\nfunction main = || { let x = 1 }\n"
    assert run_program(src)[0] is None


def test_bare_return():
    src = "module m\nfunction main = || { return }\n"
    assert run_program(src)[0] is None


def test_lambda_values_and_closures():
    src = (
        "module m\n"
        "function main = || {\n"
        "  let n = 10\n"
        "  let add = |x| -> x + n\n"
        "  let bump = || { n = n + 1 }\n"
        "  bump()\n"
        "  return add(5)\n"
        "}\n"
    )
    assert run_program(src)[0] == 16


# Names resolve to frame slots at compile time; a let binds only once it has run.


def test_methods_defined_in_a_loop_capture_that_iteration():
    src = (
        "module m\n"
        "function main = || {\n"
        "  let head = null\n"
        "  let i = 1\n"
        "  while i <= 20 {\n"
        "    let k = i\n"
        "    let node = DynamicObject(): next(head)\n"
        "    node: define(\"get\", |this| -> k)\n"
        "    head = node\n"
        "    i = i + 1\n"
        "  }\n"
        "  let total = 0\n"
        "  while head != null {\n"
        "    total = total + head: get()\n"
        "    head = head: next()\n"
        "  }\n"
        "  return total\n"
        "}\n"
    )
    assert run_program(src)[0] == 210


def test_local_lambda_calls_itself_by_its_let_name():
    src = (
        "module m\n"
        "function main = || {\n"
        "  let fact = |n| {\n"
        "    if n <= 1 { return 1 }\n"
        "    return n * fact(n - 1)\n"
        "  }\n"
        "  return fact(5)\n"
        "}\n"
    )
    assert run_program(src)[0] == 120


def test_a_single_slot_local_call_reads_its_slot_without_a_scope_walk(monkeypatch):
    def no_walk(frame, found):
        raise AssertionError("_find called")

    monkeypatch.setattr(interpreter_module, "_find", no_walk)
    test_local_lambda_calls_itself_by_its_let_name()


def test_a_local_call_whose_slot_is_unbound_calls_the_module_function(monkeypatch):
    src = (
        "module m\n"
        "function g = || -> 1\n"
        "function main = || {\n"
        "  let r = g()\n"
        "  let g = || -> 2\n"
        "  return r * 10 + g()\n"
        "}\n"
    )
    monkeypatch.setattr(interpreter_module, "_find", None)  # the slot is read inline
    assert run_program(src, mode=DispatchMode.DIRECT)[0] == 12


def test_closure_sees_a_let_that_follows_it():
    src = (
        "module m\n"
        "function main = || {\n"
        "  let f = || -> g()\n"
        "  let g = || -> 41\n"
        "  return f() + 1\n"
        "}\n"
    )
    assert run_program(src)[0] == 42


def test_inner_let_shadows_only_after_it_runs():
    src = (
        "module m\n"
        "function main = || {\n"
        "  let x = 1\n"
        "  let r = 0\n"
        "  if true {\n"
        "    r = x * 100\n"
        "    let x = 21\n"
        "    r = r + x\n"
        "  }\n"
        "  return r\n"
        "}\n"
    )
    assert run_program(src)[0] == 121


def test_local_shadows_module_function_only_after_its_let():
    src = (
        "module m\n"
        "function g = || -> 10\n"
        "function main = || {\n"
        "  let a = g()\n"
        "  let g = || -> 2\n"
        "  return a + g()\n"
        "}\n"
    )
    assert run_program(src)[0] == 12


def test_unknown_names_in_code_that_never_runs_are_no_error():
    src = (
        "module m\n"
        "function main = || {\n"
        "  if false { println(mystery) mystery = 1 nowhere() }\n"
        "  return 1\n"
        "}\n"
    )
    assert run_program(src)[0] == 1


def test_assignment_before_a_blocks_own_let_updates_the_outer_name():
    src = (
        "module m\n"
        "function main = || {\n"
        "  let x = 1\n"
        "  if true {\n"
        "    x = 5\n"
        "    let x = 2\n"
        "    x = x + 10\n"
        "  }\n"
        "  return x\n"
        "}\n"
    )
    assert run_program(src)[0] == 5


def test_closure_called_before_the_let_it_reads_is_an_unknown_variable():
    src = (
        "module m\n"
        "function main = || {\n"
        "  let f = || -> later\n"
        "  f()\n"
        "  let later = 1\n"
        "}\n"
    )
    with pytest.raises(UnknownVariableError) as err:
        run_program(src)
    assert err.value.message == "unknown variable 'later'"
    assert (err.value.span.line, err.value.span.column) == (3, 17)


def test_assignment_to_a_name_bound_nowhere_keeps_its_message_and_span():
    src = "module m\nfunction main = || {\n  let x = 1\n  y = 3\n}\n"
    with pytest.raises(UnknownVariableError) as err:
        run_program(src)
    assert err.value.message == "assignment to undefined variable 'y'"
    assert (err.value.span.line, err.value.span.column) == (4, 3)


def test_defined_before_and_after_layers_read_an_enclosing_local():
    src = (
        "module m\n"
        "contexts = [Weather(), Battery()]\n"
        "function main = || {\n"
        "  let tag = \"seen\"\n"
        "  let o = DynamicObject()\n"
        "  o: define(\"get\", |this| -> \"base\")\n"
        "  o: define(\"get\", |this| @(Weather=RAINY)+ { println(\"before \" + tag) })\n"
        "  o: define(\"get\", |this| +@(Battery=LOW) { println(\"after \" + tag) })\n"
        "  return o: get()\n"
        "}\n"
    )
    initial = [("Weather", "rainfall_mm", 7.0), ("Battery", "charge_pct", 10.0)]
    assert run_program(src, initial=initial) == ("base", ["before seen", "after seen"])


def test_after_layer_and_the_lambda_it_wraps_share_a_nested_lambda():
    # the lambda nested in the layer's body is compiled once, by whichever
    # of the two bodies calls it first, and must read the same slots in both
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function main = |first| {\n"
        "  let o = DynamicObject()\n"
        "  o: define(\"get\", |this| -> \"base\")\n"
        "  let layer = |this| +@(Weather=RAINY) {\n"
        "    let a = 1\n"
        "    let b = 2\n"
        "    let g = || -> b\n"
        "    println(\"g \" + g())\n"
        "  }\n"
        "  o: define(\"get\", layer)\n"
        "  if first { layer(o) return o: get() }\n"
        "  let r = o: get()\n"
        "  layer(o)\n"
        "  return r\n"
        "}\n"
    )
    initial = [("Weather", "rainfall_mm", 7.0)]
    for first in (True, False):
        assert run_program(src, args=(first,), initial=initial) == ("base", ["g 2", "g 2"])


def test_recursion():
    src = (
        "module m\n"
        "function fib = |n| {\n"
        "  if n < 2 { return n }\n"
        "  return fib(n - 1) + fib(n - 2)\n"
        "}\n"
        "function main = || -> fib(10)\n"
    )
    assert run_program(src)[0] == 55


def lambdas_under(*roots):
    return [n for root in roots for n in N.walk(root) if isinstance(n, N.Lambda)]


def test_bodies_compile_on_first_call_and_runtimes_share_them():
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function add = |x| -> x + 1\n"
        "function f = |x| -> add(x)\n"
        "function f = |x| +@(Weather=RAINY) { println(\"after\") }\n"
        "function main = || {\n"
        "  let twice = |x| -> f(f(x))\n"
        "  return twice(1)\n"
        "}\n"
    )
    lowered = compile_source(src, file="<test>")
    # every variant body runs below, the desugared after layer included
    run_here = lambdas_under(
        *(v.body for table in lowered.tables.values() for v in table.variants())
    )
    assert len(run_here) == 5
    assert all(lam.code is None for lam in lambdas_under(lowered.ast) + run_here)
    config = RunConfig(initial_values=(("Weather", "rainfall_mm", 7.0),),
                       println=lambda s: None)
    with Runtime(lowered, config) as first:
        assert first.call("main") == 3
    compiled = [lam.code for lam in run_here]
    assert all(code is not None for code in compiled)
    with Runtime(lowered, config) as second:
        assert second.call("main") == 3
    assert all(lam.code is code for lam, code in zip(run_here, compiled))


DEEP = (
    "module m\n"
    "contexts = [Weather()]\n"
    "function f = |n| {\n"
    "  if n == 0 { return 0 }\n"
    "  return 1 + f(n - 1)\n"
    "}\n"
    "function f = |n| @(Weather=RAINY) -> proceed()\n"
    "function main = |n| -> f(n)\n"
)


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
def test_deep_recursion_is_a_stack_overflow_error(mode):
    # every level is a contextual call, decided by the maker in this mode
    assert run_program(DEEP, entry="main", args=(100,), mode=mode)[0] == 100
    with pytest.raises(StackOverflowError) as err:
        run_program(DEEP, entry="main", args=(5000,), mode=mode)
    assert err.value.kind == "StackOverflow"
    assert (err.value.span.line, err.value.span.column) == (5, 14)  # f(n - 1)
    names = [name for name, _ in err.value.call_stack]
    assert names[0] == "main" and len(names) > 100
    assert set(names[1:]) == {"f"}


CALLS_THEN_COMPILE = (
    "module m\n"
    "function g = || { { { { { return 2 } } } } }\n"
    "function f = |n| { if n == 0 { return g() } return 1 + f(n - 1) }\n"
)


def test_compile_that_runs_out_of_stack_under_deep_calls_blames_the_calls():
    # g is compiled on its first call, at the bottom of f's recursion; across
    # these depths the stack runs out inside that compile at least once.  A
    # level costs two Python frames (an _invoke and f's body) or a few more,
    # so the depths span every plausible cost.
    compile_failures = 0
    limit = sys.getrecursionlimit()
    for depth in range(limit // 10, limit // 2):
        lowered = compile_source(CALLS_THEN_COMPILE, file="<test>")
        try:
            run(lowered, entry="f", args=(depth,),
                config=RunConfig(dispatch_mode=DispatchMode.DIRECT))
        except StackOverflowError as err:
            assert err.message.startswith("stack exhausted after"), err.message
            compile_failures += (
                err.call_stack[-1][0] == "g"
                and lowered.tables["g"].base.body.code is None
            )
    assert compile_failures


def test_entry_with_arguments():
    src = "module m\nfunction double = |x| -> x * 2\n"
    assert run_program(src, entry="double", args=(21,))[0] == 42


def test_missing_entry_function():
    with pytest.raises(UnknownFunctionError):
        run_program("module m\nfunction f = || -> 1\n")


def test_call_arity_checked():
    with pytest.raises(CallArityError):
        run_program("module m\nfunction f = |a, b| -> a\nfunction main = || -> f(1)\n")


def test_calling_a_non_function_value():
    with pytest.raises(CongoTypeError):
        run_program("module m\nfunction main = || { let x = 5 return x(1) }\n")


def test_runtime_errors_carry_span_and_call_stack():
    src = "module m\nfunction inner = |x| -> x / 0\nfunction main = || -> inner(3)\n"
    with pytest.raises(DivisionByZeroError) as err:
        run_program(src)
    assert err.value.span is not None
    assert err.value.span.line == 2
    names = [name for name, _ in err.value.call_stack]
    assert names == ["main", "inner"]


def test_println_stringifies(capsys=None):
    src = (
        "module m\n"
        "function main = || {\n"
        "  println(true)\n"
        "  println(null)\n"
        "  println(3.5)\n"
        "  println(\"text\")\n"
        "}\n"
    )
    _, output = run_program(src)
    assert output == ["true", "null", "3.5", "text"]


# --- dynamic objects ----------------------------------------------------------------


def test_properties_read_write_and_chain():
    src = (
        "module m\n"
        "function main = || {\n"
        "  let o = DynamicObject(): x(1): y(2)\n"
        "  o: x(o: x() + 10)\n"
        "  return \"\" + o: x() + \",\" + o: y()\n"
        "}\n"
    )
    assert run_program(src)[0] == "11,2"


def test_reading_a_missing_property():
    src = "module m\nfunction main = || -> DynamicObject(): ghost()\n"
    with pytest.raises(UnknownMethodError):
        run_program(src)


def test_method_call_on_non_object():
    with pytest.raises(CongoTypeError):
        run_program("module m\nfunction main = || -> 5: x()\n")


def test_define_binds_this_to_receiver():
    src = (
        "module m\n"
        "function main = || {\n"
        "  let o = DynamicObject(): label(\"box\")\n"
        "  o: define(\"tag\", |this, suffix| -> this: label() + suffix)\n"
        "  return o: tag(\"!\")\n"
        "}\n"
    )
    assert run_program(src)[0] == "box!"


def test_define_duplicate_base_method():
    src = (
        "module m\n"
        "function main = || {\n"
        "  let o = DynamicObject()\n"
        "  o: define(\"f\", |this| -> 1)\n"
        "  o: define(\"f\", |this| -> 2)\n"
        "}\n"
    )
    with pytest.raises(RedefinitionError):
        run_program(src)


def test_define_rejects_reserved_names():
    src = (
        "module m\n"
        "function main = || {\n"
        "  DynamicObject(): define(\"contexts\", |this| -> 1)\n"
        "}\n"
    )
    with pytest.raises(RedefinitionError):
        run_program(src)


def test_method_arity_includes_receiver():
    src = (
        "module m\n"
        "function main = || {\n"
        "  let o = DynamicObject()\n"
        "  o: define(\"f\", |this, a| -> a)\n"
        "  return o: f(1, 2)\n"
        "}\n"
    )
    with pytest.raises(CallArityError):
        run_program(src)


def test_each_object_runs_its_own_method_closure():
    # freed objects hand their addresses on to new ones; a method must still
    # run the closure it was defined with
    src = (
        "module m\n"
        "function main = || {\n"
        "  let mk = |v| -> |this| -> v\n"
        "  let i = 0\n"
        "  let wrong = 0\n"
        "  while i < 2000 {\n"
        "    let o = DynamicObject()\n"
        "    o: define(\"get\", mk(i))\n"
        "    o: define(\"neg\", mk(0 - i))\n"
        "    if o: get() != i { wrong = wrong + 1 }\n"
        "    if o: neg() != 0 - i { wrong = wrong + 1 }\n"
        "    i = i + 1\n"
        "  }\n"
        "  return wrong\n"
        "}\n"
    )
    assert run_program(src)[0] == 0


def test_decisionmaker_requires_a_maker_value():
    src = (
        "module m\n"
        "function main = || { DynamicObject(): decisionmaker(42) }\n"
    )
    with pytest.raises(CongoTypeError):
        run_program(src)


def test_contexts_override_must_name_declared_contexts():
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function main = || { DynamicObject(): contexts(\"Battery\") }\n"
    )
    with pytest.raises(UnknownContextError):
        run_program(src)


# --- proceed semantics -----------------------------------------------------------------


LAYERED = (
    "module m\n"
    "contexts = [Weather()]\n"
    "function f = |dir| -> 10\n"
    "function f = |dir| @(Weather=RAINY) -> proceed(dir) + 1\n"
    "function main = |d| -> f(d)\n"
)


def test_replace_layer_proceed_plus_one():
    result, _ = run_program(
        LAYERED, entry="main", args=(0,), initial=[("Weather", "rainfall_mm", 7.0)]
    )
    assert result == 11


def test_ineligible_layer_behaves_like_plain_call():
    result, _ = run_program(LAYERED, entry="main", args=(0,))
    assert result == 10


def test_proceed_without_args_forwards_originals():
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function f = |x| -> x * 2\n"
        "function f = |x| @(Weather=RAINY) -> proceed()\n"
        "function main = || -> f(21)\n"
    )
    result, _ = run_program(src, initial=[("Weather", "rainfall_mm", 9.0)])
    assert result == 42


def test_proceed_with_replacement_argument():
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function f = |x| -> x\n"
        "function f = |x| @(Weather=RAINY) -> proceed(x * 100)\n"
        "function main = || -> f(3)\n"
    )
    result, _ = run_program(src, initial=[("Weather", "rainfall_mm", 9.0)])
    assert result == 300


def test_base_calling_proceed_exhausts_the_chain():
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function f = |x| -> proceed()\n"
        "function f = |x| @(Weather=RAINY) -> proceed()\n"
        "function main = || -> f(1)\n"
    )
    with pytest.raises(ProceedExhaustedError):
        run_program(src, initial=[("Weather", "rainfall_mm", 9.0)])


def test_proceed_may_run_the_rest_of_the_chain_twice():
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function f = |x| { println(\"base\") return 1 }\n"
        "function f = |x| @(Weather=RAINY) -> proceed() + proceed()\n"
        "function main = || -> f(0)\n"
    )
    result, output = run_program(src, initial=[("Weather", "rainfall_mm", 9.0)])
    assert result == 2
    assert output == ["base", "base"]


def test_before_layer_effects_first_value_discarded():
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function f = || { println(\"base\") return \"base\" }\n"
        "function f = || @(Weather=RAINY)+ -> println(\"layer\")\n"
        "function main = || -> f()\n"
    )
    result, output = run_program(src, initial=[("Weather", "rainfall_mm", 9.0)])
    assert result == "base"
    assert output == ["layer", "base"]


def test_after_layer_effects_last_value_kept():
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function f = || { println(\"base\") return \"base\" }\n"
        "function f = || +@(Weather=RAINY) { println(\"layer\") }\n"
        "function main = || -> f()\n"
    )
    result, output = run_program(src, initial=[("Weather", "rainfall_mm", 9.0)])
    assert result == "base"
    assert output == ["base", "layer"]


def test_explicit_return_in_before_body_short_circuits():
    # the desugaring appends `return proceed()` after the body, so a body
    # that returns on its own skips the rest of the chain entirely
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function f = || { println(\"base\") return \"base\" }\n"
        "function f = || @(Weather=RAINY)+ { return \"layer\" }\n"
        "function main = || -> f()\n"
    )
    result, output = run_program(src, initial=[("Weather", "rainfall_mm", 9.0)])
    assert result == "layer"
    assert output == []


def test_lifo_composition_of_eligible_layers():
    src = (
        "module m\n"
        "contexts = [Weather(), Battery()]\n"
        "function f = || { println(\"base\") return 0 }\n"
        "function f = || @(Weather=RAINY) { println(\"first\") return proceed() }\n"
        "function f = || @(Battery=LOW) { println(\"second\") return proceed() }\n"
        "function main = || -> f()\n"
    )
    _, output = run_program(
        src,
        initial=[("Weather", "rainfall_mm", 9.0), ("Battery", "charge_pct", 1.0)],
    )
    assert output == ["second", "first", "base"]


def test_proceed_inside_nested_plain_lambda_hits_the_barrier():
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function f = || -> 1\n"
        "function f = || @(Weather=RAINY) {\n"
        "  let helper = || -> proceed()\n"
        "  return helper()\n"
        "}\n"
        "function main = || -> f()\n"
    )
    with pytest.raises(ProceedExhaustedError):
        run_program(src, initial=[("Weather", "rainfall_mm", 9.0)])


def test_object_method_layers_dispatch_on_context():
    src = (
        "module m\n"
        "contexts = [ConfusedHero()]\n"
        "function main = || {\n"
        "  let hero = DynamicObject(): steps(0)\n"
        "  hero: define(\"move\", |this| {\n"
        "    this: steps(this: steps() + 1)\n"
        "    return \"ok\"\n"
        "  })\n"
        "  hero: define(\"move\", |this| @(ConfusedHero=TRUE) -> \"stumble\")\n"
        "  let before = hero: move()\n"
        "  setConcrete(\"ConfusedHero\", \"confused\", true)\n"
        "  let after = hero: move()\n"
        "  return before + \"/\" + after + \"/\" + hero: steps()\n"
        "}\n"
    )
    assert run_program(src)[0] == "ok/stumble/1"


def test_object_layer_without_base_needs_replace():
    src = (
        "module m\n"
        "contexts = [ConfusedHero()]\n"
        "function main = || {\n"
        "  let o = DynamicObject()\n"
        "  o: define(\"f\", |this| @(ConfusedHero=TRUE)+ { println(\"pre\") })\n"
        "  return o: f()\n"
        "}\n"
    )
    with pytest.raises(MissingBaseError):
        run_program(src)


def test_replace_only_object_method_without_base():
    src = (
        "module m\n"
        "contexts = [ConfusedHero()]\n"
        "function main = || {\n"
        "  let o = DynamicObject()\n"
        "  o: define(\"f\", |this| @(ConfusedHero=TRUE) -> \"layered\")\n"
        "  return o: f()\n"
        "}\n"
    )
    result, _ = run_program(src, initial=[("ConfusedHero", "confused", True)])
    assert result == "layered"
    with pytest.raises(NoApplicableVariantError):
        run_program(src)


# --- dispatch modes and caching -------------------------------------------------------


COUNTED = (
    "module m\n"
    "contexts = [Weather()]\n"
    "function f = |x| -> x\n"
    "function f = |x| @(Weather=RAINY) -> proceed(x + 100)\n"
    "function main = || {\n"
    "  let i = 0\n"
    "  let acc = 0\n"
    "  while i < 20 {\n"
    "    acc = acc + f(i)\n"
    "    i = i + 1\n"
    "  }\n"
    "  return acc\n"
    "}\n"
)


def run_counted(mode, policy, initial=()):
    dm = CountingDecisionMaker(DefaultDecisionMaker())
    result, _ = run_program(
        COUNTED, mode=mode, policy=policy, decision_maker=dm, initial=initial
    )
    return result, dm


def test_event_and_direct_agree():
    event, _ = run_counted(DispatchMode.EVENT, CachePolicy.NONE)
    direct, _ = run_counted(DispatchMode.DIRECT, CachePolicy.NONE)
    assert event == direct == sum(range(20))


def test_policy_none_decides_every_call():
    _, dm = run_counted(DispatchMode.EVENT, CachePolicy.NONE)
    assert dm.decisions == 20
    _, dm = run_counted(DispatchMode.DIRECT, CachePolicy.NONE)
    assert dm.decisions == 20


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
def test_validation_runs_through_the_module_global(monkeypatch, mode):
    # tracing tools time validation by swapping this global; one call per
    # decided contextual call keeps their numbers honest
    import congo.interpreter as interpreter_module

    calls = []
    real = interpreter_module.validate_response

    def counting(*args, **kwargs):
        calls.append(args[0].function_name)
        return real(*args, **kwargs)

    monkeypatch.setattr(interpreter_module, "validate_response", counting)
    run_counted(mode, CachePolicy.NONE)
    assert calls == ["f"] * 20
    calls.clear()
    run_counted(mode, CachePolicy.EPOCH_GUARD)
    assert calls == ["f"]


class _CountingLevel:
    name = "Level"
    evaluations = 0

    def evaluate(self, view):
        _CountingLevel.evaluations += 1
        return {"HIGH"} if view.get("Level", "value", 0) > 5 else {"LOW"}


def _memo_program(write_at):
    return (
        "module m\n"
        "contexts = [Level()]\n"
        "function f = |x| -> x\n"
        "function f = |x| @(Level=HIGH) -> proceed(x + 100)\n"
        "function main = || {\n"
        "  let i = 0\n"
        "  let acc = 0\n"
        "  while i < 20 {\n"
        f"    if i == {write_at} {{ setConcrete(\"Level\", \"value\", 9) }}\n"
        "    acc = acc + f(i)\n"
        "    i = i + 1\n"
        "  }\n"
        "  return acc\n"
        "}\n"
    )


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
def test_descriptors_evaluate_once_per_epoch_but_every_call_decides(mode):
    register_context("Level", _CountingLevel)
    try:
        for write_at, evaluations, result in ((-1, 1, 190), (10, 2, 190 + 1000)):
            _CountingLevel.evaluations = 0
            dm = CountingDecisionMaker(DefaultDecisionMaker())
            got, _ = run_program(
                _memo_program(write_at), mode=mode, decision_maker=dm
            )
            assert got == result
            assert _CountingLevel.evaluations == evaluations
            assert dm.decisions == 20
    finally:
        unregister_context("Level")


class _RecordingRequests(DefaultDecisionMaker):
    def __init__(self):
        super().__init__()
        self.requests = []

    def decide(self, request):
        self.requests.append(request)
        return super().decide(request)


def test_only_event_mode_requests_carry_a_reply_topic():
    for mode in (DispatchMode.EVENT, DispatchMode.DIRECT):
        dm = _RecordingRequests()
        run_program(COUNTED, mode=mode, decision_maker=dm)
        assert len(dm.requests) == 20
        for request in dm.requests:
            if mode is DispatchMode.DIRECT:
                assert request.reply_topic is None
            else:
                expected = f"congo/decision/reply/{request.request_id}"
                assert str(request.reply_topic) == expected


def test_epoch_guard_decides_once_for_static_context():
    result_none, _ = run_counted(DispatchMode.EVENT, CachePolicy.NONE)
    result_guard, dm = run_counted(DispatchMode.EVENT, CachePolicy.EPOCH_GUARD)
    assert dm.decisions == 1
    assert result_guard == result_none


def test_epoch_guard_rebinds_after_store_writes():
    # one call site in a loop: decisions = 1 + number of epoch changes
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function f = |x| -> x\n"
        "function f = |x| @(Weather=RAINY) -> proceed(x + 100)\n"
        "function main = || {\n"
        "  let i = 0\n"
        "  let out = \"\"\n"
        "  while i < 6 {\n"
        "    out = out + f(1) + \",\"\n"
        "    if i == 2 { setConcrete(\"Weather\", \"rainfall_mm\", 9.0) }\n"
        "    i = i + 1\n"
        "  }\n"
        "  return out\n"
        "}\n"
    )
    dm = CountingDecisionMaker(DefaultDecisionMaker())
    result, _ = run_program(src, policy=CachePolicy.EPOCH_GUARD, decision_maker=dm)
    assert result == "1,1,1,101,101,101,"
    assert dm.decisions == 2


def test_each_call_site_binds_independently():
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function f = |x| -> x\n"
        "function f = |x| @(Weather=RAINY) -> proceed(x + 100)\n"
        "function main = || {\n"
        "  let a = f(1)\n"
        "  setConcrete(\"Weather\", \"rainfall_mm\", 9.0)\n"
        "  let b = f(1)\n"
        "  let c = f(1)\n"
        "  setConcrete(\"Weather\", \"rainfall_mm\", 0.0)\n"
        "  let d = f(1)\n"
        "  return \"\" + a + \",\" + b + \",\" + c + \",\" + d\n"
        "}\n"
    )
    dm = CountingDecisionMaker(DefaultDecisionMaker())
    result, _ = run_program(src, policy=CachePolicy.EPOCH_GUARD, decision_maker=dm)
    assert result == "1,101,101,1"
    # four textual sites, each pays its own first decision
    assert dm.decisions == 4


def test_epoch_guard_distinguishes_receivers():
    src = (
        "module m\n"
        "contexts = [ConfusedHero()]\n"
        "function tag = |o, label| {\n"
        "  o: define(\"who\", |this| -> label)\n"
        "  return o\n"
        "}\n"
        "function main = || {\n"
        "  let a = tag(DynamicObject(), \"a\")\n"
        "  let b = tag(DynamicObject(), \"b\")\n"
        "  a: define(\"who\", |this| @(ConfusedHero=TRUE) -> \"?\" )\n"
        "  b: define(\"who\", |this| @(ConfusedHero=TRUE) -> \"??\" )\n"
        "  let i = 0\n"
        "  let out = \"\"\n"
        "  while i < 3 {\n"
        "    out = out + a: who() + b: who()\n"
        "    i = i + 1\n"
        "  }\n"
        "  return out\n"
        "}\n"
    )
    result, _ = run_program(
        src,
        policy=CachePolicy.EPOCH_GUARD,
        initial=[("ConfusedHero", "confused", True)],
    )
    assert result == "???" * 3


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
def test_objects_with_one_define_history_run_their_own_chains_at_one_site(mode):
    src = (
        "module m\n"
        "contexts = [ConfusedHero()]\n"
        "function make = |n| {\n"
        "  let o = DynamicObject()\n"
        "  o: define(\"get\", |this| -> n)\n"
        "  o: define(\"get\", |this| @(ConfusedHero=TRUE) -> proceed() + 1)\n"
        "  return o\n"
        "}\n"
        "function probe = |o| -> o: get()\n"
        "function main = || {\n"
        "  let a = make(10)\n"
        "  let b = make(20)\n"
        "  return \"\" + probe(a) + \",\" + probe(b) + \",\" + probe(a) + \",\" + probe(b)\n"
        "}\n"
    )
    dm = CountingDecisionMaker(DefaultDecisionMaker())
    result, _ = run_program(
        src,
        mode=mode,
        policy=CachePolicy.EPOCH_GUARD,
        decision_maker=dm,
        initial=[("ConfusedHero", "confused", True)],
    )
    assert result == "11,21,11,21"
    # one site, and each call's receiver differs from the one remembered there
    assert dm.decisions == 4


def test_defining_a_layer_invalidates_cached_chains():
    src = (
        "module m\n"
        "contexts = [ConfusedHero()]\n"
        "function main = || {\n"
        "  let o = DynamicObject()\n"
        "  o: define(\"f\", |this| -> \"base\")\n"
        "  o: define(\"f\", |this| @(ConfusedHero=FALSE) -> \"calm\")\n"
        "  let first = o: f()\n"
        "  o: define(\"f\", |this| @(ConfusedHero=FALSE, ConfusedHero2=X) -> \"never\")\n"
        "  return first + \"/\" + o: f()\n"
        "}\n"
    )
    # second define bumps the object version, so the site re-decides even
    # though the store epoch is unchanged
    with pytest.raises(UnknownContextError):
        run_program(src, policy=CachePolicy.EPOCH_GUARD)


def test_version_bump_via_new_method_redecides():
    src = (
        "module m\n"
        "contexts = [ConfusedHero()]\n"
        "function main = || {\n"
        "  let o = DynamicObject()\n"
        "  o: define(\"f\", |this| -> \"base\")\n"
        "  o: define(\"f\", |this| @(ConfusedHero=TRUE) -> \"layered\")\n"
        "  let first = o: f()\n"
        "  o: define(\"g\", |this| -> 0)\n"
        "  return first + \"/\" + o: f()\n"
        "}\n"
    )
    dm = CountingDecisionMaker(DefaultDecisionMaker())
    result, _ = run_program(
        src,
        policy=CachePolicy.EPOCH_GUARD,
        decision_maker=dm,
        initial=[("ConfusedHero", "confused", True)],
    )
    assert result == "layered/layered"
    assert dm.decisions == 2


def test_per_object_decision_maker_overrides_global():
    src = (
        "module m\n"
        "contexts = [ConfusedHero()]\n"
        "function build = |withOwn| {\n"
        "  let o = DynamicObject()\n"
        "  o: define(\"f\", |this| -> \"base\")\n"
        "  o: define(\"f\", |this| @(ConfusedHero=TRUE) -> \"layered\")\n"
        "  if withOwn {\n"
        "    o: decisionmaker(decisionMaker(\"counting\"))\n"
        "  }\n"
        "  return o\n"
        "}\n"
        "function main = |withOwn| -> build(withOwn): f()\n"
    )
    for mode in (DispatchMode.EVENT, DispatchMode.DIRECT):
        with_own = CountingDecisionMaker(DefaultDecisionMaker())
        result, _ = run_program(
            src, entry="main", args=(True,), mode=mode, decision_maker=with_own
        )
        assert result == "base"
        assert with_own.decisions == 0  # global maker never consulted

        fallback = CountingDecisionMaker(DefaultDecisionMaker())
        result, _ = run_program(
            src, entry="main", args=(False,), mode=mode, decision_maker=fallback
        )
        assert result == "base"
        assert fallback.decisions == 1


def test_contexts_override_narrows_eligibility():
    src = (
        "module m\n"
        "contexts = [Weather(), Battery()]\n"
        "function main = || {\n"
        "  let o = DynamicObject()\n"
        "  o: define(\"f\", |this| -> \"base\")\n"
        "  o: define(\"f\", |this| @(Weather=RAINY) -> \"wet\")\n"
        "  let before = o: f()\n"
        "  o: contexts(\"Battery\")\n"
        "  return before + \"/\" + o: f()\n"
        "}\n"
    )
    result, _ = run_program(src, initial=[("Weather", "rainfall_mm", 9.0)])
    assert result == "wet/base"


def test_plain_programs_stay_off_the_bus():
    src = (
        "module m\n"
        "function f = |x| -> x + 1\n"
        "function main = || -> f(1) + f(2)\n"
    )
    trace: list = []
    result, _ = run_program(src, trace=trace)
    assert result == 5
    assert trace == []


def test_contextual_calls_traverse_the_bus_in_event_mode():
    trace: list = []
    run_program(
        LAYERED, entry="main", args=(0,), trace=trace,
        initial=[("Weather", "rainfall_mm", 7.0)],
    )
    kinds = [line.split()[-1] for line in trace]
    assert kinds == ["InvocationRequest", "DecisionResponse"]


def test_direct_mode_skips_the_bus():
    trace: list = []
    run_program(
        LAYERED, entry="main", args=(0,), mode=DispatchMode.DIRECT, trace=trace,
        initial=[("Weather", "rainfall_mm", 7.0)],
    )
    assert trace == []


def test_set_concrete_then_current_meta():
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function main = || {\n"
        "  setConcrete(\"Weather\", \"rainfall_mm\", 7.0)\n"
        "  return currentMeta(\"Weather\")\n"
        "}\n"
    )
    assert run_program(src)[0] == "RAINY"


def test_current_meta_unknown_context():
    src = "module m\nfunction main = || -> currentMeta(\"Weather\")\n"
    with pytest.raises(UnknownContextError):
        run_program(src)


def test_set_concrete_rejects_non_scalar_key():
    src = "module m\nfunction main = || { setConcrete(\"C\", 1, 2) }\n"
    with pytest.raises(CongoTypeError):
        run_program(src)


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
@pytest.mark.parametrize("context", ["a/b", ""])
def test_set_concrete_context_that_names_no_topic_leaves_the_store_alone(mode, context):
    src = f'module m\nfunction main = || {{ setConcrete("{context}", "k", 1) }}\n'
    with Runtime(compile_source(src, file="<test>"), RunConfig(dispatch_mode=mode)) as rt:
        epoch = rt.store.epoch
        with pytest.raises(CongoTypeError):
            rt.call("main")
        assert rt.store.epoch == epoch


# --- decision failure paths ----------------------------------------------------------


class _Crashing(DecisionMaker):
    def decide(self, request):
        raise RuntimeError("model offline")


class _Sleepy(DecisionMaker):
    def decide(self, request):
        time.sleep(0.3)
        return DefaultDecisionMaker().decide(request)


class _Silent(DecisionMaker):
    def decide(self, request):
        return None


class _PlainTuple(DecisionMaker):
    """Returns a plain tuple equal to the default maker's (valid) reply."""

    def decide(self, request):
        good = DefaultDecisionMaker().decide(request)
        assert tuple(good) == good
        return tuple(good)


class _Scrambling(DecisionMaker):
    """Returns the right variants in an illegal order."""

    def decide(self, request):
        good = DefaultDecisionMaker().decide(request)
        return DecisionResponse(good.request_id, tuple(reversed(good.chain)), good.epoch)


def contextual_args():
    return dict(
        entry="main", args=(0,), initial=[("Weather", "rainfall_mm", 7.0)]
    )


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
def test_crashing_maker_surfaces_decision_failed(mode):
    with pytest.raises(DecisionFailedError) as err:
        run_program(LAYERED, mode=mode, decision_maker=_Crashing(), **contextual_args())
    assert "model offline" in str(err.value)
    span = err.value.span  # the call f(d) in main
    assert (span.line, span.column) == (5, 24)


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
def test_non_response_reply_is_a_decision_failure_at_the_call(mode):
    with pytest.raises(DecisionFailedError, match="decision reply: NoneType") as err:
        run_program(LAYERED, mode=mode, decision_maker=_Silent(), **contextual_args())
    span = err.value.span  # the call f(d) in main
    assert (span.line, span.column) == (5, 24)


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
def test_plain_tuple_reply_is_a_decision_failure_at_the_call(mode):
    # equal to a valid DecisionResponse, so only the type check can stop it
    with pytest.raises(DecisionFailedError, match="decision reply: tuple") as err:
        run_program(LAYERED, mode=mode, decision_maker=_PlainTuple(), **contextual_args())
    span = err.value.span  # the call f(d) in main
    assert (span.line, span.column) == (5, 24)


@pytest.mark.parametrize(
    "mode, maker",
    [
        (DispatchMode.EVENT, _Scrambling),
        (DispatchMode.DIRECT, _Scrambling),
        (DispatchMode.EVENT, _Silent),
        (DispatchMode.DIRECT, _Silent),
    ],
    ids=["DispatchMode.EVENT", "DispatchMode.DIRECT", "none-EVENT", "none-DIRECT"],
)
def test_scrambled_chain_rejected_by_validation(mode, maker):
    with pytest.raises(DecisionFailedError):
        run_program(LAYERED, mode=mode, decision_maker=maker(), **contextual_args())


def test_slow_maker_times_out_in_event_mode():
    lowered = compile_source(LAYERED, file="<test>")
    config = RunConfig(
        decision_maker=_Sleepy(),
        decision_timeout=0.05,
        initial_values=(("Weather", "rainfall_mm", 7.0),),
        println=lambda s: None,
    )
    with pytest.raises(DecisionTimeoutError) as err:
        run(lowered, entry="main", args=(0,), config=config)
    span = err.value.span  # the call f(d) in main
    assert (span.line, span.column) == (5, 24)


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
@pytest.mark.parametrize(
    "timeout", [-0.5, math.nan, threading.TIMEOUT_MAX * 2],
    ids=["negative", "nan", "too_large"],
)
def test_a_bad_decision_timeout_is_rejected_when_the_runtime_is_built(mode, timeout):
    lowered = compile_source(LAYERED, file="<test>")
    config = RunConfig(dispatch_mode=mode, decision_timeout=timeout)
    with pytest.raises(ValueError, match=r"decision_timeout must be in \[0, TIMEOUT_MAX\]"):
        Runtime(lowered, config)


def test_a_reply_decided_after_shutdown_is_dropped_without_a_log_record(caplog):
    config = RunConfig(
        decision_maker=_Sleepy(),
        decision_timeout=0.05,
        initial_values=(("Weather", "rainfall_mm", 7.0),),
        println=lambda s: None,
    )
    runtime = Runtime(compile_source(LAYERED, file="<test>"), config).start()
    with caplog.at_level(logging.ERROR):
        try:
            with pytest.raises(DecisionTimeoutError):
                runtime.call("main", (0,))
        finally:
            runtime.shutdown()  # the dispatcher finishes the late decide first
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []


class _Gated(DefaultDecisionMaker):
    """Decides only while ``open`` is set, so a test can make it miss deadlines."""

    def __init__(self):
        super().__init__()
        self.open = threading.Event()
        self.open.set()
        self.decisions = 0

    def decide(self, request):
        self.decisions += 1
        assert self.open.wait(5.0)
        return super().decide(request)


def test_event_mode_leaks_no_subscription_pending_reply_or_thread():
    threads_before = threading.active_count()
    dm = _Gated()
    config = RunConfig(
        decision_maker=dm,
        decision_timeout=0.05,
        initial_values=(("Weather", "rainfall_mm", 7.0),),
        println=lambda s: None,
    )
    runtime = Runtime(compile_source(COUNTED, file="<test>"), config).start()
    try:
        for _ in range(50):  # 20 decided calls each
            assert runtime.call("main") == sum(range(20)) + 20 * 100
        dm.open.clear()
        for _ in range(3):
            with pytest.raises(DecisionTimeoutError):
                runtime.call("f", (1,))
        dm.open.set()
        # queued behind the three late replies, which must all be dropped
        assert runtime.call("f", (1,)) == 101
        assert dm.decisions == 1000 + 3 + 1
        subscriptions = runtime.bus._subscriptions
        assert [s.pattern for s in subscriptions] == [REQUEST_PATTERN]
        assert runtime.bus._pending == {}
    finally:
        runtime.shutdown()
    assert threading.active_count() == threads_before


class _Exploding:
    name = "Exploding"

    def evaluate(self, view):
        raise RuntimeError("sensor offline")


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
def test_raising_descriptor_error_carries_the_call_span(mode):
    src = (
        "module m\n"
        "contexts = [Exploding()]\n"
        "function f = |x| -> x\n"
        "function f = |x| @(Exploding=ON) -> x + 1\n"
        "function main = || -> f(1)\n"
    )
    register_context("Exploding", _Exploding)
    try:
        with pytest.raises(ContextEvaluationError) as err:
            run_program(src, mode=mode)
    finally:
        unregister_context("Exploding")
    assert "sensor offline" in str(err.value)
    span = err.value.span  # the call f(1) in main
    assert (span.line, span.column) == (5, 23)


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
def test_raising_descriptor_in_current_meta_carries_the_call_span(mode):
    src = (
        "module m\n"
        "contexts = [Exploding()]\n"
        "function main = || -> currentMeta(\"Exploding\")\n"
    )
    register_context("Exploding", _Exploding)
    try:
        with pytest.raises(ContextEvaluationError) as err:
            run_program(src, mode=mode)
    finally:
        unregister_context("Exploding")
    assert "sensor offline" in str(err.value)
    span = err.value.span  # the call currentMeta(...) in main
    assert (span.line, span.column) == (3, 23)


class _Malformed(DecisionMaker):
    """Answers with the right variants in a chain of the wrong shape."""

    def __init__(self, shape):
        self.shape = shape

    def decide(self, request):
        good = DefaultDecisionMaker().decide(request)
        chain = {
            "list": list(good.chain),
            "unhashable-element": ([1], good.chain[-1]),
            "non-sequence": 5,
            "non-variant-id-element": (good.chain[0], "f"),
            "plain-tuple-elements": tuple(tuple(v) for v in good.chain),
        }[self.shape]
        return DecisionResponse(good.request_id, chain, good.epoch)


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
@pytest.mark.parametrize(
    "shape",
    [
        "list",
        "unhashable-element",
        "non-sequence",
        "non-variant-id-element",
        "plain-tuple-elements",
    ],
)
def test_malformed_chain_is_a_decision_failure(mode, shape):
    with pytest.raises(DecisionFailedError, match="tuple of variant ids") as err:
        run_program(
            LAYERED, mode=mode, decision_maker=_Malformed(shape), **contextual_args()
        )
    span = err.value.span  # the call f(d) in main
    assert (span.line, span.column) == (5, 24)


class _LegalThenIllegal(DecisionMaker):
    """A legal chain for the first call, then an illegal one of the same table."""

    def __init__(self, kind):
        self.kind = kind
        self.calls = 0

    def decide(self, request):
        good = DefaultDecisionMaker().decide(request)
        self.calls += 1
        if self.calls == 1:
            return good
        layer, base = good.chain
        chain = {
            "scrambled": (base, layer),
            "doubled-base": (layer, base, base),
            "foreign": (layer, VariantId("stranger", 9)),
        }[self.kind]
        return DecisionResponse(good.request_id, chain, good.epoch)


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
@pytest.mark.parametrize("kind", ["scrambled", "doubled-base", "foreign"])
def test_illegal_chain_rejected_after_a_legal_one_was_cached(mode, kind):
    src = LAYERED.replace("-> f(d)\n", "-> f(d) + f(d)\n")
    dm = _LegalThenIllegal(kind)
    with pytest.raises(DecisionFailedError):
        run_program(src, mode=mode, decision_maker=dm, **contextual_args())
    assert dm.calls == 2


# --- the default maker's decision memo -----------------------------------------------


class _MissCounting(DefaultDecisionMaker):
    """Records each decision the memo could not answer."""

    def __init__(self):
        super().__init__()
        self.misses = []

    def _chain(self, request):
        self.misses.append(request.function_name)
        return super()._chain(request)


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
def test_layer_defined_after_a_decision_runs_on_the_next_call(mode):
    src = (
        "module m\n"
        "contexts = [Weather(), Battery()]\n"
        "function main = || {\n"
        "  let o = DynamicObject()\n"
        "  o: define(\"f\", |this| -> \"base\")\n"
        "  o: define(\"f\", |this| @(Weather=RAINY) -> \"rainy \" + proceed())\n"
        "  let first = o: f()\n"
        "  o: define(\"f\", |this| @(Battery=OK) -> \"ok \" + proceed())\n"
        "  return first + \" | \" + o: f()\n"
        "}\n"
    )
    dm = _MissCounting()
    result, _ = run_program(
        src, mode=mode, decision_maker=dm, initial=[("Weather", "rainfall_mm", 7.0)]
    )
    assert result == "rainy base | ok rainy base"
    assert dm.misses == ["f", "f"]


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
def test_contexts_receiver_and_function_each_decide_once(mode):
    # o sees only Weather, so its Battery layer never runs; f sees both
    src = (
        "module m\n"
        "contexts = [Weather(), Battery()]\n"
        "function f = |x| -> x\n"
        "function f = |x| @(Battery=OK) -> proceed(x) + 1\n"
        "function main = || {\n"
        "  let o = DynamicObject(): contexts(\"Weather\")\n"
        "  o: define(\"g\", |this, x| -> x)\n"
        "  o: define(\"g\", |this, x| @(Battery=OK) -> proceed(x) + 100)\n"
        "  o: define(\"g\", |this, x| @(Weather=RAINY) -> proceed(x) + 10)\n"
        "  let i = 0\n"
        "  let acc = 0\n"
        "  while i < 50 {\n"
        "    acc = acc + o: g(i) + f(i)\n"
        "    i = i + 1\n"
        "  }\n"
        "  return acc\n"
        "}\n"
    )
    dm = _MissCounting()
    result, _ = run_program(
        src, mode=mode, decision_maker=dm, initial=[("Weather", "rainfall_mm", 7.0)]
    )
    assert result == sum(i + 10 + i + 1 for i in range(50))
    assert dm.misses == ["g", "f"]


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
def test_meta_neutral_writes_keep_the_decision(mode):
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function f = |x| -> x\n"
        "function f = |x| @(Weather=RAINY) -> proceed(x + 100)\n"
        "function main = || {\n"
        "  let i = 0\n"
        "  let acc = 0\n"
        "  while i < 20 {\n"
        "    setConcrete(\"Weather\", \"rainfall_mm\", 5.0 + i)\n"
        "    acc = acc + f(i)\n"
        "    i = i + 1\n"
        "  }\n"
        "  setConcrete(\"Weather\", \"rainfall_mm\", 0.0)\n"
        "  return acc + f(1000)\n"
        "}\n"
    )
    dm = _MissCounting()
    result, _ = run_program(src, mode=mode, decision_maker=dm)
    assert result == sum(range(20)) + 20 * 100 + 1000
    assert dm.misses == ["f", "f"]


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
def test_a_thousand_short_lived_objects_each_run_their_own_chain(mode):
    # Same-shaped tables whose chains differ.  No method closes over its
    # object, so each object is freed right after its call, and a memo
    # that did not hold its keys' objects would see a freed table's
    # address come back.
    src = (
        "module m\n"
        "contexts = [Weather(), Battery()]\n"
        "function base = |k| -> |this| -> k\n"
        "function layer = |k| {\n"
        "  if k % 3 == 0 { return |this| @(Weather=RAINY) -> proceed() * 2 }\n"
        "  if k % 3 == 1 { return |this| @(Weather=CLEAR) -> proceed() * 3 }\n"
        "  return |this| @(Battery=OK) -> proceed() + 5\n"
        "}\n"
        "function make = |k| -> DynamicObject(): define(\"v\", base(k)): "
        "define(\"v\", layer(k))\n"
        "function main = || {\n"
        "  let i = 0\n"
        "  let acc = 0\n"
        "  while i < 1000 {\n"
        "    acc = acc + make(i): v()\n"
        "    i = i + 1\n"
        "  }\n"
        "  return acc\n"
        "}\n"
    )
    dm = _MissCounting()
    result, _ = run_program(
        src, mode=mode, decision_maker=dm, initial=[("Weather", "rainfall_mm", 7.0)]
    )
    assert result == sum((2 * k, k, k + 5)[k % 3] for k in range(1000))
    assert len(dm.misses) == 1000


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
def test_a_meta_state_that_recurs_is_its_first_snapshot_and_decision(mode):
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function f = |x| -> x\n"
        "function f = |x| @(Weather=RAINY) -> proceed(x + 100)\n"
        "function main = || {\n"
        "  let acc = f(1)\n"
        "  setConcrete(\"Weather\", \"rainfall_mm\", 7.0)\n"
        "  acc = acc + f(2)\n"
        "  setConcrete(\"Weather\", \"rainfall_mm\", 0.0)\n"
        "  acc = acc + f(3)\n"
        "  setConcrete(\"Weather\", \"rainfall_mm\", 9.0)\n"
        "  return acc + f(4)\n"
        "}\n"
    )
    snapshots = []

    class Recording(_MissCounting):
        def decide(self, request):
            snapshots.append(request.meta_snapshot)
            return super().decide(request)

    dm = Recording()
    result, _ = run_program(src, mode=mode, decision_maker=dm)
    assert result == 1 + 102 + 3 + 104
    clear, rainy, clear_again, rainy_again = snapshots
    assert clear_again is clear and rainy_again is rainy and rainy is not clear
    assert dm.misses == ["f", "f"]


def test_one_maker_shared_by_runtimes_at_different_epochs_decides_once_each():
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function f = |x| -> x\n"
        "function f = |x| @(Weather=RAINY) -> proceed(x + 100)\n"
    )
    lowered = compile_source(src, file="<test>")
    dm = _MissCounting()
    seeds = ([("Weather", "rainfall_mm", 7.0)],
             [("Weather", "rainfall_mm", 7.0), ("Weather", "rainfall_mm", 8.0)])
    runtimes = [
        Runtime(lowered, RunConfig(dispatch_mode=DispatchMode.DIRECT,
                                   decision_maker=dm, initial_values=tuple(seed))).start()
        for seed in seeds
    ]
    try:
        assert [rt.store.epoch for rt in runtimes] == [1, 2]
        for i in range(200):
            for rt in runtimes:
                assert rt.call("f", (i,)) == i + 100
    finally:
        for rt in runtimes:
            rt.shutdown()
    assert dm.misses == ["f", "f"]


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
def test_memo_stays_within_its_cap_over_many_objects_at_one_epoch(mode):
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function main = || {\n"
        "  let i = 0\n"
        "  while i < 5000 {\n"
        "    let o = DynamicObject()\n"
        "    o: define(\"v\", |this| -> 1)\n"
        "    o: define(\"v\", |this| @(Weather=RAINY) -> proceed() + 1)\n"
        "    i = i + o: v()\n"
        "  }\n"
        "  return i\n"
        "}\n"
    )
    dm = _MissCounting()
    result, _ = run_program(src, mode=mode, decision_maker=dm)
    assert result == 5000
    assert len(dm.misses) == 5000
    assert 0 < len(dm._memo) <= _MEMO_CAP


def test_a_layer_defined_on_many_objects_is_desugared_and_compiled_once(monkeypatch):
    src = (
        "module m\n"
        "contexts = [Weather(), Battery()]\n"
        "function make = || {\n"
        "  let o = DynamicObject()\n"
        "  o: define(\"v\", |this| -> \"base\")\n"
        "  o: define(\"v\", |this| @(Weather=RAINY)+ { println(\"before\") })\n"
        "  o: define(\"v\", |this| +@(Battery=OK) { println(\"after\") })\n"
        "  return o\n"
        "}\n"
        "function use = |o| -> o: v()\n"
    )
    compiled = []
    compile_lambda = interpreter_module._compile_lambda
    monkeypatch.setattr(
        interpreter_module, "_compile_lambda",
        lambda lam: compiled.append(lam) or compile_lambda(lam),
    )
    output = []
    config = RunConfig(initial_values=(("Weather", "rainfall_mm", 7.0),),
                       println=output.append)
    with Runtime(compile_source(src, file="<test>"), config) as rt:
        objects = [rt.call("make") for _ in range(100)]
        assert all(rt.call("use", (o,)) == "base" for o in objects)
    assert output == ["before", "after"] * 100
    layer_bodies = {id(v.body) for o in objects for v in o.methods["v"].layers}
    assert len(layer_bodies) == 2
    assert layer_bodies <= set(map(id, compiled))
    assert len(compiled) == len(set(map(id, compiled)))


def test_a_failed_define_leaves_no_method_behind():
    # ConGo cannot catch the error, so only a host sees the object after it
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function make = || -> DynamicObject()\n"
        "function bad = |o| -> o: define(\"m\", |this| @(Nope=X) -> 1)\n"
        "function use = |o| -> o: m()\n"
    )
    with Runtime(compile_source(src, file="<test>")) as rt:
        failed, fresh = rt.call("make"), rt.call("make")
        with pytest.raises(UnknownContextError):
            rt.call("bad", (failed,))
        errors = []
        for obj in (failed, fresh):
            with pytest.raises(UnknownMethodError) as err:
                rt.call("use", (obj,))
            errors.append((str(err.value), err.value.span))
    assert errors[0] == errors[1]


def test_one_default_maker_serves_event_runtimes_concurrently():
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function f = |x| -> x\n"
        "function f = |x| @(Weather=RAINY) -> proceed(x) + 1000\n"
        "function f = |x| @(Weather=CLEAR) -> proceed(x) * 2\n"
    )
    lowered = compile_source(src, file="<test>")
    dm = DefaultDecisionMaker()
    rainy, clear = (lambda x: x + 1000), (lambda x: 2 * x)
    # Four event-mode runtimes, two per context, plus two direct-mode ones
    # that decide on their client threads.  Each runtime is at its own
    # epoch, so every runtime's misses keep dropping the memo the others
    # are reading.
    cases = []
    for writes, oracle, mode in (
        (1, rainy, DispatchMode.EVENT),
        (2, clear, DispatchMode.EVENT),
        (3, rainy, DispatchMode.EVENT),
        (4, clear, DispatchMode.EVENT),
        (5, rainy, DispatchMode.DIRECT),
        (6, clear, DispatchMode.DIRECT),
    ):
        rainfall = 7.0 if oracle is rainy else 0.0
        initial = (("Weather", "rainfall_mm", rainfall),) * writes
        config = RunConfig(dispatch_mode=mode, decision_maker=dm, initial_values=initial)
        cases.append((config, oracle))
    runtimes = [Runtime(lowered, config).start() for config, _ in cases]
    wrong = []

    def client(runtime, oracle):
        for i in range(2000):
            try:
                got = runtime.call("f", (i,))
            except Exception as exc:  # reported below, not lost in the thread
                got = exc
            if got != oracle(i):
                wrong.append((i, got))

    threads = [
        threading.Thread(target=client, args=(runtime, oracle))
        for runtime, (_, oracle) in zip(runtimes, cases)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
        for runtime in runtimes:
            runtime.shutdown()
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_unknown_decision_maker_name_fails_at_start():
    with pytest.raises(UnknownDecisionMakerError):
        run_program(LAYERED, decision_maker="nope", **contextual_args())


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
def test_an_unknown_maker_name_fails_start_before_the_bus_is_built(mode):
    threads_before = threading.active_count()
    runtime = Runtime(
        compile_source(LAYERED, file="<test>"),
        RunConfig(dispatch_mode=mode, decision_maker="nope"),
    )
    with pytest.raises(UnknownDecisionMakerError):
        runtime.start()
    assert runtime.bus is None
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("mode", [DispatchMode.EVENT, DispatchMode.DIRECT])
def test_a_decision_maker_is_handed_nothing_but_requests(mode):
    made, inits = [], []

    class RecordsInit(DefaultDecisionMaker):
        def __init__(self):
            super().__init__()
            self.decided = 0
            made.append(self)

        def init(self, *args):
            inits.append(args)

        def decide(self, request):
            self.decided += 1
            return super().decide(request)

    src = (
        "module m\n"
        "contexts = [ConfusedHero()]\n"
        "function f = |x| -> x\n"
        "function f = |x| @(ConfusedHero=TRUE) -> proceed(x + 1)\n"
        "function main = || {\n"
        "  let o = DynamicObject()\n"
        "  o: define(\"g\", |this| -> 10)\n"
        "  o: define(\"g\", |this| @(ConfusedHero=TRUE) -> proceed() + 1)\n"
        "  o: decisionmaker(decisionMaker(\"records-init\"))\n"
        "  return f(1) + o: g()\n"
        "}\n"
    )
    register_decision_maker("records-init", RecordsInit)
    try:
        # one maker passed in, one registered, and one per object each run
        for maker in (RecordsInit(), "records-init"):
            result, _ = run_program(
                src, mode=mode, decision_maker=maker,
                initial=[("ConfusedHero", "confused", True)],
            )
            assert result == 2 + 11
    finally:
        unregister_decision_maker("records-init")
    assert [m.decided for m in made] == [1, 1, 1, 1]
    assert inits == []


def test_named_decision_maker_resolved_from_registry():
    register_decision_maker("always-crash", _Crashing)
    try:
        with pytest.raises(DecisionFailedError):
            run_program(
                LAYERED, decision_maker="always-crash", **contextual_args()
            )
    finally:
        unregister_decision_maker("always-crash")


# --- runtime lifecycle -----------------------------------------------------------------


def test_runtime_reuse_across_calls():
    src = (
        "module m\n"
        "function bump = |x| -> x + 1\n"
    )
    lowered = compile_source(src, file="<test>")
    with Runtime(lowered, RunConfig()) as runtime:
        assert runtime.call("bump", (1,)) == 2
        assert runtime.call("bump", (41,)) == 42
    assert runtime.bus.closed


def test_run_shuts_the_bus_down_even_on_errors():
    src = "module m\nfunction main = || -> 1 / 0\n"
    lowered = compile_source(src, file="<test>")
    runtime = Runtime(lowered, RunConfig())
    runtime.start()
    try:
        with pytest.raises(DivisionByZeroError):
            runtime.call("main")
    finally:
        runtime.shutdown()
    assert runtime.bus.closed
