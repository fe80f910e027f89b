"""The front end runs with the cyclic collector paused, and leaves it as found.

``tokenize``, ``parse``, ``parse_source``, ``lower`` and ``compile_source``
each pause the process-wide collector while they run (``nodes.gc_paused``).
After any call, on success or error, nested, concurrent or near the
recursion limit, the collector is enabled again exactly when it was
enabled before the call.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from congo import compile_source, lower, nodes, parse, parse_source, tokenize
from congo.errors import LexError, MissingBaseError, ParseError


def big_module(functions: int) -> str:
    """A module with a base and three layers per function (``4 * functions``
    declarations), so lowering builds tables, desugared layers and variants."""
    lines = ["module gc.big", "", "contexts = [Weather(), Battery()]", ""]
    for i in range(functions):
        lines += [
            f"function f{i} = |x, y| {{",
            f"  let z = x * {i} + (y - 3) % 7",
            "  if z > 10 && not (y == 2) { return z - 1 } else { z = z + 1 }",
            "  while z < 0 { z = z + 2 }",
            f'  return f{i}helper(z, "s{i}", 1.5, |w| -> w + z)',
            "}",
            f"function f{i} = |x, y| @(Weather=RAINY) -> proceed(x + {i}, y)",
            f"function f{i} = |x, y| @(Battery=LOW)+ {{ println(x) }}",
            f"function f{i} = |x, y| +@(Weather=SUNNY, Battery=HIGH) {{ let q = x y = q }}",
        ]
    return "\n".join(lines) + "\n"


SMALL = big_module(3)
BIG = big_module(500)  # 2000 declarations


@pytest.fixture(autouse=True)
def collector_restored():
    """Whatever a test does, the rest of the suite runs with the collector as before."""
    was = gc.isenabled()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


def entry_points(source: str):
    """Each front-end entry point, as a call on ``source`` with its inputs made first."""
    tokens = tokenize(source, "<gc>")
    ast = parse(tokens)
    return {
        "tokenize": lambda: tokenize(source, "<gc>"),
        "parse": lambda: parse(tokens),
        "parse_source": lambda: parse_source(source, "<gc>"),
        "lower": lambda: lower(ast),
        "compile_source": lambda: compile_source(source, "<gc>"),
    }


ENTRY_NAMES = ("tokenize", "parse", "parse_source", "lower", "compile_source")


@pytest.mark.parametrize("name", ENTRY_NAMES)
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_successful_call_leaves_the_collector_as_it_found_it(name, enabled):
    call = entry_points(SMALL)[name]
    gc.enable() if enabled else gc.disable()
    assert call() is not None
    assert gc.isenabled() is enabled


def test_each_entry_point_keeps_its_name_and_docstring():
    for name, call in zip(ENTRY_NAMES, (tokenize, parse, parse_source, lower, compile_source)):
        assert call.__name__ == name and call.__wrapped__.__name__ == name
    assert tokenize.__doc__.startswith("Tokenize ``source``")


LEX_BAD = "module m\nfunction f = || -> 1 ~ 2\n"
PARSE_BAD = "module m\nfunction f = || -> (1 +\n"
TOO_DEEP = "module m\nfunction f = || -> " + "(" * 3000 + "1" + ")" * 3000 + "\n"
NO_BASE = (
    "module m\ncontexts = [Weather()]\n"
    "function f = || @(Weather=RAINY)+ { println(1) }\n"
)

FAILING_CALLS = [
    ("tokenize", LexError, "illegal character '~'", lambda: tokenize(LEX_BAD)),
    ("parse_source", LexError, "illegal character '~'", lambda: parse_source(LEX_BAD)),
    ("compile_source", LexError, "illegal character '~'", lambda: compile_source(LEX_BAD)),
    ("parse", ParseError, None, lambda: parse(tokenize(PARSE_BAD))),
    ("parse_source", ParseError, None, lambda: parse_source(PARSE_BAD)),
    ("compile_source", ParseError, None, lambda: compile_source(PARSE_BAD)),
    ("parse_source", ParseError, "nesting too deep", lambda: parse_source(TOO_DEEP)),
    ("compile_source", ParseError, "nesting too deep", lambda: compile_source(TOO_DEEP)),
    ("lower", MissingBaseError, None, lambda: lower(parse_source(NO_BASE))),
    ("compile_source", MissingBaseError, None, lambda: compile_source(NO_BASE)),
]


@pytest.mark.parametrize(
    "error, message, call",
    [case[1:] for case in FAILING_CALLS],
    ids=[f"{case[0]}-{case[1].__name__}-{i}" for i, case in enumerate(FAILING_CALLS)],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_failing_call_leaves_the_collector_as_it_found_it(error, message, call, enabled):
    gc.enable() if enabled else gc.disable()
    with pytest.raises(error) as err:
        call()
    assert gc.isenabled() is enabled
    if message is not None:
        assert err.value.message == message
    assert err.value.span.file == "<string>" and err.value.span.line >= 2


def test_threads_compiling_a_large_module_at_once_leave_the_collector_enabled():
    # more threads than cores and a short switch interval, so the pauses of
    # different threads overlap and end in every order
    source, tables = big_module(125), []

    def compile_twice():
        for _ in range(2):
            tables.append(len(compile_source(source).tables))

    assert gc.isenabled()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=compile_twice) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert tables == [125] * 8
    assert gc.isenabled()


def test_a_pause_that_ends_while_another_thread_enters_leaves_the_collector_enabled(
    monkeypatch,
):
    # B finds the collector paused by A, and A's pause ends before B goes on.
    # B must then write nothing: a B that paused anyway would be the last
    # to write, and would leave the collector disabled for good.
    paused, checked, a_done = threading.Event(), threading.Event(), threading.Event()

    class SteppedGc:  # the real collector; B's state check waits for A to finish
        enable, disable = staticmethod(gc.enable), staticmethod(gc.disable)
        collect, get_count = staticmethod(gc.collect), staticmethod(gc.get_count)
        get_threshold = staticmethod(gc.get_threshold)

        @staticmethod
        def isenabled():
            state = gc.isenabled()
            if threading.current_thread() is b:
                checked.set()
                a_done.wait(10)
            return state

    monkeypatch.setattr(nodes, "gc", SteppedGc)

    @nodes.gc_paused
    def a_work():
        paused.set()
        checked.wait(10)

    a = threading.Thread(target=lambda: (a_work(), a_done.set()))
    b = threading.Thread(target=nodes.gc_paused(lambda: None))
    a.start()
    assert paused.wait(10)
    b.start()
    for thread in (a, b):
        thread.join(timeout=10)
    assert not a.is_alive() and not b.is_alive()
    assert checked.is_set() and a_done.is_set()
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_compiles_started_near_the_recursion_limit_restore_the_collector(enabled):
    # starting deeper and deeper, a compile runs out of stack in every part of
    # the front end, the pause itself included; each must still leave the
    # collector as it found it
    outcomes = set()

    def at_depth(depth, call):
        if depth:
            return at_depth(depth - 1, call)
        return call()

    def here():
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        return depth

    limit, base = sys.getrecursionlimit(), here()
    gc.enable() if enabled else gc.disable()
    for name, call in entry_points(SMALL).items():
        for depth in range(limit - base - 120, limit - base):
            try:
                at_depth(depth, call)
                outcomes.add((name, "ok"))
            except (RecursionError, ParseError) as exc:
                outcomes.add((name, type(exc).__name__))
            assert gc.isenabled() is enabled, (name, depth)
    for name in ENTRY_NAMES:
        assert (name, "ok") in outcomes and (name, "RecursionError") in outcomes
    assert ("parse", "ParseError") in outcomes


def test_front_end_makes_one_young_pass_on_a_large_module_and_owes_none():
    # a tripwire: unpaused, the front end makes hundreds of gen-0 collections
    # on this module, so an entry point that loses its pause fails here.
    # Paused, each call makes exactly the one young-generation pass it owes,
    # before it returns: a pass left owed would start at some later
    # allocation of the caller's, and stall whatever code that is.
    threshold = gc.get_threshold()[0]
    tokens = tokenize(BIG)
    assert len(tokens) > 20 * threshold
    ast = parse(tokens)
    calls = {
        "tokenize": lambda: tokenize(BIG),
        "parse": lambda: parse(tokens),
        "lower": lambda: lower(ast),
        "compile_source": lambda: compile_source(BIG),
    }
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    assert gc.isenabled()
    made, owed = {}, {}
    for name, call in calls.items():
        gc.collect()
        gc.callbacks.append(count)
        try:
            result = call()
            owed[name] = gc.get_count()[0] > threshold
        finally:
            gc.callbacks.remove(count)
        del result
        made[name], started[:] = started[:], []
    assert made == dict.fromkeys(calls, [0])
    assert owed == dict.fromkeys(calls, False)


def test_a_compile_leaves_no_cyclic_garbage():
    gc.collect()
    lowered = compile_source(BIG)
    assert len(lowered.ast.decls) == 2000
    del lowered
    flags, saved = gc.get_debug(), gc.garbage[:]
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        found = gc.collect()
        left = len(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = saved
    assert (found, left) == (0, 0)
