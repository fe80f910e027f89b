"""What a running call keeps: the rest of its chain, the arguments a bare
``proceed()`` re-sends, its receiver, and the ConGo call stack of an error;
guard hits at each entry point; and the Python calls one call costs.

The call-state tests run in both dispatch modes and under both cache
policies.
"""

from __future__ import annotations

import sys
import threading

import pytest

from congo.bench import compile_benchmark, ensure_bench_context
from congo.bus import Topic
from congo.decision import CountingDecisionMaker, DefaultDecisionMaker
from congo.errors import CallArityError, DivisionByZeroError, ProceedExhaustedError
from congo.interpreter import CachePolicy, DispatchMode, RunConfig, Runtime
from congo.lowering import MANGLE_MARKER, compile_source
from congo.nodes import SourceSpan

from helpers import run_program

CONFIGS = [
    pytest.param(mode, policy, id=f"{mode.value}-{policy.value}")
    for mode in DispatchMode
    for policy in CachePolicy
]
RAINY = [("Weather", "rainfall_mm", 9.0)]


def at(line: int, column: int) -> SourceSpan:
    return SourceSpan("<test>", line, column)


@pytest.mark.parametrize("mode,policy", CONFIGS)
def test_proceed_evaluates_its_arguments_in_its_own_block_frames(mode, policy):
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function f = |x| -> x\n"
        "function f = |x| @(Weather=RAINY) {\n"
        "  let a = 1\n"
        "  {\n"
        "    let y = 10\n"
        "    {\n"
        "      let z = 100\n"
        "      return proceed(x + y + z)\n"
        "    }\n"
        "  }\n"
        "}\n"
        "function main = || -> f(1000) + f(2000)\n"
    )
    result, _ = run_program(src, mode=mode, policy=policy, initial=RAINY)
    assert result == 1110 + 2110


@pytest.mark.parametrize("mode,policy", CONFIGS)
def test_a_bare_proceed_resends_the_original_arguments(mode, policy):
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function f = |x, y| -> \"\" + x + \",\" + y\n"
        "function f = |x, y| @(Weather=RAINY) {\n"
        "  x = x + 5\n"
        "  y = \"changed\"\n"
        "  return proceed() + \"/\" + x\n"
        "}\n"
        "function main = || -> f(1, \"b\")\n"
    )
    result, _ = run_program(src, mode=mode, policy=policy, initial=RAINY)
    assert result == "1,b/6"


@pytest.mark.parametrize("mode,policy", CONFIGS)
def test_proceed_keeps_the_original_receiver_after_this_is_reassigned(mode, policy):
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function main = || {\n"
        "  let o = DynamicObject(): name(\"o\")\n"
        "  o: define(\"f\", |this, s| -> this: name() + s)\n"
        "  o: define(\"f\", |this, s| @(Weather=RAINY) {\n"
        "    this = DynamicObject(): name(\"other\")\n"
        "    return proceed() + \"/\" + proceed(\"y\") + \"/\" + this: name()\n"
        "  })\n"
        "  return o: f(\"x\") + \"|\" + o: f(\"z\")\n"
        "}\n"
    )
    result, _ = run_program(src, mode=mode, policy=policy, initial=RAINY)
    assert result == "ox/oy/other|oz/oy/other"


@pytest.mark.parametrize("mode,policy", CONFIGS)
def test_a_defined_layer_called_by_its_local_name_is_outside_a_dispatch(mode, policy):
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function main = || {\n"
        "  let layer = |this| @(Weather=RAINY) -> proceed() + \"!\"\n"
        "  let o = DynamicObject()\n"
        "  o: define(\"f\", |this| -> \"base\")\n"
        "  o: define(\"f\", layer)\n"
        "  println(o: f())\n"
        "  return layer(o)\n"
        "}\n"
    )
    with pytest.raises(ProceedExhaustedError) as err:
        run_program(src, mode=mode, policy=policy, initial=RAINY)
    assert err.value.message == "proceed called outside a layered dispatch"
    assert err.value.span == at(4, 42)
    assert err.value.call_stack == (("main", at(3, 17)), ("<lambda>", at(9, 10)))
    # the method call before it ran the whole chain
    output = run_program(src.replace("  return layer(o)\n", ""), mode=mode,
                         policy=policy, initial=RAINY)[1]
    assert output == ["base!"]


@pytest.fixture
def bench_stack():
    ensure_bench_context()  # BenchStack holds L1..L10 at once


@pytest.mark.parametrize("mode,policy", CONFIGS)
def test_call_stack_of_an_error_in_the_base_of_a_ten_layer_chain(bench_stack, mode, policy):
    lines = [
        "module m",
        "contexts = [BenchStack()]",
        "function f = |x| -> x / 0",
        *(f"function f = |x| @(BenchStack=L{k}) -> proceed()" for k in range(1, 11)),
        "function main = || -> 1 + f(7)",
    ]
    with pytest.raises(DivisionByZeroError) as err:
        run_program("\n".join(lines) + "\n", mode=mode, policy=policy)
    assert err.value.span == at(3, 23)
    # layer Lk is line 3 + k; the one declared last runs first, and each
    # entry below it carries the span of the proceed that stepped into it
    assert err.value.call_stack == (
        ("main", at(14, 17)),
        (f"f{MANGLE_MARKER}BenchStack_L10", at(14, 27)),
        *((f"f{MANGLE_MARKER}BenchStack_L{k}", at(4 + k, 38 + (k == 9)))
          for k in range(9, 0, -1)),
        ("f", at(4, 38)),
    )


@pytest.mark.parametrize("mode,policy", CONFIGS)
def test_call_stack_of_an_error_in_the_base_of_a_ten_layer_method(bench_stack, mode, policy):
    lines = [
        "module m",
        "contexts = [BenchStack()]",
        "function main = || {",
        "  let o = DynamicObject()",
        "  o: define(\"f\", |this, x| -> x / 0)",
        *(f"  o: define(\"f\", |this, x| @(BenchStack=L{k}) -> proceed())"
          for k in range(1, 11)),
        "  return o: f(7)",
        "}",
    ]
    with pytest.raises(DivisionByZeroError) as err:
        run_program("\n".join(lines) + "\n", mode=mode, policy=policy)
    assert err.value.span == at(5, 33)
    # layer Lk is line 5 + k
    assert err.value.call_stack == (
        ("main", at(3, 17)),
        (f"f{MANGLE_MARKER}BenchStack_L10", at(16, 11)),
        *((f"f{MANGLE_MARKER}BenchStack_L{k}", at(6 + k, 48 + (k == 9)))
          for k in range(9, 0, -1)),
        ("f", at(6, 48)),
    )


@pytest.mark.parametrize("mode,policy", CONFIGS)
def test_proceed_with_the_wrong_argument_count_names_the_next_variant(mode, policy):
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function f = |x| -> x\n"
        "function f = |x| @(Weather=RAINY) -> proceed(x, 2)\n"
        "function main = || -> f(1)\n"
    )
    with pytest.raises(CallArityError) as err:
        run_program(src, mode=mode, policy=policy, initial=RAINY)
    assert err.value.message == "'f' expects 1 argument(s), got 2"
    assert err.value.span == at(4, 38)
    assert err.value.call_stack == (
        ("main", at(5, 17)), (f"f{MANGLE_MARKER}Weather_RAINY", at(5, 23)),
    )


@pytest.mark.parametrize("mode,policy", CONFIGS)
def test_method_proceed_with_the_wrong_argument_count_counts_the_receiver(mode, policy):
    src = (
        "module m\n"
        "contexts = [Weather()]\n"
        "function main = || {\n"
        "  let o = DynamicObject()\n"
        "  o: define(\"f\", |this, x| -> x)\n"
        "  o: define(\"f\", |this, x| @(Weather=RAINY) -> proceed())\n"
        "  o: define(\"g\", |this, x, y| -> x)\n"
        "  o: define(\"g\", |this, x, y| @(Weather=RAINY) -> proceed(x))\n"
        "  return o: f(1) + o: g(1, 2)\n"
        "}\n"
    )
    with pytest.raises(CallArityError) as err:
        run_program(src, mode=mode, policy=policy, initial=RAINY)
    assert err.value.message == "'g' expects 3 argument(s), got 2"
    assert err.value.span == at(8, 51)
    assert err.value.call_stack == (
        ("main", at(3, 17)), (f"g{MANGLE_MARKER}Weather_RAINY", at(9, 21)),
    )


# --- guard hits at each entry point ------------------------------------------------

GUARDED = (
    "module m\n"
    "contexts = [Weather()]\n"
    "function f = |x| -> x\n"
    "function f = |x| @(Weather=RAINY) -> proceed(x + 100)\n"
    "function twice = |x| {\n"
    "  let i = 0\n"
    "  let out = \"\"\n"
    "  while i < 2 {\n"
    "    out = out + f(x) + \",\"\n"
    "    i = i + 1\n"
    "  }\n"
    "  return out\n"
    "}\n"
    "function make = |label| {\n"
    "  let o = DynamicObject()\n"
    "  o: define(\"who\", |this| -> label)\n"
    "  o: define(\"who\", |this| @(Weather=RAINY) -> proceed() + \"!\")\n"
    "  return o\n"
    "}\n"
    "function touch = |o| -> o: define(\"other\", |this| -> 0)\n"
    "function ask = |o| -> o: who()\n"
)


def guarded_runtime(mode):
    dm = CountingDecisionMaker(DefaultDecisionMaker())
    config = RunConfig(dispatch_mode=mode, cache_policy=CachePolicy.EPOCH_GUARD,
                       decision_maker=dm, println=lambda text: None)
    return Runtime(compile_source(GUARDED, file="<test>"), config), dm


@pytest.mark.parametrize("mode", list(DispatchMode))
def test_a_host_call_hits_on_its_second_call_and_redecides_after_a_write(mode):
    runtime, dm = guarded_runtime(mode)
    with runtime:
        assert (runtime.call("f", (1,)), dm.decisions) == (1, 1)
        assert (runtime.call("f", (2,)), dm.decisions) == (2, 1)
        runtime.store.set("Weather", "rainfall_mm", 9.0)
        assert (runtime.call("f", (1,)), dm.decisions) == (101, 2)
        assert (runtime.call("f", (3,)), dm.decisions) == (103, 2)


@pytest.mark.parametrize("mode", list(DispatchMode))
def test_a_function_call_site_hits_on_its_second_call_and_redecides_after_a_write(mode):
    runtime, dm = guarded_runtime(mode)
    with runtime:
        assert (runtime.call("twice", (1,)), dm.decisions) == ("1,1,", 1)
        assert (runtime.call("twice", (2,)), dm.decisions) == ("2,2,", 1)
        runtime.store.set("Weather", "rainfall_mm", 9.0)
        assert (runtime.call("twice", (1,)), dm.decisions) == ("101,101,", 2)


@pytest.mark.parametrize("mode", list(DispatchMode))
def test_a_method_call_site_hits_and_redecides_on_write_define_and_receiver(mode):
    runtime, dm = guarded_runtime(mode)
    with runtime:
        a, b = runtime.call("make", ("a",)), runtime.call("make", ("b",))
        assert dm.decisions == 0  # make calls no layered function
        assert (runtime.call("ask", (a,)), dm.decisions) == ("a", 1)
        assert (runtime.call("ask", (a,)), dm.decisions) == ("a", 1)
        runtime.store.set("Weather", "rainfall_mm", 9.0)
        assert (runtime.call("ask", (a,)), dm.decisions) == ("a!", 2)
        assert (runtime.call("ask", (a,)), dm.decisions) == ("a!", 2)
        runtime.call("touch", (a,))  # define bumps a's version
        assert (runtime.call("ask", (a,)), dm.decisions) == ("a!", 3)
        assert (runtime.call("ask", (a,)), dm.decisions) == ("a!", 3)
        assert (runtime.call("ask", (b,)), dm.decisions) == ("b!", 4)  # another receiver
        assert (runtime.call("ask", (b,)), dm.decisions) == ("b!", 4)
        assert (runtime.call("ask", (a,)), dm.decisions) == ("a!", 5)


# --- the Python cost of one call ----------------------------------------------------


def python_calls(runtime, name, args):
    """The Python function calls one ``runtime.call`` makes, itself included."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        runtime.call(name, args)
    finally:
        sys.setprofile(None)
    return calls


# The counts measured once proceed's state moved into the call's frame and a
# cached call was taken where it is made, and once a decided call lost three
# frames: dispatch_data (the table's data is read in place) and the named-tuple
# __new__ of the request and of a memoised reply (both built by tuple.__new__).
# A decided call is call, _dispatch, snapshot_meta, decide_or_fail, decide,
# validate_response, _invoke and the body; a layer adds proceed and _invoke.
# A change that puts a Python frame back on the call path fails here: each
# frame costs every tick, and depth.
@pytest.mark.parametrize("program,policy,most", [
    ("plain_single", CachePolicy.NONE, 3),
    ("contextual_single", CachePolicy.EPOCH_GUARD, 4),
    ("contextual_single", CachePolicy.NONE, 8),
    ("contextual_layered10", CachePolicy.NONE, 28),
])
def test_python_calls_per_host_call_stay_within_the_measured_count(
        bench_stack, program, policy, most):
    config = RunConfig(dispatch_mode=DispatchMode.DIRECT, cache_policy=policy)
    with Runtime(compile_benchmark(program), config) as runtime:
        for x in range(3):  # compile the body, fill the memo and the site
            runtime.call("work", (x,))
        assert python_calls(runtime, "work", (5,)) <= most


def python_calls_on_both_threads(runtime, name, args):
    """The Python calls one event-mode ``runtime.call`` makes on the calling
    thread and on the bus dispatcher, where a handler turns the count on and
    off.  One call runs first, so the bus holds the subscriber list that the
    handler's subscription emptied."""
    bus, counts = runtime.bus, {}

    def count(frame, event, arg):
        if event == "call" and frame.f_code is not switch.__code__:
            ident = threading.get_ident()
            counts[ident] = counts.get(ident, 0) + 1

    switched = threading.Lock()  # not an Event: Event.set makes Python calls
    switched.acquire()

    def switch(message):
        sys.setprofile(message.payload)
        switched.release()

    topic = Topic(("test", "profile"))
    subscription = bus.subscribe(topic, switch)
    try:
        runtime.call(name, args)
        bus.publish(topic, count)
        assert switched.acquire(timeout=5.0)
        sys.setprofile(count)
        try:
            runtime.call(name, args)
        finally:
            sys.setprofile(None)
            # queued after every message of the call, so delivered after them
            bus.publish(topic, None)
            assert switched.acquire(timeout=5.0)
    finally:
        bus.unsubscribe(subscription)
    assert len(counts) == 2  # both threads ran Python code
    return sum(counts.values())


# The count measured once a bus round trip lost its Python-level plumbing:
# Topic's __hash__, the Message constructor, current_thread, the subscriber
# scan of a topic published before and the dispatcher's _deliver.  On the
# caller, a decided call is call, _dispatch, snapshot_meta, reply_topic_for,
# request_reply, _PendingReply's __init__, _post, validate_response, _invoke
# and the body; on the dispatcher, the maker's handler, decide_or_fail,
# decide, publish, _post, and the scan of the reply's topic, which is used
# once: a list comprehension and one matches per subscription (the maker's
# and the switch's).
def test_python_calls_of_an_event_mode_decision_stay_within_the_measured_count(bench_stack):
    config = RunConfig(dispatch_mode=DispatchMode.EVENT, cache_policy=CachePolicy.NONE)
    with Runtime(compile_benchmark("contextual_single"), config) as runtime:
        for x in range(3):  # compile the body, fill the memo and the topic cache
            runtime.call("work", (x,))
        assert python_calls_on_both_threads(runtime, "work", (5,)) <= 18
