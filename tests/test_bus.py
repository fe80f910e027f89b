from __future__ import annotations

import os
import pickle
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congo import bus as bus_module
from congo.bus import MessageBus, Topic
from congo.decision import reply_topic_for
from congo.errors import BusClosedError, DecisionTimeoutError, ReentrantDispatchError
from congo.interpreter import DispatchMode, RunConfig, Runtime
from congo.lowering import compile_source


@pytest.fixture
def bus():
    b = MessageBus()
    yield b
    b.shutdown()


def drain(bus):
    """Wait until the dispatcher has delivered everything published so far."""
    done = threading.Event()
    marker = Topic(("test", "drain"))
    sub = bus.subscribe(marker, lambda m: done.set())
    bus.publish(marker, None)
    assert done.wait(5.0)
    bus.unsubscribe(sub)


# --- topics -------------------------------------------------------------------


def test_topic_parse_and_render():
    topic = Topic.parse("congo/decision/request/demo/hero")
    assert topic.segments == ("congo", "decision", "request", "demo", "hero")
    assert str(topic) == "congo/decision/request/demo/hero"


@pytest.mark.parametrize("bad", ["", "a//b", "/a", "a/", "a/*/b", "*/a"])
def test_invalid_topics_rejected(bad):
    with pytest.raises(ValueError):
        Topic.parse(bad)


@pytest.mark.parametrize(
    "pattern,topic,expected",
    [
        ("a/b", "a/b", True),
        ("a/b", "a/b/c", False),
        ("a/*", "a/b", True),
        ("a/*", "a/b/c/d", True),
        ("a/*", "a", False),  # wildcard needs at least one suffix segment
        ("a/*", "b/c", False),
        ("*", "anything", True),
        ("*", "a/b", True),
    ],
)
def test_wildcard_matching(pattern, topic, expected):
    assert Topic.parse(pattern).matches(Topic.parse(topic)) is expected


_seg = st.sampled_from(["a", "b", "c"])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_seg, min_size=1, max_size=4),
    st.booleans(),
    st.lists(_seg, min_size=1, max_size=5),
)
def test_matching_against_brute_force_oracle(pattern_head, wildcard, topic_segments):
    pattern = Topic(tuple(pattern_head) + (("*",) if wildcard else ()))
    topic = Topic(tuple(topic_segments))
    if wildcard:
        expected = (
            len(topic.segments) > len(pattern_head)
            and list(topic.segments[: len(pattern_head)]) == pattern_head
        )
    else:
        expected = list(topic.segments) == pattern_head
    assert pattern.matches(topic) is expected


_pattern = st.tuples(st.lists(_seg, max_size=3), st.booleans()).filter(
    lambda p: p[0] or p[1]
).map(lambda p: Topic(tuple(p[0]) + (("*",) if p[1] else ())))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_pattern, max_size=6), st.lists(st.lists(_seg, min_size=1, max_size=4),
                                                 min_size=1, max_size=6))
def test_a_kept_subscriber_list_is_every_match_in_subscription_order(patterns, topics):
    bus = MessageBus()
    bus._subscriptions = [bus_module.Subscription(p, print) for p in patterns]  # no dispatcher
    for segments in map(tuple, topics):
        expected = [s for s in bus._subscriptions if s.pattern.matches(Topic(segments))]
        route = bus._routes.get(segments[:-1]) or bus._route(segments[:-1])
        assert route[1].get(segments[-1], route[0]) == expected
    assert len(bus._routes) == len({tuple(t[:-1]) for t in topics})


@pytest.mark.parametrize("make,text", [
    (lambda: Topic.parse("congo/decision/request/*"), "congo/decision/request/*"),
    (lambda: reply_topic_for(17), "congo/decision/reply/17"),
])
def test_a_topic_round_trips_through_pickle_and_hashes_like_its_parsed_equal(make, text):
    topic, parsed = make(), Topic.parse(text)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(topic, protocol))
        assert type(copy) is Topic
        assert copy == topic == parsed
        assert hash(copy) == hash(topic) == hash(parsed)
        assert str(copy) == text
    # a Topic is a one-field named tuple: it equals the one-tuple of its segments
    assert topic == (tuple(text.split("/")),)


def test_unpickling_runs_the_topic_checks():
    # the bytes of a topic whose segment holds a '/', which Topic refuses
    forged = pickle.dumps(Topic(("a", "b"))).replace(b"\x8c\x01b", b"\x8c\x03b/c")
    with pytest.raises(ValueError):
        pickle.loads(forged)


# --- delivery ---------------------------------------------------------------------


def test_publish_returns_increasing_sequence(bus):
    topic = Topic.parse("t/one")
    seqs = [bus.publish(topic, i) for i in range(5)]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == 5


def test_per_subscription_fifo(bus):
    got = []
    done = threading.Event()
    count = 2000

    def handler(message):
        got.append(message.payload)
        if len(got) == count:
            done.set()

    bus.subscribe(Topic.parse("t/fifo"), handler)
    for i in range(count):
        bus.publish(Topic.parse("t/fifo"), i)
    assert done.wait(10.0)
    assert got == list(range(count))


def test_handler_exception_does_not_stop_delivery(bus):
    good = []

    def bad_handler(message):
        raise RuntimeError("boom")

    bus.subscribe(Topic.parse("t/x"), bad_handler)
    bus.subscribe(Topic.parse("t/x"), lambda m: good.append(m.payload))
    bus.publish(Topic.parse("t/x"), 1)
    bus.publish(Topic.parse("t/x"), 2)
    drain(bus)
    assert good == [1, 2]


def test_no_delivery_for_unmatched_topics(bus):
    got = []
    bus.subscribe(Topic.parse("t/only/this"), lambda m: got.append(m.payload))
    bus.publish(Topic.parse("t/only/other"), 1)
    drain(bus)
    assert got == []


def test_an_unheard_publish_uses_its_seq_but_queues_nothing(bus):
    entered, go = threading.Event(), threading.Event()

    def stuck(message):
        entered.set()
        assert go.wait(5.0)

    bus.subscribe(Topic.parse("t/stuck"), stuck)
    first = bus.publish(Topic.parse("t/stuck"), None)
    assert entered.wait(5.0)  # the dispatcher is busy and will not drain
    assert bus.publish(Topic.parse("t/nobody"), 1) == first + 1
    assert bus.publish(Topic.parse("t/nobody"), 2) == first + 2
    assert bus._queue == []
    go.set()
    drain(bus)


def test_an_unheard_publish_is_still_traced():
    lines = []
    with MessageBus(trace=lines.append) as bus:
        seq = bus.publish(Topic.parse("t/nobody"), "x")
        drain(bus)
    assert f"SEQ {seq} t/nobody str" in lines


def test_a_subscription_made_after_a_publish_does_not_receive_it(bus):
    entered, go = threading.Event(), threading.Event()
    bus.subscribe(
        Topic.parse("t/stuck"), lambda m: (entered.set(), go.wait(5.0))
    )
    bus.publish(Topic.parse("t/stuck"), None)
    assert entered.wait(5.0)
    bus.subscribe(Topic.parse("t/early"), lambda m: None)  # hears "before"
    bus.publish(Topic.parse("t/early"), "before")
    got = []
    bus.subscribe(Topic.parse("t/early"), lambda m: got.append(m.payload))
    bus.publish(Topic.parse("t/early"), "after")
    go.set()
    drain(bus)
    assert got == ["after"]

def test_unsubscribe_is_a_delivery_barrier(bus):
    got = []
    sub = bus.subscribe(Topic.parse("t/u"), lambda m: got.append(m.payload))
    for i in range(100):
        bus.publish(Topic.parse("t/u"), i)
    drain(bus)
    bus.unsubscribe(sub)
    count_at_unsubscribe = len(got)
    for i in range(100):
        bus.publish(Topic.parse("t/u"), i)
    drain(bus)
    assert len(got) == count_at_unsubscribe == 100


@pytest.mark.parametrize("pattern", ["t/cached", "t/*"])
def test_a_subscription_made_after_a_publish_gets_the_next_one(bus, pattern):
    got = []
    bus.publish(Topic.parse("t/cached"), "unheard")  # its subscriber list is kept
    bus.subscribe(Topic.parse(pattern), lambda m: got.append(m.payload))
    bus.publish(Topic.parse("t/cached"), "heard")
    drain(bus)
    assert got == ["heard"]


def test_a_topic_published_before_an_unsubscribe_queues_nothing_after_it(bus):
    # no drain() here: its own subscribe would empty the subscriber lists
    entered, go, heard = threading.Event(), threading.Event(), threading.Event()
    bus.subscribe(Topic.parse("t/hold"), lambda m: (entered.set(), go.wait(5.0)))
    got = []
    sub = bus.subscribe(Topic.parse("t/gone"), lambda m: (got.append(m.payload), heard.set()))
    bus.publish(Topic.parse("t/gone"), 1)
    assert heard.wait(5.0)
    bus.unsubscribe(sub)
    bus.publish(Topic.parse("t/hold"), None)
    assert entered.wait(5.0)  # the dispatcher is busy and will not drain
    bus.publish(Topic.parse("t/gone"), 2)
    assert bus._queue == []  # nobody hears it now, so it is not queued
    go.set()
    drain(bus)
    assert got == [1]


def test_a_claimed_reply_reaches_subscribers_of_its_topic_and_the_trace():
    lines, seen = [], []
    with MessageBus(trace=lines.append) as bus:
        bus.subscribe(
            Topic.parse("t/ask"), lambda m: bus.publish(Topic.parse("t/reply/same"), m.payload)
        )
        bus.subscribe(Topic.parse("t/reply/same"), lambda m: seen.append(m.payload))
        for i in range(3):  # one reply topic, claimed three times
            assert bus.request_reply(
                Topic.parse("t/ask"), i, Topic.parse("t/reply/same")
            ) == i
        # kept per parent topic: the reply topic shares the slot of t/reply
        assert set(bus._routes) == {("t",), ("t", "reply")}
        drain(bus)
    assert seen == [0, 1, 2]
    assert sum(line.endswith(" t/reply/same int") for line in lines) == 3


def test_the_subscriber_lists_stay_within_their_cap_and_no_reply_stays_pending(bus):
    bus.subscribe(
        Topic.parse("t/echo"),
        lambda m: bus.publish(Topic.parse(f"t/reply/{m.payload}"), m.payload),
    )
    for i in range(10_000):
        assert bus.request_reply(Topic.parse("t/echo"), i, Topic.parse(f"t/reply/{i}")) == i
    # one slot for t/echo's parent and one that all 10,000 reply topics share
    assert set(bus._routes) == {("t",), ("t", "reply")}
    drain(bus)
    assert bus._pending == {}
    for i in range(bus_module._ROUTES_CAP + 10):  # each under a parent of its own
        bus.publish(Topic(("t", "many", str(i), "x")), i)
    assert 0 < len(bus._routes) <= bus_module._ROUTES_CAP
    got = []
    bus.subscribe(Topic.parse("t/many/*"), lambda m: got.append(m.payload))
    bus.publish(Topic.parse("t/many/0/x"), "again")
    drain(bus)
    assert got == ["again"]
    assert bus._pending == {}


def test_handler_may_unsubscribe_itself(bus):
    got = []
    holder = {}

    def once(message):
        got.append(message.payload)
        bus.unsubscribe(holder["sub"])

    holder["sub"] = bus.subscribe(Topic.parse("t/once"), once)
    for i in range(3):
        bus.publish(Topic.parse("t/once"), i)
    drain(bus)
    assert got == [0]


def test_message_carries_topic_and_seq(bus):
    box = []
    done = threading.Event()

    def handler(message):
        box.append(message)
        done.set()

    bus.subscribe(Topic.parse("t/meta"), handler)
    seq = bus.publish(Topic.parse("t/meta"), "payload")
    assert done.wait(5.0)
    assert box[0].topic == Topic.parse("t/meta")
    assert box[0].publish_seq == seq
    assert box[0].payload == "payload"


# --- request/reply -------------------------------------------------------------------


def test_request_reply_round_trip(bus):
    def responder(message):
        bus.publish(Topic.parse("t/reply/1"), message.payload * 2)

    bus.subscribe(Topic.parse("t/req"), responder)
    result = bus.request_reply(Topic.parse("t/req"), 21, Topic.parse("t/reply/1"))
    assert result == 42


def test_a_reply_reaches_its_waiter_while_the_responder_still_runs(bus):
    release = threading.Event()

    def responder(message):
        bus.publish(Topic.parse("t/reply/held"), message.payload)
        assert release.wait(5.0)

    bus.subscribe(Topic.parse("t/held"), responder)
    try:
        assert bus.request_reply(
            Topic.parse("t/held"), "early", Topic.parse("t/reply/held"), timeout=2
        ) == "early"
        assert not release.is_set()
    finally:
        release.set()

def test_request_reply_times_out_without_responder(bus):
    start = time.perf_counter()
    with pytest.raises(DecisionTimeoutError):
        bus.request_reply(
            Topic.parse("t/nobody"), None, Topic.parse("t/reply/2"), timeout=0.2
        )
    elapsed = time.perf_counter() - start
    assert 0.15 <= elapsed <= 0.6


def test_concurrent_requests_get_their_own_replies(bus):
    def responder(message):
        request_id, value = message.payload
        bus.publish(Topic.parse(f"t/reply/{request_id}"), value + 1)

    bus.subscribe(Topic.parse("t/calc"), responder)
    results = {}

    def client(request_id):
        results[request_id] = bus.request_reply(
            Topic.parse("t/calc"),
            (request_id, request_id * 10),
            Topic.parse(f"t/reply/{request_id}"),
        )

    threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == {i: i * 10 + 1 for i in range(8)}


def test_reentrant_request_reply_raises(bus):
    caught = []
    done = threading.Event()

    def handler(message):
        try:
            bus.request_reply(Topic.parse("t/inner"), None, Topic.parse("t/r/i"))
        except ReentrantDispatchError as exc:
            caught.append(exc)
        done.set()

    bus.subscribe(Topic.parse("t/outer"), handler)
    bus.publish(Topic.parse("t/outer"), None)
    assert done.wait(5.0)
    assert len(caught) == 1


@pytest.mark.parametrize(
    "timeout", [-0.5, -1, float("nan"), 2 * threading.TIMEOUT_MAX],
    ids=["negative", "minus_one", "nan", "too_large"],
)
def test_a_bad_timeout_raises_before_anything_is_registered(bus, timeout):
    requests = []
    bus.subscribe(Topic.parse("t/bad"), requests.append)
    outcome = []

    def probe():
        try:
            bus.request_reply(Topic.parse("t/bad"), None, Topic.parse("t/reply/bad"), timeout)
        except Exception as exc:
            outcome.append(exc)

    # -1 means "wait forever" to Lock.acquire, so ask from a thread that may hang
    thread = threading.Thread(target=probe, daemon=True)
    thread.start()
    thread.join(timeout=2.0)
    assert not thread.is_alive(), "request_reply waited on a bad timeout"
    (exc,) = outcome
    assert isinstance(exc, ValueError)
    assert "reply timeout must be in [0, TIMEOUT_MAX]" in str(exc)
    assert bus._pending == {}
    drain(bus)
    assert requests == []  # nothing was published either


def test_timed_out_reply_slot_is_cleaned_up(bus):
    subscriptions = list(bus._subscriptions)
    with pytest.raises(DecisionTimeoutError):
        bus.request_reply(Topic.parse("t/n"), None, Topic.parse("t/late"), timeout=0.05)
    assert bus._pending == {}
    # a reply arriving after the timeout must not leak to anyone
    bus.publish(Topic.parse("t/late"), "stale")
    drain(bus)
    assert bus._pending == {}
    assert bus._subscriptions == subscriptions
    bus.subscribe(
        Topic.parse("t/fresh"),
        lambda m: bus.publish(Topic.parse("t/reply/fresh"), m.payload),
    )
    assert bus.request_reply(
        Topic.parse("t/fresh"), "own", Topic.parse("t/reply/fresh")
    ) == "own"
    assert bus._pending == {}


class _ReportsTimeoutAfterHandOver:
    """A waiter lock whose timed acquire fails only once the reply was handed over."""

    def __init__(self):
        self._lock = threading.Lock()
        self._lock.acquire()

    def acquire(self, timeout=-1):
        assert self._lock.acquire(timeout=5.0)
        return False

    def release(self):
        self._lock.release()


def test_reply_claimed_at_the_timeout_is_still_returned(bus, monkeypatch):
    class Pending(bus_module._PendingReply):
        __slots__ = ()

        def __init__(self):
            self.waiter = _ReportsTimeoutAfterHandOver()
            self.reply = None

    monkeypatch.setattr(bus_module, "_PendingReply", Pending)
    bus.subscribe(
        Topic.parse("t/race"),
        lambda m: bus.publish(Topic.parse("t/reply/race"), m.payload),
    )
    assert bus.request_reply(
        Topic.parse("t/race"), "won", Topic.parse("t/reply/race"), timeout=0.01
    ) == "won"
    assert bus._pending == {}


def test_first_reply_wins_and_duplicates_are_dropped(bus):
    def responder(message):
        reply_topic, value = message.payload
        bus.publish(reply_topic, value)
        bus.publish(reply_topic, "duplicate")

    bus.subscribe(Topic.parse("t/dup"), responder)
    first = Topic.parse("t/reply/d1")
    assert bus.request_reply(Topic.parse("t/dup"), (first, "first"), first) == "first"
    drain(bus)
    assert bus._pending == {}
    second = Topic.parse("t/reply/d2")
    assert bus.request_reply(Topic.parse("t/dup"), (second, "next"), second) == "next"
    drain(bus)
    assert bus._pending == {}


def test_reply_subscribers_and_trace_still_see_each_reply():
    lines = []
    seen = []
    with MessageBus(trace=lines.append) as bus:
        bus.subscribe(
            Topic.parse("t/echo"),
            lambda m: bus.publish(Topic.parse(f"t/reply/{m.payload}"), m.payload),
        )
        bus.subscribe(Topic.parse("t/reply/*"), lambda m: seen.append(m.payload))
        for i in range(3):
            assert bus.request_reply(
                Topic.parse("t/echo"), i, Topic.parse(f"t/reply/{i}")
            ) == i
        drain(bus)
    assert seen == [0, 1, 2]
    for i in range(3):
        assert any(line.endswith(f" t/reply/{i} int") for line in lines)


def test_second_request_on_a_pending_reply_topic_is_refused(bus):
    go = threading.Event()
    requests = []

    def responder(message):
        requests.append(message.payload)
        assert go.wait(5.0)
        bus.publish(Topic.parse("t/reply/shared"), message.payload)

    bus.subscribe(Topic.parse("t/slow"), responder)
    results = []
    first = threading.Thread(
        target=lambda: results.append(bus.request_reply(
            Topic.parse("t/slow"), "first", Topic.parse("t/reply/shared")
        ))
    )
    first.start()
    deadline = time.monotonic() + 5.0
    while Topic.parse("t/reply/shared") not in bus._pending:
        assert time.monotonic() < deadline
        time.sleep(0.001)
    with pytest.raises(ValueError):
        bus.request_reply(Topic.parse("t/slow"), "second", Topic.parse("t/reply/shared"))
    go.set()
    first.join(5.0)
    assert not first.is_alive()
    drain(bus)
    assert results == ["first"]
    assert requests == ["first"]
    assert bus._pending == {}


def test_publish_rejects_a_non_topic(bus):
    with pytest.raises(TypeError):
        bus.publish(None, "payload")
    with pytest.raises(TypeError):
        bus.publish("t/text", "payload")


def test_handler_publishing_to_a_bad_topic_leaves_the_dispatcher_alive(bus):
    bus.subscribe(Topic.parse("t/bad"), lambda m: bus.publish(None, m.payload))
    bus.publish(Topic.parse("t/bad"), 1)
    drain(bus)  # the handler has run
    drain(bus)  # and a message published after it is still delivered
    assert bus._thread.is_alive()


# --- lifecycle --------------------------------------------------------------------


def test_shutdown_refuses_further_publishes():
    bus = MessageBus()
    bus.shutdown()
    with pytest.raises(BusClosedError):
        bus.publish(Topic.parse("t/z"), None)
    assert bus.closed


def test_request_reply_on_a_closed_bus_leaves_no_pending_entry():
    bus = MessageBus()
    bus.shutdown()
    with pytest.raises(BusClosedError):
        bus.request_reply(Topic.parse("t/req"), None, Topic.parse("t/reply/x"))
    assert bus._pending == {}


def test_a_thread_given_the_ident_of_a_stopped_dispatcher_is_refused_as_closed():
    bus = MessageBus()
    bus.shutdown()
    outcomes = []

    def probe():
        try:
            bus.request_reply(Topic.parse("t/req"), None, Topic.parse("t/reply/x"))
        except Exception as exc:
            outcomes.append(type(exc))

    for _ in range(20):  # a new thread often gets the dispatcher's old ident
        thread = threading.Thread(target=probe)
        thread.start()
        thread.join(5.0)
        assert not thread.is_alive()
    assert outcomes == [BusClosedError] * 20


def test_shutdown_is_idempotent():
    bus = MessageBus()
    bus.shutdown()
    bus.shutdown()


def test_context_manager_closes():
    with MessageBus() as bus:
        bus.publish(Topic.parse("t/a"), None)
    assert bus.closed


def test_trace_lines_name_seq_topic_and_kind():
    lines = []
    with MessageBus(trace=lines.append) as bus:
        done = threading.Event()
        bus.subscribe(Topic.parse("t/tr"), lambda m: done.set())
        seq = bus.publish(Topic.parse("t/tr"), "hello")
        assert done.wait(5.0)
    assert f"SEQ {seq} t/tr str" in lines


def test_a_trace_hook_that_raises_stops_neither_handlers_nor_later_lines(caplog):
    lines, got = [], []

    def hook(line):
        lines.append(line)
        if len(lines) == 1:
            raise RuntimeError("the trace hook broke")

    with MessageBus(trace=hook) as bus:
        bus.subscribe(Topic.parse("t/tr"), lambda m: got.append(m.payload))
        first = bus.publish(Topic.parse("t/tr"), 1)
        second = bus.publish(Topic.parse("t/tr"), 2)
        drain(bus)
    assert got == [1, 2]
    assert lines[:2] == [f"SEQ {first} t/tr int", f"SEQ {second} t/tr int"]
    assert [r.getMessage() for r in caplog.records if r.name == "congo.bus"] == [
        "subscriber raised while handling t/tr"
    ]


# --- the dispatcher's wake-up ----------------------------------------------------


def test_no_wake_up_is_lost_under_concurrent_publishers(bus):
    publishers, per_publisher = 4, 5000
    topic = Topic.parse("t/stress")
    got = []
    done = threading.Event()
    total = [0]

    def handler(message):
        got.append(message.payload)
        if len(got) == total[0]:
            done.set()

    bus.subscribe(topic, handler)

    def publisher(p):
        for i in range(per_publisher):
            bus.publish(topic, (p, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            got.clear()
            done.clear()
            total[0] = publishers * per_publisher
            threads = [
                threading.Thread(target=publisher, args=(p,)) for p in range(publishers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(5.0)
                assert not t.is_alive()
            assert done.wait(5.0)
            assert len(got) == total[0]
            for p in range(publishers):
                assert [i for q, i in got if q == p] == list(range(per_publisher))
    finally:
        sys.setswitchinterval(interval)


def test_shutdown_racing_a_publisher_returns_promptly():
    for _ in range(20):
        bus = MessageBus()
        bus.subscribe(Topic.parse("t/race"), lambda m: None)
        started = threading.Event()

        def publish_until_closed():
            started.set()
            try:
                while True:
                    bus.publish(Topic.parse("t/race"), None)
            except BusClosedError:
                pass

        publisher = threading.Thread(target=publish_until_closed)
        publisher.start()
        assert started.wait(5.0)
        start = time.monotonic()
        bus.shutdown()
        assert time.monotonic() - start < 1.0
        publisher.join(5.0)
        assert not publisher.is_alive()
        assert not bus._thread.is_alive()


def _open_fds():
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


_ONE_LAYER = (
    "module m\n"
    "contexts = [Weather()]\n"
    "function f = |x| -> x\n"
    "function f = |x| @(Weather=RAINY) -> proceed(x) + 1\n"
)


def test_start_and_shutdown_leak_no_thread_or_descriptor():
    lowered = compile_source(_ONE_LAYER, file="<test>")
    threads, fds = threading.active_count(), _open_fds()
    for _ in range(200):
        with MessageBus() as bus:
            bus.subscribe(Topic.parse("t/a"), lambda m: None)  # starts the dispatcher
            bus.publish(Topic.parse("t/a"), None)
    for _ in range(200):
        with MessageBus() as bus:  # nobody subscribes: no dispatcher to stop
            bus.publish(Topic.parse("t/a"), None)
        assert bus._thread is None
    config = RunConfig(initial_values=(("Weather", "rainfall_mm", 7.0),))
    for _ in range(50):
        with Runtime(lowered, config) as runtime:
            assert runtime.call("f", (1,)) == 2
    assert threading.active_count() == threads
    if fds is not None:
        assert _open_fds() == fds


_WRITES = _ONE_LAYER + (
    "function wet = |x| {\n"
    '  setConcrete("Weather", "rainfall_mm", 9.0)\n'
    "  return f(x)\n"
    "}\n"
)


def test_a_direct_runtime_without_a_trace_owns_no_thread_or_descriptor():
    lowered = compile_source(_WRITES, file="<test>")
    before = threading.active_count(), _open_fds()
    runtime = Runtime(lowered, RunConfig(dispatch_mode=DispatchMode.DIRECT)).start()
    try:
        assert runtime.bus._thread is None
        assert (threading.active_count(), _open_fds()) == before
        assert runtime.call("wet", (1,)) == 2  # publishes a ContextChanged nobody hears
        assert (threading.active_count(), _open_fds()) == before
    finally:
        runtime.shutdown()
    assert (threading.active_count(), _open_fds()) == before
    lines = []
    config = RunConfig(dispatch_mode=DispatchMode.DIRECT, trace=lines.append)
    with Runtime(lowered, config) as runtime:
        assert runtime.bus._thread.is_alive()
        assert threading.active_count() == before[0] + 1
        assert runtime.call("wet", (1,)) == 2
    assert any(line.endswith(" congo/context/changed/Weather ContextChanged")
               for line in lines), lines
    assert threading.active_count() == before[0]


def test_an_event_runtime_has_its_dispatcher_running_once_started():
    with Runtime(compile_source(_ONE_LAYER, file="<test>"), RunConfig()) as runtime:
        assert runtime.bus._thread.is_alive()
    assert not runtime.bus._thread.is_alive()


def test_a_non_scalar_initial_value_fails_start_before_the_bus_is_built():
    threads = threading.active_count()
    for mode in DispatchMode:
        runtime = Runtime(compile_source(_ONE_LAYER, file="<test>"), RunConfig(
            dispatch_mode=mode, initial_values=(("Weather", "rainfall_mm", [7.0]),)))
        with pytest.raises(ValueError, match="concrete values must be"):
            runtime.start()
        assert runtime.bus is None
    assert threading.active_count() == threads


def test_a_bus_without_a_dispatcher_still_hands_a_host_reply_to_its_waiter():
    before = threading.active_count(), _open_fds()
    bus = MessageBus()
    got = []
    waiter = threading.Thread(target=lambda: got.append(
        bus.request_reply(Topic.parse("t/ask"), None, Topic.parse("t/reply/1"))))
    waiter.start()
    deadline = time.monotonic() + 5.0
    while Topic.parse("t/reply/1") not in bus._pending:
        assert time.monotonic() < deadline
        time.sleep(0.001)
    bus.publish(Topic.parse("t/reply/1"), "answer")  # from this host thread
    waiter.join(5.0)
    assert got == ["answer"]
    assert bus._pending == {} and bus._queue == []
    with pytest.raises(DecisionTimeoutError):
        bus.request_reply(Topic.parse("t/ask"), None, Topic.parse("t/reply/2"), timeout=0.05)
    assert bus._pending == {}
    assert bus._thread is None
    bus.shutdown()
    bus.subscribe(Topic.parse("t/late"), lambda m: None)  # a closed bus starts nothing
    assert bus._thread is None
    assert (threading.active_count(), _open_fds()) == before


def test_a_dispatcher_that_cannot_start_leaves_nothing_behind(monkeypatch):
    before = threading.active_count(), _open_fds()

    def refuse(thread):
        raise RuntimeError("can't start new thread")

    bus = MessageBus()
    monkeypatch.setattr(threading.Thread, "start", refuse)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        bus.subscribe(Topic.parse("t/a"), lambda m: None)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        MessageBus(trace=lambda line: None)
    monkeypatch.undo()
    assert bus._subscriptions == [] and bus._thread is None
    assert (threading.active_count(), _open_fds()) == before
    bus.publish(Topic.parse("t/a"), None)  # nobody subscribed, so nothing is queued
    assert bus._queue == []
    bus.shutdown()
    assert bus.closed
    assert (threading.active_count(), _open_fds()) == before
