from __future__ import annotations

import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congo.bus import Message, MessageBus, Topic
from congo.context import ContextChanged
from congo.decision import (
    _MEMO_CAP,
    _SEEN_CAP,
    CountingDecisionMaker,
    DecisionFailure,
    DecisionMaker,
    DecisionResponse,
    DefaultDecisionMaker,
    InvocationRequest,
    VariantSpec,
    attach_decision_maker,
    context_changed_topic,
    create_decision_maker,
    failure_to_error,
    register_decision_maker,
    registered_decision_makers,
    reply_topic_for,
    request_topic_for,
    unregister_decision_maker,
    validate_response,
)
from congo.errors import (
    DecisionFailedError,
    DecisionTimeoutError,
    NoApplicableVariantError,
    StackOverflowError,
    UnknownDecisionMakerError,
)
from congo.interpreter import CachePolicy, DispatchMode, RunConfig, Runtime
from congo.lowering import VariantId, compile_source, mangle
from congo.nodes import LayerMode

from helpers import run_program


def base_spec(name="f"):
    return VariantSpec(VariantId(name, 0), (), LayerMode.REPLACE)


def layer_spec(name, constraints, index, mode=LayerMode.REPLACE):
    constraints = tuple(sorted(constraints))
    return VariantSpec(VariantId(mangle(name, constraints), index), constraints, mode)


def make_request(variants, snapshot, request_id=1, module="m", name="f"):
    return InvocationRequest(
        request_id=request_id,
        module=module,
        function_name=name,
        arity=1,
        variants=tuple(variants),
        receiver_id=None,
        meta_snapshot={c: frozenset(v) for c, v in snapshot.items()},
        snapshot_epoch=0,
        reply_topic=reply_topic_for(request_id),
    )


def chain_names(response):
    return [vid.mangled_name for vid in response.chain]


# --- topic helpers ------------------------------------------------------------


def test_request_topic_splits_module_dots():
    assert str(request_topic_for("demo.hero")) == "congo/decision/request/demo/hero"
    assert str(request_topic_for("m")) == "congo/decision/request/m"


def test_reply_and_context_topics():
    assert str(reply_topic_for(17)) == "congo/decision/reply/17"
    assert str(context_changed_topic("Weather")) == "congo/context/changed/Weather"


def test_reply_topic_equals_a_parsed_one_and_is_delivered(bus):
    topic = reply_topic_for(17)
    parsed = Topic.parse("congo/decision/reply/17")
    assert topic == parsed
    assert hash(topic) == hash(parsed)
    assert {parsed: "x"}[topic] == "x"
    got = []
    done = threading.Event()
    bus.subscribe(Topic.parse("congo/decision/reply/*"), got.append)
    bus.subscribe(parsed, lambda message: (got.append(message), done.set()))
    bus.publish(topic, "reply")
    assert done.wait(5.0)
    assert [m.payload for m in got] == ["reply", "reply"]


# --- the default decision maker ----------------------------------------------


def test_no_eligible_layer_yields_base_only():
    request = make_request(
        [base_spec(), layer_spec("f", [("C", "ON")], 1)], {"C": {"OFF"}}
    )
    assert chain_names(DefaultDecisionMaker().decide(request)) == ["f"]


def test_single_eligible_layer_runs_before_base():
    request = make_request(
        [base_spec(), layer_spec("f", [("C", "ON")], 1)], {"C": {"ON"}}
    )
    assert chain_names(DefaultDecisionMaker().decide(request)) == [
        "f__$context$__C_ON", "f",
    ]


def test_eligible_layers_compose_lifo():
    # declared first, second, third; all eligible; last declared is outermost
    request = make_request(
        [
            base_spec(),
            layer_spec("f", [("C", "A")], 1),
            layer_spec("f", [("C", "B")], 2),
            layer_spec("f", [("C", "D")], 3),
        ],
        {"C": {"A", "B", "D"}},
    )
    assert chain_names(DefaultDecisionMaker().decide(request)) == [
        "f__$context$__C_D", "f__$context$__C_B", "f__$context$__C_A", "f",
    ]


@pytest.mark.parametrize("a_on,b_on", list(itertools.product([False, True], repeat=2)))
def test_constraint_conjunction(a_on, b_on):
    request = make_request(
        [base_spec(), layer_spec("f", [("A", "X"), ("B", "Y")], 1)],
        {"A": {"X"} if a_on else {"Z"}, "B": {"Y"} if b_on else {"Z"}},
    )
    chain = chain_names(DefaultDecisionMaker().decide(request))
    assert (len(chain) == 2) is (a_on and b_on)


def test_meta_sets_may_hold_several_symbols():
    request = make_request(
        [base_spec(), layer_spec("f", [("C", "ON")], 1)], {"C": {"ON", "BLINK"}}
    )
    assert len(DefaultDecisionMaker().decide(request).chain) == 2


def test_constraint_on_unknown_context_is_never_eligible():
    request = make_request([base_spec(), layer_spec("f", [("Ghost", "X")], 1)], {})
    assert chain_names(DefaultDecisionMaker().decide(request)) == ["f"]


def test_no_base_no_eligible_layer_raises():
    request = make_request([layer_spec("f", [("C", "ON")], 0)], {"C": {"OFF"}})
    with pytest.raises(NoApplicableVariantError) as err:
        DefaultDecisionMaker().decide(request)
    assert err.value.function_name == "f"
    assert err.value.module == "m"


def test_no_base_with_eligible_layer_is_fine():
    request = make_request([layer_spec("f", [("C", "ON")], 0)], {"C": {"ON"}})
    assert chain_names(DefaultDecisionMaker().decide(request)) == [
        "f__$context$__C_ON",
    ]


def test_response_echoes_request_id_and_epoch():
    request = make_request([base_spec()], {})
    response = DefaultDecisionMaker().decide(request)
    assert response.request_id == request.request_id
    assert response.epoch == request.snapshot_epoch


def test_init_and_train_are_noops():
    dm = DefaultDecisionMaker()
    dm.init({"anything": 1})
    request = make_request([base_spec()], {})
    assert chain_names(dm.decide(request)) == ["f"]


# oracle: recompute eligibility + LIFO composition from first principles
def lifo_oracle(request):
    eligible = [
        spec for spec in request.variants
        if spec.constraints
        and all(
            meta in request.meta_snapshot.get(ctx, frozenset())
            for ctx, meta in spec.constraints
        )
    ]
    bases = [spec for spec in request.variants if not spec.constraints]
    chain = [spec.variant_id for spec in reversed(eligible)]
    chain.extend(spec.variant_id for spec in bases)
    return chain


_ctx_names = ["A", "B", "C"]
_metas = ["X", "Y"]


@st.composite
def _random_requests(draw):
    has_base = draw(st.booleans())
    n_layers = draw(st.integers(0 if has_base else 1, 5))
    variants = []
    if has_base:
        variants.append(base_spec())
    seen = set()
    for _ in range(n_layers):
        constraints = draw(
            st.lists(
                st.tuples(st.sampled_from(_ctx_names), st.sampled_from(_metas)),
                min_size=1, max_size=3, unique_by=lambda cv: cv[0],
            )
        )
        key = frozenset(constraints)
        if key in seen:
            continue
        seen.add(key)
        variants.append(layer_spec("f", constraints, len(variants)))
    snapshot = draw(
        st.dictionaries(
            st.sampled_from(_ctx_names),
            st.sets(st.sampled_from(_metas), max_size=2),
            max_size=3,
        )
    )
    return make_request(variants, snapshot)


# one maker across all examples, so its memo sees many tables and snapshots
_SHARED_MAKER = DefaultDecisionMaker()


@settings(max_examples=300, deadline=None)
@given(_random_requests())
def test_decide_matches_lifo_oracle(request):
    expected = lifo_oracle(request)
    if expected:
        assert list(DefaultDecisionMaker().decide(request).chain) == expected
        for _ in range(2):  # a miss, then a memo hit
            assert list(_SHARED_MAKER.decide(request).chain) == expected
    else:
        for maker in (DefaultDecisionMaker(), _SHARED_MAKER, _SHARED_MAKER):
            with pytest.raises(NoApplicableVariantError):
                maker.decide(request)


# --- the decision memo ----------------------------------------------------------


class _MissCounting(DefaultDecisionMaker):
    def __init__(self):
        super().__init__()
        self.misses = 0

    def _chain(self, request):
        self.misses += 1
        return super()._chain(request)


def _request_with(variants, snapshot, epoch, request_id=1):
    return make_request(variants, {}, request_id=request_id)._replace(
        meta_snapshot=snapshot,
        snapshot_epoch=epoch,
    )


def test_memo_hits_only_for_the_same_table_and_snapshot_objects():
    variants = (base_spec(), layer_spec("f", [("C", "ON")], 1))
    on = {"C": frozenset({"ON"})}
    dm = _MissCounting()
    first = dm.decide(_request_with(variants, on, 1, request_id=1))
    second = dm.decide(_request_with(variants, on, 1, request_id=2))
    assert dm.misses == 1
    assert second.chain is first.chain
    assert (second.request_id, second.epoch) == (2, 1)
    # equal but distinct objects are other keys
    dm.decide(_request_with(variants, dict(on), 1))
    dm.decide(_request_with(variants[:1] + variants[1:], on, 1))
    assert dm.misses == 3
    # a snapshot kept across epochs still hits, and reports the new epoch
    assert dm.decide(_request_with(variants, on, 7)).epoch == 7
    assert dm.misses == 3


def test_memo_never_answers_for_a_freed_table_at_its_address():
    # each variants tuple is freed after its decision, and a later one,
    # alike in shape, tends to take its address (every other one, in
    # CPython; hence a period of 3 for the metas)
    snapshot = {"C": frozenset({"ON"})}
    dm = DefaultDecisionMaker()
    for i in range(1000):
        meta = ("ON", "OFF", "ON")[i % 3]
        variants = (base_spec(), layer_spec("f", [("C", meta)], 1))
        chain = dm.decide(_request_with(variants, snapshot, 1)).chain
        assert len(chain) == (2 if meta == "ON" else 1), f"table {i}"
        del variants  # free it before the next one is built


def test_memo_is_emptied_when_it_reaches_its_cap():
    on = {"C": frozenset({"ON"})}
    tables = [
        (base_spec(), layer_spec("f", [("C", "ON")], 1)) for _ in range(_MEMO_CAP + 1)
    ]
    dm = _MissCounting()
    for epoch, variants in enumerate(tables[:-1]):
        dm.decide(_request_with(variants, on, epoch))
    assert len(dm._memo) == _MEMO_CAP
    # no epoch drops it: the first table still hits, at an epoch never sent
    assert dm.decide(_request_with(tables[0], on, 5000)).epoch == 5000
    assert dm.misses == _MEMO_CAP
    # one more table starts it afresh
    dm.decide(_request_with(tables[-1], on, 1))
    assert list(dm._memo) == [(id(on), id(tables[-1]))]
    assert dm.decide(_request_with(tables[0], on, 1)).chain[0].declaration_index == 1
    assert dm.misses == _MEMO_CAP + 2


def test_no_applicable_variant_is_not_memoised():
    variants = (layer_spec("f", [("C", "ON")], 0),)
    snapshot = {"C": frozenset()}
    dm = _MissCounting()
    for _ in range(3):
        with pytest.raises(NoApplicableVariantError):
            dm.decide(_request_with(variants, snapshot, 1))
    assert dm.misses == 3
    assert dm._memo == {}


# --- counting wrapper -----------------------------------------------------------


def test_counting_decision_maker_counts_and_delegates():
    dm = CountingDecisionMaker(DefaultDecisionMaker())
    request = make_request([base_spec()], {})
    dm.decide(request)
    dm.decide(request)
    assert dm.decisions == 2
    assert dm.seen == [("m", "f", None), ("m", "f", None)]


def test_counting_decision_maker_keeps_seen_within_its_cap():
    dm = CountingDecisionMaker(DefaultDecisionMaker())
    request = make_request([base_spec()], {})
    for _ in range(5000):
        dm.decide(request)
    assert dm.decisions == 5000
    assert 0 < len(dm.seen) <= _SEEN_CAP


# --- bus attachment ---------------------------------------------------------------


@pytest.fixture
def bus():
    b = MessageBus()
    yield b
    b.shutdown()


def test_attached_maker_answers_over_the_bus(bus):
    attach_decision_maker(bus, DefaultDecisionMaker())
    request = make_request(
        [base_spec(), layer_spec("f", [("C", "ON")], 1)], {"C": {"ON"}},
        module="demo.hero",
    )
    reply = bus.request_reply(
        request_topic_for(request.module), request, request.reply_topic, timeout=5.0
    )
    assert isinstance(reply, DecisionResponse)
    assert chain_names(reply) == ["f__$context$__C_ON", "f"]


def test_attached_maker_reports_no_applicable_variant(bus):
    attach_decision_maker(bus, DefaultDecisionMaker())
    request = make_request([layer_spec("f", [("C", "ON")], 0)], {"C": {"OFF"}})
    reply = bus.request_reply(
        request_topic_for(request.module), request, request.reply_topic, timeout=5.0
    )
    assert isinstance(reply, DecisionFailure)
    assert reply.kind == "no-applicable-variant"
    error = failure_to_error(reply, request.module, request.function_name)
    assert isinstance(error, NoApplicableVariantError)


def test_request_without_reply_topic_does_not_kill_the_dispatcher(bus):
    attach_decision_maker(bus, DefaultDecisionMaker())
    stray = make_request([base_spec()], {})._replace(reply_topic=None)
    bus.publish(request_topic_for(stray.module), stray)
    request = make_request([base_spec()], {}, request_id=2)
    reply = bus.request_reply(
        request_topic_for(request.module), request, request.reply_topic, timeout=5.0
    )
    assert isinstance(reply, DecisionResponse)
    assert reply.request_id == 2
    assert bus._thread.is_alive()


class _Crashing(DecisionMaker):
    def decide(self, request):
        raise RuntimeError("model unavailable")


def test_attached_maker_wraps_unexpected_failures(bus):
    attach_decision_maker(bus, _Crashing())
    request = make_request([base_spec()], {})
    reply = bus.request_reply(
        request_topic_for(request.module), request, request.reply_topic, timeout=5.0
    )
    assert isinstance(reply, DecisionFailure)
    assert reply.kind == "decision-failed"
    assert "model unavailable" in reply.message
    assert isinstance(
        failure_to_error(reply, "m", "f"), DecisionFailedError
    )


def test_request_scoped_maker_wins_over_attached_one(bus):
    global_dm = CountingDecisionMaker(DefaultDecisionMaker())
    per_object = CountingDecisionMaker(DefaultDecisionMaker())
    attach_decision_maker(bus, global_dm)
    base = make_request([base_spec()], {})
    request = base._replace(decision_maker=per_object)
    bus.request_reply(
        request_topic_for(request.module), request, request.reply_topic, timeout=5.0
    )
    assert per_object.decisions == 1
    assert global_dm.decisions == 0


# --- response validation -------------------------------------------------------------


TABLE_SOURCE = (
    "module m\n"
    "contexts = [Weather()]\n"
    "function f = |x| -> x\n"
    "function f = |x| @(Weather=RAINY) -> proceed(x)\n"
)


def valid_case():
    """A request for a real table, the default maker's reply, and the table's data."""
    data = compile_source(TABLE_SOURCE).tables["f"].dispatch_data()
    request = make_request(data.specs, {"Weather": {"RAINY"}})
    return request, DefaultDecisionMaker().decide(request), data


def test_validate_accepts_the_default_makers_output():
    request, response, data = valid_case()
    layer, base = response.chain
    variants = validate_response(request, response, None, data)
    assert variants == (data.by_id[layer], data.by_id[base])
    assert variants[-1].constraints == ()


def test_validate_rejects_id_mismatch():
    request, response, data = valid_case()
    wrong = DecisionResponse(request.request_id + 1, response.chain, response.epoch)
    with pytest.raises(DecisionFailedError, match="does not match"):
        validate_response(request, wrong, None, data)


def test_validate_rejects_empty_chain():
    request, response, data = valid_case()
    with pytest.raises(DecisionFailedError, match="empty chain"):
        validate_response(request, DecisionResponse(request.request_id, (), 0), None, data)


def test_validate_rejects_foreign_variants():
    request, response, data = valid_case()
    foreign = DecisionResponse(
        request.request_id, (VariantId("stranger", 9),), response.epoch
    )
    with pytest.raises(DecisionFailedError, match="unknown variant"):
        validate_response(request, foreign, None, data)


def test_validate_rejects_base_not_last():
    request, response, data = valid_case()
    flipped = DecisionResponse(
        request.request_id, tuple(reversed(response.chain)), response.epoch
    )
    with pytest.raises(DecisionFailedError, match="last chain element"):
        validate_response(request, flipped, None, data)


def test_validate_rejects_duplicate_base():
    request, response, data = valid_case()
    doubled = DecisionResponse(
        request.request_id,
        (response.chain[-1], response.chain[-1]),
        response.epoch,
    )
    with pytest.raises(DecisionFailedError, match="last chain element"):
        validate_response(request, doubled, None, data)


def _malformed_chains(good):
    return {
        "list": list(good),
        "unhashable-element": ([1], good[-1]),
        "non-sequence": 5,
        "non-variant-id-element": (good[0], "f"),
        # equal to, and hashed like, ``good``: only the type check keeps it out
        "plain-tuple-elements": tuple(tuple(v) for v in good),
    }


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
def test_validate_rejects_malformed_chains(shape):
    request, response, data = valid_case()
    chain = _malformed_chains(response.chain)[shape]
    bad = DecisionResponse(request.request_id, chain, response.epoch)
    with pytest.raises(DecisionFailedError, match="tuple of variant ids"):
        validate_response(request, bad, None, data)
    validate_response(request, response, None, data)  # caches the good chain
    if shape == "plain-tuple-elements":
        assert chain in data.chains
    with pytest.raises(DecisionFailedError, match="tuple of variant ids"):
        validate_response(request, bad, None, data)


def test_validated_chains_skip_the_check_but_admit_no_illegal_chain():
    request, response, data = valid_case()
    assert data.chains == {}
    variants = validate_response(request, response, None, data)
    assert data.chains == {response.chain: variants}
    assert validate_response(request, response, None, data) is variants
    layer, base = response.chain
    for chain in ((base, layer), (base, base), (layer, VariantId("stranger", 9))):
        with pytest.raises(DecisionFailedError):
            validate_response(
                request, DecisionResponse(request.request_id, chain, 0), None, data
            )
    with pytest.raises(DecisionFailedError, match="does not match"):
        validate_response(
            request,
            DecisionResponse(request.request_id + 1, response.chain, 0),
            None,
            data,
        )
    assert data.chains == {response.chain: variants}


@pytest.mark.parametrize(
    "kind,error",
    [
        ("no-applicable-variant", NoApplicableVariantError),
        ("stack-overflow", StackOverflowError),
        ("decision-failed", DecisionFailedError),
    ],
)
def test_validate_maps_a_failure_to_its_error(kind, error):
    request, _, data = valid_case()
    span = object()
    failure = DecisionFailure(request.request_id, kind, "model offline")
    with pytest.raises(error) as err:
        validate_response(request, failure, span, data)
    assert err.value.span is span
    assert data.chains == {}


@pytest.mark.parametrize("reply", [None, "f", (VariantId("f", 0),)])
def test_validate_rejects_an_unexpected_reply(reply):
    request, _, data = valid_case()
    with pytest.raises(DecisionFailedError, match="unexpected decision reply"):
        validate_response(request, reply, None, data)


@pytest.mark.parametrize(
    "value, field",
    [
        (make_request([base_spec()], {}), "variants"),
        (DecisionResponse(1, (VariantId("f", 0),), 0), "chain"),
        (DecisionFailure(1, "decision-failed", "boom"), "kind"),
        (Message(reply_topic_for(1), None, 1), "payload"),
        (ContextChanged("Weather", "rainfall_mm", 7.0, 1), "value"),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, str) else v,
)
def test_dispatch_values_are_immutable(value, field):
    # the default maker's memo relies on a sent request not changing
    with pytest.raises(AttributeError):
        setattr(value, field, None)


# --- the slot of the chain last validated ------------------------------------------


SLOT_SOURCE = (
    "module m\n"
    "contexts = [Weather()]\n"
    "function f = |x| -> x * 3 + 1\n"
    "function f = |x| @(Weather=RAINY) -> proceed(x + 10) * 2\n"
    "function f = |x| @(Weather=CLEAR) -> proceed(x - 5) + 7\n"
)
RAINY = (("Weather", "rainfall_mm", 9.0),)


def inline_f(x, layer):
    """``f`` of SLOT_SOURCE composed by hand: ``layer`` (or none), then the base."""
    if layer == "RAINY":
        return ((x + 10) * 3 + 1) * 2
    if layer == "CLEAR":
        return ((x - 5) * 3 + 1) + 7
    return x * 3 + 1


class _FreshChains(DecisionMaker):
    """The default policy, but each reply carries a new tuple equal to its chain."""

    def __init__(self):
        self.inner = DefaultDecisionMaker()
        self.last_chain = None

    def decide(self, request):
        reply = self.inner.decide(request)
        self.last_chain = tuple(list(reply.chain))
        return reply._replace(chain=self.last_chain)


@pytest.mark.parametrize("mode", list(DispatchMode), ids=lambda m: m.value)
def test_a_fresh_equal_chain_on_every_call_gets_the_right_variants(mode):
    lowered = compile_source(SLOT_SOURCE)
    dm = _FreshChains()
    config = RunConfig(dispatch_mode=mode, decision_maker=dm, initial_values=RAINY)
    with Runtime(lowered, config) as runtime:
        for x in range(1000):
            assert runtime.call("f", (x,)) == inline_f(x, "RAINY"), f"call {x}"
    data = lowered.tables["f"].dispatch
    assert list(data.chains) == [dm.last_chain]  # one entry, found by equality
    assert data.last[0] is dm.last_chain


def test_a_warm_slot_admits_no_chain_that_is_not_its_own_tuple():
    request, response, data = valid_case()
    variants = validate_response(request, response, None, data)
    assert data.last[0] is response.chain and data.last[1] is variants
    layer, base = response.chain
    for chain, message in [
        # equal to the slot's chain, and hashed like it
        (tuple(tuple(v) for v in response.chain), "tuple of variant ids"),
        (list(response.chain), "tuple of variant ids"),
        ((layer, VariantId("stranger", 9)), "unknown variant"),
        ((base, layer), "last chain element"),
    ]:
        with pytest.raises(DecisionFailedError, match=message):
            validate_response(
                request, DecisionResponse(request.request_id, chain, 0), None, data
            )
        assert data.last[0] is response.chain  # a refused chain is not kept
        assert validate_response(request, response, None, data) is variants
    with pytest.raises(DecisionFailedError, match="does not match"):
        validate_response(
            request, DecisionResponse(request.request_id + 1, response.chain, 0), None, data
        )
    assert data.chains == {response.chain: variants}


DEFINED = (
    "module m\n"
    "contexts = [Weather()]\n"
    "function main = |x| {\n"
    "  let o = DynamicObject()\n"
    "  o: define(\"g\", |this, x| -> x * 3 + 1)\n"
    "  o: define(\"g\", |this, x| @(Weather=CLEAR) -> proceed(x - 5) + 7)\n"
    "  println(o: g(x))\n"
    "  o: define(\"g\", |this, x| @(Weather=RAINY) -> proceed(x + 10) * 2)\n"
    "  println(o: g(x))\n"
    "  setConcrete(\"Weather\", \"rainfall_mm\", 0.0)\n"
    "  println(o: g(x))\n"
    "}\n"
)


@pytest.mark.parametrize(
    "mode,policy",
    [(mode, policy) for mode in DispatchMode for policy in CachePolicy],
    ids=lambda v: v.value,
)
def test_a_define_after_a_decided_call_runs_the_new_chain(mode, policy):
    _, output = run_program(
        DEFINED, args=(4,), mode=mode, policy=policy, initial=RAINY
    )
    assert output == [str(inline_f(4, None)), str(inline_f(4, "RAINY")),
                      str(inline_f(4, "CLEAR"))]


class _Recording(DecisionMaker):
    def __init__(self):
        self.inner = DefaultDecisionMaker()
        self.seen = []

    def decide(self, request):
        reply = self.inner.decide(request)
        self.seen.append((request, reply))
        return reply


@pytest.mark.parametrize("mode", list(DispatchMode), ids=lambda m: m.value)
def test_requests_and_replies_are_their_named_tuples_field_by_field(mode):
    lowered = compile_source(SLOT_SOURCE)
    dm = _Recording()
    config = RunConfig(dispatch_mode=mode, decision_maker=dm, initial_values=RAINY)
    with Runtime(lowered, config) as runtime:
        epoch = runtime.store.epoch
        runtime.call("f", (1,))
        runtime.call("f", (2,))  # the maker's memo answers this one
    specs = lowered.tables["f"].dispatch.specs
    chain = (VariantId(mangle("f", [("Weather", "RAINY")]), 1), VariantId("f", 0))
    assert len(dm.seen) == 2
    for request_id, (request, reply) in enumerate(dm.seen, 1):
        assert type(request) is InvocationRequest and type(reply) is DecisionResponse
        assert request == InvocationRequest(
            request_id=request_id,
            module="m",
            function_name="f",
            arity=1,
            variants=specs,
            receiver_id=None,
            meta_snapshot={"Weather": frozenset({"RAINY"})},
            snapshot_epoch=epoch,
            reply_topic=reply_topic_for(request_id) if mode is DispatchMode.EVENT else None,
            decision_maker=dm,
        )
        assert request.variants is specs and request.decision_maker is dm
        assert reply == DecisionResponse(request_id=request_id, chain=chain, epoch=epoch)
    assert dm.seen[1][1].chain is dm.seen[0][1].chain


class _Turns:
    """Two threads that take turns within one function (``code``).

    Before a line of ``code``, a thread hands the turn to the other at a
    seeded coin flip and waits for it back, while the other runs up to a
    line of ``code`` where it hands the turn back.  So the lines of the two
    threads interleave in ever new ways, and a slot read twice, or written
    in two steps, is seen half-changed.  A thread that is done takes no
    more turns."""

    def __init__(self, code):
        self.code = code
        self.turn = 0
        self.done = [False, False]
        self.cond = threading.Condition()

    def tracer(self, k):
        coin = random.Random(k).random

        def line(frame, event, arg):
            if event == "line" and coin() < 0.5:
                self.pass_turn(k)
            return line

        return lambda frame, event, arg: line if frame.f_code is self.code else None

    def pass_turn(self, k):
        with self.cond:
            self.turn = 1 - k
            self.cond.notify_all()
            self.cond.wait_for(lambda: self.turn == k or self.done[1 - k], timeout=5)

    def finish(self, k):
        with self.cond:
            self.done[k] = True
            self.cond.notify_all()


class _Interning(DecisionMaker):
    """The default policy, replying with one tuple object per chain value
    whichever runtime asks, so either runtime can find its chain in the slot
    the other one filled."""

    def __init__(self):
        self.inner = DefaultDecisionMaker()
        self.chains = {}

    def decide(self, request):
        reply = self.inner.decide(request)
        return reply._replace(chain=self.chains.setdefault(reply.chain, reply.chain))


def test_runtimes_sharing_a_table_on_two_threads_each_run_their_own_chain():
    lowered = compile_source(SLOT_SOURCE)  # one table, so one slot, for both
    config = RunConfig(dispatch_mode=DispatchMode.DIRECT, decision_maker=_Interning())
    runtimes = [Runtime(lowered, config).start() for _ in range(2)]
    rainy_on = [lambda i: i % 2 == 0, lambda i: i % 3 != 1]  # each its own meta
    steps = _Turns(validate_response.__code__)
    calls, wrong = [0, 0], [[], []]

    def drive(k):
        runtime, rainy = runtimes[k], rainy_on[k]
        sys.settrace(steps.tracer(k))
        try:
            for i in range(2000):
                layer = "RAINY" if rainy(i) else "CLEAR"
                runtime.store.set("Weather", "rainfall_mm", 9.0 if rainy(i) else 0.0)
                result = runtime.call("f", (i,))
                if result != inline_f(i, layer):
                    wrong[k].append((i, layer, result))
                calls[k] += 1
        finally:
            sys.settrace(None)
            steps.finish(k)

    threads = [threading.Thread(target=drive, args=(k,)) for k in range(2)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        for runtime in runtimes:
            runtime.shutdown()
    assert calls == [2000, 2000]
    assert wrong == [[], []]
    assert len(lowered.tables["f"].dispatch.chains) == 2


# --- registry -------------------------------------------------------------------------


def test_builtin_registrations():
    names = registered_decision_makers()
    assert "default" in names and "counting" in names
    assert isinstance(create_decision_maker("default"), DefaultDecisionMaker)
    assert isinstance(create_decision_maker("counting"), CountingDecisionMaker)


def test_unknown_decision_maker_name():
    with pytest.raises(UnknownDecisionMakerError):
        create_decision_maker("nope")


def test_custom_registration_round_trip():
    register_decision_maker("crashing", _Crashing)
    try:
        assert isinstance(create_decision_maker("crashing"), _Crashing)
    finally:
        unregister_decision_maker("crashing")
    with pytest.raises(UnknownDecisionMakerError):
        create_decision_maker("crashing")
