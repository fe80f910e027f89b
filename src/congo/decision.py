"""Decision makers: who picks the variant chain for a contextual call.

A call site never chooses variants itself.  It packages the invocation
(variants, meta snapshot, epoch) into an :class:`InvocationRequest` and
either sends it over the bus (event dispatch) or hands it straight to
the decision maker (direct dispatch).  Both transports share one decide
step, :func:`decide_or_fail`, so a reply is either a
:class:`DecisionResponse` (an ordered chain of variant ids, outermost
first) or a :class:`DecisionFailure`, whichever way it travelled.
:func:`validate_response` turns either into the variants to run or the
error to raise.  Requests and replies are named tuples, recognised by
type: a plain tuple with equal fields is not a reply.  On the call path
they are built with ``tuple.__new__``, which costs no Python-level call.
"""

from __future__ import annotations

import itertools
import logging
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from .bus import MessageBus, Subscription, Topic
from .errors import (
    BusClosedError,
    DecisionFailedError,
    NoApplicableVariantError,
    StackOverflowError,
    UnknownDecisionMakerError,
)
from .lowering import DispatchData, Variant, VariantId, VariantSpec

log = logging.getLogger("congo.decision")

REQUEST_PATTERN = Topic(("congo", "decision", "request", "*"))


def request_topic_for(module: str) -> Topic:
    return Topic(("congo", "decision", "request", *module.split(".")))


_REPLY_PREFIX = Topic(("congo", "decision", "reply")).segments


def reply_topic_for(request_id: int) -> Topic:
    # skips Topic's checks: the prefix passed them above, and "%d" is legal
    return _new(Topic, ((*_REPLY_PREFIX, "%d" % request_id),))


def context_changed_topic(context: str) -> Topic:
    return Topic(("congo", "context", "changed", context))


class InvocationRequest(NamedTuple):
    request_id: int
    module: str
    function_name: str
    arity: int
    variants: Tuple[VariantSpec, ...]
    receiver_id: Optional[int]
    meta_snapshot: Mapping[str, frozenset]
    snapshot_epoch: int
    # where an event-mode reply goes; a direct call gets its reply returned
    reply_topic: Optional[Topic] = None
    # Resolved at the call site (per-object override or the global one).
    # In-process reference; a networked bus would route by receiver_id.
    decision_maker: Optional["DecisionMaker"] = None


class DecisionResponse(NamedTuple):
    request_id: int
    chain: Tuple[VariantId, ...]  # outermost first; base, if present, last
    epoch: int


class DecisionFailure(NamedTuple):
    """Error reply published when a decision maker raises."""

    request_id: int
    kind: str  # "no-applicable-variant" | "stack-overflow" | "decision-failed"
    message: str


class DecisionMaker(ABC):
    """Pluggable chain-selection policy.

    A maker is handed nothing but requests.  The chain it returns must be a
    function of the request: the epoch guard runs a remembered chain again
    while the store epoch and the receiver's version are unchanged, and the
    default policy memoises chains by the request's variants and snapshot.
    """

    @abstractmethod
    def decide(self, request: InvocationRequest) -> DecisionResponse:
        ...


_NO_METAS: frozenset = frozenset()
_MEMO_CAP = 1024  # the most chains one DefaultDecisionMaker keeps
_SEEN_CAP = 1024  # the most requests one CountingDecisionMaker lists in ``seen``
_VARIANT_ID = itertools.repeat(VariantId)  # isinstance's second argument, for map()
_new = tuple.__new__  # builds a request or a reply with no Python-level call


class DefaultDecisionMaker(DecisionMaker):
    """Static policy: eligible layers stacked LIFO, base innermost.

    A layer is eligible when every (context, meta) constraint is
    satisfied by the request's meta snapshot.  Eligible layers compose
    in reverse declaration order (the last declared layer runs first),
    with the base as the final chain element.

    The chain depends only on ``request.variants`` (one table's specs)
    and ``request.meta_snapshot``, so it is memoised per pair of those
    objects: indexed by their ``id()``s, holding both (so neither address
    can be reused while the entry lives) and hit only when both are the
    request's own objects (``is``).  Equal meta states are one snapshot
    object (see ``ContextManager.snapshot_meta``), so a meta state that
    recurs hits at any epoch, and runtimes sharing the maker keep their
    entries side by side.  The memo is emptied when it reaches
    ``_MEMO_CAP`` entries.  A sent snapshot must not change
    (the interpreter's are read-only).  Failures are not memoised.  Other
    makers have no memo: each decided call calls them.
    """

    def __init__(self) -> None:
        # {(id(snapshot), id(variants)): (snapshot, variants, chain)}; for
        # threads sharing a maker, read via one local and replaced in one store
        self._memo: Dict[Tuple[int, int], Tuple] = {}

    def decide(self, request: InvocationRequest) -> DecisionResponse:
        snapshot, variants = request.meta_snapshot, request.variants
        key = (id(snapshot), id(variants))
        memo = self._memo
        entry = memo.get(key)
        if entry is None or entry[0] is not snapshot or entry[1] is not variants:
            chain = self._chain(request)
            if len(memo) >= _MEMO_CAP:
                memo = self._memo = {}
            entry = memo[key] = (snapshot, variants, chain)
        return _new(DecisionResponse, (request.request_id, entry[2], request.snapshot_epoch))

    def _chain(self, request: InvocationRequest) -> Tuple[VariantId, ...]:
        snapshot = request.meta_snapshot
        eligible = [
            spec for spec in request.variants
            if spec.constraints and all(
                meta in snapshot.get(ctx, _NO_METAS)
                for ctx, meta in spec.constraints
            )
        ]
        chain: List[VariantId] = [spec.variant_id for spec in reversed(eligible)]
        base = next((spec for spec in request.variants if not spec.constraints), None)
        if base is not None:
            chain.append(base.variant_id)
        if not chain:
            raise NoApplicableVariantError(request.module, request.function_name)
        return tuple(chain)


class CountingDecisionMaker(DecisionMaker):
    """Delegates to an inner policy while counting every decide call.

    ``seen`` lists the (module, function, receiver) of the calls since it
    was last emptied, which happens when it reaches ``_SEEN_CAP`` entries.
    """

    def __init__(self, inner: Optional[DecisionMaker] = None):
        self.inner = inner or DefaultDecisionMaker()
        self.decisions = 0
        self.seen: List[Tuple[str, str, Optional[int]]] = []

    def decide(self, request: InvocationRequest) -> DecisionResponse:
        self.decisions += 1
        if len(self.seen) >= _SEEN_CAP:
            self.seen = []
        self.seen.append((request.module, request.function_name, request.receiver_id))
        return self.inner.decide(request)


def decide_or_fail(dm: DecisionMaker, request: InvocationRequest) -> object:
    """The decide step of both transports: ``dm``'s reply, or a failure.

    Exceptions from ``decide`` become :class:`DecisionFailure` replies,
    so a broken policy can take down neither the bus dispatcher nor a
    direct call.  Whatever ``decide`` returns is passed on unchecked.
    """
    try:
        return dm.decide(request)
    except NoApplicableVariantError as exc:
        return DecisionFailure(request.request_id, "no-applicable-variant", str(exc))
    except RecursionError as exc:
        # in direct mode, most likely the nested ConGo calls that led here
        return DecisionFailure(request.request_id, "stack-overflow", str(exc))
    except Exception as exc:
        log.debug("decision maker raised", exc_info=True)
        return DecisionFailure(
            request.request_id, "decision-failed", f"{type(exc).__name__}: {exc}"
        )


def attach_decision_maker(bus: MessageBus, dm: DecisionMaker) -> Subscription:
    """Subscribe ``dm`` to every decision request on the bus.

    Each request is answered on its own reply topic, by the request's
    own decision maker when it names one.  A reply decided after the bus
    was shut down is dropped: no caller can receive it any more.
    """

    def _handle(message) -> None:
        request = message.payload
        if isinstance(request, InvocationRequest):
            reply = decide_or_fail(request.decision_maker or dm, request)
            try:
                bus.publish(request.reply_topic, reply)
            except BusClosedError:
                pass

    return bus.subscribe(REQUEST_PATTERN, _handle)


def failure_to_error(
    failure: DecisionFailure, module: str, function_name: str, span=None
):
    if failure.kind == "no-applicable-variant":
        return NoApplicableVariantError(module, function_name, span)
    if failure.kind == "stack-overflow":
        return StackOverflowError(f"stack exhausted deciding '{function_name}'", span)
    return DecisionFailedError(f"decision maker failed: {failure.message}", span)


def validate_response(
    request: InvocationRequest, reply: object, span, data: DispatchData
) -> Tuple[Variant, ...]:
    """The variants ``reply`` names, outermost first, or the error it means.

    The one place a reply is checked: anything but a legal chain of ``data``'s
    table raises.  Past the reply's type and request id, a chain that *is*
    the tuple in ``data.last``, the one passed last, returns its variants:
    that tuple cannot change, and the slot keeps it alive.  Any other chain,
    even an equal one, is checked in full.  A legal chain is stored in
    ``data.chains`` and found there afterwards, but only once its type
    passed: a plain tuple equals a :class:`VariantId` with the same fields,
    and a list cannot be hashed.
    """
    if not isinstance(reply, DecisionResponse):
        if isinstance(reply, DecisionFailure):
            raise failure_to_error(reply, request.module, request.function_name, span)
        raise DecisionFailedError(
            f"unexpected decision reply: {type(reply).__name__}", span
        )
    if reply.request_id != request.request_id:
        raise DecisionFailedError(
            f"decision response id {reply.request_id} does not match "
            f"request {request.request_id}",
            span,
        )
    chain = reply.chain
    seen, variants = data.last  # one read: other threads replace it whole
    if chain is seen:
        return variants
    if type(chain) is not tuple or not all(map(isinstance, chain, _VARIANT_ID)):
        raise DecisionFailedError(
            f"decision chain must be a tuple of variant ids, got {chain!r}", span
        )
    if not chain:
        raise DecisionFailedError("decision maker returned an empty chain", span)
    variants = data.chains.get(chain)
    if variants is None:
        variants = tuple(map(data.by_id.get, chain))
        last = len(chain) - 1
        for i, variant in enumerate(variants):
            if variant is None:
                raise DecisionFailedError(
                    f"decision chain names unknown variant {chain[i]!r}", span
                )
            if not variant.constraints and i != last:  # () marks the base
                raise DecisionFailedError(
                    "the base variant may only appear as the last chain element", span
                )
        data.chains[chain] = variants
    data.last = (chain, variants)
    return variants


# --- registry for named decision makers (CLI and source-level lookup) ------

_FACTORIES: Dict[str, Callable[[], DecisionMaker]] = {}


def register_decision_maker(name: str, factory: Callable[[], DecisionMaker]) -> None:
    _FACTORIES[name] = factory


def unregister_decision_maker(name: str) -> None:
    _FACTORIES.pop(name, None)


def create_decision_maker(name: str) -> DecisionMaker:
    factory = _FACTORIES.get(name)
    if factory is None:
        raise UnknownDecisionMakerError(f"unknown decision maker '{name}'")
    return factory()


def registered_decision_makers() -> Tuple[str, ...]:
    return tuple(sorted(_FACTORIES))


register_decision_maker("default", DefaultDecisionMaker)
register_decision_maker("counting", CountingDecisionMaker)
