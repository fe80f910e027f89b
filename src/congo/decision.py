"""Decision makers: who picks the variant chain for a contextual call.

A call site never chooses variants itself.  It packages the invocation
(variants, meta snapshot, epoch) into an :class:`InvocationRequest` and
either sends it over the bus (event dispatch) or hands it straight to
the decision maker (direct dispatch).  Both transports share one decide
step, :func:`decide_or_fail`, so a reply is either a
:class:`DecisionResponse` (an ordered chain of variant ids, outermost
first) or a :class:`DecisionFailure`, whichever way it travelled.
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .bus import MessageBus, Subscription, Topic
from .errors import (
    DecisionFailedError,
    NoApplicableVariantError,
    StackOverflowError,
    UnknownDecisionMakerError,
)
from .lowering import VariantId, VariantSpec

log = logging.getLogger("congo.decision")

REQUEST_PATTERN = Topic(("congo", "decision", "request", "*"))


def request_topic_for(module: str) -> Topic:
    return Topic(("congo", "decision", "request", *module.split(".")))


def reply_topic_for(request_id: int) -> Topic:
    return Topic(("congo", "decision", "reply", str(request_id)))


def context_changed_topic(context: str) -> Topic:
    return Topic(("congo", "context", "changed", context))


@dataclass(frozen=True)
class InvocationRequest:
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


@dataclass(frozen=True)
class DecisionResponse:
    request_id: int
    chain: Tuple[VariantId, ...]  # outermost first; base, if present, last
    epoch: int


@dataclass(frozen=True)
class DecisionFailure:
    """Error reply published when a decision maker raises."""

    request_id: int
    kind: str  # "no-applicable-variant" | "stack-overflow" | "decision-failed"
    message: str


class DecisionMaker(ABC):
    """Pluggable chain-selection policy.

    ``init`` and ``train`` are lifecycle hooks; the default policy needs
    neither but third-party implementations (e.g. learned policies) do.
    """

    def init(self, config: Mapping) -> None:
        pass

    @abstractmethod
    def decide(self, request: InvocationRequest) -> DecisionResponse:
        ...

    def train(self, feedback: object) -> None:
        pass


_NO_METAS: frozenset = frozenset()


class DefaultDecisionMaker(DecisionMaker):
    """Static policy: eligible layers stacked LIFO, base innermost.

    A layer is eligible when every (context, meta) constraint is
    satisfied by the request's meta snapshot.  Eligible layers compose
    in reverse declaration order (the last declared layer runs first),
    with the base as the final chain element.
    """

    def __init__(self) -> None:
        self._config: Dict = {}

    def init(self, config: Mapping) -> None:
        self._config = dict(config)

    def decide(self, request: InvocationRequest) -> DecisionResponse:
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
        return DecisionResponse(request.request_id, tuple(chain), request.snapshot_epoch)


class CountingDecisionMaker(DecisionMaker):
    """Delegates to an inner policy while recording every decide call."""

    def __init__(self, inner: Optional[DecisionMaker] = None):
        self.inner = inner or DefaultDecisionMaker()
        self.decisions = 0
        self.seen: List[Tuple[str, str, Optional[int]]] = []

    def init(self, config: Mapping) -> None:
        self.inner.init(config)

    def decide(self, request: InvocationRequest) -> DecisionResponse:
        self.decisions += 1
        self.seen.append((request.module, request.function_name, request.receiver_id))
        return self.inner.decide(request)

    def train(self, feedback: object) -> None:
        self.inner.train(feedback)


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
    own decision maker when it names one.
    """

    def _handle(message) -> None:
        request = message.payload
        if isinstance(request, InvocationRequest):
            reply = decide_or_fail(request.decision_maker or dm, request)
            bus.publish(request.reply_topic, reply)

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
    request: InvocationRequest, response: DecisionResponse, span=None
) -> None:
    """Check the chain-legality invariants; raise DecisionFailedError if broken."""
    if response.request_id != request.request_id:
        raise DecisionFailedError(
            f"decision response id {response.request_id} does not match "
            f"request {request.request_id}",
            span,
        )
    if not response.chain:
        raise DecisionFailedError("decision maker returned an empty chain", span)
    is_base = {spec.variant_id: not spec.constraints for spec in request.variants}
    last = len(response.chain) - 1
    for i, variant_id in enumerate(response.chain):
        base = is_base.get(variant_id)
        if base is None:
            raise DecisionFailedError(
                f"decision chain names unknown variant {variant_id!r}", span
            )
        if base and i != last:
            raise DecisionFailedError(
                "the base variant may only appear as the last chain element", span
            )


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
