"""In-process publish/subscribe bus with hierarchical topics.

One dedicated dispatcher thread runs every handler sequentially, so
publishers never execute handlers inline and per-subscription delivery
is FIFO in publish order.  ``request_reply`` layers a blocking
request/response protocol on top; calling it from the dispatcher thread
would deadlock the bus, so that re-entry fails fast instead.

Replies are correlated by reply topic (the Correlation Identifier
pattern): ``request_reply`` registers one pending entry per reply topic in
a table the bus owns, and the dispatcher, while it picks a message's
subscribers, pops the entry for that topic and hands the payload to its
waiter.  No subscription is made per request.  The first reply wins; a
duplicate reply, or one that arrives after its request timed out, finds
no entry and reaches only ordinary subscribers.
"""

from __future__ import annotations

import logging
import queue
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional

from .errors import BusClosedError, DecisionTimeoutError, ReentrantDispatchError

log = logging.getLogger("congo.bus")

DEFAULT_REPLY_TIMEOUT = 5.0


@dataclass(frozen=True)
class Topic:
    """Hierarchical topic; a trailing ``*`` segment matches any suffix."""

    segments: tuple

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a topic needs at least one segment")
        for i, segment in enumerate(self.segments):
            if not isinstance(segment, str) or not segment or "/" in segment:
                raise ValueError(f"invalid topic segment: {segment!r}")
            if segment == "*" and i != len(self.segments) - 1:
                raise ValueError("wildcard '*' is only allowed as the final segment")

    @classmethod
    def parse(cls, text: str) -> "Topic":
        return cls(tuple(text.split("/")))

    def matches(self, topic: "Topic") -> bool:
        """True when ``topic`` (a concrete topic) matches this pattern."""
        pattern = self.segments
        if pattern[-1] == "*":
            head = pattern[:-1]
            return (
                len(topic.segments) > len(head)
                and topic.segments[: len(head)] == head
            )
        return topic.segments == pattern

    def __str__(self) -> str:
        return "/".join(self.segments)


class Message(NamedTuple):
    topic: Topic
    payload: object
    publish_seq: int


class Subscription:
    __slots__ = ("pattern", "handler", "_active")

    def __init__(self, pattern: Topic, handler: Callable[[Message], None]):
        self.pattern = pattern
        self.handler = handler
        self._active = True


class _PendingReply:
    """One waiting ``request_reply``: a held lock and, once handed over, the reply."""

    __slots__ = ("waiter", "reply")

    def __init__(self) -> None:
        self.waiter = threading.Lock()
        self.waiter.acquire()
        self.reply: object = None


_SHUTDOWN = object()


class MessageBus:
    """Single-dispatcher message bus. Starts its thread on construction."""

    def __init__(self, *, trace: Optional[Callable[[str], None]] = None):
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._lock = threading.Lock()
        # Held for the whole delivery of one message; unsubscribe uses it
        # as a barrier so no handler starts after unsubscribe returns.
        self._delivery_lock = threading.Lock()
        self._subscriptions: List[Subscription] = []
        # reply topic -> the request_reply waiting on it; guarded by _lock
        self._pending: Dict[Topic, _PendingReply] = {}
        self._seq = 0
        self._closed = False
        self._trace = trace
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="congo-bus", daemon=True
        )
        self._thread.start()

    # --- core operations ---------------------------------------------------

    def publish(self, topic: Topic, payload: object) -> int:
        """Enqueue a message; returns its global publish sequence number."""
        if not isinstance(topic, Topic):
            raise TypeError(f"publish needs a Topic, got {type(topic).__name__}")
        with self._lock:
            if self._closed:
                raise BusClosedError("publish on a bus that was shut down")
            self._seq += 1
            seq = self._seq
            self._queue.put(Message(topic, payload, seq))
        return seq

    def subscribe(self, pattern: Topic, handler: Callable[[Message], None]) -> Subscription:
        subscription = Subscription(pattern, handler)
        with self._lock:
            self._subscriptions.append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Deactivate; once this returns the handler sees no more messages."""
        with self._lock:
            subscription._active = False
            try:
                self._subscriptions.remove(subscription)
            except ValueError:
                pass
        if threading.current_thread() is not self._thread:
            with self._delivery_lock:
                pass  # wait out any delivery already in flight

    def request_reply(
        self,
        request_topic: Topic,
        payload: object,
        reply_topic: Topic,
        timeout: float = DEFAULT_REPLY_TIMEOUT,
    ):
        """Publish a request and block until a reply arrives on ``reply_topic``.

        Only the first reply on ``reply_topic`` is returned.  Raises
        ``ValueError`` if another request is already waiting on that topic.
        """
        if threading.current_thread() is self._thread:
            raise ReentrantDispatchError(
                "request_reply called from the bus dispatcher context"
            )
        pending = _PendingReply()
        with self._lock:
            if reply_topic in self._pending:
                raise ValueError(f"a request is already waiting on '{reply_topic}'")
            self._pending[reply_topic] = pending
        try:
            self.publish(request_topic, payload)
        except BaseException:
            self._withdraw(reply_topic, pending)
            raise
        if not pending.waiter.acquire(timeout=timeout) and self._withdraw(
            reply_topic, pending
        ):
            raise DecisionTimeoutError(
                f"no reply on '{reply_topic}' within {timeout:g}s",
                request_id=getattr(payload, "request_id", None),
            )
        # Either the waiter was released, or the entry was already gone: the
        # dispatcher pops an entry and fills it under _lock, so the reply is in.
        return pending.reply

    def _withdraw(self, reply_topic: Topic, pending: _PendingReply) -> bool:
        """Remove ``pending`` unless a reply has claimed it; True if removed."""
        with self._lock:
            if self._pending.get(reply_topic) is not pending:
                return False
            del self._pending[reply_topic]
            return True

    def shutdown(self) -> None:
        """Stop the dispatcher after draining already-queued messages."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(_SHUTDOWN)
        self._thread.join()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __enter__(self) -> "MessageBus":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # --- dispatcher --------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            message = self._queue.get()
            if message is _SHUTDOWN:
                break
            with self._delivery_lock:
                if self._trace is not None:
                    try:
                        self._trace(
                            f"SEQ {message.publish_seq} {message.topic} "
                            f"{type(message.payload).__name__}"
                        )
                    except Exception:
                        log.exception("bus trace hook failed")
                with self._lock:
                    targets = [
                        s for s in self._subscriptions
                        if s._active and s.pattern.matches(message.topic)
                    ]
                    if self._pending:
                        pending = self._pending.pop(message.topic, None)
                        if pending is not None:
                            pending.reply = message.payload
                            pending.waiter.release()
                for subscription in targets:
                    if not subscription._active:
                        continue
                    try:
                        subscription.handler(message)
                    except Exception:
                        log.exception(
                            "subscriber raised while handling %s", message.topic
                        )
