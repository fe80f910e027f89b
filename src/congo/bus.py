"""In-process publish/subscribe bus with hierarchical topics.

One dedicated dispatcher thread runs every handler sequentially, so
publishers never execute handlers inline and per-subscription delivery
is FIFO in publish order.  ``publish`` picks a message's subscribers
when it is called: a subscription made after a publish does not receive
that message, and a message that no subscription matches is not queued
at all unless a trace hook is set (its sequence number is still used up).
Each topic's subscriber list is found once and kept, under ``_lock``, for
the next publish on that topic.  Every ``subscribe`` and ``unsubscribe``
empties the kept lists, and so does a publish that finds ``_ROUTES_CAP``
(1024) topics kept.  The topic of a reply that a waiter claims is not
kept: a reply topic is used once.

``request_reply`` layers a blocking request/response protocol on top;
calling it from the dispatcher thread would deadlock the bus, so that
re-entry fails fast instead.

Replies are correlated by reply topic (the Correlation Identifier
pattern): ``request_reply`` registers one pending entry per reply topic in
a table the bus owns, under the lock section that queues its request, and
``publish`` pops the entry for its topic and hands the payload to the
waiter at once, so a reply never waits behind the handler that published
it.  No subscription is made per request.  The first reply wins; a
duplicate reply, or one that arrives after its request timed out, finds
no entry and reaches only ordinary subscribers.

The idle dispatcher blocks in ``os.read`` on a private pipe.  A publisher
that queues a message for an idle dispatcher writes one byte to wake it,
and ``os.write`` lets go of the interpreter lock while it does, so the
dispatcher can take the lock as soon as it wakes.  The ``_idle`` flag,
set by the dispatcher and cleared by that publisher under ``_lock``, keeps
at most one byte in the pipe; the dispatcher itself never writes to it.
A decided call thus costs one thread hand-off each way.  A caller that ran
the handlers itself while it waited would save both, but could not honour
its timeout against a handler that hangs, so handlers stay on the
dispatcher.

Those two hand-offs set the floor of a round trip.  On a 2-vCPU host
(Python 3.11, both threads on one CPU), a bare two-thread ping-pong over
the same pipe wake and a new waiter lock per trip takes about 3 us, and a
``request_reply`` to an echo handler about 8 us.  The rest is Python-level
plumbing, kept to a few frames: ``request_reply``, ``_PendingReply`` and
``_post`` on the caller; ``publish``, ``_post`` and the scan of the
claimed reply's topic on the dispatcher.  Topics hash and compare in C,
messages are built with ``tuple.__new__``, re-entry is a comparison of
thread idents, and the dispatcher delivers inline, whether or not a trace
hook is set.
"""

from __future__ import annotations

import logging
import os
import threading
from collections import namedtuple
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .errors import BusClosedError, DecisionTimeoutError, ReentrantDispatchError

log = logging.getLogger("congo.bus")

DEFAULT_REPLY_TIMEOUT = 5.0
_ROUTES_CAP = 1024  # the most topics whose subscriber lists a bus keeps
_new = tuple.__new__  # builds a Topic or a Message with no Python-level call


class Topic(namedtuple("Topic", "segments")):
    """Hierarchical topic; a trailing ``*`` segment matches any suffix.

    A one-field named tuple, so hashing and equality run in C; it equals the
    one-tuple of its segments.
    """

    __slots__ = ()

    def __new__(cls, segments: tuple) -> "Topic":
        if not segments:
            raise ValueError("a topic needs at least one segment")
        for i, segment in enumerate(segments):
            if not isinstance(segment, str) or not segment or "/" in segment:
                raise ValueError(f"invalid topic segment: {segment!r}")
            if segment == "*" and i != len(segments) - 1:
                raise ValueError("wildcard '*' is only allowed as the final segment")
        return _new(cls, (segments,))

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


class MessageBus:
    """Single-dispatcher message bus. Starts its thread on construction."""

    def __init__(self, *, trace: Optional[Callable[[str], None]] = None):
        self._lock = threading.Lock()
        # (message, its subscribers at publish time) in publish order; guarded by _lock
        self._queue: List[Tuple[Message, List[Subscription]]] = []
        # True while the dispatcher waits, or is about to wait, on the pipe
        # with nobody committed to wake it; guarded by _lock
        self._idle = False
        self._wake_read, self._wake_write = os.pipe()
        # Held for the whole delivery of one message; unsubscribe uses it
        # as a barrier so no handler starts after unsubscribe returns.
        self._delivery_lock = threading.Lock()
        self._subscriptions: List[Subscription] = []
        # topic -> its subscribers, as publish last found them; emptied by
        # every subscribe and unsubscribe, and when full; guarded by _lock
        self._routes: Dict[Topic, List[Subscription]] = {}
        # reply topic -> the request_reply waiting on it; guarded by _lock
        self._pending: Dict[Topic, _PendingReply] = {}
        self._seq = 0
        self._closed = False
        self._trace = trace
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="congo-bus", daemon=True
        )
        try:
            self._thread.start()
        except BaseException:
            self._close_pipe()
            raise
        self._ident = self._thread.ident  # compared with threading.get_ident()

    # --- core operations ---------------------------------------------------

    def publish(self, topic: Topic, payload: object) -> int:
        """Queue a message for its subscribers; returns its global publish sequence number.

        A reply that a ``request_reply`` waits for is handed to it here.
        """
        return self._post(topic, payload, None, None)

    def _post(
        self,
        topic: Topic,
        payload: object,
        reply_topic: Optional[Topic],
        pending: Optional[_PendingReply],
    ) -> int:
        """``publish``; ``request_reply`` passes the entry it will wait on,
        registered for ``reply_topic`` under the lock that queues its request."""
        if not isinstance(topic, Topic):
            raise TypeError(f"publish needs a Topic, got {type(topic).__name__}")
        wake = False
        with self._lock:
            if self._closed:
                raise BusClosedError("publish on a bus that was shut down")
            if pending is not None:
                if reply_topic in self._pending:
                    raise ValueError(f"a request is already waiting on '{reply_topic}'")
                self._pending[reply_topic] = pending
            self._seq += 1
            seq = self._seq
            claimed = self._pending.pop(topic, None) if self._pending else None
            if claimed is not None:
                claimed.reply = payload
                claimed.waiter.release()
            targets = self._routes.get(topic)
            if targets is None:
                targets = [s for s in self._subscriptions if s.pattern.matches(topic)]
                if claimed is None:  # a reply topic is used once: not worth a slot
                    if len(self._routes) >= _ROUTES_CAP:
                        self._routes = {}
                    self._routes[topic] = targets
            if targets or self._trace is not None:
                self._queue.append((_new(Message, (topic, payload, seq)), targets))
                wake, self._idle = self._idle, False
        if wake:
            os.write(self._wake_write, b"\0")
        return seq

    def subscribe(self, pattern: Topic, handler: Callable[[Message], None]) -> Subscription:
        """Receive every message published on a matching topic from now on."""
        subscription = Subscription(pattern, handler)
        with self._lock:
            self._subscriptions.append(subscription)
            self._routes = {}
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Deactivate; once this returns the handler sees no more messages."""
        with self._lock:
            subscription._active = False
            try:
                self._subscriptions.remove(subscription)
            except ValueError:
                pass
            self._routes = {}
        if threading.get_ident() != self._ident:
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
        ``ValueError`` if another request is already waiting on that topic,
        or if ``timeout`` is not in ``[0, threading.TIMEOUT_MAX]``.
        """
        if threading.get_ident() == self._ident:
            raise ReentrantDispatchError(
                "request_reply called from the bus dispatcher context"
            )
        if not 0 <= timeout <= threading.TIMEOUT_MAX:  # NaN too; -1 would wait forever
            raise ValueError(f"reply timeout must be in [0, TIMEOUT_MAX], got {timeout!r}")
        pending = _PendingReply()
        try:
            self._post(request_topic, payload, reply_topic, pending)
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
        # Either the waiter was released, or the entry was already gone:
        # publish pops an entry and fills it under _lock, so the reply is in.
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
            wake, self._idle = self._idle, False
        if wake:
            os.write(self._wake_write, b"\0")
        self._thread.join()
        self._close_pipe()

    def _close_pipe(self) -> None:
        os.close(self._wake_read)
        os.close(self._wake_write)

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
            with self._lock:
                # swapped even when empty: a publisher may append to
                # _queue as soon as the lock is released
                batch, self._queue = self._queue, []
                if not batch:
                    if self._closed:
                        self._ident = None  # a new thread may get this ident
                        return
                    self._idle = True
            if not batch:
                os.read(self._wake_read, 1)  # one byte: the publisher that cleared _idle
                continue
            for message, targets in batch:
                with self._delivery_lock:
                    if self._trace is not None:
                        try:
                            self._trace(
                                f"SEQ {message.publish_seq} {message.topic} "
                                f"{type(message.payload).__name__}"
                            )
                        except Exception:
                            log.exception("bus trace hook failed")
                    for subscription in targets:
                        if not subscription._active:
                            continue
                        try:
                            subscription.handler(message)
                        except Exception:
                            log.exception(
                                "subscriber raised while handling %s", message.topic
                            )
