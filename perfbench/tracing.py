"""Spans recorded from outside the program, and the per-layer numbers made from them.

Nothing under ``src/`` is edited.  The benchmark wraps, on one runtime's own
instances, ``ContextManager.snapshot_meta``, ``ConcreteValueStore.set``,
``MessageBus.request_reply`` and ``MessageBus.publish``; it passes a wrapping
decision maker in ``RunConfig.decision_maker`` and registers it by name for
per-object makers; it swaps ``validate_response`` as the interpreter module
imports it; and it wraps its own calls to ``tokenize``, ``parse`` and
``lower``.

A span is ``(name, start_ns, end_ns, parent, tick, request_id)``, kept in a
list owned by the thread that ran it (``decide`` runs on the bus thread in
event mode), with ``parent`` an index into the same list.  Spans stay in
memory until :meth:`Tracer.write` saves them at the end of the run.
"""

from __future__ import annotations

import gzip
import threading
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

import congo.interpreter as interpreter_module
from congo import ContextChanged, DecisionMaker, InvocationRequest

TICK = "interpreter.tick"
SNAPSHOT = "context.snapshot_meta"
STORE_SET = "context.store_set"
REQUEST_REPLY = "bus.request_reply"
PUBLISH_CONTEXT = "bus.publish"
PUBLISH_REQUEST = "bus.publish.request"
PUBLISH_REPLY = "bus.publish.reply"
DECIDE = "decision.decide"
VALIDATE = "decision.validate"
TOKENIZE = "lexer.tokenize"
PARSE = "parser.parse"
LOWER = "lowering.lower"


def _publish_name(args) -> str:
    payload = args[1]
    if isinstance(payload, ContextChanged):
        return PUBLISH_CONTEXT
    if isinstance(payload, InvocationRequest):
        return PUBLISH_REQUEST
    return PUBLISH_REPLY


class Tracer:
    def __init__(self) -> None:
        self.tick = -1
        self.threads: List[Tuple[str, list]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._validate = interpreter_module.validate_response
        self._traced_validate = self.wrap(VALIDATE, self._validate)

    def _register(self):
        buf: list = []
        stack: list = []
        self._local.buf, self._local.stack = buf, stack
        with self._lock:
            self.threads.append(
                (f"{threading.current_thread().name}:{threading.get_ident()}", buf))
        return buf, stack

    def wrap(self, name, fn, rid_arg: Optional[int] = None):
        """``fn`` recorded as a span; ``name`` may be a function of the args."""
        tracer = self
        local = self._local
        fixed = isinstance(name, str)

        def traced(*args, **kwargs):
            try:
                buf, stack = local.buf, local.stack
            except AttributeError:
                buf, stack = tracer._register()
            idx = len(buf)
            buf.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                rid = args[rid_arg].request_id if rid_arg is not None else None
                buf[idx] = (name if fixed else name(args), start, end, parent,
                            tracer.tick, rid)

        return traced

    def instrument(self, runtime) -> None:
        """Wrap the layers on one started runtime's own instances."""
        cm, store, bus = runtime.context_manager, runtime.store, runtime.bus
        cm.snapshot_meta = self.wrap(SNAPSHOT, cm.snapshot_meta)
        store.set = self.wrap(STORE_SET, store.set)
        bus.request_reply = self.wrap(REQUEST_REPLY, bus.request_reply, rid_arg=1)
        bus.publish = self.wrap(_publish_name, bus.publish)

    def validating(self, on: bool) -> None:
        """Swap the interpreter's ``validate_response`` for a traced one, or back."""
        interpreter_module.validate_response = self._traced_validate if on else self._validate

    def write(self, path) -> None:
        with gzip.open(path, "wt") as out:
            out.write("thread\tindex\tname\tstart_ns\tend_ns\tparent\ttick\trequest_id\n")
            for thread, buf in self.threads:
                for i, span in enumerate(buf):
                    if span is not None:
                        out.write(f"{thread}\t{i}\t" + "\t".join(map(str, span)) + "\n")


class TracingDecisionMaker(DecisionMaker):
    """Delegates to ``inner`` and records each ``decide`` as a span."""

    def __init__(self, inner: DecisionMaker, tracer: Tracer):
        self.inner = inner
        self.decide = tracer.wrap(DECIDE, inner.decide, rid_arg=0)

    def init(self, config) -> None:
        self.inner.init(config)

    def decide(self, request):  # replaced per instance in __init__
        return self.inner.decide(request)

    def train(self, feedback) -> None:
        self.inner.train(feedback)


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_stats(tracer: Tracer, windows: List[Tuple[str, int, int, float]],
                calls_per_tick: int) -> Dict[str, Dict[str, float]]:
    """Per-configuration layer numbers from the traced tick windows.

    ``windows`` holds ``(config, first_tick, end_tick, seconds)``.  A
    span's self time is its duration minus its children's on the same
    thread.  ``bus.handoff`` is ``request_reply`` minus the ``decide`` it
    carried (matched by tick and request id).  The stage sum adds every
    layer's self time and is compared with the window's wall time per tick,
    which the spans do not measure.
    """
    label_of: Dict[int, str] = {}
    wall: Dict[str, float] = {}
    for label, first, end, seconds in windows:
        for tick in range(first, end):
            label_of[tick] = label
        wall[label] = wall.get(label, 0.0) + seconds
    total: Dict[Tuple[str, str], int] = {}
    count: Dict[Tuple[str, str], int] = {}
    tick_us: Dict[str, List[float]] = {}
    carried: Dict[Tuple[int, int], int] = {}
    replies: List[Tuple[str, int, int, int]] = []
    for _, buf in tracer.threads:
        child = [0] * len(buf)
        for span in buf:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        for i, span in enumerate(buf):
            if span is None:
                continue
            name, start, end, _, tick, rid = span
            label = label_of.get(tick)
            if label is None:
                continue
            key = (label, name)
            total[key] = total.get(key, 0) + (end - start - child[i])
            count[key] = count.get(key, 0) + 1
            if name == TICK:
                tick_us.setdefault(label, []).append((end - start) / 1e3)
            elif name == DECIDE:
                carried[(tick, rid)] = end - start
            elif name == REQUEST_REPLY:
                replies.append((label, tick, rid, end - start))
    handoff: Dict[str, int] = {}
    rr_total: Dict[str, int] = {}
    for label, tick, rid, duration in replies:
        handoff[label] = handoff.get(label, 0) + duration - carried.get((tick, rid), 0)
        rr_total[label] = rr_total.get(label, 0) + duration

    out: Dict[str, Dict[str, float]] = {}
    for label, ticks_list in tick_us.items():
        ticks = len(ticks_list)

        def us(name: str) -> float:
            return total.get((label, name), 0) / 1e3 / ticks

        def per_tick(name: str) -> float:
            return count.get((label, name), 0) / ticks

        decides = count.get((label, DECIDE), 0)
        stats = {
            "bus.handoff.us": handoff.get(label, 0) / 1e3 / ticks,
            "bus.request_reply.us": rr_total.get(label, 0) / 1e3 / ticks,
            "bus.publish.us": us(PUBLISH_CONTEXT),
            "bus.publish.per_tick": per_tick(PUBLISH_CONTEXT),
            "context.snapshot_meta.us": us(SNAPSHOT),
            "context.snapshot_meta.per_tick": per_tick(SNAPSHOT),
            "context.store_set.us": us(STORE_SET),
            "decision.decide.us": us(DECIDE),
            "decision.decide.per_tick": per_tick(DECIDE),
            "decision.validate.us": us(VALIDATE),
            "interpreter.self.us_per_tick": us(TICK),
            "interpreter.guard_hit_ratio": 1.0 - decides / (ticks * calls_per_tick),
            "interpreter.tick_us_p99": _percentile(ticks_list, 0.99),
        }
        # event mode: decide and the reply publish sit inside request_reply,
        # whose own children are only the request publish
        stage_sum = (stats["interpreter.self.us_per_tick"] + stats["context.snapshot_meta.us"]
                     + stats["context.store_set.us"] + stats["bus.publish.us"]
                     + stats["decision.validate.us"] + stats["decision.decide.us"]
                     + stats["bus.handoff.us"])
        stats["trace.stage_sum_ratio"] = stage_sum / (wall[label] * 1e6 / ticks)
        out[label] = stats
    return out


def compile_stats(tracer: Tracer, tokens: int, decls: int) -> Dict[str, float]:
    """Front-end throughput from the traced compile spans (tick -1)."""
    busy = {TOKENIZE: 0, PARSE: 0, LOWER: 0}
    runs = {TOKENIZE: 0, PARSE: 0, LOWER: 0}
    for _, buf in tracer.threads:
        for span in buf:
            if span is not None and span[0] in busy:
                busy[span[0]] += span[2] - span[1]
                runs[span[0]] += 1
    return {
        "lexer.tokens_per_s": tokens * runs[TOKENIZE] / (busy[TOKENIZE] / 1e9),
        "parser.tokens_per_s": tokens * runs[PARSE] / (busy[PARSE] / 1e9),
        "lowering.decls_per_s": decls * runs[LOWER] / (busy[LOWER] / 1e9),
    }
