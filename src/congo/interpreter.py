"""Closure-compiled runtime: values, dynamic objects, and contextual dispatch.

Each lambda body is compiled once, on the lambda's first call, into nested
Python closures of the form ``fn(interp, frame)`` (Feeley & Lapalme, *Using
Closures for Code Generation*, Computer Languages 12(1), 1987) and cached on
the :class:`~congo.nodes.Lambda` node.  The compiler resolves every name
to frame slots (lexical addressing, Abelson & Sussman, *SICP* §5.5.6): a
call runs on a plain list ``[parent frame, chain, arguments, receiver,
parameters..., lets...]``, and only a block that declares a ``let`` gets a
frame of its own.  The three call-state slots are what ``proceed()`` reads:
the rest of the variant chain (None for a local lambda), the arguments a
bare ``proceed()`` re-sends, and the receiver.  A few common shapes are
superinstructions (Proebsting, *Optimizing an ANSI C Interpreter with
Superoperators*, POPL 1995): one closure reads an int literal or a
parameter operand inline instead of calling a closure for it.

A contextual call never selects its own variant chain.  The site
snapshots the meta context once, builds an :class:`InvocationRequest`,
and gets a reply from the shared decide step
(:func:`~congo.decision.decide_or_fail`), either over the bus (event
dispatch, the default) or by calling it directly (direct dispatch).
The two transports differ in nothing else: every reply is checked and
turned into an error in one place, and the returned chain executes
outermost-first with ``proceed()`` stepping inward.  Under the epoch guard
each call site keeps the chain it last ran, and the call closure itself
runs it again while the store epoch and the receiver are unchanged: a
per-site inline cache (Deutsch & Schiffman, *Efficient Implementation of
the Smalltalk-80 System*, POPL 1984).

No call pushes anything for error reporting.  A ConGo error collects the
``(name, call span)`` of each call it unwinds, and :meth:`Runtime.call`
turns that list into its ``call_stack``.

User programs are single-threaded; the interpreter thread and the bus
dispatcher are the only execution contexts.
"""

from __future__ import annotations

import itertools
import operator
import sys
import threading
import traceback
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import nodes
from .bus import DEFAULT_REPLY_TIMEOUT, MessageBus, Topic
from .context import (
    ConcreteValueStore,
    ContextChanged,
    ContextManager,
    is_number,
    is_scalar,
)
from .decision import (
    DecisionMaker,
    InvocationRequest,
    attach_decision_maker,
    context_changed_topic,
    create_decision_maker,
    decide_or_fail,
    reply_topic_for,
    request_topic_for,
    validate_response,
)
from .errors import (
    CallArityError,
    CongoRuntimeError,
    CongoTypeError,
    ContextEvaluationError,
    DecisionTimeoutError,
    DivisionByZeroError,
    MissingBaseError,
    ProceedExhaustedError,
    RedefinitionError,
    StackOverflowError,
    UnknownContextError,
    UnknownFunctionError,
    UnknownMethodError,
    UnknownVariableError,
)
from .lowering import LoweredModule, Variant, VariantTable, add_variant

_new = tuple.__new__  # builds a request or a ContextChanged with no Python-level call


class DispatchMode(Enum):
    EVENT = "event"
    DIRECT = "direct"


class CachePolicy(Enum):
    NONE = "none"
    EPOCH_GUARD = "guard"


@dataclass
class RunConfig:
    dispatch_mode: DispatchMode = DispatchMode.EVENT
    cache_policy: CachePolicy = CachePolicy.NONE
    decision_maker: Union[str, DecisionMaker] = "default"
    # seconds an event-mode call waits for its reply; in [0, TIMEOUT_MAX]
    decision_timeout: float = DEFAULT_REPLY_TIMEOUT
    # (context, key, value) triples applied to the store before the run
    initial_values: Tuple = ()
    trace: Optional[Callable[[str], None]] = None
    println: Optional[Callable[[str], None]] = None


# --- values -----------------------------------------------------------------


@dataclass(eq=False)
class FunctionValue:
    body: nodes.Lambda
    closure_frame: list  # the frame the lambda closes over
    name = "<lambda>"  # not a field: every local function has this name


@dataclass(eq=False)
class DecisionMakerValue:
    name: str
    dm: DecisionMaker


_OBJECT_IDS = itertools.count(1)


class DynObject:
    """Dynamic object: per-object method variant tables and properties."""

    __slots__ = ("identity", "methods", "decision_maker", "contexts_override",
                 "properties", "version")

    def __init__(self) -> None:
        self.identity = next(_OBJECT_IDS)
        self.methods: Dict[str, VariantTable] = {}
        self.decision_maker: Optional[DecisionMaker] = None
        self.contexts_override: Optional[Tuple[str, ...]] = None
        self.properties: Dict[str, object] = {}
        # bumped on define/decisionmaker/contexts so cached chains go stale
        self.version = 0


Value = Union[int, float, str, bool, None, FunctionValue, DynObject, DecisionMakerValue]


def stringify(value: Value, span) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, float)):
        try:
            return str(value)
        except ValueError:  # past Python's int-to-text digit limit
            raise CongoRuntimeError(
                f"integer has more than {sys.get_int_max_str_digits()} digits to print",
                span,
            ) from None
    if isinstance(value, str):
        return value
    if isinstance(value, FunctionValue):
        return f"<function {value.name}>"
    if isinstance(value, DynObject):
        return f"<object {value.identity}>"
    if isinstance(value, DecisionMakerValue):
        return f"<decision-maker {value.name}>"
    return str(value)


# --- operators ----------------------------------------------------------------


def _values_equal(left: Value, right: Value) -> bool:
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool) and left == right
    if is_number(left) and is_number(right):
        return left == right
    if type(left) is not type(right):
        return False
    if isinstance(left, (DynObject, FunctionValue, DecisionMakerValue)):
        return left is right
    return left == right


_ARITHMETIC = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": operator.mod,
}
_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _apply_binary(op: str, left: Value, right: Value, span) -> Value:
    if op == "==":
        return _values_equal(left, right)
    if op == "!=":
        return not _values_equal(left, right)
    if op in _ARITHMETIC:
        if op == "+" and (isinstance(left, str) or isinstance(right, str)):
            return stringify(left, span) + stringify(right, span)
        if not (is_number(left) and is_number(right)):
            if op == "+":
                raise CongoTypeError(
                    f"cannot add {type(left).__name__} and {type(right).__name__}", span
                )
            raise CongoTypeError(
                f"'{op}' needs numeric operands, got "
                f"{stringify(left, span)!r} and {stringify(right, span)!r}", span
            )
        if op in ("/", "%") and right == 0:
            raise DivisionByZeroError(
                "division by zero" if op == "/" else "modulo by zero", span
            )
        if op == "/" and isinstance(left, int) and isinstance(right, int):
            return left // right
        try:
            return _ARITHMETIC[op](left, right)
        except OverflowError:  # an int operand too large to become a float
            raise CongoRuntimeError(
                f"integer operand of '{op}' is too large to mix with a float", span
            ) from None
    if op in _ORDERINGS:
        both_numbers = is_number(left) and is_number(right)
        both_strings = isinstance(left, str) and isinstance(right, str)
        if not (both_numbers or both_strings):
            raise CongoTypeError(f"'{op}' needs two numbers or two strings", span)
        return _ORDERINGS[op](left, right)
    raise CongoRuntimeError(f"unknown operator '{op}'", span)


def _not_bool(what: str, value: Value, span) -> CongoTypeError:
    return CongoTypeError(f"{what} must be a boolean, got {stringify(value, span)!r}", span)


class Runtime:
    """One started module: the interpreter and what its calls dispatch through.

    :meth:`start` builds the module's store, context manager, bus and
    decision maker; :meth:`call` runs a module function from the host.
    Every call reads ``store``, ``context_manager`` and ``bus`` from the
    instance, so a tool may wrap their methods once the runtime is started.
    """

    def __init__(self, lowered: LoweredModule, config: Optional[RunConfig] = None):
        self._lowered = lowered
        self._tables = lowered.tables
        self._config = config = config or RunConfig()
        # the bus's own rule, checked here so that direct mode rejects it too
        if not 0 <= config.decision_timeout <= threading.TIMEOUT_MAX:  # NaN too
            raise ValueError(
                f"decision_timeout must be in [0, TIMEOUT_MAX], got {config.decision_timeout!r}"
            )
        self._guard = config.cache_policy is CachePolicy.EPOCH_GUARD
        self._event = config.dispatch_mode is DispatchMode.EVENT
        self._println = config.println or (lambda text: print(text))
        self._started = False
        self.store: Optional[ConcreteValueStore] = None
        self.context_manager: Optional[ContextManager] = None
        self.bus: Optional[MessageBus] = None
        self.global_dm: Optional[DecisionMaker] = None

    def start(self) -> "Runtime":
        if self._started:
            return self
        config = self._config
        self.store = ConcreteValueStore()
        self.context_manager = ContextManager(self.store, self._lowered.context_ctors)
        for context, key, value in config.initial_values:
            self.store.set(context, key, value)
        self.bus = MessageBus(trace=config.trace)
        try:
            if isinstance(config.decision_maker, DecisionMaker):
                dm = config.decision_maker
            else:
                dm = create_decision_maker(config.decision_maker)
            dm.init({"store": self.store, "module": self._lowered.name})
            self.global_dm = dm
            if self._event:
                attach_decision_maker(self.bus, dm)
        except BaseException:
            self.bus.shutdown()
            raise
        # The epoch guard's memory, keyed by the site id of the call node,
        # or by function name for calls from the host.  Each entry is what
        # the last decision there needs to run again: (store epoch, receiver
        # identity, receiver version, the first variant, the rest of the
        # chain); a function has no receiver, so None for both.
        self._sites: Dict[Union[int, str], Tuple] = {}
        self._request_ids = itertools.count(1)
        self._request_topic = request_topic_for(self._lowered.name)
        self._changed_topics: Dict[str, Topic] = {}  # context -> its changed topic
        self._started = True
        return self

    def call(self, name: str, args: Sequence[Value] = ()) -> Value:
        if not self._started:
            raise RuntimeError("Runtime.call before start()")
        table = self._tables.get(name)
        if table is None:
            raise UnknownFunctionError(
                f"unknown function '{name}' in module '{self._lowered.name}'"
            )
        span, args = (table.base or table.layers[0]).body.span, tuple(args)
        try:  # the same three paths as a call site, keyed by the function's name
            if not table.layers:
                return self._invoke(table.base, span, (), args, None)
            if self._guard:
                hit = self._sites.get(name)
                if hit is not None and hit[0] == self.store.epoch:
                    return self._invoke(hit[3], span, hit[4], args, None)
            return self._dispatch(table, None, args, span, name)
        except CongoRuntimeError as exc:
            if exc.unwound:
                exc.call_stack = tuple(reversed(exc.unwound))
            raise

    def shutdown(self) -> None:
        if self.bus is not None:
            self.bus.shutdown()
        self._started = False

    def __enter__(self) -> "Runtime":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # --- dynamic object builtins -------------------------------------------------

    def _obj_define(self, obj: DynObject, args: Tuple, span) -> Value:
        if len(args) != 2 or not isinstance(args[0], str) \
                or not isinstance(args[1], FunctionValue):
            raise CongoTypeError("define expects (name, lambda)", span)
        name, fn = args
        if name in self._OBJECT_BUILTINS:
            raise RedefinitionError(f"'{name}' is a reserved method name", span)
        table = obj.methods.get(name) or VariantTable(name)
        add_variant(
            table,
            fn.body,
            declared_contexts=self._lowered.context_ctors,
            closure_frame=fn.closure_frame,
            span=span,
        )
        obj.methods[name] = table  # only once it holds a variant
        obj.version += 1
        return obj

    def _obj_decisionmaker(self, obj: DynObject, args: Tuple, span) -> Value:
        if len(args) != 1 or not isinstance(args[0], DecisionMakerValue):
            raise CongoTypeError(
                "decisionmaker expects one decisionMaker(...) value", span
            )
        obj.decision_maker = args[0].dm
        obj.version += 1
        return obj

    def _obj_contexts(self, obj: DynObject, args: Tuple, span) -> Value:
        if not args or not all(isinstance(a, str) for a in args):
            raise CongoTypeError("contexts expects one or more context names", span)
        for name in args:
            if name not in self._lowered.context_ctors:
                raise UnknownContextError(
                    f"context '{name}' is not declared by module "
                    f"'{self._lowered.name}'",
                    span,
                )
        obj.contexts_override = tuple(args)
        obj.version += 1
        return obj

    _OBJECT_BUILTINS = {
        "define": _obj_define,
        "decisionmaker": _obj_decisionmaker,
        "contexts": _obj_contexts,
    }

    # --- contextual dispatch ------------------------------------------------------

    def _dispatch(
        self,
        table: VariantTable,
        receiver: Optional[DynObject],
        args: Tuple,
        span,
        site_key: Union[int, str],
    ) -> Value:
        """Decide, check and run the chain of a call to a layered table that
        the epoch guard did not answer; under the guard, remember it."""
        data = table.dispatch or table.dispatch_data()
        if data.missing_base is not None:
            raise MissingBaseError(
                f"method '{table.function_name}' has a before/after layer "
                "but no base variant to proceed to",
                span,
            )
        identity = version = None
        dm, only = self.global_dm, None
        if receiver is not None:
            identity, version = receiver.identity, receiver.version
            only = receiver.contexts_override
            if receiver.decision_maker is not None:
                dm = receiver.decision_maker
        try:
            snapshot, epoch = self.context_manager.snapshot_meta(only)
            request_id = next(self._request_ids)
            event = self._event
            request = _new(InvocationRequest, (
                request_id,
                self._lowered.name,
                table.function_name,
                data.arity,
                data.specs,
                identity,
                snapshot,
                epoch,
                reply_topic_for(request_id) if event else None,
                dm,
            ))
            if event:
                reply = self.bus.request_reply(
                    self._request_topic,
                    request,
                    request.reply_topic,
                    timeout=self._config.decision_timeout,
                )
            else:
                reply = decide_or_fail(dm, request)
        except (ContextEvaluationError, DecisionTimeoutError) as exc:
            if exc.span is None:
                exc.span = span
            raise
        chain = validate_response(request, reply, span, data)
        first, rest = chain[0], chain[1:]
        if self._guard:
            self._sites[site_key] = (epoch, identity, version, first, rest)
        return self._invoke(first, span, rest, args, receiver)

    def _invoke(
        self,
        callee: Union[Variant, FunctionValue],
        span,
        remaining: Optional[Tuple[Variant, ...]],  # None for a local lambda
        args: Tuple,
        receiver: Optional[DynObject],
    ) -> Value:
        """Run one ConGo body: a variant, whose ``remaining`` chain proceed()
        steps into, or a local lambda.  The callee's ``closure_frame`` is the
        frame its body closes over, None at module level.  A method's
        receiver is its first parameter.  An error that leaves the body
        records the callee's ``name`` and ``span``, the call it unwinds."""
        lam = callee.body
        if receiver is None:
            frame = [callee.closure_frame, remaining, args, None, *args]
        else:
            frame = [callee.closure_frame, remaining, args, receiver, receiver, *args]
        if len(frame) != lam.frame_size:
            raise CallArityError(
                f"'{callee.name}' expects {len(lam.params)} argument(s), "
                f"got {len(args) + (receiver is not None)}",
                span,
            )
        try:
            code = lam.code
            if code is None:  # first call: compile once, for every runtime
                code = lam.code = _compile_lambda(lam)
            return code(self, frame)
        except CongoRuntimeError as exc:
            exc.unwound.append((callee.name, span))
            raise
        except RecursionError:
            # Count the nested calls only now: the _invoke frames on the
            # stack.  Should this overflow too, the RecursionError reaches
            # the caller's _invoke, a few frames up, which retries.
            here = sys._getframe()
            calls, invoke = 0, here.f_code
            while here is not None:
                calls += here.f_code is invoke
                here = here.f_back
            error = StackOverflowError(f"stack exhausted after {calls} nested calls", span)
            error.unwound.append((callee.name, span))
            raise error from None

    # --- builtin functions --------------------------------------------------------

    def _builtin_println(self, args: Tuple, span) -> Value:
        if len(args) != 1:
            raise CallArityError("println expects 1 argument", span)
        self._println(stringify(args[0], span))
        return None

    def _builtin_dynamic_object(self, args: Tuple, span) -> Value:
        if args:
            raise CallArityError("DynamicObject expects no arguments", span)
        return DynObject()

    def _builtin_set_concrete(self, args: Tuple, span) -> Value:
        if len(args) != 3:
            raise CallArityError("setConcrete expects (context, key, value)", span)
        context, key, value = args
        if not isinstance(context, str) or not isinstance(key, str):
            raise CongoTypeError("setConcrete context and key must be strings", span)
        if not is_scalar(value):
            raise CongoTypeError(
                "setConcrete value must be a boolean, number, or string", span
            )
        topic = self._changed_topics.get(context)
        if topic is None:
            try:
                topic = context_changed_topic(context)
            except ValueError:
                raise CongoTypeError(
                    f"setConcrete context name {context!r} cannot name a bus topic", span
                ) from None
            self._changed_topics[context] = topic
        epoch = self.store.set(context, key, value)
        self.bus.publish(topic, _new(ContextChanged, (context, key, value, epoch)))
        return None

    def _builtin_current_meta(self, args: Tuple, span) -> Value:
        if len(args) != 1 or not isinstance(args[0], str):
            raise CallArityError("currentMeta expects one context name", span)
        try:
            snapshot, _ = self.context_manager.snapshot_meta()
        except ContextEvaluationError as exc:
            if exc.span is None:
                exc.span = span
            raise
        metas = snapshot.get(args[0])
        if metas is None:
            raise UnknownContextError(
                f"context '{args[0]}' is not registered for module "
                f"'{self._lowered.name}'",
                span,
            )
        return ",".join(sorted(metas))

    def _builtin_decision_maker(self, args: Tuple, span) -> Value:
        if len(args) != 1 or not isinstance(args[0], str):
            raise CallArityError("decisionMaker expects one registered name", span)
        dm = create_decision_maker(args[0])
        dm.init({"store": self.store, "module": self._lowered.name})
        return DecisionMakerValue(args[0], dm)

    _BUILTINS = {
        "println": _builtin_println,
        "DynamicObject": _builtin_dynamic_object,
        "setConcrete": _builtin_set_concrete,
        "currentMeta": _builtin_current_meta,
        "decisionMaker": _builtin_decision_maker,
    }


# --- closure compiler ------------------------------------------------------------
#
# Every closure takes (interp, frame), interp being the started Runtime and
# frame the innermost run-time frame, a list [parent frame, slots...].  It
# captures only AST field values, slot addresses and other closures, never a
# runtime, store, bus or frame: tables and lambdas are shared by every
# runtime built from one LoweredModule.  An expression closure returns its
# value.  A statement closure returns _NEXT to fall through to the next
# statement, or the value of a ``return``.
#
# A call's frame holds three slots of call state, then the parameters and the
# lets of the body's top block: [parent, chain, arguments, receiver, ...].
# proceed() walks from its own frame up to its call's, a depth known at
# compile time, reads the call state there and evaluates its arguments in
# its own frame.  Any other block that declares a let gets a fresh frame
# each time it runs, so the closures of a loop iteration capture that
# iteration.  A let slot holds _UNBOUND until its let runs.  A name resolves
# to the slot of every enclosing frame that declares it, innermost first,
# and the first bound one is the binding: a let shadows only once it has run.
#
# No frame records its caller for error reports.  An error collects its
# ConGo call stack as it unwinds each _invoke, and Runtime.call reverses it.
#
# Fused shapes, each kept because it saves at least three Python calls per
# tick of the perfbench program: ``e op 3`` and ``x op 3`` for the int
# operators, and for '/' and '%' by a nonzero literal, where x is a parameter
# of this frame and e any other expression; and a call's only argument
# ``f(x)``.  A fused closure reads its literal or parameter inline.  Two ints
# take the operator function directly; every other operand, whatever its
# type, goes to _apply_binary, which owns each type error, zero divisor and
# overflow and its span.

_NEXT = object()
_UNBOUND = object()


class _Scope:
    """The compile-time view of one frame: the slot index of each name in it."""

    __slots__ = ("parent", "slots", "params", "padding", "call")

    def __init__(self, parent: Optional["_Scope"], params: Sequence[str],
                 lets: Sequence[str], call: bool = False):
        self.parent = parent
        self.call = call  # a call's frame, which holds call state
        first = nodes.CALL_FRAME_HEADER if call else 1
        self.slots = {name: i for i, name in enumerate(params, first)}
        self.params = first - 1 + len(params)  # slots up to here are bound on entry
        for name in lets:
            self.slots.setdefault(name, len(self.slots) + first)
        self.padding = (_UNBOUND,) * (len(self.slots) - len(params))

    def resolve(self, name: str) -> Tuple[Tuple[int, int], ...]:
        """The (frame depth, slot index) of each slot that may bind ``name``."""
        found, scope, depth = [], self, 0
        while scope is not None:
            index = scope.slots.get(name)
            if index is not None:
                found.append((depth, index))
                if index <= scope.params:
                    break  # a parameter is always bound
            scope, depth = scope.parent, depth + 1
        return tuple(found)


def _lets(stmts: Sequence[nodes.Stmt]) -> List[str]:
    """The names a block's lets bind, in order.  ``$base``, bound only by an
    after layer's rewrite, goes last: the statements the rewrite wraps keep
    the slots they have in the lambda it wraps, so a lambda nested in them
    compiles the same under either."""
    names = [stmt.name for stmt in stmts if type(stmt) is nodes.LetStmt]
    return sorted(names, key=lambda name: name.startswith("$"))


def _find(frame: list, found: Tuple[Tuple[int, int], ...]):
    """The frame and index of the first bound slot in ``found``, or None."""
    depth = 0
    for at, index in found:
        while depth < at:
            frame, depth = frame[0], depth + 1
        if frame[index] is not _UNBOUND:
            return frame, index
    return None


def _compile_lambda(lam: nodes.Lambda) -> Callable:
    """Compile ``lam``'s body; a body nested too deep is a StackOverflowError."""
    try:
        return _compile_body(lam)
    except RecursionError as exc:
        # The compiler recurses once per nesting level.  Unless it used most of
        # the stack itself, the calls that led here did: _invoke reports those.
        compiler_frames = sum(1 for _ in traceback.walk_tb(exc.__traceback__))
        if compiler_frames < sys.getrecursionlimit() // 2:
            raise
    raise StackOverflowError("block nesting too deep to compile", lam.span)


def _compile_body(lam: nodes.Lambda) -> Callable:
    """The closure that runs a lambda body in the call's frame."""
    body = lam.body
    if not isinstance(body, nodes.Block):
        return _compile(body, _Scope(lam.outer, lam.params, (), call=True))
    scope = _Scope(lam.outer, lam.params, _lets(body.stmts), call=True)
    stmts = tuple(_compile(stmt, scope) for stmt in body.stmts)
    padding = scope.padding

    def run_body(interp, frame):
        if padding:
            frame += padding
        for stmt in stmts:
            result = stmt(interp, frame)
            if result is not _NEXT:
                return result
        return None

    return run_body


def _compile(node, scope: _Scope) -> Callable:
    return _COMPILERS[type(node)](node, scope)


def _compile_constant(expr, scope: _Scope) -> Callable:
    value = expr.value
    return lambda interp, frame: value


def _compile_null(expr: nodes.NullLit, scope: _Scope) -> Callable:
    return lambda interp, frame: None


def _param_slot(expr, scope: _Scope) -> Optional[int]:
    """The slot of ``expr`` if it names a parameter of the innermost frame."""
    if type(expr) is nodes.Ident:
        found = scope.resolve(expr.name)
        if found and found[0][0] == 0 and found[0][1] <= scope.params:
            return found[0][1]
    return None


def _compile_ident(expr: nodes.Ident, scope: _Scope) -> Callable:
    name, span = expr.name, expr.span
    index = _param_slot(expr, scope)
    if index is not None:
        return lambda interp, frame: frame[index]
    found = scope.resolve(name)
    if len(found) == 1 and found[0][0] <= 1:  # a slot of this frame or its parent
        depth, index = found[0]

        def slot(interp, frame):
            value = (frame[0] if depth else frame)[index]
            if value is _UNBOUND:
                raise UnknownVariableError(f"unknown variable '{name}'", span)
            return value

        return slot

    def ident(interp, frame):
        hit = _find(frame, found)
        if hit is None:
            raise UnknownVariableError(f"unknown variable '{name}'", span)
        return hit[0][hit[1]]

    return ident


def _compile_lambda_value(expr: nodes.Lambda, scope: _Scope) -> Callable:
    expr.outer = scope
    return lambda interp, frame: FunctionValue(expr, frame)


# Two ints take these directly: Python's result is ConGo's.  Any other
# operands, bools included, and '/' or '%' by zero get _apply_binary's checks.
_INT_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "==": operator.eq, "!=": operator.ne, **_ORDERINGS,
}
_INT_DIVISIONS = {"/": operator.floordiv, "%": operator.mod}


def _compile_binary(expr: nodes.BinaryOp, scope: _Scope) -> Callable:
    op, span = expr.op, expr.span
    k = expr.right.value if type(expr.right) is nodes.IntLit else None
    fast = _INT_OPS.get(op)
    if k and fast is None:  # '/' or '%' by a nonzero literal never divides by zero
        fast = _INT_DIVISIONS.get(op)
    if k is not None and fast is not None:
        i = _param_slot(expr.left, scope)
        if i is not None:  # x op 3
            def run(interp, frame):
                a = frame[i]
                if type(a) is int:
                    return fast(a, k)
                return _apply_binary(op, a, k, span)
            return run
        left = _compile(expr.left, scope)

        def run(interp, frame):  # any expression op 3
            a = left(interp, frame)
            if type(a) is int:
                return fast(a, k)
            return _apply_binary(op, a, k, span)
        return run
    left, right = _compile(expr.left, scope), _compile(expr.right, scope)
    if op == "&&" or op == "||":
        settles = op == "||"  # the left value that is the result on its own

        def run(interp, frame):
            a = left(interp, frame)
            if a is not True and a is not False:
                raise _not_bool(f"left operand of '{op}'", a, span)
            if a is settles:
                return a
            b = right(interp, frame)
            if b is True or b is False:
                return b
            raise _not_bool(f"right operand of '{op}'", b, span)
    elif fast is not None:
        def run(interp, frame):
            a, b = left(interp, frame), right(interp, frame)
            if type(a) is int and type(b) is int:
                return fast(a, b)
            return _apply_binary(op, a, b, span)
    elif op in _INT_DIVISIONS:
        divide = _INT_DIVISIONS[op]

        def run(interp, frame):
            a, b = left(interp, frame), right(interp, frame)
            if type(a) is int and type(b) is int and b:
                return divide(a, b)
            return _apply_binary(op, a, b, span)
    else:
        def run(interp, frame):
            return _apply_binary(op, left(interp, frame), right(interp, frame), span)
    return run


def _compile_unary(expr: nodes.UnaryOp, scope: _Scope) -> Callable:
    operand, span = _compile(expr.operand, scope), expr.span
    if expr.op == "-":
        def negate(interp, frame):
            value = operand(interp, frame)
            if is_number(value):
                return -value
            raise CongoTypeError("unary '-' needs a number", span)

        return negate

    def not_(interp, frame):
        value = operand(interp, frame)
        if value is True or value is False:
            return not value
        raise _not_bool("operand of 'not'", value, span)

    return not_


def _compile_args(exprs: Tuple[nodes.Expr, ...], scope: _Scope) -> Callable:
    """A closure that evaluates the arguments left to right into a tuple."""
    if len(exprs) == 1:
        i = _param_slot(exprs[0], scope)
        if i is not None:  # f(x)
            return lambda interp, frame: (frame[i],)
    fns = tuple(_compile(e, scope) for e in exprs)
    if not fns:
        return lambda interp, frame: ()
    if len(fns) == 1:
        (only,) = fns
        return lambda interp, frame: (only(interp, frame),)
    if len(fns) == 2:
        first, second = fns
        return lambda interp, frame: (first(interp, frame), second(interp, frame))
    return lambda interp, frame: tuple([fn(interp, frame) for fn in fns])


def _compile_call(expr: nodes.Call, scope: _Scope) -> Callable:
    name, span, site = expr.callee, expr.span, expr.site_id
    args = _compile_args(expr.args, scope)
    found = scope.resolve(name)

    # the module's function: its base if it has no layers, else the chain the
    # guard remembers at this site, else a decision; then a builtin
    def call(interp, frame):
        table = interp._tables.get(name)
        if table is not None:
            values = args(interp, frame)
            if not table.layers:
                return interp._invoke(table.base, span, (), values, None)
            if interp._guard:
                hit = interp._sites.get(site)
                if hit is not None and hit[0] == interp.store.epoch:
                    return interp._invoke(hit[3], span, hit[4], values, None)
            return interp._dispatch(table, None, values, span, site)
        builtin = interp._BUILTINS.get(name)
        if builtin is not None:
            return builtin(interp, args(interp, frame), span)
        raise UnknownFunctionError(f"unknown function '{name}'", span)

    if not found:
        return call

    # a bound local first; one slot of this frame or its parent is read inline
    depth, index = found[0]
    inline = len(found) == 1 and depth <= 1

    def local_call(interp, frame):
        if inline:
            fn = (frame[0] if depth else frame)[index]
        else:
            hit = _find(frame, found)
            fn = _UNBOUND if hit is None else hit[0][hit[1]]
        if fn is _UNBOUND:
            return call(interp, frame)
        if not isinstance(fn, FunctionValue):
            raise CongoTypeError(f"'{name}' is not callable", span)
        return interp._invoke(fn, span, None, args(interp, frame), None)

    return local_call


def _compile_method(expr: nodes.MethodCall, scope: _Scope) -> Callable:
    name, span, site = expr.name, expr.span, expr.site_id
    receiver_of, args = _compile(expr.receiver, scope), _compile_args(expr.args, scope)
    builtin = Runtime._OBJECT_BUILTINS.get(name)

    def method(interp, frame):
        receiver, values = receiver_of(interp, frame), args(interp, frame)
        if not isinstance(receiver, DynObject):
            raise CongoTypeError(
                f"method call '{name}' on non-object value {stringify(receiver, span)!r}",
                span,
            )
        if builtin is not None:
            return builtin(interp, receiver, values, span)
        table = receiver.methods.get(name)
        if table is not None:  # the same three paths as a function call
            if not table.layers:
                return interp._invoke(table.base, span, (), values, receiver)
            if interp._guard:
                hit = interp._sites.get(site)
                if hit is not None and hit[0] == interp.store.epoch \
                        and hit[1] == receiver.identity and hit[2] == receiver.version:
                    return interp._invoke(hit[3], span, hit[4], values, receiver)
            return interp._dispatch(table, receiver, values, span, site)
        # dynamic property access: zero args reads, one arg writes
        if not values:
            if name in receiver.properties:
                return receiver.properties[name]
            raise UnknownMethodError(
                f"object has no method or property '{name}'", span
            )
        if len(values) == 1:
            receiver.properties[name] = values[0]
            return receiver
        raise UnknownMethodError(f"object has no method '{name}'", span)

    return method


def _compile_proceed(expr: nodes.Proceed, scope: _Scope) -> Callable:
    span = expr.span
    args = _compile_args(expr.args, scope) if expr.args else None
    hops = 0  # the block frames between this one and the call's
    while not scope.call:
        scope, hops = scope.parent, hops + 1

    def proceed(interp, frame):
        call = frame
        if hops:
            for _ in range(hops):
                call = call[0]
        remaining = call[1]
        if remaining is None:
            raise ProceedExhaustedError(
                "proceed called outside a layered dispatch", span
            )
        if not remaining:
            raise ProceedExhaustedError(
                "proceed called but the variant chain is exhausted", span
            )
        sent = call[2] if args is None else args(interp, frame)
        return interp._invoke(remaining[0], span, remaining[1:], sent, call[3])

    return proceed


def _compile_let(stmt: nodes.LetStmt, scope: _Scope) -> Callable:
    # a let binds a slot of the frame its own block runs in
    index, value = scope.slots[stmt.name], _compile(stmt.value, scope)

    def let(interp, frame):
        frame[index] = value(interp, frame)
        return _NEXT

    return let


def _compile_assign(stmt: nodes.AssignStmt, scope: _Scope) -> Callable:
    name, value, span = stmt.name, _compile(stmt.value, scope), stmt.span
    found = scope.resolve(name)
    if len(found) == 1 and found[0][0] <= 1:
        depth, index = found[0]

        def assign_slot(interp, frame):
            result = value(interp, frame)
            if depth:
                frame = frame[0]
            if frame[index] is _UNBOUND:
                raise UnknownVariableError(
                    f"assignment to undefined variable '{name}'", span
                )
            frame[index] = result
            return _NEXT

        return assign_slot

    def assign(interp, frame):
        result = value(interp, frame)
        hit = _find(frame, found)
        if hit is None:
            raise UnknownVariableError(
                f"assignment to undefined variable '{name}'", span
            )
        hit[0][hit[1]] = result
        return _NEXT

    return assign


def _compile_return(stmt: nodes.ReturnStmt, scope: _Scope) -> Callable:
    # an expression closure never returns _NEXT, so it is the statement
    if stmt.value is None:
        return lambda interp, frame: None
    return _compile(stmt.value, scope)


def _compile_if(stmt: nodes.IfStmt, scope: _Scope) -> Callable:
    cond, then, span = _compile(stmt.cond, scope), _compile(stmt.then, scope), stmt.span
    # an else-if runs in this scope; an else block opens its own
    orelse = _compile(stmt.orelse, scope) if stmt.orelse is not None else None

    def if_(interp, frame):
        test = cond(interp, frame)
        if test is True:
            return then(interp, frame)
        if test is not False:
            raise _not_bool("if condition", test, span)
        return _NEXT if orelse is None else orelse(interp, frame)

    return if_


def _compile_while(stmt: nodes.WhileStmt, scope: _Scope) -> Callable:
    cond, body, span = _compile(stmt.cond, scope), _compile(stmt.body, scope), stmt.span

    def while_(interp, frame):
        while True:
            test = cond(interp, frame)
            if test is not True:
                if test is False:
                    return _NEXT
                raise _not_bool("while condition", test, span)
            result = body(interp, frame)
            if result is not _NEXT:
                return result

    return while_


def _compile_expr_stmt(stmt: nodes.ExprStmt, scope: _Scope) -> Callable:
    expr = _compile(stmt.expr, scope)

    def expr_stmt(interp, frame):
        expr(interp, frame)
        return _NEXT

    return expr_stmt


def _compile_block(block: nodes.Block, scope: _Scope) -> Callable:
    # a block without lets runs in the enclosing frame
    lets = _lets(block.stmts)
    if lets:
        scope = _Scope(scope, (), lets)
    padding = scope.padding if lets else ()
    stmts = tuple(_compile(stmt, scope) for stmt in block.stmts)

    def run_block(interp, frame):
        if padding:
            frame = [frame, *padding]
        for stmt in stmts:
            result = stmt(interp, frame)
            if result is not _NEXT:
                return result
        return _NEXT

    return run_block


_COMPILERS = {
    nodes.IntLit: _compile_constant,
    nodes.FloatLit: _compile_constant,
    nodes.StringLit: _compile_constant,
    nodes.BoolLit: _compile_constant,
    nodes.NullLit: _compile_null,
    nodes.Ident: _compile_ident,
    nodes.BinaryOp: _compile_binary,
    nodes.UnaryOp: _compile_unary,
    nodes.Call: _compile_call,
    nodes.MethodCall: _compile_method,
    nodes.Proceed: _compile_proceed,
    nodes.Lambda: _compile_lambda_value,
    nodes.LetStmt: _compile_let,
    nodes.AssignStmt: _compile_assign,
    nodes.ReturnStmt: _compile_return,
    nodes.IfStmt: _compile_if,
    nodes.WhileStmt: _compile_while,
    nodes.ExprStmt: _compile_expr_stmt,
    nodes.Block: _compile_block,
}


def run(
    lowered: LoweredModule,
    entry: str = "main",
    args: Sequence[Value] = (),
    config: Optional[RunConfig] = None,
) -> Value:
    """Start a runtime, evaluate ``entry``, and shut the bus down."""
    with Runtime(lowered, config) as runtime:
        return runtime.call(entry, args)
