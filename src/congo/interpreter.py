"""Runtime and code generator: values, dynamic objects, and contextual dispatch.

Each lambda body is compiled once, on the lambda's first call, and cached
on the :class:`~congo.nodes.Lambda` node: the generator writes it as the
Python source of one function, with every expression flattened into
local temporaries, and compiles that source with ``compile()`` (dynamic
translation, Deutsch & Schiffman, *Efficient Implementation of the
Smalltalk-80 System*, POPL 1984).  No ConGo text enters the source: every
literal, name, span and node is a constant the function reads from its
closure, so bodies of one shape share one source, and a module-level cache
keyed by that source lets them share one ``compile()`` and one code object.
The cache is emptied when it holds ``_MAX_CODES`` sources.  The generator
resolves every name to frame slots (lexical addressing, Abelson & Sussman,
*SICP* §5.5.6): a call runs on a plain list ``[parent frame, chain,
arguments, receiver, parameters..., lets...]``, and only a block that
declares a ``let`` gets a frame of its own.  The three call-state slots are
what ``proceed()`` reads: the rest of the variant chain (None for a local
lambda), the arguments a bare ``proceed()`` re-sends, and the receiver.

A contextual call never selects its own variant chain.  The site
snapshots the meta context once, builds an :class:`InvocationRequest`,
and gets a reply from the shared decide step
(:func:`~congo.decision.decide_or_fail`), either over the bus (event
dispatch, the default) or by calling it directly (direct dispatch).
The two transports differ in nothing else: every reply is checked and
turned into an error in one place, and the returned chain executes
outermost-first with ``proceed()`` stepping inward.  Under the epoch guard
each call site keeps the chain it last ran, and the site's generated code
runs it again while the store epoch and the receiver's version are
unchanged: a per-site inline cache (Deutsch & Schiffman, as above).  No two
objects, and no two states of one object, share a version.

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
_VERSIONS = itertools.count(1)  # shared by all objects: no two states get one version


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
        self.version = next(_VERSIONS)


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
        if isinstance(config.decision_maker, DecisionMaker):
            dm = config.decision_maker
        else:
            dm = create_decision_maker(config.decision_maker)
        self.global_dm = dm
        self.store = ConcreteValueStore(config.initial_values)
        self.context_manager = ContextManager(self.store, self._lowered.context_ctors)
        self.bus = MessageBus(trace=config.trace)
        if self._event:
            attach_decision_maker(self.bus, dm)
        # The epoch guard's memory, keyed by the site id of the call node,
        # or by function name for calls from the host.  Each entry is what
        # the last decision there needs to run again: (store epoch, receiver
        # version, the first variant, the rest of the chain); a function
        # has no receiver, so None for its version.
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
                    return self._invoke(hit[2], span, hit[3], args, None)
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
        obj.version = next(_VERSIONS)
        return obj

    def _obj_decisionmaker(self, obj: DynObject, args: Tuple, span) -> Value:
        if len(args) != 1 or not isinstance(args[0], DecisionMakerValue):
            raise CongoTypeError(
                "decisionmaker expects one decisionMaker(...) value", span
            )
        obj.decision_maker = args[0].dm
        obj.version = next(_VERSIONS)
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
        obj.version = next(_VERSIONS)
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
        data = table.dispatch or table.dispatch_data(span)
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
            self._sites[site_key] = (epoch, version, first, rest)
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
        return DecisionMakerValue(args[0], create_decision_maker(args[0]))

    _BUILTINS = {
        "println": _builtin_println,
        "DynamicObject": _builtin_dynamic_object,
        "setConcrete": _builtin_set_concrete,
        "currentMeta": _builtin_current_meta,
        "decisionMaker": _builtin_decision_maker,
    }


# --- code generator --------------------------------------------------------------
#
# A lambda body becomes the Python source of one factory,
#
#     def make(k0, k1, ...):
#      def b0(interp, frame): ...     # the body
#      def b1(interp, frame): ...     # an if, else or while block, ...
#      return b0
#
# and the body is what make returns for the lambda's own constants.  Every
# generated function takes (interp, frame), interp being the started Runtime
# and frame the run-time frame of the scope it starts in, a list [parent
# frame, slots...].  The code captures only the constants, never a runtime,
# store, bus or frame: tables and lambdas are shared by every runtime built
# from one LoweredModule.
#
# No ConGo text enters the source.  Every literal, name, span, site id and
# AST node is a constant: an argument of make, read as a closure cell.  An
# error is raised as _fault(node, ...), which writes its message from the
# node that fails.  Every Python name in the source comes from one fixed
# scheme: interp and frame, temporaries t0, t1..., block frames s0, s1...,
# constants k0, k1..., functions b0, b1..., and the helpers in _GLOBALS; the
# only numbers are slot indices and hop counts.  So a ConGo name cannot
# clash with a generated one, and a body's source depends only on its shape:
# bodies that differ only in literals, names or spans have one source.
# _CODES maps each source to its factory, so they share one compile() and
# one set of code objects; it is emptied when it holds _MAX_CODES sources.
#
# Expressions are flattened into temporaries in ConGo's evaluation order,
# left to right.  Two ints take the Python operator inline (with a nonzero
# divisor for '/' and '%'); every other operand, whatever its type, goes to
# _apply_binary, which owns each type error, zero divisor and overflow and
# its span.  An expression statement is a line; a ConGo return is a Python
# return.  A bare block runs inline.  Each if, else and while block is a
# function of its own, which returns _NEXT to fall through to the next
# statement or the value of a ``return``, so nesting adds no indentation;
# only the right operand of '&&' and '||' indents, and one that would start
# _MAX_INDENT levels deep becomes a function too (CPython refuses 100 levels).
#
# A call's frame holds three slots of call state, then the parameters and the
# lets of the body's top block: [parent, chain, arguments, receiver, ...].
# proceed() walks from its own frame up to its call's, a depth known at
# generation time, reads the call state there and evaluates its arguments
# in its own frame.  Any other block that declares a let gets a fresh frame
# each time it runs, so the closures of a loop iteration capture that
# iteration.  A let slot holds _UNBOUND until its let runs.  A name resolves
# to the slot of every enclosing frame that declares it, innermost first,
# and the first bound one is the binding: a let shadows only once it has run.
#
# Each call site tests its guard hit itself, through interp._sites.get(site),
# which is empty unless the epoch guard is on.  No frame records its caller
# for error reports: an error collects its ConGo call stack as it unwinds
# each _invoke, and Runtime.call reverses it.

_NEXT = object()
_UNBOUND = object()

_MAX_CODES = 256  # the most generated sources _CODES keeps factories for
_CODES: Dict[str, Callable] = {}
_MAX_INDENT = 50  # the indentation at which a right operand is outlined

# the Python operator two ints take; any other ConGo operator is _apply_binary's
_PY_OPS = {
    "+": "+", "-": "-", "*": "*", "/": "//", "%": "%",
    "==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}
# a literal of these types is never an int: its operator always goes to
# _apply_binary
_NOT_INT = (nodes.FloatLit, nodes.StringLit, nodes.BoolLit, nodes.NullLit)


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
        self.padding = len(self.slots) - len(params)  # the let slots

    def resolve(self, name: str) -> Tuple[Tuple[Tuple[int, int], ...], bool]:
        """The (frame depth, slot index) of each slot that may bind ``name``,
        and whether the first one is a parameter, which is always bound."""
        found, scope, depth = [], self, 0
        while scope is not None:
            index = scope.slots.get(name)
            if index is not None:
                found.append((depth, index))
                if index <= scope.params:
                    return tuple(found), len(found) == 1
            scope, depth = scope.parent, depth + 1
        return tuple(found), False


def _lets(stmts: Sequence[nodes.Stmt]) -> List[str]:
    """The names a block's lets bind, in order.  ``$base``, bound only by an
    after layer's rewrite, goes last: the statements the rewrite wraps keep
    the slots they have in the lambda it wraps, so a lambda nested in them
    compiles the same under either."""
    names = [stmt.name for stmt in stmts if type(stmt) is nodes.LetStmt]
    return sorted(names, key=lambda name: name.startswith("$"))


# --- helpers the generated code calls, on paths that are rare or fail --------------


def _find(frame: list, found: Tuple[Tuple[int, int], ...]):
    """The frame and index of the first bound slot in ``found``, or None."""
    depth = 0
    for at, index in found:
        while depth < at:
            frame, depth = frame[0], depth + 1
        if frame[index] is not _UNBOUND:
            return frame, index
    return None


def _lookup(frame: list, found: Tuple[Tuple[int, int], ...]) -> Value:
    hit = _find(frame, found)
    return _UNBOUND if hit is None else hit[0][hit[1]]


def _up(frame: list, hops: int) -> list:
    for _ in range(hops):
        frame = frame[0]
    return frame


def _fault(node, value: Value = None, right: bool = False) -> CongoRuntimeError:
    """The error generated code raises at ``node``, the node that fails:
    ``value`` is the value it fails on, and ``right`` marks the right
    operand of '&&' or '||'."""
    kind, span = type(node), node.span
    if kind is nodes.Ident:
        return UnknownVariableError(f"unknown variable '{node.name}'", span)
    if kind is nodes.AssignStmt:
        return UnknownVariableError(f"assignment to undefined variable '{node.name}'", span)
    if kind is nodes.Call:  # a bound local that is no function, or UNBOUND
        if value is _UNBOUND:
            return UnknownFunctionError(f"unknown function '{node.callee}'", span)
        return CongoTypeError(f"'{node.callee}' is not callable", span)
    if kind is nodes.MethodCall:  # the receiver
        if not isinstance(value, DynObject):
            return CongoTypeError(f"method call '{node.name}' on non-object value "
                                  f"{stringify(value, span)!r}", span)
        if node.args:
            return UnknownMethodError(f"object has no method '{node.name}'", span)
        return UnknownMethodError(f"object has no method or property '{node.name}'", span)
    if kind is nodes.Proceed:  # the rest of the chain: None, or empty
        if value is None:
            return ProceedExhaustedError("proceed called outside a layered dispatch", span)
        return ProceedExhaustedError("proceed called but the variant chain is exhausted", span)
    if kind is nodes.UnaryOp and node.op == "-":
        return CongoTypeError("unary '-' needs a number", span)
    if kind is nodes.UnaryOp:
        what = "operand of 'not'"
    elif kind is nodes.BinaryOp:
        what = f"{'right' if right else 'left'} operand of '{node.op}'"
    else:
        what = "if condition" if kind is nodes.IfStmt else "while condition"
    return CongoTypeError(f"{what} must be a boolean, got {stringify(value, span)!r}", span)


# the globals of every generated function, named by the generator's scheme
_GLOBALS = {
    "UNBOUND": _UNBOUND, "NEXT": _NEXT, "NUMBERS": (int, float),
    "FunctionValue": FunctionValue, "DynObject": DynObject,
    "apply_binary": _apply_binary, "fault": _fault,
    "lookup": _lookup, "find": _find, "up": _up,
}


def _compile_lambda(lam: nodes.Lambda) -> Callable:
    """Compile ``lam``'s body; a body nested too deep is a StackOverflowError."""
    try:
        source, consts = _Generator().body(lam)
    except RecursionError as exc:
        # The generator recurses once per nesting level.  Unless it used most
        # of the stack itself, the calls that led here did: _invoke reports those.
        generator_frames = sum(1 for _ in traceback.walk_tb(exc.__traceback__))
        if generator_frames < sys.getrecursionlimit() // 2:
            raise
        raise StackOverflowError("block nesting too deep to compile", lam.span) from None
    make = _CODES.get(source)
    if make is None:
        namespace: dict = {}
        exec(compile(source, "<congo>", "exec"), _GLOBALS, namespace)
        make = namespace["make"]
        if len(_CODES) >= _MAX_CODES:
            _CODES.clear()
        _CODES[source] = make
    return make(*consts)


def _names(prefix: str) -> Callable[[], str]:
    """A function that returns prefix0, prefix1, ... one per call."""
    return map((prefix + "{}").format, itertools.count()).__next__


class _Function:
    """One generated function as it is written: its lines, and the frame of
    each scope it has a name for, outermost first; the innermost scope is
    ``scope``, and its frame is ``here``."""

    __slots__ = ("lines", "pad", "temp", "frames", "scope", "here")

    def __init__(self, name: str, scope: _Scope):
        self.lines = [f" def {name}(interp, frame):"]
        self.pad = "  "  # the indentation of the next line, one space a level
        self.temp = _names("t")  # a new temporary's name
        self.frames = [(scope, "frame")]
        self.scope, self.here = scope, "frame"


class _Generator:
    """Writes one lambda body as the source of a factory and its constants."""

    def __init__(self) -> None:
        self.consts: list = []
        self.done: List[str] = []  # the finished functions' source
        self.function = _names("b")  # a new function's name
        self.fn: Optional[_Function] = None

    def body(self, lam: nodes.Lambda) -> Tuple[str, list]:
        body = lam.body
        if not isinstance(body, nodes.Block):
            self.begin(_Scope(lam.outer, lam.params, (), call=True))
            self.emit(f"return {self.expr(body)}")
        else:
            scope = _Scope(lam.outer, lam.params, _lets(body.stmts), call=True)
            self.begin(scope)
            if scope.padding:
                self.emit("frame += (" + "UNBOUND, " * scope.padding + ")")
            self.stmts(body.stmts)
            self.emit("return None")
        self.end()
        params = ", ".join(map("k{}".format, range(len(self.consts))))
        self.done.append(" return b0\n")
        return f"def make({params}):\n" + "\n".join(self.done), self.consts

    # --- plumbing ---------------------------------------------------------------

    def begin(self, scope: _Scope) -> Tuple[Optional[_Function], str]:
        """Start a function whose frame is ``scope``'s; returns the function
        to resume and the new one's name."""
        outer, name = self.fn, self.function()
        self.fn = _Function(name, scope)
        return outer, name

    def end(self, outer: Optional[_Function] = None) -> None:
        self.done.append("\n".join(self.fn.lines))
        self.fn = outer

    def emit(self, *lines: str) -> None:
        fn = self.fn
        for line in lines:
            fn.lines.append(fn.pad + line)

    def const(self, value) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def frame_at(self, depth: int) -> str:
        """The frame ``depth`` scopes out from the innermost one."""
        frames = self.fn.frames
        if depth < len(frames):
            return frames[-1 - depth][1]
        hops = depth - len(frames) + 1
        if hops <= 2:
            return "frame" + "[0]" * hops
        t = self.fn.temp()
        self.emit(f"{t} = up(frame, {hops})")
        return t

    def read(self, found) -> str:
        """A temporary that holds the first bound slot of ``found``, or UNBOUND."""
        t = self.fn.temp()
        if len(found) == 1:
            self.emit(f"{t} = {self.frame_at(found[0][0])}[{found[0][1]}]")
        else:
            self.emit(f"{t} = lookup({self.fn.here}, {self.const(found)})")
        return t

    def outline(self, generate: Callable, node) -> str:
        """Run ``generate(node)`` in a function of its own that starts in
        this scope's frame; returns the expression that calls it."""
        here = self.fn.here
        outer, name = self.begin(self.fn.scope)
        generate(node)
        self.end(outer)
        return f"{name}(interp, {here})"

    # --- expressions ------------------------------------------------------------

    def expr(self, node) -> str:
        """Emit ``node``'s evaluation; returns the atom that holds its value:
        a temporary, a constant or None."""
        return _EXPRS[type(node)](self, node)

    def literal(self, node) -> str:
        return self.const(node.value)

    def null(self, node) -> str:
        return "None"

    def ident(self, node: nodes.Ident) -> str:
        found, bound = self.fn.scope.resolve(node.name)
        t = self.read(found) if found else "None"
        if not bound:
            test = f"if {t} is UNBOUND: " if found else ""
            self.emit(f"{test}raise fault({self.const(node)})")
        return t

    def binary(self, node: nodes.BinaryOp) -> str:
        op, fn = node.op, self.fn
        if op == "&&" or op == "||":  # here, not in a method of its own: a frame a level
            k, t = self.const(node), fn.temp()
            # '&&' needs its right operand when the left one is true, '||' when false
            self.emit(f"{t} = {self.expr(node.left)}",
                      f"if {t} is not True and {t} is not False: raise fault({k}, {t})",
                      f"if {t} is {op == '&&'}:")
            fn.pad += " "
            if len(fn.pad) < _MAX_INDENT:
                b = self.expr(node.right)
            else:  # CPython refuses 100 levels
                b = fn.temp()
                call = self.outline(lambda n: self.emit(f"return {self.expr(n)}"), node.right)
                self.emit(f"{b} = {call}")
            self.emit(f"if {b} is not True and {b} is not False: raise fault({k}, {b}, True)",
                      f"{t} = {b}")
            fn.pad = fn.pad[:-1]
            return t
        a, b, t = self.expr(node.left), self.expr(node.right), fn.temp()
        slow = f"{t} = apply_binary({self.const(op)}, {a}, {b}, {self.const(node.span)})"
        py = _PY_OPS.get(op)
        left, right = type(node.left), type(node.right)
        if py is None or left in _NOT_INT or right in _NOT_INT:
            self.emit(slow)
            return t
        tests = []
        if left is not nodes.IntLit:
            tests.append(f"type({a}) is int")
        if right is not nodes.IntLit:
            tests.append(f"type({b}) is int")
        if py == "//" or py == "%":  # a zero divisor is _apply_binary's error
            if right is not nodes.IntLit:
                tests.append(b)
            elif not node.right.value:
                self.emit(slow)
                return t
        if tests:
            self.emit(f"if {' and '.join(tests)}: {t} = {a} {py} {b}", f"else: {slow}")
        else:
            self.emit(f"{t} = {a} {py} {b}")
        return t

    def unary(self, node: nodes.UnaryOp) -> str:
        a, k, t = self.expr(node.operand), self.const(node), self.fn.temp()
        if node.op == "-":
            self.emit(f"if {a} is True or {a} is False or not isinstance({a}, NUMBERS): "
                      f"raise fault({k})",
                      f"{t} = -{a}")
        else:
            self.emit(f"if {a} is not True and {a} is not False: raise fault({k}, {a})",
                      f"{t} = {a} is False")
        return t

    def args(self, exprs) -> str:
        """Emit the arguments left to right; returns their tuple display."""
        atoms = list(map(self.expr, exprs))
        return f"({atoms[0]},)" if len(atoms) == 1 else f"({', '.join(atoms)})"

    def call(self, node: nodes.Call) -> str:
        name, span, k, fn = node.callee, self.const(node.span), self.const(node), self.fn
        found, bound = fn.scope.resolve(name)
        if found:  # a bound local first, and only then the module's name
            local = self.read(found)
            not_callable = f"raise fault({k}, {local})"
            if bound:  # a parameter, never the module's name
                self.emit(f"if not isinstance({local}, FunctionValue): {not_callable}")
                args, t = self.args(node.args), fn.temp()
                self.emit(f"{t} = interp._invoke({local}, {span}, None, {args}, None)")
                return t
            self.emit(f"if {local} is UNBOUND:")
            fn.pad += " "
        # the module's function, else a builtin
        table, builtin, kname = fn.temp(), fn.temp(), self.const(name)
        self.emit(f"{table} = interp._tables.get({kname})",
                  f"if {table} is None:",
                  f" {builtin} = interp._BUILTINS.get({kname})",
                  f" if {builtin} is None: raise fault({k}, UNBOUND)")
        if found:
            fn.pad = fn.pad[:-1]
            self.emit(f"elif not isinstance({local}, FunctionValue): {not_callable}")
        args, t, site = self.args(node.args), fn.temp(), self.const(node.site_id)
        branch = "if"
        if found:
            self.emit(f"if {local} is not UNBOUND: "
                      f"{t} = interp._invoke({local}, {span}, None, {args}, None)")
            branch = "elif"
        self.emit(f"{branch} {table} is None: {t} = {builtin}(interp, {args}, {span})",
                  *self.table_call(t, table, site, args, span))
        return t

    def method(self, node: nodes.MethodCall) -> str:
        name, span, k, fn = node.name, self.const(node.span), self.const(node), self.fn
        receiver, args, t = self.expr(node.receiver), self.args(node.args), fn.temp()
        self.emit(f"if type({receiver}) is not DynObject "
                  f"and not isinstance({receiver}, DynObject): raise fault({k}, {receiver})")
        builtin = Runtime._OBJECT_BUILTINS.get(name)
        if builtin is not None:
            self.emit(f"{t} = {self.const(builtin)}(interp, {receiver}, {args}, {span})")
            return t
        table, kname = fn.temp(), self.const(name)
        # dynamic property access: zero args reads, one arg writes
        if not node.args:
            access = (f" {t} = {receiver}.properties.get({kname}, UNBOUND)",
                      f" if {t} is UNBOUND: raise fault({k}, {receiver})")
        elif len(node.args) == 1:
            access = (f" {receiver}.properties[{kname}] = {args[1:-2]}", f" {t} = {receiver}")
        else:
            access = (f" raise fault({k}, {receiver})",)
        self.emit(f"{table} = {receiver}.methods.get({kname})",
                  f"if {table} is None:",
                  *access,
                  *self.table_call(t, table, self.const(node.site_id), args, span, receiver))
        return t

    def table_call(self, t: str, table: str, site: str, args: str, span: str,
                   receiver: Optional[str] = None) -> Tuple[str, ...]:
        """The branches that call a found ``table`` into ``t``: its base when
        it has no layers, else the chain the guard remembers at ``site``
        while the store epoch and the receiver's version are unchanged, else
        a decision.  They follow the branch for a missing table."""
        hit = f"{t} is not None and {t}[0] == interp.store.epoch"
        if receiver is None:
            receiver = "None"
        else:
            hit += f" and {t}[1] == {receiver}.version"
        return (f"elif not {table}.layers: "
                f"{t} = interp._invoke({table}.base, {span}, (), {args}, {receiver})",
                "else:",
                f" {t} = interp._sites.get({site})",
                f" if {hit}: {t} = interp._invoke({t}[2], {span}, {t}[3], {args}, {receiver})",
                f" else: {t} = interp._dispatch({table}, {receiver}, {args}, {span}, {site})")

    def proceed(self, node: nodes.Proceed) -> str:
        span, scope, depth = self.const(node.span), self.fn.scope, 0
        while not scope.call:  # the block frames between this one and the call's
            scope, depth = scope.parent, depth + 1
        call, t = self.frame_at(depth), self.fn.temp()
        if "[" in call:  # frame[0]...: the call's frame is read three times below
            self.emit(f"{t} = {call}")
            call, t = t, self.fn.temp()
        self.emit(f"{t} = {call}[1]", f"if not {t}: raise fault({self.const(node)}, {t})")
        args = self.args(node.args) if node.args else f"{call}[2]"
        self.emit(f"{t} = interp._invoke({t}[0], {span}, {t}[1:], {args}, {call}[3])")
        return t

    def lambda_value(self, node: nodes.Lambda) -> str:
        node.outer, t = self.fn.scope, self.fn.temp()
        self.emit(f"{t} = FunctionValue({self.const(node)}, {self.fn.here})")
        return t

    # --- statements -------------------------------------------------------------

    def stmts(self, stmts) -> None:
        for stmt in stmts:
            self.stmt(stmt)

    def stmt(self, stmt) -> None:
        _STMTS[type(stmt)](self, stmt)

    def let(self, stmt: nodes.LetStmt) -> None:
        # a let binds a slot of the frame its own block runs in
        value = self.expr(stmt.value)
        self.emit(f"{self.fn.here}[{self.fn.scope.slots[stmt.name]}] = {value}")

    def assign(self, stmt: nodes.AssignStmt) -> None:
        value = self.expr(stmt.value)
        found, bound = self.fn.scope.resolve(stmt.name)
        unknown = f"raise fault({self.const(stmt)})"
        if len(found) == 1:
            frame = self.frame_at(found[0][0])
            slot = f"{frame}[{found[0][1]}]"
            if not bound:
                self.emit(f"if {slot} is UNBOUND: {unknown}")
            self.emit(f"{slot} = {value}")
        elif found:
            t = self.fn.temp()
            self.emit(f"{t} = find({self.fn.here}, {self.const(found)})",
                      f"if {t} is None: {unknown}",
                      f"{t}[0][{t}[1]] = {value}")
        else:
            self.emit(unknown)

    def return_(self, stmt: nodes.ReturnStmt) -> None:
        self.emit("return None" if stmt.value is None else f"return {self.expr(stmt.value)}")

    def expr_stmt(self, stmt: nodes.ExprStmt) -> None:
        self.expr(stmt.expr)

    def block(self, block: nodes.Block) -> None:
        # a block without lets runs in the enclosing frame, inline
        lets, fn = _lets(block.stmts), self.fn
        if not lets:
            self.stmts(block.stmts)
            return
        scope, frame = _Scope(fn.scope, (), lets), f"s{len(fn.frames) - 1}"
        self.emit(f"{frame} = [{fn.here}" + ", UNBOUND" * scope.padding + "]")
        fn.frames.append((scope, frame))
        fn.scope, fn.here = scope, frame
        self.stmts(block.stmts)
        fn.frames.pop()
        fn.scope, fn.here = fn.frames[-1]

    def block_function(self, node) -> str:
        """A call of a function that runs a Block, or an else-if in this scope;
        it returns NEXT unless the block returns."""
        def generate(node):
            self.stmt(node)
            self.emit("return NEXT")
        return self.outline(generate, node)

    def if_(self, stmt: nodes.IfStmt) -> None:
        test, result = self.expr(stmt.cond), self.fn.temp()
        fail = f"raise fault({self.const(stmt)}, {test})"
        then = self.block_function(stmt.then)
        if stmt.orelse is None:
            self.emit(f"if {test} is True:",
                      f" {result} = {then}",
                      f" if {result} is not NEXT: return {result}",
                      f"elif {test} is not False: {fail}")
            return
        # an else-if runs in this scope; an else block opens its own
        orelse = self.block_function(stmt.orelse)
        self.emit(f"if {test} is True: {result} = {then}",
                  f"elif {test} is False: {result} = {orelse}",
                  f"else: {fail}",
                  f"if {result} is not NEXT: return {result}")

    def while_(self, stmt: nodes.WhileStmt) -> None:
        body, result, fn = self.block_function(stmt.body), self.fn.temp(), self.fn
        k = self.const(stmt)
        self.emit("while True:")
        fn.pad += " "
        test = self.expr(stmt.cond)
        self.emit(f"if {test} is not True:",
                  f" if {test} is False: break",
                  f" raise fault({k}, {test})",
                  f"{result} = {body}",
                  f"if {result} is not NEXT: return {result}")
        fn.pad = fn.pad[:-1]


_EXPRS = {
    nodes.IntLit: _Generator.literal,
    nodes.FloatLit: _Generator.literal,
    nodes.StringLit: _Generator.literal,
    nodes.BoolLit: _Generator.literal,
    nodes.NullLit: _Generator.null,
    nodes.Ident: _Generator.ident,
    nodes.BinaryOp: _Generator.binary,
    nodes.UnaryOp: _Generator.unary,
    nodes.Call: _Generator.call,
    nodes.MethodCall: _Generator.method,
    nodes.Proceed: _Generator.proceed,
    nodes.Lambda: _Generator.lambda_value,
}
_STMTS = {
    nodes.LetStmt: _Generator.let,
    nodes.AssignStmt: _Generator.assign,
    nodes.ReturnStmt: _Generator.return_,
    nodes.IfStmt: _Generator.if_,
    nodes.WhileStmt: _Generator.while_,
    nodes.ExprStmt: _Generator.expr_stmt,
    nodes.Block: _Generator.block,
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
