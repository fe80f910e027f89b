"""Tree-walking runtime: values, dynamic objects, and contextual dispatch.

A contextual call never selects its own variant chain.  The site
snapshots the meta context once, builds an :class:`InvocationRequest`,
and gets a reply from the shared decide step
(:func:`~congo.decision.decide_or_fail`), either over the bus (event
dispatch, the default) or by calling it directly (direct dispatch).
The two transports differ in nothing else: every reply is checked and
turned into an error in one place, and the returned chain executes
outermost-first with ``proceed()`` stepping inward.

User programs are single-threaded; the interpreter thread and the bus
dispatcher are the only execution contexts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import nodes
from .bus import MessageBus, Topic
from .context import (
    ConcreteValueStore,
    ContextChanged,
    ContextManager,
    is_number,
    is_scalar,
)
from .decision import (
    DecisionFailure,
    DecisionMaker,
    DecisionResponse,
    InvocationRequest,
    attach_decision_maker,
    context_changed_topic,
    create_decision_maker,
    decide_or_fail,
    failure_to_error,
    reply_topic_for,
    request_topic_for,
    validate_response,
)
from .errors import (
    CallArityError,
    CongoError,
    CongoRuntimeError,
    CongoTypeError,
    DecisionFailedError,
    DivisionByZeroError,
    MissingBaseError,
    ProceedExhaustedError,
    RedefinitionError,
    UnknownContextError,
    UnknownFunctionError,
    UnknownMethodError,
    UnknownVariableError,
)
from .lowering import LoweredModule, Variant, VariantTable, add_variant


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
    decision_timeout: float = 5.0
    # (context, key, value) triples applied to the store before the run
    initial_values: Tuple = ()
    trace: Optional[Callable[[str], None]] = None
    println: Optional[Callable[[str], None]] = None


# --- values -----------------------------------------------------------------


class Environment:
    __slots__ = ("parent", "vars")

    def __init__(self, parent: Optional["Environment"] = None):
        self.parent = parent
        self.vars: Dict[str, object] = {}

    def define(self, name: str, value: object) -> None:
        self.vars[name] = value

    def assign(self, name: str, value: object) -> bool:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.vars:
                env.vars[name] = value
                return True
            env = env.parent
        return False

    def lookup(self, name: str) -> Tuple[bool, object]:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.vars:
                return True, env.vars[name]
            env = env.parent
        return False, None


@dataclass(eq=False)
class FunctionValue:
    lam: nodes.Lambda
    env: Environment
    name: str = "<lambda>"


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


class ProceedFrame:
    """What proceed() still has to run: the rest of the chain."""

    __slots__ = ("remaining", "original_args", "receiver")

    def __init__(
        self,
        remaining: Tuple[Variant, ...],
        original_args: Tuple,  # receiver excluded; re-sent by zero-arg proceed()
        receiver: Optional[DynObject],
    ):
        self.remaining = remaining
        self.original_args = original_args
        self.receiver = receiver


class CallSite:
    """The epoch guard's memory of one site: the chain last decided there."""

    __slots__ = ("chain", "epoch", "receiver")

    def __init__(self) -> None:
        self.chain: Tuple[Variant, ...] = ()
        self.epoch = -1  # no store epoch is negative, so a new site misses
        self.receiver: Optional[Tuple[int, int]] = None  # (identity, version)


def stringify(value: Value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, FunctionValue):
        return f"<function {value.name}>"
    if isinstance(value, DynObject):
        return f"<object {value.identity}>"
    if isinstance(value, DecisionMakerValue):
        return f"<decision-maker {value.name}>"
    return str(value)


class _Return(Exception):
    def __init__(self, value: Value):
        self.value = value


_RESERVED_METHODS = ("define", "decisionmaker", "contexts")


class Interpreter:
    def __init__(
        self,
        lowered: LoweredModule,
        context_manager: ContextManager,
        store: ConcreteValueStore,
        bus: MessageBus,
        global_dm: DecisionMaker,
        config: RunConfig,
    ):
        self._lowered = lowered
        self._context_manager = context_manager
        self._store = store
        self._bus = bus
        self._global_dm = global_dm
        self._config = config
        self._println = config.println or (lambda text: print(text))
        # keyed by the site id lower() gave the call node, or by function
        # name for calls from the host
        self._sites: Dict[Union[int, str], CallSite] = {}
        self._request_ids = itertools.count(1)
        self._frames: List[Optional[ProceedFrame]] = []
        self._stack: List[Tuple[str, nodes.SourceSpan]] = []

    # --- public entry points -------------------------------------------------

    def call_function(self, name: str, args: Sequence[Value] = ()) -> Value:
        table = self._lowered.tables.get(name)
        if table is None:
            raise UnknownFunctionError(
                f"unknown function '{name}' in module '{self._lowered.name}'"
            )
        span = (table.base or table.layers[0]).body.span
        return self._call_table(table, None, tuple(args), span, name)

    # --- evaluation ------------------------------------------------------------

    def _eval(self, expr: nodes.Expr, env: Environment) -> Value:
        handler = self._EVAL.get(type(expr))
        if handler is None:
            raise CongoRuntimeError(f"cannot evaluate node {type(expr).__name__}")
        return handler(self, expr, env)

    def _eval_literal(self, expr, env: Environment) -> Value:
        return expr.value

    def _eval_null(self, expr, env: Environment) -> Value:
        return None

    def _eval_ident(self, expr: nodes.Ident, env: Environment) -> Value:
        found, value = env.lookup(expr.name)
        if not found:
            raise UnknownVariableError(f"unknown variable '{expr.name}'", expr.span)
        return value

    def _eval_lambda(self, expr: nodes.Lambda, env: Environment) -> Value:
        return FunctionValue(expr, env)

    def _eval_binary(self, expr: nodes.BinaryOp, env: Environment) -> Value:
        op = expr.op
        if op in ("&&", "||"):
            left = self._eval(expr.left, env)
            self._require_bool(left, expr.span, f"left operand of '{op}'")
            if op == "&&" and left is False:
                return False
            if op == "||" and left is True:
                return True
            right = self._eval(expr.right, env)
            self._require_bool(right, expr.span, f"right operand of '{op}'")
            return right
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        return self._apply_binary(op, left, right, expr.span)

    def _apply_binary(self, op: str, left: Value, right: Value, span) -> Value:
        if op == "==":
            return self._values_equal(left, right)
        if op == "!=":
            return not self._values_equal(left, right)
        if op == "+":
            if isinstance(left, str) or isinstance(right, str):
                return stringify(left) + stringify(right)
            if is_number(left) and is_number(right):
                return left + right
            raise CongoTypeError(
                f"cannot add {type(left).__name__} and {type(right).__name__}", span
            )
        if op in ("-", "*", "/", "%"):
            if not (is_number(left) and is_number(right)):
                raise CongoTypeError(
                    f"'{op}' needs numeric operands, got "
                    f"{stringify(left)!r} and {stringify(right)!r}", span
                )
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    raise DivisionByZeroError("division by zero", span)
                if isinstance(left, int) and isinstance(right, int):
                    return left // right
                return left / right
            if right == 0:
                raise DivisionByZeroError("modulo by zero", span)
            return left % right
        if op in ("<", "<=", ">", ">="):
            both_numbers = is_number(left) and is_number(right)
            both_strings = isinstance(left, str) and isinstance(right, str)
            if not (both_numbers or both_strings):
                raise CongoTypeError(
                    f"'{op}' needs two numbers or two strings", span
                )
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            return left >= right
        raise CongoRuntimeError(f"unknown operator '{op}'", span)

    @staticmethod
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

    def _eval_unary(self, expr: nodes.UnaryOp, env: Environment) -> Value:
        operand = self._eval(expr.operand, env)
        if expr.op == "-":
            if not is_number(operand):
                raise CongoTypeError("unary '-' needs a number", expr.span)
            return -operand
        self._require_bool(operand, expr.span, "operand of 'not'")
        return not operand

    def _require_bool(self, value: Value, span, what: str) -> None:
        if not isinstance(value, bool):
            raise CongoTypeError(f"{what} must be a boolean, got {stringify(value)!r}", span)

    # --- calls -----------------------------------------------------------------

    def _eval_call(self, expr: nodes.Call, env: Environment) -> Value:
        name = expr.callee
        found, value = env.lookup(name)
        if found:
            if not isinstance(value, FunctionValue):
                raise CongoTypeError(f"'{name}' is not callable", expr.span)
            args = tuple(self._eval(a, env) for a in expr.args)
            return self._invoke_function(
                value.lam, value.env, value.name, args, None, expr.span
            )
        table = self._lowered.tables.get(name)
        if table is not None:
            args = tuple(self._eval(a, env) for a in expr.args)
            return self._call_table(table, None, args, expr.span, expr.site_id)
        builtin = self._BUILTINS.get(name)
        if builtin is not None:
            args = tuple(self._eval(a, env) for a in expr.args)
            return builtin(self, args, expr.span)
        raise UnknownFunctionError(f"unknown function '{name}'", expr.span)

    def _eval_method(self, expr: nodes.MethodCall, env: Environment) -> Value:
        receiver = self._eval(expr.receiver, env)
        args = tuple(self._eval(a, env) for a in expr.args)
        if not isinstance(receiver, DynObject):
            raise CongoTypeError(
                f"method call '{expr.name}' on non-object value {stringify(receiver)!r}",
                expr.span,
            )
        name = expr.name
        if name == "define":
            return self._obj_define(receiver, args, expr.span)
        if name == "decisionmaker":
            return self._obj_decisionmaker(receiver, args, expr.span)
        if name == "contexts":
            return self._obj_contexts(receiver, args, expr.span)
        table = receiver.methods.get(name)
        if table is not None:
            return self._call_table(table, receiver, args, expr.span, expr.site_id)
        # dynamic property access: zero args reads, one arg writes
        if len(args) == 0:
            if name in receiver.properties:
                return receiver.properties[name]
            raise UnknownMethodError(
                f"object has no method or property '{name}'", expr.span
            )
        if len(args) == 1:
            receiver.properties[name] = args[0]
            return receiver
        raise UnknownMethodError(f"object has no method '{name}'", expr.span)

    # --- dynamic object builtins -------------------------------------------------

    def _obj_define(self, obj: DynObject, args: Tuple, span) -> Value:
        if len(args) != 2 or not isinstance(args[0], str) \
                or not isinstance(args[1], FunctionValue):
            raise CongoTypeError("define expects (name, lambda)", span)
        name, fn = args
        if name in _RESERVED_METHODS:
            raise RedefinitionError(f"'{name}' is a reserved method name", span)
        table = obj.methods.setdefault(name, VariantTable(name))
        try:
            add_variant(
                table,
                fn.lam,
                declared_contexts=self._lowered.context_ctors,
                closure_env=fn.env,
                span=span,
            )
        except CongoError:
            if not table.variants():
                del obj.methods[name]
            raise
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

    # --- contextual dispatch ------------------------------------------------------

    def _call_table(
        self,
        table: VariantTable,
        receiver: Optional[DynObject],
        args: Tuple,
        span,
        site_key: Union[int, str, None],
    ) -> Value:
        """Run a function or method: its base if it has no layers, else dispatch."""
        if not table.layers:
            return self._invoke_variant(table.base, receiver, args, (), span)
        receiver_key = (
            (receiver.identity, receiver.version) if receiver is not None else None
        )
        site = None
        if self._config.cache_policy is CachePolicy.EPOCH_GUARD:
            site = self._sites.get(site_key)
            if site is None:
                site = self._sites[site_key] = CallSite()
            elif site.epoch == self._store.epoch and site.receiver == receiver_key:
                chain = site.chain
                return self._invoke_variant(chain[0], receiver, args, chain[1:], span)

        data = table.dispatch_data()
        if data.missing_base is not None:
            raise MissingBaseError(
                f"method '{table.function_name}' has a before/after layer "
                "but no base variant to proceed to",
                span,
            )
        snapshot, epoch = self._context_manager.snapshot_meta(
            self._lowered.name, self._store
        )
        dm = self._global_dm
        if receiver is not None:
            if receiver.contexts_override is not None:
                snapshot = {
                    name: metas for name, metas in snapshot.items()
                    if name in receiver.contexts_override
                }
            if receiver.decision_maker is not None:
                dm = receiver.decision_maker
        request_id = next(self._request_ids)
        request = InvocationRequest(
            request_id=request_id,
            module=self._lowered.name,
            function_name=table.function_name,
            arity=data.arity,
            variants=data.specs,
            receiver_id=receiver.identity if receiver is not None else None,
            meta_snapshot=snapshot,
            snapshot_epoch=epoch,
            reply_topic=reply_topic_for(request_id),
            decision_maker=dm,
        )
        if self._config.dispatch_mode is DispatchMode.EVENT:
            reply = self._bus.request_reply(
                request_topic_for(request.module),
                request,
                request.reply_topic,
                timeout=self._config.decision_timeout,
            )
        else:
            reply = decide_or_fail(dm, request)
        if isinstance(reply, DecisionFailure):
            raise failure_to_error(reply, request.module, request.function_name, span)
        if not isinstance(reply, DecisionResponse):
            raise DecisionFailedError(
                f"unexpected decision reply: {type(reply).__name__}", span
            )
        validate_response(request, reply, span)
        chain = tuple(data.by_id[variant_id] for variant_id in reply.chain)
        if site is not None:
            site.chain, site.epoch, site.receiver = chain, epoch, receiver_key
        return self._invoke_variant(chain[0], receiver, args, chain[1:], span)

    def _invoke_variant(
        self,
        variant: Variant,
        receiver: Optional[DynObject],
        args: Tuple,
        remaining: Tuple[Variant, ...],
        span,
    ) -> Value:
        uses_proceed = variant.uses_proceed
        if uses_proceed is None:
            uses_proceed = variant.uses_proceed = any(
                isinstance(n, nodes.Proceed) for n in nodes.walk(variant.body)
            )
        full_args = (receiver, *args) if receiver is not None else args
        # a body with no proceed() never reads its frame; skip the allocation
        frame = ProceedFrame(remaining, args, receiver) if uses_proceed else None
        return self._invoke_function(
            variant.body, variant.closure_env, variant.variant_id.mangled_name,
            full_args, frame, span,
        )

    def _invoke_function(
        self,
        lam: nodes.Lambda,
        closure_env: Optional[Environment],  # None for module functions
        name: str,
        args: Tuple,
        frame: Optional[ProceedFrame],
        span,
    ) -> Value:
        params = lam.params
        if len(args) != len(params):
            raise CallArityError(
                f"'{name}' expects {len(params)} argument(s), got {len(args)}",
                span,
            )
        env = Environment(closure_env)
        for param, arg in zip(params, args):
            env.define(param, arg)
        self._frames.append(frame)
        self._stack.append((name, span))
        try:
            body = lam.body
            if isinstance(body, nodes.Block):
                try:
                    self._exec_block(body, env)
                except _Return as ret:
                    return ret.value
                return None
            return self._eval(body, env)
        except CongoRuntimeError as exc:
            if exc.call_stack is None:
                exc.call_stack = tuple(self._stack)
            raise
        finally:
            self._frames.pop()
            self._stack.pop()

    def _eval_proceed(self, expr: nodes.Proceed, env: Environment) -> Value:
        frame = self._frames[-1] if self._frames else None
        if frame is None:
            raise ProceedExhaustedError(
                "proceed called outside a layered dispatch", expr.span
            )
        if not frame.remaining:
            raise ProceedExhaustedError(
                "proceed called but the variant chain is exhausted", expr.span
            )
        next_variant = frame.remaining[0]
        rest = frame.remaining[1:]
        if expr.args:
            call_args = tuple(self._eval(a, env) for a in expr.args)
        else:
            call_args = frame.original_args
        return self._invoke_variant(
            next_variant, frame.receiver, call_args, rest, expr.span
        )

    _EVAL = {
        nodes.IntLit: _eval_literal,
        nodes.FloatLit: _eval_literal,
        nodes.StringLit: _eval_literal,
        nodes.BoolLit: _eval_literal,
        nodes.NullLit: _eval_null,
        nodes.Ident: _eval_ident,
        nodes.BinaryOp: _eval_binary,
        nodes.UnaryOp: _eval_unary,
        nodes.Call: _eval_call,
        nodes.MethodCall: _eval_method,
        nodes.Proceed: _eval_proceed,
        nodes.Lambda: _eval_lambda,
    }

    # --- statements ------------------------------------------------------------

    def _exec_block(self, block: nodes.Block, env: Environment) -> None:
        scope = Environment(env)
        for stmt in block.stmts:
            self._exec(stmt, scope)

    def _exec(self, stmt: nodes.Stmt, env: Environment) -> None:
        if isinstance(stmt, nodes.LetStmt):
            env.define(stmt.name, self._eval(stmt.value, env))
            return
        if isinstance(stmt, nodes.AssignStmt):
            value = self._eval(stmt.value, env)
            if not env.assign(stmt.name, value):
                raise UnknownVariableError(
                    f"assignment to undefined variable '{stmt.name}'", stmt.span
                )
            return
        if isinstance(stmt, nodes.ReturnStmt):
            value = self._eval(stmt.value, env) if stmt.value is not None else None
            raise _Return(value)
        if isinstance(stmt, nodes.IfStmt):
            cond = self._eval(stmt.cond, env)
            self._require_bool(cond, stmt.span, "if condition")
            if cond:
                self._exec_block(stmt.then, env)
            elif isinstance(stmt.orelse, nodes.IfStmt):
                self._exec(stmt.orelse, env)
            elif isinstance(stmt.orelse, nodes.Block):
                self._exec_block(stmt.orelse, env)
            return
        if isinstance(stmt, nodes.WhileStmt):
            while True:
                cond = self._eval(stmt.cond, env)
                self._require_bool(cond, stmt.span, "while condition")
                if not cond:
                    break
                self._exec_block(stmt.body, env)
            return
        if isinstance(stmt, nodes.ExprStmt):
            self._eval(stmt.expr, env)
            return
        if isinstance(stmt, nodes.Block):
            self._exec_block(stmt, env)
            return
        raise CongoRuntimeError(f"cannot execute node {type(stmt).__name__}")

    # --- builtin functions --------------------------------------------------------

    def _builtin_println(self, args: Tuple, span) -> Value:
        if len(args) != 1:
            raise CallArityError("println expects 1 argument", span)
        self._println(stringify(args[0]))
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
        epoch = self._store.set(context, key, value)
        if not self._bus.closed:
            self._bus.publish(
                context_changed_topic(context),
                ContextChanged(context, key, value, epoch),
            )
        return None

    def _builtin_current_meta(self, args: Tuple, span) -> Value:
        if len(args) != 1 or not isinstance(args[0], str):
            raise CallArityError("currentMeta expects one context name", span)
        snapshot, _ = self._context_manager.snapshot_meta(
            self._lowered.name, self._store
        )
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
        dm.init({"store": self._store, "module": self._lowered.name})
        return DecisionMakerValue(args[0], dm)

    _BUILTINS = {
        "println": _builtin_println,
        "DynamicObject": _builtin_dynamic_object,
        "setConcrete": _builtin_set_concrete,
        "currentMeta": _builtin_current_meta,
        "decisionMaker": _builtin_decision_maker,
    }


# --- runtime lifecycle ---------------------------------------------------------


class Runtime:
    """One started module: contexts registered, bus running, decision maker attached."""

    def __init__(self, lowered: LoweredModule, config: Optional[RunConfig] = None):
        self._lowered = lowered
        self._config = config or RunConfig()
        self._started = False
        self.bus: Optional[MessageBus] = None
        self.store: Optional[ConcreteValueStore] = None
        self.context_manager: Optional[ContextManager] = None
        self.global_dm: Optional[DecisionMaker] = None
        self.interpreter: Optional[Interpreter] = None

    def start(self) -> "Runtime":
        if self._started:
            return self
        config = self._config
        self.store = ConcreteValueStore()
        self.context_manager = ContextManager()
        self.context_manager.register_module_contexts(
            self._lowered.name, self._lowered.context_ctors
        )
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
            if config.dispatch_mode is DispatchMode.EVENT:
                attach_decision_maker(self.bus, dm)
            self.interpreter = Interpreter(
                self._lowered, self.context_manager, self.store, self.bus, dm, config
            )
        except BaseException:
            self.bus.shutdown()
            raise
        self._started = True
        return self

    def call(self, name: str, args: Sequence[Value] = ()) -> Value:
        if not self._started:
            raise RuntimeError("Runtime.call before start()")
        return self.interpreter.call_function(name, args)

    def shutdown(self) -> None:
        if self.bus is not None:
            self.bus.shutdown()
        self._started = False

    def __enter__(self) -> "Runtime":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def run(
    lowered: LoweredModule,
    entry: str = "main",
    args: Sequence[Value] = (),
    config: Optional[RunConfig] = None,
) -> Value:
    """Start a runtime, evaluate ``entry``, and shut the bus down."""
    with Runtime(lowered, config) as runtime:
        return runtime.call(entry, args)
