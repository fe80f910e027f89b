"""Exception types shared across the ConGo toolchain.

Every error may carry a source span; the CLI renders errors as
``ERROR <kind> at <file>:<line>:<col>``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from .nodes import SourceSpan


class CongoError(Exception):
    """Base class for every error raised by the toolchain."""

    kind = "Error"

    def __init__(self, message: str, span: "Optional[SourceSpan]" = None):
        super().__init__(message)
        self.message = message
        self.span = span

    def __str__(self) -> str:
        if self.span is not None:
            return f"{self.message} ({self.span})"
        return self.message


# --- lexing / parsing ---------------------------------------------------


class LexError(CongoError):
    kind = "Lex"


class ParseError(CongoError):
    kind = "Parse"

    def __init__(self, message: str, span=None, expected: Iterable[str] = ()):
        super().__init__(message, span)
        self.expected = frozenset(expected)


class DuplicateBaseError(ParseError):
    """Two unannotated declarations share one function name."""

    kind = "DuplicateBase"


# --- lowering -----------------------------------------------------------


class LoweringError(CongoError):
    kind = "Lowering"


class ProceedOutsideLayerError(LoweringError):
    kind = "ProceedOutsideLayer"


class ManglingCollisionError(LoweringError):
    """Distinct constraint sets rendered to one mangled name."""

    kind = "ManglingCollision"


# Raised during lowering for module declarations and at runtime for
# object `define`; the rules are shared.


class ArityMismatchError(CongoError):
    kind = "ArityMismatch"


class UnknownContextError(CongoError):
    kind = "UnknownContext"


class MissingBaseError(CongoError):
    kind = "MissingBase"


class RedefinitionError(CongoError):
    kind = "Redefinition"


# --- contexts -----------------------------------------------------------


class UnknownContextCtorError(CongoError):
    kind = "UnknownContextCtor"


class ContextEvaluationError(CongoError):
    kind = "ContextEvaluation"

    def __init__(self, context: str, message: str, span=None):
        super().__init__(message, span)
        self.context = context


class FeedError(CongoError):
    kind = "Feed"


class ReadError(CongoError):
    kind = "Io"


# --- messaging ----------------------------------------------------------


class BusClosedError(CongoError):
    kind = "BusClosed"


class ReentrantDispatchError(CongoError):
    kind = "ReentrantDispatch"


class DecisionTimeoutError(CongoError):
    kind = "DecisionTimeout"

    def __init__(self, message: str, request_id=None, span=None):
        super().__init__(message, span)
        self.request_id = request_id


# --- decisions ----------------------------------------------------------


class NoApplicableVariantError(CongoError):
    kind = "NoApplicableVariant"

    def __init__(self, module: str, function_name: str, span=None):
        super().__init__(
            f"no applicable variant for '{function_name}' in module '{module}'", span
        )
        self.module = module
        self.function_name = function_name


class DecisionFailedError(CongoError):
    kind = "DecisionFailed"


class UnknownDecisionMakerError(CongoError):
    kind = "UnknownDecisionMaker"


# --- runtime ------------------------------------------------------------


class CongoRuntimeError(CongoError):
    """Evaluation error; carries the interpreter call stack once it unwinds."""

    kind = "Runtime"

    def __init__(self, message: str, span=None):
        super().__init__(message, span)
        # the (name, call span) of each ConGo call it has unwound, innermost
        # first; Runtime.call turns a non-empty list into call_stack
        self.unwound = []
        self.call_stack = None


class UnknownFunctionError(CongoRuntimeError):
    kind = "UnknownFunction"


class UnknownVariableError(CongoRuntimeError):
    kind = "UnknownVariable"


class UnknownMethodError(CongoRuntimeError):
    kind = "UnknownMethod"


class CallArityError(CongoRuntimeError):
    kind = "CallArity"


class CongoTypeError(CongoRuntimeError):
    kind = "Type"


class DivisionByZeroError(CongoRuntimeError):
    kind = "DivisionByZero"


class ProceedExhaustedError(CongoRuntimeError):
    kind = "ProceedExhausted"


class StackOverflowError(CongoRuntimeError):
    """Calls nested deeper than Python's recursion limit allows."""

    kind = "StackOverflow"


# --- benchmarks ---------------------------------------------------------


class BenchHarnessError(CongoError):
    kind = "BenchHarness"
