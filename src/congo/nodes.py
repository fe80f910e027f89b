"""AST node definitions for ConGo programs.

Spans (and runtime bookkeeping such as call-site ids and compiled
bodies) are excluded from equality, so two parses of the same text
compare structurally equal even when they come from different files or a
pretty-printed round trip.
"""

from __future__ import annotations

import functools
import gc
import itertools
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Optional, Tuple, Union, get_args


class SourceSpan(NamedTuple):
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


def gc_paused(fn: Callable) -> Callable:
    """Run ``fn`` with the process-wide cyclic garbage collector paused.

    The front end builds acyclic trees of tokens, nodes and variants, which
    the collector would scan again and again and never free.  Only a call
    that finds the collector enabled pauses it, and that call re-enables it
    when it returns or raises; nothing else is ever written.  So a nested
    call is a no-op, a collector the caller disabled stays disabled, and of
    two threads compiling at once the first to finish re-enables it for
    both (the other finishes unpaused: slower, but never left disabled).

    The call that re-enables the collector also runs the young-generation
    pass the pause put off, if one is due.  Left to itself, that pass (over
    every object the call made) would start at whichever tracked allocation
    comes next, wherever the caller is then, or at none soon; run here, its
    cost falls on the call that made the objects, and every time.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        try:
            gc.disable()  # inside the try, so an interrupt here still re-enables
            return fn(*args, **kwargs)
        finally:
            gc.enable()
            threshold = gc.get_threshold()[0]
            if threshold and gc.get_count()[0] > threshold:
                gc.collect(0)
    return paused


class LayerMode(Enum):
    REPLACE = "replace"
    BEFORE_BASE = "before_base"
    AFTER_BASE = "after_base"


# --- expressions ----------------------------------------------------------

# Every call node is its own dispatch site: the epoch guard caches one
# decided chain per site id, so ids must differ between any two nodes.
_next_site_id = itertools.count().__next__


@dataclass
class IntLit:
    value: int
    span: SourceSpan = field(compare=False)


@dataclass
class FloatLit:
    value: float
    span: SourceSpan = field(compare=False)


@dataclass
class StringLit:
    value: str
    span: SourceSpan = field(compare=False)


@dataclass
class BoolLit:
    value: bool
    span: SourceSpan = field(compare=False)


@dataclass
class NullLit:
    span: SourceSpan = field(compare=False)


@dataclass
class Ident:
    name: str
    span: SourceSpan = field(compare=False)


@dataclass
class BinaryOp:
    op: str
    left: "Expr"
    right: "Expr"
    span: SourceSpan = field(compare=False)


@dataclass
class UnaryOp:
    op: str  # "-" or "not"
    operand: "Expr"
    span: SourceSpan = field(compare=False)


@dataclass
class Call:
    callee: str
    args: Tuple["Expr", ...]
    span: SourceSpan = field(compare=False)
    site_id: int = field(default_factory=_next_site_id, compare=False, repr=False)


@dataclass
class MethodCall:
    receiver: "Expr"
    name: str
    args: Tuple["Expr", ...]
    span: SourceSpan = field(compare=False)
    site_id: int = field(default_factory=_next_site_id, compare=False, repr=False)


@dataclass
class Proceed:
    args: Tuple["Expr", ...]
    span: SourceSpan = field(compare=False)


@dataclass
class LayerAnnotation:
    # (context name, meta value) pairs in declared order
    constraints: Tuple[Tuple[str, str], ...]
    mode: LayerMode
    span: SourceSpan = field(compare=False)


# The slots before a call's parameters in the interpreter's frame: the
# parent frame, then the call state proceed() reads (the rest of the chain,
# the arguments, the receiver).
CALL_FRAME_HEADER = 4


@dataclass
class Lambda:
    params: Tuple[str, ...]
    annotation: Optional[LayerAnnotation]
    body: Union["Block", "Expr"]  # an Expr body means the compact "->" form
    span: SourceSpan = field(compare=False)
    # the body as one generated Python function, made by the interpreter on
    # the first call; its source holds no ConGo text (literals, names and
    # spans are closure cells), so bodies of one shape share one code object
    # through the interpreter's bounded cache of generated sources
    code: Optional[Callable] = field(default=None, compare=False, repr=False)
    # the compile-time scope the lambda appears in, None at module level;
    # the interpreter sets it when it compiles the enclosing body
    outer: object = field(default=None, compare=False, repr=False)
    # the replace-form rewrite of a before/after layer, built once by lowering
    desugared: Optional["Lambda"] = field(default=None, compare=False, repr=False)
    # the length of a call's frame: its header, then the parameters
    frame_size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.frame_size = CALL_FRAME_HEADER + len(self.params)


# --- statements -----------------------------------------------------------


@dataclass
class LetStmt:
    name: str
    value: "Expr"
    span: SourceSpan = field(compare=False)


@dataclass
class AssignStmt:
    name: str
    value: "Expr"
    span: SourceSpan = field(compare=False)


@dataclass
class ReturnStmt:
    value: Optional["Expr"]
    span: SourceSpan = field(compare=False)


@dataclass
class IfStmt:
    cond: "Expr"
    then: "Block"
    orelse: Optional[Union["Block", "IfStmt"]]
    span: SourceSpan = field(compare=False)


@dataclass
class WhileStmt:
    cond: "Expr"
    body: "Block"
    span: SourceSpan = field(compare=False)


@dataclass
class ExprStmt:
    expr: "Expr"
    span: SourceSpan = field(compare=False)


@dataclass
class Block:
    stmts: Tuple["Stmt", ...]
    span: SourceSpan = field(compare=False)


# --- declarations ----------------------------------------------------------


@dataclass
class FunctionDecl:
    name: str
    fn: Lambda
    span: SourceSpan = field(compare=False)


@dataclass
class ContextDecl:
    ctors: Tuple[str, ...]
    span: SourceSpan = field(compare=False)


@dataclass
class ModuleAst:
    name: str
    context_decl: Optional[ContextDecl]
    decls: Tuple[FunctionDecl, ...]
    span: SourceSpan = field(compare=False)


Expr = Union[
    IntLit, FloatLit, StringLit, BoolLit, NullLit,
    Ident, BinaryOp, UnaryOp, Call, MethodCall, Proceed, Lambda,
]

Stmt = Union[LetStmt, AssignStmt, ReturnStmt, IfStmt, WhileStmt, ExprStmt, Block]

Node = Union[Expr, Stmt, LayerAnnotation, FunctionDecl, ContextDecl, ModuleAst]

NODE_TYPES = get_args(Node)


# The fields walk reads of each node class, in declared order: all but the
# span, which is a tuple too but never holds a node.
_CHILD_FIELDS = {
    cls: tuple(f.name for f in fields(cls) if f.name != "span") for cls in NODE_TYPES
}


def walk(node: Node, into_lambdas: bool = True) -> Iterator[Node]:
    """Yield ``node`` and every AST node nested beneath it; nested lambdas
    and everything in them only if ``into_lambdas``."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for name in _CHILD_FIELDS[type(current)]:
            value = getattr(current, name)
            for child in value if type(value) is tuple else (value,):
                if isinstance(child, NODE_TYPES) and (
                    into_lambdas or not isinstance(child, Lambda)
                ):
                    stack.append(child)


def is_compact(lam: Lambda) -> bool:
    """True for the single-expression ``-> expr`` body form."""
    return not isinstance(lam.body, Block)
