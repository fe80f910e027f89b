"""Lowering: variant tables, layered-name mangling, and the proceed check.

Before/after layers are rewritten here into replace-style bodies with an
implicit ``proceed()`` so that everything downstream (decision makers,
the chain executor) sees one uniform variant model:

* before base:  ``{ layerBody; return proceed() }``
* after base:   ``{ let $base = proceed(); layerBody; return $base }``

``$base`` cannot collide with user names because ``$`` is not a legal
identifier character in source.

``lower`` and ``compile_source`` run with the cyclic collector paused
(:func:`congo.nodes.gc_paused`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import nodes
from .errors import (
    ArityMismatchError,
    ManglingCollisionError,
    MissingBaseError,
    ProceedOutsideLayerError,
    RedefinitionError,
    UnknownContextError,
)
from .lexer import tokenize
from .parser import parse

MANGLE_MARKER = "__$context$__"


def mangle(name: str, constraints: Sequence[Tuple[str, str]]) -> str:
    """Render the runtime name of a layered variant.

    Constraint pairs are sorted lexicographically by context name so the
    result does not depend on annotation order.
    """
    if not constraints:
        raise ValueError("mangle requires at least one constraint")
    pairs = sorted(constraints, key=lambda cv: cv[0])
    return name + MANGLE_MARKER + "__".join(f"{ctx}_{meta}" for ctx, meta in pairs)


class VariantId(NamedTuple):
    # equal to a plain tuple of its fields: validate_response checks the type
    mangled_name: str
    declaration_index: int


@dataclass(frozen=True)
class VariantSpec:
    """What a decision maker is told about one variant."""

    variant_id: VariantId
    constraints: Tuple[Tuple[str, str], ...]  # () marks the base variant
    mode: nodes.LayerMode


@dataclass
class Variant:
    variant_id: VariantId
    constraints: Tuple[Tuple[str, str], ...]  # sorted by context name; () = base
    mode: nodes.LayerMode
    body: nodes.Lambda  # desugared for before/after layers
    arity: int
    # set by the runtime for object methods, which close over a frame
    closure_frame: object = field(default=None, repr=False, compare=False)

    @property
    def name(self) -> str:  # the name a call stack shows
        return self.variant_id.mangled_name


_NO_CHAIN = (object(), ())  # no reply's chain is this object


@dataclass(eq=False, slots=True)
class DispatchData:
    """What every contextual call of one table needs from it."""

    arity: int
    specs: Tuple[VariantSpec, ...]
    by_id: Dict[VariantId, Variant]
    # chains that passed validate_response -> the variants they name
    chains: Dict[Tuple[VariantId, ...], Tuple[Variant, ...]]
    # (the chain validate_response passed last, its variants); runtimes on
    # other threads share it, so it is read once and replaced whole
    last: Tuple = _NO_CHAIN


@dataclass
class VariantTable:
    function_name: str
    base: Optional[Variant] = None
    layers: List[Variant] = field(default_factory=list)
    # Built on the first contextual call and reset by add_variant.  Every
    # runtime of a module shares its tables, so nothing per-runtime goes here.
    dispatch: Optional[DispatchData] = field(default=None, repr=False, compare=False)

    def variants(self) -> List[Variant]:
        out = [self.base] if self.base is not None else []
        out.extend(self.layers)
        return out

    def missing_base_layer(self) -> Optional[Variant]:
        if self.base is not None:
            return None
        return next(
            (v for v in self.layers if v.mode is not nodes.LayerMode.REPLACE), None
        )

    def dispatch_data(self, span: Optional[nodes.SourceSpan] = None) -> DispatchData:
        """The table's dispatch data, built once.  While a before/after layer
        has no base to proceed to, a call at ``span`` is a MissingBaseError
        and nothing is cached."""
        data = self.dispatch
        if data is None:
            if self.missing_base_layer() is not None:
                raise MissingBaseError(
                    f"method '{self.function_name}' has a before/after layer "
                    "but no base variant to proceed to",
                    span,
                )
            variants = self.variants()
            data = self.dispatch = DispatchData(
                variants[0].arity,
                tuple(VariantSpec(v.variant_id, v.constraints, v.mode) for v in variants),
                {v.variant_id: v for v in variants},
                {},
            )
        return data


def desugar_lambda(lam: nodes.Lambda) -> nodes.Lambda:
    """Rewrite a before/after layer body into replace form, once per lambda:
    every variant ``define``d from one lambda shares one body."""
    mode = lam.annotation.mode
    if mode is nodes.LayerMode.REPLACE:
        return lam
    if lam.desugared is not None:
        return lam.desugared
    sp = lam.span
    if isinstance(lam.body, nodes.Block):
        stmts: Tuple[nodes.Stmt, ...] = lam.body.stmts
    else:
        stmts = (nodes.ExprStmt(lam.body, lam.body.span),)
    if mode is nodes.LayerMode.BEFORE_BASE:
        new_stmts = (*stmts, nodes.ReturnStmt(nodes.Proceed((), sp), sp))
    else:  # AFTER_BASE
        new_stmts = (
            nodes.LetStmt("$base", nodes.Proceed((), sp), sp),
            *stmts,
            nodes.ReturnStmt(nodes.Ident("$base", sp), sp),
        )
    # the rewrite resolves its names where the lambda it wraps stands
    body = nodes.Block(new_stmts, sp)
    lam.desugared = nodes.Lambda(lam.params, None, body, sp, outer=lam.outer)
    return lam.desugared


def add_variant(
    table: VariantTable,
    lam: nodes.Lambda,
    *,
    declared_contexts: Sequence[str],
    closure_frame: object = None,
    span: Optional[nodes.SourceSpan] = None,
) -> Variant:
    """Validate and append one declaration to a variant table.

    Shared by module lowering and the runtime ``define`` builtin: a
    single base, pairwise-distinct constraint sets, one arity per table,
    constraints only over declared contexts.
    """
    name = table.function_name
    span = span or lam.span
    table.dispatch = None
    arity = len(lam.params)
    existing = table.variants()
    if existing and existing[0].arity != arity:
        raise ArityMismatchError(
            f"variants of '{name}' disagree on arity "
            f"({existing[0].arity} vs {arity})",
            span,
        )
    index = len(existing)
    ann = lam.annotation
    if ann is None:
        if table.base is not None:
            raise RedefinitionError(f"base of '{name}' is already defined", span)
        variant = Variant(
            VariantId(name, index), (), nodes.LayerMode.REPLACE, lam, arity,
            closure_frame,
        )
        table.base = variant
        return variant

    constraints = tuple(sorted(ann.constraints, key=lambda cv: cv[0]))
    for ctx, _ in constraints:
        if ctx not in declared_contexts:
            raise UnknownContextError(
                f"constraint on '{name}' references undeclared context '{ctx}'",
                ann.span,
            )
    constraint_set = frozenset(constraints)
    mangled = mangle(name, constraints)
    for layer in table.layers:
        if frozenset(layer.constraints) == constraint_set:
            rendered = ", ".join(f"{c}={m}" for c, m in constraints)
            raise RedefinitionError(
                f"layer of '{name}' with constraints ({rendered}) is already defined",
                span,
            )
        if layer.variant_id.mangled_name == mangled:
            raise ManglingCollisionError(
                f"constraint sets of '{name}' mangle to the same runtime name "
                f"'{mangled}'; rename the contexts or meta values involved",
                span,
            )
    variant = Variant(
        VariantId(mangled, index),
        constraints,
        ann.mode,
        desugar_lambda(lam),
        arity,
        closure_frame,
    )
    table.layers.append(variant)
    return variant


@dataclass
class LoweredModule:
    name: str
    tables: Dict[str, VariantTable]
    context_ctors: Tuple[str, ...]
    ast: nodes.ModuleAst


@nodes.gc_paused
def lower(ast: nodes.ModuleAst) -> LoweredModule:
    declared = ast.context_decl.ctors if ast.context_decl is not None else ()
    tables: Dict[str, VariantTable] = {}
    for decl in ast.decls:
        table = tables.setdefault(decl.name, VariantTable(decl.name))
        add_variant(table, decl.fn, declared_contexts=declared, span=decl.span)

    for table in tables.values():
        offender = table.missing_base_layer()
        if offender is not None:
            raise MissingBaseError(
                f"function '{table.function_name}' has a before/after layer "
                "but no base variant to proceed to",
                offender.body.span,
            )

    # proceed may only appear where a dispatch chain can be active: in a
    # layer body, or in the base of a function that has layers (where it
    # fails at runtime once the chain is exhausted).  Nested lambdas are
    # runtime values whose role is unknown here: a local lambda's call
    # carries no chain, so a proceed() in one raises ProceedExhaustedError
    # when it runs.
    for decl in ast.decls:
        if decl.fn.annotation is None and not tables[decl.name].layers:
            for node in nodes.walk(decl.fn, into_lambdas=False):
                if type(node) is nodes.Proceed:
                    raise ProceedOutsideLayerError(
                        f"proceed in '{decl.name}', which has no layered variants",
                        node.span,
                    )

    return LoweredModule(ast.name, tables, tuple(declared), ast)


@nodes.gc_paused
def compile_source(source: str, file: str = "<string>") -> LoweredModule:
    """Tokenize, parse, and lower in one step."""
    return lower(parse(tokenize(source, file)))


def format_ir(lowered: LoweredModule) -> str:
    """Stable line-oriented dump of the variant tables."""
    lines = []
    for name in sorted(lowered.tables):
        table = lowered.tables[name]
        for variant in table.variants():
            constraints = ",".join(f"{c}={m}" for c, m in variant.constraints) or "-"
            lines.append(
                f"TABLE {name} VARIANT {variant.variant_id.mangled_name} "
                f"MODE {variant.mode.name} CONSTRAINTS {constraints}"
            )
    return "\n".join(lines)
