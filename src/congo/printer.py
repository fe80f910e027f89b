"""Pretty-printer producing parseable ConGo source from an AST.

Formatting preserves structure exactly: for any module in the test
corpus, ``parse(format_module(parse(src)))`` equals ``parse(src)``.
"""

from __future__ import annotations

from decimal import Decimal

from . import nodes
from .parser import PRECEDENCE

_UNARY_PREC = max(PRECEDENCE.values()) + 1

_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def _escape(text: str) -> str:
    return "".join(_STRING_ESCAPES.get(c, c) for c in text)


def format_expr(expr: nodes.Expr, indent: int = 0, parent_prec: int = 0) -> str:
    if isinstance(expr, nodes.IntLit):
        return str(expr.value)
    if isinstance(expr, nodes.FloatLit):
        # positional, as the lexer reads it: repr would give 1e+23 or 1e-05
        text = format(Decimal(repr(expr.value)), "f")
        return text if "." in text else text + ".0"
    if isinstance(expr, nodes.StringLit):
        return f'"{_escape(expr.value)}"'
    if isinstance(expr, nodes.BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, nodes.NullLit):
        return "null"
    if isinstance(expr, nodes.Ident):
        return expr.name
    if isinstance(expr, nodes.Proceed):
        return f"proceed({_args(expr.args, indent)})"
    if isinstance(expr, nodes.Call):
        return f"{expr.callee}({_args(expr.args, indent)})"
    if isinstance(expr, nodes.MethodCall):
        receiver = format_expr(expr.receiver, indent, _UNARY_PREC + 1)
        return f"{receiver}: {expr.name}({_args(expr.args, indent)})"
    if isinstance(expr, nodes.UnaryOp):
        operand = format_expr(expr.operand, indent, _UNARY_PREC)
        text = f"not {operand}" if expr.op == "not" else f"-{operand}"
        return f"({text})" if parent_prec > _UNARY_PREC else text
    if isinstance(expr, nodes.BinaryOp):
        prec = PRECEDENCE[expr.op]
        left = format_expr(expr.left, indent, prec)
        right = format_expr(expr.right, indent, prec + 1)
        text = f"{left} {expr.op} {right}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(expr, nodes.Lambda):
        return format_lambda(expr, indent)
    raise TypeError(f"unknown expression node: {expr!r}")


def _args(args, indent: int) -> str:
    return ", ".join(format_expr(a, indent) for a in args)


def _annotation(ann: nodes.LayerAnnotation) -> str:
    body = ", ".join(f"{ctx}={meta}" for ctx, meta in ann.constraints)
    if ann.mode is nodes.LayerMode.AFTER_BASE:
        return f"+@({body})"
    if ann.mode is nodes.LayerMode.BEFORE_BASE:
        return f"@({body})+"
    return f"@({body})"


def format_lambda(lam: nodes.Lambda, indent: int = 0) -> str:
    params = f"|{', '.join(lam.params)}|" if lam.params else "||"
    ann = _annotation(lam.annotation) if lam.annotation else ""
    if nodes.is_compact(lam):
        return f"{params}{ann} -> {format_expr(lam.body, indent)}"
    return f"{params}{ann} {_format_block(lam.body, indent)}"


def _format_block(block: nodes.Block, indent: int) -> str:
    if not block.stmts:
        return "{\n" + "  " * indent + "}"
    inner = "\n".join(format_stmt(s, indent + 1) for s in block.stmts)
    return "{\n" + inner + "\n" + "  " * indent + "}"


def format_stmt(stmt: nodes.Stmt, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(stmt, nodes.LetStmt):
        return f"{pad}let {stmt.name} = {format_expr(stmt.value, indent)}"
    if isinstance(stmt, nodes.AssignStmt):
        return f"{pad}{stmt.name} = {format_expr(stmt.value, indent)}"
    if isinstance(stmt, nodes.ReturnStmt):
        if stmt.value is None:
            return f"{pad}return"
        return f"{pad}return {format_expr(stmt.value, indent)}"
    if isinstance(stmt, nodes.IfStmt):
        return pad + _format_if(stmt, indent)
    if isinstance(stmt, nodes.WhileStmt):
        cond = format_expr(stmt.cond, indent)
        return f"{pad}while {cond} {_format_block(stmt.body, indent)}"
    if isinstance(stmt, nodes.ExprStmt):
        return f"{pad}{format_expr(stmt.expr, indent)}"
    if isinstance(stmt, nodes.Block):
        return f"{pad}{_format_block(stmt, indent)}"
    raise TypeError(f"unknown statement node: {stmt!r}")


def _format_if(stmt: nodes.IfStmt, indent: int) -> str:
    cond = format_expr(stmt.cond, indent)
    text = f"if {cond} {_format_block(stmt.then, indent)}"
    if isinstance(stmt.orelse, nodes.IfStmt):
        text += " else " + _format_if(stmt.orelse, indent)
    elif isinstance(stmt.orelse, nodes.Block):
        text += f" else {_format_block(stmt.orelse, indent)}"
    return text


def format_module(module: nodes.ModuleAst) -> str:
    parts = [f"module {module.name}"]
    if module.context_decl is not None:
        ctors = ", ".join(f"{name}()" for name in module.context_decl.ctors)
        parts.append(f"contexts = [{ctors}]")
    for decl in module.decls:
        parts.append(f"function {decl.name} = {format_lambda(decl.fn, 0)}")
    return "\n\n".join(parts) + "\n"
