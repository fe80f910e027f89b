"""Recursive-descent parser for ConGo modules.

Grammar sketch::

    module        := "module" dotted_name decl*
    decl          := context_decl | function_decl
    context_decl  := "contexts" "=" "[" ctor ("," ctor)* "]"
    ctor          := IDENT "(" ")"
    function_decl := "function" IDENT "=" lambda
    lambda        := "|" params? "|" annotation? (("->" expr) | block)
    annotation    := "+@(" constraints ")"        # after base
                   | "@(" constraints ")" "+"     # before base
                   | "@(" constraints ")"         # replace

The language has no statement separators.  Four same-line rules keep
statement boundaries unambiguous: a call's ``(`` must sit on the same
line as the callee; a method call's ``:`` must sit on the same line as
the receiver's last token; a ``return`` value must start on the
``return``'s line; and an infix operator must sit on the same line as
the operand it follows (break a long expression after an operator,
never before one).

``parse`` and ``parse_source`` run with the cyclic collector paused
(:func:`congo.nodes.gc_paused`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from . import nodes
from .errors import DuplicateBaseError, ParseError
from .lexer import Token, TokenKind, tokenize

_VALUE_START_PUNCT = {"(", "|", "||", "-"}
_VALUE_START_KEYWORDS = {"true", "false", "null", "not"}

# binding strength of each infix operator, loosest first; all are
# left-associative.  The printer parenthesises by the same table.
PRECEDENCE = {
    "||": 0, "&&": 1, "==": 2, "!=": 2, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4, "*": 5, "/": 5, "%": 5,
}


class Parser:
    def __init__(self, tokens: Sequence[Token]):
        self._tokens = list(tokens)
        self._pos = 0

    # --- token plumbing ---------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        pos = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[pos]

    def _prev(self) -> Token:
        return self._tokens[self._pos - 1]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind is not TokenKind.EOF:
            self._pos += 1
        return tok

    def _at(self, kind: TokenKind, text: Optional[str] = None) -> bool:
        tok = self._peek()
        return tok.kind is kind and (text is None or tok.text == text)

    def _at_punct(self, text: str, offset: int = 0) -> bool:
        tok = self._peek(offset)
        return tok.kind is TokenKind.PUNCT and tok.text == text

    def _error(self, expected: Set[str]) -> ParseError:
        tok = self._peek()
        found = tok.text if tok.kind is not TokenKind.EOF else "end of input"
        wanted = ", ".join(sorted(expected))
        return ParseError(
            f"expected {wanted}, found '{found}'", tok.span, expected=expected
        )

    def _expect(self, kind: TokenKind, text: Optional[str] = None,
                label: Optional[str] = None) -> Token:
        if self._at(kind, text):
            return self._advance()
        raise self._error({label or text or kind.value})

    # --- module and declarations -------------------------------------------

    def parse_module(self) -> nodes.ModuleAst:
        start = self._expect(TokenKind.KEYWORD, "module")
        name = self._dotted_name()
        context_decl: Optional[nodes.ContextDecl] = None
        decls: List[nodes.FunctionDecl] = []
        base_names: Set[str] = set()
        while not self._at(TokenKind.EOF):
            if self._at(TokenKind.KEYWORD, "function"):
                decl = self._function_decl()
                if decl.fn.annotation is None:
                    if decl.name in base_names:
                        raise DuplicateBaseError(
                            f"duplicate base definition of function '{decl.name}'",
                            decl.span,
                        )
                    base_names.add(decl.name)
                decls.append(decl)
            elif self._is_context_decl_start():
                if context_decl is not None:
                    raise ParseError(
                        "duplicate contexts declaration",
                        self._peek().span,
                        expected={"function"},
                    )
                context_decl = self._context_decl()
            else:
                raise self._error({"function", "contexts"})
        return nodes.ModuleAst(name, context_decl, tuple(decls), start.span)

    def _dotted_name(self) -> str:
        parts = [self._expect(TokenKind.IDENT, label="module name").text]
        while self._at_punct("."):
            self._advance()
            parts.append(self._expect(TokenKind.IDENT, label="name segment").text)
        return ".".join(parts)

    def _is_context_decl_start(self) -> bool:
        return (
            self._at(TokenKind.IDENT)
            and self._peek().text == "contexts"
            and self._at_punct("=", 1)
            and self._at_punct("[", 2)
        )

    def _context_decl(self) -> nodes.ContextDecl:
        start = self._advance()  # 'contexts'
        self._expect(TokenKind.PUNCT, "=")
        self._expect(TokenKind.PUNCT, "[")
        ctors = [self._ctor()]
        while self._at_punct(","):
            self._advance()
            ctors.append(self._ctor())
        self._expect(TokenKind.PUNCT, "]")
        return nodes.ContextDecl(tuple(ctors), start.span)

    def _ctor(self) -> str:
        name = self._expect(TokenKind.IDENT, label="context constructor").text
        self._expect(TokenKind.PUNCT, "(")
        self._expect(TokenKind.PUNCT, ")")
        return name

    def _function_decl(self) -> nodes.FunctionDecl:
        start = self._advance()  # 'function'
        name = self._expect(TokenKind.IDENT, label="function name").text
        self._expect(TokenKind.PUNCT, "=")
        fn = self._lambda()
        return nodes.FunctionDecl(name, fn, start.span)

    # --- lambdas and annotations --------------------------------------------

    def _lambda(self) -> nodes.Lambda:
        start = self._peek()
        params = self._params()
        annotation = self._annotation()
        if self._at_punct("->"):
            self._advance()
            body: nodes.Block | nodes.Expr = self._expression()
        elif self._at_punct("{"):
            body = self._block()
        else:
            expected = {"->", "{"}
            if annotation is None:
                expected.add("@(")
            raise self._error(expected)
        return nodes.Lambda(tuple(params), annotation, body, start.span)

    def _params(self) -> List[str]:
        if self._at_punct("||"):
            self._advance()
            return []
        self._expect(TokenKind.PUNCT, "|")
        params: List[str] = []
        if not self._at_punct("|"):
            while True:
                tok = self._expect(TokenKind.IDENT, label="parameter name")
                if tok.text in params:
                    raise ParseError(
                        f"duplicate parameter '{tok.text}'", tok.span,
                        expected={"a distinct parameter name"},
                    )
                params.append(tok.text)
                if self._at_punct(","):
                    self._advance()
                    continue
                break
        self._expect(TokenKind.PUNCT, "|")
        return params

    def _annotation(self) -> Optional[nodes.LayerAnnotation]:
        if self._at_punct("+") and self._at_punct("@(", 1):
            start = self._advance()  # '+'
            constraints = self._constraints()
            return nodes.LayerAnnotation(constraints, nodes.LayerMode.AFTER_BASE, start.span)
        if self._at_punct("@("):
            start = self._peek()
            constraints = self._constraints()
            if self._at_punct("+"):
                self._advance()
                mode = nodes.LayerMode.BEFORE_BASE
            else:
                mode = nodes.LayerMode.REPLACE
            return nodes.LayerAnnotation(constraints, mode, start.span)
        return None

    def _constraints(self) -> Tuple[Tuple[str, str], ...]:
        self._expect(TokenKind.PUNCT, "@(")
        pairs: List[Tuple[str, str]] = []
        seen: Set[str] = set()
        while True:
            ctx = self._expect(TokenKind.IDENT, label="context name")
            if ctx.text in seen:
                raise ParseError(
                    f"duplicate context '{ctx.text}' in annotation", ctx.span,
                    expected={"a distinct context name"},
                )
            seen.add(ctx.text)
            self._expect(TokenKind.PUNCT, "=")
            meta = self._expect(TokenKind.IDENT, label="meta value")
            pairs.append((ctx.text, meta.text))
            if self._at_punct(","):
                self._advance()
                continue
            break
        self._expect(TokenKind.PUNCT, ")")
        return tuple(pairs)

    # --- statements -----------------------------------------------------------

    def _block(self) -> nodes.Block:
        start = self._expect(TokenKind.PUNCT, "{")
        stmts: List[nodes.Stmt] = []
        while not self._at_punct("}"):
            if self._at(TokenKind.EOF):
                raise self._error({"}"})
            stmts.append(self._statement())
        self._expect(TokenKind.PUNCT, "}")
        return nodes.Block(tuple(stmts), start.span)

    def _statement(self) -> nodes.Stmt:
        if self._at(TokenKind.KEYWORD, "let"):
            start = self._advance()
            name = self._expect(TokenKind.IDENT, label="variable name").text
            self._expect(TokenKind.PUNCT, "=")
            return nodes.LetStmt(name, self._expression(), start.span)
        if self._at(TokenKind.KEYWORD, "return"):
            start = self._advance()
            # the value must start on the return's own line; a value-looking
            # token on the next line is the start of the next statement
            same_line = self._peek().span.line == start.span.line
            value = self._expression() if same_line and self._starts_value() else None
            return nodes.ReturnStmt(value, start.span)
        if self._at(TokenKind.KEYWORD, "if"):
            return self._if_stmt()
        if self._at(TokenKind.KEYWORD, "while"):
            start = self._advance()
            cond = self._expression()
            return nodes.WhileStmt(cond, self._block(), start.span)
        if self._at_punct("{"):
            return self._block()
        if self._at(TokenKind.IDENT) and self._at_punct("=", 1):
            tok = self._advance()
            self._advance()  # '='
            return nodes.AssignStmt(tok.text, self._expression(), tok.span)
        expr = self._expression()
        return nodes.ExprStmt(expr, expr.span)

    def _if_stmt(self) -> nodes.IfStmt:
        start = self._advance()  # 'if'
        cond = self._expression()
        then = self._block()
        orelse: Optional[nodes.Block | nodes.IfStmt] = None
        if self._at(TokenKind.KEYWORD, "else"):
            self._advance()
            if self._at(TokenKind.KEYWORD, "if"):
                orelse = self._if_stmt()
            else:
                orelse = self._block()
        return nodes.IfStmt(cond, then, orelse, start.span)

    def _starts_value(self) -> bool:
        tok = self._peek()
        if tok.kind in (TokenKind.INT, TokenKind.FLOAT, TokenKind.STRING, TokenKind.IDENT):
            return True
        if tok.kind is TokenKind.KEYWORD and tok.text in _VALUE_START_KEYWORDS:
            return True
        return tok.kind is TokenKind.PUNCT and tok.text in _VALUE_START_PUNCT

    # --- expressions -----------------------------------------------------------

    def _expression(self, min_level: int = 0) -> nodes.Expr:
        """Precedence climbing: one loop covers every level, so a nested operand costs
        one frame, not one per level."""
        left = self._unary()
        while True:
            tok = self._peek()
            level = PRECEDENCE.get(tok.text) if tok.kind is TokenKind.PUNCT else None
            if (
                level is None
                or level < min_level
                # an operator continues the expression only from the operand's
                # line; break after an operator, never before one
                or tok.span.line != self._prev().span.line
            ):
                return left
            self._advance()
            right = self._expression(level + 1)
            left = nodes.BinaryOp(tok.text, left, right, tok.span)

    def _unary(self) -> nodes.Expr:
        if self._at_punct("-"):
            tok = self._advance()
            return nodes.UnaryOp("-", self._unary(), tok.span)
        if self._at(TokenKind.KEYWORD, "not"):
            tok = self._advance()
            return nodes.UnaryOp("not", self._unary(), tok.span)
        return self._postfix()

    def _postfix(self) -> nodes.Expr:
        expr = self._primary()
        while (
            self._at_punct(":")
            and self._peek().span.line == self._prev().span.line
            and self._peek(1).kind is TokenKind.IDENT
            and self._at_punct("(", 2)
        ):
            colon = self._advance()
            name = self._advance().text
            args = self._call_args()
            expr = nodes.MethodCall(expr, name, args, colon.span)
        return expr

    def _primary(self) -> nodes.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.INT:
            self._advance()
            return nodes.IntLit(tok.value, tok.span)
        if tok.kind is TokenKind.FLOAT:
            self._advance()
            return nodes.FloatLit(tok.value, tok.span)
        if tok.kind is TokenKind.STRING:
            self._advance()
            return nodes.StringLit(tok.value, tok.span)
        if tok.kind is TokenKind.KEYWORD and tok.text in ("true", "false"):
            self._advance()
            return nodes.BoolLit(tok.text == "true", tok.span)
        if tok.kind is TokenKind.KEYWORD and tok.text == "null":
            self._advance()
            return nodes.NullLit(tok.span)
        if tok.kind is TokenKind.IDENT:
            self._advance()
            call_follows = (
                self._at_punct("(") and self._peek().span.line == tok.span.line
            )
            if tok.text == "proceed" and call_follows:
                return nodes.Proceed(self._call_args(), tok.span)
            if call_follows:
                return nodes.Call(tok.text, self._call_args(), tok.span)
            return nodes.Ident(tok.text, tok.span)
        if tok.kind is TokenKind.PUNCT and tok.text == "(":
            self._advance()
            expr = self._expression()
            self._expect(TokenKind.PUNCT, ")")
            return expr
        if tok.kind is TokenKind.PUNCT and tok.text in ("|", "||"):
            return self._lambda()
        raise self._error({"a literal", "an identifier", "(", "|"})

    def _call_args(self) -> Tuple[nodes.Expr, ...]:
        self._expect(TokenKind.PUNCT, "(")
        args: List[nodes.Expr] = []
        if not self._at_punct(")"):
            args.append(self._expression())
            while self._at_punct(","):
                self._advance()
                args.append(self._expression())
        self._expect(TokenKind.PUNCT, ")")
        return tuple(args)


@nodes.gc_paused
def parse(tokens: Sequence[Token]) -> nodes.ModuleAst:
    """Parse a token stream (as produced by :func:`congo.lexer.tokenize`)."""
    parser = Parser(tokens)
    try:
        return parser.parse_module()
    except RecursionError:  # the descent recurses once per nesting level
        raise ParseError("nesting too deep", parser._peek().span) from None


@nodes.gc_paused
def parse_source(source: str, file: str = "<string>") -> nodes.ModuleAst:
    return parse(tokenize(source, file))
