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

The parser reads the current token in place, and ``_statement``,
``_block`` and ``parse_module`` branch on its kind and text; only
lookahead past it clamps at the end, reading the EOF token there (see the
token plumbing).

``parse`` and ``parse_source`` run with the cyclic collector paused
(:func:`congo.nodes.gc_paused`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from . import nodes
from .errors import DuplicateBaseError, ParseError
from .lexer import Token, TokenKind, tokenize

# the token kinds as module constants: reading an Enum member off its class
# costs a Python-level attribute lookup every time
_IDENT, _KEYWORD, _PUNCT, _EOF = TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.PUNCT, TokenKind.EOF
_INT, _FLOAT, _STRING = TokenKind.INT, TokenKind.FLOAT, TokenKind.STRING

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
        if not self._tokens or self._tokens[-1].kind is not _EOF:
            raise ValueError("a token stream must end with its EOF token")
        self._pos = 0
        self._last = len(self._tokens) - 1

    # --- token plumbing ---------------------------------------------------
    #
    # The stream ends with its EOF token (checked above) and neither _accept
    # nor _expect consumes it, so the current token is always
    # self._tokens[self._pos]; only lookahead (offset > 0) clamps, reading
    # EOF past the end.  Tests compare a token's text before its kind: a
    # text rules out most tokens at once, and the kind then tells a
    # punctuator or keyword from a string with the same text.

    def _peek(self, offset: int = 0) -> Token:
        if offset:
            return self._tokens[min(self._pos + offset, self._last)]
        return self._tokens[self._pos]

    def _accept(self, text: str, kind: TokenKind = _PUNCT) -> Optional[Token]:
        """Consume and return the current token if it is ``kind`` with ``text``, else None."""
        tok = self._tokens[self._pos]
        if tok.text == text and tok.kind is kind:
            self._pos += 1
            return tok
        return None

    def _at_punct(self, text: str, offset: int = 0) -> bool:
        tok = self._peek(offset) if offset else self._tokens[self._pos]
        return tok.text == text and tok.kind is _PUNCT

    def _error(self, expected: Set[str]) -> ParseError:
        tok = self._tokens[self._pos]
        found = tok.text if tok.kind is not _EOF else "end of input"
        wanted = ", ".join(sorted(expected))
        return ParseError(
            f"expected {wanted}, found '{found}'", tok.span, expected=expected
        )

    def _expect(self, kind: TokenKind, text: Optional[str] = None,
                label: Optional[str] = None) -> Token:
        """Consume the current token if it is ``kind`` (never EOF) with ``text``."""
        tok = self._tokens[self._pos]
        if (text is None or tok.text == text) and tok.kind is kind:
            self._pos += 1
            return tok
        raise self._error({label or text or kind.value})

    # --- module and declarations -------------------------------------------

    def parse_module(self) -> nodes.ModuleAst:
        start = self._expect(_KEYWORD, "module")
        name = self._dotted_name()
        context_decl: Optional[nodes.ContextDecl] = None
        decls: List[nodes.FunctionDecl] = []
        base_names: Set[str] = set()
        tokens = self._tokens
        while (tok := tokens[self._pos]).kind is not _EOF:
            if tok.text == "function" and tok.kind is _KEYWORD:
                decl = self._function_decl()
                if decl.fn.annotation is None:
                    if decl.name in base_names:
                        raise DuplicateBaseError(
                            f"duplicate base definition of function '{decl.name}'",
                            decl.span,
                        )
                    base_names.add(decl.name)
                decls.append(decl)
            elif (tok.text == "contexts" and tok.kind is _IDENT
                  and self._at_punct("=", 1) and self._at_punct("[", 2)):
                if context_decl is not None:
                    raise ParseError(
                        "duplicate contexts declaration",
                        tok.span,
                        expected={"function"},
                    )
                context_decl = self._context_decl()
            else:
                raise self._error({"function", "contexts"})
        return nodes.ModuleAst(name, context_decl, tuple(decls), start.span)

    def _dotted_name(self) -> str:
        parts = [self._expect(_IDENT, label="module name").text]
        while self._accept("."):
            parts.append(self._expect(_IDENT, label="name segment").text)
        return ".".join(parts)

    def _context_decl(self) -> nodes.ContextDecl:
        start = self._expect(_IDENT, "contexts")
        self._expect(_PUNCT, "=")
        self._expect(_PUNCT, "[")
        ctors = [self._ctor()]
        while self._accept(","):
            ctors.append(self._ctor())
        self._expect(_PUNCT, "]")
        return nodes.ContextDecl(tuple(ctors), start.span)

    def _ctor(self) -> str:
        name = self._expect(_IDENT, label="context constructor").text
        self._expect(_PUNCT, "(")
        self._expect(_PUNCT, ")")
        return name

    def _function_decl(self) -> nodes.FunctionDecl:
        start = self._expect(_KEYWORD, "function")
        name = self._expect(_IDENT, label="function name").text
        self._expect(_PUNCT, "=")
        fn = self._lambda()
        return nodes.FunctionDecl(name, fn, start.span)

    # --- lambdas and annotations --------------------------------------------

    def _lambda(self) -> nodes.Lambda:
        start = self._peek()
        params = self._params()
        annotation = self._annotation()
        if self._accept("->"):
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
        if self._accept("||"):
            return []
        self._expect(_PUNCT, "|")
        params: List[str] = []
        if not self._at_punct("|"):
            while True:
                tok = self._expect(_IDENT, label="parameter name")
                if tok.text in params:
                    raise ParseError(
                        f"duplicate parameter '{tok.text}'", tok.span,
                        expected={"a distinct parameter name"},
                    )
                params.append(tok.text)
                if not self._accept(","):
                    break
        self._expect(_PUNCT, "|")
        return params

    def _annotation(self) -> Optional[nodes.LayerAnnotation]:
        start = self._tokens[self._pos]
        if start.kind is not _PUNCT:
            return None
        if start.text == "+" and self._at_punct("@(", 1):
            self._pos += 1
            constraints = self._constraints()
            return nodes.LayerAnnotation(constraints, nodes.LayerMode.AFTER_BASE, start.span)
        if start.text == "@(":
            constraints = self._constraints()
            mode = nodes.LayerMode.BEFORE_BASE if self._accept("+") else nodes.LayerMode.REPLACE
            return nodes.LayerAnnotation(constraints, mode, start.span)
        return None

    def _constraints(self) -> Tuple[Tuple[str, str], ...]:
        self._expect(_PUNCT, "@(")
        pairs: List[Tuple[str, str]] = []
        seen: Set[str] = set()
        while True:
            ctx = self._expect(_IDENT, label="context name")
            if ctx.text in seen:
                raise ParseError(
                    f"duplicate context '{ctx.text}' in annotation", ctx.span,
                    expected={"a distinct context name"},
                )
            seen.add(ctx.text)
            self._expect(_PUNCT, "=")
            meta = self._expect(_IDENT, label="meta value")
            pairs.append((ctx.text, meta.text))
            if not self._accept(","):
                break
        self._expect(_PUNCT, ")")
        return tuple(pairs)

    # --- statements -----------------------------------------------------------

    def _block(self) -> nodes.Block:
        start = self._expect(_PUNCT, "{")
        stmts: List[nodes.Stmt] = []
        tokens = self._tokens
        while (tok := tokens[self._pos]).text != "}" or tok.kind is not _PUNCT:
            if tok.kind is _EOF:
                raise self._error({"}"})
            stmts.append(self._statement())
        self._pos += 1
        return nodes.Block(tuple(stmts), start.span)

    def _statement(self) -> nodes.Stmt:
        tok = self._tokens[self._pos]
        kind, text = tok.kind, tok.text
        if kind is _KEYWORD:
            if text == "let":
                self._pos += 1
                name = self._expect(_IDENT, label="variable name").text
                self._expect(_PUNCT, "=")
                return nodes.LetStmt(name, self._expression(), tok.span)
            if text == "return":
                self._pos += 1
                # the value must start on the return's own line; a value-looking
                # token on the next line is the start of the next statement
                same_line = self._tokens[self._pos].span.line == tok.span.line
                value = self._expression() if same_line and self._starts_value() else None
                return nodes.ReturnStmt(value, tok.span)
            if text == "if":
                return self._if_stmt()
            if text == "while":
                self._pos += 1
                cond = self._expression()
                return nodes.WhileStmt(cond, self._block(), tok.span)
        elif text == "{" and kind is _PUNCT:
            return self._block()
        elif kind is _IDENT and self._at_punct("=", 1):
            self._pos += 2
            return nodes.AssignStmt(text, self._expression(), tok.span)
        expr = self._expression()
        return nodes.ExprStmt(expr, expr.span)

    def _if_stmt(self) -> nodes.IfStmt:
        start = self._tokens[self._pos]  # 'if'
        self._pos += 1
        cond = self._expression()
        then = self._block()
        orelse: Optional[nodes.Block | nodes.IfStmt] = None
        if self._accept("else", _KEYWORD):
            tok = self._tokens[self._pos]
            if tok.text == "if" and tok.kind is _KEYWORD:
                orelse = self._if_stmt()
            else:
                orelse = self._block()
        return nodes.IfStmt(cond, then, orelse, start.span)

    def _starts_value(self) -> bool:
        tok = self._peek()
        if tok.kind in (_INT, _FLOAT, _STRING, _IDENT):
            return True
        if tok.kind is _KEYWORD and tok.text in _VALUE_START_KEYWORDS:
            return True
        return tok.kind is _PUNCT and tok.text in _VALUE_START_PUNCT

    # --- expressions -----------------------------------------------------------

    def _expression(self, min_level: int = 0) -> nodes.Expr:
        """Precedence climbing: one loop covers every level, so a nested operand costs
        one frame, not one per level."""
        left = self._unary()
        tokens = self._tokens
        while True:
            tok = tokens[self._pos]
            level = PRECEDENCE.get(tok.text)
            if (
                level is None
                or level < min_level
                or tok.kind is not _PUNCT
                # an operator continues the expression only from the operand's
                # line; break after an operator, never before one
                or tok.span.line != tokens[self._pos - 1].span.line
            ):
                return left
            self._pos += 1
            right = self._expression(level + 1)
            left = nodes.BinaryOp(tok.text, left, right, tok.span)

    def _unary(self) -> nodes.Expr:
        tok = self._tokens[self._pos]
        if (tok.text == "-" and tok.kind is _PUNCT) or (
            tok.text == "not" and tok.kind is _KEYWORD
        ):
            self._pos += 1
            return nodes.UnaryOp(tok.text, self._unary(), tok.span)
        return self._postfix()

    def _postfix(self) -> nodes.Expr:
        expr = self._primary()
        tokens = self._tokens
        while (
            (colon := tokens[self._pos]).text == ":"
            and colon.kind is _PUNCT
            and colon.span.line == tokens[self._pos - 1].span.line
            and self._peek(1).kind is _IDENT
            and self._at_punct("(", 2)
        ):
            self._pos += 2
            name = tokens[self._pos - 1].text
            args = self._call_args()
            expr = nodes.MethodCall(expr, name, args, colon.span)
        return expr

    def _primary(self) -> nodes.Expr:
        tok = self._tokens[self._pos]
        kind = tok.kind
        if kind is _IDENT:
            self._pos += 1
            nxt = self._tokens[self._pos]
            if nxt.text == "(" and nxt.kind is _PUNCT and nxt.span.line == tok.span.line:
                if tok.text == "proceed":
                    return nodes.Proceed(self._call_args(), tok.span)
                return nodes.Call(tok.text, self._call_args(), tok.span)
            return nodes.Ident(tok.text, tok.span)
        if kind is _INT:
            self._pos += 1
            return nodes.IntLit(tok.value, tok.span)
        if kind is _PUNCT and tok.text == "(":
            self._pos += 1
            expr = self._expression()
            self._expect(_PUNCT, ")")
            return expr
        if kind is _PUNCT and tok.text in ("|", "||"):
            return self._lambda()
        if kind is _FLOAT:
            self._pos += 1
            return nodes.FloatLit(tok.value, tok.span)
        if kind is _STRING:
            self._pos += 1
            return nodes.StringLit(tok.value, tok.span)
        if kind is _KEYWORD and tok.text in ("true", "false"):
            self._pos += 1
            return nodes.BoolLit(tok.text == "true", tok.span)
        if kind is _KEYWORD and tok.text == "null":
            self._pos += 1
            return nodes.NullLit(tok.span)
        raise self._error({"a literal", "an identifier", "(", "|"})

    def _call_args(self) -> Tuple[nodes.Expr, ...]:
        self._expect(_PUNCT, "(")
        if self._accept(")"):
            return ()
        args = [self._expression()]
        while self._accept(","):
            args.append(self._expression())
        self._expect(_PUNCT, ")")
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
