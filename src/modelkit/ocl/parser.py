"""Parser for the OCL subset.

Constraint files hold `context <Class> inv <name>: <expr>` blocks with
`--` line comments.  Operator precedence, loosest first: implies
(right-associative), or, and, =/<>, comparisons, +/-, */÷, unary not/-,
then navigation and `->` collection calls.  String literals are
single-quoted and carry no escape sequences.
"""

from __future__ import annotations

import re
from math import isfinite
from typing import Optional

from modelkit.diagnostics import MAX_DIGITS, Diagnostic, Record, SourceSpan, error, read_int
from modelkit.metamodel import FALSE, FloatV, IntV, NULL, StrV, TRUE
from modelkit.ocl.nodes import (
    Binary,
    CollectionOp,
    COLLECTION_OPS,
    If,
    Literal,
    Nav,
    NULLARY_OPS,
    OclConstraint,
    OclExpr,
    SelfRef,
    Unary,
    VarRef,
)

KEYWORDS = frozenset({
    "context", "inv", "self", "true", "false", "null",
    "not", "and", "or", "implies", "if", "then", "else", "endif",
})

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>--[^\n]*)
  | (?P<newline>\n)
  | (?P<float>\d+\.\d+)
  | (?P<int>\d+)
  | (?P<string>'[^'\n]*')
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<op><>|<=|>=|->|[()<>=+\-*/.,:|])
""", re.VERBOSE)


class Token(Record):
    """A lexical token (int, float, string, ident, op or eof) and its 1-based position."""

    _uncompared = ()  # its position counts

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind, self.text = kind, text
        self.line, self.column = line, column


# Left-associative binary operators, one set per level, loosest first.  An
# operator's text alone identifies it: no other token can carry that text.
_BINARY_LEVELS = (
    frozenset({"or"}),
    frozenset({"and"}),
    frozenset({"=", "<>"}),
    frozenset({"<", "<=", ">", ">="}),
    frozenset({"+", "-"}),
    frozenset({"*", "/"}),
)

# The keywords that spell a value; values are immutable, so literals share them.
_CONSTANTS = {"true": TRUE, "false": FALSE, "null": NULL}


class OclSyntaxError(Exception):
    def __init__(self, message: str, token: Token):
        super().__init__(message)
        self.token = token

    def diagnostic(self, filename: str) -> Diagnostic:
        return error("syntax", str(self),
                     SourceSpan(filename, self.token.line, self.token.column))


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise OclSyntaxError(f"unexpected character {text[pos]!r}",
                                 Token("error", text[pos], line, col))
        kind = m.lastgroup
        value = m.group()
        if kind == "newline":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(value)
        else:
            tokens.append(Token(kind, value, line, col))
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class OclParseResult(Record):
    """The constraints parsed from a file and the diagnostics reported."""

    def __init__(self, constraints: Optional[list[OclConstraint]] = None,
                 diagnostics: Optional[list[Diagnostic]] = None):
        self.constraints = [] if constraints is None else constraints
        self.diagnostics = [] if diagnostics is None else diagnostics

    @property
    def ok(self) -> bool:
        return not self.diagnostics


class _Parser:
    def __init__(self, tokens: list[Token], filename: str):
        self.tokens = tokens
        self.filename = filename
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        """Consume the operator or keyword spelled `text`: a token's text
        alone tells them apart, as strings keep their quotes."""
        tok = self.peek()
        if tok.text != text:
            raise OclSyntaxError(f"expected '{text}', found {tok.text!r}", tok)
        self.next()

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise OclSyntaxError(f"expected {what}, found {tok.text!r}", tok)
        return self.next()

    def parse_top(self) -> OclExpr:
        """parse_expression, with nesting too deep for the interpreter's
        stack reported as a syntax error at the token reached."""
        try:
            return self.parse_expression()
        except RecursionError:
            raise OclSyntaxError("expression nested too deeply", self.peek()) from None

    # Precedence ladder, loosest binding first.

    def parse_expression(self) -> OclExpr:
        lhs = self.parse_binary(0)
        if self.peek().text == "implies":
            self.next()
            return Binary("implies", lhs, self.parse_expression())
        return lhs

    def parse_binary(self, level: int) -> OclExpr:
        """Left-associative operators from `_BINARY_LEVELS[level]` on down."""
        if level == len(_BINARY_LEVELS):
            return self.parse_unary()
        ops = _BINARY_LEVELS[level]
        expr = self.parse_binary(level + 1)
        while (tok := self.peek()).text in ops:
            self.next()
            expr = Binary(tok.text, expr, self.parse_binary(level + 1))
        return expr

    def parse_unary(self) -> OclExpr:
        if (op := self.peek().text) in ("not", "-"):
            self.next()
            return Unary(op, self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> OclExpr:
        expr = self.parse_primary()
        while True:
            text = self.peek().text
            if text == ".":
                self.next()
                name = self.expect_ident("an attribute or association name")
                expr = Nav(expr, name.text)
            elif text == "->":
                self.next()
                expr = self.parse_collection_op(expr)
            else:
                return expr

    def parse_collection_op(self, source: OclExpr) -> OclExpr:
        op_tok = self.expect_ident("a collection operation")
        op = op_tok.text
        if op not in COLLECTION_OPS:
            raise OclSyntaxError(f"unknown collection operation '{op}'", op_tok)
        self.expect("(")
        if op in NULLARY_OPS:
            self.expect(")")
            return CollectionOp(source, op)
        if op == "includes":
            arg = self.parse_expression()
            self.expect(")")
            return CollectionOp(source, op, body=arg)
        # forAll / exists / select / collect: op(var | body)
        var = self.expect_ident("an iterator variable")
        self.expect("|")
        body = self.parse_expression()
        self.expect(")")
        return CollectionOp(source, op, var=var.text, body=body)

    def parse_primary(self) -> OclExpr:
        tok = self.peek()
        if tok.kind == "int":
            number = read_int(tok.text)
            if number is None:
                raise OclSyntaxError(f"integer literal of more than {MAX_DIGITS} digits", tok)
            self.next()
            return Literal(IntV(number))
        if tok.kind == "float":
            number = float(tok.text)
            if not isfinite(number):
                raise OclSyntaxError("float literal out of range", tok)
            self.next()
            return Literal(FloatV(number))
        if tok.kind == "string":
            self.next()
            return Literal(StrV(tok.text[1:-1]))
        if tok.text == "(":
            self.next()
            expr = self.parse_expression()
            self.expect(")")
            return expr
        if tok.kind == "ident":
            if tok.text in _CONSTANTS:
                self.next()
                return Literal(_CONSTANTS[tok.text])
            if tok.text == "self":
                self.next()
                return SelfRef()
            if tok.text == "if":
                return self.parse_if()
            if tok.text in KEYWORDS:
                raise OclSyntaxError(f"unexpected keyword '{tok.text}'", tok)
            self.next()
            return VarRef(tok.text)
        raise OclSyntaxError(f"unexpected token {tok.text!r}", tok)

    def parse_if(self) -> OclExpr:
        self.next()  # if
        condition = self.parse_expression()
        self.expect("then")
        then_branch = self.parse_expression()
        self.expect("else")
        else_branch = self.parse_expression()
        self.expect("endif")
        return If(condition, then_branch, else_branch)

    # Constraint blocks.

    def parse_constraints(self) -> OclParseResult:
        result = OclParseResult()
        names: set[str] = set()
        while self.peek().kind != "eof":
            try:
                start = self.peek()
                self.expect("context")
                ctx = self.expect_ident("a context class name")
                self.expect("inv")
                name = self.expect_ident("a constraint name")
                self.expect(":")
                body = self.parse_top()
                if name.text in names:
                    result.diagnostics.append(error(
                        "dup-constraint",
                        f"constraint '{name.text}' defined twice",
                        SourceSpan(self.filename, name.line, name.column)))
                else:
                    names.add(name.text)
                    result.constraints.append(OclConstraint(
                        context_class=ctx.text, name=name.text, body=body,
                        span=SourceSpan(self.filename, start.line, start.column)))
            except OclSyntaxError as exc:
                result.diagnostics.append(exc.diagnostic(self.filename))
                while (tok := self.peek()).text != "context" and tok.kind != "eof":
                    self.next()  # resume at the next constraint
        return result


def parse_ocl(text: str, filename: str = "<ocl>") -> OclParseResult:
    """Parse a constraint file into OclConstraints plus any diagnostics."""
    try:
        tokens = tokenize(text)
    except OclSyntaxError as exc:
        return OclParseResult(diagnostics=[exc.diagnostic(filename)])
    return _Parser(tokens, filename).parse_constraints()


def parse_expression(text: str, filename: str = "<expr>"
                     ) -> tuple[Optional[OclExpr], list[Diagnostic]]:
    """Parse a single standalone expression (used for FSM guards)."""
    try:
        parser = _Parser(tokenize(text), filename)
        expr = parser.parse_top()
        trailing = parser.peek()
        if trailing.kind != "eof":
            raise OclSyntaxError(f"unexpected trailing input {trailing.text!r}",
                                 trailing)
        return expr, []
    except OclSyntaxError as exc:
        return None, [exc.diagnostic(filename)]
