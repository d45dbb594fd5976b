"""Arithmetic expression parsing and evaluation.

Exponents, weights, obstacles and multifunction endpoints are specified in
configuration files as plain expression strings such as ``"x*(1-x)"`` or
``"min(s, 3) * x"``.  This module turns those strings into immutable ASTs
and evaluates them in IEEE double precision, either on scalars or on numpy
arrays (broadcasting over quadrature points).

Grammar (recursive descent, standard precedence):

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right associative, binds above unary minus
    atom    := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Recognised calls: min, max (binary) and abs, exp, log, sin, cos, sqrt (unary).
Variable names are restricted to an allow-set declared at parse time.  Every
sub-expression passes through ``factor``, which makes nesting deeper than
``_MAX_DEPTH`` levels a syntax error before it exhausts Python's recursion.
A chain such as ``a + b - c ...`` does not nest: the parser reads it in a
loop into a left-deep tree, and evaluation and :func:`variables_of` walk
that tree without recursing along the chain, so a chain of any length
evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

__all__ = [
    "ExprError",
    "ExprSyntaxError",
    "ExprEvalError",
    "ExprAst",
    "parse_expression",
    "eval_expression",
]


class ExprError(ValueError):
    """Base class for expression errors."""


class ExprSyntaxError(ExprError):
    """Malformed input; carries the 1-based byte offset of the offending token."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprEvalError(ExprError):
    """Evaluation failure: unbound variable or numeric domain error."""


_UNARY_CALLS = ("abs", "exp", "log", "sin", "cos", "sqrt")
_BINARY_CALLS = ("min", "max")
_MAX_DEPTH = 100  # nesting levels the parser accepts, each about 5 Python frames


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' or one of _UNARY_CALLS
    arg: "ExprAst"


@dataclass(frozen=True)
class Binary:
    op: str  # '+', '-', '*', '/', '^', 'min', 'max'
    left: "ExprAst"
    right: "ExprAst"


ExprAst = Union[Const, Var, Unary, Binary]


# ---------------------------------------------------------------------------
# tokenizer


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind
        self.text = text
        self.offset = offset


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(_Token("number", text[i:j], i + 1))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i + 1))
            i = j
            continue
        if c in "+-*/^(),":
            tokens.append(_Token(c, c, i + 1))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i + 1)
    tokens.append(_Token("eof", "", n + 1))
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens, allowed_vars):
        self.tokens = tokens
        self.pos = 0
        self.allowed_vars = frozenset(allowed_vars)
        self.depth = 0  # sub-expressions open around the current token

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.offset
            )
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.offset)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = Binary(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = Binary(op, node, self.factor())
        return node

    def factor(self):
        if self.depth > _MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {_MAX_DEPTH} levels", self.peek().offset
            )
        self.depth += 1
        if self.peek().kind == "-":
            self.advance()
            node = Unary("neg", self.factor())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self):
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            # right associative; exponent may carry its own unary minus
            return Binary("^", base, self.factor())
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if self.peek().kind == "(":
                return self.call(tok)
            if tok.text not in self.allowed_vars:
                raise ExprSyntaxError(f"unknown identifier {tok.text!r}", tok.offset)
            return Var(tok.text)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ExprSyntaxError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.offset
        )

    def call(self, name_tok):
        name = name_tok.text
        if name not in _UNARY_CALLS and name not in _BINARY_CALLS:
            raise ExprSyntaxError(f"unknown identifier {name!r}", name_tok.offset)
        self.expect("(")
        args = [self.expr()]
        while self.peek().kind == ",":
            self.advance()
            args.append(self.expr())
        self.expect(")")
        arity = 1 if name in _UNARY_CALLS else 2
        if len(args) != arity:
            raise ExprSyntaxError(
                f"{name} takes {arity} argument(s), got {len(args)}", name_tok.offset
            )
        if arity == 1:
            return Unary(name, args[0])
        return Binary(name, args[0], args[1])


def parse_expression(text, allowed_vars=()):
    """Parse ``text`` into an AST whose variables are restricted to ``allowed_vars``."""
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(_tokenize(text), allowed_vars).parse()


# ---------------------------------------------------------------------------
# evaluation


def _check_finite(value, what):
    if not np.all(np.isfinite(value)):
        raise ExprEvalError(f"domain error: {what}")
    return value


def eval_expression(ast, bindings: Mapping[str, object]):
    """Evaluate ``ast`` with the given variable bindings.

    Bindings may be floats or numpy arrays; array bindings broadcast.  Raises
    :class:`ExprEvalError` on unbound variables, division by zero and other
    numeric domain errors (log of a nonpositive value, fractional power of a
    negative base, ...).
    """
    if isinstance(ast, Const):
        return ast.value
    if isinstance(ast, Var):
        try:
            return bindings[ast.name]
        except KeyError:
            raise ExprEvalError(f"unbound variable {ast.name!r}") from None
    if isinstance(ast, Unary):
        arg = eval_expression(ast.arg, bindings)
        if ast.op == "neg":
            return -np.asarray(arg) if isinstance(arg, np.ndarray) else -arg
        if ast.op == "abs":
            return np.abs(arg)
        if ast.op == "sqrt":
            if np.any(np.asarray(arg) < 0):
                raise ExprEvalError("domain error: sqrt of a negative value")
            return np.sqrt(arg)
        if ast.op == "log":
            if np.any(np.asarray(arg) <= 0):
                raise ExprEvalError("domain error: log of a nonpositive value")
            return np.log(arg)
        if ast.op == "exp":
            return _check_finite(np.exp(arg), "exp overflow")
        if ast.op == "sin":
            return np.sin(arg)
        if ast.op == "cos":
            return np.cos(arg)
        raise ExprEvalError(f"unknown unary operation {ast.op!r}")
    if isinstance(ast, Binary):
        # a flat chain a + b - c ... is a left-deep tree: walk its left spine in a
        # loop, so only right operands (whose depth the parser bounds) recurse
        spine = []
        while isinstance(ast, Binary):
            spine.append(ast)
            ast = ast.left
        value = eval_expression(ast, bindings)
        for node in reversed(spine):
            value = _binary(node.op, value, eval_expression(node.right, bindings))
        return value
    raise TypeError(f"not an expression node: {ast!r}")


def _binary(op, left, right):
    if op == "+":
        return np.add(left, right)
    if op == "-":
        return np.subtract(left, right)
    if op == "*":
        return np.multiply(left, right)
    if op == "/":
        if np.any(np.asarray(right) == 0):
            raise ExprEvalError("domain error: division by zero")
        return np.divide(left, right)
    if op == "^":
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out = np.power(np.asarray(left, dtype=float), right)
        return _check_finite(out, "power of a negative base or zero to a negative power")
    if op == "min":
        return np.minimum(left, right)
    if op == "max":
        return np.maximum(left, right)
    raise ExprEvalError(f"unknown binary operation {op!r}")


def variables_of(ast):
    """Return the set of variable names appearing in ``ast``."""
    names, stack = set(), [ast]
    while stack:  # no recursion, however long a chain
        node = stack.pop()
        if isinstance(node, Var):
            names.add(node.name)
        elif isinstance(node, Unary):
            stack.append(node.arg)
        elif isinstance(node, Binary):
            stack += (node.left, node.right)
        elif not isinstance(node, Const):
            raise TypeError(f"not an expression node: {node!r}")
    return names
