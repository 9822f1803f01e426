"""Parser for algebra expressions used by the command-line tools.

Grammar:

    expr   := ("+" | "-")? term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := atom ("^" int)?
    atom   := rational | "q" ("^" int)? | gen | "(" expr ")"
    gen    := ("x" | "d" | "a") posint

An optional sign before the first term is accepted so that printed
elements (which may lead with a negative coefficient) parse back.
Parentheses nest at most MAX_NESTING deep.
Tokenization is leftmost-longest; offsets are byte positions into the
source and are carried through to error messages.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .pbw import PBWAlgebra, PBWElement


MAX_NESTING = 100  # deepest parenthesis nesting; keeps parsing within the stack


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<gen>[xda]\d+)
  | (?P<q>q)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<op>[-+*^()])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    offset: int


def tokenize(src: str) -> list[Token]:
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            out.append(Token(kind, m.group(), pos))
        pos = m.end()
    return out


# -- AST ------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Fraction
    offset: int

    def eval(self, algebra: PBWAlgebra) -> PBWElement:
        return algebra.scalar_element(algebra.field.scalar(self.value))


@dataclass(frozen=True)
class QPower:
    exponent: int
    offset: int

    def eval(self, algebra: PBWAlgebra) -> PBWElement:
        return algebra.scalar_element(algebra.field.qpow(self.exponent))


@dataclass(frozen=True)
class Gen:
    kind: str  # "x" | "d" | "a"
    index: int
    offset: int

    def eval(self, algebra: PBWAlgebra) -> PBWElement:
        if self.kind == "x":
            return algebra.x(self.index)
        if self.kind == "d":
            return algebra.d(self.index)
        return algebra.alpha(self.index)


@dataclass(frozen=True)
class Power:
    base: "Node"
    exponent: int
    offset: int

    def eval(self, algebra: PBWAlgebra) -> PBWElement:
        v = self.base.eval(algebra)
        if self.exponent >= 0:
            return v ** self.exponent
        s = _as_scalar(v)
        if s is None:
            raise ValueError("negative power of a non-scalar expression")
        return algebra.scalar_element(_negative_power(s, self.exponent, self.offset))


@dataclass(frozen=True)
class Product:
    factors: tuple
    offset: int

    def eval(self, algebra: PBWAlgebra) -> PBWElement:
        out = algebra.one()
        for f in self.factors:
            out = out * f.eval(algebra)
        return out


@dataclass(frozen=True)
class Sum:
    terms: tuple  # of (sign, node) with sign in {1, -1}
    offset: int

    def eval(self, algebra: PBWAlgebra) -> PBWElement:
        out = algebra.zero()
        for sign, node in self.terms:
            v = node.eval(algebra)
            out = out + v if sign > 0 else out - v
        return out


Node = Union[Num, QPower, Gen, Power, Product, Sum]


def _negative_power(s, e: int, offset: int):
    """s ** e for e < 0, with a zero base as a ValueError."""
    if not s:
        raise ValueError(f"negative power of zero (at byte {offset})")
    return s.inverse() ** (-e)


def _as_scalar(v: PBWElement):
    """The scalar when v is a multiple of the identity, else None."""
    if not v.terms:
        return v.algebra.field.zero
    if len(v.terms) == 1:
        (m, k), c = next(iter(v.terms.items()))
        if not any(m) and not any(k):
            return c
    return None


class _Parser:
    def __init__(self, src: str, n: Optional[int]):
        self.src = src
        self.toks = tokenize(src)
        self.i = 0
        self.n = n
        self.depth = 0  # open parentheses around the current position

    def peek(self) -> Optional[Token]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self) -> Token:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", len(self.src))
        self.i += 1
        return t

    def expect_op(self, text: str) -> Token:
        t = self.peek()
        if t is None or t.kind != "op" or t.text != text:
            where = t.offset if t else len(self.src)
            raise ParseError(f"expected {text!r}", where)
        return self.take()

    def at_op(self, *texts: str) -> bool:
        t = self.peek()
        return t is not None and t.kind == "op" and t.text in texts

    # int after "^": optional minus, then a plain integer
    def parse_exponent(self) -> int:
        sign = 1
        if self.at_op("-"):
            self.take()
            sign = -1
        t = self.peek()
        if t is None or t.kind != "number":
            where = t.offset if t else len(self.src)
            raise ParseError("expected an integer exponent", where)
        if "/" in t.text:
            raise ParseError("exponent must be an integer", t.offset)
        self.take()
        return sign * int(t.text)

    def parse_expr(self) -> Node:
        start = self.peek().offset if self.peek() else len(self.src)
        terms = []
        sign = 1
        if self.at_op("+", "-"):
            sign = -1 if self.take().text == "-" else 1
        terms.append((sign, self.parse_term()))
        while self.at_op("+", "-"):
            sign = -1 if self.take().text == "-" else 1
            terms.append((sign, self.parse_term()))
        if len(terms) == 1 and terms[0][0] > 0:
            return terms[0][1]
        return Sum(tuple(terms), start)

    def parse_term(self) -> Node:
        start = self.peek().offset if self.peek() else len(self.src)
        factors = [self.parse_factor()]
        while self.at_op("*"):
            self.take()
            factors.append(self.parse_factor())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors), start)

    def parse_factor(self) -> Node:
        atom = self.parse_atom()
        if self.at_op("^"):
            # "q" consumes its own exponent inside parse_atom
            op = self.take()
            e = self.parse_exponent()
            return Power(atom, e, op.offset)
        return atom

    def parse_atom(self) -> Node:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", len(self.src))
        if t.kind == "number":
            self.take()
            _, slash, den = t.text.partition("/")
            if slash and int(den) == 0:
                raise ParseError(f"zero denominator in {t.text}", t.offset)
            return Num(Fraction(t.text), t.offset)
        if t.kind == "q":
            self.take()
            if self.at_op("^"):
                self.take()
                return QPower(self.parse_exponent(), t.offset)
            return QPower(1, t.offset)
        if t.kind == "gen":
            self.take()
            idx = int(t.text[1:])
            if idx < 1:
                raise ParseError(f"generator index must be positive: {t.text}", t.offset)
            if self.n is not None and idx > self.n:
                raise ParseError(
                    f"generator index out of range: {t.text} with n={self.n}", t.offset)
            return Gen(t.text[0], idx, t.offset)
        if t.kind == "op" and t.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", t.offset)
            self.take()
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {t.text!r}", t.offset)


def parse_expression(src: str, n: Optional[int] = None) -> Node:
    """Parse src to a tree; n, when given, bounds generator indices."""
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    p = _Parser(src, n)
    tree = p.parse_expr()
    left = p.peek()
    if left is not None:
        raise ParseError(f"trailing input {left.text!r}", left.offset)
    return tree


def evaluate(src: str, algebra: PBWAlgebra) -> PBWElement:
    return parse_expression(src, n=algebra.n).eval(algebra)


def evaluate_scalar(src: str, field):
    """Evaluate a generator-free expression directly in the field."""
    tree = parse_expression(src)

    def ev(node):
        if isinstance(node, Num):
            return field.scalar(node.value)
        if isinstance(node, QPower):
            return field.qpow(node.exponent)
        if isinstance(node, Gen):
            raise ParseError(f"generator {node.kind}{node.index} not allowed here",
                             node.offset)
        if isinstance(node, Power):
            base = ev(node.base)
            e = node.exponent
            return base ** e if e >= 0 else _negative_power(base, e, node.offset)
        if isinstance(node, Product):
            out = field.one
            for f in node.factors:
                out = out * ev(f)
            return out
        out = field.zero
        for sign, term in node.terms:
            v = ev(term)
            out = out + v if sign > 0 else out - v
        return out

    return ev(tree)
