"""Parser and evaluator for algebra expressions used by the command-line tools.

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

One recursive descent parses and evaluates in the same pass, so the
error reported is a character outside the grammar if there is one
(the whole source is tokenized first), and otherwise the fault with the
lowest offset.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence, Union

from .cyclotomic import CycField, CycScalar
from .pbw import PBWAlgebra, PBWElement

Value = Union[CycScalar, PBWElement]


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


class Token:
    """One lexeme of an expression: its kind, its text and its byte offset."""

    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "offset", offset)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Token is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


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
    """Recursive descent that evaluates as it parses.

    Each parse_* method returns a CycScalar while its subexpression has
    no generator and a PBWElement once it has one.  With algebra None a
    generator is an error.
    """

    def __init__(self, src: str, field: CycField, algebra: Optional[PBWAlgebra]):
        self.src = src
        self.toks = tokenize(src)
        self.i = 0
        self.field = field
        self.algebra = algebra
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

    def parse_expr(self) -> Value:
        negate = self.at_op("+", "-") and self.take().text == "-"
        value = self.parse_term()
        if negate:
            value = -value
        while self.at_op("+", "-"):
            if self.take().text == "-":
                value = value - self.parse_term()
            else:
                value = value + self.parse_term()
        return value

    def parse_term(self) -> Value:
        value = self.parse_factor()
        while self.at_op("*"):
            self.take()
            value = value * self.parse_factor()
        return value

    def parse_factor(self) -> Value:
        value = self.parse_atom()
        if not self.at_op("^"):
            return value
        # "q" consumes its own exponent inside parse_atom
        op = self.take()
        e = self.parse_exponent()
        if e >= 0:
            return value ** e
        if isinstance(value, PBWElement):
            value = _as_scalar(value)
            if value is None:
                raise ValueError(
                    f"negative power of a non-scalar expression (at byte {op.offset})")
        return _negative_power(value, e, op.offset)

    def parse_atom(self) -> Value:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", len(self.src))
        if t.kind == "number":
            self.take()
            num, slash, den = t.text.partition("/")
            if slash and int(den) == 0:
                raise ParseError(f"zero denominator in {t.text}", t.offset)
            return self.field.rational(int(num), int(den) if slash else 1)
        if t.kind == "q":
            self.take()
            if self.at_op("^"):
                self.take()
                return self.field.qpow(self.parse_exponent())
            return self.field.q
        if t.kind == "gen":
            self.take()
            idx = int(t.text[1:])
            if idx < 1:
                raise ParseError(f"generator index must be positive: {t.text}", t.offset)
            A = self.algebra
            if A is None:
                raise ParseError(f"generator {t.text[0]}{idx} not allowed here", t.offset)
            if idx > A.n:
                raise ParseError(
                    f"generator index out of range: {t.text} with n={A.n}", t.offset)
            return {"x": A.x, "d": A.d, "a": A.alpha}[t.text[0]](idx)
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


def _parse(src: str, field: CycField, algebra: Optional[PBWAlgebra]) -> Value:
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    p = _Parser(src, field, algebra)
    value = p.parse_expr()
    left = p.peek()
    if left is not None:
        raise ParseError(f"trailing input {left.text!r}", left.offset)
    return value


def evaluate(src: str, algebra: PBWAlgebra) -> PBWElement:
    value = _parse(src, algebra.field, algebra)
    return value if isinstance(value, PBWElement) else algebra.scalar_element(value)


def evaluate_scalar(src: str, field: CycField) -> CycScalar:
    """Evaluate a generator-free expression directly in the field."""
    return _parse(src, field, None)


def normalize_report(algebra: PBWAlgebra, sources: Sequence[str]) -> dict:
    """The normalize report: each source's normal form and whether it is
    central, or the error evaluating it raised; ok when none raised."""
    results = []
    for src in sources:
        try:
            e = evaluate(src, algebra)
            results.append({"input": src, "normal_form": str(e), "is_central": e.is_central()})
        except ValueError as err:  # a ParseError is a ValueError
            results.append({"input": src, "error": str(err)})
    return {"expressions": results, "ok": not any("error" in r for r in results)}
