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


def tokenize(src: str) -> list[re.Match]:
    """The lexemes of src, whitespace dropped: each match's lastgroup is its
    kind, m[0] its text and m.start() its byte offset."""
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append(m)
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

    def peek(self) -> Optional[re.Match]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self) -> re.Match:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", len(self.src))
        self.i += 1
        return t

    def expect_op(self, text: str) -> re.Match:
        t = self.peek()
        if t is None or t.lastgroup != "op" or t[0] != text:
            where = t.start() if t else len(self.src)
            raise ParseError(f"expected {text!r}", where)
        return self.take()

    def at_op(self, *texts: str) -> bool:
        t = self.peek()
        return t is not None and t.lastgroup == "op" and t[0] in texts

    # int after "^": optional minus, then a plain integer
    def parse_exponent(self) -> int:
        sign = 1
        if self.at_op("-"):
            self.take()
            sign = -1
        t = self.peek()
        if t is None or t.lastgroup != "number":
            where = t.start() if t else len(self.src)
            raise ParseError("expected an integer exponent", where)
        if "/" in t[0]:
            raise ParseError("exponent must be an integer", t.start())
        self.take()
        return sign * int(t[0])

    def parse_expr(self) -> Value:
        negate = self.at_op("+", "-") and self.take()[0] == "-"
        value = self.parse_term()
        if negate:
            value = -value
        while self.at_op("+", "-"):
            if self.take()[0] == "-":
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
                    f"negative power of a non-scalar expression (at byte {op.start()})")
        return _negative_power(value, e, op.start())

    def parse_atom(self) -> Value:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", len(self.src))
        if t.lastgroup == "number":
            self.take()
            num, slash, den = t[0].partition("/")
            if slash and int(den) == 0:
                raise ParseError(f"zero denominator in {t[0]}", t.start())
            return self.field.rational(int(num), int(den) if slash else 1)
        if t.lastgroup == "q":
            self.take()
            if self.at_op("^"):
                self.take()
                return self.field.qpow(self.parse_exponent())
            return self.field.q
        if t.lastgroup == "gen":
            self.take()
            idx = int(t[0][1:])
            if idx < 1:
                raise ParseError(f"generator index must be positive: {t[0]}", t.start())
            A = self.algebra
            if A is None:
                raise ParseError(f"generator {t[0][0]}{idx} not allowed here", t.start())
            if idx > A.n:
                raise ParseError(
                    f"generator index out of range: {t[0]} with n={A.n}", t.start())
            return {"x": A.x, "d": A.d, "a": A.alpha}[t[0][0]](idx)
        if t.lastgroup == "op" and t[0] == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", t.start())
            self.take()
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {t[0]!r}", t.start())


def _parse(src: str, field: CycField, algebra: Optional[PBWAlgebra]) -> Value:
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    p = _Parser(src, field, algebra)
    value = p.parse_expr()
    left = p.peek()
    if left is not None:
        raise ParseError(f"trailing input {left[0]!r}", left.start())
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
