"""Exact arithmetic in Q(q) for q a primitive root of unity of odd order.

A scalar is stored as its canonical residue modulo the cyclotomic
polynomial of the chosen order: a coefficient vector of arbitrary
precision rationals of length deg(Phi_ell).  Everything is exact, so
root-of-unity cancellations such as q^(2k) - 1 = 0 for ell | k are
decided correctly rather than approximately.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

Rational = Union[int, Fraction]

_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients of the cyclotomic polynomial Phi_order, ascending degree.

    Computed by dividing x^order - 1 by the product of Phi_d over the
    proper divisors d of order.  The division is exact over the integers.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    poly = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            poly = _exact_div_int(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _exact_div_int(num: list[int], den: list[int]) -> list[int]:
    # long division of integer polynomials, ascending coefficients; den monic
    num = list(num)
    width = len(num) - len(den) + 1
    out = [0] * width
    for shift in range(width - 1, -1, -1):
        c = num[shift + len(den) - 1]
        if c == 0:
            continue
        out[shift] = c
        for i, dc in enumerate(den):
            num[shift + i] -= c * dc
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


def _poly_deg(p: list[Fraction]) -> int:
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _poly_xgcd(a: list[Fraction], m: list[Fraction]) -> list[Fraction]:
    """Return u with u*a = 1 modulo m, for a coprime to m (rational polys)."""
    old_r, r = a[:], m[:]
    old_s, s = [Fraction(1)], [_ZERO]
    while _poly_deg(r) >= 0:
        dr, dor = _poly_deg(r), _poly_deg(old_r)
        if dor < dr:
            old_r, r = r, old_r
            old_s, s = s, old_s
            continue
        c = old_r[dor] / r[dr]
        shift = dor - dr
        for i in range(dr + 1):
            old_r[i + shift] -= c * r[i]
        while len(old_s) < len(s) + shift:
            old_s.append(_ZERO)
        for i in range(len(s)):
            old_s[i + shift] -= c * s[i]
        if _poly_deg(old_r) < _poly_deg(r):
            old_r, r = r, old_r
            old_s, s = s, old_s
    d = _poly_deg(old_r)
    if d != 0:
        raise ZeroDivisionError("element is not invertible")
    lead = old_r[0]
    return [c / lead for c in old_s]


class CycField:
    """The cyclotomic field Q(q), q a fixed primitive ell-th root of unity.

    Only odd orders ell > 1 are accepted; the even-order theory has a
    different center and is out of scope here.
    """

    def __init__(self, ell: int):
        if not isinstance(ell, int) or ell <= 1 or ell % 2 == 0:
            raise ValueError(f"root-of-unity order must be an odd integer > 1, got {ell!r}")
        self.ell = ell
        self.modulus = cyclotomic_polynomial(ell)
        self.degree = len(self.modulus) - 1
        self._powers = self._high_power_table()
        self._zero = CycScalar(self, tuple([_ZERO] * self.degree))
        one = [_ZERO] * self.degree
        one[0] = Fraction(1)
        self._one = CycScalar(self, tuple(one))
        # cache used by the operator-algebra layer
        self.gauss_cache: dict = {}

    def _high_power_table(self) -> dict[int, list[Fraction]]:
        d = self.degree
        top = max(2 * d - 1, self.ell)
        rows: dict[int, list[Fraction]] = {}
        for e in range(d, top):
            if e == d:
                row = [Fraction(-c) for c in self.modulus[:-1]]
            else:
                prev = rows[e - 1]
                carry = prev[-1]
                row = [_ZERO] + prev[:-1]
                if carry:
                    qd = rows[d]
                    row = [row[i] + carry * qd[i] for i in range(d)]
            rows[e] = row
        return rows

    # -- constructors ---------------------------------------------------

    @property
    def zero(self) -> "CycScalar":
        return self._zero

    @property
    def one(self) -> "CycScalar":
        return self._one

    @property
    def q(self) -> "CycScalar":
        return self.qpow(1)

    def scalar(self, value) -> "CycScalar":
        """Coerce an int, Fraction, or CycScalar into this field."""
        if isinstance(value, CycScalar):
            if value.field is not self and value.field.ell != self.ell:
                raise ValueError("scalar belongs to a different cyclotomic field")
            return value
        if isinstance(value, (int, Fraction)):
            coeffs = [_ZERO] * self.degree
            coeffs[0] = Fraction(value)
            return CycScalar(self, tuple(coeffs))
        raise TypeError(f"cannot coerce {type(value).__name__} into Q(q)")

    def qpow(self, k: int) -> "CycScalar":
        """The scalar q^k, any integer k (q has multiplicative order ell)."""
        return self.reduce({k: 1})

    def reduce(self, poly) -> "CycScalar":
        """Canonical residue of a rational polynomial in q.

        Accepts a mapping {exponent: coefficient} with arbitrary integer
        exponents (folded with q^ell = 1) or an ascending coefficient
        sequence.
        """
        if isinstance(poly, Mapping):
            items = poly.items()
        else:
            items = enumerate(poly)
        acc = [_ZERO] * self.degree
        for e, c in items:
            c = Fraction(c)
            if not c:
                continue
            e %= self.ell
            if e < self.degree:
                acc[e] += c
            else:
                row = self._powers[e]
                for i in range(self.degree):
                    acc[i] += c * row[i]
        return CycScalar(self, tuple(acc))

    def _reduce_conv(self, raw: list[Fraction]) -> "CycScalar":
        # raw has length <= 2*degree - 1 and holds true exponents
        d = self.degree
        acc = list(raw[:d])
        while len(acc) < d:
            acc.append(_ZERO)
        for e in range(d, len(raw)):
            c = raw[e]
            if not c:
                continue
            row = self._powers[e]
            for i in range(d):
                acc[i] += c * row[i]
        return CycScalar(self, tuple(acc))

    def __repr__(self):
        return f"CycField(ell={self.ell})"

    def __eq__(self, other):
        return isinstance(other, CycField) and other.ell == self.ell

    def __hash__(self):
        return hash(("CycField", self.ell))


class CycScalar:
    """An element of Q(q), immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CycField, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    # -- basic structure -------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def _coerce(self, other):
        if isinstance(other, CycScalar):
            if other.field.ell != self.field.ell:
                return None
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycScalar(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycScalar(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycScalar(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.field.degree
        raw = [_ZERO] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    raw[i + j] += a * b
        return self.field._reduce_conv(raw)

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        m = [Fraction(c) for c in self.field.modulus]
        u = _poly_xgcd(list(self.coeffs), m)
        return self.field.reduce(dict(enumerate(u)))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison and display -------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field.ell, self.coeffs))

    def __repr__(self):
        return f"<{self} : ell={self.field.ell}>"

    def _terms(self):
        # nonzero (power, coefficient), descending power
        return [(e, c) for e in range(self.field.degree - 1, -1, -1)
                for c in (self.coeffs[e],) if c]

    def __str__(self):
        terms = self._terms()
        if not terms:
            return "0"
        parts = []
        for pos, (e, c) in enumerate(terms):
            parts.append(_format_term(e, c, leading=(pos == 0)))
        return "".join(parts)


def _format_term(power: int, coeff: Fraction, leading: bool) -> str:
    mag = abs(coeff)
    if power == 0:
        body = str(mag)
    elif power == 1:
        body = "q" if mag == 1 else f"{mag}*q"
    else:
        body = f"q^{power}" if mag == 1 else f"{mag}*q^{power}"
    if leading:
        if coeff < 0:
            if power == 0:
                return str(coeff)
            if mag == 1:
                return "-" + body
            return f"({coeff})*" + body.split("*", 1)[1]
        return body
    return (" - " if coeff < 0 else " + ") + body
