"""Exact arithmetic in Q(q) for q a primitive root of unity of odd order.

A scalar is stored as its canonical residue modulo the cyclotomic
polynomial Phi_ell of the chosen order: a tuple of deg(Phi_ell) integer
numerators over one positive denominator, with the gcd of all of them
divided out (the layout of FLINT's fmpq_poly).  Every result is brought
to that form by one normalizer, which folds exponents with q^ell = 1
and takes the remainder by the monic integer Phi_ell, so equal values
have equal numerators and denominators.  Inverses are Galois norms:
1/a is the product of the conjugates sigma_j(a), j != 1, over the
rational number N(a).  Everything is exact, so root-of-unity
cancellations such as q^(2k) - 1 = 0 for ell | k are decided correctly
rather than approximately.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Mapping

# a field's product memo is cleared when it reaches this many entries
_PRODUCT_MEMO_CAP = 1 << 16


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
            poly, rem = _divmod_monic(poly, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("inexact polynomial division")
    return tuple(poly)


def _divmod_monic(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials, ascending; den monic.

    The remainder has exactly len(den) - 1 coefficients.
    """
    num = list(num)
    k = len(den) - 1
    width = len(num) - k
    quo = [0] * max(width, 0)
    for shift in range(width - 1, -1, -1):
        c = num[shift + k]
        if c:
            quo[shift] = c
            for i, dc in enumerate(den):
                if dc:
                    num[shift + i] -= c * dc
    return quo, (num + [0] * k)[:k]


def power(base, e: int, one):
    """base^e for e >= 0 by square-and-multiply: one only for e = 0, and
    otherwise bit_length(e) - 1 squarings and popcount(e) - 1 products into
    the result, starting from base, so base^1 is base and costs no product.
    A negative e raises ValueError (halving it would never reach 0)."""
    if e < 0:
        raise ValueError(f"power needs an exponent e >= 0, got {e}")
    if not e:
        return one
    while not e & 1:
        base, e = base * base, e >> 1
    out = base
    while e := e >> 1:
        base = base * base
        if e & 1:
            out = out * base
    return out


class CycField:
    """The cyclotomic field Q(q), q a fixed primitive ell-th root of unity.

    Only odd orders ell > 1 are accepted; the even-order theory has a
    different center and is out of scope here.  Each field keeps its own
    memo of the scalar products made in it (see `CycScalar.__mul__`).
    """

    def __init__(self, ell: int):
        if not isinstance(ell, int) or ell <= 1 or ell % 2 == 0:
            raise ValueError(f"root-of-unity order must be an odd integer > 1, got {ell!r}")
        self.ell = ell
        self.modulus = cyclotomic_polynomial(ell)
        self.degree = len(self.modulus) - 1
        self._zero = self._make([0])
        self._qpows = tuple(self._make([0] * k + [1]) for k in range(ell))
        self._one = self._qpows[0]
        # the Galois group (Z/ell)^x minus the identity: sigma_j sends q to q^j
        self._conjugators = [j for j in range(2, ell) if gcd(j, ell) == 1]
        self._products = {}

    def _make(self, raw: list[int], den: int = 1) -> "CycScalar":
        """The canonical scalar (sum_e raw[e] q^e) / den, for den > 0."""
        ell = self.ell
        if len(raw) > ell:
            folded = raw[:ell]
            for e in range(ell, len(raw)):
                folded[e % ell] += raw[e]
            raw = folded
        if len(raw) != self.degree:
            raw = _divmod_monic(raw, self.modulus)[1]
        g = gcd(den, *raw)
        if g != 1:
            raw, den = [c // g for c in raw], den // g
        return CycScalar(self, tuple(raw), den)

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
            return self._make([value.numerator], value.denominator)
        raise TypeError(f"cannot coerce {type(value).__name__} into Q(q)")

    def qpow(self, k: int) -> "CycScalar":
        """The scalar q^k, any integer k (q has multiplicative order ell)."""
        return self._qpows[k % self.ell]

    def reduce(self, poly: Mapping[int, int | Fraction]) -> "CycScalar":
        """Canonical residue of the rational polynomial {exponent: coefficient}.

        Exponents are arbitrary integers, folded with q^ell = 1.
        """
        coeffs = {e: Fraction(c) for e, c in poly.items()}
        den = lcm(*(c.denominator for c in coeffs.values()))
        raw = [0] * self.ell
        for e, c in coeffs.items():
            raw[e % self.ell] += c.numerator * (den // c.denominator)
        return self._make(raw, den)

    def __repr__(self):
        return f"CycField(ell={self.ell})"

    def __eq__(self, other):
        return isinstance(other, CycField) and other.ell == self.ell

    def __hash__(self):
        return hash(("CycField", self.ell))


class CycScalar:
    """An element of Q(q), immutable: (sum_i num[i] q^i) / den in canonical form."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycField, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den

    # -- basic structure -------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

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
        da, db = self.den, o.den
        return self.field._make([a * db + b * da for a, b in zip(self.num, o.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return CycScalar(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        return self.field._make([a * db - b * da for a, b in zip(self.num, o.num)], da * db)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        """The product, read from this field's memo when it was made before.

        The memo is exact: a product is a pure function of the canonical
        (num, den) pairs of its operands, so it is keyed on those values
        (never on id(), which is reused after garbage collection), and it
        is read only after `_coerce` has accepted the operand, so no
        product mixes two fields of the same degree.  It lasts as long as
        its `CycField`, and `run_suite` makes a new field for each call.
        Its memory is bounded: it is cleared once it holds
        _PRODUCT_MEMO_CAP entries.
        """
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        memo = field._products
        key = (self.num, self.den, o.num, o.den)
        product = memo.get(key)
        if product is None:
            if len(memo) >= _PRODUCT_MEMO_CAP:
                memo.clear()
            raw = [0] * (2 * field.degree - 1)
            for i, a in enumerate(self.num):
                if a:
                    for j, b in enumerate(o.num, i):
                        if b:
                            raw[j] += a * b
            product = memo[key] = field._make(raw, self.den * o.den)
        return product

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        """1/a = prod_{j != 1} sigma_j(a) / N(a), with the norm N(a) a positive rational."""
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        field = self.field
        ell = field.ell
        conj = field.one
        for j in field._conjugators:
            raw = [0] * ell
            for i, c in enumerate(self.num):
                raw[i * j % ell] += c
            conj = conj * field._make(raw, self.den)
        norm = self * conj
        # Q(q) has no real embedding, so a nonzero norm is a product of |z|^2 > 0
        if not norm.is_rational() or norm.num[0] <= 0:
            raise ArithmeticError(f"the Galois norm of {self} is not a positive rational")
        return field._make([c * norm.den for c in conj.num], conj.den * norm.num[0])

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
        return power(self, k, self.field.one)

    # -- comparison and display -------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.field.ell, self.num, self.den))

    def __repr__(self):
        return f"<{self} : ell={self.field.ell}>"

    def __str__(self):
        terms = [(e, Fraction(self.num[e], self.den))
                 for e in range(self.field.degree - 1, -1, -1) if self.num[e]]
        if not terms:
            return "0"
        return "".join(_format_term(e, c, leading=(pos == 0))
                       for pos, (e, c) in enumerate(terms))


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
