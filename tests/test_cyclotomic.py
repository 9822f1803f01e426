"""Field arithmetic in Q(zeta_ell).

Expected values below were frozen from an independent sympy run
(minimal_polynomial / cyclotomic_poly) and hand reductions; the
hypothesis blocks check the ring axioms that the rest of the package
leans on.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qweyl import CycField, cyclotomic_polynomial
from qweyl.cyclotomic import power


def test_cyclotomic_polynomials_small():
    # ascending coefficient tuples
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(7) == (1,) * 7
    # composite order: phi(9) = 6, x^6 + x^3 + 1
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)


def test_field_rejects_bad_order():
    with pytest.raises(ValueError):
        CycField(4)
    with pytest.raises(ValueError):
        CycField(1)
    with pytest.raises(ValueError):
        CycField(-3)


def test_primitive_root_basics():
    for ell in (3, 5, 7, 9):
        F = CycField(ell)
        assert F.qpow(ell) == F.one
        assert F.qpow(-1) == F.qpow(ell - 1)
        # q is primitive: no smaller power hits 1
        for k in range(1, ell):
            assert F.qpow(k) != F.one, (ell, k)


def test_vanishing_sums():
    # 1 + q + ... + q^(l-1) = 0 for prime l; for l = 9 only the full
    # cyclotomic relation holds, but the geometric sum still vanishes
    for ell in (3, 5, 7, 9):
        F = CycField(ell)
        total = F.zero
        for k in range(ell):
            total = total + F.qpow(k)
        assert total == F.zero, ell


def test_qpow_two_k_minus_one_nonzero():
    # q^{2k} - 1 = 0 exactly when k = 0 mod ell (ell odd makes 2 invertible)
    for ell in (3, 5, 7, 9):
        F = CycField(ell)
        for k in range(1, ell):
            assert F.qpow(2 * k) - F.one != F.zero, (ell, k)
        assert F.qpow(2 * ell) - F.one == F.zero


def test_inverse_frozen_example():
    # 1/(q - 1) at ell = 3 is (-1/3) q - 2/3  [sympy: 1/(zeta3 - 1)]
    F = CycField(3)
    inv = (F.q - F.one).inverse()
    want = F.scalar(Fraction(-1, 3)) * F.q + F.scalar(Fraction(-2, 3))
    assert inv == want
    assert str(inv) == "(-1/3)*q - 2/3"
    assert inv * (F.q - F.one) == F.one


def test_inverse_random_nonzero():
    import random
    rng = random.Random(20240901)
    for ell in (3, 5, 9, 13, 15):
        F = CycField(ell)
        for _ in range(40):
            coeffs = {e: Fraction(rng.randint(-4, 4)) for e in range(F.degree)}
            v = F.reduce(coeffs)
            if v == F.zero:
                continue
            assert v * v.inverse() == F.one


def test_scalar_coercions():
    F = CycField(5)
    assert F.scalar(3) + F.scalar(Fraction(1, 2)) == F.scalar(Fraction(7, 2))
    v = F.q + 1
    assert v - 1 == F.q
    assert 2 * F.q == F.q + F.q
    assert (F.q ** 5) == F.one
    assert F.q ** (-5) == F.one
    assert F.scalar(0) == F.zero and not F.scalar(0)


def test_power_squares_only_between_bits():
    # one product into the result per set bit of e after the first, one
    # squaring per bit after the lowest, none after the last, and never a
    # product by the unit: base^0 and base^1 cost nothing
    products = []

    class Word(tuple):
        def __mul__(self, other):
            products.append(other)
            return Word(self + other)

    for e in range(17):
        products.clear()
        assert power(Word("a"), e, Word()) == Word("a" * e)
        assert len(products) == (bin(e).count("1") - 1 + e.bit_length() - 1 if e else 0)


def test_power_rejects_a_negative_exponent():
    # halving a negative exponent never reaches 0 (-1 >> 1 == -1), so power
    # refuses one at entry instead of looping
    with pytest.raises(ValueError, match="e >= 0"):
        power(3, -2, 1)
    F = CycField(3)
    with pytest.raises(ValueError):
        power(F.q, -1, F.one)
    assert F.q ** -1 == F.qpow(2)  # __pow__ inverts first, as before


def test_is_rational():
    F = CycField(3)
    assert F.scalar(7).is_rational()
    assert not F.q.is_rational()


def test_exponent_folding():
    # building from exponents >= degree must agree with qpow folding
    F = CycField(5)
    v = F.reduce({7: Fraction(1)})
    assert v == F.qpow(7) == F.qpow(2)


small = st.integers(min_value=-6, max_value=6)


@st.composite
def field_elements(draw, ell):
    F = CycField(ell)
    coeffs = draw(st.lists(small, min_size=F.degree, max_size=F.degree))
    return F.reduce({e: Fraction(c) for e, c in enumerate(coeffs)})


@settings(max_examples=150, deadline=None)
@given(a=field_elements(5), b=field_elements(5), c=field_elements(5))
def test_ring_axioms_ell5(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == a.field.zero
    assert a * a.field.one == a


@settings(max_examples=80, deadline=None)
@given(a=field_elements(9), b=field_elements(9))
def test_ring_axioms_ell9(a, b):
    assert (a + b) * (a - b) == a * a - b * b
    assert -(-a) == a


FIELDS = {ell: CycField(ell) for ell in (5, 9, 15)}  # 15: (Z/15)^x is not cyclic


@st.composite
def rational_elements(draw, ell):
    F = FIELDS[ell]
    coeffs = draw(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6),
                           min_size=F.degree, max_size=F.degree))
    return F.reduce(dict(enumerate(coeffs)))


def is_canonical(s):
    return len(s.num) == s.field.degree and s.den > 0 and gcd(s.den, *s.num) == 1


@pytest.mark.parametrize("ell", sorted(FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_results_are_canonical_and_hash_by_value(ell, data):
    F = FIELDS[ell]
    a, b = data.draw(rational_elements(ell)), data.draw(rational_elements(ell))
    results = [a + b, a - b, a * b, -a]
    if b:
        results += [a / b, b.inverse()]
        # equal values reached by different routes have equal hashes
        assert (a * b) / b == a and hash((a * b) / b) == hash(a)
    assert all(is_canonical(r) for r in results)
    assert hash(a + b - b) == hash(a)
    assert F.scalar(Fraction(2, 4)) == F.scalar(Fraction(1, 2))
    assert hash(F.scalar(Fraction(2, 4))) == hash(F.scalar(Fraction(1, 2)))
    assert hash(F.reduce({ell: 3, 0: -2})) == hash(F.one)


def test_str_formatting():
    F = CycField(5)
    assert str(F.zero) == "0"
    assert str(F.one) == "1"
    assert str(-F.one) == "-1"
    assert str(F.q) == "q"
    assert str(-F.q) == "-q"
    assert str(F.qpow(2) - F.one) == "q^2 - 1"
    assert str(F.qpow(2) + F.q) == "q^2 + q"
    assert str(F.scalar(2) * F.q) == "2*q"
    assert str(F.scalar(Fraction(1, 2)) * F.q + 1) == "1/2*q + 1"
    assert str(F.scalar(Fraction(-1, 3)) * F.q) == "(-1/3)*q"


def test_power_table_consistency():
    # products of basis powers agree with qpow on folded exponents
    for ell in (3, 7, 9):
        F = CycField(ell)
        for a in range(ell):
            for b in range(ell):
                assert F.qpow(a) * F.qpow(b) == F.qpow(a + b), (ell, a, b)


# -- the product memo -----------------------------------------------------------

def direct_product(a, b):
    """a * b formed from the coefficients, with no memo: the oracle."""
    F = a.field
    raw = [0] * (2 * F.degree - 1)
    for i, x in enumerate(a.num):
        if x:
            for j, y in enumerate(b.num, i):
                if y:
                    raw[j] += x * y
    return F._make(raw, a.den * b.den)


MEMO_ELLS = (3, 5, 7, 9, 15)
MEMO_FIELDS = {ell: CycField(ell) for ell in MEMO_ELLS}  # memos persist across examples
TWIN_FIELDS = {ell: CycField(ell) for ell in MEMO_ELLS}  # same ell, distinct objects and memos

operands = st.one_of(st.integers(min_value=-4, max_value=4),
                     st.fractions(min_value=-3, max_value=3, max_denominator=4))


@pytest.mark.parametrize("ell", MEMO_ELLS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_memoized_product_equals_direct_product(ell, data):
    F, twin = MEMO_FIELDS[ell], TWIN_FIELDS[ell]
    # a small pool, so that pairs repeat within an example and across them
    small_coeffs = st.lists(st.integers(min_value=-2, max_value=2),
                            min_size=F.degree, max_size=F.degree)
    pool = [F.reduce(dict(enumerate(data.draw(small_coeffs)))) for _ in range(3)]
    pool.append(twin.reduce(dict(enumerate(data.draw(small_coeffs)))))
    pool.append(F.qpow(data.draw(st.integers(min_value=0, max_value=ell - 1))))
    for _ in range(2):
        for a in pool:
            for b in pool:
                got = a * b
                want = direct_product(a, b)
                assert (got.num, got.den) == (want.num, want.den)
                assert got.field is a.field
    c = data.draw(operands)
    for a in pool:
        want = direct_product(a, a.field.scalar(c))
        for got in (a * c, c * a, a * c):
            assert (got.num, got.den) == (want.num, want.den)


def test_memo_never_answers_a_product_of_two_fields():
    # Phi_7 and Phi_9 both have degree 6, so q has the same (num, den) in
    # each field: with q * q memoized in the ell-7 field, a product of an
    # ell-7 and an ell-9 scalar must still be refused
    F7, F9 = CycField(7), CycField(9)
    assert F7.q * F7.q == F7.qpow(2)
    assert (F9.q.num, F9.q.den) == (F7.q.num, F7.q.den)
    with pytest.raises(TypeError):
        F7.q * F9.q
    with pytest.raises(TypeError):
        F9.q * F7.q
