"""Expression parser: grammar, byte offsets, round trips."""

import random

import pytest

from qweyl import (CycField, ParseError, PBWAlgebra, TorusEmbedding, evaluate,
                   evaluate_scalar, parse_expression)
from qweyl.expr import MAX_NESTING


def weyl(ell, n=1):
    F = CycField(ell)
    if n == 1:
        emb = TorusEmbedding(n=1, d=1, matrix=((1,),), form=((2,),))
    else:
        emb = TorusEmbedding(n=n, d=1, matrix=((1,),) * n, form=((2,),))
    return PBWAlgebra(F, emb)


# -- happy paths ---------------------------------------------------------------

def test_normal_ordering_through_the_parser():
    A = weyl(5)
    assert str(evaluate("d1*x1", A)) == "q^2*x1*d1 + (q^2 - 1)"
    assert str(evaluate("x1^3", A)) == "x1^3"


def test_alpha_and_scalars():
    A = weyl(3)
    assert evaluate("a1", A) == evaluate("1 + x1*d1", A)
    assert evaluate("q^2 - 1 + x1*d1*0", A) == A.scalar_element(A.field.qpow(2) - A.field.one)
    assert evaluate("1/2 + 1/2", A) == A.one()


def test_precedence_and_grouping():
    A = weyl(3)
    assert evaluate("x1 + d1*x1", A) == A.x(1) + A.multiply(A.d(1), A.x(1))
    assert evaluate("(x1 + d1)*x1", A) == A.multiply(A.x(1) + A.d(1), A.x(1))
    assert evaluate("x1^2*d1", A) == A.multiply(A.x(1, 2), A.d(1))
    # power binds to the parenthesized group
    assert evaluate("(x1*d1)^2", A) == A.multiply(A.x(1), A.d(1)) ** 2


def test_leading_sign():
    A = weyl(3)
    assert evaluate("-x1", A) == -A.x(1)
    assert evaluate("+x1 - x1", A) == A.zero()
    assert str(evaluate("-x1", A)) == "(-1)*x1"


def test_negative_powers_of_scalars():
    A = weyl(3)
    F = A.field
    assert evaluate("q^-2", A) == A.scalar_element(F.qpow(-2))
    assert evaluate("2^-1", A) == A.scalar_element(F.scalar(2).inverse())
    assert evaluate("(q - 1)^-1 * (q - 1)", A) == A.one()


def test_negative_power_of_a_generator_is_rejected():
    A = weyl(3)
    with pytest.raises(ValueError, match="negative power"):
        evaluate("x1^-1", A)


def test_round_trip_is_the_identity():
    A = weyl(3, n=2)
    F = A.field
    rng = random.Random(20240901)
    keys = list({((rng.randint(0, 2), rng.randint(0, 2)),
                  (rng.randint(0, 2), rng.randint(0, 2))) for _ in range(8)})
    for trial in range(10):
        e = A.zero()
        for key in keys[: 1 + trial % len(keys)]:
            e = e + A.monomial(key[0], key[1],
                               coeff=F.qpow(rng.randrange(3)) - F.scalar(rng.randint(0, 2)))
        s = str(e)
        if s == "0":
            continue
        assert evaluate(s, A) == e
        assert str(evaluate(s, A)) == s


def test_whitespace_is_free():
    A = weyl(5)
    assert evaluate("  d1 * x1 ", A) == evaluate("d1*x1", A)


# -- errors carry byte offsets ----------------------------------------------------

def offset_of(excinfo):
    return excinfo.value.offset


def test_index_out_of_range_offset():
    with pytest.raises(ParseError) as e:
        parse_expression("x5", n=2)
    assert offset_of(e) == 0
    assert "n=2" in str(e.value)


def test_dangling_operator_offset():
    with pytest.raises(ParseError) as e:
        parse_expression("x1 + * d1")
    assert offset_of(e) == 5


def test_trailing_input_offset():
    with pytest.raises(ParseError) as e:
        parse_expression("q2")
    assert offset_of(e) == 1
    assert "trailing" in str(e.value)


def test_unclosed_group():
    with pytest.raises(ParseError) as e:
        parse_expression("(x1")
    assert "')'" in str(e.value)
    assert offset_of(e) == 3


def test_empty_and_blank():
    for src in ("", "   "):
        with pytest.raises(ParseError) as e:
            parse_expression(src)
        assert offset_of(e) == 0


def test_zero_index_generator():
    with pytest.raises(ParseError) as e:
        parse_expression("x0")
    assert "positive" in str(e.value)


def test_fractional_exponent():
    with pytest.raises(ParseError) as e:
        parse_expression("x1^1/2")
    # "1/2" lexes as one rational token, refused as an exponent
    assert "integer" in str(e.value)
    assert offset_of(e) == 3


def test_unknown_character():
    with pytest.raises(ParseError) as e:
        parse_expression("x1 & d1")
    assert offset_of(e) == 3


def test_zero_denominator_offset():
    for src, where in (("1/0", 0), ("x1 + 3/00", 5), ("0/0*d1", 0)):
        with pytest.raises(ParseError) as e:
            parse_expression(src)
        assert offset_of(e) == where
        assert "zero denominator" in str(e.value)


def test_nesting_depth_is_bounded():
    A = weyl(3)
    sign = (-1) ** MAX_NESTING
    # every "-(" group adds a Sum node, so evaluation recurses as deep as parsing
    deep = "-(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
    assert evaluate(deep, A) == A.x(1) * sign
    assert evaluate_scalar(deep.replace("x1", "q"), A.field) == A.field.q * sign
    # the offset is that of the parenthesis that opens one level too many
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ParseError) as e:
            parse_expression(" (" * depth + "x1" + ")" * depth)
        assert offset_of(e) == 2 * MAX_NESTING + 1
        assert f"nested deeper than {MAX_NESTING}" in str(e.value)


def test_negative_power_of_zero_is_a_value_error():
    A = weyl(3)
    # q^3 = 1 at ell = 3, so each base is zero
    with pytest.raises(ValueError, match=r"negative power of zero \(at byte 9\)"):
        evaluate("(1 - q^3)^-1", A)
    with pytest.raises(ValueError, match=r"negative power of zero \(at byte 12\)"):
        evaluate("x1*(q^3 - 1)^-2", A)
    with pytest.raises(ValueError, match=r"negative power of zero \(at byte 9\)"):
        evaluate_scalar("(1 - q^3)^-1", A.field)


def test_error_message_carries_byte_position():
    with pytest.raises(ParseError) as e:
        parse_expression("x1 + ")
    assert "(at byte 5)" in str(e.value)


# -- scalar-only evaluation --------------------------------------------------------

def test_evaluate_scalar():
    from fractions import Fraction
    F = CycField(3)
    assert evaluate_scalar("q^2 - 1", F) == F.qpow(2) - F.one
    assert evaluate_scalar("2/3", F) == F.scalar(Fraction(2, 3))
    assert evaluate_scalar("(1 + q)^3", F) == (F.one + F.q) ** 3
    assert evaluate_scalar("q^-1", F) == F.qpow(-1)


def test_evaluate_scalar_rejects_generators():
    F = CycField(3)
    with pytest.raises(ParseError) as e:
        evaluate_scalar("x1 + 1", F)
    assert "not allowed" in str(e.value)
    assert e.value.offset == 0
