"""Expression parser: grammar, byte offsets, round trips."""

import random
import re
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, seed, settings, strategies as st

from qweyl import (CycField, ParseError, PBWAlgebra, TorusEmbedding, evaluate,
                   evaluate_scalar)
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
    with pytest.raises(ValueError) as e:
        evaluate("x1^-1", A)
    assert str(e.value) == "negative power of a non-scalar expression (at byte 2)"
    with pytest.raises(ValueError, match=r"non-scalar expression \(at byte 12\)"):
        evaluate("2 + (x1 - 1)^-3", A)


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
        evaluate("x5", weyl(3, n=2))
    assert offset_of(e) == 0
    assert "n=2" in str(e.value)


def test_dangling_operator_offset():
    with pytest.raises(ParseError) as e:
        evaluate("x1 + * d1", weyl(3))
    assert offset_of(e) == 5


def test_trailing_input_offset():
    with pytest.raises(ParseError) as e:
        evaluate("q2", weyl(3))
    assert offset_of(e) == 1
    assert "trailing" in str(e.value)


def test_unclosed_group():
    with pytest.raises(ParseError) as e:
        evaluate("(x1", weyl(3))
    assert "')'" in str(e.value)
    assert offset_of(e) == 3


def test_empty_and_blank():
    for src in ("", "   "):
        with pytest.raises(ParseError) as e:
            evaluate(src, weyl(3))
        assert offset_of(e) == 0


def test_zero_index_generator():
    with pytest.raises(ParseError) as e:
        evaluate("x0", weyl(3))
    assert "positive" in str(e.value)


def test_fractional_exponent():
    with pytest.raises(ParseError) as e:
        evaluate("x1^1/2", weyl(3))
    # "1/2" lexes as one rational token, refused as an exponent
    assert "integer" in str(e.value)
    assert offset_of(e) == 3


def test_unknown_character():
    with pytest.raises(ParseError) as e:
        evaluate("x1 & d1", weyl(3))
    assert offset_of(e) == 3


def test_zero_denominator_offset():
    for src, where in (("1/0", 0), ("x1 + 3/00", 5), ("0/0*d1", 0)):
        with pytest.raises(ParseError) as e:
            evaluate(src, weyl(3))
        assert offset_of(e) == where
        assert "zero denominator" in str(e.value)


def test_nesting_depth_is_bounded():
    A = weyl(3)
    sign = (-1) ** MAX_NESTING
    # every "-(" group negates, so evaluation runs at the full parsing depth
    deep = "-(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
    assert evaluate(deep, A) == A.x(1) * sign
    assert evaluate_scalar(deep.replace("x1", "q"), A.field) == A.field.q * sign
    # the offset is that of the parenthesis that opens one level too many
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ParseError) as e:
            evaluate(" (" * depth + "x1" + ")" * depth, A)
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
        evaluate("x1 + ", weyl(3))
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


# -- two faults: the lower offset is reported ----------------------------------------

def test_the_fault_with_the_lower_offset_wins():
    A = weyl(3)
    for src, fn, arg, message in (
        ("(x1^-1q^2", evaluate_scalar, A.field, "generator x1 not allowed here (at byte 1)"),
        ("(x1^-1q^2", evaluate, A, "negative power of a non-scalar expression (at byte 3)"),
        ("x1 + )", evaluate_scalar, A.field, "generator x1 not allowed here (at byte 0)"),
        ("(1 - q^3)^-1 + )", evaluate, A, "negative power of zero (at byte 9)"),
        ("x1^-1 x2", evaluate, A, "negative power of a non-scalar expression (at byte 2)"),
        # the source is tokenized first, so a stray character beats any other fault
        ("x1^-1 + &", evaluate, A, "unexpected character '&' (at byte 8)"),
        ("x1 + & )", evaluate_scalar, A.field, "unexpected character '&' (at byte 5)"),
    ):
        with pytest.raises(ValueError) as e:
            fn(src, arg)
        assert str(e.value) == message, src


# -- the evaluator against a direct construction -------------------------------------
#
# A tree is ("num", Fraction) | ("q", k or None) | ("gen", kind, index)
# | ("sum", lead, ((sign, tree), ...)) | ("prod", (tree, ...)) | ("pow", tree, e)
# | ("paren", tree).  It is rendered to text and, separately, evaluated with
# PBWAlgebra and CycField operations alone.

N_GENS = 2
# grammar levels: a node renders bare where its level is at least the one asked for
LEVEL = {"sum": 0, "prod": 1, "pow": 2, "num": 3, "q": 3, "gen": 3, "paren": 3}

leaves = st.one_of(
    st.builds(lambda a, b: ("num", Fraction(a, b)), st.integers(0, 9), st.integers(1, 4)),
    st.builds(lambda k: ("q", k), st.none() | st.integers(-4, 4)),
    st.builds(lambda kind, i: ("gen", kind, i),
              st.sampled_from("xda"), st.integers(1, N_GENS)),
)


def extend(sub):
    return st.one_of(
        st.builds(lambda lead, first, rest: ("sum", lead, ((lead, first),) + tuple(rest)),
                  st.sampled_from(["", "+", "-"]), sub,
                  st.lists(st.tuples(st.sampled_from("+-"), sub), max_size=2)),
        st.builds(lambda fs: ("prod", tuple(fs)), st.lists(sub, min_size=2, max_size=3)),
        st.builds(lambda t, e: ("pow", t, e), sub, st.integers(0, 2)),
        st.builds(lambda t: ("paren", t), sub),
    )


trees = st.recursive(leaves, extend, max_leaves=6)


def render(t, level=0):
    kind = t[0]
    if kind == "num":
        v = t[1]
        text = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    elif kind == "q":
        text = "q" if t[1] is None else f"q^{t[1]}"
    elif kind == "gen":
        text = f"{t[1]}{t[2]}"
    elif kind == "sum":
        (lead, first), rest = t[2][0], t[2][1:]
        text = lead + render(first, 1) + "".join(f" {s} {render(u, 1)}" for s, u in rest)
    elif kind == "prod":
        text = "*".join(render(f, 2) for f in t[1])
    elif kind == "pow":
        text = f"{render(t[1], 3)}^{t[2]}"
    else:
        text = f"({render(t[1])})"
    return text if LEVEL[kind] >= level else f"({text})"


def has_gen(t):
    kind = t[0]
    if kind in ("num", "q", "gen"):
        return kind == "gen"
    if kind == "sum":
        return any(has_gen(u) for _, u in t[2])
    if kind == "prod":
        return any(has_gen(f) for f in t[1])
    return has_gen(t[1])


def build(t, one, mul, leaf):
    """Value of tree t with no parser involved: leaves from leaf, the rest from one and mul."""
    kind = t[0]
    if kind in ("num", "q", "gen"):
        return leaf(t)
    if kind == "paren":
        return build(t[1], one, mul, leaf)
    if kind == "pow":
        return reduce(mul, [build(t[1], one, mul, leaf)] * t[2], one)
    if kind == "prod":
        return reduce(mul, [build(f, one, mul, leaf) for f in t[1]], one)
    out = one - one
    for sign, u in t[2]:
        v = build(u, one, mul, leaf)
        out = out - v if sign == "-" else out + v
    return out


def scalar_leaf(F):
    return lambda t: F.scalar(t[1]) if t[0] == "num" else F.qpow(1 if t[1] is None else t[1])


def element_leaf(A):
    def leaf(t):
        if t[0] != "gen":
            return A.scalar_element(scalar_leaf(A.field)(t))
        e = [int(j == t[2]) for j in range(1, A.n + 1)]
        z = [0] * A.n
        return {"x": A.monomial(e, z), "d": A.monomial(z, e),
                "a": A.one() + A.monomial(e, e)}[t[1]]
    return leaf


@seed(20240901)
@settings(max_examples=200, deadline=None)
@given(t=trees, ell=st.sampled_from([3, 5]))
def test_evaluate_matches_a_direct_construction(t, ell):
    A = weyl(ell, n=N_GENS)
    src = render(t)
    assert evaluate(src, A) == build(t, A.one(), A.multiply, element_leaf(A)), src
    if has_gen(t):
        with pytest.raises(ParseError) as e:
            evaluate_scalar(src, A.field)
        first = re.search(r"[xda]", src)
        assert "not allowed here" in str(e.value)
        assert e.value.offset == first.start(), src
    else:
        F = A.field
        assert evaluate_scalar(src, F) == build(t, F.one, lambda a, b: a * b, scalar_leaf(F)), src
