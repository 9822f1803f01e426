"""Scalars of Q(q) built by the field's own arithmetic, for the tests."""

from fractions import Fraction


def poly(F, coeffs):
    """sum_e coeffs[e] * q^e in F, every exponent folded by q^ell = 1."""
    return sum((F.scalar(c) * F.qpow(e) for e, c in enumerate(coeffs) if c), F.zero)


def fraction_str(s):
    """str(s) as it was printed with fractions.Fraction coefficients: the
    oracle of the integer printer `CycScalar.__str__`."""
    terms = [(e, Fraction(s.num[e], s.den))
             for e in range(s.field.degree - 1, -1, -1) if s.num[e]]
    if not terms:
        return "0"
    return "".join(_fraction_term(e, c, leading=(pos == 0)) for pos, (e, c) in enumerate(terms))


def _fraction_term(power, coeff, leading):
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
