"""Scalars of Q(q) built by the field's own arithmetic, for the tests."""


def poly(F, coeffs):
    """sum_e coeffs[e] * q^e in F, every exponent folded by q^ell = 1."""
    return sum((F.scalar(c) * F.qpow(e) for e, c in enumerate(coeffs) if c), F.zero)
