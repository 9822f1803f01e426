"""The dense fiber-rep check on ell^n rows: the test oracle of the slot
checks in qweyl.fiber.

These are the rules that fiber_rep_report applied to full_matrix_rep
before it decided on Kronecker slots: of_element maps a PBW element to the
sum of its term images on the rows, presentation_failure compares each
relation's two sides there, alpha_diagonal_ok reads the diagonal of each
I + x_i d_i, and unreached_row searches the row graph.  report is the
fiber-rep report of a dense model by those rules; fiber_rep_report must
give the same bytes on the slots.
"""

from functools import reduce
from itertools import chain
from operator import add, mul

from qweyl.fiber import FullRep, Matrix, _residual, alpha_images, digits
from qweyl.pbw import PBWElement


def of_element(rep: FullRep, a: PBWElement) -> Matrix:
    """Image of a PBW element under the dense model rep: the sum over terms
    c x^m d^k of c times the ordered product x_1^m_1 ... x_n^m_n d_1^k_1 ...
    d_n^k_n of the images, so the PBW order is kept and no commutation is
    assumed.  The element's algebra must have the rank and the ell of the
    model, and its terms the same m - k mod ell, as those of a
    T-homogeneous element have: then the images of the terms share their
    column in each row.  Otherwise a sum of two term images in two columns
    of one row raises ValueError."""
    if not isinstance(a, PBWElement):
        raise TypeError("expected a PBW element")
    if a.algebra.n != len(rep.x) or a.algebra.field.ell != rep.field.ell:
        raise ValueError("element of an algebra of another rank or ell than the model")
    F, gens, terms = rep.field, rep.x + rep.d, []
    for (m, k), c in a.terms.items():
        factors = [g for g, e in zip(gens, m + k) for _ in range(e)]
        if not factors:  # the empty word is I; any other may be the zero matrix
            terms.append(Matrix._rows(F, tuple(range(rep.size)), (c,) * rep.size))
        else:
            word = reduce(mul, factors)
            terms.append(word if c == F.one else word.scale(c))
    return reduce(add, terms) if terms else Matrix(F, rep.size)


def presentation_failure(rep: FullRep, point, algebra):
    """The first relation of D_lambda that the dense model rep fails, with
    the least entry of its residual, or None; the relations and their
    order are those of fiber.presentation_failure."""
    gens, images = algebra.generators(), rep.x + rep.d
    n, ell = algebra.n, rep.field.ell
    pairs = (((gens[a], "*", gens[b]), gens[a] * gens[b], images[a] * images[b])
             for a in range(2 * n) for b in range(a))
    central = (((g, "^", ell), algebra.scalar_element(point.lam[a % n][a // n]), images[a] ** ell)
               for a, g in enumerate(gens))
    for lhs, rhs, image in chain(pairs, central):
        try:
            holds = image == of_element(rep, rhs)
        except ValueError:  # two terms in two columns of one row
            holds = False
        residual = {} if holds else _residual(image, [
            of_element(rep, algebra.monomial(m, k, c)) for (m, k), c in rhs.terms.items()])
        if residual:
            entry = min(residual)
            return {"relation": f"{''.join(map(str, lhs))} = {rhs}", "entry": list(entry),
                    "residual": str(residual[entry])}
    return None


def alpha_diagonal_ok(rep: FullRep, point) -> bool:
    """Each I + x_i d_i of the dense model is diag(gamma_i q^(-2 r_i))."""
    F, n = rep.field, len(rep.x)
    diagonal = tuple(range(rep.size))
    rows = [digits(r, F.ell, n) for r in diagonal]
    return all(alpha is not None and alpha.cols == diagonal
               and alpha.vals == tuple(g * F.qpow(-2 * r[i]) for r in rows)
               for i, (alpha, g) in enumerate(zip(alpha_images(rep), point.gamma)))


def unreached_row(rep: FullRep):
    """None when the row graph of the dense model, an edge c -> r for each
    entry (r, c) of some image, is strongly connected, else the least row
    outside the strongly connected component of row 0."""
    size = rep.size
    forward = [[] for _ in range(size)]
    backward = [[] for _ in range(size)]
    for G in rep.x + rep.d:
        for r, c in enumerate(G.cols):
            if c is not None:
                forward[c].append(r)
                backward[r].append(c)

    def reached(edges):
        seen, stack = {0}, [0]
        while stack:
            for v in edges[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    component = reached(forward) & reached(backward)
    return None if len(component) == size else min(set(range(size)) - component)


def report(rep: FullRep, point, algebra) -> dict:
    """The fiber-rep report of the dense model rep at point."""
    n, ell = algebra.n, rep.field.ell
    failure = presentation_failure(rep, point, algebra)
    alpha_ok = alpha_diagonal_ok(rep, point)
    unreached = unreached_row(rep) if not failure and alpha_ok else None
    ok = not failure and alpha_ok and unreached is None
    out = {"in_azumaya_locus": point.in_azumaya_locus(), "relations_ok": not failure,
           "alpha_diagonal_ok": alpha_ok, "expected_span_dimension": ell ** (2 * n), "ok": ok}
    if ok:
        out["span_dimension"] = rep.size ** 2
    if failure:
        out["failed_relation"] = failure
    if unreached is not None:
        out["unreached_row"] = unreached
    return out


def expanded(rep: FullRep) -> FullRep:
    """The dense model of a slot model: each image written out on its rows."""
    return FullRep(x=tuple(g.dense() for g in rep.x), d=tuple(g.dense() for g in rep.d))
