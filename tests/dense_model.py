"""The dense matrix model on ell^n rows and its checks: the test oracle of
the slot checks in qweyl.fiber and qweyl.reduction.

full_matrix_rep builds the model on its rows in one pass, apart from
fiber.slot_rep but from the same rank-one entries and twist rule.  The
rest are the rules that fiber_rep_report and hamiltonian_reduce applied
to it before they decided on Kronecker slots: of_element maps a PBW
element to the sum of its term images on the rows, presentation_failure
compares each relation's two sides there, alpha_diagonal_ok reads the
diagonal of each I + x_i d_i, and unreached_row searches the row graph.
report is the fiber-rep report of a dense model by those rules;
fiber_rep_report must give the same bytes on the slots.
moment_map_failure is the reduce verdict on a dense model, entry by
entry; reduction.moment_map_failure must give the same witness on the
slots.
"""

from functools import reduce
from itertools import chain
from operator import add, mul

from qweyl import fiber
from qweyl.fiber import FullRep, Matrix, _residual, alpha_images, digits
from qweyl.pbw import PBWElement


def full_matrix_rep(point, emb) -> FullRep:
    """The n-factor model on its ell^n rows, assembled from the rank-one
    models in one pass; at n = 1 it is the rank-one model itself.

    A placed entry (a, b) of the factor-i rank-one matrix is scaled, in a
    row with digits r_j (j > i), by q^(sum_j t_j r_j) with the twist
    exponents t_j of fiber._twist (the derivation is in fiber.slot_rep).
    As the twist reads only the digits j > i, each block is twisted once,
    then copied to ell^i bases.  The rank-one entries and the twist are
    read through the fiber module, so a patch of either moves this model
    as it moves slot_rep's.
    """
    F = point.field
    P, local = fiber._rank1_models(point, emb)
    ell = F.ell
    n = point.n
    size = ell ** n

    def place(i: int, entries: list) -> Matrix:
        step, cols, vals = ell ** i, [None] * size, [None] * size
        for a, b, v in entries:
            # sum_j t_j r_j at each value `high` of the digits j > i, as digits orders them
            twists = [0]
            for t in fiber._twist(P, i, a, b):
                twists = [e + t * r for r in range(ell) for e in twists]
            for high, e in enumerate(twists):  # the ell^i bases below `high` share the block
                row, col = (high * ell + a) * step, (high * ell + b) * step
                cols[row:row + step] = range(col, col + step)
                vals[row:row + step] = (v * F.qpow(e),) * step
        return Matrix._rows(F, tuple(cols), tuple(vals))

    return FullRep(x=tuple(place(i, x) for i, (x, _) in enumerate(local)),
                   d=tuple(place(i, d) for i, (_, d) in enumerate(local)))


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


def moment_map_failure(rep: FullRep, emb, mu):
    """The reduce verdict on the dense model rep: None, or the first alpha
    image off the diagonal, the first row where prod_i alpha_i^(m_ij)
    differs from mu[j], or the first stored entry (r, c) of x_i or d_i with
    mu_r != q^(+-2 m_ij) mu_c; the checks and their order are those of
    reduction.moment_map_failure."""
    F = rep.field
    alphas, diagonal = alpha_images(rep), tuple(range(rep.size))
    for i, a in enumerate(alphas):
        if a is None or a.cols != diagonal:
            return {"alpha": f"a{i + 1}"}
    for j, values in enumerate(mu):
        model = [reduce(mul, (v ** m[j] for v, m in zip(row, emb.matrix) if m[j]))
                 for row in zip(*(a.vals for a in alphas))]
        for r, (got, want) in enumerate(zip(model, values, strict=True)):
            if got != want:
                return {"direction": j + 1, "row": r}
        for i in range(emb.n):
            for name, X, e in (("x", rep.x[i], 2), ("d", rep.d[i], -2)):
                scale = F.qpow(e * emb.matrix[i][j])
                for r, c in enumerate(X.cols):
                    if c is not None and model[r] != scale * model[c]:
                        return {"direction": j + 1, "generator": f"{name}{i + 1}",
                                "entry": [r, c]}
    return None
