"""Central reductions of the operator algebra and their matrix models.

At a central character the algebra collapses to dimension ell^(2n);
on the locus where every 1 + lambda_i lambda_iv is nonzero it is a
full matrix algebra.  This module builds the central characters, the
rank-one ell x ell model, the n-factor model and its fiber-rep report.

The n-factor model is the braided tensor product of the rank-one models,
untwisted to the plain product, and it is built in one pass: the factor-i
x or d is placed in slot i with each entry scaled by one power of q, fixed
by the digits j > i of its row; see full_matrix_rep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add, mul
from typing import Optional

from .cyclotomic import CycField, CycScalar, power
from .lattice import TorusEmbedding
from .pbw import PBWAlgebra, PBWElement


class OutsideAzumayaLocus(ValueError):
    """Raised when a construction needs 1 + c_i w_i != 0 and it vanishes."""


# ---------------------------------------------------------------------------
# weighted partial permutations over the cyclotomic field


class Matrix:
    """Square matrix over Q(q) with at most one nonzero entry per row: a
    weighted partial permutation, held in two row arrays.  Row r holds
    vals[r] in column cols[r], or nothing when both are None.

    Every image in the matrix model is of this kind: x_i and d_i are
    weighted shifts of one digit, and so is every product of them.  A
    product of two nonzero scalars is never zero, so a product is one pass
    over the rows.  A sum is defined where each row's two entries share
    their column or one of them is empty; a sum that would put two columns
    in one row raises ValueError, as does an entries dict with two entries
    in one row.
    """

    __slots__ = ("field", "size", "cols", "vals")

    def __init__(self, field: CycField, size: int, entries: Optional[dict] = None):
        cols, vals = [None] * size, [None] * size
        for (r, c), v in (entries or {}).items():
            if not v:
                continue
            if not (0 <= r < size and 0 <= c < size):
                raise ValueError(f"entry ({r}, {c}) lies outside a {size}x{size} matrix")
            if cols[r] is not None:
                raise ValueError(f"row {r} has two entries")
            cols[r], vals[r] = c, v
        self.field, self.size, self.cols, self.vals = field, size, tuple(cols), tuple(vals)

    @classmethod
    def _rows(cls, field: CycField, cols: tuple, vals: tuple) -> "Matrix":
        """The matrix of the row arrays as given: no zero check, no copy."""
        out = cls.__new__(cls)
        out.field, out.size, out.cols, out.vals = field, len(cols), cols, vals
        return out

    @classmethod
    def identity(cls, field: CycField, size: int) -> "Matrix":
        return cls._rows(field, tuple(range(size)), (field.one,) * size)

    @property
    def entries(self) -> dict:
        """The nonzero entries as a fresh {(r, c): value} dict."""
        return {(r, c): v for r, (c, v) in enumerate(zip(self.cols, self.vals)) if c is not None}

    def __getitem__(self, rc):
        r, c = rc
        return self.vals[r] if self.cols[r] == c else self.field.zero

    def __add__(self, other):
        return self._plus(other, other.vals)

    def __sub__(self, other):
        return self._plus(other, tuple(None if v is None else -v for v in other.vals))

    def _plus(self, other: "Matrix", other_vals: tuple) -> "Matrix":
        if other.size != self.size:
            raise ValueError("size mismatch")
        cols, vals = list(self.cols), list(self.vals)
        for r, (c, v) in enumerate(zip(other.cols, other_vals)):
            if c is None:
                continue
            if cols[r] is None:
                cols[r], vals[r] = c, v
            elif cols[r] != c:
                raise ValueError(f"the sum puts columns {cols[r]} and {c} in row {r}")
            elif s := vals[r] + v:
                vals[r] = s
            else:
                cols[r] = vals[r] = None
        return Matrix._rows(self.field, tuple(cols), tuple(vals))

    def scale(self, c) -> "Matrix":
        c = self.field.scalar(c)
        if not c:
            return Matrix(self.field, self.size)
        return Matrix._rows(self.field, self.cols, tuple(None if v is None else c * v for v in self.vals))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if other.size != self.size:
            raise ValueError("size mismatch")
        ocols, ovals = other.cols, other.vals
        cols = tuple([None if c is None else ocols[c] for c in self.cols])
        vals = tuple([None if c2 is None else v * ovals[c]
                      for c, c2, v in zip(self.cols, cols, self.vals)])
        return Matrix._rows(self.field, cols, vals)

    def __pow__(self, e: int):
        return power(self, e, Matrix.identity(self.field, self.size))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.size == other.size and self.cols == other.cols and self.vals == other.vals

    def __repr__(self):
        return f"<Matrix {self.size}x{self.size}, {self.size - self.cols.count(None)} nonzero>"


def digits(idx: int, ell: int, n: int) -> tuple[int, ...]:
    """Mixed-radix digits of idx, first factor fastest."""
    out = []
    for _ in range(n):
        out.append(idx % ell)
        idx //= ell
    return tuple(out)


# ---------------------------------------------------------------------------
# fiber points


@dataclass(frozen=True)
class FiberPoint:
    """A central character: values (c_i, w_i) of x_i^ell, d_i^ell, plus roots.

    gamma_i must satisfy gamma_i^ell = 1 + c_i w_i exactly.
    """

    field: CycField
    lam: tuple[tuple[CycScalar, CycScalar], ...]
    gamma: tuple[CycScalar, ...]

    def __post_init__(self):
        F = self.field
        lam = tuple((F.scalar(c), F.scalar(w)) for c, w in self.lam)
        object.__setattr__(self, "lam", lam)
        gamma = tuple(F.scalar(g) for g in self.gamma)
        object.__setattr__(self, "gamma", gamma)
        if len(gamma) != len(lam):
            raise ValueError("one gamma per coordinate pair")
        ell = F.ell
        for i, ((c, w), g) in enumerate(zip(lam, gamma)):
            if g ** ell != F.one + c * w:
                raise ValueError(f"gamma_{i+1}^{ell} != 1 + c*w")

    @property
    def n(self) -> int:
        return len(self.lam)

    def in_azumaya_locus(self) -> bool:
        F = self.field
        return all(bool(F.one + c * w) for c, w in self.lam)


# ---------------------------------------------------------------------------
# rank one matrix model


def rank1_matrix_rep(field: CycField, c, w, gamma) -> "FullRep":
    """The ell x ell representation at a rank-one fiber point, as a
    one-factor FullRep.

    Row r carries the alpha eigenvalue gamma q^(-2r); x lowers the row index
    (cyclically) and d raises it, with delta_r xi_(r+1) = gamma q^(-2r) - 1
    on every row, prod xi = c and prod delta = w.  One seam rule gives all
    three: xi = 1 and delta_r = gamma q^(-2r) - 1 but at the seam row t,
    where xi_(t+1) = c and delta_t is divided by c (c != 0, t = ell - 1) or
    is w / ell (c = 0: row t reads 0 = gamma q^(-2t) - 1, so it still holds).
    For odd ell, prod_r (gamma q^(-2r) - 1) = gamma^ell - 1 = c w, so c != 0
    gives prod delta = w.  At c = 0, gamma^ell = 1 makes gamma a power of
    q^-2, so exactly one delta_t is 0 (delta.index finds it) and the other
    ell - 1 multiply to prod_(u=1)^(ell-1) (zeta^u - 1) = ell.  The alpha
    image is read off by alpha_images, so a check of its diagonal tests it.
    """
    F = field
    ell = F.ell
    c, w = F.scalar(c), F.scalar(w)
    gamma = F.scalar(gamma)
    if not (F.one + c * w):
        raise OutsideAzumayaLocus("1 + c*w = 0: no matrix model at this point")
    if gamma ** ell != F.one + c * w:
        raise ValueError("gamma^ell != 1 + c*w")

    xi = [F.one] * ell  # x e_s = xi_s e_{s-1 mod ell}
    delta = [gamma * F.qpow(-2 * r) - 1 for r in range(ell)]  # d e_r = delta_r e_{r+1 mod ell}
    t = ell - 1 if c else delta.index(F.zero)  # the seam row
    xi[(t + 1) % ell] = c
    delta[t] = delta[t] / c if c else w / ell

    xmat = Matrix(F, ell, {((s - 1) % ell, s): xi[s] for s in range(ell)})
    dmat = Matrix(F, ell, {((r + 1) % ell, r): delta[r] for r in range(ell)})
    return FullRep(field=F, size=ell, x=(xmat,), d=(dmat,))


# ---------------------------------------------------------------------------
# the full matrix model on ell^n dimensions


@dataclass(frozen=True)
class FullRep:
    """The n-factor matrix model: images x_i, d_i in Mat(ell^n)."""

    field: CycField
    size: int
    x: tuple[Matrix, ...]
    d: tuple[Matrix, ...]

    def of_element(self, a: PBWElement) -> Matrix:
        """Image of a PBW element under the representation: the sum over
        terms c x^m d^k of c times the ordered product
        x_1^m_1 ... x_n^m_n d_1^k_1 ... d_n^k_n of the images, so the PBW
        order is kept and no commutation is assumed.  The element's algebra
        must have the rank and the ell of the model, and its terms the same
        m - k mod ell, as those of a T-homogeneous element have: then the
        images of the terms share their column in each row.  Otherwise a
        sum of two term images in two columns of one row raises ValueError."""
        if not isinstance(a, PBWElement):
            raise TypeError("expected a PBW element")
        if a.algebra.n != len(self.x) or a.algebra.field.ell != self.field.ell:
            raise ValueError("element of an algebra of another rank or ell than the model")
        F, gens, terms = self.field, self.x + self.d, []
        for (m, k), c in a.terms.items():
            factors = [g for g, e in zip(gens, m + k) for _ in range(e)]
            if not factors:  # the empty word is I; any other may be the zero matrix
                terms.append(Matrix._rows(F, tuple(range(self.size)), (c,) * self.size))
            else:
                word = reduce(mul, factors)
                terms.append(word if c == F.one else word.scale(c))
        return reduce(add, terms) if terms else Matrix(F, self.size)


def full_matrix_rep(point: FiberPoint, emb: TorusEmbedding) -> FullRep:
    """Assemble the n-factor model from the rank-one models in one pass.

    The braided tensor product places the factor-i rank-one matrix G in
    slot i, and untwisting it to the plain product scales the elementary
    matrix E_rc by q^(-tau(r, c)), tau(r, c) = sum_{i<j} (r_i - c_i) P_ji r_j,
    with r, c the digits of row and column (first factor fastest) and P the
    pairing matrix.  A placed entry (r, c) of G changes digit i only, from
    c_i = b to r_i = a, so tau(r, c) = (a - b) s_i(r) with
    s_i(r) = sum_{j>i} P_ji r_j, and the entry is G_ab q^((b - a) s_i(r)).
    So x_i = I (x) ... (x) X (x) Z^(P_{i+1,i}) (x) ... (x) Z^(P_{n,i}) with
    Z = diag(q^r), and d_i uses the inverse powers of Z.  As s_i reads only
    the digits j > i, each block is twisted once, then copied to ell^i bases.
    """
    F = point.field
    if emb.n != point.n:
        raise ValueError("embedding rank differs from point rank")
    if not point.in_azumaya_locus():
        raise OutsideAzumayaLocus("point has 1 + c_i w_i = 0")
    ell = F.ell
    n = point.n
    size = ell ** n
    P = emb.pairing_matrix()
    local = [rank1_matrix_rep(F, c, w, g) for (c, w), g in zip(point.lam, point.gamma)]

    def place(i: int, G: Matrix) -> Matrix:
        step, cols, vals = ell ** i, [None] * size, [None] * size
        entries = [(a, b, v) for a, (b, v) in enumerate(zip(G.cols, G.vals)) if b is not None]
        for high in range(ell ** (n - i - 1)):  # s_i(r) is fixed by the digits j > i
            s = sum(P[j][i] * rj for j, rj in enumerate(digits(high, ell, n - i - 1), i + 1))
            lo = high * ell * step  # the ell^i bases with these high digits share the block
            for a, b, v in entries:
                row, col = lo + a * step, lo + b * step
                cols[row:row + step] = range(col, col + step)
                vals[row:row + step] = (v * F.qpow((b - a) * s),) * step
        return Matrix._rows(F, tuple(cols), tuple(vals))

    xs = tuple(place(i, local[i].x[0]) for i in range(n))
    ds = tuple(place(i, local[i].d[0]) for i in range(n))
    return FullRep(field=F, size=size, x=xs, d=ds)


def unreached_row(rep: FullRep) -> Optional[int]:
    """Condition (c) of the generation certificate of fiber_rep_report: the
    graph on the rows with an edge c -> r for each nonzero entry (r, c) of
    some rep.x or rep.d is strongly connected.  None when it is, else the
    least row outside the strongly connected component of row 0.  Only a
    graph search is used: no scalar arithmetic and no reduction mod p.
    """
    size = rep.size
    forward: list[list[int]] = [[] for _ in range(size)]
    backward: list[list[int]] = [[] for _ in range(size)]
    for G in rep.x + rep.d:
        for r, c in enumerate(G.cols):
            if c is not None:
                forward[c].append(r)
                backward[r].append(c)

    def reached(edges: list) -> set:
        seen, stack = {0}, [0]
        while stack:
            for v in edges[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    component = reached(forward) & reached(backward)
    return None if len(component) == size else min(set(range(size)) - component)


def alpha_images(rep: FullRep) -> list[Optional[Matrix]]:
    """The images I + x_i d_i of the Euler operators alpha_i = 1 + x_i d_i;
    None for an image with two entries in a row, as a model whose x_i d_i
    leaves the diagonal has."""
    one, out = Matrix.identity(rep.field, rep.size), []
    for x, d in zip(rep.x, rep.d):
        try:
            out.append(one + x * d)
        except ValueError:
            out.append(None)
    return out


def presentation_failure(rep: FullRep, point: FiberPoint, algebra: PBWAlgebra) -> Optional[dict]:
    """None when the generator images of rep satisfy the relations that
    present D_lambda, else the first failing one and the least entry (r, c)
    of its residual lhs - rhs.

    The relations are g_a g_b = (its PBW normal form) for the generators
    g = x_1..x_n, d_1..d_n, and x_i^ell = c_i I, d_i^ell = w_i I.  Only the
    n(2n - 1) pairs with a > b are checked: x_j x_i and d_j d_i with j > i,
    and every d_j x_i.  The others (x_i x_j with i <= j, every x_i d_j, and
    d_i d_j with i <= j) are in PBW order, and of_element builds X(m) D(k)
    as ordered products, so they map to the product of their images by
    construction: checking them tests nothing.

    Both sides are T-homogeneous, so on a model whose generators each move
    one digit of_element sums the right-hand side's term images as row
    arrays.  A wrong model may put two of them in two columns of one row;
    of_element then raises, and the residual, summed term by term, decides.
    """
    gens, images = algebra.generators(), rep.x + rep.d
    n, ell = algebra.n, rep.field.ell
    # each left-hand side is named by its parts, joined only for a failure
    pairs = (((gens[a], "*", gens[b]), gens[a] * gens[b], images[a] * images[b])
             for a in range(2 * n) for b in range(a))
    central = (((g, "^", ell), algebra.scalar_element(point.lam[a % n][a // n]), images[a] ** ell)
               for a, g in enumerate(gens))
    for lhs, rhs, image in chain(pairs, central):
        try:
            holds = image == rep.of_element(rhs)
        except ValueError:  # two terms in two columns of one row
            holds = False
        residual = {} if holds else _residual(image, [
            rep.of_element(algebra.monomial(m, k, c)) for (m, k), c in rhs.terms.items()])
        if residual:
            entry = min(residual)
            return {"relation": f"{''.join(map(str, lhs))} = {rhs}", "entry": list(entry),
                    "residual": str(residual[entry])}
    return None


def _residual(image: Matrix, terms: list[Matrix]) -> dict:
    """The nonzero entries of image - sum(terms), as {(r, c): value}."""
    out = image.entries
    for term in terms:
        for rc, v in term.entries.items():
            out[rc] = out[rc] - v if rc in out else -v
    return {rc: v for rc, v in out.items() if v}


def fiber_rep_report(point: FiberPoint, algebra: PBWAlgebra) -> dict:
    """The fiber-rep report of the matrix model at point.

    relations_ok: presentation_failure finds none (else it is reported under
    failed_relation), so rep is an algebra map on D_lambda and the span of
    the images of its ell^(2n) basis monomials is the algebra A generated by
    I, the rep.x and the rep.d.  alpha_diagonal_ok (condition (b)): the
    image of alpha_i is diag(gamma_i q^(-2 r_i)), r_i the i-th digit of row
    r.  As gamma_i != 0 on the locus and q^-2 has order ell, row r's
    eigenvalue tuple fixes its digits, so no two rows share one.

    The span is decided by the certificate (b) and (c) alone; no rank is
    computed.  Proof.  Write a_i(r) for the r-th diagonal entry of alpha_i.
    By (b), each row s != r has an i = i(s) with a_i(s) != a_i(r), and the
    product over s != r of (alpha_i - a_i(s) I) / (a_i(r) - a_i(s)) is E_rr
    (Lagrange interpolation over K = Q(q)), so every E_rr lies in A.  For an
    entry G_rc != 0 of a generator G, E_rr G E_cc = G_rc E_rc, so E_rc lies
    in A along each edge c -> r of the row graph of unreached_row, and so
    does the product of the E along each path.  The span of the E_rc with a
    path from c to r (r = c included) is closed under products and holds I
    and every generator, so it is A.  So dim A = N^2, N = rep.size = ell^n,
    exactly when the graph is strongly connected (condition (c)), and ok is
    the same bit as the test dim A == ell^(2n).

    A certified report gives span_dimension = N^2.  A failing one gives no
    span, only its witness: failed_relation, alpha_diagonal_ok false, or
    unreached_row when both checks hold and the graph does not.
    in_azumaya_locus is always true: full_matrix_rep raises off the locus.
    """
    F, n, ell = point.field, algebra.n, point.field.ell
    rep = full_matrix_rep(point, algebra.emb)
    failure = presentation_failure(rep, point, algebra)
    relations_ok = not failure
    diagonal = tuple(range(rep.size))
    alpha_ok = all(alpha is not None and alpha.cols == diagonal
                   and alpha.vals == tuple(g * F.qpow(-2 * digits(r, ell, n)[i]) for r in diagonal)
                   for i, (alpha, g) in enumerate(zip(alpha_images(rep), point.gamma)))
    unreached = unreached_row(rep) if relations_ok and alpha_ok else None
    ok = relations_ok and alpha_ok and unreached is None
    report = {"in_azumaya_locus": point.in_azumaya_locus(), "relations_ok": relations_ok,
              "alpha_diagonal_ok": alpha_ok, "expected_span_dimension": ell ** (2 * n), "ok": ok}
    if ok:
        report["span_dimension"] = rep.size ** 2
    if failure:
        report["failed_relation"] = failure
    if unreached is not None:
        report["unreached_row"] = unreached
    return report
