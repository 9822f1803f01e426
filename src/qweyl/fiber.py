"""Central reductions of the operator algebra and their matrix models.

At a central character the algebra collapses to dimension ell^(2n);
on the locus where every 1 + lambda_i lambda_iv is nonzero it is a
full matrix algebra.  This module builds the finite fiber, the
rank-one ell x ell model, the n-factor model, explicit module bases,
and the endomorphism splitting check.

The n-factor model is the braided tensor product of the rank-one models,
untwisted to the plain product, and it is built in one pass: the factor-i
x or d is placed in slot i with each entry scaled by one power of q, fixed
by the digits j > i of its row; see full_matrix_rep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, product as iproduct
from operator import mul
from typing import Optional, Sequence

from .cyclotomic import CycField, CycScalar, power
from .lattice import TorusEmbedding
from .linalg import SpanBasis, rank, vec_accumulate
from .pbw import PBWAlgebra, PBWElement


class OutsideAzumayaLocus(ValueError):
    """Raised when a construction needs 1 + c_i w_i != 0 and it vanishes."""


# ---------------------------------------------------------------------------
# sparse matrices over the cyclotomic field


class Matrix:
    """Sparse square matrix over Q(q); zero entries are absent."""

    __slots__ = ("field", "size", "entries")

    def __init__(self, field: CycField, size: int, entries: Optional[dict] = None):
        self.field = field
        self.size = size
        self.entries = {k: v for k, v in (entries or {}).items() if v}

    @classmethod
    def identity(cls, field: CycField, size: int) -> "Matrix":
        return cls(field, size, {(r, r): field.one for r in range(size)})

    def __getitem__(self, rc):
        return self.entries.get(rc, self.field.zero)

    def __add__(self, other):
        out = vec_accumulate(dict(self.entries), other.entries.items())
        return Matrix(self.field, self.size, out)

    def __sub__(self, other):
        out = vec_accumulate(dict(self.entries), ((k, -v) for k, v in other.entries.items()))
        return Matrix(self.field, self.size, out)

    def scale(self, c) -> "Matrix":
        c = self.field.scalar(c)
        if not c:
            return Matrix(self.field, self.size)
        return Matrix(self.field, self.size, {k: c * v for k, v in self.entries.items()})

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if other.size != self.size:
                raise ValueError("size mismatch")
            rows: dict[int, list] = {}
            for (r, c), v in other.entries.items():
                rows.setdefault(r, []).append((c, v))
            out = vec_accumulate({}, (((r, c2), v * v2) for (r, c), v in self.entries.items()
                                      for c2, v2 in rows.get(c, ())))
            return Matrix(self.field, self.size, out)
        return self.scale(other)

    def __pow__(self, e: int):
        return power(self, e, Matrix.identity(self.field, self.size))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.size == other.size and self.entries == other.entries

    def __repr__(self):
        return f"<Matrix {self.size}x{self.size}, {len(self.entries)} nonzero>"


def digits(idx: int, ell: int, n: int) -> tuple[int, ...]:
    """Mixed-radix digits of idx, first factor fastest."""
    out = []
    for _ in range(n):
        out.append(idx % ell)
        idx //= ell
    return tuple(out)


# ---------------------------------------------------------------------------
# fiber points and the finite-dimensional quotient


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


class FiberAlgebra(PBWAlgebra):
    """The quotient D_lambda of the operator algebra at a central character.

    Its elements are PBW elements with every exponent below ell: monomials
    and products are folded by x_i^ell = c_i and d_i^ell = w_i, and the
    rest of the arithmetic is inherited.
    """

    def __init__(self, algebra: PBWAlgebra, point: FiberPoint):
        if point.n != algebra.n:
            raise ValueError("fiber point rank differs from algebra rank")
        if point.field.ell != algebra.field.ell:
            raise ValueError("fiber point lives over a different field")
        super().__init__(algebra.field, algebra.emb)
        self.algebra = algebra
        self.point = point
        self.ell = algebra.field.ell

    def dimension(self) -> int:
        return self.ell ** (2 * self.n)

    def basis_keys(self):
        rng = range(self.ell)
        for m in iproduct(rng, repeat=self.n):
            for k in iproduct(rng, repeat=self.n):
                yield (m, k)

    def reduce(self, a: PBWElement) -> PBWElement:
        """Fold exponents with x_i^ell = c_i and d_i^ell = w_i."""
        if a.algebra is not self.algebra and a.algebra is not self:
            raise ValueError("element of a different algebra")
        ell = self.ell

        def folded():
            for (m, k), coeff in a.terms.items():
                rm, rk = [], []
                for i in range(self.n):
                    ci, wi = self.point.lam[i]
                    qm, re = divmod(m[i], ell)
                    if qm:
                        coeff = coeff * ci ** qm
                    rm.append(re)
                    qk, rke = divmod(k[i], ell)
                    if qk:
                        coeff = coeff * wi ** qk
                    rk.append(rke)
                yield (tuple(rm), tuple(rk)), coeff

        return PBWElement(self, vec_accumulate({}, folded()))

    def monomial(self, m, k, coeff=1) -> PBWElement:
        return self.reduce(super().monomial(m, k, coeff))

    def multiply(self, a: PBWElement, b: PBWElement) -> PBWElement:
        return self.reduce(super().multiply(a, b))

    def commutator(self, a: PBWElement, b: PBWElement) -> PBWElement:
        return self.reduce(super().commutator(a, b))

    def left_ideal(self, gens: Sequence[PBWElement]) -> SpanBasis:
        """Row space of b*g over all basis monomials b and generators g."""
        span = SpanBasis(self.field)
        for g in gens:
            for key in self.basis_keys():
                v = (self.monomial(*key) * g).terms
                if v:
                    span.add(v)
        return span

    def two_sided_ideal(self, gens: Sequence[PBWElement]) -> SpanBasis:
        """Saturate span <- span + G*span + span*G until stable."""
        span = SpanBasis(self.field)
        queue = [g for g in gens if g]
        mult = self.generators()
        while queue:
            e = queue.pop()
            if not span.add(e.terms):
                continue
            for g in mult:
                queue.append(g * e)
                queue.append(e * g)
        return span


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
        """Image of a PBW or fiber element under the representation: the
        sum over terms c x^m d^k of c times the ordered product
        x_1^m_1 ... x_n^m_n d_1^k_1 ... d_n^k_n of the images, so the PBW
        order is kept and no commutation is assumed."""
        if not isinstance(a, PBWElement):
            raise TypeError("expected a PBW element")
        one, gens = self.field.one, self.x + self.d

        def terms():
            for (m, k), c in a.terms.items():
                factors = [g for g, e in zip(gens, m + k) for _ in range(e)]
                if not factors:  # the empty word is I; any other may be the zero matrix
                    yield from (((r, r), c) for r in range(self.size))
                else:
                    entries = reduce(mul, factors).entries.items()
                    yield from entries if c == one else ((rc, c * v) for rc, v in entries)

        return Matrix(self.field, self.size, vec_accumulate({}, terms()))


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

    def place(i: int, G: dict) -> Matrix:
        step, out = ell ** i, {}
        for high in range(ell ** (n - i - 1)):  # s_i(r) is fixed by the digits j > i
            s = sum(P[j][i] * rj for j, rj in enumerate(digits(high, ell, n - i - 1), i + 1))
            block = [(a * step, b * step, v * F.qpow((b - a) * s)) for (a, b), v in G.items()]
            lo = high * ell * step  # the ell^i bases with these high digits share the block
            out.update(((lo + k + a, lo + k + b), v) for k in range(step) for a, b, v in block)
        return Matrix(F, size, out)

    xs = tuple(place(i, local[i].x[0].entries) for i in range(n))
    ds = tuple(place(i, local[i].d[0].entries) for i in range(n))
    return FullRep(field=F, size=size, x=xs, d=ds)


def generates_matrix_algebra(rep: FullRep) -> bool:
    """Condition (c) of the certificate that I, the alpha images and the
    rep.x, rep.d generate Mat_N(K), K = Q(q) and N = rep.size: the graph on
    the rows with an edge c -> r for each nonzero entry (r, c) of some rep.x
    or rep.d is strongly connected.  Condition (b) is that every alpha image
    is diagonal and no two rows share the tuple of their alpha eigenvalues;
    fiber_rep_report reads it off its alpha_diagonal_ok check.

    Proof.  Write a_i(r) for the r-th diagonal entry of alpha_i.  By (b),
    each row s != r has an i = i(s) with a_i(s) != a_i(r), and the product
    over s != r of (alpha_i - a_i(s) I) / (a_i(r) - a_i(s)) is E_rr
    (Lagrange interpolation over K).  For an entry G_rc != 0 of a generator G,
    E_rr G E_cc = G_rc E_rc, so E_rc is generated along each edge; by (c)
    any two rows are joined by a path c = v_0 -> ... -> v_k = r, and
    E_rc is the product of the E along it.  So every E_rc is generated.

    Only a graph search is used: no scalar arithmetic and no reduction mod p.
    """
    size = rep.size
    forward: dict = {}
    backward: dict = {}
    for G in rep.x + rep.d:
        for r, c in G.entries:
            forward.setdefault(c, []).append(r)
            backward.setdefault(r, []).append(c)

    def reaches_every_row(edges: dict) -> bool:
        seen, stack = {0}, [0]
        while stack:
            for v in edges.get(stack.pop(), ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == size

    return reaches_every_row(forward) and reaches_every_row(backward)


def alpha_images(rep: FullRep) -> list[Matrix]:
    """The images I + x_i d_i of the Euler operators alpha_i = 1 + x_i d_i."""
    one = Matrix.identity(rep.field, rep.size)
    return [one + x * d for x, d in zip(rep.x, rep.d)]


def presentation_failure(rep: FullRep, point: FiberPoint, algebra: PBWAlgebra) -> Optional[dict]:
    """None when the generator images of rep satisfy the relations that
    present D_lambda, else the first failing one and one entry of its
    residual lhs - rhs.

    The relations are g_a g_b = (its PBW normal form) for the generators
    g = x_1..x_n, d_1..d_n, and x_i^ell = c_i I, d_i^ell = w_i I.  Only the
    n(2n - 1) pairs with a > b are checked: x_j x_i and d_j d_i with j > i,
    and every d_j x_i.  The others (x_i x_j with i <= j, every x_i d_j, and
    d_i d_j with i <= j) are in PBW order, and of_element builds X(m) D(k)
    as ordered products, so they map to the product of their images by
    construction: checking them tests nothing.
    """
    gens, images = algebra.generators(), rep.x + rep.d
    n, ell = algebra.n, rep.field.ell
    pairs = ((f"{gens[a]}*{gens[b]}", gens[a] * gens[b], images[a] * images[b])
             for a in range(2 * n) for b in range(a))
    central = ((f"{g}^{ell}", algebra.scalar_element(point.lam[a % n][a // n]), images[a] ** ell)
               for a, g in enumerate(gens))
    for lhs, rhs, image in chain(pairs, central):
        expected = rep.of_element(rhs)
        if image != expected:
            residual = image - expected
            entry = min(residual.entries)
            return {"relation": f"{lhs} = {rhs}", "entry": list(entry),
                    "residual": str(residual[entry])}
    return None


def fiber_rep_report(point: FiberPoint, algebra: PBWAlgebra) -> dict:
    """The fiber-rep report of the matrix model at point.

    relations_ok: presentation_failure finds none (else it is reported under
    failed_relation), so rep is an algebra map on D_lambda and the span of
    the images of its ell^(2n) basis monomials is the algebra generated by
    I, the rep.x and the rep.d.  alpha_diagonal_ok: the image of alpha_i is
    diag(gamma_i q^(-2 r_i)), r_i the i-th digit of row r.  As gamma_i != 0
    on the locus and q^-2 has order ell, row r's eigenvalue tuple fixes its
    digits, so no two rows share one: that is condition (b) of
    generates_matrix_algebra.  When both hold and the certificate does, the
    span is Mat_N(K), N^2, and no monomial image is built; otherwise
    basis_rank counts it.  in_azumaya_locus is always true: full_matrix_rep
    raises off the locus.
    """
    F, n, ell = point.field, algebra.n, point.field.ell
    rep = full_matrix_rep(point, algebra.emb)
    failure = presentation_failure(rep, point, algebra)
    relations_ok = not failure
    alpha_ok = all(alpha.entries == {(r, r): g * F.qpow(-2 * digits(r, ell, n)[i])
                                     for r in range(rep.size)}
                   for i, (alpha, g) in enumerate(zip(alpha_images(rep), point.gamma)))
    certified = relations_ok and alpha_ok and generates_matrix_algebra(rep)
    span_dim = rep.size ** 2 if certified else basis_rank(rep)
    report = {"in_azumaya_locus": point.in_azumaya_locus(), "relations_ok": relations_ok,
              "alpha_diagonal_ok": alpha_ok, "span_dimension": span_dim,
              "expected_span_dimension": ell ** (2 * n),
              "ok": relations_ok and alpha_ok and span_dim == ell ** (2 * n)}
    if failure:
        report["failed_relation"] = failure
    return report


def basis_rank(rep: FullRep) -> int:
    """Rank over Q(q) of the images under rep of the ell^(2n) monomials
    x^m d^k with every exponent below ell; their number ell^(2n) bounds it
    (see linalg.rank).  Each ordered word X(m) = x_1^m_1 ... x_n^m_n is
    built once, as X(m - e_j) * x_j with j the last index where m is
    nonzero, and likewise each D(k); the image of x^m d^k is X(m) * D(k).
    """
    ell, n = rep.field.ell, len(rep.x)
    ident = Matrix.identity(rep.field, rep.size)

    def words(gens: tuple[Matrix, ...]) -> list[Matrix]:
        """The words of gens in the order of iproduct, ident for the empty one."""
        out = {(0,) * n: ident}
        for m in list(iproduct(range(ell), repeat=n))[1:]:
            j = max(i for i, e in enumerate(m) if e)
            prev = out[m[:j] + (m[j] - 1,) + m[j + 1:]]
            out[m] = gens[j] if prev is ident else prev * gens[j]
        return list(out.values())

    xs, ds = words(rep.x), words(rep.d)
    return rank(lambda: ((D if X is ident else X if D is ident else X * D).entries
                         for X in xs for D in ds), rep.field, rep.size ** 2)


# ---------------------------------------------------------------------------
# the splitting check


def endo_splitting_check(algebra: PBWAlgebra, point: FiberPoint) -> bool:
    """Bijectivity of the action map D_lambda -> End(D_P').

    Builds the quotient module abstractly (left ideal by the shifted
    Euler operators, reduced basis), puts the matrices of the 2n
    generators on its basis in a FullRep, and spans the images of the
    ell^(2n) fiber basis monomials; true iff their span has full dimension
    ell^(2n), i.e. the map is injective hence bijective.
    """
    if not point.in_azumaya_locus():
        raise OutsideAzumayaLocus("splitting is only defined over the locus")
    fib = FiberAlgebra(algebra, point)
    ell, n = fib.ell, fib.n
    gens = [fib.alpha(i + 1) - point.gamma[i] for i in range(n)]
    ideal = fib.left_ideal(gens)
    if ell ** (2 * n) - ideal.rank != ell ** n:  # the module dimension
        return False
    pivots = set(ideal.pivots())
    module_basis = [key for key in fib.basis_keys() if key not in pivots]
    coord = {key: idx for idx, key in enumerate(module_basis)}

    def action(g: PBWElement) -> Matrix:
        """The matrix of the generator g on the module basis."""
        return Matrix(fib.field, ell ** n, {
            (coord[i], j): v for j, bkey in enumerate(module_basis)
            for i, v in ideal.reduce((g * fib.monomial(*bkey)).terms).items()})

    rep = FullRep(fib.field, ell ** n, x=tuple(action(fib.x(i + 1)) for i in range(n)),
                  d=tuple(action(fib.d(i + 1)) for i in range(n)))
    return basis_rank(rep) == ell ** (2 * n)
