"""The abstract fiber D_lambda, its splitting check, the monomial span
count and the certified rank: test oracles of qweyl.fiber and qweyl.pbw.

FiberAlgebra is the quotient of the operator algebra at a central
character, with every exponent below ell.  The splitting module is
D_lambda modulo the left ideal of the alpha_i - gamma_i, with the basis
keys that are not pivots of that ideal (in basis_keys order); both
endo_splitting_check and all_pairs_action read it off splitting_module.
basis_rank counts the span of the ell^(2n) monomial images of a FullRep
with rank.  fiber_rep_report does not count it: its generation
certificate decides the span, and basis_rank is the count that the tests
hold the certificate to.  It reads only the generators' * and entries,
so it takes the DictMatrix generators of the splitting module too, which
need not hold one entry per row.  rank and basis_rank are module globals,
so a patch of splitting.rank or splitting.basis_rank reaches
endo_splitting_check.

rank is the modular certificate against a proven bound with an exact
SpanBasis count behind it: the oracle of basis_rank and of the
full-system center dimension in test_pbw.  The package itself certifies
one rank, in pbw.center_report, and solves exactly with linalg.nullspace.
"""

from itertools import product as iproduct
from typing import Callable, Iterable, Sequence

from qweyl import linalg, pbw
from qweyl.cyclotomic import CycField
from qweyl.fiber import FiberPoint, FullRep, Matrix, OutsideAzumayaLocus
from qweyl.linalg import SpanBasis, Vec, vec_accumulate
from qweyl.pbw import PBWAlgebra, PBWElement

from dict_matrix import DictMatrix


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


def splitting_module(fib: FiberAlgebra):
    """(size, action): the dimension of the module fib / I, I the left
    ideal of the alpha_i - gamma_i, and the map from a fiber element u to
    the entries of its matrix on the module basis b, whose column j is
    u * b_j reduced modulo I: one fiber product per basis element."""
    gens = [fib.alpha(i + 1) - fib.point.gamma[i] for i in range(fib.n)]
    ideal = fib.left_ideal(gens)
    pivots = set(ideal.pivots())
    module_basis = [key for key in fib.basis_keys() if key not in pivots]
    coord = {key: idx for idx, key in enumerate(module_basis)}

    def action(u: PBWElement) -> dict:
        return {(coord[i], j): v for j, bkey in enumerate(module_basis)
                for i, v in ideal.reduce((u * fib.monomial(*bkey)).terms).items()}

    return len(module_basis), action


def endo_splitting_check(algebra: PBWAlgebra, point: FiberPoint) -> bool:
    """Bijectivity of the action map D_lambda -> End(D_P').

    Puts the matrices of the 2n generators on the splitting module in a
    FullRep and spans the images of the ell^(2n) fiber basis monomials;
    true iff the module has dimension ell^n and the span has full
    dimension ell^(2n), i.e. the map is injective hence bijective.  The
    generator matrices need not be weighted permutations, as the module
    basis is read off SpanBasis pivots.
    """
    if not point.in_azumaya_locus():
        raise OutsideAzumayaLocus("splitting is only defined over the locus")
    fib = FiberAlgebra(algebra, point)
    ell, n = fib.ell, fib.n
    size, action = splitting_module(fib)
    if size != ell ** n:
        return False
    rep = FullRep(x=tuple(DictMatrix(fib.field, size, action(fib.x(i + 1))) for i in range(n)),
                  d=tuple(DictMatrix(fib.field, size, action(fib.d(i + 1))) for i in range(n)))
    return basis_rank(rep) == ell ** (2 * n)


def all_pairs_action(fib: FiberAlgebra) -> dict:
    """{basis key: entries of the matrix of that fiber monomial on the
    splitting module}, one fiber product per pair (monomial, module basis
    element): the oracle of the generator actions of endo_splitting_check."""
    _, action = splitting_module(fib)
    return {key: action(fib.monomial(*key)) for key in fib.basis_keys()}


def rank(vectors: Callable[[], Iterable[Vec]], field: CycField, bound: int) -> int:
    """Rank over Q(q) of what vectors() yields, where bound is a proven upper
    bound on it: certified when the rank mod p equals bound (rank mod p <=
    rank over Q(q) <= bound, see modular_rank), else counted exactly by a
    SpanBasis over a second call to vectors().  The rank mod p is read up to
    bound + 1, one pivot past the bound, so a bound below it is never
    certified."""
    if linalg.modular_rank(vectors(), field, bound + 1) == bound:
        return bound
    span = SpanBasis(field)
    for v in vectors():
        span.add(v)
    return span.rank


def basis_rank(rep: FullRep) -> int:
    """Rank over Q(q) of the images under rep of the ell^(2n) monomials
    x^m d^k with every exponent below ell; their number ell^(2n) bounds it
    (see rank).  Each ordered word X(m) = x_1^m_1 ... x_n^m_n is
    built once, as X(m - e_j) * x_j with j the last index where m is
    nonzero, and likewise each D(k); the image of x^m d^k is X(m) * D(k).
    """
    ell, n = rep.field.ell, len(rep.x)
    ident = Matrix.identity(rep.field, rep.size)

    def words(gens: tuple) -> list:
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


def forbid_counts(monkeypatch):
    """Make every rank count raise: the modular rank, read by rank and by
    pbw.center_report, and each SpanBasis.add of an exact solve.  A
    fiber-rep report makes none, passing or failing; building a
    TorusEmbedding does (its faithfulness check), so build the embedding
    first."""
    def counted(*args):
        raise AssertionError("a rank was counted")

    monkeypatch.setattr(linalg, "modular_rank", counted)
    monkeypatch.setattr(pbw, "modular_rank", counted)
    monkeypatch.setattr(SpanBasis, "add", counted)
