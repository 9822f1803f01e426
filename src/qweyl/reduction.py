"""Torsion-group gradings on matrix fibers and quantum Hamiltonian reduction.

The ell-torsion of the embedded torus grades Mat(ell^n) through the
weight map; invariants split into blocks indexed by cosets of the
mod-ell kernel.  Reducing by the moment ideal at an admissible
parameter kills all blocks but one, giving Mat(ell^(n-d)) together
with its simple module, and both facts are verified by explicit
linear algebra rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product as iproduct
from typing import Optional, Sequence

from .cyclotomic import CycField, CycScalar
from .fiber import FiberPoint, Matrix, OutsideAzumayaLocus, digits, undigits
from .lattice import ModEllKernel, TorusEmbedding, kernel_mod_ell, transpose
from .linalg import SpanBasis, nullspace


class EmptyReductionError(ValueError):
    """The moment ideal is the unit ideal: eta misses the admissible set."""

    def __init__(self, admissible: list, message: str):
        super().__init__(message)
        self.admissible = admissible


@dataclass(frozen=True)
class GammaGrading:
    """Grading of Mat(ell^n) rows by the weight map mod ell."""

    ell: int
    emb: TorusEmbedding
    kernel: ModEllKernel
    cosets: tuple[tuple[tuple[int, ...], ...], ...]
    values: tuple[tuple[int, ...], ...]

    def row_value(self, r: Sequence[int]) -> tuple[int, ...]:
        return tuple(v % self.ell for v in self.emb.mdag_vec(tuple(r)))

    def deg(self, r: Sequence[int], s: Sequence[int]) -> tuple[int, ...]:
        rv, sv = self.row_value(r), self.row_value(s)
        return tuple((a - b) % self.ell for a, b in zip(rv, sv))

    def is_invariant_pair(self, r, s) -> bool:
        return self.row_value(r) == self.row_value(s)

    @property
    def unimodular(self) -> bool:
        return self.kernel.free and self.kernel.size == self.ell ** (self.emb.n - self.emb.d)


def gamma_grading(emb: TorusEmbedding, ell: int) -> GammaGrading:
    mdag = transpose(emb.matrix)
    kern = kernel_mod_ell(mdag, ell)
    groups: dict[tuple[int, ...], list] = {}
    for r in iproduct(range(ell), repeat=emb.n):
        val = tuple(sum(emb.matrix[i][j] * r[i] for i in range(emb.n)) % ell
                    for j in range(emb.d))
        groups.setdefault(val, []).append(r)
    ordered = sorted(groups.items(), key=lambda kv: kv[1][0])
    cosets = tuple(tuple(members) for _, members in ordered)
    values = tuple(val for val, _ in ordered)
    return GammaGrading(ell=ell, emb=emb, kernel=kern, cosets=cosets, values=values)


def invariant_blocks(g: GammaGrading) -> dict:
    """Partition of the row set into grading cosets, plus dimension data."""
    sizes = sorted({len(c) for c in g.cosets})
    uniform = sizes[0] if len(sizes) == 1 else None
    return {
        "blocks": g.cosets,
        "block_count": len(g.cosets),
        "block_size": uniform,
        "invariant_dim": sum(len(c) ** 2 for c in g.cosets),
        "unimodular": g.unimodular,
    }


def phi_dagger(point: FiberPoint, emb: TorusEmbedding) -> tuple[CycScalar, ...]:
    """Pushforward of gamma along the weight matrix: prod_i gamma_i^{m_ij}."""
    F = point.field
    out = []
    for j in range(emb.d):
        acc = F.one
        for i in range(emb.n):
            e = emb.matrix[i][j]
            if e:
                acc = acc * point.gamma[i] ** e
        out.append(acc)
    return tuple(out)


def admissible_etas(point: FiberPoint, emb: TorusEmbedding) -> list[tuple[CycScalar, ...]]:
    """All parameters with a nonzero reduction: phi(gamma) twisted by
    torsion points in the image of the weight map."""
    F = point.field
    ell = F.ell
    base = phi_dagger(point, emb)
    images = sorted({tuple(v % ell for v in emb.mdag_vec(r))
                     for r in iproduct(range(ell), repeat=emb.n)})
    return [tuple(base[j] * F.qpow(-2 * t[j]) for j in range(emb.d)) for t in images]


def eta_shift(point: FiberPoint, emb: TorusEmbedding, eta: Sequence) -> Optional[tuple[int, ...]]:
    """The torsion twist t with eta_j = phi(gamma)_j q^(-2 t_j), or None."""
    F = point.field
    base = phi_dagger(point, emb)
    out = []
    for j in range(emb.d):
        target = F.scalar(eta[j])
        t_j = next((t for t in range(F.ell) if base[j] * F.qpow(-2 * t) == target), None)
        if t_j is None:
            return None
        out.append(t_j)
    return tuple(out)


def moment_diagonals(point: FiberPoint, emb: TorusEmbedding, eta: Sequence,
                     require_exact: bool = True) -> list[Matrix]:
    """The diagonal matrices mu(z_j) - eta_j on the ell^n row set.

    The (r, r) entry of mu(z_j) is prod_i (gamma_i q^{-2 r_i})^{m_ij}
    = phi(gamma)_j q^{-2 (M^T r)_j}, so the row r column of the ideal
    generator vanishes for all j exactly on one kernel coset.
    """
    F = point.field
    ell = F.ell
    eta = tuple(F.scalar(v) for v in eta)
    base = phi_dagger(point, emb)
    if require_exact and tuple(base) != eta:
        raise ValueError("eta must equal the gamma pushforward under the weight map")
    out = []
    for j in range(emb.d):
        diag = []
        for idx in range(ell ** emb.n):
            r = digits(idx, ell, emb.n)
            val = sum(emb.matrix[i][j] * r[i] for i in range(emb.n))
            diag.append(base[j] * F.qpow(-2 * val) - eta[j])
        out.append(Matrix.from_diag(F, diag))
    return out


def verify_qmm_gamma(field: CycField, emb: TorusEmbedding) -> bool:
    """Exhaustively check mu(g) E = (g acts on E) mu(g) on elementary matrices.

    mu(g_j) is the unit-normalized moment diagonal q^{-2 (M^T r)_j};
    conjugation by it scales E_{r,s} by q^{-2 (M^T (r-s))_j}, which is
    the grading action of the j-th torsion generator.
    """
    F = field
    ell = F.ell
    size = ell ** emb.n
    for j in range(emb.d):
        mu = Matrix.from_diag(
            F, [F.qpow(-2 * sum(emb.matrix[i][j] * digits(idx, ell, emb.n)[i]
                                for i in range(emb.n))) for idx in range(size)])
        for row in range(size):
            for col in range(size):
                E = Matrix(F, size, {(row, col): F.one})
                r = digits(row, ell, emb.n)
                s = digits(col, ell, emb.n)
                e = sum(emb.matrix[i][j] * (r[i] - s[i]) for i in range(emb.n))
                if mu * E != (E * mu).scale(F.qpow(-2 * e)):
                    return False
    return True


@dataclass
class ReductionResult:
    point: FiberPoint
    emb: TorusEmbedding
    eta: tuple[CycScalar, ...]
    shift: tuple[int, ...]
    grading: GammaGrading
    surviving: tuple[tuple[int, ...], ...]
    module_column: tuple[int, ...]
    shifted_gamma: tuple[CycScalar, ...]
    invariant_dim: int
    ideal_dim: int
    quotient_dim: int
    module_dim: int
    block_count: int
    block_size: Optional[int]
    is_matrix_algebra: bool
    module_action_bijective: bool
    quotient_basis: list = dc_field(repr=False, default_factory=list)

    def report(self) -> dict:
        return {
            "invariant_dim": self.invariant_dim,
            "block_count": self.block_count,
            "block_size": self.block_size,
            "ideal_dim": self.ideal_dim,
            "quotient_dim": self.quotient_dim,
            "module_dim": self.module_dim,
            "is_matrix_algebra": self.is_matrix_algebra,
            "eta_admissible": True,
        }


def _is_matrix_algebra(field: CycField, block: Sequence[int], size: int,
                       restrict) -> bool:
    """Unit, one-dimensional center, full dimension, orthogonal idempotents."""
    m = len(block)
    # the restricted basis: E_{ab} for a, b in the block
    idx = {r: i for i, r in enumerate(block)}
    ident = Matrix(field, m, {(i, i): field.one for i in range(m)})
    if restrict(Matrix.identity(field, size)) != ident:
        return False
    # center: solve z E_{ab} = E_{ab} z for all a, b
    unknowns = [(a, b) for a in range(m) for b in range(m)]
    rows = []
    for a, b, r, c in iproduct(range(m), repeat=4):
        # commutator with E_{ab}: (z E - E z)_{r,c} = z_{ra} [c = b] - [r = a] z_{bc};
        # the two terms share a key only at r = a = b = c, where they cancel
        coeffs: dict = {}
        if c == b:
            coeffs[(r, a)] = field.one
        if r == a:
            coeffs[(b, c)] = -field.one
        if coeffs and not r == a == b == c:
            rows.append(coeffs)
    center = nullspace(rows, unknowns, field=field)
    if len(center) != 1:
        return False
    # orthogonal idempotents summing to the unit
    total = Matrix(field, m)
    for i in range(m):
        e = Matrix(field, m, {(i, i): field.one})
        if e * e != e:
            return False
        for j in range(m):
            if j != i:
                f = Matrix(field, m, {(j, j): field.one})
                if e * f:
                    return False
        total = total + e
    return total == ident


def hamiltonian_reduce(point: FiberPoint, emb: TorusEmbedding, eta: Sequence) -> ReductionResult:
    """Quantum Hamiltonian reduction of the matrix fiber at parameter eta.

    Computes the moment ideal J inside Mat(ell^n), its graded part,
    the invariant quotient with an isomorphism onto the surviving
    block, and the invariant module with its action map.  All claimed
    dimensions and algebra properties are recomputed, not assumed.
    """
    F = point.field
    ell = F.ell
    n, d = emb.n, emb.d
    if not point.in_azumaya_locus():
        raise OutsideAzumayaLocus("reduction needs a locus point")
    eta = tuple(F.scalar(v) for v in eta)
    size = ell ** n

    diags = moment_diagonals(point, emb, eta, require_exact=False)
    vanishing = [idx for idx in range(size) if all(not dg[(idx, idx)] for dg in diags)]
    if not vanishing:
        adm = admissible_etas(point, emb)
        listing = "; ".join("(" + ", ".join(str(v) for v in tup) + ")" for tup in adm)
        raise EmptyReductionError(adm, "empty reduction: eta is not in the admissible set {" + listing + "}")
    shift = eta_shift(point, emb, eta)
    grading = gamma_grading(emb, ell)
    blocks = invariant_blocks(grading)
    invariant_keys = set()
    for coset in grading.cosets:
        lin = [undigits(r, ell) for r in coset]
        for a in lin:
            for b in lin:
                invariant_keys.add((a, b))
    invariant_dim = len(invariant_keys)

    # J as a left ideal: basis monomials times the diagonal generators,
    # reduced with non-invariant coordinates eliminated first so the
    # graded part can be read off the echelon rows.
    def key_order(k):
        return (1 if k in invariant_keys else 0, k)

    span = SpanBasis(F, key_order=key_order)
    for dg in diags:
        for b in range(size):
            ent = dg[(b, b)]
            if not ent:
                continue
            for a in range(size):
                span.add({(a, b): ent})
    ideal_graded = [p for p in span.pivots() if p in invariant_keys]
    ideal_dim = len(ideal_graded)
    quotient_dim = invariant_dim - ideal_dim

    surviving = tuple(digits(idx, ell, n) for idx in vanishing)
    block_lin = sorted(vanishing)
    m = len(block_lin)
    pos = {r: i for i, r in enumerate(block_lin)}

    def restrict(mat: Matrix) -> Matrix:
        ent = {}
        for (r, c), v in mat.entries.items():
            if r in pos and c in pos:
                ent[(pos[r], pos[c])] = v
        return Matrix(F, m, ent)

    # the restriction must identify the quotient: dimensions match, rows
    # with an invariant pivot have support only on invariant keys, and
    # the graded ideal is exactly the kernel of restriction on invariants,
    # acting by zero on the module columns
    is_mat = quotient_dim == m * m
    ideal_acts_by_zero = True
    for p in ideal_graded:
        row = span.row(p)
        if p[1] in pos or any(k not in invariant_keys for k in row):
            is_mat = False
        if any(b in pos for _, b in row):
            ideal_acts_by_zero = False
    is_mat = is_mat and _is_matrix_algebra(F, block_lin, size, restrict)

    # invariant module: the column space at a row u in the surviving
    # coset, i.e. the quotient by the left ideal of shifted Euler
    # operators alpha_i - gamma_i q^{-2 u_i}
    u = digits(block_lin[0], ell, n)
    module_dim = len(block_lin)

    # action map: every invariant basis monomial acts on the column
    # space at u by left multiplication (E_{ab} E_{ru} = delta_{br} E_{au});
    # its image must fill End(module) and the graded ideal must act by zero
    act_span = SpanBasis(F)
    stays_in_module = True
    for (a, b) in sorted(invariant_keys):
        if b in pos:
            if a in pos:
                act_span.add({(pos[a], pos[b]): F.one})
            else:
                stays_in_module = False
    bijective = (act_span.rank == quotient_dim == module_dim ** 2
                 and stays_in_module and ideal_acts_by_zero)

    shifted_gamma = tuple(point.gamma[i] * F.qpow(-2 * u[i]) for i in range(n))
    return ReductionResult(
        point=point, emb=emb, eta=eta, shift=shift, grading=grading,
        surviving=surviving, module_column=u, shifted_gamma=shifted_gamma,
        invariant_dim=invariant_dim, ideal_dim=ideal_dim,
        quotient_dim=quotient_dim, module_dim=module_dim,
        block_count=blocks["block_count"], block_size=blocks["block_size"],
        is_matrix_algebra=is_mat, module_action_bijective=bijective,
        quotient_basis=[(a, b) for a in block_lin for b in block_lin],
    )
