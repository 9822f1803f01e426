"""Torsion-group gradings on matrix fibers and quantum Hamiltonian reduction.

The ell-torsion of the embedded torus grades Mat(ell^n) through the
weight map r -> M^T r mod ell on the row set (Z/ell)^n; invariants
split into blocks indexed by its fibers, the cosets of the kernel of
that map.  Reducing by the moment ideal at an admissible parameter
kills all blocks but one, giving Mat(ell^(n-d)) together with its
simple module.  The moment generators are diagonal and vanish exactly
on the coset of one weight, so the dimensions are read off that coset;
the verdict rests on the quantum moment map mu(z_j) = prod_i
alpha_i^(m_ij), evaluated on the Euler operators in the matrix model,
matching those diagonals and grading the generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

from .cyclotomic import CycScalar
from .fiber import FiberPoint, OutsideAzumayaLocus, digits, full_matrix_rep
from .lattice import TorusEmbedding
from .pbw import PBWAlgebra


class EmptyReductionError(ValueError):
    """The moment ideal is the unit ideal: eta misses the admissible set."""

    def __init__(self, admissible: list, message: str):
        super().__init__(message)
        self.admissible = admissible


def row_weights(emb: TorusEmbedding, ell: int) -> list[tuple[int, ...]]:
    """The weight (M^T r) mod ell of each row index of Mat(ell^n), r its digits."""
    return [tuple(sum(emb.matrix[i][j] * r[i] for i in range(emb.n)) % ell
                  for j in range(emb.d))
            for r in (digits(idx, ell, emb.n) for idx in range(ell ** emb.n))]


def gamma_grading(emb: TorusEmbedding, ell: int) -> dict[tuple[int, ...], list[int]]:
    """The grading cosets: each weight mapped to the ascending row indices that carry it."""
    cosets: dict[tuple[int, ...], list[int]] = {}
    for idx, weight in enumerate(row_weights(emb, ell)):
        cosets.setdefault(weight, []).append(idx)
    return cosets


def invariant_blocks(cosets: dict) -> dict:
    """Dimension data of the partition of the row set into grading cosets,
    which all have the size of the kernel of the weight map."""
    sizes = [len(rows) for rows in cosets.values()]
    return {
        "block_count": len(sizes),
        "block_size": sizes[0],
        "invariant_dim": sum(s * s for s in sizes),
    }


def phi_dagger(point: FiberPoint, emb: TorusEmbedding) -> tuple[CycScalar, ...]:
    """Pushforward of gamma along the weight matrix: prod_i gamma_i^{m_ij}."""
    return tuple(prod((g ** m[j] for g, m in zip(point.gamma, emb.matrix)), start=point.field.one)
                 for j in range(emb.d))


def admissible_etas(point: FiberPoint, emb: TorusEmbedding) -> list[tuple[CycScalar, ...]]:
    """All parameters with a nonzero reduction: phi(gamma) twisted by
    torsion points in the image of the weight map."""
    F = point.field
    base = phi_dagger(point, emb)
    return [tuple(base[j] * F.qpow(-2 * t[j]) for j in range(emb.d))
            for t in sorted(gamma_grading(emb, F.ell))]


def moment_diagonals(point: FiberPoint, emb: TorusEmbedding, eta: Sequence) -> list[list[CycScalar]]:
    """The diagonals of mu(z_j) - eta_j on the ell^n row set, one list per j.

    Entry r of mu(z_j) is prod_i (gamma_i q^{-2 r_i})^{m_ij}
    = phi(gamma)_j q^{-2 (M^T r)_j}, so the row r column of the ideal
    generator vanishes for all j exactly on one kernel coset.
    """
    F = point.field
    eta = tuple(F.scalar(v) for v in eta)
    base = phi_dagger(point, emb)
    weights = row_weights(emb, F.ell)
    return [[base[j] * F.qpow(-2 * w[j]) - eta[j] for w in weights] for j in range(emb.d)]


def moment_map_ok(point: FiberPoint, emb: TorusEmbedding, diags: Sequence[Sequence[CycScalar]],
                  eta: Sequence[CycScalar]) -> bool:
    """The quantum moment map in the matrix model agrees with diags.

    Each Euler operator alpha_i = 1 + x_i d_i must map to a diagonal
    with no zero entry; mu(z_j) = prod_i alpha_i^(m_ij) must equal
    diags[j] + eta_j, and conjugation by it must scale the images of
    x_i and d_i by q^(2 m_ij) and q^(-2 m_ij).  As mu(z_j) is diagonal
    with no zero entry, that holds iff mu_r = q^(2 m_ij) mu_c at each
    stored entry (r, c) of the image of x_i, and likewise with q^(-2 m_ij)
    for d_i.
    """
    F = point.field
    rep = full_matrix_rep(point, emb)
    A = PBWAlgebra(F, emb)
    alphas = [rep.of_element(A.alpha(i + 1)) for i in range(emb.n)]
    if any(len(a.entries) != rep.size or any(r != c for r, c in a.entries) for a in alphas):
        return False
    for j, diag in enumerate(diags):
        mu = [prod((a[(r, r)] ** m[j] for a, m in zip(alphas, emb.matrix)), start=F.one)
              for r in range(rep.size)]
        if mu != [v + eta[j] for v in diag]:
            return False
        for i in range(emb.n):
            for X, e in ((rep.x[i], 2), (rep.d[i], -2)):
                scale = F.qpow(e * emb.matrix[i][j])
                if any(mu[r] != scale * mu[c] for r, c in X.entries):
                    return False
    return True


@dataclass
class ReductionResult:
    shift: tuple[int, ...]
    surviving: tuple[tuple[int, ...], ...]
    module_column: tuple[int, ...]
    shifted_gamma: tuple[CycScalar, ...]
    invariant_dim: int
    ideal_dim: int
    quotient_dim: int
    module_dim: int
    block_count: int
    block_size: int
    is_matrix_algebra: bool
    module_action_bijective: bool

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


def hamiltonian_reduce(point: FiberPoint, emb: TorusEmbedding, eta: Sequence) -> ReductionResult:
    """Quantum Hamiltonian reduction of the matrix fiber at parameter eta.

    The moment ideal J is the left ideal of Mat(ell^n) generated by the
    diagonals mu(z_j) - eta_j, so it is spanned by the elementary
    matrices E_ab whose column b is not in B, the rows on which every
    diagonal vanishes.  Row r vanishes iff phi(gamma)_j q^(-2 (M^T r)_j)
    = eta_j for every j; as q^-2 has order ell and phi(gamma) != 0 on the
    locus, that fixes the weight M^T r mod ell.  So B is the grading coset
    of that weight, the shift, read off the first vanishing row.  The
    graded part of J has one basis vector per invariant key (a, b) with
    b outside B, and the quotient keeps the |B|^2 keys with a, b in B.

    The quotient is Mat(|B|), and the invariant module (the column space
    at a row of B) is acted on bijectively, when the moment map check
    passes: mu(z_j), built from the images of the Euler operators, equals
    the moment diagonal plus eta_j and grades the images of x_i and d_i
    (see moment_map_ok).
    """
    F = point.field
    ell = F.ell
    n = emb.n
    if not point.in_azumaya_locus():
        raise OutsideAzumayaLocus("reduction needs a locus point")
    eta = tuple(F.scalar(v) for v in eta)

    diags = moment_diagonals(point, emb, eta)
    first = next((idx for idx in range(ell ** n) if not any(dg[idx] for dg in diags)), None)
    if first is None:
        adm = admissible_etas(point, emb)
        listing = "; ".join("(" + ", ".join(str(v) for v in tup) + ")" for tup in adm)
        raise EmptyReductionError(adm, "empty reduction: eta is not in the admissible set {" + listing + "}")
    cosets = gamma_grading(emb, ell)
    blocks = invariant_blocks(cosets)
    shift = row_weights(emb, ell)[first]
    surviving = cosets[shift]
    verdict = moment_map_ok(point, emb, diags, eta)

    # invariant module: the column space at a row u in the surviving
    # coset, i.e. the quotient by the left ideal of shifted Euler
    # operators alpha_i - gamma_i q^{-2 u_i}
    u = digits(first, ell, n)
    shifted_gamma = tuple(point.gamma[i] * F.qpow(-2 * u[i]) for i in range(n))
    return ReductionResult(
        shift=shift, surviving=tuple(digits(idx, ell, n) for idx in surviving),
        module_column=u, shifted_gamma=shifted_gamma,
        invariant_dim=blocks["invariant_dim"],
        ideal_dim=blocks["invariant_dim"] - len(surviving) ** 2,
        quotient_dim=len(surviving) ** 2, module_dim=len(surviving),
        block_count=blocks["block_count"], block_size=blocks["block_size"],
        is_matrix_algebra=verdict, module_action_bijective=verdict,
    )
