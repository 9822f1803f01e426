"""Torsion-group gradings on matrix fibers and quantum Hamiltonian reduction.

Everything is read off one table, row_weights: the weight M^T r mod ell
of each row r in (Z/ell)^n of Mat(ell^n).  The ell-torsion of the
embedded torus grades Mat(ell^n) by it, and invariants split into
blocks, the cosets of the kernel of the weight map.  Reducing by the
moment ideal at an admissible parameter kills all blocks but one,
giving Mat(ell^(n-d)) together with its simple module.  mu(z_j) is
diagonal and equals eta_j exactly on the coset of one weight, so the
report is read off that coset; its verdict is that prod_i
alpha_i^(m_ij), evaluated on the Euler operators in the matrix model,
matches those values and grades the generators, on the Kronecker slots
of the model that fiber-rep checks (fiber.slot_rep).
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import mul
from typing import Sequence

from .cyclotomic import CycScalar
from .fiber import (FiberPoint, FullRep, OutsideAzumayaLocus, _expanded_alpha, alpha_images,
                    digits, moves_one_digit, slot_rep)
from .lattice import TorusEmbedding


def row_weights(emb: TorusEmbedding, ell: int) -> list[tuple[int, ...]]:
    """The weight (M^T r) mod ell of each row index of Mat(ell^n), r its digits."""
    return [tuple(sum(emb.matrix[i][j] * r[i] for i in range(emb.n)) % ell
                  for j in range(emb.d))
            for r in (digits(idx, ell, emb.n) for idx in range(ell ** emb.n))]


def phi_dagger(point: FiberPoint, emb: TorusEmbedding) -> tuple[CycScalar, ...]:
    """Pushforward of gamma along the weight matrix: prod_i gamma_i^{m_ij}."""
    # over the m_ij != 0 only; never empty, as TorusEmbedding checks full column rank
    return tuple(reduce(mul, (g ** m[j] for g, m in zip(point.gamma, emb.matrix) if m[j]))
                 for j in range(emb.d))


def admissible_etas(point: FiberPoint, emb: TorusEmbedding) -> list[tuple[CycScalar, ...]]:
    """All parameters with a nonzero reduction: phi(gamma) twisted by
    torsion points in the image of the weight map."""
    weights = row_weights(emb, point.field.ell)
    return _admissible(moment_values(point, emb, weights), weights)


def _admissible(mu: list, weights: list) -> list[tuple[CycScalar, ...]]:
    """mu read at the first row of each weight, in sorted order of the weights;
    mu is constant on each weight's coset, so these are the admissible etas."""
    return [tuple(m[weights.index(w)] for m in mu) for w in sorted(set(weights))]


def moment_values(point: FiberPoint, emb: TorusEmbedding,
                  weights: Sequence[tuple[int, ...]]) -> list[list[CycScalar]]:
    """The diagonal of mu(z_j) on the ell^n row set, one list per j;
    weights is row_weights(emb, ell).

    Entry r of mu(z_j) is prod_i (gamma_i q^{-2 r_i})^{m_ij}
    = phi(gamma)_j q^{-2 (M^T r)_j}.
    """
    F = point.field
    base = phi_dagger(point, emb)
    return [[base[j] * F.qpow(-2 * w[j]) for w in weights] for j in range(emb.d)]


def moment_map_failure(rep: FullRep, emb: TorusEmbedding,
                       mu: Sequence[Sequence[CycScalar]]) -> dict | None:
    """None when the quantum moment map in the slot model rep agrees with
    mu, else its first failure.

    Each alpha_i = 1 + x_i d_i, read off the model as I + x_i d_i and
    written out on its rows (_expanded_alpha), must be diagonal with no zero
    entry; model = prod_i alpha_i^(m_ij) must equal mu[j] row by row; and
    conjugation by it must scale the images X of x_i and d_i by
    s = q^(2 m_ij) and q^(-2 m_ij), that is model[r] = s model[c] at each
    entry (r, c) of X.  The rows of X are read only where the slots cannot
    certify that, which they do when (a) no slot alpha image is None, (b)
    X moves digit i alone (moves_one_digit) and (c) the test holds at
    (a ell^i, b ell^i) for each entry (a, b) of slot i.  Proof.  By (a), row
    r of alpha_k is its scalar times the (r_t, r_t) entries of its slots,
    none zero, so model[r] = C prod_t f_t(r_t) with no factor zero.  By
    (b), an entry (r, c) of X has (r_i, c_i) an entry (a, b) of slot i and
    c_t = r_t for t != i, so model[r] / model[c] = f_i(a) / f_i(b), the
    ratio at (a ell^i, b ell^i).  So the first failure is the dense rule's,
    and a passing model expands only its n alpha images.

    A failure names the first alpha image that is not diagonal
    ({"alpha": "a1"}), or the torus direction j (1-based) and the row r
    where the product differs from mu[j] ({"direction": 1, "row": r}), or
    the direction, the generator and the entry (r, c) whose conjugation
    scaling fails ({"direction": 1, "generator": "x1", "entry": [r, c]}).
    """
    F = rep.field
    slot_alphas = alpha_images(rep)
    alphas = [_expanded_alpha(rep, i, a) for i, a in enumerate(slot_alphas)]
    diagonal = tuple(range(rep.size))
    for i, a in enumerate(alphas):
        if a is None or a.cols != diagonal:
            return {"alpha": f"a{i + 1}"}
    products = None not in slot_alphas  # (a)
    for j, values in enumerate(mu):
        # over the m_ij != 0 only, as in phi_dagger
        model = [reduce(mul, (v ** m[j] for v, m in zip(row, emb.matrix) if m[j]))
                 for row in zip(*(a.vals for a in alphas))]
        for r, (got, want) in enumerate(zip(model, values, strict=True)):
            if got != want:
                return {"direction": j + 1, "row": r}
        for i in range(emb.n):
            step = F.ell ** i
            for name, X, e in (("x", rep.x[i], 2), ("d", rep.d[i], -2)):
                scale = F.qpow(e * emb.matrix[i][j])
                slot = X.slots[i]
                if products and moves_one_digit(X, i) and all(
                        model[a * step] == scale * model[b * step]
                        for a, (b, v) in enumerate(zip(slot.cols, slot.vals)) if v):
                    continue
                for r, c in enumerate(X.dense().cols):
                    if c is not None and model[r] != scale * model[c]:
                        return {"direction": j + 1, "generator": f"{name}{i + 1}",
                                "entry": [r, c]}
    return None


def hamiltonian_reduce(point: FiberPoint, emb: TorusEmbedding, eta: Sequence) -> dict:
    """The report of the quantum Hamiltonian reduction of the matrix fiber
    at parameter eta.

    The moment ideal J is the left ideal of Mat(ell^n) generated by the
    diagonals mu(z_j) - eta_j, so it is spanned by the elementary
    matrices E_ab whose column b is not in B, the rows r with
    mu_j(r) = phi(gamma)_j q^(-2 (M^T r)_j) = eta_j for every j.  As q^-2
    has order ell and phi(gamma) != 0 on the locus, that fixes the weight
    of r, the shift, so B is the grading coset of the first such row.
    The graded part of J has one basis vector per invariant key (a, b)
    with b outside B, and the quotient keeps the |B|^2 keys in B x B.

    The quotient is Mat(|B|), and the invariant module (the column space
    at a row of B) is acted on bijectively, when moment_map_failure passes;
    that one verdict is both is_matrix_algebra and
    module_action_bijective, and a failure is reported, on failure only,
    as failed_moment_map.  When no row survives, the reduction is empty,
    and the report lists the admissible etas in the order of admissible_etas.
    A point of another rank than emb, or an eta without one value per
    torus direction, raises ValueError.
    """
    F = point.field
    if point.n != emb.n:
        raise ValueError("embedding rank differs from point rank")
    if len(eta) != emb.d:
        raise ValueError(f"eta needs one value per torus direction: {emb.d}, not {len(eta)}")
    if not point.in_azumaya_locus():
        raise OutsideAzumayaLocus("reduction needs a locus point")
    eta = tuple(F.scalar(v) for v in eta)
    weights = row_weights(emb, F.ell)
    mu = moment_values(point, emb, weights)
    first = next((r for r in range(len(weights)) if all(m[r] == e for m, e in zip(mu, eta))), None)
    if first is None:
        return {"eta_admissible": False, "ok": False,
                "admissible": [[str(v) for v in eta] for eta in _admissible(mu, weights)]}
    counts = Counter(weights)
    shift = weights[first]
    invariant_dim = sum(c * c for c in counts.values())
    module_dim = counts[shift]
    failure = moment_map_failure(slot_rep(point, emb), emb, mu)
    verdict = failure is None
    report = {
        "invariant_dim": invariant_dim,
        "block_count": len(counts),
        "block_size": module_dim,
        "ideal_dim": invariant_dim - module_dim ** 2,
        "quotient_dim": module_dim ** 2,
        "module_dim": module_dim,
        "is_matrix_algebra": verdict,
        "eta_admissible": True,
        "module_action_bijective": verdict,
        "shift": list(shift),
        "ok": verdict,
    }
    if failure is not None:
        report["failed_moment_map"] = failure
    return report
