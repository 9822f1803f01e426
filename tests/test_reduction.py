"""Hamiltonian reduction of the matrix fibers by the graded torus action."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from qweyl import reduction
from qweyl import (CycField, EmptyReductionError, FiberPoint, Matrix,
                   OutsideAzumayaLocus, TorusEmbedding, admissible_etas,
                   eta_shift, full_matrix_rep, gamma_grading,
                   hamiltonian_reduce, invariant_blocks, moment_diagonals,
                   phi_dagger, verify_qmm_gamma)
from qweyl.fiber import digits


def emb_sum():
    # both coordinates weighted by the single torus direction
    return TorusEmbedding(n=2, d=1, matrix=((1,), (1,)), form=((2,),))


def emb_diff():
    return TorusEmbedding(n=2, d=1, matrix=((1,), (-1,)), form=((2,),))


def emb_id2():
    return TorusEmbedding(n=2, d=2, matrix=((1, 0), (0, 1)), form=((2, 0), (0, 2)))


def trivial_point(F, n=2):
    return FiberPoint(field=F, lam=((F.zero, F.zero),) * n, gamma=(F.one,) * n)


# -- grading ------------------------------------------------------------------

def test_grading_cosets_three_by_three():
    g = gamma_grading(emb_sum(), 3)
    blocks = invariant_blocks(g)
    assert blocks["block_count"] == 3
    assert blocks["block_size"] == 3
    assert blocks["invariant_dim"] == 27
    assert blocks["unimodular"]
    # coset of r is cut out by r1 + r2 mod 3
    for coset, val in zip(g.cosets, g.values):
        assert all((r[0] + r[1]) % 3 == val[0] for r in coset)


def test_grading_degree_and_invariance():
    g = gamma_grading(emb_sum(), 3)
    assert g.deg((1, 0), (0, 0)) == (1,)
    assert g.deg((1, 2), (0, 0)) == (0,)
    assert g.is_invariant_pair((1, 2), (2, 1))
    assert not g.is_invariant_pair((1, 0), (0, 2))


def test_grading_identity_embedding_is_discrete():
    g = gamma_grading(emb_id2(), 3)
    blocks = invariant_blocks(g)
    assert blocks["block_count"] == 9
    assert blocks["block_size"] == 1
    assert blocks["invariant_dim"] == 9


def test_torsion_action_commutes_with_grading():
    F = CycField(3)
    assert verify_qmm_gamma(F, emb_sum())
    assert verify_qmm_gamma(F, emb_diff())
    assert verify_qmm_gamma(F, emb_id2())


# -- moment diagonals ---------------------------------------------------------

def test_moment_diagonal_entries():
    F = CycField(3)
    p = trivial_point(F)
    diags = moment_diagonals(p, emb_sum(), (F.one,))
    assert len(diags) == 1
    for idx in range(9):
        r = digits(idx, 3, 2)
        expect = F.qpow(-2 * (r[0] + r[1])) - F.one
        assert diags[0].entries.get((idx, idx), F.zero) == expect


def test_moment_diagonals_strict_mode():
    F = CycField(3)
    p = trivial_point(F)
    with pytest.raises(ValueError):
        moment_diagonals(p, emb_sum(), (F.qpow(-2),))
    # the relaxed call accepts any eta
    diags = moment_diagonals(p, emb_sum(), (F.qpow(-2),), require_exact=False)
    assert len(diags) == 1


def test_moment_matches_alpha_products_in_the_matrix_model():
    # mu(z) = alpha_1 alpha_2 as honest 9x9 matrices
    F = CycField(3)
    emb = emb_sum()
    p = FiberPoint(field=F, lam=((F.zero, F.zero), (F.scalar(7), F.one)),
                   gamma=(F.one, F.scalar(2)))
    rep = full_matrix_rep(p, emb)
    eta = phi_dagger(p, emb)
    diags = moment_diagonals(p, emb, eta)
    mu = diags[0] + Matrix.from_diag(F, [eta[0]] * 9)
    assert mu == rep.alpha[0] * rep.alpha[1]


def test_moment_conjugation_with_negative_weights():
    # mu(z) x_i = q^(2 m_i) x_i mu(z) and the opposite sign on d_i,
    # exercising a weight matrix with a negative entry
    F = CycField(3)
    emb = emb_diff()
    p = FiberPoint(field=F, lam=((F.scalar(7), F.one), (F.zero, F.zero)),
                   gamma=(F.scalar(2), F.one))
    rep = full_matrix_rep(p, emb)
    eta = phi_dagger(p, emb)
    diags = moment_diagonals(p, emb, eta)
    mu = diags[0] + Matrix.from_diag(F, [eta[0]] * 9)
    for i in range(2):
        m = emb.matrix[i][0]
        assert mu * rep.x[i] == (rep.x[i] * mu).scale(F.qpow(2 * m))
        assert mu * rep.d[i] == (rep.d[i] * mu).scale(F.qpow(-2 * m))


# -- admissible parameters ------------------------------------------------------

def test_admissible_eta_counts():
    F = CycField(3)
    assert len(admissible_etas(trivial_point(F), emb_sum())) == 3
    assert len(admissible_etas(trivial_point(F), emb_id2())) == 9


def test_eta_shift_inverts_the_twist():
    F = CycField(3)
    p = trivial_point(F)
    assert eta_shift(p, emb_sum(), (F.one,)) == (0,)
    assert eta_shift(p, emb_sum(), (F.qpow(-2),)) == (1,)
    assert eta_shift(p, emb_sum(), (F.scalar(5),)) is None


# -- the reduction itself --------------------------------------------------------

def test_reduction_report_at_the_trivial_parameter():
    F = CycField(3)
    res = hamiltonian_reduce(trivial_point(F), emb_sum(), (F.one,))
    assert res.report() == {
        "invariant_dim": 27,
        "block_count": 3,
        "block_size": 3,
        "ideal_dim": 18,
        "quotient_dim": 9,
        "module_dim": 3,
        "is_matrix_algebra": True,
        "eta_admissible": True,
    }
    assert res.module_action_bijective
    assert res.shift == (0,)
    # the surviving block sits over the zero coset
    assert all((r[0] + r[1]) % 3 == 0 for r in res.surviving)


def test_reduction_with_a_shifted_parameter():
    F = CycField(3)
    res = hamiltonian_reduce(trivial_point(F), emb_sum(), (F.qpow(-2),))
    assert res.shift == (1,)
    assert all((r[0] + r[1]) % 3 == 1 for r in res.surviving)
    # module column: first row of the surviving coset, gamma shifted to match
    u = res.module_column
    assert (u[0] + u[1]) % 3 == 1
    assert res.shifted_gamma == tuple(F.qpow(-2 * u[i]) for i in range(2))
    assert res.report()["quotient_dim"] == 9
    assert res.is_matrix_algebra and res.module_action_bijective


def test_reduction_exact_over_the_full_parameter_grid():
    F = CycField(3)
    p = FiberPoint(field=F, lam=((F.scalar(7), F.one), (F.zero, F.zero)),
                   gamma=(F.scalar(2), F.one))
    for eta in admissible_etas(p, emb_sum()):
        res = hamiltonian_reduce(p, emb_sum(), eta)
        assert res.invariant_dim - res.ideal_dim == res.quotient_dim
        assert res.quotient_dim == res.module_dim ** 2
        assert res.is_matrix_algebra and res.module_action_bijective


def test_reduction_rejects_inadmissible_eta():
    F = CycField(3)
    with pytest.raises(EmptyReductionError) as err:
        hamiltonian_reduce(trivial_point(F), emb_sum(), (F.scalar(5),))
    assert len(err.value.admissible) == 3
    assert "admissible set" in str(err.value)


def test_reduction_needs_the_locus():
    F = CycField(3)
    p = FiberPoint(field=F, lam=((F.scalar(-1), F.one), (F.zero, F.zero)),
                   gamma=(F.zero, F.one))
    with pytest.raises(OutsideAzumayaLocus):
        hamiltonian_reduce(p, emb_sum(), (F.one,))


def test_reduction_identity_embedding_collapses_to_scalars():
    F = CycField(3)
    res = hamiltonian_reduce(trivial_point(F), emb_id2(), (F.one, F.one))
    assert res.report() == {
        "invariant_dim": 9,
        "block_count": 9,
        "block_size": 1,
        "ideal_dim": 8,
        "quotient_dim": 1,
        "module_dim": 1,
        "is_matrix_algebra": True,
        "eta_admissible": True,
    }


def test_reduction_trivial_torus_keeps_everything():
    # d = 0: no moment conditions, the reduction is the whole fiber
    F = CycField(3)
    emb = TorusEmbedding(n=1, d=0, matrix=((),), form=())
    p = FiberPoint(field=F, lam=((F.scalar(7), F.one),), gamma=(F.scalar(2),))
    res = hamiltonian_reduce(p, emb, ())
    assert res.report() == {
        "invariant_dim": 9,
        "block_count": 1,
        "block_size": 3,
        "ideal_dim": 0,
        "quotient_dim": 9,
        "module_dim": 3,
        "is_matrix_algebra": True,
        "eta_admissible": True,
    }


# -- checks that fail on a defect --------------------------------------------

BROKEN_DIAGONALS = {
    # row (0, 0) lies on the vanishing coset; set its entry to 1
    "one-entry": lambda F, entries: {**entries, (0, 0): F.one},
    # vanish on rows (0, 0), (1, 0), (2, 0): one row of each grading coset
    "transversal": lambda F, entries: {(i, i): F.one for i in range(3, 9)},
}


def reduce_with_broken_diagonal(mutation):
    """ell = 3, embedding [[1],[1]], trivial point, eta (1,), with the
    moment diagonal replaced by BROKEN_DIAGONALS[mutation]."""
    F = CycField(3)
    original = reduction.moment_diagonals

    def broken(*args, **kwargs):
        diags = original(*args, **kwargs)
        entries = BROKEN_DIAGONALS[mutation](F, dict(diags[0].entries))
        return [Matrix(F, diags[0].size, entries)] + diags[1:]

    reduction.moment_diagonals = broken
    try:
        return hamiltonian_reduce(trivial_point(F), emb_sum(), (F.one,))
    finally:
        reduction.moment_diagonals = original


@pytest.mark.parametrize("mutation, module_dim, quotient_dim",
                         [("one-entry", 2, 6), ("transversal", 3, 9)],
                         ids=list(BROKEN_DIAGONALS))
def test_broken_moment_diagonal_is_not_a_matrix_algebra(mutation, module_dim, quotient_dim):
    res = reduce_with_broken_diagonal(mutation)
    assert res.module_dim == module_dim and res.quotient_dim == quotient_dim
    assert res.is_matrix_algebra is False
    assert res.module_action_bijective is False


@pytest.mark.parametrize("mutation", list(BROKEN_DIAGONALS))
def test_broken_moment_diagonal_is_not_a_matrix_algebra_under_python_O(mutation):
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    code = ("import test_reduction; "
            f"res = test_reduction.reduce_with_broken_diagonal({mutation!r}); "
            "print(res.is_matrix_algebra, res.module_action_bijective)")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"
