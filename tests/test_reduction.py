"""Hamiltonian reduction of the matrix fibers by the graded torus action."""

import os
import random
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from qweyl import fiber, reduction
from qweyl import (CycField, FiberPoint, FullRep, Matrix,
                   OutsideAzumayaLocus, PBWAlgebra, SpanBasis,
                   TorusEmbedding, admissible_etas, full_matrix_rep,
                   hamiltonian_reduce, moment_map_failure, moment_values, phi_dagger)
from qweyl.cli import run_suite
from qweyl.fiber import digits
from qweyl.reduction import row_weights


def emb_sum():
    # both coordinates weighted by the single torus direction
    return TorusEmbedding(matrix=((1,), (1,)), form=((2,),))


def emb_diff():
    return TorusEmbedding(matrix=((1,), (-1,)), form=((2,),))


def emb_id2():
    return TorusEmbedding(matrix=((1, 0), (0, 1)), form=((2, 0), (0, 2)))


def mdag_vec(emb, r):
    """M^T r: the weight-lattice image sum_i r_i * weight(i)."""
    return tuple(sum(r[i] * emb.matrix[i][j] for i in range(emb.n)) for j in range(emb.d))


def trivial_point(F, n=2):
    return FiberPoint(field=F, lam=((F.zero, F.zero),) * n, gamma=(F.one,) * n)


def cosets_of(emb, ell):
    """Each weight of row_weights mapped to the ascending row indices that carry it."""
    cosets = {}
    for idx, weight in enumerate(row_weights(emb, ell)):
        cosets.setdefault(weight, []).append(idx)
    return cosets


def mu_of(point, emb):
    return moment_values(point, emb, row_weights(emb, point.field.ell))


# -- grading ------------------------------------------------------------------

def test_grading_cosets_three_by_three():
    cosets = cosets_of(emb_sum(), 3)
    assert len(cosets) == 3
    assert {len(rows) for rows in cosets.values()} == {3}
    assert sum(len(rows) ** 2 for rows in cosets.values()) == 27
    # coset of r is cut out by r1 + r2 mod 3
    for val, rows in cosets.items():
        assert all(sum(digits(idx, 3, 2)) % 3 == val[0] for idx in rows)


def test_grading_degree_and_invariance():
    value = {digits(idx, 3, 2): v for idx, v in enumerate(row_weights(emb_sum(), 3))}

    def deg(r, s):  # the degree of E_rs
        return tuple((a - b) % 3 for a, b in zip(value[r], value[s]))

    assert deg((1, 0), (0, 0)) == (1,)
    assert deg((1, 2), (0, 0)) == (0,)
    # (1, 2) and (2, 1) share a coset, (1, 0) and (0, 2) do not
    assert value[(1, 2)] == value[(2, 1)]
    assert value[(1, 0)] != value[(0, 2)]


def test_grading_identity_embedding_is_discrete():
    counts = Counter(row_weights(emb_id2(), 3))
    assert len(counts) == 9
    assert set(counts.values()) == {1}
    assert sum(c * c for c in counts.values()) == 9


def random_embeddings(rng, ell, count):
    """Seeded full-column-rank weight matrices; Mat(ell^n) has at most 225 rows."""
    max_n = {3: 3, 5: 3, 9: 2, 15: 2}[ell]
    out = []
    while len(out) < count:
        n = rng.randint(1, max_n)
        d = rng.randint(1, n)
        matrix = tuple(tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(n))
        form = tuple(tuple(2 * (i == j) for j in range(d)) for i in range(d))
        try:
            out.append(TorusEmbedding(matrix=matrix, form=form))
        except ValueError:
            continue
    return out


@pytest.mark.parametrize("ell", [3, 5, 9, 15])
def test_grading_cosets_partition_the_rows_into_kernel_cosets(ell):
    rng = random.Random(1000 + ell)
    embs = random_embeddings(rng, ell, 8)
    embs.append(TorusEmbedding(matrix=((3,), (3,)), form=((2,),)))
    for emb in embs:
        cosets = cosets_of(emb, ell)
        block_count, block_size = len(cosets), len(next(iter(cosets.values())))
        assert {len(rows) for rows in cosets.values()} == {block_size}
        assert block_count * block_size == ell ** emb.n
        for value, rows in cosets.items():
            for idx in rows:
                r = digits(idx, ell, emb.n)
                assert tuple(mdag_vec(emb, r)[j] % ell for j in range(emb.d)) == value
        kernel = [r for r in product(range(ell), repeat=emb.n)
                  if all(v % ell == 0 for v in mdag_vec(emb, r))]
        assert sorted(digits(idx, ell, emb.n) for idx in cosets[(0,) * emb.d]) == kernel
    # the last one: the weight map r -> 3 (r1 + r2) is onto 3Z/ell when 3 | ell
    expected = {3: (1, 9), 5: (5, 5), 9: (3, 27), 15: (5, 45)}[ell]
    assert (block_count, block_size) == expected


def test_torsion_action_commutes_with_grading():
    # the moment map built from the Euler operators grades the generators
    F = CycField(3)
    p = FiberPoint(field=F, lam=((F.scalar(7), F.one), (F.zero, F.zero)),
                   gamma=(F.scalar(2), F.one))
    for emb in (emb_sum(), emb_diff(), emb_id2()):
        assert moment_map_failure(full_matrix_rep(p, emb), emb, mu_of(p, emb)) is None


def shifted_rep(point, emb):
    """full_matrix_rep with x_1 -> x_1 S and d_1 -> S^-1 d_1, S the cyclic
    shift of the second coordinate: alpha_1 = 1 + x_1 d_1 is unchanged,
    but x_1 and d_1 now move the second coordinate as well."""
    rep = full_matrix_rep(point, emb)
    F = rep.field
    # with two factors, adding ell to a row index raises its second digit mod ell
    S = Matrix(F, rep.size, {((idx + F.ell) % rep.size, idx): F.one for idx in range(rep.size)})
    S_inv = Matrix(F, rep.size, {(c, r): v for (r, c), v in S.entries.items()})
    return FullRep(x=(rep.x[0] * S,) + rep.x[1:], d=(S_inv * rep.d[0],) + rep.d[1:])


def test_torsion_action_check_fails_on_a_mutant(monkeypatch):
    F = CycField(3)
    p = trivial_point(F)
    # the shifted x_1 moves the second coordinate, so the scaling fails at its
    # first entry (1, 8) in the direction that weighs the second coordinate
    for emb, direction in ((emb_sum(), 1), (emb_diff(), 1), (emb_id2(), 2)):
        A = PBWAlgebra(F, emb)
        rep, bad = full_matrix_rep(p, emb), shifted_rep(p, emb)
        # the Euler images, hence mu, are those of the true model ...
        for i in (1, 2):
            assert bad.of_element(A.alpha(i)) == rep.of_element(A.alpha(i))
        mu = mu_of(p, emb)
        # ... so only the conjugation by mu tells them apart
        failure = moment_map_failure(bad, emb, mu)
        assert failure == {"direction": direction, "generator": "x1", "entry": [1, 8]}
        monkeypatch.setattr(reduction, "full_matrix_rep", shifted_rep)
        res = hamiltonian_reduce(p, emb, phi_dagger(p, emb))
        assert not res["is_matrix_algebra"] and not res["module_action_bijective"]
        assert res["failed_moment_map"] == failure
        monkeypatch.undo()
        assert moment_map_failure(rep, emb, mu) is None
        assert "failed_moment_map" not in hamiltonian_reduce(p, emb, phi_dagger(p, emb))
    # the moment values of another embedding are not the moment map of this
    # one: row 3, digits (0, 1), has weight 1 under (1), (1) and 2 under (1), (-1)
    rep = full_matrix_rep(p, emb_sum())
    assert moment_map_failure(rep, emb_sum(), mu_of(p, emb_diff())) == {"direction": 1, "row": 3}


def test_an_alpha_off_the_diagonal_is_named(monkeypatch):
    # with d_2 replaced by x_2, alpha_2 = I + x_2^2 leaves the diagonal, and
    # the check stops at it before any moment value is compared
    F = CycField(3)
    p, emb = trivial_point(F), emb_sum()
    rep = full_matrix_rep(p, emb)
    bad = FullRep(x=rep.x, d=(rep.d[0], rep.x[1]))
    assert moment_map_failure(bad, emb, mu_of(p, emb)) == {"alpha": "a2"}
    monkeypatch.setattr(reduction, "full_matrix_rep", lambda *args: bad)
    res = hamiltonian_reduce(p, emb, phi_dagger(p, emb))
    assert res["ok"] is False and res["failed_moment_map"] == {"alpha": "a2"}


# -- moment diagonals ---------------------------------------------------------

def test_moment_diagonal_entries():
    F = CycField(3)
    p = trivial_point(F)
    mu = mu_of(p, emb_sum())
    assert len(mu) == 1
    assert len(mu[0]) == 9
    for idx in range(9):
        r = digits(idx, 3, 2)
        assert mu[0][idx] == F.qpow(-2 * (r[0] + r[1]))


def test_moment_matches_alpha_products_in_the_matrix_model():
    # mu(z) = alpha_1 alpha_2 as honest 9x9 matrices
    F = CycField(3)
    emb = emb_sum()
    p = FiberPoint(field=F, lam=((F.zero, F.zero), (F.scalar(7), F.one)),
                   gamma=(F.one, F.scalar(2)))
    rep = full_matrix_rep(p, emb)
    A = PBWAlgebra(F, emb)
    mu = Matrix(F, 9, {(r, r): v for r, v in enumerate(mu_of(p, emb)[0])})
    assert mu == rep.of_element(A.alpha(1) * A.alpha(2))


def test_moment_conjugation_with_negative_weights():
    # mu(z) x_i = q^(2 m_i) x_i mu(z) and the opposite sign on d_i,
    # exercising a weight matrix with a negative entry
    F = CycField(3)
    emb = emb_diff()
    p = FiberPoint(field=F, lam=((F.scalar(7), F.one), (F.zero, F.zero)),
                   gamma=(F.scalar(2), F.one))
    rep = full_matrix_rep(p, emb)
    A = PBWAlgebra(F, emb)
    mu = Matrix(F, 9, {(r, r): v for r, v in enumerate(mu_of(p, emb)[0])})
    # mu(z) = alpha_1 alpha_2^-1, the second Euler image inverted entrywise
    alpha2 = rep.of_element(A.alpha(2))
    alpha2_inv = Matrix(F, 9, {(r, r): alpha2[(r, r)].inverse() for r in range(9)})
    assert mu == rep.of_element(A.alpha(1)) * alpha2_inv
    for i in range(2):
        m = emb.matrix[i][0]
        assert mu * rep.x[i] == (rep.x[i] * mu).scale(F.qpow(2 * m))
        assert mu * rep.d[i] == (rep.d[i] * mu).scale(F.qpow(-2 * m))


def test_moment_products_never_start_from_the_unit(monkeypatch):
    # each row's model value multiplies its factors alpha_i^(m_ij), m_ij != 0,
    # with no product by the unit to start it: on the weights (1), (1) that is
    # one product per row, 9 fewer than a product started from 1 makes
    from qweyl.cyclotomic import CycScalar
    F = CycField(3)
    emb = emb_sum()
    p = FiberPoint(field=F, lam=((F.zero, F.zero), (F.scalar(7), F.one)),
                   gamma=(F.one, F.scalar(2)))
    rep, mu = full_matrix_rep(p, emb), mu_of(p, emb)
    mul, calls = CycScalar.__mul__, [0]

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(CycScalar, "__mul__", counted)
    monkeypatch.setattr(CycScalar, "__rmul__", counted)
    fiber.alpha_images(rep)
    alpha_products, calls[0] = calls[0], 0
    assert moment_map_failure(rep, emb, mu) is None
    conjugations = sum(len(G.entries) for G in rep.x + rep.d)  # mu_r = q^(+-2) mu_c per entry
    assert calls[0] == alpha_products + 9 + conjugations
    # phi_dagger multiplies the two gammas once, and no unit
    calls[0] = 0
    assert phi_dagger(p, emb) == (F.scalar(2),) and calls[0] == 1


# -- admissible parameters ------------------------------------------------------

def test_admissible_eta_counts():
    F = CycField(3)
    assert len(admissible_etas(trivial_point(F), emb_sum())) == 3
    assert len(admissible_etas(trivial_point(F), emb_id2())) == 9


# -- the reduction itself --------------------------------------------------------

def test_reduction_report_at_the_trivial_parameter():
    F = CycField(3)
    res = hamiltonian_reduce(trivial_point(F), emb_sum(), (F.one,))
    assert res == {
        "invariant_dim": 27,
        "block_count": 3,
        "block_size": 3,
        "ideal_dim": 18,
        "quotient_dim": 9,
        "module_dim": 3,
        "is_matrix_algebra": True,
        "eta_admissible": True,
        "module_action_bijective": True,
        "shift": [0],
        "ok": True,
    }


def test_reduction_with_a_shifted_parameter():
    F = CycField(3)
    res = hamiltonian_reduce(trivial_point(F), emb_sum(), (F.qpow(-2),))
    assert res["shift"] == [1]
    # the surviving rows: the mu entry is eta exactly on the coset of the shift
    mu = mu_of(trivial_point(F), emb_sum())[0]
    surviving = [digits(idx, 3, 2) for idx in range(9) if mu[idx] == F.qpow(-2)]
    assert len(surviving) == 3 and all((r[0] + r[1]) % 3 == 1 for r in surviving)
    assert res["quotient_dim"] == 9
    assert res["is_matrix_algebra"] and res["module_action_bijective"] and res["ok"]


def test_reduction_exact_over_the_full_parameter_grid():
    F = CycField(3)
    p = FiberPoint(field=F, lam=((F.scalar(7), F.one), (F.zero, F.zero)),
                   gamma=(F.scalar(2), F.one))
    for eta in admissible_etas(p, emb_sum()):
        res = hamiltonian_reduce(p, emb_sum(), eta)
        assert res["invariant_dim"] - res["ideal_dim"] == res["quotient_dim"]
        assert res["quotient_dim"] == res["module_dim"] ** 2
        assert res["is_matrix_algebra"] and res["module_action_bijective"]


def test_reduction_builds_the_row_weight_table_once(monkeypatch):
    # phi_dagger too: an inadmissible eta reads its admissible list off the same table
    calls = {"row_weights": 0, "phi_dagger": 0}

    def counted(name):
        original = getattr(reduction, name)

        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    for name in calls:
        monkeypatch.setattr(reduction, name, counted(name))
    F = CycField(3)
    for eta, admissible in ((1, True), (5, False)):
        res = hamiltonian_reduce(trivial_point(F), emb_sum(), (F.scalar(eta),))
        assert res["ok"] is res["eta_admissible"] is admissible
        assert calls == {"row_weights": 1, "phi_dagger": 1}, eta
        calls.update(row_weights=0, phi_dagger=0)


def test_reduction_rejects_inadmissible_eta():
    F = CycField(3)
    for p in (trivial_point(F), FiberPoint(field=F, lam=((F.scalar(7), F.one), (F.zero, F.zero)),
                                           gamma=(F.scalar(2), F.one))):
        res = hamiltonian_reduce(p, emb_sum(), (F.scalar(5),))
        listed = [[str(v) for v in tup] for tup in admissible_etas(p, emb_sum())]
        assert res == {"eta_admissible": False, "admissible": listed, "ok": False}
        assert len(listed) == 3
    assert res["admissible"] == [["2"], ["2*q"], ["(-2)*q - 2"]]


def test_reduction_needs_the_locus():
    F = CycField(3)
    p = FiberPoint(field=F, lam=((F.scalar(-1), F.one), (F.zero, F.zero)),
                   gamma=(F.zero, F.one))
    with pytest.raises(OutsideAzumayaLocus):
        hamiltonian_reduce(p, emb_sum(), (F.one,))


def test_reduction_checks_the_shapes_of_point_and_eta():
    # one eta value per torus direction, and a point of the embedding's rank:
    # eta (1,) on a d = 2 embedding would check z_1 alone
    F = CycField(3)
    with pytest.raises(ValueError, match="one value per torus direction"):
        hamiltonian_reduce(trivial_point(F), emb_id2(), (F.one,))
    with pytest.raises(ValueError, match="one value per torus direction"):
        hamiltonian_reduce(trivial_point(F), emb_sum(), (F.one, F.one))
    with pytest.raises(ValueError, match="rank"):
        hamiltonian_reduce(trivial_point(F, n=1), emb_sum(), (F.one,))


def test_reduction_identity_embedding_collapses_to_scalars():
    F = CycField(3)
    res = hamiltonian_reduce(trivial_point(F), emb_id2(), (F.one, F.one))
    assert res == {
        "invariant_dim": 9,
        "block_count": 9,
        "block_size": 1,
        "ideal_dim": 8,
        "quotient_dim": 1,
        "module_dim": 1,
        "is_matrix_algebra": True,
        "eta_admissible": True,
        "module_action_bijective": True,
        "shift": [0, 0],
        "ok": True,
    }


def test_reduction_trivial_torus_keeps_everything():
    # d = 0: no moment conditions, the reduction is the whole fiber
    F = CycField(3)
    emb = TorusEmbedding(matrix=((),), form=())
    p = FiberPoint(field=F, lam=((F.scalar(7), F.one),), gamma=(F.scalar(2),))
    res = hamiltonian_reduce(p, emb, ())
    assert res == {
        "invariant_dim": 9,
        "block_count": 1,
        "block_size": 3,
        "ideal_dim": 0,
        "quotient_dim": 9,
        "module_dim": 3,
        "is_matrix_algebra": True,
        "eta_admissible": True,
        "module_action_bijective": True,
        "shift": [],
        "ok": True,
    }


# -- checks that fail on a defect --------------------------------------------

BROKEN_DIAGONALS = {
    # row (0, 0) lies on the coset where mu = eta; set its mu entry to eta + 1
    "one-entry": lambda eta, mu: [eta + 1] + mu[1:],
    # mu = eta on rows (0, 0), (1, 0), (2, 0) only: one row of each grading coset
    "transversal": lambda eta, mu: [eta] * 3 + [eta + 1] * 6,
}


def reduce_with_broken_diagonal(mutation, reducer=hamiltonian_reduce):
    """reducer at ell = 3, embedding [[1],[1]], trivial point, eta (1,),
    with the moment values replaced by BROKEN_DIAGONALS[mutation]."""
    F = CycField(3)
    original = reduction.moment_values

    def broken(*args, **kwargs):
        mu = original(*args, **kwargs)
        return [BROKEN_DIAGONALS[mutation](F.one, mu[0])] + mu[1:]

    reduction.moment_values = broken
    try:
        return reducer(trivial_point(F), emb_sum(), (F.one,))
    finally:
        reduction.moment_values = original


@pytest.mark.parametrize("mutation, module_dim, quotient_dim",
                         [("one-entry", 3, 9), ("transversal", 3, 9)],
                         ids=list(BROKEN_DIAGONALS))
def test_broken_moment_diagonal_is_not_a_matrix_algebra(mutation, module_dim, quotient_dim):
    # the dimensions are those of the grading coset of the first vanishing row
    res = reduce_with_broken_diagonal(mutation)
    assert res["module_dim"] == module_dim and res["quotient_dim"] == quotient_dim
    assert res["is_matrix_algebra"] is False
    assert res["module_action_bijective"] is False


@pytest.mark.parametrize("mutation", list(BROKEN_DIAGONALS))
def test_broken_moment_diagonal_is_not_a_matrix_algebra_under_python_O(mutation):
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    code = ("import test_reduction; "
            f"res = test_reduction.reduce_with_broken_diagonal({mutation!r}); "
            "print(res['is_matrix_algebra'], res['module_action_bijective'])")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


# -- the closed form against the elimination it replaces -----------------------

def elimination_oracle(point, emb, eta):
    """ideal_dim, quotient_dim and both verdicts by explicit elimination.

    J is spanned by E_ab (mu(z_j) - eta_j) over all a, b, reduced with the
    non-invariant keys eliminated first, so its graded part is read off
    the echelon pivots.  With B the rows where every diagonal vanishes:
    (a) B is one grading coset; (b) every graded row lies on invariant
    keys and has no column in B; (c) invariant_dim - ideal_dim == |B|^2.
    The quotient is Mat(|B|) on (a), (b) and (c); the module action is
    bijective on (a), (c) and no graded row with a column in B.
    """
    F = point.field
    size = F.ell ** emb.n
    diags = [[v - e for v in values] for values, e in
             zip(reduction.moment_values(point, emb, row_weights(emb, F.ell)), eta)]
    block = {b for b in range(size) if not any(dg[b] for dg in diags)}
    cosets = [set(rows) for rows in cosets_of(emb, F.ell).values()]
    invariant = {(a, b) for lin in cosets for a in lin for b in lin}
    span = SpanBasis(F, key_order=lambda k: (k in invariant, k))
    for dg in diags:
        for b in (b for b, ent in enumerate(dg) if ent):
            for a in range(size):
                span.add({(a, b): dg[b]})
    graded = [p for p in span.pivots() if p in invariant]
    rows_invariant = all(k in invariant for p in graded for k in span.row(p))
    acts_by_zero = all(b not in block for p in graded for _, b in span.row(p))
    quotient_dim = len(invariant) - len(graded)
    one_coset = block in cosets
    full_kernel = quotient_dim == len(block) ** 2
    return {"ideal_dim": len(graded), "quotient_dim": quotient_dim,
            "is_matrix_algebra": one_coset and rows_invariant and acts_by_zero and full_kernel,
            "module_action_bijective": one_coset and full_kernel and acts_by_zero}


def closed_form(res):
    keys = ("ideal_dim", "quotient_dim", "is_matrix_algebra", "module_action_bijective")
    return {k: res[k] for k in keys}


@st.composite
def reduction_data(draw):
    """A locus point, an embedding and an admissible eta.  ell^n stays at
    most 27 so that the oracle's elimination stays small; weights may be
    negative and factors may have c = 0."""
    ell, n = draw(st.sampled_from([(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]))
    F = CycField(ell)
    d = draw(st.integers(0, min(n, 2)))
    weight = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    matrix = draw(st.lists(weight, min_size=n, max_size=n))
    upper = {(a, b): draw(st.integers(-2, 2)) for a in range(d) for b in range(a, d)}
    form = [[upper[min(a, b), max(a, b)] for b in range(d)] for a in range(d)]
    try:
        emb = TorusEmbedding(matrix=matrix, form=form)
    except ValueError:  # not of full column rank
        assume(False)
    lam, gamma = [], []
    for _ in range(n):
        g = F.qpow(draw(st.integers(0, ell - 1)))
        if draw(st.booleans()):  # c = 0: gamma is a root of unity
            c, w = F.zero, F.scalar(draw(st.integers(-3, 3)))
        else:
            g = g * draw(st.sampled_from([1, 2, -2, 3]))
            c = F.scalar(draw(st.sampled_from([1, -1, 2, 7])))
            w = (g ** ell - 1) / c
        lam.append((c, w))
        gamma.append(g)
    point = FiberPoint(field=F, lam=tuple(lam), gamma=tuple(gamma))
    eta = draw(st.sampled_from(admissible_etas(point, emb)))
    return point, emb, eta


@settings(max_examples=60, deadline=None)
@given(reduction_data())
def test_closed_form_matches_the_elimination(data):
    point, emb, eta = data
    res = hamiltonian_reduce(point, emb, eta)
    assert closed_form(res) == elimination_oracle(point, emb, eta)
    assert res["is_matrix_algebra"] and res["quotient_dim"] == res["module_dim"] ** 2
    # the shift is the one twist t in [0, ell)^d with phi(gamma)_j q^(-2 t_j) = eta_j
    F, base = point.field, phi_dagger(point, emb)
    twists = [[t for t in range(F.ell) if base[j] * F.qpow(-2 * t) == eta[j]]
              for j in range(emb.d)]
    assert twists == [[t] for t in res["shift"]]
    # the rows where mu_j = eta_j for every j are the grading coset of the shift
    mu = mu_of(point, emb)
    vanishing = [r for r in range(F.ell ** emb.n) if all(m[r] == e for m, e in zip(mu, eta))]
    assert vanishing == cosets_of(emb, F.ell)[tuple(res["shift"])]


@pytest.mark.parametrize("mutation", list(BROKEN_DIAGONALS))
def test_closed_form_matches_the_elimination_on_broken_diagonals(mutation):
    res = reduce_with_broken_diagonal(mutation)
    expected = reduce_with_broken_diagonal(mutation, elimination_oracle)
    if mutation == "one-entry":
        # the elimination reads 2 rows off the broken diagonal; the closed form
        # keeps the coset of the first vanishing row: 27 - 3^2 and 3^2
        expected.update(ideal_dim=18, quotient_dim=9)
    assert closed_form(res) == expected


def test_a_failed_moment_map_check_fails_both_verdicts(monkeypatch):
    F = CycField(3)
    passing = hamiltonian_reduce(trivial_point(F), emb_sum(), (F.one,))
    failure = {"alpha": "a1"}
    monkeypatch.setattr(reduction, "moment_map_failure", lambda *args: failure)
    res = hamiltonian_reduce(trivial_point(F), emb_sum(), (F.one,))
    assert passing["is_matrix_algebra"] and passing["module_action_bijective"] and passing["ok"]
    assert "failed_moment_map" not in passing and res["failed_moment_map"] == failure
    assert res["is_matrix_algebra"] is False and res["module_action_bijective"] is False
    assert res["ok"] is False
    dims = ("invariant_dim", "ideal_dim", "quotient_dim", "module_dim", "block_count", "block_size")
    assert [res[k] for k in dims] == [passing[k] for k in dims]


# -- a perturbed rank-one model fails both the fiber and the reduction checks ---

def perturbed_rank1(original):
    """fiber._rank1_entries with delta_1, the d entry from row 1 to row 2,
    raised by one; x e_2 is nonzero at the points below, so the image of
    alpha = 1 + x d changes in row 1."""
    def rank1(field, *args):
        x, d = original(field, *args)
        delta = {(r, s): v for r, s, v in d}
        delta[(2, 1)] = delta.get((2, 1), field.zero) + 1
        return x, [(r, s, v) for (r, s), v in delta.items() if v]
    return rank1


def suite_verdicts(perturb):
    """(fiber-rep alpha_diagonal_ok, reduce is_matrix_algebra, reduce
    module_action_bijective) at ell = 3 on a c = 0 and a c != 0 factor."""
    point = {"lambda": [["0", "0"], ["7", "1"]], "gamma": ["1", "2"]}
    cfg = {
        "ell": 3,
        "embedding": {"matrix": [[1], [1]], "form": [[2]]},
        "tasks": [{"type": "fiber-rep", "point": point},
                  {"type": "reduce", "point": point, "eta": ["2"]}],
    }
    original = fiber._rank1_entries
    if perturb:
        fiber._rank1_entries = perturbed_rank1(original)
    try:
        fib, red = run_suite(cfg)["tasks"]
    finally:
        fiber._rank1_entries = original
    return fib["alpha_diagonal_ok"], red["is_matrix_algebra"], red["module_action_bijective"]


def test_perturbed_delta_fails_the_fiber_and_reduction_checks():
    assert suite_verdicts(perturb=False) == (True, True, True)
    assert suite_verdicts(perturb=True) == (False, False, False)


def test_perturbed_delta_fails_the_fiber_and_reduction_checks_under_python_O():
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    code = "import test_reduction; print(*test_reduction.suite_verdicts(perturb=True))"
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False False"
