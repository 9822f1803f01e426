"""Finite fibers: central characters, matrix models, untwisting."""

import inspect
import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qweyl import (CycField, DifferenceOperator, FiberPoint, FullRep, Matrix,
                   OutsideAzumayaLocus, PBWAlgebra, TorusEmbedding,
                   quiver_to_embedding)
from qweyl import fiber
from qweyl.cli import build_point, run_suite, validate_config
from qweyl.expr import evaluate_scalar
from qweyl.fiber import SlotImage, digits
from qweyl.linalg import SpanBasis
from qweyl.pbw import PBWElement

from braided import braided_product, placed, untwist
import dense_model
from dense_model import expanded, full_matrix_rep, of_element
from dict_matrix import DictMatrix
from scalars import poly
import splitting
from splitting import (FiberAlgebra, all_pairs_action, basis_rank, endo_splitting_check,
                       forbid_counts)


def emb_n1():
    return TorusEmbedding(matrix=((1,),), form=((2,),))


def emb_n2():
    return TorusEmbedding(matrix=((1,), (1,)), form=((2,),))


def weyl(ell, emb=None):
    F = CycField(ell)
    return PBWAlgebra(F, emb or emb_n1())


def point(F, pairs, gamma):
    return FiberPoint(field=F, lam=tuple(pairs), gamma=tuple(gamma))


# -- fiber points ----------------------------------------------------------

def test_point_validation():
    F = CycField(3)
    # gamma^ell must hit 1 + c*w on the nose
    with pytest.raises(ValueError):
        point(F, [(F.scalar(8), F.zero)], [F.scalar(2)])
    with pytest.raises(ValueError):
        point(F, [(F.zero, F.zero)], [F.scalar(2)])  # 2^3 = 8 != 1
    # one gamma per pair
    with pytest.raises(ValueError):
        point(F, [(F.zero, F.zero)], [F.one, F.one])


def test_point_q_gamma_is_fine():
    # q itself is a cube root of 1 when ell = 3, so gamma = q is legal at c*w = 0
    F = CycField(3)
    p = point(F, [(F.zero, F.zero)], [F.qpow(1)])
    assert p.in_azumaya_locus()


def test_azumaya_locus_membership():
    F = CycField(3)
    good = point(F, [(F.zero, F.zero)], [F.one])
    assert good.in_azumaya_locus()
    bad = point(F, [(F.scalar(-1), F.one)], [F.zero])  # 1 + c*w = 0, gamma = 0
    assert not bad.in_azumaya_locus()


# -- the ell^(2n)-dimensional quotient --------------------------------------

def test_reduce_folds_powers_against_central_values():
    A = weyl(3)
    F = A.field
    p = point(F, [(F.scalar(8), F.zero)], [F.one])
    fib = FiberAlgebra(A, p)
    # x^4 = x^3 * x = 8x in the quotient
    r = fib.reduce(A.x(1, 4))
    assert r.terms == {((1,), (0,)): F.scalar(8)}
    # d^3 = w = 0 kills the term outright
    assert not fib.reduce(A.d(1, 3))
    assert fib.reduce(A.x(1, 3)).terms == {((0,), (0,)): F.scalar(8)}


def test_fiber_product_matches_lift_multiply():
    A = weyl(3)
    F = A.field
    p = point(F, [(F.scalar(7), F.one)], [F.scalar(2)])
    fib = FiberAlgebra(A, p)
    rng = random.Random(7103)
    keys = list(fib.basis_keys())
    for _ in range(25):
        ka, kb = rng.choice(keys), rng.choice(keys)
        ca, cb = rng.randint(1, 5), rng.randint(1, 5)
        a, b = fib.monomial(*ka, coeff=ca), fib.monomial(*kb, coeff=cb)
        rhs = fib.reduce(A.multiply(A.monomial(*ka, coeff=ca), A.monomial(*kb, coeff=cb))).terms
        assert (a * b).terms == rhs


def test_fiber_reduce_is_an_algebra_map():
    emb = emb_n2()
    A = weyl(3, emb)
    F = A.field
    p = point(F, [(F.zero, F.zero), (F.scalar(7), F.one)], [F.one, F.scalar(2)])
    fib = FiberAlgebra(A, p)
    rng = random.Random(20240901)
    keys = [((rng.randint(0, 4), rng.randint(0, 4)),
             (rng.randint(0, 4), rng.randint(0, 4))) for _ in range(6)]
    for i in range(12):
        a = A.monomial(keys[i % 6][0], keys[(i + 1) % 6][1])
        b = A.monomial(keys[(i + 2) % 6][0], keys[(i + 3) % 6][1], coeff=F.qpow(i))
        lhs = fib.reduce(A.multiply(a, b))
        rhs = fib.reduce(a) * fib.reduce(b)
        assert lhs.terms == rhs.terms


# -- rank one matrix model ---------------------------------------------------

def one_factor_model(F, c, w, gamma):
    """The rank-one model: the full model of a one-factor point."""
    return full_matrix_rep(point(F, [(c, w)], [gamma]), emb_n1())


RANK1_POINTS = [
    # (c, w, gamma) with gamma^ell = 1 + c*w
    (0, 0, 1),
    (8, 0, 1),
    (7, 1, 2),
]
def test_matrix_powers():
    # Matrix ** e is cyclotomic.power, which refuses a negative e itself
    F = CycField(3)
    X = Matrix(F, 3, {(0, 1): F.q, (1, 2): F.one, (2, 0): F.scalar(2)})
    assert X ** 0 == Matrix.identity(F, 3) and X ** 1 is X
    assert X ** 3 == Matrix.identity(F, 3).scale(2 * F.q)
    with pytest.raises(ValueError, match="e >= 0"):
        X ** -1



F3 = CycField(3)
# +- pairs, so that sums cancel and empty their rows
MATRIX_VALUES = [F3.one, -F3.one, F3.q, -F3.q, F3.scalar(2) + F3.q, F3.scalar(3) / 7]


@st.composite
def matrix_pairs(draw):
    """Two weighted permutations (a, b) of one size, with empty rows; each row
    of b is empty, in a's column or in another, so sums meet all three cases."""
    size = draw(st.integers(1, 5))
    cols = st.one_of(st.none(), st.integers(0, size - 1))
    cols_a = [draw(cols) for _ in range(size)]
    cols_b = [draw(cols if c is None else st.sampled_from([None, c, (c + 1) % size]))
              for c in cols_a]
    values = st.sampled_from(MATRIX_VALUES)
    a, b = ({(r, c): draw(values) for r, c in enumerate(cs) if c is not None}
            for cs in (cols_a, cols_b))
    return Matrix(F3, size, a), Matrix(F3, size, b)


@settings(max_examples=60, deadline=None)
@given(ab=matrix_pairs(), e=st.integers(0, 4),
       c=st.sampled_from([0, 1, F3.q, F3.scalar(2) + F3.q]))
def test_weighted_permutations_agree_with_the_dict_oracle(ab, e, c):
    a, b = ab
    da, db = DictMatrix.of(a), DictMatrix.of(b)
    assert Matrix(F3, a.size, a.entries) == a and DictMatrix.of(a * b) == da * db
    assert a ** e == da ** e and a.scale(c) == da.scale(c)
    assert (a == b) is (da == db) and all(a[rc] == v for rc, v in a.entries.items())
    if all(None in (ca, cb) or ca == cb for ca, cb in zip(a.cols, b.cols)):
        assert a + b == da + db and a - b == da - db
    else:  # some row would hold two columns
        for op in (Matrix.__add__, Matrix.__sub__):
            with pytest.raises(ValueError, match="columns"):
                op(a, b)


def test_matrix_sum_and_difference_check_sizes():
    # like the product: a 3x3 and a 9x9 matrix do not add to a 3x3 holding (8, 8)
    F = CycField(3)
    small, big = Matrix.identity(F, 3), Matrix.identity(F, 9)
    for op in (Matrix.__add__, Matrix.__sub__):
        with pytest.raises(ValueError, match="size mismatch"):
            op(small, big)
    assert small - small == Matrix(F, 3) and (small + small)[(2, 2)] == F.scalar(2)
    # nor does an entry outside the matrix wrap round to a row counted from the end
    for rc in ((3, 0), (0, 3), (-1, 0)):
        with pytest.raises(ValueError, match="outside"):
            Matrix(F, 3, {rc: F.one})


# the ids read c-w-root-gamma, root an integer cube root of c or None
RANK1_IDS = ["0-0-0-1", "8-0-2-1", "7-1-None-2"]


@pytest.mark.parametrize("c,w,gamma", RANK1_POINTS, ids=RANK1_IDS)
def test_rank1_relations_and_alpha_diagonal(c, w, gamma):
    F = CycField(3)
    ell = 3
    rep = one_factor_model(F, c, w, gamma)
    assert isinstance(rep, FullRep) and rep.size == ell
    (X,), (D,), (Al,) = rep.x, rep.d, fiber.alpha_images(rep)
    q2 = F.qpow(2)
    I = Matrix.identity(F, ell)
    # defining relation
    assert D * X == (X * D).scale(q2) + I.scale(q2 - F.one)
    # central values
    assert X ** ell == I.scale(F.scalar(c))
    assert D ** ell == I.scale(F.scalar(w))
    # alpha is diagonal with eigenvalue gamma * q^(-2r) in row r, and it is
    # the image of the PBW element alpha_1 = 1 + x_1 d_1
    assert Al == of_element(rep, PBWAlgebra(F, emb_n1()).alpha(1))
    g = F.scalar(gamma)
    for r in range(ell):
        assert Al.entries.get((r, r), F.zero) == g * F.qpow(-2 * r)
    assert all(r == s for (r, s) in Al.entries)


def alpha_diagonal_ok(rep, gamma):
    """The diagonal check of acceptance criterion 3, at any ell."""
    F = rep.field
    g = F.scalar(gamma)
    (alpha,) = fiber.alpha_images(rep)
    return (all(r == s for (r, s) in alpha.entries)
            and all(alpha[(r, r)] == g * F.qpow(-2 * r) for r in range(F.ell)))


def rank1_mutant(j):
    """fiber._rank1_entries with delta_j raised by 1 just before the entries are listed."""
    src = inspect.getsource(fiber._rank1_entries)
    anchor = "    return ([((s - 1) % ell"
    assert src.count(anchor) == 1
    namespace = dict(vars(fiber))
    exec(src.replace(anchor, f"    delta[{j}] = delta[{j}] + 1\n" + anchor), namespace)
    return namespace["_rank1_entries"]


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_rank1_alpha_is_built_from_the_model(ell, monkeypatch):
    F = CycField(ell)
    points = [(0, 0, 1), (0, 3, F.qpow(2)), (1, 0, 1), (2 ** ell - 1, 1, 2)]
    for c, w, gamma in points:
        rep = one_factor_model(F, c, w, gamma)
        assert alpha_diagonal_ok(rep, gamma)
        for j in range(ell):
            with monkeypatch.context() as mp:
                mp.setattr(fiber, "_rank1_entries", rank1_mutant(j))
                bad = one_factor_model(F, c, w, gamma)
            assert bad.d != rep.d
            # alpha = 1 + x d sees delta_j through xi_(j+1), which is 0 at one
            # row when c = 0 and nowhere else
            seen = bool(rep.x[0][(j, (j + 1) % ell)])
            assert alpha_diagonal_ok(bad, gamma) != seen
            assert seen or not c


@pytest.mark.parametrize("c,w,gamma", RANK1_POINTS, ids=RANK1_IDS)
def test_rank1_spans_the_full_matrix_algebra(c, w, gamma):
    from qweyl.linalg import SpanBasis
    F = CycField(3)
    rep = one_factor_model(F, c, w, gamma)
    (X,), (D,) = rep.x, rep.d
    span = SpanBasis(F)
    for a in range(3):
        for e in range(3):
            m = (X ** a) * (D ** e)
            span.add(dict(m.entries))
    assert span.rank == 9


def test_rank1_requires_gamma_and_the_locus():
    # the point checks gamma and the full model checks the locus, once each
    F = CycField(3)
    with pytest.raises(OutsideAzumayaLocus):
        full_matrix_rep(point(F, [(-1, 1)], [0]), emb_n1())
    with pytest.raises(ValueError, match="1 \\+ c\\*w"):
        point(F, [(7, 1)], [1])  # 1^3 != 8


def two_branch_rank1(F, c, w, gamma):
    """The x and d of the rank-one model built by its earlier two branches,
    the test oracle of the seam rule in fiber._rank1_entries: at c != 0, xi_0 = c
    and delta_(ell-1) is divided by c; at c = 0, a search for the k0 with
    gamma = q^(-2 k0) places the zero xi at r0 = 1 - k0 and delta_(r0-1) = w / ell."""
    ell = F.ell
    c, w, gamma = F.scalar(c), F.scalar(w), F.scalar(gamma)
    xi = [F.one] * ell      # x e_s = xi_s e_{s-1 mod ell}
    delta = [F.zero] * ell  # d e_r = delta_r e_{r+1 mod ell}
    if c:
        xi[0] = c
        for r in range(ell - 1):
            delta[r] = gamma * F.qpow(-2 * r) - 1
        delta[ell - 1] = (gamma * F.qpow(2) - 1) / c
    else:
        k0 = next(k for k in range(ell) if gamma == F.qpow(-2 * k))
        r0 = (1 - k0) % ell
        xi[r0] = F.zero
        for r in range(ell):
            if r != (r0 - 1) % ell:
                delta[r] = gamma * F.qpow(-2 * r) - 1
        delta[(r0 - 1) % ell] = w / ell
    xmat = Matrix(F, ell, {((s - 1) % ell, s): xi[s] for s in range(ell)})
    dmat = Matrix(F, ell, {((r + 1) % ell, r): delta[r] for r in range(ell)})
    return xmat, dmat


def seam_points(F, rng):
    """(c, w, gamma) on every branch of the seam rule: c = 0 with gamma every
    power of q; c != 0 and w = 0 with gamma every power of q, so that one
    delta vanishes (the seam's own at gamma = q^-2); and generic c != 0."""
    ell, q = F.ell, F.q
    powers = [F.qpow(k) for k in range(ell)]
    out = [(0, w, g) for g in powers for w in (0, 3, 2 - q)]
    out += [(c, 0, g) for g in powers for c in (5, 2 + q)]
    for _ in range(8):
        gamma = poly(F, [rng.randint(-3, 3) for _ in range(ell)]) + 4
        c = poly(F, [rng.randint(-3, 3) for _ in range(ell)]) or F.one
        out.append((c, (gamma ** ell - 1) / c, gamma))
    return out


@pytest.mark.parametrize("ell", [3, 5, 7, 9, 15])
def test_seam_rule_matches_the_two_branch_oracle(ell):
    F = CycField(ell)
    points = seam_points(F, random.Random(ell))
    assert any(not F.scalar(c) for c, _, _ in points) and any(not F.scalar(w) for _, w, _ in points)
    for c, w, gamma in points:
        rep = one_factor_model(F, c, w, gamma)
        for got, want in zip((rep.x[0], rep.d[0]), two_branch_rank1(F, c, w, gamma)):
            assert got.entries.keys() == want.entries.keys()
            assert all((v.num, v.den) == (want[rc].num, want[rc].den) for rc, v in got.entries.items())


@pytest.mark.parametrize("c,w,gamma", [(7, 1, 2), (0, 5, 1)])
def test_fiber_arithmetic_folds_the_central_values(c, w, gamma):
    A = weyl(3, emb_n2())
    F = A.field
    p = point(F, [(F.scalar(c), F.scalar(w)), (F.zero, F.zero)], [F.scalar(gamma), F.one])
    fib = FiberAlgebra(A, p)
    for i, (ci, wi) in enumerate(p.lam, start=1):
        assert fib.x(i) ** F.ell == fib.scalar_element(ci)
        assert fib.d(i) ** F.ell == fib.scalar_element(wi)
        assert fib.alpha(i) == fib.reduce(A.alpha(i))
    # elements of two fibers do not mix, even at the same point
    other = FiberAlgebra(A, p)
    with pytest.raises(ValueError):
        fib.x(1) * other.x(1)


def test_off_locus_alpha_generates_a_proper_ideal():
    # at 1 + c*w = 0 the quotient is not simple: alpha generates a
    # nonzero two-sided ideal that is not everything
    A = weyl(3)
    F = A.field
    p = point(F, [(F.scalar(-1), F.one)], [F.zero])
    fib = FiberAlgebra(A, p)
    ideal = fib.two_sided_ideal([fib.alpha(1)])
    assert ideal.rank == 6
    assert 0 < ideal.rank < fib.dimension()


# -- untwisting the braided tensor product -----------------------------------

def emb_weights_2_1():
    # pairing ((8, 4), (4, 2)): the off-diagonal twist is nonzero
    return TorusEmbedding(matrix=((2,), (1,)), form=((2,),))


def emb_cyclic3():
    return quiver_to_embedding(3, ((1, 2), (2, 3), (3, 1)))


def units(F, size):
    return [Matrix(F, size, {(r, c): F.one}) for r in range(size) for c in range(size)]


def composable_unit_pairs(F, size, count, seed):
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        r, c, s = (rng.randrange(size) for _ in range(3))
        pairs.append((Matrix(F, size, {(r, c): F.one}), Matrix(F, size, {(c, s): F.one})))
    return pairs


def sign_flipped(mat, emb):
    """untwist with q^(+tau) in place of q^(-tau)."""
    image = untwist(mat, emb)
    return DictMatrix(mat.field, mat.size, {rc: v * v / image[rc] for rc, v in mat.entries.items()})


def multiplicative(twist, emb, pairs):
    return all(twist(braided_product(u, v, emb), emb) == twist(u, emb) * twist(v, emb)
               for u, v in pairs)


def test_untwist_scales_each_unit_by_a_power_of_q():
    # a nonzero multiple of each unit, so untwist is invertible
    F = CycField(3)
    emb = emb_n2()
    for u in units(F, 9):
        assert sum(untwist(u, emb) == u.scale(F.qpow(e)) for e in range(3)) == 1
    rng = random.Random(515)
    m = DictMatrix(F, 9, {(rng.randrange(9), rng.randrange(9)): F.qpow(rng.randrange(3))
                          for _ in range(12)})
    assert untwist(m, emb).entries.keys() == m.entries.keys()


def test_untwist_is_multiplicative_on_all_elementary_pairs():
    # braided product in, plain product out, checked pair by pair
    F = CycField(3)
    emb = emb_n2()
    us = units(F, 9)
    assert multiplicative(untwist, emb, [(u, v) for u in us for v in us])


def test_untwist_is_multiplicative_on_three_factors():
    # composable unit pairs E_rc, E_cs on the three-cycle quiver
    assert multiplicative(untwist, emb_cyclic3(),
                          composable_unit_pairs(CycField(3), 27, 200, seed=27))


@pytest.mark.parametrize("emb", [emb_n2(), emb_weights_2_1(), emb_cyclic3()],
                         ids=["weights-1-1", "weights-2-1", "cyclic3"])
def test_sign_flipped_untwist_is_not_multiplicative(emb):
    pairs = composable_unit_pairs(CycField(3), 3 ** emb.n, 200, seed=27)
    assert multiplicative(untwist, emb, pairs)
    assert not multiplicative(sign_flipped, emb, pairs)


def placement_mutant():
    """fiber._twist with the sign of the twist exponent flipped, so that
    full_matrix_rep and slot_rep, which both read it, scale each placed
    entry by q^(+tau) in place of q^(-tau)."""
    src = inspect.getsource(fiber._twist)
    exponent = "(b - a) * P[j][i]"
    assert src.count(exponent) == 1
    namespace = dict(vars(fiber))
    exec(src.replace(exponent, "(a - b) * P[j][i]"), namespace)
    return namespace["_twist"]


def test_sign_flipped_untwist_breaks_the_fiber_model(monkeypatch):
    cfg = {"ell": 3, "embedding": {"matrix": [[2], [1]], "form": [[2]]},
           "tasks": [{"type": "fiber-rep",
                      "point": {"lambda": [["0", "0"], ["7", "1"]], "gamma": ["1", "2"]}}]}
    assert run_suite(cfg)["tasks"][0]["relations_ok"]
    monkeypatch.setattr(fiber, "_twist", placement_mutant())
    entry = run_suite(cfg)["tasks"][0]
    assert not entry["relations_ok"]
    # the witness is a relation out of PBW order, x_j x_i, d_j d_i (j > i) or
    # d_j x_i, and an entry of its residual
    A = PBWAlgebra(CycField(3), TorusEmbedding(matrix=((2,), (1,)), form=((2,),)))
    gens = A.generators()
    out_of_order = {f"{gens[a]}*{gens[b]} = {gens[a] * gens[b]}"
                    for a in range(len(gens)) for b in range(a)}
    failed = entry["failed_relation"]
    assert failed == {"relation": "x2*x1 = q*x1*x2", "entry": [1, 5], "residual": "(-2)*q - 1"}
    assert failed["relation"] in out_of_order and len(out_of_order) == 6
    # the dense check on the mutant's rows names the same witness
    p = build_point(A.field, cfg["tasks"][0]["point"])
    assert dense_model.presentation_failure(full_matrix_rep(p, A.emb), p, A) == failed


def test_braided_product_is_associative_on_samples():
    F = CycField(5)
    emb = emb_weights_2_1()
    size = 25
    rng = random.Random(99)

    def rand():
        return DictMatrix(F, size, {(rng.randrange(size), rng.randrange(size)):
                                    F.qpow(rng.randrange(5)) for _ in range(6)})

    for _ in range(10):
        a, b, c = rand(), rand(), rand()
        lhs = braided_product(braided_product(a, b, emb), c, emb)
        rhs = braided_product(a, braided_product(b, c, emb), emb)
        assert lhs == rhs
        assert untwist(braided_product(a, b, emb), emb) == untwist(a, emb) * untwist(b, emb)


# -- the full model on ell^n dimensions --------------------------------------

def two_factor_point(F):
    return point(F, [(F.zero, F.zero), (F.scalar(7), F.one)],
                 [F.one, F.scalar(2)])


def test_full_rep_alpha_diagonals():
    F = CycField(3)
    emb = emb_n2()
    p = two_factor_point(F)
    rep = full_matrix_rep(p, emb)
    A = PBWAlgebra(F, emb)
    assert rep.size == 9
    for i in range(2):
        Al = of_element(rep, A.alpha(i + 1))
        assert all(r == s for (r, s) in Al.entries)
        for t in range(9):
            ds = digits(t, 3, 2)
            expect = p.gamma[i] * F.qpow(-2 * ds[i])
            assert Al.entries.get((t, t), F.zero) == expect


def test_full_rep_refuses_an_element_of_another_rank_or_ell():
    # d1 of a rank-one algebra is no element of the rank-two model's algebra,
    # and an ell-5 element has no image in an ell-3 model
    F = CycField(3)
    rep = full_matrix_rep(two_factor_point(F), emb_n2())
    for a in (weyl(3).d(1), weyl(5, emb_n2()).x(1), weyl(5, emb_n2()).one()):
        with pytest.raises(ValueError, match="another rank or ell"):
            of_element(rep, a)
    assert of_element(rep, weyl(3, emb_n2()).d(1)) == rep.d[0]


def test_full_rep_is_an_algebra_map():
    F = CycField(3)
    emb = emb_n2()
    A = PBWAlgebra(F, emb)
    p = two_factor_point(F)
    rep = full_matrix_rep(p, emb)
    # generator relations transfer to the matrices
    for i in (1, 2):
        for j in (1, 2):
            a, b = A.d(i), A.x(j)
            assert of_element(rep, A.multiply(a, b)) == of_element(rep, a) * of_element(rep, b)
    rng = random.Random(4242)
    for _ in range(15):
        m = tuple(rng.randint(0, 3) for _ in range(2))
        k = tuple(rng.randint(0, 3) for _ in range(2))
        m2 = tuple(rng.randint(0, 3) for _ in range(2))
        k2 = tuple(rng.randint(0, 3) for _ in range(2))
        a, b = A.monomial(m, k), A.monomial(m2, k2, coeff=F.qpow(1))
        assert of_element(rep, A.multiply(a, b)) == of_element(rep, a) * of_element(rep, b)


def test_full_rep_is_bijective_onto_mat9():
    from qweyl.linalg import SpanBasis
    F = CycField(3)
    emb = emb_n2()
    A = PBWAlgebra(F, emb)
    p = two_factor_point(F)
    rep = full_matrix_rep(p, emb)
    fib = FiberAlgebra(A, p)
    span = SpanBasis(F)
    for key in fib.basis_keys():
        img = of_element(rep, fib.monomial(*key))
        span.add(dict(img.entries))
    assert span.rank == 81


def test_full_rep_refuses_points_off_the_locus():
    F = CycField(3)
    p = point(F, [(F.scalar(-1), F.one), (F.zero, F.zero)], [F.zero, F.one])
    with pytest.raises(OutsideAzumayaLocus):
        full_matrix_rep(p, emb_n2())


def test_full_rep_twists_each_placed_block_once(monkeypatch):
    # a placed entry's twist depends on the digits j > i only, so each of the
    # ell entries of a rank-one x or d is twisted once per value of them,
    # ell^(n-i-1) times, and not once per row: at ell 3, n 4 that is
    # 2 (81 + 27 + 9 + 3) = 240 q-powers, against 8 * 81 = 648 with one per row
    F = CycField(3)
    emb = TorusEmbedding(matrix=((1,),) * 4, form=((2,),))
    p = point(F, [(F.scalar(7), F.one)] * 4, [F.scalar(2)] * 4)
    model = one_factor_model(F, 7, 1, 2)
    (X,), (D,) = model.x, model.d
    factor = fiber._rank1_entries(F, F.scalar(7), F.one, F.scalar(2))
    assert [len(entries) for entries in factor] == [3, 3]  # c != 0 and no delta vanishes
    monkeypatch.setattr(fiber, "_rank1_entries", lambda *args: factor)
    qpow, calls = CycField.qpow, [0]

    def counted(self, k):
        calls[0] += 1
        return qpow(self, k)

    monkeypatch.setattr(CycField, "qpow", counted)
    rep = full_matrix_rep(p, emb)
    assert calls[0] == 240
    monkeypatch.setattr(CycField, "qpow", qpow)
    assert rep.x == tuple(untwist(placed(X, i, 4), emb) for i in range(4))
    assert rep.d == tuple(untwist(placed(D, i, 4), emb) for i in range(4))



# -- the words of the full model ----------------------------------------------

def braided_c0_point_l5(F):
    """ell = 5 on weights (1), (1): a c != 0 factor and a c = 0 factor."""
    g = F.scalar(2) + F.qpow(1)
    return point(F, [(F.scalar(3), (g ** 5 - 1) / 3), (F.zero, F.scalar(2) - F.qpow(1))],
                 [g, F.qpow(2)])


def cyclic_point_l3(F):
    return point(F, [(F.scalar(7), F.one), (F.zero, F.zero), (F.one, F.scalar(7))],
                 [F.scalar(2), F.one, F.scalar(2)])


@pytest.mark.parametrize("ell,emb,make_point", [
    (3, emb_n2(), two_factor_point),
    (3, emb_weights_2_1(), two_factor_point),
    (3, emb_cyclic3(), cyclic_point_l3),
    (5, emb_n2(), braided_c0_point_l5),
], ids=["weights-1-1", "weights-2-1", "cyclic3", "braided-l5-c0"])
def test_full_rep_is_the_untwisted_kronecker_placement(ell, emb, make_point, monkeypatch):
    # the one-pass placement and the expanded slots agree with the general
    # untwist of the plain Kronecker placement on every image, and a
    # one-sign mutant of the one twist rule moves both the same way
    F = CycField(ell)
    p = make_point(F)
    local = [one_factor_model(F, c, w, g) for (c, w), g in zip(p.lam, p.gamma)]
    oracle = tuple(tuple(untwist(placed(G, i, p.n), emb) for i, G in enumerate(gens))
                   for gens in ([r.x[0] for r in local], [r.d[0] for r in local]))
    rep, slots = full_matrix_rep(p, emb), expanded(fiber.slot_rep(p, emb))
    assert (rep.x, rep.d) == (slots.x, slots.d) == oracle
    monkeypatch.setattr(fiber, "_twist", placement_mutant())
    bad, bad_slots = full_matrix_rep(p, emb), expanded(fiber.slot_rep(p, emb))
    assert (bad.x, bad.d) == (bad_slots.x, bad_slots.d) != oracle


def uncached_image(rep, a):
    """The image of a in the dict form, as c * x_1^m_1 ... x_n^m_n * d_1^k_1 ... d_n^k_n
    per term, each power taken afresh with DictMatrix.__pow__: the oracle of
    of_element, for any element, homogeneous or not."""
    F = rep.field
    xs, ds = [DictMatrix.of(g) for g in rep.x], [DictMatrix.of(g) for g in rep.d]
    out = DictMatrix(F, rep.size)
    for (m, k), c in a.terms.items():
        acc = DictMatrix.identity(F, rep.size).scale(c)
        for i, e in enumerate(m):
            if e:
                acc = acc * (xs[i] ** e)
        for i, e in enumerate(k):
            if e:
                acc = acc * (ds[i] ** e)
        out = out + acc
    return out


def homogeneous_parts(a, ell):
    """a split by m - k mod ell: the terms of one part have images that share
    their column in each row, so of_element takes each part."""
    parts = {}
    for (m, k), c in a.terms.items():
        parts.setdefault(tuple((mi - ki) % ell for mi, ki in zip(m, k)), {})[(m, k)] = c
    return [PBWElement(a.algebra, terms) for terms in parts.values()]


def random_element(A, rng, ell, terms=4):
    """A constant term plus monomials with exponents up to 2*ell."""
    F = A.field
    coeffs = [F.one, F.scalar(-2), F.qpow(1), F.scalar(3) / 7 + F.qpow(ell - 1)]
    out = A.monomial((0,) * A.n, (0,) * A.n, coeff=rng.choice(coeffs))
    for _ in range(terms):
        m = tuple(rng.randint(0, 2 * ell) for _ in range(A.n))
        k = tuple(rng.randint(0, 2 * ell) for _ in range(A.n))
        out = out + A.monomial(m, k, coeff=rng.choice(coeffs))
    return out


def test_full_rep_words_of_zero_images():
    # x_2^5 maps to c_2 I = 0: a word whose image is the zero matrix must
    # still count as a word, not as the empty one
    F = CycField(5)
    emb = emb_n2()
    A = PBWAlgebra(F, emb)
    p = braided_c0_point_l5(F)
    rep = full_matrix_rep(p, emb)
    ident = Matrix.identity(F, rep.size)
    zero = Matrix(F, rep.size)
    for i in (1, 2):
        c, w = p.lam[i - 1]
        x_ell = A.monomial(tuple(5 * (j == i) for j in (1, 2)), (0, 0))
        d_ell = A.monomial((0, 0), tuple(5 * (j == i) for j in (1, 2)))
        assert of_element(rep, x_ell) == ident.scale(c)
        assert of_element(rep, d_ell) == ident.scale(w)
    assert of_element(rep, A.monomial((0, 5), (0, 0))) == zero
    assert of_element(rep, A.monomial((0, 6), (0, 0))) == zero
    for j in (1, 2):
        assert of_element(rep, A.monomial((0, 5), tuple(int(i == j) for i in (1, 2)))) == zero
        assert of_element(rep, A.monomial((1, 5), tuple(int(i == j) for i in (1, 2)))) == zero


@pytest.mark.parametrize("ell,emb,make_point,seed", [
    (5, emb_n2(), braided_c0_point_l5, 55),
    (3, emb_cyclic3(), cyclic_point_l3, 33),
], ids=["braided-c0-l5", "cyclic3-l3"])
def test_full_rep_matches_the_uncached_product(ell, emb, make_point, seed):
    F = CycField(ell)
    A = PBWAlgebra(F, emb)
    rep = full_matrix_rep(make_point(F), emb)
    rng = random.Random(seed)
    zero, refused = DictMatrix(F, rep.size), 0
    for _ in range(6):
        a = random_element(A, rng, ell)
        images = [of_element(rep, part) for part in homogeneous_parts(a, ell)]
        assert sum(map(DictMatrix.of, images), zero) == uncached_image(rep, a)
        # the constant part's image fills every row here, so any other nonzero
        # part meets it in some row in another column: no one-entry-per-row image
        if sum(image != Matrix(F, rep.size) for image in images) > 1:
            refused += 1
            with pytest.raises(ValueError, match="columns"):
                of_element(rep, a)
    assert refused
    # of_element is multiplicative on seeded pairs of monomials with every
    # exponent below ell, whose products leave PBW order and fold x_i^ell
    for _ in range(20):
        a, b = (A.monomial(*(tuple(rng.randrange(ell) for _ in range(A.n)) for _ in range(2)))
                for _ in range(2))
        assert of_element(rep, a * b) == of_element(rep, a) * of_element(rep, b)


def test_full_rep_builds_each_word_once(monkeypatch):
    # the oracle basis_rank builds the 9 X-words and the 9 D-words once each
    # and one product X(m) D(k) per image; the images are those of the basis
    # monomials.  The fiber-rep report at the same point counts nothing
    F = CycField(3)
    emb = emb_n2()
    A = PBWAlgebra(F, emb)
    rep = full_matrix_rep(two_factor_point(F), emb)
    products, images = 0, []
    mul, rank = Matrix.__mul__, splitting.rank

    def counting_mul(self, other):
        nonlocal products
        products += isinstance(other, Matrix)
        return mul(self, other)

    def recorded(vectors, field, bound):
        def seen():
            for v in vectors():
                images.append(v)
                yield v
        return rank(seen, field, bound)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    monkeypatch.setattr(splitting, "rank", recorded)
    assert basis_rank(rep) == 81
    assert 0 < products <= 3 ** 4 + 2 * 3 ** 2
    monkeypatch.undo()
    keys = FiberAlgebra(A, two_factor_point(F)).basis_keys()
    assert images == [of_element(rep, A.monomial(*key)).entries for key in keys]
    with pytest.MonkeyPatch.context() as mp:
        forbid_counts(mp)
        assert fiber.fiber_rep_report(two_factor_point(F), A)["ok"]


def pinned_models():
    """The model of each fiber-rep and reduce point of the pinned report
    configs, and of points with a c = w = 0 factor, where the seam delta is
    0: demo 03's (0, 0, 1), demo 04's trivial point and cyclic_point_l3."""
    configs = sorted((Path(__file__).resolve().parent / "report_configs").glob("*.json"))
    for path in configs:
        cfg = json.loads(path.read_text())
        F, emb = CycField(cfg["ell"]), validate_config(cfg)
        for task in cfg["tasks"]:
            if task["type"] in ("fiber-rep", "reduce"):
                yield path.stem, full_matrix_rep(build_point(F, task["point"]), emb)
    F = CycField(3)
    yield "demo-03-c0-w0", one_factor_model(F, 0, 0, 1)
    yield "demo-04-trivial", full_matrix_rep(point(F, [(0, 0)] * 2, [1, 1]), emb_n2())
    yield "cyclic3", full_matrix_rep(cyclic_point_l3(F), emb_cyclic3())


def test_a_model_image_stores_no_zero():
    # the placement writes the rank-one entries straight into row arrays,
    # which keep what they are given: an empty row is None in both arrays,
    # and a zero entry (the seam delta of a c = w = 0 factor) is not stored
    models = list(pinned_models())
    assert len(models) > 10
    for name, rep in models:
        for G in rep.x + rep.d:
            assert [c is None for c in G.cols] == [v is None for v in G.vals], name
            assert all(v for v in G.vals if v is not None), name
    # a c = w = 0 factor does have a zero delta to drop
    (d,) = dict(models)["demo-03-c0-w0"].d
    assert d.cols.count(None) == 1


def test_full_rep_is_frozen():
    F = CycField(3)
    rep = full_matrix_rep(two_factor_point(F), emb_n2())
    with pytest.raises(AttributeError):
        rep.x = rep.d


IMMUTABLE_VALUES = {
    "FiberPoint": two_factor_point,
    "FullRep": lambda F: full_matrix_rep(two_factor_point(F), emb_n2()),
    "TorusEmbedding": lambda F: emb_n2(),
    "DifferenceOperator": DifferenceOperator.identity,
}


@pytest.mark.parametrize("name", list(IMMUTABLE_VALUES))
def test_value_classes_are_immutable(name):
    # a field can be neither reassigned nor deleted, and __slots__ leaves no
    # room for a new attribute, such as a cache, to be attached
    value = IMMUTABLE_VALUES[name](CycField(3))
    assert type(value).__name__ == name
    field = type(value).__slots__[0]
    kept = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, kept)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.cache = {}
    with pytest.raises(AttributeError):
        object.__setattr__(value, "cache", {})
    assert getattr(value, field) is kept and not hasattr(value, "cache")

# -- module bases and the splitting check ------------------------------------

SPLITTING_POINTS = [
    ([(0, 0)], [1]),
    ([(8, 0)], [1]),
    ([(7, 1)], [2]),
    ([(0, 0)], ["q2"]),  # unit gamma, split basis
]


@pytest.mark.parametrize("pairs,gammas", SPLITTING_POINTS)
def test_endomorphism_splitting_on_the_locus(pairs, gammas):
    F = CycField(3)
    A = weyl(3)
    gs = [F.qpow(2) if g == "q2" else F.scalar(g) for g in gammas]
    p = point(F, [(F.scalar(c), F.scalar(w)) for c, w in pairs], gs)
    assert endo_splitting_check(A, p)


def test_endomorphism_splitting_needs_the_locus():
    F = CycField(3)
    A = weyl(3)
    p = point(F, [(F.scalar(-1), F.one)], [F.zero])
    with pytest.raises(OutsideAzumayaLocus):
        endo_splitting_check(A, p)


@st.composite
def locus_points_l3(draw):
    """A point at ell = 3 on one or two factors; each factor has c = 0
    (gamma a power of q, any w) or c != 0 (gamma = a + b q, w = (gamma^3 - 1)/c)."""
    F = CycField(3)
    pairs, gammas = [], []
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            gammas.append(F.qpow(draw(st.integers(0, 2))))
            pairs.append((F.zero, F.scalar(draw(st.integers(-3, 3)))))
        else:
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            gamma = F.scalar(a) + F.scalar(b) * F.q
            if not gamma:
                gamma = F.one
            c = F.scalar(draw(st.sampled_from([-7, -2, 1, 3, 5])))
            gammas.append(gamma)
            pairs.append((c, (gamma ** 3 - 1) / c))
    return point(F, pairs, gammas)


def exact_rank(vectors, field, bound):
    span = SpanBasis(field)
    for v in vectors():
        span.add(v)
    return span.rank


@settings(max_examples=12, deadline=None)
@given(p=locus_points_l3())
def test_endomorphism_splitting_certificate_agrees_with_the_exact_span(p):
    A = weyl(3, emb_n1() if p.n == 1 else emb_n2())
    certified = endo_splitting_check(A, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splitting, "rank", exact_rank)
        exact = endo_splitting_check(A, p)
    assert certified is exact is True


@settings(max_examples=12, deadline=None)
@given(p=locus_points_l3())
def test_splitting_module_rep_matches_the_all_pairs_action(p):
    A = weyl(3, emb_n1() if p.n == 1 else emb_n2())
    reps = []

    def capture(rep):
        reps.append(rep)
        return basis_rank(rep)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splitting, "basis_rank", capture)
        assert endo_splitting_check(A, p)
    (rep,) = reps
    fib = FiberAlgebra(A, p)
    oracle = all_pairs_action(fib)
    assert all(of_element(rep, fib.monomial(*key)).entries == oracle[key]
               for key in fib.basis_keys())


def test_splitting_check_acts_with_the_generators_only(monkeypatch):
    # at ell 3, n 2: 2 * 81 products build the left ideal and 4 * 9 the
    # generator actions; all pairs of basis monomials would add 81 * 9
    F = CycField(3)
    products = 0
    multiply = FiberAlgebra.multiply

    def counting_multiply(self, a, b):
        nonlocal products
        products += 1
        return multiply(self, a, b)

    monkeypatch.setattr(FiberAlgebra, "multiply", counting_multiply)
    assert endo_splitting_check(weyl(3, emb_n2()), two_factor_point(F))
    assert 0 < products <= 2 * 81 + 4 * 9


def repeat_the_last_image(monkeypatch):
    """Make basis_rank hand splitting.rank the image of x^(2, 2) d^(2, 1) in
    place of the last one, x^(2, 2) d^(2, 2): at ell 3, n 2 the images then
    fall one short of independent mod p, and the exact span counts 80."""
    rank = splitting.rank

    def repeated(vectors, field, bound):
        def images():
            *rest, before, _ = vectors()
            return [*rest, before, before]
        return rank(images, field, bound)

    monkeypatch.setattr(splitting, "rank", repeated)


def test_splitting_check_fails_on_a_repeated_image(monkeypatch):
    F = CycField(3)
    ranks = []

    def recorded(rep):
        ranks.append(basis_rank(rep))
        return ranks[-1]

    repeat_the_last_image(monkeypatch)
    monkeypatch.setattr(splitting, "basis_rank", recorded)
    assert endo_splitting_check(weyl(3, emb_n2()), two_factor_point(F)) is False
    assert ranks == [80]


def test_splitting_check_fails_on_a_wrong_eigenvalue(monkeypatch):
    # the ideal of the alpha_i - 2 gamma_i: 2 gamma_i is no eigenvalue of
    # alpha_i, so the ideal is the whole fiber and the module is 0, not 9-dimensional
    F = CycField(3)
    left_ideal = FiberAlgebra.left_ideal
    ranks = []

    def shifted(self, gens):
        ideal = left_ideal(self, [g - gamma for g, gamma in zip(gens, self.point.gamma)])
        ranks.append(ideal.rank)
        return ideal

    monkeypatch.setattr(FiberAlgebra, "left_ideal", shifted)
    assert endo_splitting_check(weyl(3, emb_n2()), two_factor_point(F)) is False
    assert ranks == [81]


# -- the generation certificate of the fiber-rep span --------------------------

def pbw_alpha_images(rep, A):
    """The images under rep of the PBW elements alpha_i = 1 + x_i d_i."""
    return [of_element(rep, A.alpha(i + 1)) for i in range(A.n)]


def exact_basis_rank(rep):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splitting, "rank", exact_rank)
        return basis_rank(rep)


def assert_certified_span(p, A, monkeypatch):
    """At a locus point the model has its central values, the report
    certifies its span on the slots as the dense checks do, and its
    ell^(2n) is the exact count."""
    rep, slots = full_matrix_rep(p, A.emb), fiber.slot_rep(p, A.emb)
    assert fiber.presentation_failure(slots, p, A) is dense_model.presentation_failure(rep, p, A) is None
    assert fiber.alpha_images(rep) == pbw_alpha_images(rep, A)
    assert fiber.unreached_row(slots) is dense_model.unreached_row(rep) is None
    with monkeypatch.context() as mp:
        forbid_counts(mp)
        report = fiber.fiber_rep_report(p, A)
    assert report["alpha_diagonal_ok"] and report["ok"] and "unreached_row" not in report
    assert report["span_dimension"] == exact_basis_rank(rep) == A.field.ell ** (2 * p.n)


@settings(max_examples=12, deadline=None)
@given(p=locus_points_l3())
@example(p=point(F3, [(F3.zero, F3.zero)], [F3.one]))  # c = w = 0
@example(p=point(F3, [(F3.zero, F3.scalar(2)), (F3.zero, F3.zero)], [F3.qpow(2), F3.qpow(1)]))
@example(p=point(F3, [(F3.zero, F3.zero), (F3.scalar(7), F3.one)], [F3.one, F3.scalar(2)]))
def test_generation_certificate_agrees_with_the_exact_span(p):
    with pytest.MonkeyPatch.context() as mp:
        assert_certified_span(p, weyl(3, emb_n1() if p.n == 1 else emb_n2()), mp)


@pytest.mark.parametrize("c,w,gamma", [(0, 0, "q^2"), (0, "2 - q", "q^4"), (3, None, "2 + q")],
                         ids=["c0-w0", "c0", "c3"])
def test_generation_certificate_agrees_with_the_exact_span_at_ell_5(c, w, gamma, monkeypatch):
    F = CycField(5)
    g = evaluate_scalar(gamma, F)
    w = (g ** 5 - 1) / 3 if w is None else evaluate_scalar(str(w), F)
    assert_certified_span(point(F, [(F.scalar(c), w)], [g]), weyl(5), monkeypatch)


def test_central_values_check_reads_c_and_w():
    F = CycField(3)
    A = weyl(3)
    p = point(F, [(F.scalar(7), F.one)], [F.scalar(2)])
    rep = fiber.slot_rep(p, A.emb)
    assert fiber.presentation_failure(rep, p, A) is None
    # the same product c w, so the same gamma: only x^3 = c I or d^3 = w I can tell
    for moved, c, residual in (([(F.scalar(14), F.one / 2)], "14", "-7"),
                               ([(F.scalar(7) / 2, F.scalar(2))], "7/2", "7/2")):
        moved_point = FiberPoint(field=F, lam=tuple(moved), gamma=p.gamma)
        assert fiber.presentation_failure(rep, moved_point, A) == dense_model.presentation_failure(
            full_matrix_rep(p, A.emb), moved_point, A) == {
            "relation": f"x1^3 = {c}", "entry": [0, 0], "residual": residual}


def test_matrix_difference_negates_without_scaling(monkeypatch):
    # row 0 cancels and empties, row 1 is a's alone, row 2 is b's negated
    F = CycField(3)
    a = Matrix(F, 3, {(0, 0): F.qpow(1), (1, 2): F.one})
    b = Matrix(F, 3, {(0, 0): F.qpow(1), (2, 1): F.scalar(5)})
    monkeypatch.setattr(Matrix, "scale", None)  # a difference multiplies no scalar
    assert (a - b).entries == {(1, 2): F.one, (2, 1): F.scalar(-5)}
    assert not (b - b).entries
    # two entries in one row are no weighted permutation: the dict oracle
    # holds them, and its difference negates without scaling too
    two = {(0, 0): F.qpow(1), (0, 1): F.one}
    with pytest.raises(ValueError, match="row 0 has two entries"):
        Matrix(F, 2, two)
    monkeypatch.setattr(DictMatrix, "scale", None)
    a, b = DictMatrix(F, 2, two), DictMatrix(F, 2, {(0, 0): F.qpow(1), (1, 1): F.scalar(5)})
    assert (a - b).entries == {(0, 1): F.one, (1, 1): F.scalar(-5)}


def test_a_holding_relation_builds_no_residual(monkeypatch):
    # the residual is only formed for a relation that fails
    F = CycField(3)
    A = weyl(3, emb_n2())
    p = two_factor_point(F)
    rep = fiber.slot_rep(p, A.emb)
    monkeypatch.setattr(fiber, "_residual", None)
    assert fiber.presentation_failure(rep, p, A) is None


def one_slot(rep):
    """The slot model of a dense one-factor model: each image is its own one slot."""
    one = rep.field.one
    return FullRep(x=tuple(SlotImage(one, (g,)) for g in rep.x),
                   d=tuple(SlotImage(one, (g,)) for g in rep.d))


def report_of_model(rep, p, A, monkeypatch):
    """The fiber-rep report at p with the dense one-factor model rep as its
    slot model, made with every rank count raising; it is the report of the
    dense checks on rep."""
    forbid_counts(monkeypatch)
    monkeypatch.setattr(fiber, "slot_rep", lambda point, emb: one_slot(rep))
    report = fiber.fiber_rep_report(p, A)
    assert report == dense_model.report(rep, p, A)
    return report


def test_a_repeated_alpha_eigenvalue_fails_the_certificate(monkeypatch):
    # alpha = 1 + x d has 1 + xi_(r+1) delta_r in row r, and xi_1 = xi_2 = 1
    # at c != 0: delta_0 := delta_1 gives rows 0 and 1 the same eigenvalue
    F = CycField(3)
    A = weyl(3)
    p = point(F, [(F.scalar(7), F.one)], [F.scalar(2)])
    rep = full_matrix_rep(p, A.emb)
    (x,), (d,) = rep.x, rep.d
    assert x[(0, 1)] == x[(1, 2)] == F.one and d[(1, 0)] != d[(2, 1)]
    bad = FullRep(x=rep.x, d=(Matrix(F, 3, {**d.entries, (1, 0): d[(2, 1)]}),))
    (alpha,) = fiber.alpha_images(bad)
    assert all(r == c for r, c in alpha.entries) and alpha[(0, 0)] == alpha[(1, 1)]
    # the graph search cannot see it: the alpha check fails (and so does
    # d x = q^2 x d + q^2 - 1), and the report fails with no span and no count
    assert fiber.unreached_row(one_slot(bad)) is dense_model.unreached_row(bad) is None
    report = report_of_model(bad, p, A, monkeypatch)
    assert report["alpha_diagonal_ok"] is report["relations_ok"] is report["ok"] is False
    assert "span_dimension" not in report and "unreached_row" not in report
    assert report["failed_relation"]["relation"].startswith("d1*x1 = ")
    monkeypatch.undo()
    # the certificate is only sufficient: the exact count still finds all of Mat_3
    assert exact_basis_rank(bad) == exact_basis_rank(rep) == rep.size ** 2 == 9


def moved_d_entry(rep):
    """The one-factor model with d's row-0 entry moved from column 2 to
    column 0: x d then holds x_(2,0) d_(0,0) at (2, 0), off the diagonal."""
    (d,) = rep.d
    entries = {(1, 0): d[(1, 0)], (2, 1): d[(2, 1)], (0, 0): d[(0, 2)]}
    return FullRep(x=rep.x, d=(Matrix(rep.field, 3, entries),))


def test_an_alpha_off_the_diagonal_fails_the_certificate(monkeypatch):
    # the moved d entry puts x_(2,0) d_(0,0) at (2, 0) of x d, and leaves
    # I + x d two entries in row 2, which no weighted permutation holds: its
    # alpha image is None; the graph stays connected
    F = CycField(3)
    A = weyl(3)
    p = point(F, [(F.scalar(7), F.one)], [F.scalar(2)])
    rep = full_matrix_rep(p, A.emb)
    bad = moved_d_entry(rep)
    assert fiber.alpha_images(bad) == [None]
    (x,), (d,) = bad.x, bad.d
    alpha = DictMatrix.identity(F, 3) + DictMatrix.of(x) * DictMatrix.of(d)
    assert set(alpha.entries) == {(0, 0), (1, 1), (2, 2), (2, 0)}
    assert fiber.unreached_row(one_slot(bad)) is dense_model.unreached_row(bad) is None
    report = report_of_model(bad, p, A, monkeypatch)
    assert report["alpha_diagonal_ok"] is report["relations_ok"] is report["ok"] is False
    assert "span_dimension" not in report and "unreached_row" not in report
    monkeypatch.undo()
    assert exact_basis_rank(bad) == 9


def test_a_right_hand_side_in_two_columns_names_the_oracle_residual_entry():
    # with the moved d entry, d x = q^2 x d + q^2 - 1 has a right-hand side
    # whose terms q^2 x d and (q^2 - 1) I hold columns 0 and 2 of row 2: the
    # check names the relation and the least entry of the dict residual
    F = CycField(3)
    A = weyl(3)
    p = point(F, [(F.scalar(7), F.one)], [F.scalar(2)])
    bad = moved_d_entry(full_matrix_rep(p, A.emb))
    (x,), (d,) = bad.x, bad.d
    rhs = A.d(1) * A.x(1)
    with pytest.raises(ValueError, match="columns"):
        of_element(bad, rhs)
    residual = DictMatrix.of(d * x) - uncached_image(bad, rhs)
    entry = min(residual.entries)
    assert fiber.presentation_failure(one_slot(bad), p, A) == dense_model.presentation_failure(
        bad, p, A) == {
        "relation": f"d1*x1 = {rhs}", "entry": list(entry), "residual": str(residual[entry])}
    assert entry == (0, 0)


def test_distinct_but_wrong_alpha_eigenvalues_fail_without_a_count(monkeypatch):
    # gamma = 2 and gamma = 2q are both cube roots of 1 + 7 * 1 = 8: the model
    # built at gamma = 2 satisfies every relation at the point with gamma = 2q,
    # and its alpha images are diagonal with distinct eigenvalues 2 q^(-2r),
    # but not the 2q q^(-2r) that point pins
    F = CycField(3)
    A = weyl(3)
    rep = full_matrix_rep(point(F, [(F.scalar(7), F.one)], [F.scalar(2)]), A.emb)
    (alpha,) = fiber.alpha_images(rep)
    assert alpha.entries == {(r, r): 2 * F.qpow(-2 * r) for r in range(3)}
    assert fiber.unreached_row(one_slot(rep)) is dense_model.unreached_row(rep) is None
    report = report_of_model(rep, point(F, [(F.scalar(7), F.one)], [2 * F.q]), A, monkeypatch)
    assert report["relations_ok"] is True and report["alpha_diagonal_ok"] is False
    assert "span_dimension" not in report and "unreached_row" not in report
    assert report["ok"] is False
    monkeypatch.undo()
    assert exact_basis_rank(rep) == 9


def test_a_cut_edge_fails_the_certificate():
    # at c = w = 0 the x entry and the d entry between rows 0 and 1 are both
    # zero; the row graph is the path 0 - 2 - 1, and the certificate holds
    F = CycField(3)
    A = weyl(3)
    rep = full_matrix_rep(point(F, [(F.zero, F.zero)], [F.one]), A.emb)
    (x,), (d,) = rep.x, rep.d
    assert set(x.entries) == {(2, 0), (1, 2)} and set(d.entries) == {(2, 1), (0, 2)}
    assert fiber.unreached_row(one_slot(rep)) is dense_model.unreached_row(rep) is None
    # zeroing the x and d entries between rows 1 and 2 cuts row 1 off
    cut = FullRep(x=(Matrix(F, 3, {(2, 0): x[(2, 0)]}),), d=(Matrix(F, 3, {(0, 2): d[(0, 2)]}),))
    assert fiber.unreached_row(one_slot(cut)) == dense_model.unreached_row(cut) == 1
    assert exact_basis_rank(cut) == 4


def test_fiber_rep_span_is_not_counted_when_the_relations_or_the_certificate_fail(monkeypatch):
    # a passing point takes its span from the certificate; the model of the
    # moved central values (14, 1/2) has the same alphas and generator pairs,
    # so it fails on its relations alone; and a failed certificate fails the
    # passing point, naming its row.  No report counts a rank
    F = CycField(3)
    A = weyl(3)
    p = point(F, [(F.scalar(7), F.one)], [F.scalar(2)])
    rep = fiber.slot_rep(p, A.emb)
    forbid_counts(monkeypatch)
    report = fiber.fiber_rep_report(p, A)
    assert report["ok"] and report["span_dimension"] == 9
    assert "failed_relation" not in report and "unreached_row" not in report
    moved = FiberPoint(field=F, lam=((F.scalar(14), F.one / 2),), gamma=p.gamma)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fiber, "slot_rep", lambda point, emb: rep)
        report = fiber.fiber_rep_report(moved, A)
    assert report["relations_ok"] is False and report["alpha_diagonal_ok"] is True
    assert report["failed_relation"]["relation"] == "x1^3 = 14"
    assert "span_dimension" not in report and "unreached_row" not in report
    assert report["ok"] is False
    monkeypatch.setattr(fiber, "unreached_row", lambda rep: 2)
    report = fiber.fiber_rep_report(p, A)
    assert report["relations_ok"] is report["alpha_diagonal_ok"] is True
    assert report["ok"] is False and report["unreached_row"] == 2
    assert "span_dimension" not in report and "failed_relation" not in report


def test_a_failing_placement_counts_nothing(monkeypatch):
    # the placement mutant at ell 3, n 3 fails a relation; the report names
    # it and makes no rank count, so it carries no span
    F = CycField(3)
    A = PBWAlgebra(F, TorusEmbedding(matrix=((1,), (1,), (1,)), form=((2,),)))
    gamma = F.scalar(2) + F.q
    p = point(F, [(F.scalar(3), (gamma ** 3 - 1) / 3)] * 3, [gamma] * 3)
    monkeypatch.setattr(fiber, "_twist", placement_mutant())
    forbid_counts(monkeypatch)
    report = fiber.fiber_rep_report(p, A)
    assert report["ok"] is report["relations_ok"] is False
    assert report["failed_relation"]["relation"]
    assert "span_dimension" not in report and "unreached_row" not in report
    assert report["expected_span_dimension"] == 3 ** 6


def test_a_passing_fiber_rep_builds_the_alpha_images_once(monkeypatch):
    # the alpha-diagonal check reads one list, and the certificate reads the model
    built, read = [], []
    alpha_images, unreached_row = fiber.alpha_images, fiber.unreached_row

    def recorded_images(rep):
        built.append(alpha_images(rep))
        return built[-1]

    def recorded_certificate(rep):
        read.append(rep)
        return unreached_row(rep)

    monkeypatch.setattr(fiber, "alpha_images", recorded_images)
    monkeypatch.setattr(fiber, "unreached_row", recorded_certificate)
    cfg = {"ell": 3, "embedding": {"matrix": [[1], [1]], "form": [[2]]},
           "tasks": [{"type": "fiber-rep",
                      "point": {"lambda": [["0", "0"], ["7", "1"]], "gamma": ["1", "2"]}}]}
    assert run_suite(cfg)["tasks"][0]["ok"]
    assert len(built) == 1 and len(read) == 1


# -- the slot model against its dense oracle -----------------------------------

def factor(F, kind, k, c, w, a, b):
    """One locus factor (c, w, gamma): c = 0 with gamma = q^k and any w;
    w = 0 with gamma = q^k and c != 0; or gamma = a + b q with c != 0 and
    w = (gamma^ell - 1) / c (gamma = 0 would leave the locus, so it is 1)."""
    if kind == "c0":
        return (F.zero, F.scalar(w)), F.qpow(k)
    if kind == "w0":
        return (F.scalar(c or 1), F.zero), F.qpow(k)
    gamma = (F.scalar(a) + F.scalar(b) * F.q) or F.one
    return (F.scalar(c or 1), (gamma ** F.ell - 1) / (c or 1)), gamma


@st.composite
def slot_cases(draw):
    """An embedding with ell in {3, 5, 7, 9}, n <= 4, d <= n and entries in
    [-2, 2], and a locus point with c = 0, w = 0 and generic factors.  The
    dense oracle works on ell^n rows, so ell^n stays at most 125: n <= 4 at
    ell 3, n <= 3 at ell 5, n <= 2 at ell 7 and 9."""
    ell = draw(st.sampled_from([3, 5, 7, 9]))
    n = draw(st.integers(1, {3: 4, 5: 3, 7: 2, 9: 2}[ell]))
    d = draw(st.integers(1, n))
    entries = st.integers(-2, 2)
    matrix = [[draw(entries) for _ in range(d)] for _ in range(n)]
    upper = {(a, b): draw(entries) for a in range(d) for b in range(a, d)}
    form = [[upper[min(a, b), max(a, b)] for b in range(d)] for a in range(d)]
    try:
        emb = TorusEmbedding(matrix, form)
    except ValueError:  # no full column rank
        assume(False)
    F = CycField(ell)
    small = st.integers(-2, 2)
    factors = [factor(F, draw(st.sampled_from(["c0", "w0", "generic"])), draw(st.integers(0, ell - 1)),
                      draw(small), draw(small), draw(small), draw(small)) for _ in range(n)]
    return emb, point(F, [lam for lam, _ in factors], [g for _, g in factors])


def mutated(rep, kind, a, j, r, u):
    """The slot model rep with one image changed in slot j: its row-r entry
    dropped ("drop"), scaled by u ("scale") or moved to the next column
    ("move"); or slot j scaled by u and the scalar by 1/u, the same matrix
    in other slots ("rescale")."""
    images = list(rep.x + rep.d)
    g = images[a % len(images)]
    j = j % len(g.slots)
    slot = g.slots[j]
    entries = slot.entries
    r = sorted(entries)[r % len(entries)] if entries else None
    if kind == "rescale":
        images[a % len(images)] = SlotImage(g.scalar / u, g.slots[:j] + (slot.scale(u),) + g.slots[j + 1:])
    elif r is not None:
        v = entries.pop(r)
        if kind == "scale":
            entries[r] = v * u
        elif kind == "move":
            entries[(r[0], (r[1] + 1) % slot.size)] = v
        new = Matrix(slot.field, slot.size, entries)
        images[a % len(images)] = SlotImage(g.scalar, g.slots[:j] + (new,) + g.slots[j + 1:])
    n = len(rep.x)
    return FullRep(x=tuple(images[:n]), d=tuple(images[n:]))


def assert_slot_report_is_the_dense_report(rep, p, A):
    """fiber_rep_report on the slot model rep gives the dense oracle's
    report on its expansion, verdict and witness alike, and counts no rank."""
    with pytest.MonkeyPatch.context() as mp:
        forbid_counts(mp)
        mp.setattr(fiber, "slot_rep", lambda point, emb: rep)
        report = fiber.fiber_rep_report(p, A)
    assert report == dense_model.report(expanded(rep), p, A)
    return report


# no mutation, or the arguments (kind, a, j, r, u) of mutated
slot_mutations = st.one_of(st.none(), st.tuples(st.sampled_from(["drop", "scale", "move", "rescale"]),
                                                st.integers(0, 7), st.integers(0, 3),
                                                st.integers(0, 8), st.sampled_from([2, -1])))


@settings(max_examples=40, deadline=None)
@given(case=slot_cases(), mutation=slot_mutations)
def test_the_slot_model_agrees_with_the_dense_model(case, mutation):
    # the expansion of the slots is full_matrix_rep, and the slot report is
    # the dense report, on the model and on a mutant of one of its slots
    emb, p = case
    A = PBWAlgebra(p.field, emb)
    rep, slots = full_matrix_rep(p, emb), fiber.slot_rep(p, emb)
    assert (expanded(slots).x, expanded(slots).d) == (rep.x, rep.d)
    assert assert_slot_report_is_the_dense_report(slots, p, A)["ok"]
    if mutation is not None:
        kind, a, j, r, u = mutation
        assert_slot_report_is_the_dense_report(mutated(slots, kind, a, j, r, p.field.scalar(u)), p, A)


def fiber_rep_points():
    """(name, point, algebra) of each fiber-rep task of the pinned report configs."""
    for path in sorted((Path(__file__).resolve().parent / "report_configs").glob("*.json")):
        cfg = json.loads(path.read_text())
        F, emb = CycField(cfg["ell"]), validate_config(cfg)
        for task in cfg["tasks"]:
            if task["type"] == "fiber-rep":
                yield path.stem, build_point(F, task["point"]), PBWAlgebra(F, emb)


def model_mutants():
    """Each patch of the model builders that the tests make: the flipped
    twist rule, the moved central values and each raised delta_j."""
    from test_cli import moved_central_values
    yield "placement", "_twist", placement_mutant()
    yield "moved-central-values", "_rank1_entries", moved_central_values(fiber._rank1_entries)
    for j in range(3):
        yield f"raised-delta-{j}", "_rank1_entries", rank1_mutant(j)


@pytest.mark.parametrize("name,target,mutant", list(model_mutants()),
                         ids=[name for name, _, _ in model_mutants()])
def test_every_model_mutant_gets_the_dense_verdict_and_witness(name, target, mutant, monkeypatch):
    points = [(stem, p, A) for stem, p, A in fiber_rep_points() if p.in_azumaya_locus()]
    assert len(points) >= 5
    monkeypatch.setattr(fiber, target, mutant)
    failed = 0
    for stem, p, A in points:
        report = fiber.fiber_rep_report(p, A)
        assert report == dense_model.report(full_matrix_rep(p, A.emb), p, A), stem
        failed += not report["ok"]
    assert failed


def frontier_point(F, n):
    gamma = F.scalar(2) + F.q
    return point(F, [(F.scalar(3), (gamma ** F.ell - 1) / 3)] * n, [gamma] * n)


def recorded_sizes(monkeypatch):
    """The row count of every Matrix built from here on."""
    sizes, init, rows = [], Matrix.__init__, Matrix._rows.__func__

    def counted_init(self, field, size, entries=None):
        sizes.append(size)
        init(self, field, size, entries)

    def counted_rows(cls, field, cols, vals):
        sizes.append(len(cols))
        return rows(cls, field, cols, vals)

    monkeypatch.setattr(Matrix, "__init__", counted_init)
    monkeypatch.setattr(Matrix, "_rows", classmethod(counted_rows))
    return sizes


def test_a_passing_frontier_fiber_rep_builds_no_matrix_of_more_than_ell_rows(monkeypatch):
    # at ell 3, n 8 the model has 3^8 = 6561 rows; a passing report decides
    # everything on its 3 x 3 slots, while a failing one expands the relation
    # it names
    F = CycField(3)
    A = PBWAlgebra(F, TorusEmbedding(matrix=((1,),) * 8, form=((2,),)))
    forbid_counts(monkeypatch)
    sizes = recorded_sizes(monkeypatch)
    report = fiber.fiber_rep_report(frontier_point(F, 8), A)
    assert report["ok"] and report["span_dimension"] == 3 ** 16
    assert sizes and max(sizes) == 3
    sizes.clear()
    monkeypatch.setattr(fiber, "_twist", placement_mutant())
    assert not fiber.fiber_rep_report(frontier_point(F, 8), A)["relations_ok"]
    assert max(sizes) == 3 ** 8


def test_off_the_locus_the_slot_model_raises_before_it_builds(monkeypatch):
    F = CycField(3)
    p = point(F, [(F.scalar(7), F.one), (F.scalar(-1), F.one)], [F.scalar(2), F.zero])
    sizes = recorded_sizes(monkeypatch)
    monkeypatch.setattr(fiber, "_rank1_entries", None)
    for build in (fiber.slot_rep, full_matrix_rep):
        with pytest.raises(OutsideAzumayaLocus, match=r"^point has 1 \+ c_i w_i = 0$"):
            build(p, emb_n2())
    with pytest.raises(OutsideAzumayaLocus, match=r"^point has 1 \+ c_i w_i = 0$"):
        fiber.fiber_rep_report(p, weyl(3, emb_n2()))
    assert sizes == []


def test_a_factor_of_two_twists_is_no_kronecker_product(monkeypatch):
    # an x_1 entry moved from column 2 to column 1 moves digit 1 by 0, the
    # others by 1: with P_21 = 2 its twists differ, so the dense model holds
    # it and the slot model refuses it, and the task reports the error
    F = CycField(3)
    rank1 = fiber._rank1_entries

    def moved(field, c, w, gamma):
        x, d = rank1(field, c, w, gamma)
        return [(r, 1 if (r, s) == (1, 2) else s, v) for r, s, v in x], d

    monkeypatch.setattr(fiber, "_rank1_entries", moved)
    full_matrix_rep(two_factor_point(F), emb_n2())
    with pytest.raises(ValueError, match="two twists"):
        fiber.slot_rep(two_factor_point(F), emb_n2())
    cfg = {"ell": 3, "embedding": {"matrix": [[1], [1]], "form": [[2]]},
           "tasks": [{"type": "fiber-rep",
                      "point": {"lambda": [["0", "0"], ["7", "1"]], "gamma": ["1", "2"]}}]}
    entry = run_suite(cfg)["tasks"][0]
    assert entry["ok"] is False and "two twists" in entry["error"]


def test_the_row_graph_is_read_off_the_expansion_when_the_lemma_does_not_apply(monkeypatch):
    # n = 2: cutting slot 0 of x_1 and d_1 between digits 1 and 2 leaves
    # G_0 not strongly connected, and the least unreached row, 1, is read
    # off the expansion; dropping a twist-diagonal entry of x_1 breaks the
    # premise of the product lemma, and the expanded graph, still strongly
    # connected through x_2 and d_2, decides.  Both agree with the dense oracle
    F = CycField(3)
    slots = fiber.slot_rep(two_factor_point(F), emb_n2())
    sizes = recorded_sizes(monkeypatch)
    assert fiber.unreached_row(slots) is None and not sizes  # the lemma reads the slots
    (x1, x2), (d1, d2) = slots.x, slots.d
    one = F.one

    def with_slot(g, j, entries):
        return SlotImage(g.scalar, g.slots[:j] + (Matrix(F, 3, entries),) + g.slots[j + 1:])

    cut = FullRep(x=(with_slot(x1, 0, {rc: v for rc, v in x1.slots[0].entries.items() if rc == (2, 0)}), x2),
                  d=(with_slot(d1, 0, {rc: v for rc, v in d1.slots[0].entries.items() if rc == (0, 2)}), d2))
    holed = FullRep(x=(with_slot(x1, 1, {(0, 0): one, (1, 1): one}), x2), d=slots.d)
    for rep, want in ((cut, 1), (holed, None)):
        sizes.clear()
        got = fiber.unreached_row(rep)
        assert max(sizes) == 9  # the images were expanded
        assert got == dense_model.unreached_row(expanded(rep)) == want
