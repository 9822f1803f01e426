"""PBW engine: normal forms, central elements, moment map identities.

The reference implementation here (`slow_normal_form`) reorders words
one adjacent transposition at a time, straight from the defining
relations, with no closed-form coefficient formulas.  The engine must
agree with it exactly; everything else leans on that agreement.
`act_rank1`, the n = 1 polynomial representation, is the reference for
the module axiom.
"""

import dataclasses
import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from qweyl import (CycField, PBWAlgebra, TorusEmbedding, quiver_to_embedding,
                   verify_qmm)
from qweyl import pbw
from qweyl.lattice import QuiverData
from qweyl.linalg import rank, vec_accumulate


def emb_n1():
    return TorusEmbedding(n=1, d=1, matrix=((1,),), form=((2,),))


def emb_n2():
    return TorusEmbedding(n=2, d=1, matrix=((1,), (1,)), form=((2,),))


def emb_cyclic3():
    return quiver_to_embedding(QuiverData(num_vertices=3, edges=((1, 2), (2, 3), (3, 1))))


# -- reference rewriter ----------------------------------------------------

def slow_normal_form(algebra, word):
    """Normal-order a word of ('x'|'d', index) letters, 1-based indices.

    Rewrites the leftmost disorder only, so each step is one relation
    application.  Returns {(m, k): coeff}.
    """
    F = algebra.field
    P = algebra.pairings  # symmetric, 0-based
    n = algebra.n
    q2 = F.qpow(2)
    agenda = {tuple(word): F.one}
    done = {}
    while agenda:
        new_agenda = {}
        for w, c in agenda.items():
            pos = _first_disorder(w)
            if pos is None:
                key = _to_key(w, n)
                done[key] = done.get(key, F.zero) + c
                continue
            (k1, a), (k2, b) = w[pos], w[pos + 1]
            head, tail = w[:pos], w[pos + 2:]
            if k1 == "d" and k2 == "x" and a == b:
                w1 = head + (("x", a), ("d", a)) + tail
                new_agenda[w1] = new_agenda.get(w1, F.zero) + c * q2
                w2 = head + tail
                new_agenda[w2] = new_agenda.get(w2, F.zero) + c * (q2 - F.one)
            else:
                if k1 == "d" and k2 == "x":
                    e = -P[a - 1][b - 1] if a > b else P[b - 1][a - 1]
                else:
                    # xx or dd with a > b
                    e = P[a - 1][b - 1]
                w1 = head + (w[pos + 1], w[pos]) + tail
                new_agenda[w1] = new_agenda.get(w1, F.zero) + c * F.qpow(e)
        agenda = {w: c for w, c in new_agenda.items() if c}
    return {k: v for k, v in done.items() if v}


def _first_disorder(w):
    for i in range(len(w) - 1):
        (k1, a), (k2, b) = w[i], w[i + 1]
        if k1 == "d" and k2 == "x":
            return i
        if k1 == k2 and a > b:
            return i
    return None


def _to_key(w, n):
    m = [0] * n
    k = [0] * n
    for kind, i in w:
        if kind == "x":
            m[i - 1] += 1
        else:
            k[i - 1] += 1
    return tuple(m), tuple(k)


def random_word(rng, n, length):
    return tuple((rng.choice("xd"), rng.randint(1, n)) for _ in range(length))


def act_rank1(a, f):
    """Action of a (n = 1) on a polynomial in t.

    x acts by multiplication by t, d by the q^2-difference quotient
    (f(q^2 t) - f(t))/t, so x^m d^k sends t^j to
    prod_{s=j-k+1..j} (q^{2s} - 1) t^{j-k+m}.
    """
    A = a.algebra
    if A.n != 1:
        raise ValueError("the polynomial representation exists for n = 1 only")
    F = A.field
    items = f.items() if isinstance(f, dict) else enumerate(f)
    poly = vec_accumulate({}, ((int(j), F.scalar(c)) for j, c in items))

    def terms():
        for ((m,), (k,)), cf in a.terms.items():
            for j, c in poly.items():
                if k > j:
                    continue
                scal = cf * c
                for s in range(j - k + 1, j + 1):
                    scal = scal * (F.qpow(2 * s) - 1)
                yield j - k + m, scal

    return vec_accumulate({}, terms())


@pytest.mark.parametrize("ell,emb_fn", [
    (3, emb_n1), (5, emb_n1), (3, emb_n2), (5, emb_cyclic3),
])
def test_engine_matches_slow_rewriter(ell, emb_fn):
    F = CycField(ell)
    A = PBWAlgebra(F, emb_fn())
    rng = random.Random(1000 + ell + A.n)
    for _ in range(30):
        w = random_word(rng, A.n, rng.randint(2, 6))
        got = A.one()
        for kind, i in w:
            got = got * (A.x(i) if kind == "x" else A.d(i))
        want = slow_normal_form(A, w)
        assert got.terms == want, w


def test_large_crossings_match_slow_rewriter():
    # a, b up to 2 ell + 1 reach j >= ell, where (q^2; q^2)_j and the
    # falling product of the crossing coefficient vanish
    ell = 3
    A = PBWAlgebra(CycField(ell), emb_n1())
    for a in range(2 * ell + 2):
        for b in range(2 * ell + 2):
            want = slow_normal_form(A, (("d", 1),) * a + (("x", 1),) * b)
            assert (A.d(1, a) * A.x(1, b)).terms == want, (a, b)


def test_crossings_share_one_pascal_row_table():
    # one row per s = min(a, b), not one per crossing
    A = PBWAlgebra(CycField(5), emb_n1())
    for a in range(20):
        for b in range(20):
            A.d(1, a) * A.x(1, b)
    assert len(A._pascal_rows) == 20


def _int_poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _gauss_poly(r, k):
    """The Gaussian binomial [r k] at q^2 as integer coefficients in q."""
    row = [[1]]
    for _ in range(r):
        shifted = [[0] * (2 * i) + p for i, p in enumerate(row)]  # q^(2i) [r-1 i]
        row = [[1]] + [[a + b for a, b in zip(row[i - 1] + [0] * len(shifted[i]),
                                             shifted[i] + [0] * len(row[i - 1]))]
                       for i in range(1, len(row))] + [[1]]
    return row[k]


def test_crossing_triples_match_the_symmetric_closed_form():
    # c_j = q^(2(a-j)(b-j)) [a j] [b j] (q^2; q^2)_j, each j <= min(a, b)
    ell = 3
    F = CycField(ell)
    A = PBWAlgebra(F, emb_n1())
    for a in range(2 * ell + 2):
        for b in range(2 * ell + 2):
            want = {}
            for j in range(min(a, b) + 1):
                poly = [0] * (2 * (a - j) * (b - j)) + [1]
                for i in range(1, j + 1):
                    poly = _int_poly_mul(poly, [-1] + [0] * (2 * i - 1) + [1])
                poly = _int_poly_mul(_int_poly_mul(poly, _gauss_poly(a, j)), _gauss_poly(b, j))
                c = F.reduce(dict(enumerate(poly)))
                if c:
                    want[j] = c
            got = {}
            for j, e, f in A._crossing(a, b):
                assert e == 2 * (a - j) * (b - j)
                assert f is None or f != F.one, (a, b, j)  # a factor 1 is stored as None
                got[j] = F.qpow(e) * (F.one if f is None else f)
            assert got == want, (a, b)
            assert A._crossing(a, b)[0] == (0, 2 * a * b, None)


@pytest.mark.parametrize("ell", [3, 13])
def test_products_carry_coefficients_that_are_not_one(ell):
    F = CycField(ell)
    A = PBWAlgebra(F, emb_n2())
    rng = random.Random(7 * ell)
    coeffs = [F.scalar(-1), F.scalar(Fraction(-2, 3)), F.q + F.scalar(Fraction(1, 2)),
              F.qpow(2) - 3 * F.qpow(ell - 1), -F.qpow(1)]

    def rand_elem():
        out = A.zero()
        for _ in range(rng.randint(1, 3)):
            m = tuple(rng.randint(0, ell + 1) for _ in range(2))
            k = tuple(rng.randint(0, ell + 1) for _ in range(2))
            out = out + A.monomial(m, k, rng.choice(coeffs))
        return out

    for _ in range(6):
        a, b = rand_elem(), rand_elem()
        c, c2 = rng.choice(coeffs), rng.choice(coeffs)
        ab = a * b
        assert (c * a) * (c2 * b) == (c * c2) * ab
        # each term pair contributes its coefficients times the unit-coefficient product
        by_terms = A.zero()
        for ka, ca in a.terms.items():
            for kb, cb in b.terms.items():
                by_terms = by_terms + (ca * cb) * (A.monomial(*ka) * A.monomial(*kb))
        assert ab == by_terms
        assert A.commutator(a, b) == ab - b * a


def test_weyl_relation_examples():
    F = CycField(5)
    A = PBWAlgebra(F, emb_n1())
    x, d = A.x(1), A.d(1)
    q2, q4 = F.qpow(2), F.qpow(4)
    one = A.one()
    assert d * x == q2 * (x * d) + A.scalar_element(q2 - F.one)
    # d x^2 = q^4 x^2 d + (q^4 - 1) x
    assert d * x ** 2 == q4 * (x ** 2 * d) + (q4 - F.one) * x
    # d^2 x = q^4 x d^2 + (q^4 - 1) d
    assert d ** 2 * x == q4 * (x * d ** 2) + (q4 - F.one) * d
    # alpha^2 = q^2 x^2 d^2 + (q^2 + 1) x d + 1
    a = A.alpha(1)
    assert a == one + x * d
    assert a ** 2 == q2 * (x ** 2 * d ** 2) + (q2 + F.one) * (x * d) + one


def test_alpha_q_commutes():
    # alpha x = q^2 x alpha and d alpha = q^2 alpha d
    for ell in (3, 5):
        F = CycField(ell)
        A = PBWAlgebra(F, emb_n1())
        x, d, a = A.x(1), A.d(1), A.alpha(1)
        q2 = F.qpow(2)
        assert a * x == q2 * (x * a)
        assert d * a == q2 * (a * d)


def test_cross_relations_n2():
    # M = (1,1)^T with the rank-one form: all cross pairings are 1
    F = CycField(5)
    A = PBWAlgebra(F, emb_n2())
    x1, x2 = A.x(1), A.x(2)
    d1, d2 = A.d(1), A.d(2)
    assert x2 * x1 == F.qpow(2) * (x1 * x2)
    assert d2 * d1 == F.qpow(2) * (d1 * d2)
    # moving the higher-index d past the lower-index x costs -P,
    # the lower-index d past the higher-index x costs +P
    assert d2 * x1 == F.qpow(-2) * (x1 * d2)
    assert d1 * x2 == F.qpow(2) * (x2 * d1)


def test_associativity_random():
    F = CycField(3)
    A = PBWAlgebra(F, emb_n2())
    rng = random.Random(424242)

    def rand_elem():
        out = A.zero()
        for _ in range(rng.randint(1, 3)):
            m = tuple(rng.randint(0, 2) for _ in range(2))
            k = tuple(rng.randint(0, 2) for _ in range(2))
            out = out + A.monomial(m, k, F.qpow(rng.randint(0, 2)) * rng.randint(-2, 2))
        return out

    for _ in range(25):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_t_degree_additivity():
    F = CycField(3)
    A = PBWAlgebra(F, emb_n2())
    a = A.monomial((2, 0), (0, 1))
    b = A.monomial((1, 1), (1, 0))
    assert a.t_degree() == (2, -1)
    assert b.t_degree() == (0, 1)
    assert (a * b).t_degree() == (2, 0)
    assert (a + b).t_degree() is None  # mixed weights
    assert A.zero().t_degree() == (0, 0)
    # k-degree through the embedding: sum of coordinates here
    assert a.k_degree() == (1,)


def test_centralizer_ell3_n1():
    """ell = 3, n = 1: the centralizer of {x, d} in the degree <= 6 window
    is exactly the span of monomials in x^3 and d^3."""
    from itertools import product as iproduct
    from qweyl import SpanBasis, nullspace

    F = CycField(3)
    A = PBWAlgebra(F, emb_n1())
    keys = [((a,), (b,)) for a in range(7) for b in range(7)]
    gens = [A.x(1), A.d(1)]
    rows = []
    for gi, g in enumerate(gens):
        per = {}
        for mk in keys:
            comm = A.monomial(*mk) * g - g * A.monomial(*mk)
            for out_key, c in comm.terms.items():
                per.setdefault(out_key, {})[mk] = c
        rows.extend(per.values())
    sol = nullspace(rows, keys, field=F)
    span = SpanBasis(F)
    for v in sol:
        span.add(v)
    assert span.rank == 9
    for a in (0, 3, 6):
        for b in (0, 3, 6):
            assert span.contains({((a,), (b,)): F.one}), (a, b)


# -- center_report on the keys of central weight ------------------------------

def test_center_report_prunes_only_where_the_premise_holds(monkeypatch):
    seen = []  # the keys handed to each commutator_rows call
    rows = pbw.commutator_rows

    def recording(algebra, keys):
        seen.append(list(keys))
        return rows(algebra, keys)

    monkeypatch.setattr(pbw, "commutator_rows", recording)
    A = PBWAlgebra(CycField(3), emb_n2())
    passing = pbw.center_report(A, 6)
    assert passing["ok"] and passing["dimension"] == 81
    # the keys x^m d^k with m = k (mod 3): 17 choices of (m_i, k_i) per index
    assert len(seen[-1]) == 289 == 17 ** 2
    assert all((a - b) % 3 == 0 for m, k in seen[-1] for a, b in zip(m, k))
    # alpha_i = 1 + q^2 x_i d_i breaks alpha_i x_i = q^2 x_i alpha_i, so the
    # restriction is unproven and every key is solved for; the rows are
    # right, so the report keeps its bytes
    alpha = PBWAlgebra.alpha
    monkeypatch.setattr(PBWAlgebra, "alpha",
                        lambda self, i: self.one() + self.field.qpow(2) * (alpha(self, i) - 1))
    fallback = pbw.center_report(A, 6)
    assert len(seen[-1]) == 2401 == 7 ** 4
    assert json.dumps(fallback) == json.dumps(passing)


def test_commutator_rows_builds_each_key_once(monkeypatch):
    A = PBWAlgebra(CycField(3), emb_n2())
    keys = [(m, k) for m in product(range(2), repeat=2) for k in product(range(2), repeat=2)]
    expected = pbw.commutator_rows(A, keys)
    built = []
    monomial = PBWAlgebra.monomial

    def counted(self, m, k, coeff=1):
        built.append((tuple(m), tuple(k)))
        return monomial(self, m, k, coeff)

    monkeypatch.setattr(PBWAlgebra, "monomial", counted)
    assert pbw.commutator_rows(A, keys) == expected
    # one monomial per key, plus one per generator x_1, x_2, d_1, d_2
    assert len(built) == len(keys) + 2 * A.n and set(built) == set(keys)


CENTER_EMBEDDINGS = {
    "diagonal-n1": TorusEmbedding(n=1, d=1, matrix=((1,),), form=((2,),)),
    "diagonal-n2": TorusEmbedding(n=2, d=2, matrix=((1, 0), (0, 1)), form=((2, 0), (0, 2))),
    "all-ones-n2": TorusEmbedding(n=2, d=1, matrix=((1,), (1,)), form=((2,),)),
    "braided-n2": TorusEmbedding(n=2, d=1, matrix=((2,), (1,)), form=((2,),)),
}


@settings(max_examples=20, deadline=None)
@given(ell=st.sampled_from([3, 5]), name=st.sampled_from(sorted(CENTER_EMBEDDINGS)),
       max_degree=st.integers(0, 4))
@example(ell=3, name="braided-n2", max_degree=4)
def test_center_dimension_matches_the_full_system(ell, name, max_degree):
    # the oracle: commutator_rows on every key, ranked by linalg.rank
    A = PBWAlgebra(CycField(ell), CENTER_EMBEDDINGS[name])
    n, exps = A.n, range(max_degree + 1)
    keys = [(m, k) for m in product(exps, repeat=n) for k in product(exps, repeat=n)]
    powers = range(0, max_degree + 1, ell)
    expected = {(m, k) for m in product(powers, repeat=n) for k in product(powers, repeat=n)}
    rows = pbw.commutator_rows(A, keys)
    # no row touches an expected key, which proves the bound handed to rank
    assert not expected.intersection(key for r in rows for key in r)
    full = len(keys) - rank(lambda: rows, A.field, len(keys) - len(expected))
    # the premise holds, so the report solves on the lattice keys
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    assert all(verify_qmm(g, "y", u) for g in A.generators() for u in units)
    report = pbw.center_report(A, max_degree)
    assert report["dimension"] == full == len(expected)
    assert report["ok"]


def test_is_central_ell3():
    F = CycField(3)
    A = PBWAlgebra(F, emb_n1())
    assert A.x(1, 3).is_central()
    assert A.d(1, 3).is_central()
    assert (A.alpha(1) ** 3).is_central()
    assert not A.x(1).is_central()
    assert not A.alpha(1).is_central()


def test_act_rank1_basics():
    F = CycField(3)
    A = PBWAlgebra(F, emb_n1())
    x, d = A.x(1), A.d(1)
    # x t^j = t^{j+1}, d t^j = (q^{2j} - 1) t^{j-1}
    assert act_rank1(x, {2: F.one}) == {3: F.one}
    assert act_rank1(d, {2: F.one}) == {1: F.qpow(4) - F.one}
    assert act_rank1(d, {0: F.one}) == {}
    # module axiom on random pairs
    rng = random.Random(99)
    for _ in range(20):
        a = A.monomial((rng.randint(0, 2),), (rng.randint(0, 2),),
                       F.qpow(rng.randint(0, 2)))
        b = A.monomial((rng.randint(0, 2),), (rng.randint(0, 2),))
        f = {rng.randint(0, 4): F.one + F.q}
        assert act_rank1(a * b, f) == act_rank1(a, act_rank1(b, f))
    # alpha acts diagonally: alpha t^j = q^{2j} t^j
    assert act_rank1(A.alpha(1), {2: F.one}) == {2: F.qpow(4)}


def test_verify_qmm_generators():
    for emb in (emb_n1(), emb_n2(), emb_cyclic3()):
        F = CycField(3)
        A = PBWAlgebra(F, emb)
        for i in range(emb.n):
            r = tuple(1 if j == i else 0 for j in range(emb.n))
            for k in range(1, emb.n + 1):
                assert verify_qmm(A.x(k), "y", r)
                assert verify_qmm(A.d(k), "y", r)
        for j in range(emb.d):
            r = tuple(1 if i == j else 0 for i in range(emb.d))
            for k in range(1, emb.n + 1):
                assert verify_qmm(A.x(k), "z", r)
                assert verify_qmm(A.d(k), "z", r)


def test_verify_qmm_exponents():
    # the stored exponent is the full 2e of the twisting scalar q^{2e}
    F = CycField(5)
    A = PBWAlgebra(F, emb_n2())
    res = verify_qmm(A.x(1), "y", (1, 0))
    assert res.ok and res.exponent == 2
    res = verify_qmm(A.d(1), "y", (1, 0))
    assert res.ok and res.exponent == -2
    res = verify_qmm(A.x(2), "y", (1, 0))
    assert res.ok and res.exponent == 0
    res = verify_qmm(A.x(1), "z", (1,))
    assert res.ok and res.exponent == 2


def test_verify_qmm_multiplies_only_by_alpha_factors(monkeypatch):
    # each side is a times |u_i| factors alpha_i, one PBW product per factor,
    # and never a product by the unit: 2 * sum |u_i| products in all
    calls = []
    real = PBWAlgebra.multiply

    def counted(self, a, b):
        calls.append((a, b))
        return real(self, a, b)

    monkeypatch.setattr(PBWAlgebra, "multiply", counted)
    A = PBWAlgebra(CycField(3), emb_n2())
    assert verify_qmm(A.x(1), "y", (1, 0))
    assert len(calls) == 2
    # z_1 on the three-cycle has alpha exponent u = (-1, 0, 1), one of each sign
    C = PBWAlgebra(CycField(3), emb_cyclic3())
    for g in C.generators():
        calls.clear()
        assert verify_qmm(g, "z", (1, 0))
        assert len(calls) == 4
    assert verify_qmm(C.x(1), "y", (2, 0, 0)) and len(calls) == 4 + 4


def test_verify_qmm_rejects_mixed_weight():
    F = CycField(3)
    A = PBWAlgebra(F, emb_n1())
    with pytest.raises(ValueError):
        verify_qmm(A.x(1) + A.x(1) ** 2, "y", (1,))


def test_qmm_report_fails_on_one_failed_check(monkeypatch):
    # one failing identity fails the report and is the entry that says so
    real = pbw.verify_qmm

    def one_off(a, kind, r):
        res = real(a, kind, r)
        return dataclasses.replace(res, ok=res.ok and (kind, str(a)) != ("z", "d2"))

    monkeypatch.setattr(pbw, "verify_qmm", one_off)
    report = pbw.qmm_report(PBWAlgebra(CycField(3), emb_n2()))
    assert not report["ok"]
    assert [(c["h"], c["target"]) for c in report["checks"] if not c["ok"]] == [("z(1,)", "d2")]


def test_printer_canonical_strings():
    # canonical forms are only stable for ell >= 5 (higher powers of q survive)
    F = CycField(5)
    A = PBWAlgebra(F, emb_n1())
    assert str(A.d(1) * A.x(1)) == "q^2*x1*d1 + (q^2 - 1)"
    assert str(A.x(1) ** 3) == "x1^3"
    assert str(A.zero()) == "0"
    assert str(A.one()) == "1"
    # negative coefficients are always parenthesized, -1 included
    assert str(-A.x(1)) == "(-1)*x1"
    assert str(A.alpha(1)) == "x1*d1 + 1"
    F3 = CycField(3)
    A3 = PBWAlgebra(F3, emb_n1())
    assert str(A3.d(1) * A3.x(1)) == "(-q - 1)*x1*d1 + (-q - 2)"


def test_euler_element():
    F = CycField(5)
    A = PBWAlgebra(F, emb_n2())
    assert A.alpha(1) == A.one() + A.x(1) * A.d(1)
    assert A.alpha(2) == A.one() + A.x(2) * A.d(2)
