"""Sparse linear algebra over Q(q): the accumulate helper, SpanBasis, nullspace,
and the modular rank certificate.

Random sparse vectors at ell = 3 and 5 with small integer and q-power
coefficients, reduced under the default key order and under a custom
one.  SpanBasis keeps reduced row echelon form, so every property below
is an exact identity.  The modular rank is checked against SpanBasis,
and its prime and root of unity against their defining properties.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qweyl import CycField, SpanBasis, nullspace
from qweyl.cyclotomic import cyclotomic_polynomial
from qweyl.linalg import _prime_and_root, modular_rank, rank, vec_accumulate

FIELDS = {ell: CycField(ell) for ell in (3, 5)}
KEYS = range(8)
# a total order on KEYS unrelated to the integer order
KEY_ORDERS = [None, lambda k: ((3 * k) % 8, k)]
ORDER_IDS = ["default-order", "custom-order"]


def scalars(F):
    # sums of one or two terms a * q^k with small integer a
    term = st.builds(lambda a, k: F.scalar(a) * F.qpow(k),
                     st.integers(-3, 3), st.integers(0, F.ell - 1))
    return st.lists(term, min_size=1, max_size=2).map(lambda ts: sum(ts[1:], ts[0]))


def vectors(F, max_size=4):
    return st.dictionaries(st.sampled_from(KEYS), scalars(F), max_size=max_size).map(
        lambda v: {k: c for k, c in v.items() if c})


def vsum(a, b, c=1):
    return vec_accumulate(dict(a), ((k, c * v) for k, v in b.items()))


@st.composite
def field_and_vectors(draw, count=5):
    F = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    vecs = draw(st.lists(vectors(F), min_size=1, max_size=count))
    # a dependent vector, so adds that do not raise the rank occur too
    a, b = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
    vecs.insert(draw(st.integers(0, len(vecs))), vsum(a, b, draw(scalars(F))))
    return F, vecs


def naive_sum(items):
    out = {}
    for k, v in items:
        out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if v}


def build(F, vecs, key_order):
    span = SpanBasis(F, key_order=key_order)
    for v in vecs:
        span.add(v)
    return span


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_accumulate_drops_cancelled_keys_and_matches_naive_sum(data):
    F = FIELDS[data.draw(st.sampled_from(sorted(FIELDS)))]
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(KEYS), scalars(F)), max_size=8))
    # force exact cancellations by appending negatives of some terms
    undo = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    items = pairs + [(k, -v) for k, v in undo]
    start = data.draw(vectors(F))
    out = vec_accumulate(dict(start), iter(items))
    assert out == naive_sum(list(start.items()) + items)
    assert all(out.values())


@pytest.mark.parametrize("key_order", KEY_ORDERS, ids=ORDER_IDS)
@settings(max_examples=25, deadline=None)
@given(fv=field_and_vectors())
def test_rows_stay_fully_reduced_after_every_add(key_order, fv):
    F, vecs = fv
    key = key_order or (lambda k: k)
    span = SpanBasis(F, key_order=key_order)
    for v in vecs:
        span.add(v)
        pivots = span.pivots()
        for p in pivots:
            row = span.row(p)
            assert row[p] == F.one
            assert min(row, key=key) == p
            assert all(q not in row for q in pivots if q != p)
        assert span.rank == len(pivots)


@pytest.mark.parametrize("key_order", KEY_ORDERS, ids=ORDER_IDS)
@settings(max_examples=25, deadline=None)
@given(fv=field_and_vectors(), data=st.data())
def test_reduce_clears_pivots_and_is_linear(key_order, fv, data):
    F, vecs = fv
    span = build(F, vecs, key_order)
    a, b = data.draw(vectors(F, 6)), data.draw(vectors(F, 6))
    c = data.draw(scalars(F))
    ra, rb = span.reduce(a), span.reduce(b)
    assert not set(ra) & set(span.pivots())
    assert span.reduce(vsum(a, b, c)) == vsum(ra, rb, c)
    assert span.reduce(ra) == ra
    # a - reduce(a) lies in the span
    assert span.contains(vsum(a, ra, -1))


@pytest.mark.parametrize("key_order", KEY_ORDERS, ids=ORDER_IDS)
@settings(max_examples=25, deadline=None)
@given(fv=field_and_vectors())
def test_contains_every_added_vector(key_order, fv):
    F, vecs = fv
    span = build(F, vecs, key_order)
    assert all(span.contains(v) for v in vecs)
    assert span.rank < len(vecs)


@pytest.mark.parametrize("key_order", KEY_ORDERS, ids=ORDER_IDS)
@settings(max_examples=25, deadline=None)
@given(fv=field_and_vectors(), perm=st.randoms(use_true_random=False))
def test_rank_and_rows_do_not_depend_on_insertion_order(key_order, fv, perm):
    F, vecs = fv
    shuffled = list(vecs)
    perm.shuffle(shuffled)
    one, two = build(F, vecs, key_order), build(F, shuffled, key_order)
    assert one.rank == two.rank
    # reduced row echelon form is canonical
    assert one.rows() == two.rows()


@settings(max_examples=30, deadline=None)
@given(fv=field_and_vectors(count=6), perm=st.randoms(use_true_random=False))
def test_nullspace_solutions_annihilate_every_row(fv, perm):
    F, rows = fv
    unknowns = list(KEYS)
    perm.shuffle(unknowns)
    sols = nullspace(rows, unknowns, field=F)
    for sol in sols:
        for row in rows:
            total = F.zero
            for u, c in row.items():
                total = total + c * sol.get(u, F.zero)
            assert not total
    rank = build(F, rows, lambda k: unknowns.index(k)).rank
    assert len(sols) == len(unknowns) - rank
    # the solutions are independent
    assert build(F, sols, None).rank == len(sols)


@settings(max_examples=30, deadline=None)
@given(fv=field_and_vectors(count=6), perm=st.randoms(use_true_random=False))
def test_nullspace_solution_is_one_at_its_free_unknown_and_zero_at_the_others(fv, perm):
    F, rows = fv
    unknowns = list(KEYS)
    perm.shuffle(unknowns)
    sols = nullspace(rows, unknowns, field=F)
    pivots = set(build(F, rows, lambda k: unknowns.index(k)).pivots())
    free = [u for u in unknowns if u not in pivots]
    assert len(sols) == len(free)
    for u, sol in zip(free, sols):
        assert {v: sol[v] for v in free if v in sol} == {u: F.one}


# -- modular rank certificates ------------------------------------------------

def is_prime(m):
    """Miller-Rabin with the bases 2..37, deterministic for m < 3.3e24."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@pytest.mark.parametrize("ell", range(3, 50, 2))
def test_prime_and_root_of_unity(ell):
    # composite orders (9, 15, 21, 25, 27, 33, 35, 39, 45, 49) included
    p, z = _prime_and_root(ell)
    assert p > 2 ** 30 and p % ell == 1 and is_prime(p)
    assert not any(is_prime(m) for m in range(p - ell, 2 ** 30, -ell))  # the least such
    assert pow(z, ell, p) == 1
    assert all(pow(z, d, p) != 1 for d in range(1, ell) if ell % d == 0)
    # Phi_ell(z) = 0 mod p, so q -> z respects the relations of Q(q)
    assert sum(c * pow(z, i, p) for i, c in enumerate(cyclotomic_polynomial(ell))) % p == 0


def fraction_scalars(F):
    # sums of one or two terms (a / b) * q^k, b up to 4
    term = st.builds(lambda a, b, k: F.scalar(Fraction(a, b)) * F.qpow(k),
                     st.integers(-3, 3), st.integers(1, 4), st.integers(0, F.ell - 1))
    return st.lists(term, min_size=1, max_size=2).map(lambda ts: sum(ts[1:], ts[0]))


@st.composite
def sparse_vector_sets(draw):
    F = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    vec = st.dictionaries(st.sampled_from(KEYS), fraction_scalars(F), max_size=4).map(
        lambda v: {k: c for k, c in v.items() if c})
    vecs = draw(st.lists(vec, min_size=1, max_size=8))
    if draw(st.booleans()):
        # a dependent vector, so the modular rank falls short and rank falls back
        a, b = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
        vecs.append(vsum(a, b, draw(fraction_scalars(F))))
    return F, vecs


@settings(max_examples=60, deadline=None)
@given(fv=sparse_vector_sets())
def test_certified_rank_equals_the_span_rank(fv):
    F, vecs = fv
    span = build(F, vecs, None)
    assert rank(lambda: vecs, F, len(vecs)) == span.rank
    assert modular_rank(vecs, F) <= span.rank
    # the echelon rows are independent over Q(q); mod p they certify that here
    assert modular_rank(span.rows(), F) == rank(span.rows, F, span.rank) == span.rank


def dense_rank_mod_p(vecs, F):
    """Gauss-Jordan elimination over F_p on the dense matrix of the images."""
    p, z = _prime_and_root(F.ell)
    keys = sorted({k for v in vecs for k in v})

    def image(c):
        return sum(a * pow(z, i, p) for i, a in enumerate(c.num)) * pow(c.den, -1, p) % p

    rows = [[image(v[k]) if k in v else 0 for k in keys] for v in vecs]
    r = 0
    for col in range(len(keys)):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col] * inv % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_modular_rank_matches_dense_elimination_mod_p(data):
    # denser vectors and several dependent ones, so elimination fills in
    F = FIELDS[data.draw(st.sampled_from(sorted(FIELDS)))]
    vecs = data.draw(st.lists(vectors(F, 8), min_size=1, max_size=10))
    for _ in range(data.draw(st.integers(0, 3))):
        a, b = data.draw(st.sampled_from(vecs)), data.draw(st.sampled_from(vecs))
        vecs.append(vsum(a, b, data.draw(scalars(F))))
    data.draw(st.randoms(use_true_random=False)).shuffle(vecs)
    assert modular_rank(vecs, F) == dense_rank_mod_p(vecs, F)


@pytest.mark.parametrize("ell", [3, 5])
def test_entries_that_vanish_mod_p_fall_back(ell):
    F = CycField(ell)
    p, z = _prime_and_root(ell)
    # p and q - z are nonzero in Q(q) but vanish mod p
    for entry in (F.scalar(p), F.q - z):
        assert modular_rank([{0: entry}], F) == 0
        assert rank(lambda: [{0: entry}], F, 1) == 1
    assert modular_rank([{0: F.one, 1: F.scalar(p)}, {0: F.one}], F) == 1
    assert rank(lambda: [{0: F.one, 1: F.scalar(p)}, {0: F.one}], F, 2) == 2


@pytest.mark.parametrize("ell", [3, 5])
def test_a_denominator_divisible_by_p_gives_none(ell):
    F = CycField(ell)
    p, _ = _prime_and_root(ell)
    vecs = [{0: F.one}, {1: F.scalar(Fraction(1, p))}]
    assert modular_rank(vecs, F) is None
    assert rank(lambda: vecs, F, 2) == 2


def dependent_triple(F):
    """Three vectors on two keys, so rank 2 is a proven bound; the third is
    a Q(q)-combination of the first two."""
    return [{0: F.one, 1: F.q}, {1: F.scalar(3)}, {0: F.scalar(2), 1: F.q + F.one}]


def test_a_true_bound_is_certified_without_elimination(monkeypatch):
    F = FIELDS[5]

    def no_add(self, vec):
        raise AssertionError("SpanBasis.add called on a certified rank")

    monkeypatch.setattr(SpanBasis, "add", no_add)
    assert rank(lambda: dependent_triple(F), F, 2) == 2


def test_a_bound_above_the_rank_falls_back_to_the_exact_count(monkeypatch):
    F = FIELDS[5]
    adds = []
    add = SpanBasis.add

    def counting_add(self, vec):
        adds.append(vec)
        return add(self, vec)

    monkeypatch.setattr(SpanBasis, "add", counting_add)
    assert rank(lambda: dependent_triple(F), F, 3) == 2
    assert len(adds) == 3


def test_a_bound_below_the_rank_is_never_returned():
    F = FIELDS[3]
    vecs = [{0: F.one}, {1: F.q}, {0: F.one, 2: F.scalar(-2)}]
    assert rank(lambda: vecs, F, 2) == 3
    assert rank(lambda: vecs, F, 0) == 3
