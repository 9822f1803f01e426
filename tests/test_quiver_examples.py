"""Cyclic quiver algebras and the difference-operator realization."""

import math

import pytest

from qweyl import (CycField, DifferenceOperator, build_an_quiver_algebra,
                   cyclic_quiver, u1_operators, verify_central_z,
                   verify_u1_relations)
from qweyl import quiver_examples
from qweyl.quiver_examples import quiver_suite_report


# -- the nearest-neighbor relation table --------------------------------------

def test_cyclic_quiver_data():
    Q = cyclic_quiver(4)
    assert Q.num_vertices == 4
    assert Q.edges == ((1, 2), (2, 3), (3, 4), (4, 1))


@pytest.mark.parametrize("ell", [3, 5])
@pytest.mark.parametrize("n", [3, 4])
def test_an_table_holds(n, ell):
    _, table = build_an_quiver_algebra(CycField(ell), n)
    # 4 mixed entries per unordered pair plus one Euler entry per index
    assert len(table) == 4 * n * (n - 1) // 2 + n
    assert all(table.values())
    report = quiver_suite_report(CycField(ell), n)
    assert report["ok"]
    assert report["table"] == table
    # adjacent pairs pair to -1, the rest to 0, one entry per pair i < j
    assert len(report["pairing_exponents"]) == n * (n - 1) // 2
    for key, e in report["pairing_exponents"].items():
        i, j = map(int, key.split(","))
        touching = j == i + 1 or (i == 1 and j == n)
        assert e == (-1 if touching else 0)


def test_doubled_edges_at_n2():
    A, table = build_an_quiver_algebra(CycField(3), 2)
    assert table is None
    # the one n = 2 rule: no table, and the verdict rests on the other checks
    report = quiver_suite_report(CycField(3), 2)
    assert report["table"] is None and report["ok"]
    assert report["pairing_exponents"] == {"1,2": -2}
    # the doubled pairing still gives honest relations in the algebra
    x1, x2 = A.x(1), A.x(2)
    assert x2 * x1 == A.field.qpow(-2) * (x1 * x2)


def test_a_failed_table_entry_fails_the_report(monkeypatch):
    # where the table exists it binds the verdict, entry by entry
    build = quiver_examples.build_an_quiver_algebra

    def broken(field, n):
        alg, table = build(field, n)
        return alg, {**table, "xx 1 2": False}

    monkeypatch.setattr(quiver_examples, "build_an_quiver_algebra", broken)
    report = quiver_suite_report(CycField(3), 3)
    assert report["table"]["xx 1 2"] is False
    assert report["u1_relations"]["all_ok"] and report["central_z"]["all_ok"]
    assert not report["ok"]


def test_quiver_rank_bounds():
    with pytest.raises(ValueError):
        build_an_quiver_algebra(CycField(3), 1)
    with pytest.raises(ValueError):
        u1_operators(CycField(3), 1)


# -- difference operators -------------------------------------------------------

def test_difference_operator_apply_and_compose():
    F = CycField(3)
    A, B, C = u1_operators(F, 2)
    # B is plain multiplication by t
    assert B.apply({4: F.one}) == {5: F.one}
    # A twists: t^k -> q^(2k) t^k, periodically in k
    assert A.apply({1: F.one}) == {1: F.qpow(2)}
    assert A.apply({4: F.one}) == {4: F.qpow(2)}
    # composition law: scalar c_{k + shift'} c'_k, shifts add
    D = A * B
    assert D.shift == 1
    for k in range(3):
        assert D.scalars[k] == A.scalar_at(k + 1) * B.scalars[k]
    # composition agrees with applying one after the other
    for k in range(6):
        f = {k: F.qpow(k)}
        assert D.apply(f) == A.apply(B.apply(f))


def test_difference_operator_sum_rules():
    F = CycField(5)
    A, B, C = u1_operators(F, 3)
    with pytest.raises(ValueError):
        A + B  # shifts 0 and 1
    z = A - A
    assert (B + z) == B and (z + B) == B
    assert z.is_zero()
    # a vanishing operator forgets its shift, so sums with it stay legal
    killed = C * C * C * C * C  # C^ell has a zero factor in every scalar
    assert killed.is_zero() and killed.shift == 0
    assert (A + killed) == A


def test_difference_operator_powers():
    F = CycField(3)
    A, B, C = u1_operators(F, 2)
    assert (B ** 3).shift == 3
    assert (A ** 0) == DifferenceOperator.identity(F)
    with pytest.raises(ValueError):
        A ** -1


def test_lowering_scalar_closed_form():
    # the alternating binomial sum collapses to q^s (q^(2k) - 1)^n
    for ell in (3, 5):
        F = CycField(ell)
        for n in (2, 3):
            _, _, C = u1_operators(F, n)
            s = n * (n - 1) // 2
            for k in range(3 * ell):
                total = F.zero
                for j in range(n + 1):
                    total = total + F.qpow(2 * j * k) * ((-1) ** (n - j) * math.comb(n, j))
                closed = F.qpow(s) * (F.qpow(2 * k) - F.one) ** n
                assert F.qpow(s) * total == closed
                assert C.scalar_at(k) == closed


# -- the quantum group relations ------------------------------------------------

@pytest.mark.parametrize("ell", [3, 5])
@pytest.mark.parametrize("n", [2, 3])
def test_u1_relations_hold(n, ell):
    report = verify_u1_relations(CycField(ell), n)
    assert report["all_ok"]
    assert report["periodicity"]
    assert set(report["relations"]) == {
        "AB = q^2 BA", "AC = q^-2 CA",
        "BC = q^(n(n-1)/2) (A - 1)^n", "CB = q^(n(n-1)/2) (q^2 A - 1)^n"}
    for entry in report["relations"].values():
        assert entry["ok"] and entry["failures"] == []


def test_u1_relation_failures_are_reported(monkeypatch):
    # C scaled by q breaks both central relations, and each failure is
    # a structured entry naming the monomial and both sides
    F = CycField(5)
    lowering = quiver_examples._lowering_scalar
    monkeypatch.setattr(quiver_examples, "_lowering_scalar",
                        lambda field, n, k: field.q * lowering(field, n, k))
    report = verify_u1_relations(F, 2)
    assert not report["all_ok"]
    central = ["BC = q^(n(n-1)/2) (A - 1)^n", "CB = q^(n(n-1)/2) (q^2 A - 1)^n"]
    for name in central:
        entry = report["relations"][name]
        assert not entry["ok"] and entry["failures"]
        for failure in entry["failures"]:
            assert set(failure) == {"k", "lhs", "rhs", "lhs_exponent", "rhs_exponent"}
            assert failure["lhs"] != failure["rhs"]


def test_u1_periodicity_failure_is_reported(monkeypatch):
    # a lowering formula that is not periodic mod ell fails `periodicity`
    F = CycField(5)
    lowering = quiver_examples._lowering_scalar
    monkeypatch.setattr(quiver_examples, "_lowering_scalar",
                        lambda field, n, k: (k + 1) * lowering(field, n, k))
    report = verify_u1_relations(F, 2)
    assert not report["periodicity"] and not report["all_ok"]


def test_bc_instance_value():
    # BC t = q (q^2 - 1)^2 t and CB 1 = q (q^2 - 1)^2 1 at n = 2, ell = 3
    F = CycField(3)
    A, B, C = u1_operators(F, 2)
    expect = F.qpow(1) * (F.qpow(2) - F.one) ** 2
    assert (B * C).apply({1: F.one}) == {1: expect}
    assert (C * B).apply({0: F.one}) == {0: expect}


def test_difference_operator_difference_scales_nothing(monkeypatch):
    F = CycField(3)
    A = DifferenceOperator(F, 1, (F.one, F.qpow(2), F.scalar(3)))
    B = DifferenceOperator(F, 1, (F.one, F.zero, F.scalar(5)))
    monkeypatch.setattr(DifferenceOperator, "scale", None)  # a difference multiplies no scalar
    assert A - B == DifferenceOperator(F, 1, (F.zero, F.qpow(2), F.scalar(-2)))
    assert (A - A).is_zero() and (A - A).shift == 0


@pytest.mark.parametrize("ell", [3, 5])
def test_central_subalgebra(ell):
    report = verify_central_z(CycField(ell), 2)
    assert report["all_ok"]
    assert report["a_is_identity"]
    assert report["b_is_nonzero"] and report["b_shift"] == ell
    assert report["c_is_zero"]
    assert report["central"]
    assert report["bc_equals_(a-1)^n"]
    assert report["mutual_vanishing"]
    # the central relation holds because both sides vanish
    assert report["bc_is_zero"] and report["(a-1)^n_is_zero"]
