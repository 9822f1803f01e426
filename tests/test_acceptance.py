"""End-to-end acceptance checks with runtime budgets.

Each check prints one verdict line.  Everything is exact arithmetic in
the cyclotomic field; there are no tolerances anywhere.
"""

import time
from collections import Counter
from itertools import product as iproduct

from qweyl import (CycField, FiberPoint, Matrix, PBWAlgebra, TorusEmbedding,
                   build_an_quiver_algebra, full_matrix_rep, hamiltonian_reduce,
                   quiver_to_embedding, rank1_matrix_rep, verify_central_z,
                   verify_u1_relations)
from qweyl.fiber import alpha_images
from qweyl.lattice import QuiverData
from qweyl.linalg import SpanBasis, nullspace
from qweyl.pbw import center_report, qmm_report
from qweyl.quiver_examples import quiver_suite_report
from qweyl.reduction import row_weights

from braided import braided_product, placed, untwist
from splitting import FiberAlgebra, endo_splitting_check


def emb_rank1():
    return TorusEmbedding(n=1, d=1, matrix=((1,),), form=((2,),))


def emb_pair():
    return TorusEmbedding(n=2, d=1, matrix=((1,), (1,)), form=((2,),))


def emb_cyclic3():
    return quiver_to_embedding(QuiverData(num_vertices=3, edges=((1, 2), (2, 3), (3, 1))))


def verdict(num: int, name: str, ok: bool):
    print(f"criterion {num} ({name}): {'pass' if ok else 'fail'}")
    assert ok, f"criterion {num} ({name}) failed"


LOCUS_TEST_POINTS = [
    # (c, w, gamma) over ell = 3, all with 1 + c*w != 0
    (0, 0, 1),
    (8, 0, 1),
    (7, 1, 2),
]


def test_criterion_1_euler_power_identity():
    t0 = time.perf_counter()
    ok = True
    for ell in (3, 5, 7):
        A = PBWAlgebra(CycField(ell), emb_rank1())
        lhs = A.alpha(1) ** ell
        rhs = A.one() + A.monomial((ell,), (ell,))
        ok = ok and lhs == rhs
    elapsed = time.perf_counter() - t0
    verdict(1, "euler power identity", ok and elapsed < 1.0)


def test_criterion_2_center_oracle():
    t0 = time.perf_counter()
    A = PBWAlgebra(CycField(3), emb_rank1())
    F = A.field
    deg = 6
    keys = [((a,), (b,)) for a in range(deg + 1) for b in range(deg + 1)]
    rows = []
    for g in (A.x(1), A.d(1)):
        per_key: dict = {}
        for mk in keys:
            comm = A.monomial(*mk) * g - g * A.monomial(*mk)
            for out_key, c in comm.terms.items():
                per_key.setdefault((str(g), out_key), {})[mk] = c
        rows.extend(per_key.values())
    centralizer = SpanBasis(F)
    for v in nullspace(rows, keys, field=F):
        centralizer.add(v)
    expected = SpanBasis(F)
    for a in (0, 3, 6):
        for b in (0, 3, 6):
            expected.add({((a,), (b,)): F.one})
    ok = (centralizer.rank == expected.rank == 9
          and all(centralizer.contains(r) for r in expected.rows())
          and all(expected.contains(r) for r in centralizer.rows()))
    elapsed = time.perf_counter() - t0
    verdict(2, "center oracle", ok and elapsed < 5.0)


def test_criterion_3_fiber_matrix_model():
    F = CycField(3)
    q2 = F.qpow(2)
    I = Matrix.identity(F, 3)
    ok = True
    for c, w, gamma in LOCUS_TEST_POINTS:
        t0 = time.perf_counter()
        rep = rank1_matrix_rep(F, c, w, gamma)
        (X,), (D,), (Al,) = rep.x, rep.d, alpha_images(rep)
        residual = D * X - (X * D).scale(q2) - I.scale(q2 - F.one)
        ok = ok and not residual.entries
        g = F.scalar(gamma)
        diag_ok = (all(r == s for (r, s) in Al.entries)
                   and all(Al[(r, r)] == g * F.qpow(-2 * r) for r in range(3)))
        span = SpanBasis(F)
        for a in range(3):
            for e in range(3):
                span.add(dict(((X ** a) * (D ** e)).entries))
        elapsed = time.perf_counter() - t0
        ok = ok and diag_ok and span.rank == 9 and elapsed < 1.0
    verdict(3, "fiber matrix model", ok)


def test_criterion_4_non_locus_obstruction():
    t0 = time.perf_counter()
    F = CycField(3)
    A = PBWAlgebra(F, emb_rank1())
    p = FiberPoint(field=F, lam=((F.scalar(-1), F.one),), gamma=(F.zero,))
    fib = FiberAlgebra(A, p)
    ideal = fib.two_sided_ideal([fib.alpha(1)])
    ok = 0 < ideal.rank < fib.dimension()
    elapsed = time.perf_counter() - t0
    verdict(4, "non-locus obstruction", ok and elapsed < 1.0)


def test_criterion_5_untwisting_isomorphism():
    t0 = time.perf_counter()
    F = CycField(3)
    emb = emb_pair()
    size = 9
    units = [Matrix(F, size, {(r, c): F.one})
             for r in range(size) for c in range(size)]
    # braided product in, plain product out, on every pair of units
    ok = all(untwist(braided_product(u, v, emb), emb) == untwist(u, emb) * untwist(v, emb)
             for u in units for v in units)
    # each unit goes to a nonzero multiple q^e of itself, so untwist is invertible
    ok = ok and all(any(untwist(u, emb) == u.scale(F.qpow(e)) for e in range(3))
                    for u in units)
    # the package's model is that map applied to the plain Kronecker placement
    point = FiberPoint(field=F, lam=((F.zero, F.zero), (F.scalar(7), F.one)),
                       gamma=(F.one, F.scalar(2)))
    local = [rank1_matrix_rep(F, c, w, g) for (c, w), g in zip(point.lam, point.gamma)]
    rep = full_matrix_rep(point, emb)
    ok = ok and all(rep.x[i] == untwist(placed(r.x[0], i, 2), emb)
                    and rep.d[i] == untwist(placed(r.d[0], i, 2), emb)
                    for i, r in enumerate(local))
    elapsed = time.perf_counter() - t0
    verdict(5, "untwisting isomorphism", ok and elapsed < 10.0)


def test_criterion_6_block_decomposition_and_reduction():
    t0 = time.perf_counter()
    F = CycField(3)
    emb = emb_pair()
    # the weights of the 9 rows fall into 3 grading blocks of 3
    ok = sorted(Counter(row_weights(emb, 3)).values()) == [3, 3, 3]
    p = FiberPoint(field=F, lam=((F.zero, F.zero), (F.zero, F.zero)),
                   gamma=(F.one, F.one))
    res = hamiltonian_reduce(p, emb, (F.one,))
    ok = ok and res == {
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
    elapsed = time.perf_counter() - t0
    verdict(6, "block decomposition and reduction", ok and elapsed < 5.0)


def test_criterion_7_fiberwise_splitting():
    t0 = time.perf_counter()
    F = CycField(3)
    A = PBWAlgebra(F, emb_rank1())
    ok = True
    for c, w, gamma in LOCUS_TEST_POINTS:
        p = FiberPoint(field=F, lam=((F.scalar(c), F.scalar(w)),),
                       gamma=(F.scalar(gamma),))
        ok = ok and endo_splitting_check(A, p)
    # also a unit gamma, where the module basis mixes x and d powers
    p = FiberPoint(field=F, lam=((F.zero, F.zero),), gamma=(F.qpow(2),))
    ok = ok and endo_splitting_check(A, p)
    elapsed = time.perf_counter() - t0
    verdict(7, "fiberwise splitting", ok and elapsed < 2.0)


def test_criterion_8_quiver_suite():
    t0 = time.perf_counter()
    F = CycField(3)
    # the four-vertex cycle: every relation family checked symbol for symbol
    A, table = build_an_quiver_algebra(F, 4)
    q, qi, q2 = F.q, F.qpow(-1), F.qpow(2)
    ok = all(table.values()) and quiver_suite_report(F, 4)["ok"]
    for i in range(1, 5):
        xi, di = A.x(i), A.d(i)
        ok = ok and di * xi == q2 * (xi * di) + A.scalar_element(q2 - F.one)
        for j in range(i + 1, 5):
            xj, dj = A.x(j), A.d(j)
            if j == i + 1 or (i == 1 and j == 4):
                ok = ok and xj * xi == qi * (xi * xj)
                ok = ok and dj * di == qi * (di * dj)
                ok = ok and dj * xi == q * (xi * dj)
                ok = ok and xj * di == q * (di * xj)
            else:
                ok = ok and xj * xi == xi * xj
                ok = ok and dj * di == di * dj
                ok = ok and dj * xi == xi * dj
                ok = ok and xj * di == di * xj
    for n in (2, 3):
        for ell in (3, 5):
            rep = verify_u1_relations(CycField(ell), n)
            ok = ok and rep["all_ok"]
    central = verify_central_z(F, 2)
    ok = ok and central["all_ok"] and central["mutual_vanishing"]
    elapsed = time.perf_counter() - t0
    verdict(8, "quiver suite", ok and elapsed < 2.0)


def test_criterion_9_quantum_moment_map():
    t0 = time.perf_counter()
    ok = True
    for emb in (emb_rank1(), emb_pair(), emb_cyclic3()):
        report = qmm_report(PBWAlgebra(CycField(3), emb))
        # every unit y_i and z_j against each of the 2n generators
        ok = ok and report["ok"] and len(report["checks"]) == (emb.n + emb.d) * 2 * emb.n
    elapsed = time.perf_counter() - t0
    verdict(9, "quantum moment map identity", ok and elapsed < 1.0)


def test_criterion_10_center_check_at_n3():
    # 4096 monomials x^m d^k with exponents <= 3 in three variables; the
    # center is the span of the 64 with every exponent 0 or 3
    t0 = time.perf_counter()
    report = center_report(PBWAlgebra(CycField(3), emb_cyclic3()), 3)
    ok = report["ok"] and report["dimension"] == report["expected_dimension"] == 64
    elapsed = time.perf_counter() - t0
    verdict(10, "center check at n = 3", ok and elapsed < 1.0)
