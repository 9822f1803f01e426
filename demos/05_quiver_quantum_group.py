"""Cyclic quiver algebras and the rank-one quantum group on difference operators."""

from qweyl import (CycField, build_an_quiver_algebra, u1_operators,
                   verify_central_z, verify_u1_relations)

F = CycField(3)

A, table = build_an_quiver_algebra(F, 4)
print("4-vertex cycle: table verified:", all(table.values()))
print("pairing exponents:", {(i, j): A.pairings[i - 1][j - 1]
                             for i in range(1, 5) for j in range(i + 1, 5)})
print("x2*x1 =", A.x(2) * A.x(1))
print("d2*x1 =", A.d(2) * A.x(1))
print()

n = 2
Aop, Bop, Cop = u1_operators(F, n)
print(f"difference operators at n = {n}:")
print("  A t   ->", Aop.apply({1: F.one}))
print("  B t   ->", Bop.apply({1: F.one}))
print("  C t   ->", Cop.apply({1: F.one}))
print("  BC t  ->", (Bop * Cop).apply({1: F.one}))

report = verify_u1_relations(F, n)
print()
print("relations on k in", report["window"])
for name, entry in report["relations"].items():
    print(f"  {name}: {'ok' if entry['ok'] else entry['failures']}")

central = verify_central_z(F, n)
print()
print("ell-th powers: a = identity:", central["a_is_identity"],
      "| b shift:", central["b_shift"], "| c = 0:", central["c_is_zero"])
print("bc = (a-1)^n:", central["bc_equals_(a-1)^n"],
      "(both sides vanish:", central["mutual_vanishing"], ")")
