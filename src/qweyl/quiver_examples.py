"""Cyclic-quiver Weyl algebras and the rank-one quantum group U_1.

For the cyclic quiver on n vertices the q-Weyl relations specialize to
a uniform nearest-neighbor table; this module rebuilds that table from
the quiver embedding and checks it relation by relation.

U_1 has one model here: its difference-operator representation on
Laurent monomials, t^k -> c_k t^{k+shift}, stored as a DifferenceOperator,
the table of c_k over one period k mod ell.  C's scalars come from the
alternating binomial sum; the closed form q^s (q^{2k} - 1)^n appears
only on the right-hand sides of the central relations, which operator
arithmetic builds from A, so the relation check does not assume it.
The periodicity check compares C's formula at k + ell with its table
entry at k; that is what makes one period exact (A's entry q^(2k) is
periodic by construction, since qpow reduces its exponent mod ell).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .cyclotomic import CycField, CycScalar, power
from .lattice import QuiverData, quiver_to_embedding
from .linalg import vec_accumulate
from .pbw import PBWAlgebra


def cyclic_quiver(n: int) -> QuiverData:
    """n vertices, edge i running from vertex i to vertex i+1 mod n."""
    if n < 2:
        raise ValueError("a cyclic quiver needs at least 2 vertices")
    return QuiverData(num_vertices=n, edges=tuple((i, i % n + 1) for i in range(1, n + 1)))


def build_an_quiver_algebra(field: CycField, n: int) -> tuple[PBWAlgebra, Optional[dict]]:
    """The q-Weyl algebra of the cyclic quiver and its relation table.

    For n >= 3 every adjacent pair of edges meets in one vertex and
    pairs to -1, giving the table (stated with the smaller index on
    the right of each product, which is the one self-consistent
    orientation of the nearest-neighbor pattern):

        x_j x_i = q^-1 x_i x_j      d_j d_i = q^-1 d_i d_j
        d_j x_i = q x_i d_j         x_j d_i = q d_i x_j
        d_i x_i = q^2 x_i d_i + (q^2 - 1)

    for adjacent i < j, and all other pairs of generators commute.
    For n = 2 the two edges are doubly adjacent, the pairing is -2,
    and the pattern above does not apply: the table is None there.
    The table maps "family i j" (family xx, dd, dx or xd) and "euler i"
    to whether that relation holds.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    alg = PBWAlgebra(field, quiver_to_embedding(cyclic_quiver(n)))
    if n == 2:
        return alg, None
    q2 = field.qpow(2)
    table: dict = {}
    for i in range(1, n + 1):
        xi, di = alg.x(i), alg.d(i)
        table[f"euler {i}"] = di * xi == q2 * (xi * di) + alg.scalar_element(q2 - field.one)
        for j in range(i + 1, n + 1):
            xj, dj = alg.x(j), alg.d(j)
            e = -1 if j == i + 1 or (i == 1 and j == n) else 0  # edge pairing
            table[f"xx {i} {j}"] = xj * xi == field.qpow(e) * (xi * xj)
            table[f"dd {i} {j}"] = dj * di == field.qpow(e) * (di * dj)
            table[f"dx {i} {j}"] = dj * xi == field.qpow(-e) * (xi * dj)
            table[f"xd {i} {j}"] = xj * di == field.qpow(-e) * (di * xj)
    return alg, table


@dataclass(frozen=True)
class DifferenceOperator:
    """Operator t^k -> c_k t^{k+shift} with c periodic mod ell."""

    field: CycField
    shift: int
    scalars: tuple[CycScalar, ...]

    def __post_init__(self):
        if len(self.scalars) != self.field.ell:
            raise ValueError("need one scalar per residue mod ell")
        if self.shift != 0 and not any(self.scalars):
            object.__setattr__(self, "shift", 0)

    @classmethod
    def identity(cls, field: CycField) -> "DifferenceOperator":
        return cls(field, 0, (field.one,) * field.ell)

    def scalar_at(self, k: int) -> CycScalar:
        return self.scalars[k % self.field.ell]

    def is_zero(self) -> bool:
        return not any(self.scalars)

    def apply(self, f: dict) -> dict:
        """Push a Laurent polynomial {exponent: coefficient} through."""
        return vec_accumulate({}, ((k + self.shift, self.scalar_at(k) * v) for k, v in f.items()))

    def scale(self, c) -> "DifferenceOperator":
        c = self.field.scalar(c)
        return DifferenceOperator(self.field, self.shift, tuple(c * s for s in self.scalars))

    def __mul__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        # self applied after other
        sc = tuple(self.scalar_at(k + other.shift) * other.scalars[k]
                   for k in range(self.field.ell))
        return DifferenceOperator(self.field, self.shift + other.shift, sc)

    def __add__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.shift != other.shift:
            raise ValueError("cannot add difference operators of different shift")
        return DifferenceOperator(self.field, self.shift,
                                  tuple(a + b for a, b in zip(self.scalars, other.scalars)))

    def __sub__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        return self + DifferenceOperator(self.field, other.shift, tuple(-s for s in other.scalars))

    def __pow__(self, e: int) -> "DifferenceOperator":
        if e < 0:
            raise ValueError("negative powers are not defined here")
        return power(self, e, DifferenceOperator.identity(self.field))


def _lowering_scalar(field: CycField, n: int, k: int) -> CycScalar:
    """C's scalar on t^k: q^s sum_j (-1)^(n-j) C(n, j) q^(2jk), s = n(n-1)/2."""
    total = field.zero
    for j in range(n + 1):
        total = total + field.qpow(2 * j * k) * ((-1) ** (n - j) * comb(n, j))
    return field.qpow(n * (n - 1) // 2) * total


def u1_operators(field: CycField, n: int):
    """The standard representation: A twists by q^2, B multiplies by t,
    C lowers degree by the alternating binomial sum of _lowering_scalar."""
    if n < 2:
        raise ValueError("n must be at least 2")
    ell = field.ell
    A = DifferenceOperator(field, 0, tuple(field.qpow(2 * k) for k in range(ell)))
    B = DifferenceOperator(field, 1, (field.one,) * ell)
    C = DifferenceOperator(field, -1, tuple(_lowering_scalar(field, n, k) for k in range(ell)))
    return A, B, C


def verify_u1_relations(field: CycField, n: int) -> dict:
    """Check the four defining relations on t^k for k in [0, 2 ell).

    Both sides of each relation are difference operators; a k where
    both sides kill t^k is skipped.  The right-hand sides of the
    central relations are q^s (A - 1)^n and q^s (q^2 A - 1)^n, built by
    operator arithmetic, not from the closed form of C.
    """
    A, B, C = u1_operators(field, n)
    ell = field.ell
    qs = field.qpow(n * (n - 1) // 2)
    one = DifferenceOperator.identity(field)
    q2 = field.qpow(2)
    sides = {
        "AB = q^2 BA": (A * B, (B * A).scale(q2)),
        "AC = q^-2 CA": (A * C, (C * A).scale(field.qpow(-2))),
        "BC = q^(n(n-1)/2) (A - 1)^n": (B * C, ((A - one) ** n).scale(qs)),
        "CB = q^(n(n-1)/2) (q^2 A - 1)^n": (C * B, ((A.scale(q2) - one) ** n).scale(qs)),
    }
    relations: dict = {}
    for name, (lhs, rhs) in sides.items():
        failures = []
        for k in range(2 * ell):
            cl, cr = lhs.scalar_at(k), rhs.scalar_at(k)
            if not cl and not cr:
                continue  # both sides kill t^k; exponents are immaterial
            if lhs.shift != rhs.shift or cl != cr:
                failures.append({"k": k, "lhs": str(cl), "rhs": str(cr),
                                 "lhs_exponent": k + lhs.shift, "rhs_exponent": k + rhs.shift})
        relations[name] = {"ok": not failures, "failures": failures}
    periodic = all(_lowering_scalar(field, n, k + ell) == C.scalars[k] for k in range(ell))
    return {"n": n, "ell": ell, "window": [0, 2 * ell],
            "relations": relations, "periodicity": periodic,
            "all_ok": periodic and all(r["ok"] for r in relations.values())}


def verify_central_z(field: CycField, n: int) -> dict:
    """The ell-th powers a, b, c: centrality, and bc = (a - 1)^n.

    At a primitive ell-th root both sides of the central relation
    vanish identically: a is the identity operator, and the scalar of
    C^ell is a product over a full residue period so it always picks
    up a zero factor.  The report records each vanishing separately.
    """
    A, B, C = u1_operators(field, n)
    ell = field.ell
    a, b, c = A ** ell, B ** ell, C ** ell
    one = DifferenceOperator.identity(field)
    central = all(z * g == g * z for z in (a, b, c) for g in (A, B, C))
    bc = b * c
    rhs = (a - one) ** n
    report = {
        "n": n, "ell": ell,
        "a_is_identity": a == one,
        "b_is_nonzero": not b.is_zero(),
        "b_shift": b.shift,
        "c_is_zero": c.is_zero(),
        "central": central,
        "bc_equals_(a-1)^n": bc == rhs,
        "bc_is_zero": bc.is_zero(),
        "(a-1)^n_is_zero": rhs.is_zero(),
    }
    report["mutual_vanishing"] = report["bc_is_zero"] and report["(a-1)^n_is_zero"]
    report["all_ok"] = all(report[k] for k in
                           ("a_is_identity", "b_is_nonzero", "c_is_zero",
                            "central", "bc_equals_(a-1)^n", "mutual_vanishing"))
    return report


def quiver_suite_report(field: CycField, n: int) -> dict:
    """The quiver-suite report: the pairing exponents q_ij of the n-cycle,
    its relation table (None at n = 2, where it does not bind the verdict),
    and the U_1 relation and central-value checks."""
    alg, table = build_an_quiver_algebra(field, n)
    u1 = verify_u1_relations(field, n)
    central = verify_central_z(field, n)
    return {"n": n,
            "pairing_exponents": {f"{i},{j}": alg.emb.qij_exponent(i - 1, j - 1)
                                  for i in range(1, n + 1) for j in range(i + 1, n + 1)},
            "table": table,
            "u1_relations": u1, "central_z": central,
            "ok": (table is None or all(table.values())) and u1["all_ok"] and central["all_ok"]}
