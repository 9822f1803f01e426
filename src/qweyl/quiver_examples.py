"""Cyclic-quiver Weyl algebras and the rank-one quantum group U_1.

For the cyclic quiver on n vertices the q-Weyl relations specialize to
a uniform nearest-neighbor table; this module rebuilds that table from
the quiver embedding and checks it relation by relation.  U_1 itself
is handled through its difference-operator representation on Laurent
monomials: t^k goes to c_k t^{k+s} with the scalar sequence periodic
mod ell, so identities checked on one period (plus a second window as
a cross-check) are conclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .cyclotomic import CycField, CycScalar
from .lattice import QuiverData, TorusEmbedding, quiver_to_embedding
from .linalg import vec_accumulate
from .pbw import PBWAlgebra


def cyclic_quiver(n: int) -> QuiverData:
    """n vertices, edge i running from vertex i to vertex i+1 mod n."""
    if n < 2:
        raise ValueError("a cyclic quiver needs at least 2 vertices")
    return QuiverData(num_vertices=n, edges=tuple((i, i % n + 1) for i in range(1, n + 1)))


@dataclass(frozen=True)
class AnQuiverAlgebra:
    n: int
    embedding: TorusEmbedding
    algebra: PBWAlgebra
    pairing_exponents: dict
    table: Optional[dict]

    @property
    def table_verified(self) -> bool:
        return self.table is not None and all(self.table.values())


def build_an_quiver_algebra(field: CycField, n: int) -> AnQuiverAlgebra:
    """The q-Weyl algebra of the cyclic quiver, with its relation table.

    For n >= 3 every adjacent pair of edges meets in one vertex and
    pairs to -1, giving the table (stated with the smaller index on
    the right of each product, which is the one self-consistent
    orientation of the nearest-neighbor pattern):

        x_j x_i = q^-1 x_i x_j      d_j d_i = q^-1 d_i d_j
        d_j x_i = q x_i d_j         x_j d_i = q d_i x_j
        d_i x_i = q^2 x_i d_i + (q^2 - 1)

    for adjacent i < j, and all other pairs of generators commute.
    For n = 2 the two edges are doubly adjacent, the pairing is -2,
    and the pattern above does not apply; the computed pairing is
    reported without asserting a table.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    emb = quiver_to_embedding(cyclic_quiver(n))
    alg = PBWAlgebra(field, emb)
    q = field.q
    qi = field.qpow(-1)
    q2 = field.qpow(2)
    pairings = {(i, j): emb.qij_exponent(i - 1, j - 1)
                for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    if n == 2:
        return AnQuiverAlgebra(n=n, embedding=emb, algebra=alg,
                               pairing_exponents=pairings, table=None)

    def adjacent(i: int, j: int) -> bool:
        return j == i + 1 or (i == 1 and j == n)

    table: dict = {}
    for i in range(1, n + 1):
        xi, di = alg.x(i), alg.d(i)
        table[("euler", i)] = di * xi == q2 * (xi * di) + alg.scalar_element(q2 - field.one)
        for j in range(i + 1, n + 1):
            xj, dj = alg.x(j), alg.d(j)
            if adjacent(i, j):
                table[("xx", i, j)] = xj * xi == qi * (xi * xj)
                table[("dd", i, j)] = dj * di == qi * (di * dj)
                table[("dx", i, j)] = dj * xi == q * (xi * dj)
                table[("xd", i, j)] = xj * di == q * (di * xj)
            else:
                table[("xx", i, j)] = xj * xi == xi * xj
                table[("dd", i, j)] = dj * di == di * dj
                table[("dx", i, j)] = dj * xi == xi * dj
                table[("xd", i, j)] = xj * di == di * xj
    return AnQuiverAlgebra(n=n, embedding=emb, algebra=alg,
                           pairing_exponents=pairings, table=table)


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

    @classmethod
    def zero(cls, field: CycField) -> "DifferenceOperator":
        return cls(field, 0, (field.zero,) * field.ell)

    def scalar_at(self, k: int) -> CycScalar:
        return self.scalars[k % self.field.ell]

    def is_zero(self) -> bool:
        return not any(self.scalars)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def apply(self, f: dict) -> dict:
        """Push a Laurent polynomial {exponent: coefficient} through."""
        return vec_accumulate({}, ((k + self.shift, self.scalar_at(k) * v) for k, v in f.items()))

    def scale(self, c) -> "DifferenceOperator":
        c = self.field.scalar(c)
        return DifferenceOperator(self.field, self.shift, tuple(c * s for s in self.scalars))

    def __mul__(self, other):
        if isinstance(other, DifferenceOperator):
            # self applied after other
            ell = self.field.ell
            sc = tuple(self.scalar_at(k + other.shift) * other.scalars[k] for k in range(ell))
            return DifferenceOperator(self.field, self.shift + other.shift, sc)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

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
        return self + other.scale(-1)

    def __pow__(self, e: int) -> "DifferenceOperator":
        if e < 0:
            raise ValueError("negative powers are not defined here")
        out = DifferenceOperator.identity(self.field)
        for _ in range(e):
            out = out * self
        return out


def u1_operators(field: CycField, n: int):
    """The standard representation: A twists by q^2, B multiplies by t,
    C lowers degree with scalar q^{n(n-1)/2} (q^{2k} - 1)^n."""
    if n < 2:
        raise ValueError("n must be at least 2")
    ell = field.ell
    s = n * (n - 1) // 2
    A = DifferenceOperator(field, 0, tuple(field.qpow(2 * k) for k in range(ell)))
    B = DifferenceOperator(field, 1, (field.one,) * ell)
    C = DifferenceOperator(field, -1,
                           tuple(field.qpow(s) * (field.qpow(2 * k) - field.one) ** n
                                 for k in range(ell)))
    return A, B, C


def _raw_apply(field: CycField, n: int, name: str, k: int):
    """One generator applied to t^k straight from the action formulas.

    C is evaluated as the alternating binomial sum, not its closed
    form, so this path is independent of u1_operators.
    """
    if name == "A":
        return k, field.qpow(2 * k)
    if name == "B":
        return k + 1, field.one
    s = n * (n - 1) // 2
    total = field.zero
    for j in range(n + 1):
        term = field.qpow(2 * j * k) * ((-1) ** (n - j) * comb(n, j))
        total = total + term
    return k - 1, field.qpow(s) * total


def _raw_word(field: CycField, n: int, word: str, k: int):
    """Apply a word of generators right-to-left to t^k; (exponent, scalar)."""
    scalar = field.one
    for name in reversed(word):
        k, c = _raw_apply(field, n, name, k)
        scalar = scalar * c
    return k, scalar


def verify_u1_relations(field: CycField, n: int, window=None) -> dict:
    """Check the four defining relations on every monomial in the window.

    Both sides are evaluated through the raw action formulas.  The
    default window [0, 2 ell) covers one full period twice, so
    agreement there is conclusive and doubles as a periodicity check.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    ell = field.ell
    if window is None:
        window = range(0, 2 * ell)
    s = n * (n - 1) // 2
    qs = field.qpow(s)
    relations: dict = {}

    def diagonal_poly(k: int, a_scale: CycScalar) -> CycScalar:
        # (a_scale * A - 1)^n applied to t^k, which stays diagonal
        return (a_scale * field.qpow(2 * k) - field.one) ** n

    checks = {
        "AB = q^2 BA": lambda k: (_raw_word(field, n, "AB", k),
                                  _scaled(_raw_word(field, n, "BA", k), field.qpow(2))),
        "AC = q^-2 CA": lambda k: (_raw_word(field, n, "AC", k),
                                   _scaled(_raw_word(field, n, "CA", k), field.qpow(-2))),
        "BC = q^(n(n-1)/2) (A - 1)^n": lambda k: (
            _raw_word(field, n, "BC", k),
            (k, qs * diagonal_poly(k, field.one))),
        "CB = q^(n(n-1)/2) (q^2 A - 1)^n": lambda k: (
            _raw_word(field, n, "CB", k),
            (k, qs * diagonal_poly(k, field.qpow(2)))),
    }
    for name, side_pair in checks.items():
        failures = []
        for k in window:
            (kl, cl), (kr, cr) = side_pair(k)
            if not cl and not cr:
                continue  # both sides kill t^k; exponents are immaterial
            if kl != kr or cl != cr:
                failures.append({"k": k, "lhs": str(cl), "rhs": str(cr),
                                 "lhs_exponent": kl, "rhs_exponent": kr})
        relations[name] = {"ok": not failures, "failures": failures}
    periodic = all(
        _raw_word(field, n, w, k)[1] == _raw_word(field, n, w, k + ell)[1]
        for w in ("AB", "AC", "BC", "CB") for k in range(ell))
    return {"n": n, "ell": ell, "window": [min(window), max(window) + 1],
            "relations": relations, "periodicity": periodic,
            "all_ok": periodic and all(r["ok"] for r in relations.values())}


def _scaled(pair, c):
    k, v = pair
    return k, c * v


def verify_central_z(field: CycField, n: int) -> dict:
    """The ell-th powers a, b, c: centrality, and bc = (a - 1)^n.

    At a primitive ell-th root both sides of the central relation
    vanish identically: a is the identity operator, and the scalar of
    C^ell is a product over a full residue period so it always picks
    up a zero factor.  The report records each vanishing separately.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    ell = field.ell
    A, B, C = u1_operators(field, n)
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
