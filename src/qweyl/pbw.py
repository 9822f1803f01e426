"""PBW normal forms for the q-difference operator algebra on C^n.

Elements are stored in the ordered basis x^m d^k (all x's left of all
d's, indices ascending).  Multiplication reorders through exact closed
forms.  Cross-index crossings are pure scalars q^(pairing); the
same-index one is d^a x^b = sum_j q^(e_j) f_j x^(b-j) d^(a-j) with

    e_j = 2(a-j)(b-j),    f_j = [s j] prod_{i<j} (q^(2(t-i)) - 1),

s, t = min(a, b), max(a, b) and [s j] the Gaussian binomial at q^2.
The product is a polynomial in q, so no q-factorial is divided and the
formula holds where q^(2i) = 1.  A product of monomials sums all its
q-exponents as integers, reads q to that sum off the field's table, and
multiplies only by the coefficients and the f_j that are not 1 (f_0
always is).  Everything happens over Q(q) with q a primitive odd-order
root of unity, so central and root-of-unity phenomena are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Optional, Sequence

from .cyclotomic import CycField, CycScalar, power
from .lattice import TorusEmbedding
from .linalg import nullspace, rank, vec_accumulate

MonoKey = tuple[tuple[int, ...], tuple[int, ...]]


class PBWAlgebra:
    """D_q(C^n) for a fixed field Q(q) and torus weight data."""

    def __init__(self, field: CycField, emb: TorusEmbedding):
        self.field = field
        self.emb = emb
        self.n = emb.n
        self.pairings = emb.pairing_matrix()
        # (a, b) -> the triples (j, e_j, f_j or None) of d^a x^b, see _crossing
        self._crossings: dict[tuple[int, int], list[tuple[int, int, Optional[CycScalar]]]] = {}
        self._pascal_rows: list[list[CycScalar]] = [[field.one]]  # Gaussian binomials at q^2

    # -- construction ------------------------------------------------------

    def zero(self) -> "PBWElement":
        return PBWElement(self, {})

    def one(self) -> "PBWElement":
        return self.scalar_element(1)

    def scalar_element(self, c) -> "PBWElement":
        c = self.field.scalar(c)
        z = (0,) * self.n
        return PBWElement(self, {(z, z): c} if c else {})

    def monomial(self, m: Sequence[int], k: Sequence[int], coeff=1) -> "PBWElement":
        m, k = tuple(map(int, m)), tuple(map(int, k))
        if len(m) != self.n or len(k) != self.n:
            raise ValueError("exponent vectors must have length n")
        if any(e < 0 for e in m + k):
            raise ValueError("exponents must be nonnegative")
        c = self.field.scalar(coeff)
        return PBWElement(self, {(m, k): c} if c else {})

    def _check_index(self, i: int):
        if not (1 <= i <= self.n):
            raise IndexError(f"generator index {i} out of range 1..{self.n}")

    def x(self, i: int, e: int = 1) -> "PBWElement":
        self._check_index(i)
        m = [0] * self.n
        m[i - 1] = e
        return self.monomial(m, [0] * self.n)

    def d(self, i: int, e: int = 1) -> "PBWElement":
        self._check_index(i)
        k = [0] * self.n
        k[i - 1] = e
        return self.monomial([0] * self.n, k)

    def alpha(self, i: int) -> "PBWElement":
        """The Euler operator alpha_i = 1 + x_i d_i."""
        self._check_index(i)
        m = [0] * self.n
        m[i - 1] = 1
        return self.one() + self.monomial(m, m)

    def generators(self) -> list["PBWElement"]:
        """x_1, ..., x_n, then d_1, ..., d_n: the order reports list them in."""
        idx = range(1, self.n + 1)
        return [self.x(i) for i in idx] + [self.d(i) for i in idx]

    # -- the same-index crossing ---------------------------------------------

    def _crossing(self, a: int, b: int) -> list[tuple[int, int, Optional[CycScalar]]]:
        """Expansion d^a x^b = sum_j q^(e_j) f_j x^(b-j) d^(a-j), same index.

        Returns the triples (j, e_j, f_j) of the nonzero terms, with f_j
        None where it equals 1, as it always does at j = 0.  With
        s, t = min(a, b), max(a, b) and [s j] the Gaussian binomial at q^2,
        e_j = 2(a-j)(b-j) and f_j = [s j] prod_{i<j} (q^(2(t-i)) - 1).
        The falling product is [t j] prod_{i<=j} (q^(2i) - 1) as a
        polynomial in q, so nothing is divided and the formula stays
        exact where q^(2i) = 1; once it vanishes every later term does.
        """
        out = self._crossings.get((a, b))
        if out is not None:
            return out
        F = self.field
        s, t = min(a, b), max(a, b)
        rows = self._pascal_rows
        while len(rows) <= s:  # Pascal's rule [r k] = [r-1 k-1] + q^(2k) [r-1 k]
            prev = rows[-1]
            rows.append([F.one] + [prev[k - 1] + F.qpow(2 * k) * prev[k]
                                   for k in range(1, len(prev))] + [F.one])
        out = []
        falling = F.one
        for j, gauss in enumerate(rows[s]):
            if not falling:
                break
            f = gauss * falling
            if f:
                out.append((j, 2 * (a - j) * (b - j), None if f == F.one else f))
            falling = falling * (F.qpow(2 * (t - j)) - 1)
        self._crossings[(a, b)] = out
        return out

    # -- multiplication core -------------------------------------------------

    def _tensor_twist(self, m: tuple[int, ...], k: tuple[int, ...]) -> int:
        # exponent t with x^m d^k = q^t * (interleaved tensor monomial)
        P = self.pairings
        tot = 0
        for i in range(self.n):
            ki = k[i]
            if not ki:
                continue
            for j in range(i + 1, self.n):
                if m[j]:
                    tot -= P[j][i] * ki * m[j]
        return tot

    def _mul_mono(self, m1, k1, c1, m2, k2, c2):
        """The terms (key, coeff) of c1 x^m1 d^k1 * c2 x^m2 d^k2, keys may repeat.

        c1 and c2 are None for 1.  Each coefficient is one q-power, read
        off the summed exponents, times the factors that are not 1.
        """
        P = self.pairings
        n = self.n
        braid = 0
        for i in range(n):
            ti = m2[i] - k2[i]
            if not ti:
                continue
            for j in range(i + 1, n):
                braid += P[j][i] * (m1[j] - k1[j]) * ti
        e0 = self._tensor_twist(m1, k1) + self._tensor_twist(m2, k2) + braid
        qpow, one = self.field.qpow, self.field.one
        sum_m = [m1[i] + m2[i] for i in range(n)]
        sum_k = [k1[i] + k2[i] for i in range(n)]
        for choice in iproduct(*[self._crossing(k1[i], m2[i]) for i in range(n)]):
            rm = tuple(s - cr[0] for s, cr in zip(sum_m, choice))
            rk = tuple(s - cr[0] for s, cr in zip(sum_k, choice))
            e = e0 - self._tensor_twist(rm, rk)
            factors = [c1, c2]
            for _, ej, fj in choice:
                e += ej
                factors.append(fj)
            coeff = qpow(e)
            for f in factors:
                if f is not None:  # q^0 is the field's one itself: a lone factor is not multiplied
                    coeff = f if coeff is one else coeff * f
            yield (rm, rk), coeff

    def _terms(self, a: "PBWElement", b: "PBWElement"):
        """The terms of a * b, keys may repeat: the one stream of every product."""
        if a.algebra is not self or b.algebra is not self:
            raise ValueError("operands belong to a different algebra")
        one = self.field.one
        right = [(m, k, None if c == one else c) for (m, k), c in b.terms.items()]
        for (m1, k1), c1 in a.terms.items():
            c1 = None if c1 == one else c1
            for m2, k2, c2 in right:
                yield from self._mul_mono(m1, k1, c1, m2, k2, c2)

    def multiply(self, a: "PBWElement", b: "PBWElement") -> "PBWElement":
        return PBWElement(self, vec_accumulate({}, self._terms(a, b)))

    def commutator(self, a: "PBWElement", b: "PBWElement") -> "PBWElement":
        """a*b - b*a, both products accumulated into one dict."""
        out = vec_accumulate({}, self._terms(a, b))
        return PBWElement(self, vec_accumulate(out, ((key, -c) for key, c in self._terms(b, a))))


class PBWElement:
    """Linear combination of ordered monomials x^m d^k over Q(q)."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: PBWAlgebra, terms: dict[MonoKey, CycScalar]):
        self.algebra = algebra
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def _coerce(self, other) -> Optional["PBWElement"]:
        if isinstance(other, PBWElement):
            return other if other.algebra is self.algebra else None
        if isinstance(other, (int, Fraction, CycScalar)):
            return self.algebra.scalar_element(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PBWElement(self.algebra, vec_accumulate(dict(self.terms), o.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return PBWElement(self.algebra, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, PBWElement):
            return self.algebra.multiply(self, other)
        if isinstance(other, (int, Fraction, CycScalar)):
            c = self.algebra.field.scalar(other)
            if not c:
                return self.algebra.zero()
            return PBWElement(self.algebra, {k: c * v for k, v in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            return self * other
        return NotImplemented

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("only nonnegative integer powers are defined")
        return power(self, e, self.algebra.one())

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.terms.items())))

    # -- grading -----------------------------------------------------------

    def t_degree(self) -> Optional[tuple[int, ...]]:
        """Common T-weight m - k of all monomials, None if mixed."""
        n = self.algebra.n
        if not self.terms:
            return (0,) * n
        deg = None
        for (m, k) in self.terms:
            cur = tuple(m[i] - k[i] for i in range(n))
            if deg is None:
                deg = cur
            elif cur != deg:
                return None
        return deg

    def k_degree(self) -> Optional[tuple[int, ...]]:
        """Weight-lattice image of the T-weight, None if inhomogeneous."""
        s = self.t_degree()
        return None if s is None else self.algebra.emb.mdag_vec(s)

    def is_central(self) -> bool:
        A = self.algebra
        return not any(A.commutator(self, g) for g in A.generators())

    # -- display -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (m, k) in sorted(self.terms, reverse=True):
            c = self.terms[(m, k)]
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(f"x{i+1}")
                elif e:
                    factors.append(f"x{i+1}^{e}")
            for i, e in enumerate(k):
                if e == 1:
                    factors.append(f"d{i+1}")
                elif e:
                    factors.append(f"d{i+1}^{e}")
            cs = str(c)
            multi = (" + " in cs) or (" - " in cs)
            if not factors:
                parts.append(f"({cs})" if multi else cs)
            elif cs == "1":
                parts.append("*".join(factors))
            else:
                head = f"({cs})" if (multi or cs.startswith("-") or cs.startswith("(")) else cs
                parts.append(head + "*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<PBW {self}>"


@dataclass
class QmmResult:
    ok: bool
    exponent: int

    def __bool__(self):
        return self.ok


def verify_qmm(a: PBWElement, kind: str, r: Sequence[int]) -> QmmResult:
    """Check the quantum-moment-map identity for h = y^r or z^r against a.

    a must be T-homogeneous of weight s.  The action convention is
    y^r acting by q^{2 r.s} and z^r by pullback, so the claim is
    mu(h) a = q^{2e} a mu(h) with e the appropriate dot product.
    Negative entries of the alpha exponent are handled by clearing
    denominators: with u = u+ - u-, the identity becomes
    A+ a A- = q^{2e} A- a A+, checked exactly in the PBW engine.
    """
    A = a.algebra
    s = a.t_degree()
    if s is None:
        raise ValueError("verify_qmm needs a T-homogeneous element")
    r = tuple(int(v) for v in r)
    if kind == "y":
        if len(r) != A.n:
            raise ValueError("y exponents live in Z^n")
        u = r
        e = sum(r[i] * s[i] for i in range(A.n))
    elif kind == "z":
        if len(r) != A.emb.d:
            raise ValueError("z exponents live in Z^d")
        u = tuple(sum(A.emb.matrix[i][j] * r[j] for j in range(A.emb.d)) for i in range(A.n))
        ks = A.emb.mdag_vec(s)
        e = sum(r[j] * ks[j] for j in range(A.emb.d))
    else:
        raise ValueError("kind must be 'y' or 'z'")
    plus = [A.alpha(i) for i, ui in enumerate(u, start=1) for _ in range(ui)]
    minus = [A.alpha(i) for i, ui in enumerate(u, start=1) for _ in range(-ui)]
    lhs = rhs = a  # A+ a A- and A- a A+, one alpha factor at a time (they commute)
    for f in minus:
        lhs, rhs = lhs * f, f * rhs
    for f in plus:
        lhs, rhs = f * lhs, rhs * f
    return QmmResult(ok=(lhs == A.field.qpow(2 * e) * rhs), exponent=2 * e)


def qmm_report(algebra: PBWAlgebra) -> dict:
    """The qmm-check report: verify_qmm for h = y_i over the n unit vectors
    and h = z_j over the d unit vectors, each against every generator."""
    n, d = algebra.n, algebra.emb.d
    hs = [(kind, tuple(int(i == j) for j in range(k)))
          for kind, k in (("y", n), ("z", d)) for i in range(k)]
    targets = algebra.generators()
    checks = []
    for kind, r in hs:
        for a in targets:
            res = verify_qmm(a, kind, r)
            checks.append({"h": f"{kind}{r}", "target": str(a),
                           "ok": res.ok, "exponent": res.exponent})
    return {"checks": checks, "ok": all(c["ok"] for c in checks)}


def commutator_rows(algebra: PBWAlgebra, keys: Sequence[MonoKey]) -> list:
    """One row per generator g and monomial of [b, g], b over keys; a solution is central."""
    rows = []
    one = algebra.field.one
    monomials = [(mk, algebra.monomial(*mk, one)) for mk in keys]
    for gi, g in enumerate(algebra.generators()):
        per_key: dict = {}
        for mk, b in monomials:
            for out_key, c in algebra.commutator(b, g).terms.items():
                per_key.setdefault((gi, out_key), {})[mk] = c
        rows.extend(per_key.values())
    return rows


def center_report(algebra: PBWAlgebra, max_degree: int) -> dict:
    """The center-check report: the central span of the x^m d^k with every
    exponent at most max_degree, against the span of their ell-th powers.

    Only the keys of central weight, m = k (mod ell), are solved for.  Write
    s = m - k for the T-weight of x^m d^k.  If alpha_i g = q^(2 s_i) g alpha_i
    for each generator g of weight s (verify_qmm with h = y_i, checked
    exactly), the same holds for every x^m d^k, an ordered product of
    generators.  A central c = sum_b c_b b commutes with alpha_i = 1 + x_i d_i, so
    0 = alpha_i c - c alpha_i = (sum_b c_b (q^(2 s_i(b)) - 1) b) alpha_i.
    D is an iterated Ore extension, so a domain, and alpha_i != 0: every
    c_b with q^(2 s_i(b)) != 1 vanishes, and as q^2 has order ell, c lives
    on the keys with s in ell Z^n.  The system on those keys is the full one
    with the other unknowns set to 0, so it has the same kernel; it holds
    every expected x^(ell a) d^(ell b).  If the premise fails, every key is
    solved for.
    """
    field, n = algebra.field, algebra.n
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    premise = all(verify_qmm(g, "y", e) for g in algebra.generators() for e in units)
    step = field.ell if premise else 1
    keys = [(m, k) for m in iproduct(range(max_degree + 1), repeat=n)
            for k in iproduct(*(range(e % step, max_degree + 1, step) for e in m))]
    powers = range(0, max_degree + 1, field.ell)
    expected = [(m, k) for m in iproduct(powers, repeat=n) for k in iproduct(powers, repeat=n)]
    rows = commutator_rows(algebra, keys)
    # an expected key with a zero column in every row is in the kernel, and then
    # the rows live on the other keys: their rank is at most |keys| - |expected|;
    # the first expected key some row touches is the witness that it is not
    expected_set = set(expected)
    touched = expected_set.intersection(key for r in rows for key in r)
    witness = next((key for key in expected if key in touched), None)
    in_kernel = witness is None
    bound = len(keys) - len(expected) if in_kernel else len(keys)
    dim = len(keys) - rank(lambda: rows, field, bound)
    # the kernel holds those unit vectors, so it is their span iff it has their number
    matches = in_kernel and dim == len(expected)
    basis_strs = sorted(
        str(algebra.monomial(m, k)) for (m, k) in expected) if matches else None
    report = {"max_degree": max_degree, "dimension": dim,
              "expected_dimension": len(expected),
              "matches_ell_power_span": matches,
              "basis": basis_strs, "ok": matches}
    if witness is not None:
        report["not_central"] = str(algebra.monomial(*witness))
    elif not matches:
        # only the nullity is wrong: name the first free unknown that is not
        # expected; each exact solution is 1 at its free unknown, the last key
        # it holds in the order of keys (rows are reduced, pivots come first)
        order = {key: i for i, key in enumerate(keys)}
        free = (max(v, key=order.__getitem__) for v in nullspace(rows, keys, field))
        extra = next(u for u in free if u not in expected_set)
        report["extra_central"] = str(algebra.monomial(*extra))
    return report
