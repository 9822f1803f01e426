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

from itertools import product as iproduct
from operator import mul
from typing import Iterator, Optional, Sequence

from .cyclotomic import CycField, CycScalar, power
from .lattice import TorusEmbedding
from .linalg import modular_rank, nullspace, vec_accumulate

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
        It vanishes by j = ell at the latest, as one of t, t-1, ..., t-ell+1
        is 0 mod ell, so only j < ell is read, and there the q-Lucas theorem
        (q^2 is a primitive ell-th root) gives [s j] = [s mod ell, j], which
        is 0 for s mod ell < j < ell.  So the Pascal table holds rows 0 to
        ell - 1 only, each in full: the table costs O(ell^2) once and each
        crossing O(ell), whatever a and b are.
        """
        out = self._crossings.get((a, b))
        if out is not None:
            return out
        F = self.field
        s, t = min(a, b), max(a, b)
        rows = self._pascal_rows
        while len(rows) <= min(s, F.ell - 1):  # [r k] = [r-1 k-1] + q^(2k) [r-1 k]
            prev = rows[-1]
            rows.append([F.one] + [prev[k - 1] + F.qpow(2 * k) * prev[k]
                                   for k in range(1, len(prev))] + [F.one])
        out = []
        falling = F.one
        for j, gauss in enumerate(rows[s % F.ell]):
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

    def multiply(self, a: "PBWElement", b: "PBWElement") -> "PBWElement":
        """a * b: the terms of each pair of monomials, accumulated into one dict."""
        if a.algebra is not self or b.algebra is not self:
            raise ValueError("operands belong to a different algebra")
        one = self.field.one
        right = [(m, k, None if c == one else c) for (m, k), c in b.terms.items()]
        left = [(m, k, None if c == one else c) for (m, k), c in a.terms.items()]
        return PBWElement(self, vec_accumulate({}, (
            term for m1, k1, c1 in left for m2, k2, c2 in right
            for term in self._mul_mono(m1, k1, c1, m2, k2, c2))))


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
        try:
            return self.algebra.scalar_element(other)
        except TypeError:  # CycField.scalar decides what is a scalar
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
        try:
            c = self.algebra.field.scalar(other)
        except TypeError:
            return NotImplemented
        if not c:
            return self.algebra.zero()
        return PBWElement(self.algebra, {k: c * v for k, v in self.terms.items()})

    __rmul__ = __mul__  # scalars are central, and a PBWElement never reaches __rmul__

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

    def is_central(self) -> bool:
        """[self, g] = 0 for every generator g: each row of commutator_rows
        over the element's keys, dotted with its coefficients, is 0."""
        terms, zero = self.terms, self.algebra.field.zero
        return not any(sum((terms[b] * c for b, c in row.items()), zero)
                       for row in commutator_rows(self.algebra, list(terms)))

    # -- display -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (m, k) in sorted(self.terms, reverse=True):
            word, cs = _word(m, k), str(self.terms[(m, k)])
            multi = (" + " in cs) or (" - " in cs)
            if not word:
                parts.append(f"({cs})" if multi else cs)
            elif cs == "1":
                parts.append(word)
            else:
                head = f"({cs})" if (multi or cs.startswith("-") or cs.startswith("(")) else cs
                parts.append(head + "*" + word)
        return " + ".join(parts)

    def __repr__(self):
        return f"<PBW {self}>"


def _word(m: Sequence[int], k: Sequence[int]) -> str:
    """The word of the key (m, k): its x's, then its d's; "" for the unit."""
    return "*".join(f"{g}{i}" if e == 1 else f"{g}{i}^{e}"
                    for g, es in (("x", m), ("d", k)) for i, e in enumerate(es, 1) if e)


class QmmResult:
    """The verdict of one quantum moment map identity and its exponent 2e;
    true when the identity holds."""

    __slots__ = ("ok", "exponent")

    def __init__(self, ok: bool, exponent: int):
        self.ok = ok
        self.exponent = exponent

    def __bool__(self):
        return self.ok


def _units(k: int) -> list[tuple[int, ...]]:
    return [tuple(int(i == j) for j in range(k)) for i in range(k)]


def verify_qmm(a: PBWElement, u: Sequence[int]) -> QmmResult:
    """Check alpha^u a = q^(2e) a alpha^u, e = u.s, for a of T-weight s.

    alpha^u = prod_i alpha_i^(u_i) with u in Z^n.  The moment map of T^n
    sends y^r to alpha^r, so h = y^r is u = r.  The moment map of the
    subtorus T^d is its pullback along the weight matrix M,
    mu(z_j) = prod_i alpha_i^(m_ij), so h = z^r is u = M r; its exponent
    r.(M^T s) is (M r).s = u.s, and one rule covers both.  Negative
    entries of u are handled by clearing denominators: with u = u+ - u-,
    the identity becomes A+ a A- = q^(2e) A- a A+, checked exactly in the
    PBW engine.
    """
    A = a.algebra
    s = a.t_degree()
    if s is None:
        raise ValueError("verify_qmm needs a T-homogeneous element")
    u = tuple(int(v) for v in u)
    if len(u) != A.n:
        raise ValueError("alpha exponents live in Z^n")
    e = sum(ui * si for ui, si in zip(u, s))
    plus = [A.alpha(i) for i, ui in enumerate(u, start=1) for _ in range(ui)]
    minus = [A.alpha(i) for i, ui in enumerate(u, start=1) for _ in range(-ui)]
    lhs = rhs = a  # A+ a A- and A- a A+, one alpha factor at a time (they commute)
    for f in minus:
        lhs, rhs = lhs * f, f * rhs
    for f in plus:
        lhs, rhs = f * lhs, rhs * f
    return QmmResult(ok=(lhs == A.field.qpow(2 * e) * rhs), exponent=2 * e)


def qmm_report(algebra: PBWAlgebra) -> dict:
    """The qmm-check report: verify_qmm for h = y_i, u the i-th unit vector
    of Z^n, then for h = z_j, u the j-th column of M, each against every
    generator.  y and z are only the labels of the entries."""
    M = algebra.emb.matrix
    hs = [(f"y{r}", r) for r in _units(algebra.n)]
    hs += [(f"z{r}", tuple(row[j] for row in M)) for j, r in enumerate(_units(algebra.emb.d))]
    targets = algebra.generators()
    checks = []
    for h, u in hs:
        for a in targets:
            res = verify_qmm(a, u)
            checks.append({"h": h, "target": str(a), "ok": res.ok, "exponent": res.exponent})
    return {"checks": checks, "ok": all(c["ok"] for c in checks)}


def commutator_rows(algebra: PBWAlgebra, keys: Sequence[MonoKey]) -> Iterator[dict]:
    """Yield one row per generator g and monomial of [b, g], b over keys; a solution is central.

    A generator: the rows of x_1, ..., x_n, then of d_1, ..., d_n, each
    generator's rows in the order their monomials first appear over keys.
    A generator's rows are computed only when the consumer asks for them.
    Each [b, g] is read off a closed form, with no PBW product.  Take
    b = x^m d^k, i the generator's index, P the pairings, e_i the i-th
    unit vector, and

        A = 2k_i + sum_{j>i} P[j][i] (m_j - k_j) + sum_{a<i} P[i][a] k_a,
        B = sum_{a<i} P[i][a] m_a,
        C = -sum_{j>i} P[j][i] k_j,    D = sum_{j>i} P[j][i] k_j,
        E = 2m_i + sum_{j>i} P[j][i] m_j - sum_{a<i} P[i][a] (m_a - k_a).

    Each is the exponent `_mul_mono` sums with one operand a generator:
    the two twists and the braid, less the twist of the result, plus the
    e_j of the one same-index crossing.  x_i b and b d_i cross nothing and
    are q^B and q^D times one monomial.  b x_i crosses d_i^(k_i) x_i
    (`_crossing(k_i, 1)`) into q^A x^(m+e_i) d^k + (q^(2k_i) - 1) q^C
    x^m d^(k-e_i), and d_i b crosses d_i x_i^(m_i) (`_crossing(1, m_i)`)
    into q^E x^m d^(k+e_i) + (q^(2m_i) - 1) q^(-B) x^(m-e_i) d^k.  So

        [b, x_i] = (q^A - q^B) x^(m+e_i) d^k + (q^(C+2k_i) - q^C) x^m d^(k-e_i),
        [b, d_i] = (q^D - q^E) x^m d^(k+e_i) + (q^(-B) - q^(2m_i-B)) x^(m-e_i) d^k.

    The lower term exists only when k_i > 0 (x_i) or m_i > 0 (d_i), and a
    term whose coefficient is 0 is dropped: q is primitive, so q^a - q^b is
    0 exactly when a = b (mod ell), decided on the residues.  The upper
    term comes first, the order b * g - g * b leaves them in, so the rows
    equal those of the general product item by item.  Each q^a - q^b is
    formed once per residue pair (a, b) mod ell.
    """
    F, n, P = algebra.field, algebra.n, algebra.pairings
    ell, qpow = F.ell, F.qpow
    diffs: dict[tuple[int, int], CycScalar] = {}

    def diff(a: int, b: int) -> Optional[CycScalar]:  # q^a - q^b, None where it is 0
        a, b = a % ell, b % ell
        if a == b:
            return None
        c = diffs.get((a, b))
        if c is None:
            c = diffs[a, b] = qpow(a) - qpow(b)
        return c

    def rows_of(i: int, on_x: bool):
        """The rows of x_{i+1} (on_x) or d_{i+1}, as dicts keyed by the keys."""
        # column i of P below the diagonal and row i left of it, 0 elsewhere;
        # the sums over one that is all 0 are 0 and are not formed
        after = [P[j][i] if j > i else 0 for j in range(n)]
        before = [P[i][a] if a < i else 0 for a in range(n)]
        sum_after, sum_before = any(after), any(before)
        per_key: dict = {}
        row_of = per_key.setdefault
        for mk in keys:
            m, k = mk
            mi, ki = m[i], k[i]
            Sm, Sk = (sum(map(mul, after, m)), sum(map(mul, after, k))) if sum_after else (0, 0)
            B, Bk = (sum(map(mul, before, m)), sum(map(mul, before, k))) if sum_before else (0, 0)
            if on_x:
                A, C = 2 * ki + Sm - Sk + Bk, -Sk
                c = diff(A, B)
                if c is not None:
                    row_of((m[:i] + (mi + 1,) + m[i + 1:], k), {})[mk] = c
                if ki:
                    c = diff(C + 2 * ki, C)
                    if c is not None:
                        row_of((m, k[:i] + (ki - 1,) + k[i + 1:]), {})[mk] = c
            else:
                D, E = Sk, 2 * mi + Sm - B + Bk
                c = diff(D, E)
                if c is not None:
                    row_of((m, k[:i] + (ki + 1,) + k[i + 1:]), {})[mk] = c
                if mi:
                    c = diff(-B, 2 * mi - B)
                    if c is not None:
                        row_of((m[:i] + (mi - 1,) + m[i + 1:], k), {})[mk] = c
        return per_key.values()

    for on_x in (True, False):
        for i in range(n):
            yield from rows_of(i, on_x)


def center_report(algebra: PBWAlgebra, max_degree: int) -> dict:
    """The center-check report: the central span of the x^m d^k with every
    exponent at most max_degree, against the span of their ell-th powers.

    Only the keys of central weight, m = k (mod ell), are solved for.  Write
    s = m - k for the T-weight of x^m d^k.  If alpha_i g = q^(2 s_i) g alpha_i
    for each generator g of weight s (verify_qmm(g, e_i), checked
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
    premise = all(verify_qmm(g, e) for g in algebra.generators() for e in _units(n))
    step = field.ell if premise else 1
    keys = [(m, k) for m in iproduct(range(max_degree + 1), repeat=n)
            for k in iproduct(*(range(e % step, max_degree + 1, step) for e in m))]
    powers = range(0, max_degree + 1, field.ell)
    expected = [(m, k) for m in iproduct(powers, repeat=n) for k in iproduct(powers, repeat=n)]
    # an expected key with a zero column in every row is in the kernel, and then
    # the rows live on the other keys: their rank is at most |keys| - |expected|;
    # the first expected key some row touches is the witness that it is not.
    # A row's entry at b depends on b and its generator alone, so the rows of
    # the expected keys are exactly the entries of all rows in those columns
    expected_set = set(expected)
    touched = {key for r in commutator_rows(algebra, expected) for key in r}
    witness = next((key for key in expected if key in touched), None)
    in_kernel = witness is None
    bound = len(keys) - len(expected) if in_kernel else len(keys)
    # rank mod p <= rank over Q(q) <= bound for every prefix of the rows, so
    # reaching bound on the rows read so far certifies it (see modular_rank);
    # otherwise one exact solve over all the rows gives the kernel itself
    certified = modular_rank(commutator_rows(algebra, keys), field, bound) == bound
    solutions = None if certified else nullspace(commutator_rows(algebra, keys), keys, field)
    dim = len(keys) - bound if solutions is None else len(solutions)
    # the kernel holds those unit vectors, so it is their span iff it has their number
    matches = in_kernel and dim == len(expected)
    report = {"max_degree": max_degree, "dimension": dim,
              "expected_dimension": len(expected),
              "matches_ell_power_span": matches,
              "basis": sorted(_word(*key) or "1" for key in expected) if matches else None,
              "ok": matches}
    if witness is not None:
        report["not_central"] = _word(*witness) or "1"
    elif not matches:
        # only the nullity is wrong, so the rank mod p missed the bound and the
        # exact solutions are at hand: name the first free unknown that is not
        # expected; each exact solution is 1 at its free unknown, the last key
        # it holds in the order of keys (rows are reduced, pivots come first)
        order = {key: i for i, key in enumerate(keys)}
        free = (max(v, key=order.__getitem__) for v in solutions)
        extra = next(u for u in free if u not in expected_set)
        report["extra_central"] = _word(*extra) or "1"
    return report
