"""Central reductions of the operator algebra and their matrix models.

At a central character the algebra collapses to dimension ell^(2n);
on the locus where every 1 + lambda_i lambda_iv is nonzero it is a
full matrix algebra.  This module builds the central characters, the
n-factor model (the rank-one ell x ell model at n = 1) and its fiber-rep
report.

The n-factor model is the braided tensor product of the rank-one models,
untwisted to the plain product.  Each image is one Kronecker product of
ell x ell slots, first factor fastest:

    x_i = I (x) ... (x) I (x) X (x) Z^(t_(i+1)) (x) ... (x) Z^(t_(n-1)),

X the rank-one x in slot i, Z = diag(q^r) and t_j = (b - a) P_ji the
twist exponent of an entry (a, b) of X (_twist, the one twist rule); d_i
likewise with D.  full_matrix_rep writes the images out on their ell^n
rows, with one power of q per placed block, for reduce; slot_rep keeps
the slots (SlotImage), and fiber_rep_report decides on them.

Each check on the slots certifies or expands.  Products are taken slot by
slot.  Two images are proven equal only when both vanish, or when their
slots have the same columns, are proportional and the scalars match
(SlotImage.proves_equal).  A sum is a slot image only when its terms agree
outside one slot.  Whatever the slots cannot certify is decided by the
dense rule on the expansion of that one check, so every verdict and
witness is the dense model's.  The row graph of the generation
certificate is the Cartesian product of the ell-vertex slot graphs when
every image is a full diagonal with no zero entry outside its own slot, so
it is strongly connected exactly when each slot graph is (unreached_row).
A passing report builds no matrix of more than ell rows.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import add, mul
from typing import Optional

from .cyclotomic import CycField, CycScalar, power
from .lattice import Frozen, TorusEmbedding
from .pbw import PBWAlgebra


class OutsideAzumayaLocus(ValueError):
    """Raised when a construction needs 1 + c_i w_i != 0 and it vanishes."""


# ---------------------------------------------------------------------------
# weighted partial permutations over the cyclotomic field


class Matrix:
    """Square matrix over Q(q) with at most one nonzero entry per row: a
    weighted partial permutation, held in two row arrays.  Row r holds
    vals[r] in column cols[r], or nothing when both are None.

    Every image in the matrix model is of this kind: x_i and d_i are
    weighted shifts of one digit, and so is every product of them.  A
    product of two nonzero scalars is never zero, so a product is one pass
    over the rows.  A sum is defined where each row's two entries share
    their column or one of them is empty; a sum that would put two columns
    in one row raises ValueError, as does an entries dict with two entries
    in one row.
    """

    __slots__ = ("field", "size", "cols", "vals")

    def __init__(self, field: CycField, size: int, entries: Optional[dict] = None):
        cols, vals = [None] * size, [None] * size
        for (r, c), v in (entries or {}).items():
            if not v:
                continue
            if not (0 <= r < size and 0 <= c < size):
                raise ValueError(f"entry ({r}, {c}) lies outside a {size}x{size} matrix")
            if cols[r] is not None:
                raise ValueError(f"row {r} has two entries")
            cols[r], vals[r] = c, v
        self.field, self.size, self.cols, self.vals = field, size, tuple(cols), tuple(vals)

    @classmethod
    def _rows(cls, field: CycField, cols: tuple, vals: tuple) -> "Matrix":
        """The matrix of the row arrays as given: no zero check, no copy."""
        out = cls.__new__(cls)
        out.field, out.size, out.cols, out.vals = field, len(cols), cols, vals
        return out

    @classmethod
    def identity(cls, field: CycField, size: int) -> "Matrix":
        return cls._rows(field, tuple(range(size)), (field.one,) * size)

    @property
    def entries(self) -> dict:
        """The nonzero entries as a fresh {(r, c): value} dict."""
        return {(r, c): v for r, (c, v) in enumerate(zip(self.cols, self.vals)) if c is not None}

    def __getitem__(self, rc):
        r, c = rc
        return self.vals[r] if self.cols[r] == c else self.field.zero

    def __add__(self, other):
        return self._plus(other, other.vals)

    def __sub__(self, other):
        return self._plus(other, tuple(None if v is None else -v for v in other.vals))

    def _plus(self, other: "Matrix", other_vals: tuple) -> "Matrix":
        if other.size != self.size:
            raise ValueError("size mismatch")
        cols, vals = list(self.cols), list(self.vals)
        for r, (c, v) in enumerate(zip(other.cols, other_vals)):
            if c is None:
                continue
            if cols[r] is None:
                cols[r], vals[r] = c, v
            elif cols[r] != c:
                raise ValueError(f"the sum puts columns {cols[r]} and {c} in row {r}")
            elif s := vals[r] + v:
                vals[r] = s
            else:
                cols[r] = vals[r] = None
        return Matrix._rows(self.field, tuple(cols), tuple(vals))

    def scale(self, c) -> "Matrix":
        c = self.field.scalar(c)
        if not c:
            return Matrix(self.field, self.size)
        return Matrix._rows(self.field, self.cols, tuple(None if v is None else c * v for v in self.vals))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if other.size != self.size:
            raise ValueError("size mismatch")
        ocols, ovals = other.cols, other.vals
        cols = tuple([None if c is None else ocols[c] for c in self.cols])
        vals = tuple([None if c2 is None else v * ovals[c]
                      for c, c2, v in zip(self.cols, cols, self.vals)])
        return Matrix._rows(self.field, cols, vals)

    def __pow__(self, e: int):
        return power(self, e, Matrix.identity(self.field, self.size))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.size == other.size and self.cols == other.cols and self.vals == other.vals

    def __repr__(self):
        return f"<Matrix {self.size}x{self.size}, {self.size - self.cols.count(None)} nonzero>"


def digits(idx: int, ell: int, n: int) -> tuple[int, ...]:
    """Mixed-radix digits of idx, first factor fastest."""
    out = []
    for _ in range(n):
        out.append(idx % ell)
        idx //= ell
    return tuple(out)


# ---------------------------------------------------------------------------
# fiber points


class FiberPoint(Frozen):
    """A central character: values (c_i, w_i) of x_i^ell, d_i^ell, plus roots.

    gamma_i must satisfy gamma_i^ell = 1 + c_i w_i exactly.  Immutable.
    """

    __slots__ = ("field", "lam", "gamma")

    def __init__(self, field: CycField, lam, gamma):
        F = field
        lam = tuple((F.scalar(c), F.scalar(w)) for c, w in lam)
        gamma = tuple(F.scalar(g) for g in gamma)
        if len(gamma) != len(lam):
            raise ValueError("one gamma per coordinate pair")
        ell = F.ell
        for i, ((c, w), g) in enumerate(zip(lam, gamma)):
            if g ** ell != F.one + c * w:
                raise ValueError(f"gamma_{i+1}^{ell} != 1 + c*w")
        self._freeze(field=F, lam=lam, gamma=gamma)

    @property
    def n(self) -> int:
        return len(self.lam)

    def in_azumaya_locus(self) -> bool:
        F = self.field
        return all(bool(F.one + c * w) for c, w in self.lam)


# ---------------------------------------------------------------------------
# the n-factor model: dense rows for reduce, Kronecker slots for fiber-rep


class FullRep(Frozen):
    """The n-factor matrix model: images x_i, d_i in Mat(ell^n), either all
    dense Matrix rows (full_matrix_rep) or all SlotImage slots (slot_rep).
    It holds its images only: its field and size are read off x_1.
    Immutable."""

    __slots__ = ("x", "d")

    def __init__(self, x: tuple, d: tuple):
        self._freeze(x=x, d=d)

    @property
    def field(self) -> CycField:
        return self.x[0].field

    @property
    def size(self) -> int:
        return self.x[0].size


class SlotImage:
    """An element of Mat(ell^n) held as scalar times the Kronecker product of
    n ell x ell slot matrices: slot j acts on digit j of the row index
    (first factor fastest, see digits), so the entry at (r, c) is scalar
    times the product of the slot entries at (r_j, c_j).

    Products and powers are taken slot by slot.  A sum is a slot image only
    where its terms agree outside one slot; any other sum raises ValueError,
    as a Matrix sum with two columns in one row does.  There is no __eq__:
    proves_equal proves equality or declines, and dense writes the image
    out.  Only nonzero entries count, so a zero scalar or a slot with no
    nonzero entry makes the image vanish.
    """

    __slots__ = ("field", "size", "scalar", "slots")

    def __init__(self, scalar: CycScalar, slots: tuple):
        self.field, self.size = scalar.field, slots[0].size ** len(slots)
        self.scalar, self.slots = scalar, slots

    def __mul__(self, other: "SlotImage") -> "SlotImage":
        return SlotImage(self.scalar * other.scalar, tuple(map(mul, self.slots, other.slots)))

    def __pow__(self, e: int) -> "SlotImage":
        return SlotImage(self.scalar ** e, tuple(s ** e for s in self.slots))

    def __add__(self, other: "SlotImage") -> "SlotImage":
        if self.vanishes():
            return other
        if other.vanishes():
            return self
        apart = [j for j, (a, b) in enumerate(zip(self.slots, other.slots)) if a != b]
        if len(apart) > 1:
            raise ValueError(f"the terms differ in slots {apart[0]} and {apart[1]}: no slot image")
        j = apart[0] if apart else 0
        slots = list(self.slots)
        slots[j] = self.slots[j].scale(self.scalar) + other.slots[j].scale(other.scalar)
        return SlotImage(self.field.one, tuple(slots))

    def vanishes(self) -> bool:
        """Whether the image is zero: a zero scalar or a slot with no nonzero entry."""
        return not self.scalar or not all(any(s.vals) for s in self.slots)

    def proves_equal(self, other: "SlotImage") -> bool:
        """True only when self and other are one matrix; False proves nothing.

        Either both vanish, or each slot pair a, b has the same cols and is
        proportional, a_s fb = b_s fa on every row s with fa and fb the first
        nonzero values of a and b, and scalar * prod fa = other.scalar *
        prod fb.  Then b = (fb / fa) a in every slot, so other is
        other.scalar * prod (fb / fa) times the Kronecker product of the
        slots of self, which is self.  An equal pair of slots adds fa = fb.
        """
        if self.vanishes() or other.vanishes():
            return self.vanishes() and other.vanishes()
        lhs, rhs = self.scalar, other.scalar
        for a, b in zip(self.slots, other.slots):
            if a == b:
                continue
            if a.cols != b.cols:
                return False
            fa, fb = next(filter(None, a.vals)), next(filter(None, b.vals))
            if any(va is not None and va * fb != vb * fa for va, vb in zip(a.vals, b.vals)):
                return False
            lhs, rhs = lhs * fa, rhs * fb
        return lhs == rhs

    def dense(self) -> Matrix:
        """The image written out on its ell^n rows, each entry the scalar
        times one entry of each slot; a row with a zero or empty factor is
        empty.  Only a check that the slots cannot certify expands."""
        cols, vals, step = [0], [self.scalar], 1
        for slot in self.slots:
            cols, vals = zip(*[(c + sc * step, v * sv) if v and sv else (None, None)
                               for sc, sv in zip(slot.cols, slot.vals)
                               for c, v in zip(cols, vals)])
            step *= slot.size
        return Matrix._rows(self.field, cols, vals)


def _rank1_entries(F: CycField, c: CycScalar, w: CycScalar, gamma: CycScalar) -> tuple[list, list]:
    """The nonzero entries (row, col, value) of x and of d in the ell x ell
    model at one factor (c, w, gamma) of a point on the locus.

    Row r carries the alpha eigenvalue gamma q^(-2r); x lowers the row index
    (cyclically) and d raises it, with delta_r xi_(r+1) = gamma q^(-2r) - 1
    on every row, prod xi = c and prod delta = w.  One seam rule gives all
    three: xi = 1 and delta_r = gamma q^(-2r) - 1 but at the seam row t,
    where xi_(t+1) = c and delta_t is divided by c (c != 0, t = ell - 1) or
    is w / ell (c = 0: row t reads 0 = gamma q^(-2t) - 1, so it still holds).
    For odd ell, prod_r (gamma q^(-2r) - 1) = gamma^ell - 1 = c w, so c != 0
    gives prod delta = w.  At c = 0, gamma^ell = 1 makes gamma a power of
    q^-2, so exactly one delta_t is 0 (delta.index finds it) and the other
    ell - 1 multiply to prod_(u=1)^(ell-1) (zeta^u - 1) = ell.  The alpha
    image is read off by alpha_images, so a check of its diagonal tests it.
    """
    ell = F.ell
    xi = [F.one] * ell  # x e_s = xi_s e_{s-1 mod ell}
    delta = [gamma * F.qpow(-2 * r) - 1 for r in range(ell)]  # d e_r = delta_r e_{r+1 mod ell}
    t = ell - 1 if c else delta.index(F.zero)  # the seam row
    xi[(t + 1) % ell] = c
    delta[t] = delta[t] / c if c else w / ell
    return ([((s - 1) % ell, s, v) for s, v in enumerate(xi) if v],
            [((r + 1) % ell, r, v) for r, v in enumerate(delta) if v])


def _twist(P, i: int, a: int, b: int) -> list[int]:
    """The twist exponents t_j = (b - a) P_ji, j > i, of an entry (a, b) of
    the factor-i rank-one x or d: untwisting scales it, placed in a row
    with digits r_j, by q^(sum_j t_j r_j) (see full_matrix_rep)."""
    return [(b - a) * P[j][i] for j in range(i + 1, len(P))]


def _rank1_models(point: FiberPoint, emb: TorusEmbedding) -> tuple:
    """The pairing matrix of emb and the rank-one entries of each factor of
    point; the rank and locus checks raise before anything is built."""
    if emb.n != point.n:
        raise ValueError("embedding rank differs from point rank")
    if not point.in_azumaya_locus():
        raise OutsideAzumayaLocus("point has 1 + c_i w_i = 0")
    F = point.field
    return emb.pairing_matrix(), [_rank1_entries(F, c, w, g)
                                  for (c, w), g in zip(point.lam, point.gamma)]


def full_matrix_rep(point: FiberPoint, emb: TorusEmbedding) -> FullRep:
    """Assemble the n-factor model on its ell^n rows from the rank-one
    models (_rank1_entries) in one pass; at n = 1 it is the rank-one model
    itself.

    The braided tensor product places the factor-i rank-one matrix G in
    slot i, and untwisting it to the plain product scales the elementary
    matrix E_rc by q^(-tau(r, c)), tau(r, c) = sum_{i<j} (r_i - c_i) P_ji r_j,
    with r, c the digits of row and column (first factor fastest) and P the
    pairing matrix.  A placed entry (r, c) of G changes digit i only, from
    c_i = b to r_i = a, so the entry is G_ab q^(sum_{j>i} t_j r_j) with the
    twist exponents t_j = (b - a) P_ji of _twist.  As x moves its digit by
    b - a = 1 mod ell on every entry and d by -1, x_i = I (x) ... (x) X (x)
    Z^(P_{i+1,i}) (x) ... (x) Z^(P_{n,i}) with Z = diag(q^r), and d_i uses the
    inverse powers of Z: the slots of slot_rep.  As the twist reads only the
    digits j > i, each block is twisted once, then copied to ell^i bases.
    """
    F = point.field
    P, local = _rank1_models(point, emb)
    ell = F.ell
    n = point.n
    size = ell ** n

    def place(i: int, entries: list) -> Matrix:
        step, cols, vals = ell ** i, [None] * size, [None] * size
        for a, b, v in entries:
            # sum_j t_j r_j at each value `high` of the digits j > i, as digits orders them
            twists = [0]
            for t in _twist(P, i, a, b):
                twists = [e + t * r for r in range(ell) for e in twists]
            for high, e in enumerate(twists):  # the ell^i bases below `high` share the block
                row, col = (high * ell + a) * step, (high * ell + b) * step
                cols[row:row + step] = range(col, col + step)
                vals[row:row + step] = (v * F.qpow(e),) * step
        return Matrix._rows(F, tuple(cols), tuple(vals))

    return FullRep(x=tuple(place(i, x) for i, (x, _) in enumerate(local)),
                   d=tuple(place(i, d) for i, (_, d) in enumerate(local)))


def slot_rep(point: FiberPoint, emb: TorusEmbedding) -> FullRep:
    """The model of full_matrix_rep held as Kronecker slots: the image of
    x_i is I in each slot j < i, the rank-one X in slot i and the twist
    diagonal diag(q^(t_j r)) in each slot j > i, t_j the twist exponents of
    X's entries (_twist); d_i likewise.  It builds no matrix of more than
    ell rows.  A Kronecker product needs one twist per slot: an X whose
    entries give two twists mod ell raises ValueError (the rank-one x and d
    move their digit by 1 and -1 mod ell on every entry, so it never does).
    """
    F = point.field
    P, local = _rank1_models(point, emb)
    ell, n = F.ell, point.n
    one = Matrix.identity(F, ell)

    def image(i: int, entries: list) -> SlotImage:
        twists = {tuple(t % ell for t in _twist(P, i, a, b)) for a, b, _ in entries}
        if len(twists) > 1:
            raise ValueError(f"factor {i + 1} has entries of two twists: no Kronecker product")
        twist = twists.pop() if twists else (0,) * (n - i - 1)
        diagonals = tuple(Matrix._rows(F, one.cols, tuple(F.qpow(t * r) for r in range(ell)))
                          for t in twist)
        slot = Matrix(F, ell, {(a, b): v for a, b, v in entries})
        return SlotImage(F.one, (one,) * i + (slot,) + diagonals)

    return FullRep(x=tuple(image(i, x) for i, (x, _) in enumerate(local)),
                   d=tuple(image(i, d) for i, (_, d) in enumerate(local)))


def unreached_row(rep: FullRep) -> Optional[int]:
    """Condition (c) of the generation certificate of fiber_rep_report, on
    the slot model rep: the graph on the ell^n rows with an edge c -> r for
    each nonzero entry (r, c) of some rep.x or rep.d is strongly connected.
    None when it is, else the least row outside the strongly connected
    component of row 0.  Only a graph search is used: no rank and no
    reduction mod p.

    Lemma.  Let each image of x_i and d_i have a nonzero scalar and a full
    diagonal with no zero entry in every slot j != i.  Then the row graph is
    the Cartesian product of the slot graphs G_i on range(ell), G_i with an
    edge c -> r for each nonzero entry (r, c) of slot i of x_i or of d_i,
    and it is strongly connected exactly when every G_i is.  Proof.  The
    entry (r, c) of x_i is nonzero exactly when slot i has a nonzero entry
    at (r_i, c_i) and every other slot j one at (r_j, c_j), that is
    c_j = r_j; so the edges of x_i and d_i move digit i along an edge of
    G_i and keep the others, and those are the edges of the product.  If
    every G_i is strongly connected, a row reaches any other by moving one
    digit at a time along a path of its G_i.  If some G_i has no path from
    u to v, digit i of a path in the product walks along edges of G_i, so
    no row with digit i = u reaches one with digit i = v.

    The premise is checked, never assumed.  When it fails, or some G_i is
    not strongly connected, the search runs on the expanded images, and
    the least unreached row is read off their cols.
    """
    ell, diagonal = rep.field.ell, tuple(range(rep.field.ell))
    factors = list(enumerate(zip(rep.x, rep.d)))
    premise = all(g.scalar and all(s.cols == diagonal and all(s.vals)
                                   for j, s in enumerate(g.slots) if j != i)
                  for i, images in factors for g in images)
    if premise and all(_unreached(ell, [g.slots[i] for g in images]) is None
                       for i, images in factors):
        return None
    return _unreached(rep.size, [g.dense() for g in rep.x + rep.d])


def _unreached(size: int, images: list) -> Optional[int]:
    """None when the graph on range(size) with an edge c -> r for each
    nonzero entry (r, c) of the matrices images is strongly connected, else
    the least vertex outside the strongly connected component of 0."""
    forward: list[list[int]] = [[] for _ in range(size)]
    backward: list[list[int]] = [[] for _ in range(size)]
    for G in images:
        for r, (c, v) in enumerate(zip(G.cols, G.vals)):
            if v:
                forward[c].append(r)
                backward[r].append(c)

    def reached(edges: list) -> set:
        seen, stack = {0}, [0]
        while stack:
            for v in edges[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    component = reached(forward) & reached(backward)
    return None if len(component) == size else min(set(range(size)) - component)


def alpha_images(rep: FullRep) -> list:
    """The images I + x_i d_i of the Euler operators alpha_i = 1 + x_i d_i,
    of the kind of rep's images (x_1^0 is the identity of that kind); None
    for a sum that is none of that kind: a dense image with two entries in
    a row, as a model whose x_i d_i leaves the diagonal has, or slot images
    that differ in two slots."""
    one, out = rep.x[0] ** 0, []
    for x, d in zip(rep.x, rep.d):
        try:
            out.append(one + x * d)
        except ValueError:
            out.append(None)
    return out


def _alpha_holds(rep: FullRep, i: int, alpha: Optional[SlotImage], gamma: CycScalar) -> bool:
    """Condition (b) at factor i of the slot model rep: its alpha image
    (alpha_images) is diag(gamma q^(-2 r_i)), r_i digit i of row r.  Proven
    on the slots, or else decided by the dense rule, on the expansions of
    x_i and d_i alone."""
    F, ell, n = rep.field, rep.field.ell, len(rep.x)
    slots = [Matrix.identity(F, ell)] * n
    slots[i] = Matrix._rows(F, slots[i].cols, tuple(gamma * F.qpow(-2 * r) for r in range(ell)))
    want = SlotImage(F.one, tuple(slots))
    if alpha is not None and alpha.proves_equal(want):
        return True
    (alpha,) = alpha_images(FullRep(x=(rep.x[i].dense(),), d=(rep.d[i].dense(),)))
    return alpha is not None and alpha == want.dense()


def presentation_failure(rep: FullRep, point: FiberPoint, algebra: PBWAlgebra) -> Optional[dict]:
    """None when the generator images of the slot model rep satisfy the
    relations that present D_lambda, else the first failing one and the
    least entry (r, c) of its residual lhs - rhs.

    The relations are g_a g_b = (its PBW normal form) for the generators
    g = x_1..x_n, d_1..d_n, and x_i^ell = c_i I, d_i^ell = w_i I.  Only the
    n(2n - 1) pairs with a > b are checked: x_j x_i and d_j d_i with j > i,
    and every d_j x_i.  The others (x_i x_j with i <= j, every x_i d_j, and
    d_i d_j with i <= j) are in PBW order, and a term c x^m d^k maps to the
    ordered product c X(m) D(k) of the images (_term_image), so they map to
    the product of their images by construction: checking them tests
    nothing.

    Each relation is certified or expanded.  Its left-hand side is a
    product or power of slot images, and its right-hand side the sum of its
    term images, one term but for d_i x_i = q^2 x_i d_i + (q^2 - 1), whose
    two terms agree outside slot i.  When proves_equal proves the two
    sides equal, the relation holds; otherwise it is decided by the dense
    rule on that relation alone: the residual of the expanded sides, whose
    least entry is the witness.
    """
    gens, images = algebra.generators(), rep.x + rep.d
    n, ell = algebra.n, rep.field.ell
    # each left-hand side is named by its parts, joined only for a failure
    pairs = (((gens[a], "*", gens[b]), gens[a] * gens[b], images[a] * images[b])
             for a in range(2 * n) for b in range(a))
    central = (((g, "^", ell), algebra.scalar_element(point.lam[a % n][a // n]), images[a] ** ell)
               for a, g in enumerate(gens))
    for lhs, rhs, image in chain(pairs, central):
        terms = [_term_image(rep, m, k, c) for (m, k), c in rhs.terms.items()]
        try:
            holds = image.proves_equal(reduce(add, terms)) if terms else image.vanishes()
        except ValueError:  # the terms differ in two slots, or their sum in two columns of a row
            holds = False
        residual = {} if holds else _residual(image.dense(), [t.dense() for t in terms])
        if residual:
            entry = min(residual)
            return {"relation": f"{''.join(map(str, lhs))} = {rhs}", "entry": list(entry),
                    "residual": str(residual[entry])}
    return None


def _term_image(rep: FullRep, m: tuple, k: tuple, c: CycScalar) -> SlotImage:
    """The image c x_1^m_1 ... x_n^m_n d_1^k_1 ... d_n^k_n of a PBW term: an
    ordered product of the images, so the PBW order is kept and no
    commutation is assumed."""
    factors = [g for g, e in zip(rep.x + rep.d, m + k) for _ in range(e)]
    word = reduce(mul, factors) if factors else rep.x[0] ** 0
    return SlotImage(c * word.scalar, word.slots)


def _residual(image: Matrix, terms: list[Matrix]) -> dict:
    """The nonzero entries of image - sum(terms), as {(r, c): value}."""
    out = image.entries
    for term in terms:
        for rc, v in term.entries.items():
            out[rc] = out[rc] - v if rc in out else -v
    return {rc: v for rc, v in out.items() if v}


def fiber_rep_report(point: FiberPoint, algebra: PBWAlgebra) -> dict:
    """The fiber-rep report of the matrix model at point, decided on its
    Kronecker slots (slot_rep).

    relations_ok: presentation_failure finds none (else it is reported under
    failed_relation), so rep is an algebra map on D_lambda and the span of
    the images of its ell^(2n) basis monomials is the algebra A generated by
    I, the rep.x and the rep.d.  alpha_diagonal_ok (condition (b)): the
    image of alpha_i is diag(gamma_i q^(-2 r_i)), r_i the i-th digit of row
    r.  As gamma_i != 0 on the locus and q^-2 has order ell, row r's
    eigenvalue tuple fixes its digits, so no two rows share one.

    The span is decided by the certificate (b) and (c) alone; no rank is
    computed.  Proof.  Write a_i(r) for the r-th diagonal entry of alpha_i.
    By (b), each row s != r has an i = i(s) with a_i(s) != a_i(r), and the
    product over s != r of (alpha_i - a_i(s) I) / (a_i(r) - a_i(s)) is E_rr
    (Lagrange interpolation over K = Q(q)), so every E_rr lies in A.  For an
    entry G_rc != 0 of a generator G, E_rr G E_cc = G_rc E_rc, so E_rc lies
    in A along each edge c -> r of the row graph of unreached_row, and so
    does the product of the E along each path.  The span of the E_rc with a
    path from c to r (r = c included) is closed under products and holds I
    and every generator, so it is A.  So dim A = N^2, N = rep.size = ell^n,
    exactly when the graph is strongly connected (condition (c)), and ok is
    the same bit as the test dim A == ell^(2n).

    A certified report gives span_dimension = N^2.  A failing one gives no
    span, only its witness: failed_relation, alpha_diagonal_ok false, or
    unreached_row when both checks hold and the graph does not.
    in_azumaya_locus is always true: slot_rep raises off the locus.  Each
    check is made on the slots and expands only what they cannot certify,
    so a passing report builds no matrix of more than ell rows.
    """
    n, ell = algebra.n, point.field.ell
    rep = slot_rep(point, algebra.emb)
    failure = presentation_failure(rep, point, algebra)
    relations_ok = not failure
    alpha_ok = all(_alpha_holds(rep, i, alpha, g)
                   for i, (alpha, g) in enumerate(zip(alpha_images(rep), point.gamma)))
    unreached = unreached_row(rep) if relations_ok and alpha_ok else None
    ok = relations_ok and alpha_ok and unreached is None
    report = {"in_azumaya_locus": point.in_azumaya_locus(), "relations_ok": relations_ok,
              "alpha_diagonal_ok": alpha_ok, "expected_span_dimension": ell ** (2 * n), "ok": ok}
    if ok:
        report["span_dimension"] = rep.size ** 2
    if failure:
        report["failed_relation"] = failure
    if unreached is not None:
        report["unreached_row"] = unreached
    return report
