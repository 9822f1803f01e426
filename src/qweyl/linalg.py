"""Sparse exact linear algebra over Q(q).

Vectors are dicts mapping arbitrary hashable keys to nonzero field
elements.  The exact elimination routine is an incremental row-echelon
span, SpanBasis, used for ideal saturation, nullspaces and rank counts.
Everything works over the exact cyclotomic scalars, so membership and
rank are decided, not estimated; rank is the one place where a rank
mod p (modular_rank) may certify a rank over Q(q).
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import isqrt
from typing import Callable, Hashable, Iterable, Optional

from .cyclotomic import CycField

Vec = dict


def vec_accumulate(out: Vec, items: Iterable[tuple]) -> Vec:
    """Add each (key, value) of items into out in place, dropping keys that cancel."""
    get = out.get
    for k, v in items:
        s = get(k)
        if s is not None:
            v = s + v
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


class SpanBasis:
    """A subspace of a based vector space, kept in reduced row echelon form.

    key_order fixes which coordinate of a vector counts as its pivot
    (the minimal key under the ordering).  Leaving it None uses the
    default ordering of the keys, which must then be mutually comparable.
    Every row is 1 at its pivot and 0 at every other pivot.
    """

    def __init__(self, field: CycField, key_order: Optional[Callable[[Hashable], object]] = None):
        self.field = field
        self._key = key_order if key_order is not None else (lambda k: k)
        self._rows: dict = {}  # pivot key -> vector with that pivot scaled to 1

    @property
    def rank(self) -> int:
        return len(self._rows)

    def rows(self) -> list:
        return [dict(v) for _, v in sorted(self._rows.items(), key=lambda kv: self._key(kv[0]))]

    def pivots(self) -> list:
        return sorted(self._rows, key=self._key)

    def row(self, pivot: Hashable) -> Vec:
        """The row with the given pivot; read-only, later adds update it."""
        return self._rows[pivot]

    def reduce(self, vec: Vec) -> Vec:
        """Residue of vec modulo the span: vec - sum of vec[p] * row_p over its pivots p."""
        rows = self._rows
        hits = [(-c, rows[p]) for p, c in vec.items() if p in rows]
        return vec_accumulate(dict(vec), ((k, c * w) for c, row in hits for k, w in row.items()))

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)

    def add(self, vec: Vec) -> bool:
        """Adjoin vec to the span; True if the rank grew."""
        res = self.reduce(vec)
        if not res:
            return False
        p = min(res, key=self._key)
        inv = res[p].inverse()
        new_row = {k: inv * v for k, v in res.items()}
        # back-substitute into existing rows to keep full reduction
        for row in self._rows.values():
            c = row.get(p)
            if c is not None:
                c = -c
                vec_accumulate(row, ((k, c * v) for k, v in new_row.items()))
        self._rows[p] = new_row
        return True


def nullspace(rows: Iterable[Vec], unknowns: list, field: CycField) -> list[Vec]:
    """Solution basis of the homogeneous system rows . x = 0.

    Each row maps unknown -> coefficient; unknowns fixes the elimination
    order.  Returns one solution vector per free unknown, in the order of
    unknowns; each is 1 at its own free unknown and 0 at every other free
    unknown, so a vector lies in their span exactly when it equals the
    combination of them given by its free coordinates.
    """
    order = {u: i for i, u in enumerate(unknowns)}
    span = SpanBasis(field, key_order=lambda k: order[k])
    for r in rows:
        if r:
            span.add(r)
    piv_rows = [(p, span.row(p)) for p in span.pivots()]
    pivots = {p for p, _ in piv_rows}
    basis: list[Vec] = []
    for u in unknowns:
        if u in pivots:
            continue
        sol: Vec = {u: field.one}
        for p, row in piv_rows:
            c = row.get(u)
            if c is not None:
                sol[p] = -c
        basis.append(sol)
    return basis


@lru_cache(maxsize=None)
def _prime_and_root(ell: int) -> tuple[int, int]:
    """The least prime p = 1 (mod ell) above 2^30, and z = g^((p-1)/ell) of
    exact order ell for the least g >= 2: a root of Phi_ell mod p."""
    p = (2 ** 30 // ell + 1) * ell + 1
    while not all(p % f for f in range(2, isqrt(p) + 1)):
        p += ell
    return p, next(z for z in (pow(g, (p - 1) // ell, p) for g in range(2, p))
                   if all(pow(z, d, p) != 1 for d in range(1, ell) if ell % d == 0))


def modular_rank(vectors: Iterable[Vec], field: CycField) -> Optional[int]:
    """Rank of the vectors after q -> z in F_p ((p, z) from _prime_and_root),
    or None when some denominator is divisible by p.

    Soundness: q -> z is a ring map from Z_(p)[q] = Z_(p)[x]/(Phi_ell), the
    scalars with denominator prime to p, since Phi_ell(z) = 0 in F_p.  It
    maps each minor to a minor, and a minor nonzero mod p is nonzero over
    Q(q), so rank mod p <= rank over Q(q).  Only a rank mod p equal to a
    proven upper bound on the rank over Q(q) is a certificate (see rank); a
    shortfall is not.
    """
    p, z = _prime_and_root(field.ell)
    zs = [pow(z, i, p) for i in range(field.degree)]
    cols: dict = {}  # key -> column index, in order of first appearance
    pivots: dict = {}  # column -> row over F_p that is 1 there and 0 left of it
    for vec in vectors:
        row = {}
        for key, c in vec.items():
            if c.den % p == 0:
                return None
            v = sum(a * b for a, b in zip(c.num, zs)) * pow(c.den, -1, p) % p
            if v:
                row[cols.setdefault(key, len(cols))] = v
        # leftmost column first: a pivot row only adds columns right of its pivot
        heap = list(row)
        heapify(heap)
        while heap:
            j = heappop(heap)
            c = row.get(j)
            if c is None:
                continue
            if j not in pivots:
                inv = pow(c, -1, p)
                pivots[j] = {k: v * inv % p for k, v in row.items()}
                break
            for k, v in pivots[j].items():
                if k not in row:
                    heappush(heap, k)  # -c * v != 0 mod p: k enters the row
                row[k] = (row.get(k, 0) - c * v) % p
                if not row[k]:
                    del row[k]
    return len(pivots)


def rank(vectors: Callable[[], Iterable[Vec]], field: CycField, bound: int) -> int:
    """Rank over Q(q) of what vectors() yields, where bound is a proven upper
    bound on it: certified when the rank mod p equals bound (rank mod p <=
    rank over Q(q) <= bound, see modular_rank), else counted exactly by a
    SpanBasis over a second call to vectors()."""
    if modular_rank(vectors(), field) == bound:
        return bound
    span = SpanBasis(field)
    for v in vectors():
        span.add(v)
    return span.rank
