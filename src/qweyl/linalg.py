"""Sparse exact linear algebra over Q(q).

Vectors are dicts mapping arbitrary hashable keys to nonzero field
elements.  The workhorse is an incremental row-echelon span, used for
ideal saturation, invariant subspaces, and rank counts.  Everything
works over the exact cyclotomic scalars, so membership and rank are
decided, not estimated.
"""

from __future__ import annotations

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
