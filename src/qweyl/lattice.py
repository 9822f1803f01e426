"""Torus weight data and quiver embeddings.

Covers the combinatorial substrate of the operator algebras: the weight
matrix / symmetric form pair that drives all q-commutation exponents,
and its construction from a quiver.  The one rank question here (does
the torus act faithfully?) is decided exactly by linalg.SpanBasis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cyclotomic import CycField
from .linalg import SpanBasis

IntMatrix = tuple[tuple[int, ...], ...]


def _as_matrix(m) -> IntMatrix:
    rows = tuple(tuple(int(x) for x in row) for row in m)
    if rows:
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise ValueError("ragged matrix")
    return rows


@dataclass(frozen=True)
class QuiverData:
    """A finite quiver with 1-based vertices."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.num_vertices < 1:
            raise ValueError("a quiver needs at least one vertex")
        object.__setattr__(self, "edges", tuple((int(a), int(b)) for a, b in self.edges))
        for a, b in self.edges:
            if not (1 <= a <= self.num_vertices and 1 <= b <= self.num_vertices):
                raise ValueError(f"edge ({a}, {b}) leaves the vertex range")

    @classmethod
    def from_json(cls, data: dict) -> "QuiverData":
        return cls(num_vertices=int(data["vertices"]),
                   edges=tuple((int(a), int(b)) for a, b in data["edges"]))

    def components(self) -> list[list[int]]:
        """Connected components of the underlying graph, each sorted."""
        parent = list(range(self.num_vertices + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        groups: dict[int, list[int]] = {}
        for v in range(1, self.num_vertices + 1):
            groups.setdefault(find(v), []).append(v)
        return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


@dataclass(frozen=True)
class TorusEmbedding:
    """Weight data for n coordinate pairs under a rank d torus.

    matrix has one row per index: the torus weight of the i-th
    coordinate.  form is the symmetric integer pairing on the weight
    lattice; every q-commutation exponent in the operator algebra is a
    pairing of two rows.  The matrix must have full column rank so the
    torus acts faithfully.
    """

    n: int
    d: int
    matrix: IntMatrix
    form: IntMatrix

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_matrix(self.matrix))
        object.__setattr__(self, "form", _as_matrix(self.form))
        if self.n < 1:
            raise ValueError("at least one coordinate pair is required")
        if len(self.matrix) != self.n:
            raise ValueError("matrix needs one row per index")
        if any(len(r) != self.d for r in self.matrix):
            raise ValueError("matrix rows must have length d")
        if len(self.form) != self.d or any(len(r) != self.d for r in self.form):
            raise ValueError("form must be d x d")
        for i in range(self.d):
            for j in range(self.d):
                if self.form[i][j] != self.form[j][i]:
                    raise ValueError("form must be symmetric")
        # a rational matrix has the same rank over Q(q) as over Q
        span = SpanBasis(CycField(3))
        for row in self.matrix:
            span.add({j: span.field.scalar(v) for j, v in enumerate(row) if v})
        if span.rank != self.d:
            raise ValueError("weight matrix must have full column rank")

    # -- pairing machinery (0-based indices) ------------------------------

    def pairing(self, u: Sequence[int], v: Sequence[int]) -> int:
        return sum(u[a] * self.form[a][b] * v[b] for a in range(self.d) for b in range(self.d))

    def qij_exponent(self, i: int, j: int) -> int:
        """Pairing of the i-th and j-th coordinate weights."""
        return self.pairing(self.matrix[i], self.matrix[j])

    def mdag_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        """Transpose action: the weight-lattice image sum_i v_i * weight(i)."""
        if len(v) != self.n:
            raise ValueError("wrong length")
        return tuple(sum(v[i] * self.matrix[i][j] for i in range(self.n)) for j in range(self.d))

    def pairing_matrix(self) -> IntMatrix:
        return tuple(tuple(self.qij_exponent(i, j) for j in range(self.n)) for i in range(self.n))


def quiver_to_embedding(quiver: QuiverData) -> TorusEmbedding:
    """Weight data of the arrow coordinates under the based vertex torus.

    Per connected component the torus is the vertex torus with its
    overall diagonal removed; concretely the last vertex of each
    component is dropped and e_v - e_last for the remaining vertices
    form the basis.  An arrow a -> b has weight e_b - e_a expressed in
    that basis, and the form is the standard dot product on the
    sum-zero lattice: identity plus all-ones in each component block.
    """
    comps = quiver.components()
    kept: list[int] = []
    comp_of: dict[int, int] = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
        kept.extend(comp[:-1])
    col_of = {v: j for j, v in enumerate(kept)}
    d = len(kept)
    n = len(quiver.edges)

    def basis_coords(v: int) -> list[int]:
        # coordinates of e_v - e_last in the beta basis; zero for the
        # dropped vertex itself
        out = [0] * d
        comp = comps[comp_of[v]]
        if v != comp[-1]:
            out[col_of[v]] = 1
        return out

    rows = []
    for a, b in quiver.edges:
        wa, wb = basis_coords(a), basis_coords(b)
        rows.append(tuple(x - y for x, y in zip(wb, wa)))

    form = [[0] * d for _ in range(d)]
    for ci, comp in enumerate(comps):
        idx = [col_of[v] for v in comp[:-1]]
        for a in idx:
            for b in idx:
                form[a][b] = 1 + (1 if a == b else 0)
    return TorusEmbedding(n=n, d=d, matrix=tuple(rows), form=tuple(tuple(r) for r in form))
