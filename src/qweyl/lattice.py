"""Torus weight data and quiver embeddings.

Covers the combinatorial substrate of the operator algebras: the weight
matrix / symmetric form pair that drives all q-commutation exponents,
and its construction from a quiver.  The one rank question here (does
the torus act faithfully?) is decided exactly by linalg.nullspace.
"""

from __future__ import annotations

from .cyclotomic import CycField
from .linalg import nullspace

IntMatrix = tuple[tuple[int, ...], ...]


def _as_matrix(m, name: str) -> IntMatrix:
    """m as a tuple of int tuples: the one integer rule of the weight data.

    m must be a list or tuple of lists or tuples of int; a bool, float or
    string entry, a row that is not a list and a ragged m raise ValueError.
    """
    if not isinstance(m, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) and all(type(v) is int for v in row) for row in m):
        raise ValueError(f"'{name}' must be a list of lists of integers")
    rows = tuple(tuple(row) for row in m)
    if len({len(r) for r in rows}) > 1:
        raise ValueError(f"'{name}' is ragged")
    return rows


class QuiverData:
    """A finite quiver with 1-based vertices.  Immutable."""

    __slots__ = ("num_vertices", "edges")

    def __init__(self, num_vertices: int, edges):
        if type(num_vertices) is not int or num_vertices < 1:
            raise ValueError("a quiver needs an integer number of vertices, at least one")
        edges = _as_matrix(edges, "edges")
        for edge in edges:
            if len(edge) != 2 or not all(1 <= v <= num_vertices for v in edge):
                raise ValueError(f"edge {list(edge)} is not a [tail, head] pair "
                                 f"of vertices 1..{num_vertices}")
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"QuiverData is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

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


class TorusEmbedding:
    """Weight data for n coordinate pairs under a rank d torus.

    matrix has one row per index: the torus weight of the i-th
    coordinate, so n and d are its rows and its columns.  form is the
    symmetric d x d integer pairing on the weight lattice; every
    q-commutation exponent in the operator algebra is a pairing of two
    rows.  The matrix must have full column rank so the torus acts
    faithfully.  Immutable.
    """

    __slots__ = ("matrix", "form")

    def __init__(self, matrix: IntMatrix, form: IntMatrix):
        matrix = _as_matrix(matrix, "matrix")
        form = _as_matrix(form, "form")
        if not matrix:
            raise ValueError("at least one coordinate pair is required")
        d = len(matrix[0])
        if len(form) != d or any(len(r) != d for r in form):
            raise ValueError("form must be d x d")
        for i in range(d):
            for j in range(d):
                if form[i][j] != form[j][i]:
                    raise ValueError("form must be symmetric")
        # a rational matrix has the same kernel over Q(q) as over Q: M u = 0
        # has no solution u != 0 exactly when M has full column rank
        F = CycField(3)
        rows = [{j: F.scalar(v) for j, v in enumerate(row) if v} for row in matrix]
        if nullspace(rows, list(range(d)), F):
            raise ValueError("weight matrix must have full column rank")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "form", form)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"TorusEmbedding is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @property
    def n(self) -> int:
        return len(self.matrix)

    @property
    def d(self) -> int:
        return len(self.matrix[0])

    def pairing_matrix(self) -> IntMatrix:
        """The pairings of each two coordinate weights (0-based): entry (i, j)
        is row i of M paired with row j under the form.  The rows of M F are
        formed once, so each pairing is the O(d) dot product of one of them
        with a row of M."""
        rows = [[sum(m[a] * self.form[a][b] for a in range(self.d)) for b in range(self.d)]
                for m in self.matrix]
        return tuple(tuple(sum(u * v for u, v in zip(row, m)) for m in self.matrix)
                     for row in rows)


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
    return TorusEmbedding(matrix=tuple(rows), form=tuple(tuple(r) for r in form))
