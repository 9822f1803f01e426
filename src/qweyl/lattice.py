"""Torus weight data, quiver embeddings and the immutable value classes.

Covers the combinatorial substrate of the operator algebras: the weight
matrix / symmetric form pair that drives all q-commutation exponents,
and its construction from a quiver's vertex count and edges, which
quiver_to_embedding checks and reads directly.  The one rank question
here (does the torus act faithfully?) is decided exactly by
linalg.nullspace.  Frozen is the one immutability rule that
TorusEmbedding and the value classes of fiber and quiver_examples share.
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


class Frozen:
    """Base of the immutable value classes: each subclass lists its fields in
    __slots__ and stores them once, through _freeze, at the end of __init__;
    no field can be set or deleted after that."""

    __slots__ = ()

    def _freeze(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: "
                             f"cannot set or delete {name!r}")

    __delattr__ = __setattr__


class TorusEmbedding(Frozen):
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
        self._freeze(matrix=matrix, form=form)

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


def quiver_to_embedding(num_vertices: int, edges) -> TorusEmbedding:
    """Weight data of the arrow coordinates of a quiver under the based
    vertex torus.

    The vertices are 1..num_vertices and edges is a list of [tail, head]
    pairs.  Per connected component the torus is the vertex torus with its
    overall diagonal removed; concretely the last vertex of each component
    is dropped and e_v - e_last for the remaining vertices form the basis,
    component by component in the order of their first vertex.  An arrow
    a -> b has weight e_b - e_a expressed in that basis, and the form is
    the standard dot product on the sum-zero lattice: identity plus
    all-ones in each component block.
    """
    if type(num_vertices) is not int or num_vertices < 1:
        raise ValueError("a quiver needs an integer number of vertices, at least one")
    edges = _as_matrix(edges, "edges")
    for edge in edges:
        if len(edge) != 2 or not all(1 <= v <= num_vertices for v in edge):
            raise ValueError(f"edge {list(edge)} is not a [tail, head] pair "
                             f"of vertices 1..{num_vertices}")
    root = list(range(num_vertices + 1))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for a, b in edges:
        root[find(a)] = find(b)
    comp = {v: find(v) for v in range(1, num_vertices + 1)}
    first = {r: v for v, r in reversed(comp.items())}
    last = {r: v for v, r in comp.items()}
    kept = sorted((first[r], v) for v, r in comp.items() if last[r] != v)
    matrix = tuple(tuple((v == b) - (v == a) for _, v in kept) for a, b in edges)
    form = tuple(tuple((cu == cv) + (u == v) for cv, v in kept) for cu, u in kept)
    return TorusEmbedding(matrix, form)
