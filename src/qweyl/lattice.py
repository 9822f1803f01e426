"""Integer lattice utilities and torus weight data.

Covers the combinatorial substrate of the operator algebras: Smith
normal form over the integers, kernels of integer matrices modulo an
odd number ell, classical multiplicative moment map values, and the
passage from a quiver to the weight matrix / symmetric form pair that
drives all q-commutation exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

IntMatrix = tuple[tuple[int, ...], ...]


def _as_matrix(m) -> IntMatrix:
    rows = tuple(tuple(int(x) for x in row) for row in m)
    if rows:
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise ValueError("ragged matrix")
    return rows


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U*matrix*V = D, U and V unimodular.

    D is diagonal with d_1 | d_2 | ... and nonnegative entries.
    """
    A = [list(r) for r in _as_matrix(matrix)]
    m = len(A)
    n = len(A[0]) if m else 0
    U = _identity(m)
    V = _identity(n)

    def row_op(i, j, c):  # row_i += c * row_j
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, c):  # col_i += c * col_j
        for r in A:
            r[i] += c * r[j]
        for r in V:
            r[i] += c * r[j]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(m, n):
        # locate a nonzero entry of least magnitude in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        dirty = False
        for i in range(t + 1, m):
            if A[i][t]:
                qq = A[i][t] // A[t][t]
                row_op(i, t, -qq)
                if A[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if A[t][j]:
                qq = A[t][j] // A[t][t]
                col_op(j, t, -qq)
                if A[t][j]:
                    dirty = True
        if dirty:
            continue
        # divisibility: pivot must divide every remaining entry
        stuck = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t]:
                    stuck = i
                    break
            if stuck is not None:
                break
        if stuck is not None:
            row_op(t, stuck, 1)
            continue
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1

    D = tuple(tuple(A[i][j] if i == j else 0 for j in range(n)) for i in range(m))
    return tuple(tuple(r) for r in U), D, tuple(tuple(r) for r in V)


def elementary_divisors(matrix) -> tuple[int, ...]:
    _, D, _ = smith_normal_form(matrix)
    return tuple(D[i][i] for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i])


def mat_mul(a, b) -> IntMatrix:
    a, b = _as_matrix(a), _as_matrix(b)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def transpose(a) -> IntMatrix:
    a = _as_matrix(a)
    if not a:
        return ()
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


@dataclass(frozen=True)
class ModEllKernel:
    """The kernel of an integer matrix acting on (Z/ell)^n by v -> A v."""

    ell: int
    nvars: int
    generators: tuple[tuple[int, ...], ...]
    free: bool
    size: int

    @property
    def rank(self) -> Optional[int]:
        """Number of generators when the kernel is a free Z/ell module."""
        return len(self.generators) if self.free else None

    def members(self) -> list[tuple[int, ...]]:
        """Every kernel element, deterministic order (closure of the generators)."""
        ell = self.ell
        seen = {(0,) * self.nvars}
        frontier = [(0,) * self.nvars]
        while frontier:
            nxt = []
            for base in frontier:
                for g in self.generators:
                    cand = tuple((a + b) % ell for a, b in zip(base, g))
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
            frontier = nxt
        out = sorted(seen)
        if len(out) != self.size:
            raise ArithmeticError(f"kernel closure has {len(out)} elements, expected {self.size}")
        return out

    def contains(self, v: Sequence[int]) -> bool:
        v = tuple(x % self.ell for x in v)
        if len(v) != self.nvars:
            raise ValueError("wrong length")
        return v in set(self.members())


def kernel_mod_ell(matrix, ell: int) -> ModEllKernel:
    """Kernel of v -> matrix @ v on (Z/ell)^n, via Smith normal form.

    Writing U A V = D, a vector x = V y lies in the kernel iff
    d_j y_j = 0 mod ell for each diagonal entry, so the kernel is
    generated by (ell/gcd(d_j, ell)) * col_j(V) together with the
    columns of V past the rank.
    """
    A = _as_matrix(matrix)
    m = len(A)
    n = len(A[0]) if m else 0
    if n == 0:
        return ModEllKernel(ell, 0, (), True, 1)
    if m == 0:
        gens = tuple(tuple(1 if i == j else 0 for i in range(n)) for j in range(n))
        return ModEllKernel(ell, n, gens, True, ell ** n)
    _, D, V = smith_normal_form(A)
    r = sum(1 for i in range(min(m, n)) if D[i][i])
    cols = transpose(V)
    gens: list[tuple[int, ...]] = []
    size = ell ** (n - r)
    free = True
    for j in range(r):
        g = gcd(D[j][j], ell)
        size *= g
        if g == 1:
            continue
        if g != ell:
            free = False
        scale = ell // g
        gens.append(tuple((scale * x) % ell for x in cols[j]))
    for j in range(r, n):
        gens.append(tuple(x % ell for x in cols[j]))
    return ModEllKernel(ell, n, tuple(gens), free, size)


def classical_moment(matrix, values: Sequence) -> tuple:
    """Multiply values_i ** matrix[i][j] down each column.

    This is the coordinate formula for the classical multiplicative
    moment map on the torus side; values may be Fractions or field
    scalars.  A zero value raised to a negative power is an error.
    """
    A = _as_matrix(matrix)
    if len(A) != len(values):
        raise ValueError("one value per matrix row is required")
    d = len(A[0]) if A else 0
    out = []
    for j in range(d):
        acc = None
        for i, v in enumerate(values):
            e = A[i][j]
            if e == 0:
                continue
            if e < 0 and not v:
                raise ZeroDivisionError(f"value {i} is zero but needs exponent {e}")
            term = v ** e
            acc = term if acc is None else acc * term
        if acc is None:
            acc = Fraction(1) if not values else values[0] ** 0
        out.append(acc)
    return tuple(out)


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
        # Smith normal form over Z has as many nonzero divisors as the rank over Q
        if len(elementary_divisors(self.matrix)) != self.d:
            raise ValueError("weight matrix must have full column rank")

    # -- pairing machinery (0-based indices) ------------------------------

    def weight(self, i: int) -> tuple[int, ...]:
        return self.matrix[i]

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
