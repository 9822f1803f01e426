"""The general sparse square matrix over Q(q), keyed by (r, c): the test
oracle of qweyl.fiber.Matrix, which holds at most one entry per row.

DictMatrix is the (r, c) dict form that the matrix model used before its
images became weighted partial permutations, with its product through
vec_accumulate.  The oracles in braided.py and splitting.py build their
general matrices with it, and it compares equal to a fiber.Matrix with the
same size and entries.
"""

from qweyl.cyclotomic import power
from qweyl.fiber import Matrix
from qweyl.linalg import vec_accumulate


class DictMatrix:
    """Sparse square matrix over Q(q); zero entries are absent."""

    __slots__ = ("field", "size", "entries")

    def __init__(self, field, size, entries=None):
        self.field = field
        self.size = size
        self.entries = {k: v for k, v in (entries or {}).items() if v}

    @classmethod
    def identity(cls, field, size):
        return cls(field, size, {(r, r): field.one for r in range(size)})

    @classmethod
    def of(cls, mat):
        """The dict form of a fiber.Matrix or a DictMatrix."""
        return cls(mat.field, mat.size, mat.entries)

    def __getitem__(self, rc):
        return self.entries.get(rc, self.field.zero)

    def __add__(self, other):
        if other.size != self.size:
            raise ValueError("size mismatch")
        return DictMatrix(self.field, self.size,
                          vec_accumulate(dict(self.entries), other.entries.items()))

    def __sub__(self, other):
        if other.size != self.size:
            raise ValueError("size mismatch")
        out = vec_accumulate(dict(self.entries), ((k, -v) for k, v in other.entries.items()))
        return DictMatrix(self.field, self.size, out)

    def scale(self, c):
        c = self.field.scalar(c)
        if not c:
            return DictMatrix(self.field, self.size)
        return DictMatrix(self.field, self.size, {k: c * v for k, v in self.entries.items()})

    def __mul__(self, other):
        if isinstance(other, (DictMatrix, Matrix)):
            if other.size != self.size:
                raise ValueError("size mismatch")
            rows = {}
            for (r, c), v in other.entries.items():
                rows.setdefault(r, []).append((c, v))
            out = vec_accumulate({}, (((r, c2), v * v2) for (r, c), v in self.entries.items()
                                      for c2, v2 in rows.get(c, ())))
            return DictMatrix(self.field, self.size, out)
        return self.scale(other)

    def __pow__(self, e):
        return power(self, e, DictMatrix.identity(self.field, self.size))

    def __eq__(self, other):
        if not isinstance(other, (DictMatrix, Matrix)):
            return NotImplemented
        return self.size == other.size and self.entries == other.entries

    def __repr__(self):
        return f"<DictMatrix {self.size}x{self.size}, {len(self.entries)} nonzero>"

