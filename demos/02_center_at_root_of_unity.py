"""The centralizer of {x, d} in a truncated monomial window.

At q of odd order ell the elements x^ell and d^ell are central, and
inside the window {x^a d^b : a, b <= 6} nothing else is: the solver
recovers exactly the span of monomials in x^3 and d^3 when ell = 3.
"""

from itertools import product

from qweyl import CycField, PBWAlgebra, TorusEmbedding
from qweyl.linalg import SpanBasis, nullspace
from qweyl.pbw import commutator_rows

ell, deg = 3, 6
F = CycField(ell)
A = PBWAlgebra(F, TorusEmbedding(matrix=((1,),), form=((2,),)))

keys = [((a,), (b,)) for a, b in product(range(deg + 1), repeat=2)]
rows = commutator_rows(A, keys)

centralizer = SpanBasis(F)
for v in nullspace(rows, keys, field=F):
    centralizer.add(v)

print(f"centralizer dimension in the window: {centralizer.rank}")
print("basis monomials:")
for v in centralizer.rows():
    mk = max(v)  # leading key of the reduced row
    print("   ", A.monomial(*mk))
