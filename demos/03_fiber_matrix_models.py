"""Matrix models of the finite fibers over central characters."""

from qweyl import (CycField, FiberPoint, OutsideAzumayaLocus, PBWAlgebra,
                   TorusEmbedding, slot_rep)
from qweyl.fiber import alpha_images, fiber_rep_report

F = CycField(3)
emb1 = TorusEmbedding(matrix=((1,),), form=((2,),))

# the rank-one model is the one-factor model, held on its Kronecker slots
# and written out on its rows by dense()
print("rank one at (c, w) = (7, 1), gamma = 2:")
point = FiberPoint(field=F, lam=((F.scalar(7), F.one),), gamma=(F.scalar(2),))
rep = slot_rep(point, emb1)
x, d, alpha = (g.dense() for g in rep.x + rep.d + tuple(alpha_images(rep)))
print("  x     =", sorted((rc, str(v)) for rc, v in x.entries.items()))
print("  d     =", sorted((rc, str(v)) for rc, v in d.entries.items()))
print("  alpha =", sorted((rc, str(v)) for rc, v in alpha.entries.items()))
print("  x^3 scalar:", x ** 3)
print()

# a point off the locus: 1 + c*w = 0, no matrix model, alpha not invertible
A1 = PBWAlgebra(F, emb1)
bad = FiberPoint(field=F, lam=((F.scalar(-1), F.one),), gamma=(F.zero,))
try:
    slot_rep(bad, emb1)
except OutsideAzumayaLocus as exc:
    print("off the locus:", exc)
print()

# two coordinates braided through a shared torus direction
emb2 = TorusEmbedding(matrix=((1,), (1,)), form=((2,),))
p = FiberPoint(field=F, lam=((F.zero, F.zero), (F.scalar(7), F.one)),
               gamma=(F.one, F.scalar(2)))
big = slot_rep(p, emb2)
alpha2 = alpha_images(big)[1].dense()
print(f"two-factor model on {big.size} dimensions;",
      f"alpha_2 diagonal: {[str(alpha2[(r, r)]) for r in range(big.size)]}")
print()

print("fiber-rep report at locus points:")
for c, w, g in [(0, 0, 1), (8, 0, 1), (7, 1, 2)]:
    pt = FiberPoint(field=F, lam=((F.scalar(c), F.scalar(w)),), gamma=(F.scalar(g),))
    report = fiber_rep_report(pt, A1)
    print(f"  (c, w, gamma) = ({c}, {w}, {g}): relations_ok {report['relations_ok']},",
          f"span {report['span_dimension']} of {report['expected_span_dimension']}")
