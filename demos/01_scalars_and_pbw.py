"""Exact arithmetic in Q(q) at an odd root of unity, and PBW normal forms."""

from qweyl import CycField, PBWAlgebra, TorusEmbedding

F = CycField(5)
print("field:", F)
print("q^2 * q^3 =", F.qpow(2) * F.qpow(3))
print("1 + q + q^2 + q^3 + q^4 =", F.qpow(0) + F.q + F.qpow(2) + F.qpow(3) + F.qpow(4))

s = F.qpow(2) - F.one
print("(q^2 - 1)^-1 =", s.inverse())
print("product with its inverse:", s * s.inverse())

emb = TorusEmbedding(n=1, d=1, matrix=((1,),), form=((2,),))
A = PBWAlgebra(F, emb)
x, d = A.x(1), A.d(1)

print()
print("d*x          =", d * x)
print("d^2*x        =", A.multiply(A.d(1, 2), x))
print("alpha        =", A.alpha(1))
print("alpha^2      =", A.alpha(1) ** 2)

# the ell-th power collapses: no lower-order terms survive
print("alpha^5      =", A.alpha(1) ** 5)
print("central?     ", (A.alpha(1) ** 5).is_central())
