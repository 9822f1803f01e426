"""The braided product on Mat(ell^n), a test oracle for qweyl.fiber.untwist.

With r, c, s the digits of rows and columns (first factor fastest) and P
the pairing matrix of the embedding,

    E_rc o E_cs = q^(beta(r, c, s)) E_rs,
    beta(r, c, s) = sum_{i<j} (r_j - c_j) P_ji (c_i - s_i),

and E_rc o E_c's = 0 for c != c'; the product is extended bilinearly.
"""

from qweyl import Matrix, TorusEmbedding
from qweyl.fiber import digits
from qweyl.linalg import vec_accumulate


def beta(r, c, s, P) -> int:
    n = len(r)
    return sum((r[j] - c[j]) * P[j][i] * (c[i] - s[i]) for j in range(n) for i in range(j))


def braided_product(a: Matrix, b: Matrix, emb: TorusEmbedding) -> Matrix:
    F = a.field
    ell, n = F.ell, emb.n
    P = emb.pairing_matrix()
    rows_of_b: dict = {}
    for (c, s), v in b.entries.items():
        rows_of_b.setdefault(c, []).append((s, v))
    terms = (((r, s), u * v * F.qpow(beta(digits(r, ell, n), digits(c, ell, n),
                                           digits(s, ell, n), P)))
             for (r, c), u in a.entries.items() for s, v in rows_of_b.get(c, ()))
    return Matrix(F, a.size, vec_accumulate({}, terms))
