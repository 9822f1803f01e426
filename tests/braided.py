"""The braided product on Mat(ell^n) and the general untwisting map, test
oracles for the placement of the matrix model: the slots of
qweyl.fiber.slot_rep and the dense rows of dense_model.full_matrix_rep.

With r, c, s the digits of rows and columns (first factor fastest) and P
the pairing matrix of the embedding,

    E_rc o E_cs = q^(beta(r, c, s)) E_rs,
    beta(r, c, s) = sum_{i<j} (r_j - c_j) P_ji (c_i - s_i),

and E_rc o E_c's = 0 for c != c'; the product is extended bilinearly.
untwist carries it to the plain product.  Each map takes a fiber.Matrix
or a DictMatrix and returns a DictMatrix, as a braided product or a sample
need not hold one entry per row.
"""

from qweyl import TorusEmbedding
from qweyl.fiber import digits
from qweyl.linalg import vec_accumulate

from dict_matrix import DictMatrix


def beta(r, c, s, P) -> int:
    n = len(r)
    return sum((r[j] - c[j]) * P[j][i] * (c[i] - s[i]) for j in range(n) for i in range(j))


def braided_product(a, b, emb: TorusEmbedding) -> DictMatrix:
    F = a.field
    ell, n = F.ell, emb.n
    P = emb.pairing_matrix()
    rows_of_b: dict = {}
    for (c, s), v in b.entries.items():
        rows_of_b.setdefault(c, []).append((s, v))
    terms = (((r, s), u * v * F.qpow(beta(digits(r, ell, n), digits(c, ell, n),
                                           digits(s, ell, n), P)))
             for (r, c), u in a.entries.items() for s, v in rows_of_b.get(c, ()))
    return DictMatrix(F, a.size, vec_accumulate({}, terms))


def untwist(mat, emb: TorusEmbedding) -> DictMatrix:
    """The braided-to-plain map on Mat(ell^n).

    E_rc goes to q^(-tau(r, c)) E_rc, where
    tau(r, c) = sum_{i<j} (r_i - c_i) P_ji r_j.  It is multiplicative
    from the braided product E_rc o E_cs = q^(beta) E_rs to the plain one.
    """
    F = mat.field
    ell, n = F.ell, emb.n
    if mat.size != ell ** n:
        raise ValueError("matrix size differs from ell^n")
    P = emb.pairing_matrix()
    out = {}
    for (r, c), v in mat.entries.items():
        rd, cd = digits(r, ell, n), digits(c, ell, n)
        tau = sum((rd[i] - cd[i]) * P[j][i] * rd[j] for j in range(n) for i in range(j))
        out[(r, c)] = v * F.qpow(-tau)
    return DictMatrix(F, mat.size, out)


def placed(G, i: int, n: int) -> DictMatrix:
    """I (x) ... (x) G (x) ... (x) I, G in slot i of n, first factor fastest."""
    ell = G.size
    step = ell ** i
    return DictMatrix(G.field, ell ** n, {
        (lo + step * (a + ell * hi), lo + step * (b + ell * hi)): v
        for hi in range(ell ** (n - i - 1)) for lo in range(step)
        for (a, b), v in G.entries.items()})
