"""Integer lattice utilities: Smith form, mod-ell kernels, quiver embeddings."""

import random

import pytest

from qweyl import (ModEllKernel, QuiverData, TorusEmbedding, classical_moment,
                   elementary_divisors, kernel_mod_ell, quiver_to_embedding,
                   smith_normal_form)
from qweyl.lattice import mat_mul, transpose


def random_matrix(rng, rows, cols, bound=6):
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(cols))
                 for _ in range(rows))


def test_snf_reconstruction_property():
    rng = random.Random(20240901)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = random_matrix(rng, m, n)
        U, D, V = smith_normal_form(A)
        assert mat_mul(mat_mul(U, A), V) == D
        # diagonal, nonnegative, divisibility chain
        diag = [D[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0
            if a:
                assert b % a == 0
            else:
                assert b == 0
        # U, V unimodular
        assert abs(_det(U)) == 1
        assert abs(_det(V)) == 1


def _det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        sub = tuple(tuple(row[c] for c in range(n) if c != j) for row in M[1:])
        total += (-1) ** j * M[0][j] * _det(sub)
    return total


def test_elementary_divisors_examples():
    # gcd of entries is 2 and the divisors multiply to |det| = 8
    assert elementary_divisors(((2, 4), (6, 8))) == (2, 4)
    assert elementary_divisors(((1, 0), (0, 1))) == (1, 1)
    assert elementary_divisors(((3,),)) == (3,)
    # the (1,1) column embedding is unimodular
    assert elementary_divisors(((1,), (1,))) == (1,)


def test_kernel_mod_ell_vs_bruteforce():
    from itertools import product
    rng = random.Random(7)
    for _ in range(25):
        ell = rng.choice([3, 5])
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        A = random_matrix(rng, m, n, bound=4)
        ker = kernel_mod_ell(A, ell)
        brute = sorted(
            v for v in product(range(ell), repeat=n)
            if all(sum(A[i][j] * v[j] for j in range(n)) % ell == 0
                   for i in range(m)))
        assert sorted(ker.members()) == brute
        assert ker.size == len(brute)


def test_kernel_free_flag():
    # unimodular embedding: kernel of the transpose is a free module
    ker = kernel_mod_ell(transpose(((1,), (1,))), 3)
    assert ker.free and ker.size == 3
    assert sorted(ker.members()) == [(0, 0), (1, 2), (2, 1)]
    # non-free example: multiplication by 3 on Z/9
    ker2 = kernel_mod_ell(((3,),), 9)
    assert not ker2.free
    assert ker2.size == 3


def test_kernel_members_raises_on_a_wrong_size():
    # the generators close up to 3 elements, not the claimed 9
    ker = ModEllKernel(ell=3, nvars=2, generators=((1, 2),), free=True, size=9)
    with pytest.raises(ArithmeticError):
        ker.members()


def test_classical_moment():
    from fractions import Fraction
    M = ((1, 0), (1, -1))
    vals = (Fraction(2), Fraction(3))
    # column j gets prod_i vals_i^{M[i][j]}
    assert classical_moment(M, vals) == (Fraction(6), Fraction(1, 3))
    with pytest.raises(ZeroDivisionError):
        classical_moment(((-1,),), (Fraction(0),))


def test_quiver_from_json_and_components():
    q = QuiverData.from_json({"vertices": 3, "edges": [[1, 2], [2, 3], [3, 1]]})
    assert q.num_vertices == 3
    assert q.components() == [[1, 2, 3]]
    q2 = QuiverData(num_vertices=4, edges=((1, 2), (3, 4)))
    assert q2.components() == [[1, 2], [3, 4]]
    with pytest.raises(ValueError):
        QuiverData(num_vertices=2, edges=((1, 3),))


def test_cyclic3_embedding_frozen():
    # cyclic quiver on 3 vertices: drop the last vertex of the component
    q = QuiverData(num_vertices=3, edges=((1, 2), (2, 3), (3, 1)))
    emb = quiver_to_embedding(q)
    assert emb.n == 3 and emb.d == 2
    assert emb.matrix == ((-1, 1), (0, -1), (1, 0))
    assert emb.form == ((2, 1), (1, 2))
    # all adjacent pairings are -1, including the wrap-around pair
    P = emb.pairing_matrix()
    assert P[1][0] == P[2][1] == P[2][0] == -1
    assert P[0][0] == P[1][1] == P[2][2] == 2


def test_single_edge_embedding():
    q = QuiverData(num_vertices=2, edges=((1, 2),))
    emb = quiver_to_embedding(q)
    assert emb.n == 1 and emb.d == 1
    assert emb.matrix == ((-1,),)
    assert emb.pairing_matrix() == ((2,),)


def test_double_edge_embedding():
    # cyclic quiver on 2 vertices: pairing of the two edges is -2
    q = QuiverData(num_vertices=2, edges=((1, 2), (2, 1)))
    emb = quiver_to_embedding(q)
    assert emb.n == 2 and emb.d == 1
    P = emb.pairing_matrix()
    assert P[1][0] == -2 and P[0][0] == P[1][1] == 2


def test_two_component_quiver():
    q = QuiverData(num_vertices=4, edges=((1, 2), (3, 4)))
    emb = quiver_to_embedding(q)
    # one vertex dropped per component
    assert emb.n == 2 and emb.d == 2
    # edges in different components pair to zero
    assert emb.qij_exponent(0, 1) == 0


def test_embedding_validation():
    with pytest.raises(ValueError):
        TorusEmbedding(n=2, d=1, matrix=((1,), (1,)), form=((2, 1),))
    with pytest.raises(ValueError):
        # asymmetric form
        TorusEmbedding(n=2, d=2, matrix=((1, 0), (0, 1)), form=((2, 1), (0, 2)))
    with pytest.raises(ValueError):
        # rank-deficient columns
        TorusEmbedding(n=2, d=2, matrix=((1, 1), (1, 1)), form=((2, 0), (0, 2)))


def test_mdag_vec():
    emb = TorusEmbedding(n=2, d=1, matrix=((1,), (1,)), form=((2,),))
    assert emb.mdag_vec((1, 0)) == (1,)
    assert emb.mdag_vec((2, 2)) == (4,)
    # affine A2 embedding at ell = 3: kernel of the transpose has rank 1, size 3
    q = QuiverData(num_vertices=3, edges=((1, 2), (2, 3), (3, 1)))
    e2 = quiver_to_embedding(q)
    ker = kernel_mod_ell(transpose(e2.matrix), 3)
    assert ker.free and ker.size == 3
