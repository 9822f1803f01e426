"""Torus weight data: the full-rank check, moment values, quiver embeddings."""

import random
from itertools import combinations

import pytest

from qweyl import (CycField, FiberPoint, QuiverData, TorusEmbedding, phi_dagger,
                   quiver_to_embedding)


def random_matrix(rng, rows, cols, bound=6):
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(cols))
                 for _ in range(rows))


def _det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        sub = tuple(tuple(row[c] for c in range(n) if c != j) for row in M[1:])
        total += (-1) ** j * M[0][j] * _det(sub)
    return total


def _full_column_rank(A):
    """Some d x d minor of the n x d matrix A is nonzero."""
    d = len(A[0])
    return any(_det(tuple(A[i] for i in rows)) for rows in combinations(range(len(A)), d))


def _accepts(A):
    d = len(A[0])
    form = tuple(tuple(2 * (i == j) for j in range(d)) for i in range(d))
    try:
        TorusEmbedding(n=len(A), d=d, matrix=A, form=form)
    except ValueError as err:
        assert str(err) == "weight matrix must have full column rank"
        return False
    return True


def test_embedding_accepts_exactly_the_full_column_rank_matrices():
    rng = random.Random(20240901)
    cases = [((2,), (4,)),          # full rank, but not unimodular
             ((1, 2), (2, 4))]      # rank 1
    cases += [random_matrix(rng, rng.randint(1, 4), rng.randint(1, 3)) for _ in range(80)]
    verdicts = [_full_column_rank(A) for A in cases]
    assert verdicts[:2] == [True, False]
    assert True in verdicts[2:] and False in verdicts[2:]
    for A, full in zip(cases, verdicts):
        assert _accepts(A) == full, A


def test_phi_dagger_pushes_gamma_along_a_weight_matrix_with_a_negative_entry():
    F = CycField(3)
    emb = TorusEmbedding(n=2, d=2, matrix=((1, 0), (1, -1)), form=((2, 0), (0, 2)))
    gamma = (F.scalar(2) * F.q, F.scalar(3))
    point = FiberPoint(field=F, lam=tuple((F.one, g ** 3 - 1) for g in gamma), gamma=gamma)
    # column j gets prod_i gamma_i^{M[i][j]}: (2q * 3, 3^-1)
    assert phi_dagger(point, emb) == (F.scalar(6) * F.q, F.scalar(3).inverse())


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
