"""Torus weight data: the full-rank check, moment values, quiver embeddings."""

import contextlib
import io
import json
import random
import tempfile
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qweyl import (CycField, FiberPoint, QuiverData, TorusEmbedding, phi_dagger,
                   quiver_to_embedding)
from qweyl.cli import main, validate_config


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
        TorusEmbedding(matrix=A, form=form)
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
    emb = TorusEmbedding(matrix=((1, 0), (1, -1)), form=((2, 0), (0, 2)))
    gamma = (F.scalar(2) * F.q, F.scalar(3))
    point = FiberPoint(field=F, lam=tuple((F.one, g ** 3 - 1) for g in gamma), gamma=gamma)
    # column j gets prod_i gamma_i^{M[i][j]}: (2q * 3, 3^-1)
    assert phi_dagger(point, emb) == (F.scalar(6) * F.q, F.scalar(3).inverse())


def test_quiver_from_json_and_components():
    q = QuiverData(num_vertices=3, edges=[[1, 2], [2, 3], [3, 1]])
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
        TorusEmbedding(matrix=((1,), (1,)), form=((2, 1),))
    with pytest.raises(ValueError):
        # asymmetric form
        TorusEmbedding(matrix=((1, 0), (0, 1)), form=((2, 1), (0, 2)))
    with pytest.raises(ValueError):
        # rank-deficient columns
        TorusEmbedding(matrix=((1, 1), (1, 1)), form=((2, 0), (0, 2)))


# -- the integer rule ---------------------------------------------------------

INTS = st.integers(-3, 3)
# every JSON value that is not an integer: a float, a bool, a string, null
NOT_INT = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.booleans(),
                    st.text(max_size=3), st.none())


@st.composite
def valid_weight_data(draw):
    """A config's weight data that builds an embedding: a matrix whose top
    d x d block is the identity (full column rank, d = 0 included) with
    2 I as its form, or a quiver with at least one edge, whose arrows span
    the sum-zero lattice of each component."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        d = draw(st.integers(0, n))
        matrix = [[int(i == j) for j in range(d)] for i in range(d)]
        matrix += [draw(st.lists(INTS, min_size=d, max_size=d)) for _ in range(n - d)]
        form = [[2 * (i == j) for j in range(d)] for i in range(d)]
        return {"embedding": {"matrix": matrix, "form": form}}
    vertices = draw(st.integers(1, 4))
    edge = st.lists(st.integers(1, vertices), min_size=2, max_size=2)
    return {"quiver": {"vertices": vertices, "edges": draw(st.lists(edge, min_size=1, max_size=4))}}


@st.composite
def defective_weight_data(draw):
    """Valid weight data with one defect: an entry or a vertex count that
    is not an integer, a row or an edge that is not a list, or a ragged
    row."""
    data = draw(valid_weight_data())
    kind, shape = next(iter(data.items()))
    if kind == "quiver" and draw(st.booleans()):
        shape["vertices"] = draw(st.one_of(NOT_INT, st.just(float(shape["vertices"]))))
        return data
    name = draw(st.sampled_from(["matrix", "form"] if kind == "embedding" else ["edges"]))
    rows = shape[name]
    i = draw(st.integers(0, len(rows) - 1)) if rows else None
    defect = draw(st.sampled_from(["entry", "row", "ragged"]))
    if i is None:  # the form of d = 0: no row to spoil, so add one
        rows.append(draw(st.lists(NOT_INT, min_size=1, max_size=2)))
    elif defect == "entry" and rows[i]:
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = draw(st.one_of(NOT_INT, st.just(float(rows[i][j]))))
    elif defect == "row":
        rows[i] = draw(st.one_of(NOT_INT, st.integers(), st.dictionaries(st.text(max_size=2), INTS)))
    else:  # one row longer than the others, or an edge that is no pair
        rows[i].append(draw(INTS))
    return data


def build(data):
    """The embedding of the weight data, built by the library alone."""
    if "embedding" in data:
        return TorusEmbedding(**data["embedding"])
    quiver = data["quiver"]
    return quiver_to_embedding(QuiverData(num_vertices=quiver["vertices"], edges=quiver["edges"]))


@settings(max_examples=80, deadline=None)
@given(defective_weight_data())
@example({"embedding": {"matrix": [[1.5]], "form": [[2]]}})        # was truncated to 1
@example({"embedding": {"matrix": [[1]], "form": [[2.9]]}})        # was truncated to 2
@example({"embedding": {"matrix": ["7"], "form": [[2]]}})          # was read as [7]
@example({"quiver": {"vertices": 2, "edges": [[1, 2.9]]}})        # was read as (1, 2)
@example({"quiver": {"vertices": 2.5, "edges": [[1, 2]]}})        # was accepted
def test_the_library_and_the_cli_reject_the_same_weight_data(data):
    with pytest.raises(ValueError):
        build(data)
    cfg = {"ell": 3, **data, "tasks": [{"type": "normalize", "expressions": ["x1"]}]}
    with pytest.raises(ValueError):
        validate_config(cfg)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["verify", "--config", str(path)]) == 2
    assert err.getvalue().startswith("config error: ") and err.getvalue().count("\n") == 1


@settings(max_examples=60, deadline=None)
@given(valid_weight_data())
@example({"embedding": {"matrix": [[], []], "form": []}})           # d = 0
def test_n_and_d_are_the_shape_of_the_matrix(data):
    emb = build(data)
    validate_config({"ell": 3, **data, "tasks": [{"type": "qmm-check"}]})
    assert emb.n == len(emb.matrix) and all(len(row) == emb.d for row in emb.matrix)
    if "embedding" in data:
        matrix = data["embedding"]["matrix"]
        assert (emb.n, emb.d) == (len(matrix), len(matrix[0]))
        assert emb.matrix == tuple(map(tuple, matrix))
    else:
        assert emb.n == len(data["quiver"]["edges"])



# -- the pairing matrix ---------------------------------------------------------

@st.composite
def embeddings(draw):
    """An embedding with a d x d identity block on top of its weight matrix
    (d = 0 included), other rows drawn with negative weights allowed, and
    any symmetric integer form."""
    d = draw(st.integers(0, 3))
    n = draw(st.integers(max(d, 1), 5))
    matrix = [[int(i == j) for j in range(d)] for i in range(d)]
    matrix += [draw(st.lists(INTS, min_size=d, max_size=d)) for _ in range(n - d)]
    upper = {(a, b): draw(INTS) for a in range(d) for b in range(a, d)}
    form = [[upper[min(a, b), max(a, b)] for b in range(d)] for a in range(d)]
    return TorusEmbedding(matrix=draw(st.permutations(matrix)), form=form)


@settings(max_examples=80, deadline=None)
@given(embeddings())
@example(TorusEmbedding(matrix=((), ()), form=()))                 # d = 0
@example(TorusEmbedding(matrix=((1,), (-2,)), form=((2,),)))       # a negative weight
def test_pairing_matrix_is_the_double_sum(emb):
    M, F, d = emb.matrix, emb.form, emb.d
    oracle = tuple(tuple(sum(M[i][a] * F[a][b] * M[j][b] for a in range(d) for b in range(d))
                         for j in range(emb.n)) for i in range(emb.n))
    assert emb.pairing_matrix() == oracle
    assert all(emb.qij_exponent(i, j) == oracle[i][j] for i in range(emb.n) for j in range(emb.n))
