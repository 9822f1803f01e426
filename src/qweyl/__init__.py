"""Exact computer algebra for q-Weyl algebras at odd roots of unity.

Scalars live in the cyclotomic field Q(zeta_ell); everything downstream
(PBW normal forms, central elements, matrix fibers, torsion gradings,
Hamiltonian reduction, the cyclic-quiver examples) is computed with
exact arithmetic and verified by explicit linear algebra.
"""

from .cyclotomic import CycField, CycScalar, cyclotomic_polynomial
from .expr import ParseError, evaluate, evaluate_scalar
from .fiber import (FiberPoint, FullRep, Matrix, OutsideAzumayaLocus,
                    full_matrix_rep, rank1_matrix_rep)
from .lattice import QuiverData, TorusEmbedding, quiver_to_embedding
from .linalg import SpanBasis, nullspace
from .pbw import PBWAlgebra, PBWElement, QmmResult, verify_qmm
from .quiver_examples import (DifferenceOperator, build_an_quiver_algebra,
                              cyclic_quiver, u1_operators, verify_central_z,
                              verify_u1_relations)
from .reduction import (admissible_etas, hamiltonian_reduce, moment_map_ok,
                        moment_values, phi_dagger)

__version__ = "0.1.0"

__all__ = [
    "CycField", "CycScalar", "cyclotomic_polynomial",
    "ParseError", "evaluate", "evaluate_scalar",
    "FiberPoint", "FullRep", "Matrix", "OutsideAzumayaLocus",
    "full_matrix_rep", "rank1_matrix_rep",
    "QuiverData", "TorusEmbedding", "quiver_to_embedding",
    "SpanBasis", "nullspace",
    "PBWAlgebra", "PBWElement", "QmmResult", "verify_qmm",
    "DifferenceOperator", "build_an_quiver_algebra",
    "cyclic_quiver", "u1_operators", "verify_central_z", "verify_u1_relations",
    "admissible_etas", "hamiltonian_reduce", "moment_map_ok", "moment_values",
    "phi_dagger",
    "__version__",
]
