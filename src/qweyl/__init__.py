"""Exact computer algebra for q-Weyl algebras at odd roots of unity.

Scalars live in the cyclotomic field Q(zeta_ell); everything downstream
(PBW normal forms, central elements, matrix fibers, torsion gradings,
Hamiltonian reduction, the cyclic-quiver examples) is computed with
exact arithmetic and verified by explicit linear algebra.

`import qweyl` loads no submodule: each exported name is imported from
its home module on first access, so a process compiles only the layers
it uses.
"""

__version__ = "0.1.0"

# each exported name and the module that defines it
_HOMES = {
    "CycField": "cyclotomic", "CycScalar": "cyclotomic", "cyclotomic_polynomial": "cyclotomic",
    "ParseError": "expr", "evaluate": "expr", "evaluate_scalar": "expr",
    "FiberPoint": "fiber", "FullRep": "fiber", "Matrix": "fiber", "OutsideAzumayaLocus": "fiber",
    "slot_rep": "fiber",
    "TorusEmbedding": "lattice", "quiver_to_embedding": "lattice",
    "SpanBasis": "linalg", "nullspace": "linalg",
    "PBWAlgebra": "pbw", "PBWElement": "pbw", "QmmResult": "pbw", "verify_qmm": "pbw",
    "DifferenceOperator": "quiver_examples", "build_an_quiver_algebra": "quiver_examples",
    "u1_operators": "quiver_examples", "verify_central_z": "quiver_examples",
    "verify_u1_relations": "quiver_examples",
    "admissible_etas": "reduction", "hamiltonian_reduce": "reduction",
    "moment_map_failure": "reduction", "moment_values": "reduction", "phi_dagger": "reduction",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    # not cached here, so qweyl.<name> always reads the home module's
    # current binding (a function patched there included); any other name
    # raises AttributeError, which is also how `from qweyl import cli`
    # falls through to importing the submodule
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *_HOMES})
