"""Quantum Hamiltonian reduction of a matrix fiber by the torsion torus."""

from qweyl import (CycField, FiberPoint, TorusEmbedding, admissible_etas,
                   hamiltonian_reduce)
from qweyl.fiber import digits
from qweyl.reduction import row_weights

F = CycField(3)
emb = TorusEmbedding(matrix=((1,), (1,)), form=((2,),))
p = FiberPoint(field=F, lam=((F.zero, F.zero), (F.zero, F.zero)),
               gamma=(F.one, F.one))

reports = [(eta, hamiltonian_reduce(p, emb, eta)) for eta in admissible_etas(p, emb)]
first = reports[0][1]
print("grading blocks:", first["block_count"], "of size", first["block_size"],
      "-> invariant dimension", first["invariant_dim"])

print()
print("admissible parameters:", [" , ".join(str(v) for v in tup)
                                 for tup, _ in reports])

for eta, rep in reports:
    print()
    print(f"eta = ({', '.join(str(v) for v in eta)}):")
    for key in ("invariant_dim", "block_count", "block_size", "ideal_dim",
                "quotient_dim", "module_dim", "is_matrix_algebra", "eta_admissible"):
        print(f"  {key}: {rep[key]}")
    # the invariant module is the column space at the first row of the shift's coset
    shift = tuple(rep["shift"])
    u = digits(row_weights(emb, 3).index(shift), 3, emb.n)
    print(f"  shift: {shift}, shifted gamma: "
          f"({', '.join(str(p.gamma[i] * F.qpow(-2 * u[i])) for i in range(emb.n))})")

print()
empty = hamiltonian_reduce(p, emb, (F.scalar(5),))
listing = "; ".join("(" + ", ".join(tup) + ")" for tup in empty["admissible"])
print(f"eta = 5 -> empty reduction: eta is not in the admissible set {{{listing}}}")
