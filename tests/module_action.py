"""The all-pairs action on the splitting module, a test oracle for the
generator actions of qweyl.fiber.endo_splitting_check.

The module is the fiber D_lambda modulo the left ideal of the
alpha_i - gamma_i, with the basis keys that are not pivots of that ideal
(in basis_keys order).  The matrix of a fiber basis monomial u sends the
j-th module basis element b to u * b reduced modulo the ideal: one fiber
product per pair (u, b).
"""

from qweyl import FiberAlgebra


def all_pairs_action(fib: FiberAlgebra) -> dict:
    """{basis key: entries of the matrix of that fiber monomial on the module}."""
    gens = [fib.alpha(i + 1) - fib.point.gamma[i] for i in range(fib.n)]
    ideal = fib.left_ideal(gens)
    pivots = set(ideal.pivots())
    module_basis = [key for key in fib.basis_keys() if key not in pivots]
    coord = {key: idx for idx, key in enumerate(module_basis)}

    def action(key) -> dict:
        u = fib.monomial(*key)
        return {(coord[i], j): v for j, bkey in enumerate(module_basis)
                for i, v in ideal.reduce((u * fib.monomial(*bkey)).terms).items()}

    return {key: action(key) for key in fib.basis_keys()}
