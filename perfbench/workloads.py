"""Seeded qweyl configs for the benchmark workloads, and the checks on their reports.

Every workload is a list of cases.  A case is one config file, run through
`qweyl report` as one call, plus what its report must say.  The seed only
picks the fiber points, the reduction parameters and the normalize
expressions; the shape of each case (ell, n, embedding, task types, which
factors have c = 0) is fixed, so run time hardly depends on the seed.

At the default seed the byte-exact report is also pinned by its sha256
(see reference.json).  At every seed the report must meet the structural
expectations built here: the expected `ok` per task and the closed-form
dimensions.  Cases that are designed to fail (an off-locus point, an
inadmissible eta) expect `ok: false`.

This module uses the standard library only; it never imports qweyl.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

DEFAULT_SEED = 1
WORKLOADS = ("fiber", "reduce", "algebra")

# In an expectation, ANY accepts every value but requires the key to exist.
ANY = object()


@dataclass(frozen=True)
class Case:
    name: str
    config: dict
    expect: dict  # expectations on the whole report, matched by `mismatches`
    headline: bool = False

    def config_bytes(self) -> bytes:
        return (json.dumps(self.config, indent=2) + "\n").encode("utf-8")


# -- scalar expressions in the qweyl grammar -------------------------------

def _poly(terms: list[tuple[Fraction, int]]) -> str:
    """A sum of c*q^e terms as an expression string, e.g. "2 - q^3"."""
    out = []
    for c, e in terms:
        c = Fraction(c)
        if not c:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            body = f"q^{e}" if mag == 1 else f"{mag}*q^{e}"
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out) or "0"


_RATIONALS = tuple(Fraction(a, b) for a in (2, 3, 5, 7) for b in (1, 2, 3) if a != b)


def _rational(rng: random.Random) -> Fraction:
    return rng.choice((-1, 1)) * rng.choice(_RATIONALS)


# The seed picks signs, small primes and roots of unity but never the
# exponent pattern or the size of a scalar: which coefficients of an entry
# are nonzero, and how long their numerators are, set the cost of every
# product, so keeping them fixed keeps run time close across seeds while
# the points themselves differ.

def _generic_factor(rng: random.Random, ell: int) -> tuple[list[str], str]:
    """A locus point with c != 0: gamma = +-2 +- q, c = +-p, w = (gamma^ell - 1)/c."""
    gamma = _poly([(rng.choice((-2, 2)), 0), (rng.choice((-1, 1)), 1)])
    c = Fraction(rng.choice((-7, -5, -3, -2, 2, 3, 5, 7)))
    return [str(c), f"(({gamma})^{ell} - 1)*({1 / c})"], gamma


def _c_zero_factor(rng: random.Random, ell: int) -> tuple[list[str], str]:
    """A locus point with c = 0: gamma is a power of q and w is arbitrary."""
    w = _poly([(rng.choice((-2, 2)), 0), (rng.choice((-1, 1)), 1)])
    return ["0", w], f"q^{rng.randrange(ell)}"


def _off_locus_factor(rng: random.Random, ell: int) -> tuple[list[str], str]:
    """A point with 1 + c w = 0, so gamma = 0; no matrix model exists there."""
    c = _rational(rng)
    j = rng.randrange(ell)
    return [_poly([(c, j)]), _poly([(-1 / c, (-j) % ell)])], "0"


def _torus_factors(rng: random.Random, ell: int, matrix: list[list[int]],
                   shift_row: list[int]) -> list[tuple[list[str], str]]:
    """Locus points gamma_i = s^(u_i) q^(2 r_i + k_i), where M^T u = 0 over the
    integers and M^T k = 0 mod ell.

    Then prod_i gamma_i^(m_ij) = q^(2 t_j) for t = M^T r, so every
    moment-diagonal entry is q^(2 t_j) (q^(-2 v) - 1) for some v and the
    admissible eta is 1: the scalars the reduction inverts have the same
    shape at every seed, while s, u, k and r (and so the points) vary.
    """
    n, d = len(matrix), len(matrix[0])

    def kernel(values, modulus=None):
        """Nonzero v with M^T v = 0, exactly or mod `modulus`."""
        out = []
        for v in _vectors(n, values):
            image = [sum(matrix[i][j] * v[i] for i in range(n)) for j in range(d)]
            if any(v) and not any(x % modulus if modulus else x for x in image):
                out.append(v)
        return out

    k = rng.choice(kernel(range(ell), ell))
    u = rng.choice(kernel((-1, 0, 1)))
    s = _rational(rng)
    out = []
    for i in range(n):
        gamma = _poly([(s ** u[i], (2 * shift_row[i] + k[i]) % ell)])
        c = _poly([(_rational(rng), rng.randrange(ell))])
        out.append(([c, f"({gamma})^{ell}*({c})^-1 - ({c})^-1"], gamma))
    return out


def _vectors(n: int, values) -> list[list[int]]:
    out = [[]]
    for _ in range(n):
        out = [v + [x] for v in out for x in values]
    return out


def _point(factors: list[tuple[list[str], str]]) -> dict:
    return {"lambda": [lam for lam, _ in factors], "gamma": [g for _, g in factors]}


# -- embeddings ------------------------------------------------------------

def _diagonal(n: int) -> dict:
    return {"matrix": [[int(i == j) for j in range(n)] for i in range(n)],
            "form": [[2 * int(i == j) for j in range(n)] for i in range(n)]}


def _all_ones(n: int) -> dict:
    return {"matrix": [[1] for _ in range(n)], "form": [[2]]}


CYCLIC3 = {"vertices": 3, "edges": [[1, 2], [2, 3], [3, 1]]}
# weight matrix of CYCLIC3 as quiver_to_embedding builds it: arrow a -> b has
# weight e_b - e_a in the basis e_1 - e_3, e_2 - e_3
CYCLIC3_MATRIX = [[-1, 1], [0, -1], [1, 0]]


def _fiber_case(name: str, ell: int, shape: dict, factors, headline=False) -> Case:
    n = len(factors)
    off = any(g == "0" for _, g in factors)
    task = {"type": "fiber-rep", "point": _point(factors)}
    if off:
        expect_task = {"type": "fiber-rep", "error": ANY, "ok": False}
    else:
        dim = ell ** (2 * n)
        expect_task = {"type": "fiber-rep", "in_azumaya_locus": True,
                       "relations_ok": True, "alpha_diagonal_ok": True,
                       "span_dimension": dim, "expected_span_dimension": dim,
                       "ok": True}
    cfg = {"ell": ell, **shape, "tasks": [task]}
    return Case(name, cfg, {"ell": ell, "n": n, "all_ok": not off,
                            "tasks": [expect_task]}, headline)


def fiber_cases(rng: random.Random) -> list[Case]:
    return [
        _fiber_case("fiber-diag-l5n2", 5, {"embedding": _diagonal(2)},
                    [_generic_factor(rng, 5), _generic_factor(rng, 5)]),
        _fiber_case("fiber-braided-l5n2", 5, {"embedding": _all_ones(2)},
                    [_generic_factor(rng, 5), _c_zero_factor(rng, 5)], headline=True),
        _fiber_case("fiber-cyclic-l3n3", 3, {"quiver": CYCLIC3},
                    [_generic_factor(rng, 3) for _ in range(3)]),
        _fiber_case("fiber-offlocus-l3n2", 3, {"embedding": _all_ones(2)},
                    [_off_locus_factor(rng, 3), _generic_factor(rng, 3)]),
    ]


def _reduce_case(rng: random.Random, name: str, ell: int, shape: dict,
                 matrix: list[list[int]], admissible=True, headline=False) -> Case:
    n, d = len(matrix), len(matrix[0])
    # eta_j = prod_i gamma_i^{m_ij} * q^(-2 t_j), t = M^T r for a seeded row r
    r = [rng.randrange(ell) for _ in range(n)]
    shift = [sum(matrix[i][j] * r[i] for i in range(n)) % ell for j in range(d)]
    factors = _torus_factors(rng, ell, matrix, r)
    eta = []
    for j in range(d):
        parts = [f"({factors[i][1]})^{matrix[i][j]}" for i in range(n) if matrix[i][j]]
        parts.append(f"q^{-2 * shift[j]}")
        eta.append(("" if admissible else "2*") + "*".join(parts))
    task = {"type": "reduce", "point": _point(factors), "eta": eta}
    m = ell ** (n - d)
    if admissible:
        expect_task = {"type": "reduce", "eta_admissible": True, "shift": shift,
                       "invariant_dim": ell ** d * m * m, "block_count": ell ** d,
                       "block_size": m, "ideal_dim": (ell ** d - 1) * m * m,
                       "quotient_dim": m * m, "module_dim": m,
                       "is_matrix_algebra": True, "module_action_bijective": True,
                       "ok": True}
    else:
        expect_task = {"type": "reduce", "eta_admissible": False,
                       "admissible": [ANY] * ell ** d, "ok": False}
    cfg = {"ell": ell, **shape, "tasks": [task]}
    return Case(name, cfg, {"ell": ell, "n": n, "d": d, "all_ok": admissible,
                            "tasks": [expect_task]}, headline)


def reduce_cases(rng: random.Random) -> list[Case]:
    ones4 = _all_ones(4)
    ones2 = _all_ones(2)
    return [
        _reduce_case(rng, "reduce-l3n4", 3, {"embedding": ones4},
                     ones4["matrix"], headline=True),
        _reduce_case(rng, "reduce-l7n2", 7, {"embedding": ones2}, ones2["matrix"]),
        _reduce_case(rng, "reduce-cyclic-l3n3", 3, {"quiver": CYCLIC3}, CYCLIC3_MATRIX),
        _reduce_case(rng, "reduce-inadmissible-l3n2", 3, {"embedding": ones2},
                     ones2["matrix"], admissible=False),
    ]


def _center_case(name: str, ell: int, n: int, deg: int, headline=False) -> Case:
    dim = (deg // ell + 1) ** (2 * n)
    cfg = {"ell": ell, "embedding": _all_ones(n),
           "tasks": [{"type": "center-check", "max_degree": deg}]}
    expect_task = {"type": "center-check", "max_degree": deg, "dimension": dim,
                   "expected_dimension": dim, "matches_ell_power_span": True,
                   "basis": [ANY] * dim, "ok": True}
    return Case(name, cfg, {"ell": ell, "n": n, "all_ok": True,
                            "tasks": [expect_task]}, headline)


def _word(rng: random.Random, n: int, ell: int) -> str:
    factors = [f"q^{rng.randrange(1, ell)}"]
    for _ in range(rng.randrange(2, 5)):
        factors.append(f"{rng.choice('xda')}{rng.randrange(1, n + 1)}^{rng.randrange(1, 5)}")
    return "*".join(factors)


def _expressions(rng: random.Random, ell: int, n: int) -> tuple[list[str], list[dict]]:
    exprs, expect = [], []
    for _ in range(4):
        exprs.append(f"{_word(rng, n, ell)} + {rng.randrange(1, 10)}*{_word(rng, n, ell)}")
        expect.append({"normal_form": ANY, "is_central": ANY})
    i, j = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
    # ell-th powers of generators are central; lower powers of x or d are not
    exprs.append(f"x{i}^{ell}*d{j}^{ell}")
    expect.append({"normal_form": ANY, "is_central": True})
    exprs.append(f"{rng.choice('xd')}{i}^{rng.randrange(1, ell)}")
    expect.append({"normal_form": ANY, "is_central": False})
    # the defining relation d x = q^2 x d + (q^2 - 1) normalizes to zero
    exprs.append(f"d{j}*x{j} - q^2*x{j}*d{j} - q^2 + 1")
    expect.append({"normal_form": "0", "is_central": True})
    return exprs, [{"input": e, **x} for e, x in zip(exprs, expect)]


def algebra_cases(rng: random.Random) -> list[Case]:
    ell, n = 13, 2
    exprs, expr_expect = _expressions(rng, ell, n)
    suite = {"ell": ell, "embedding": _all_ones(n), "tasks": [
        {"type": "quiver-suite", "n": 3},
        {"type": "qmm-check"},
        {"type": "normalize", "expressions": exprs},
    ]}
    suite_expect = {"ell": ell, "n": n, "d": 1, "all_ok": True, "tasks": [
        {"type": "quiver-suite", "n": 3, "ok": True},
        {"type": "qmm-check", "checks": [ANY] * ((n + 1) * 2 * n), "ok": True},
        {"type": "normalize", "expressions": expr_expect, "ok": True},
    ]}
    return [
        _center_case("center-l3n2-d6", 3, 2, 6, headline=True),
        _center_case("center-l13n1-d26", 13, 1, 26),
        Case("suite-l13", suite, suite_expect),
    ]


_CASES = {"fiber": fiber_cases, "reduce": reduce_cases, "algebra": algebra_cases}


def generate(workload: str, seed: int) -> list[Case]:
    """The cases of a workload; the same (workload, seed) gives the same bytes."""
    if workload not in _CASES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _CASES[workload](random.Random(f"{workload}:{seed}"))


# -- checks ------------------------------------------------------------------

def mismatches(expected: Any, actual: Any, path: str = "report") -> list[str]:
    """Where actual fails expected.  Dicts match on the expected keys only,
    lists must have the same length, and ANY accepts every value."""
    if expected is ANY:
        return []
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object, got {actual!r}"]
        out = []
        for key, exp in expected.items():
            if key not in actual:
                out.append(f"{path}.{key}: missing")
            else:
                out.extend(mismatches(exp, actual[key], f"{path}.{key}"))
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            got = len(actual) if isinstance(actual, list) else type(actual).__name__
            return [f"{path}: expected a list of {len(expected)}, got {got}"]
        out = []
        for i, (exp, act) in enumerate(zip(expected, actual)):
            out.extend(mismatches(exp, act, f"{path}[{i}]"))
        return out
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []


def check_report(case: Case, data: bytes, reference: Optional[str]) -> list[str]:
    """Problems with one report: fingerprint (when a reference is given) and structure."""
    problems = []
    if reference is not None:
        digest = hashlib.sha256(data).hexdigest()
        if digest != reference:
            problems.append(f"{case.name}: sha256 {digest} differs from the reference {reference}")
    try:
        report = json.loads(data)
    except ValueError as err:
        return problems + [f"{case.name}: report is not JSON ({err})"]
    problems.extend(f"{case.name}: {m}" for m in mismatches(case.expect, report))
    return problems
