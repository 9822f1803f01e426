"""Command-line front end: parse, verify, report.

Configs and reports are JSON.  Exact scalars travel as text in the
expression grammar ("q^2 - 1", "-1/3"), never as floats.  Reports are
byte-identical across runs with the same config: orderings are
canonical, the sampling seed is fixed (QWEYL_SEED overrides it), and
no timestamps are embedded.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from itertools import product as iproduct
from typing import Optional

from .cyclotomic import CycField
from .expr import ParseError, evaluate, evaluate_scalar
from .fiber import (FiberPoint, Matrix, OutsideAzumayaLocus, central_values_ok, digits,
                    full_matrix_rep, span_dimension)
from .lattice import IntMatrix, QuiverData, TorusEmbedding, quiver_to_embedding
from .linalg import rank
from .pbw import PBWAlgebra, verify_qmm
from .quiver_examples import (build_an_quiver_algebra, verify_central_z,
                              verify_u1_relations)
from .reduction import EmptyReductionError, hamiltonian_reduce

DEFAULT_SEED = 20240901
TASK_TYPES = ("normalize", "center-check", "fiber-rep", "reduce",
              "quiver-suite", "qmm-check")


def load_config(path: str) -> tuple[dict, TorusEmbedding]:
    """The config at path and the embedding its validation builds."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except RecursionError:
            raise ValueError("config is nested too deeply to parse") from None
    return cfg, validate_config(cfg)


def validate_config(cfg: dict) -> TorusEmbedding:
    """Check the shape of a config; return the embedding it builds."""
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    ell = cfg.get("ell")
    if not isinstance(ell, int) or ell <= 1 or ell % 2 == 0:
        raise ValueError("config needs an odd integer ell > 1")
    has_emb = "embedding" in cfg
    has_quiver = "quiver" in cfg
    if has_emb == has_quiver:
        raise ValueError("config needs exactly one of 'embedding' or 'quiver'")
    if has_emb:
        emb = cfg["embedding"]
        if not isinstance(emb, dict) or "matrix" not in emb or "form" not in emb:
            raise ValueError("'embedding' needs 'matrix' and 'form'")
    else:
        q = cfg["quiver"]
        if not isinstance(q, dict) or "vertices" not in q or "edges" not in q:
            raise ValueError("'quiver' needs 'vertices' and 'edges'")
    emb = build_embedding(cfg)
    tasks = cfg.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise ValueError("config needs a nonempty 'tasks' list")
    for i, task in enumerate(tasks):
        if not isinstance(task, dict) or task.get("type") not in TASK_TYPES:
            raise ValueError(
                f"task {i}: 'type' must be one of {', '.join(TASK_TYPES)}")
        if task["type"] == "normalize":
            exprs = task.get("expressions", [])
            if not isinstance(exprs, list) or not all(isinstance(e, str) for e in exprs):
                raise ValueError(f"task {i}: 'expressions' must be a list of strings")
        if task["type"] == "center-check":
            deg = task.get("max_degree", 6)
            if type(deg) is not int or deg < 0:  # bool is an int subclass
                raise ValueError(f"task {i}: 'max_degree' must be an integer >= 0")
        if task["type"] in ("fiber-rep", "reduce"):
            _check_point(task.get("point", {}), emb.n, i)
        if task["type"] == "reduce" and not _is_list(task.get("eta"), emb.d):
            raise ValueError(f"task {i}: 'eta' must be a list of {emb.d} entries")
        if task["type"] == "quiver-suite":
            n = task.get("n", 3)
            if type(n) is not int or n < 2:  # bool is an int subclass
                raise ValueError(f"task {i}: 'n' must be an integer >= 2")
    return emb


def _is_list(value, length: int) -> bool:
    return isinstance(value, list) and len(value) == length


def _check_point(point, n: int, i: int) -> None:
    """Shapes of a fiber point; build_point evaluates its scalar values."""
    if not isinstance(point, dict):
        raise ValueError(f"task {i}: 'point' must be an object")
    lam = point.get("lambda")
    if not _is_list(lam, n) or not all(_is_list(pair, 2) for pair in lam):
        raise ValueError(f"task {i}: 'lambda' must be a list of {n} [c, w] pairs")
    if not _is_list(point.get("gamma"), n):
        raise ValueError(f"task {i}: 'gamma' must be a list of {n} entries")


def _int_rows(value, name: str) -> IntMatrix:
    """value as a tuple of int tuples; floats and bools are rejected."""
    if not isinstance(value, list) or not all(
            isinstance(row, list) and all(type(v) is int for v in row) for row in value):
        raise ValueError(f"{name} must be a list of lists of integers")
    return tuple(tuple(row) for row in value)


def build_embedding(cfg: dict) -> TorusEmbedding:
    if "embedding" in cfg:
        emb = cfg["embedding"]
        matrix = _int_rows(emb["matrix"], "'matrix'")
        form = _int_rows(emb["form"], "'form'")
        return TorusEmbedding(n=len(matrix), d=len(matrix[0]) if matrix else 0,
                              matrix=matrix, form=form)
    quiver = cfg["quiver"]
    edges = _int_rows(quiver["edges"], "'edges'")
    if type(quiver["vertices"]) is not int or any(len(e) != 2 for e in edges):
        raise ValueError("'quiver' needs an integer 'vertices' and [tail, head] 'edges'")
    return quiver_to_embedding(QuiverData.from_json(quiver))


def build_point(field: CycField, data: dict) -> FiberPoint:
    """The fiber point of a validated 'point' object."""
    lam = tuple((evaluate_scalar(str(c), field), evaluate_scalar(str(w), field))
                for c, w in data["lambda"])
    gamma = tuple(evaluate_scalar(str(g), field) for g in data["gamma"])
    return FiberPoint(field=field, lam=lam, gamma=gamma)


# -- task runners ----------------------------------------------------------

def _task_normalize(field, emb, algebra, task, rng):
    exprs = task.get("expressions", [])
    results = []
    ok = True
    for src in exprs:
        try:
            e = evaluate(src, algebra)
            results.append({"input": src, "normal_form": str(e),
                            "is_central": e.is_central()})
        except (ParseError, ValueError) as err:
            ok = False
            results.append({"input": src, "error": str(err)})
    return {"expressions": results, "ok": ok}


def _commutator_rows(algebra, keys) -> list:
    """One row per generator g and monomial of [b, g], b over keys; a solution is central."""
    rows = []
    one = algebra.field.one
    for gi, g in enumerate(algebra.generators()):
        per_key: dict = {}
        for mk in keys:
            comm = algebra.commutator(algebra.monomial(*mk, one), g)
            for out_key, c in comm.terms.items():
                per_key.setdefault((gi, out_key), {})[mk] = c
        rows.extend(per_key.values())
    return rows


def _task_center_check(field, emb, algebra, task, rng):
    deg = int(task.get("max_degree", 6))
    n = emb.n
    # every monomial x^m d^k of degree <= deg in each variable, and the ell-th powers
    keys, expected = ([(m, k) for m in iproduct(exps, repeat=n) for k in iproduct(exps, repeat=n)]
                      for exps in (range(deg + 1), range(0, deg + 1, field.ell)))
    rows = _commutator_rows(algebra, keys)
    # an expected key with a zero column in every row is in the kernel, and then
    # the rows live on the other keys: their rank is at most |keys| - |expected|;
    # the first expected key some row touches is the witness that it is not
    touched = set(expected).intersection(key for r in rows for key in r)
    witness = next((key for key in expected if key in touched), None)
    in_kernel = witness is None
    bound = len(keys) - len(expected) if in_kernel else len(keys)
    dim = len(keys) - rank(lambda: rows, field, bound)
    # the kernel holds those unit vectors, so it is their span iff it has their number
    matches = in_kernel and dim == len(expected)
    basis_strs = sorted(
        str(algebra.monomial(m, k)) for (m, k) in expected) if matches else None
    report = {"max_degree": deg, "dimension": dim,
              "expected_dimension": len(expected),
              "matches_ell_power_span": matches,
              "basis": basis_strs, "ok": matches}
    if witness is not None:
        report["not_central"] = str(algebra.monomial(*witness))
    return report


def _task_fiber_rep(field, emb, algebra, task, rng):
    point = build_point(field, task["point"])
    report: dict = {"in_azumaya_locus": point.in_azumaya_locus()}
    rep = full_matrix_rep(point, emb)
    n, ell = emb.n, field.ell

    def random_monomial():  # exponents m, then k, each drawn below ell
        return algebra.monomial(*(tuple(rng.randrange(ell) for _ in range(n)) for _ in range(2)))

    # algebra map on all generator pairs plus seeded random monomial pairs
    gens = algebra.generators()
    pairs = [(a, b) for a in gens for b in gens] + [
        (random_monomial(), random_monomial()) for _ in range(20)]
    # and the central values x_i^ell = c_i, d_i^ell = w_i of the point
    report["relations_ok"] = relations_ok = all(
        rep.of_element(a * b) == rep.of_element(a) * rep.of_element(b)
        for a, b in pairs) and central_values_ok(rep, point)

    # the image of alpha_i = 1 + x_i d_i is diagonal, gamma_i q^(-2 r_i) in row r
    alpha_ok = all(
        rep.of_element(algebra.alpha(i + 1)) == Matrix.from_diag(
            field, [point.gamma[i] * field.qpow(-2 * digits(idx, ell, n)[i])
                    for idx in range(rep.size)])
        for i in range(n))
    report["alpha_diagonal_ok"] = alpha_ok

    report["span_dimension"] = span_dim = span_dimension(rep, algebra, relations_ok)
    report["expected_span_dimension"] = ell ** (2 * n)
    report["ok"] = relations_ok and alpha_ok and span_dim == ell ** (2 * n)
    return report


def _task_reduce(field, emb, algebra, task, rng):
    point = build_point(field, task["point"])
    eta = tuple(evaluate_scalar(str(v), field) for v in task["eta"])
    try:
        return hamiltonian_reduce(point, emb, eta)
    except EmptyReductionError as err:
        return {"eta_admissible": False,
                "admissible": [[str(v) for v in tup] for tup in err.admissible],
                "ok": False}


def _task_quiver_suite(field, emb, algebra, task, rng):
    n = task.get("n", 3)
    rep = build_an_quiver_algebra(field, n)
    out: dict = {"n": n,
                 "pairing_exponents": {f"{i},{j}": v
                                       for (i, j), v in sorted(rep.pairing_exponents.items())}}
    if rep.table is None:
        out["table"] = None
        table_ok = True
    else:
        out["table"] = {" ".join(str(p) for p in key): bool(v)
                        for key, v in sorted(rep.table.items(), key=lambda kv: str(kv[0]))}
        table_ok = rep.table_verified
    u1 = verify_u1_relations(field, n)
    central = verify_central_z(field, n)
    out["u1_relations"] = u1
    out["central_z"] = central
    out["ok"] = table_ok and u1["all_ok"] and central["all_ok"]
    return out


def _task_qmm_check(field, emb, algebra, task, rng):
    n, d = emb.n, emb.d
    results = []
    ok = True
    targets = algebra.generators()
    hs = [("y", tuple(1 if j == i else 0 for j in range(n))) for i in range(n)] + \
         [("z", tuple(1 if j == i else 0 for j in range(d))) for i in range(d)]
    for kind, r in hs:
        for a in targets:
            res = verify_qmm(a, kind, r)
            if not res:
                ok = False
            results.append({"h": f"{kind}{r}", "target": str(a),
                            "ok": bool(res), "exponent": res.exponent})
    return {"checks": results, "ok": ok}


_RUNNERS = {
    "normalize": _task_normalize,
    "center-check": _task_center_check,
    "fiber-rep": _task_fiber_rep,
    "reduce": _task_reduce,
    "quiver-suite": _task_quiver_suite,
    "qmm-check": _task_qmm_check,
}


def env_seed() -> int:
    """QWEYL_SEED as an integer, or DEFAULT_SEED when it is unset."""
    text = os.environ.get("QWEYL_SEED")
    if text is None:
        return DEFAULT_SEED
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"QWEYL_SEED must be an integer, got {text!r}") from None


def run_suite(cfg: dict, seed: Optional[int] = None,
              emb: Optional[TorusEmbedding] = None) -> dict:
    """Run every task of cfg; emb, when given, is what validate_config(cfg) returned."""
    if emb is None:
        emb = validate_config(cfg)
    if seed is None:
        seed = env_seed()
    field = CycField(cfg["ell"])
    algebra = PBWAlgebra(field, emb)
    entries = []
    for task in cfg["tasks"]:
        rng = random.Random(seed)
        entry = {"type": task["type"]}
        try:
            entry.update(_RUNNERS[task["type"]](field, emb, algebra, task, rng))
        except (ValueError, OutsideAzumayaLocus) as err:
            entry["error"] = str(err)
            entry["ok"] = False
        entries.append(entry)
    return {"ell": cfg["ell"], "n": emb.n, "d": emb.d, "seed": seed,
            "tasks": entries, "all_ok": all(e.get("ok") for e in entries)}


def _dump_report(report: dict, out_path: Optional[str]) -> int:
    """Write the report to out_path or stdout: exit code 0, or 2 when
    out_path cannot be written."""
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if not out_path:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        print(f"error: cannot write the report: {err}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qweyl",
        description="exact computations in q-Weyl algebras at roots of unity")
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("normalize", help="print normal forms of expressions")
    p_norm.add_argument("--ell", type=int, default=None, help="odd order of q")
    p_norm.add_argument("-n", type=int, default=1, help="number of variables")
    p_norm.add_argument("--config", help="take ell and embedding from a config file")
    p_norm.add_argument("expressions", nargs="+")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--out", help="write the JSON report here")

    p_report = sub.add_parser("report", help="emit the full JSON report")
    p_report.add_argument("--config", required=True)
    p_report.add_argument("--out", help="write the JSON report here")

    args = parser.parse_args(argv)

    if args.command == "normalize":
        try:
            if args.config:
                cfg, emb = load_config(args.config)
                field = CycField(cfg["ell"])
            else:
                if args.ell is None:
                    print("normalize needs --ell or --config", file=sys.stderr)
                    return 2
                field = CycField(args.ell)
                n = args.n
                matrix = tuple(tuple(1 if i == j else 0 for j in range(n))
                               for i in range(n))
                form = tuple(tuple(2 if i == j else 0 for j in range(n))
                             for i in range(n))
                emb = TorusEmbedding(n=n, d=n, matrix=matrix, form=form)
            algebra = PBWAlgebra(field, emb)
            for src in args.expressions:
                print(str(evaluate(src, algebra)))
            return 0
        except (OSError, ParseError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2

    try:
        cfg, emb = load_config(args.config)
        seed = env_seed()
    except (OSError, json.JSONDecodeError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    report = run_suite(cfg, seed, emb)

    if args.command == "verify":
        for entry in report["tasks"]:
            status = "pass" if entry.get("ok") else "FAIL"
            extra = f" ({entry['error']})" if "error" in entry else ""
            print(f"{status}  {entry['type']}{extra}")
        if args.out and _dump_report(report, args.out):
            return 2
        print("all checks passed" if report["all_ok"] else "some checks failed")
        return 0 if report["all_ok"] else 1

    return _dump_report(report, args.out)


if __name__ == "__main__":
    sys.exit(main())
