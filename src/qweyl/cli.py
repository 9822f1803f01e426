"""Command-line front end: parse, verify, report.

Configs and reports are JSON.  Exact scalars travel as text in the
expression grammar ("q^2 - 1", "-1/3"), never as floats.  Reports are
byte-identical across runs with the same config: orderings are
canonical and no timestamps are embedded.  The report's "seed" key is
the constant DEFAULT_SEED, kept so that the report format stays the same;
no computation reads it.

At import, cli loads only what validating a config needs (`cyclotomic`,
`lattice`, `linalg`), besides `argparse` and `json`, which every command
uses; each task's runner imports its own layers when it first runs, so a
process compiles only the layers its tasks use.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .cyclotomic import CycField, check_order
from .lattice import TorusEmbedding, quiver_to_embedding

DEFAULT_SEED = 20240901


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
    check_order(cfg.get("ell"))
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
        if not isinstance(task, dict) or task.get("type") not in _RUNNERS:
            raise ValueError(
                f"task {i}: 'type' must be one of {', '.join(_RUNNERS)}")
        if task["type"] == "normalize":
            exprs = task.get("expressions")
            if not (isinstance(exprs, list) and exprs and all(isinstance(e, str) for e in exprs)):
                raise ValueError(f"task {i}: 'expressions' must be a nonempty list of strings")
        if task["type"] == "center-check" and "max_degree" in task:
            deg = task["max_degree"]
            if type(deg) is not int or deg < 0:  # bool is an int subclass
                raise ValueError(f"task {i}: 'max_degree' must be an integer >= 0")
        if task["type"] in ("fiber-rep", "reduce"):
            _check_point(task.get("point", {}), emb.n, i)
        if task["type"] == "reduce":
            if not _is_list(task.get("eta"), emb.d):
                raise ValueError(f"task {i}: 'eta' must be a list of {emb.d} entries")
            _check_strings(task["eta"], "eta", i)
        if task["type"] == "quiver-suite" and "n" in task:
            n = task["n"]
            if type(n) is not int or n < 2:  # bool is an int subclass
                raise ValueError(f"task {i}: 'n' must be an integer >= 2")
    return emb


def _is_list(value, length: int) -> bool:
    return isinstance(value, list) and len(value) == length


def _check_strings(values: list, field: str, i: int) -> None:
    """Scalar entries are expression strings: a JSON number or true is not."""
    if not all(isinstance(v, str) for v in values):
        raise ValueError(f"task {i}: '{field}' entries must be expression strings")


def _check_point(point, n: int, i: int) -> None:
    """Shapes of a fiber point; build_point evaluates its scalar values."""
    if not isinstance(point, dict):
        raise ValueError(f"task {i}: 'point' must be an object")
    lam = point.get("lambda")
    if not _is_list(lam, n) or not all(_is_list(pair, 2) for pair in lam):
        raise ValueError(f"task {i}: 'lambda' must be a list of {n} [c, w] pairs")
    gamma = point.get("gamma")
    if not _is_list(gamma, n):
        raise ValueError(f"task {i}: 'gamma' must be a list of {n} entries")
    _check_strings([v for pair in lam for v in pair], "lambda", i)
    _check_strings(gamma, "gamma", i)


def build_embedding(cfg: dict) -> TorusEmbedding:
    if "embedding" in cfg:
        return TorusEmbedding(matrix=cfg["embedding"]["matrix"], form=cfg["embedding"]["form"])
    quiver = cfg["quiver"]
    return quiver_to_embedding(quiver["vertices"], quiver["edges"])


def build_point(field: CycField, data: dict):
    """The fiber.FiberPoint of a validated 'point' object."""
    from .expr import evaluate_scalar
    from .fiber import FiberPoint
    lam = tuple((evaluate_scalar(c, field), evaluate_scalar(w, field)) for c, w in data["lambda"])
    gamma = tuple(evaluate_scalar(g, field) for g in data["gamma"])
    return FiberPoint(field=field, lam=lam, gamma=gamma)


def _normalize(algebra, task: dict) -> dict:
    from .expr import normalize_report
    return normalize_report(algebra, task["expressions"])


def _center_check(algebra, task: dict) -> dict:
    from .pbw import center_report
    return center_report(algebra, task.get("max_degree", 6))


def _fiber_rep(algebra, task: dict) -> dict:
    from .fiber import fiber_rep_report
    return fiber_rep_report(build_point(algebra.field, task["point"]), algebra)


def _reduce(algebra, task: dict) -> dict:
    from .expr import evaluate_scalar
    from .reduction import hamiltonian_reduce
    return hamiltonian_reduce(build_point(algebra.field, task["point"]), algebra.emb,
                              tuple(evaluate_scalar(v, algebra.field) for v in task["eta"]))


def _quiver_suite(algebra, task: dict) -> dict:
    from .quiver_examples import quiver_suite_report
    return quiver_suite_report(algebra.field, task.get("n", 3))


def _qmm_check(algebra, task: dict) -> dict:
    from .pbw import qmm_report
    return qmm_report(algebra)


# each task type, in the order the config error lists them, and the one
# call that builds its report from the algebra and the validated task; each
# imports the layers it calls, so no layer is compiled before a task needs it
_RUNNERS = {
    "normalize": _normalize,
    "center-check": _center_check,
    "fiber-rep": _fiber_rep,
    "reduce": _reduce,
    "quiver-suite": _quiver_suite,
    "qmm-check": _qmm_check,
}


def run_suite(cfg: dict, emb: Optional[TorusEmbedding] = None) -> dict:
    """Run every task of cfg; emb, when given, is what validate_config(cfg) returned."""
    from .pbw import PBWAlgebra
    if emb is None:
        emb = validate_config(cfg)
    algebra = PBWAlgebra(CycField(cfg["ell"]), emb)
    entries = []
    for task in cfg["tasks"]:
        entry = {"type": task["type"]}
        try:
            entry.update(_RUNNERS[task["type"]](algebra, task))
        except ValueError as err:  # OutsideAzumayaLocus is a ValueError
            entry["error"] = str(err)
            entry["ok"] = False
        entries.append(entry)
    return {"ell": cfg["ell"], "n": emb.n, "d": emb.d, "seed": DEFAULT_SEED,
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after."""
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

    return parser


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "normalize":
        from .expr import ParseError, evaluate
        from .pbw import PBWAlgebra
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
                emb = TorusEmbedding(matrix=matrix, form=form)
            algebra = PBWAlgebra(field, emb)
            for src in args.expressions:
                print(str(evaluate(src, algebra)))
            return 0
        except (OSError, ParseError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2

    try:
        cfg, emb = load_config(args.config)
    except (OSError, json.JSONDecodeError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    report = run_suite(cfg, emb)

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
