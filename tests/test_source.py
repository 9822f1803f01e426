"""Checks on the package source itself."""

import ast
import dataclasses
import inspect
from collections import Counter
from pathlib import Path

import qweyl

SRC = Path(__file__).resolve().parent.parent / "src" / "qweyl"
DEMOS = SRC.parent.parent / "demos"


def test_package_has_no_bare_asserts():
    # python -O strips assert statements, so no check may rest on one
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert list(SRC.rglob("*.py")) and not found, found


def test_all_matches_public_names():
    # a name deleted from a module must leave the exports too
    listed = qweyl.__all__
    assert len(listed) == len(set(listed))
    assert all(hasattr(qweyl, name) for name in listed)
    public = {name for name, obj in vars(qweyl).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public <= set(listed), public - set(listed)


def test_package_has_no_floats():
    # exactness is absolute: no float literal and no use of the name float
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  or isinstance(node, ast.Name) and node.id == "float"]
    assert list(SRC.rglob("*.py")) and not found, found


def test_no_unused_imports():
    # a name imported into a module and never read there is dead weight
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used]
    assert modules and not found, found


def names_read(tree):
    """How often each name is read in tree, as a variable or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_function_has_a_reader():
    # a function or method of the package that neither the package nor a
    # demo names outside its own def is dead code (dunders are called by
    # Python itself)
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) + sorted(DEMOS.glob("*.py"))}
    read = sum((names_read(tree) for tree in trees.values()), Counter())
    defs = [(path.name, node) for path, tree in trees.items() if path.parent == SRC
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    unread = [f"{name}:{node.name}" for name, node in defs
              if not (node.name.startswith("__") and node.name.endswith("__"))
              and read[node.name] == names_read(node)[node.name]]
    assert len(defs) > 100 and list(DEMOS.glob("*.py")) and not unread, unread


def calls(node, name):
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def callers_of(name):
    """(module file, top-level definition) of each call of name in the package."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [(path.name, getattr(top, "name", None)) for top in tree.body
                  for node in ast.walk(top) if calls(node, name)]
    return found


def test_one_certificate_rule():
    # linalg.rank is the only reader of a modular_rank result, and only the
    # center check calls it, so no second certificate path can grow back
    # unnoticed; the fiber-rep span is decided by its generation certificate
    # and counts no rank, so the monomial span count lives in the tests
    assert callers_of("modular_rank") == [("linalg.py", "rank")]
    assert callers_of("rank") == [("pbw.py", "center_report")]
    assert callers_of("basis_rank") == []


def imports_of(tree):
    """The import nodes of tree, and the modules and names they import from
    ("from . import linalg" gives linalg too)."""
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    sources = {node.module or "" for node in imports if isinstance(node, ast.ImportFrom)} | {
        alias.name for node in imports for alias in node.names}
    return imports, sources


def test_fiber_imports_nothing_from_linalg():
    imports, sources = imports_of(ast.parse((SRC / "fiber.py").read_text(encoding="utf-8")))
    assert imports and not any(m.split(".")[-1] == "linalg" for m in sources), sources


def test_full_rep_holds_its_images_only():
    # the model is its generator images: no word cache can grow back on it
    from qweyl.fiber import FullRep
    assert [f.name for f in dataclasses.fields(FullRep)] == ["field", "size", "x", "d"]
    assert [name for name, v in vars(FullRep).items()
            if inspect.isfunction(v) and not name.startswith("__")] == ["of_element"]


def test_the_fiber_rep_span_path_is_chosen_in_fiber():
    # fiber.fiber_rep_report alone reads the generation certificate
    assert callers_of("unreached_row") == [("fiber.py", "fiber_rep_report")]


def test_one_presentation_check_and_no_sampling():
    # fiber-rep's relations are the presentation check alone, read by
    # fiber_rep_report; no random draw can come back into a verdict
    assert callers_of("presentation_failure") == [("fiber.py", "fiber_rep_report")]
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Import) and any(a.name == "random" for a in node.names)
                  or isinstance(node, ast.ImportFrom) and node.module == "random"]
    assert list(SRC.glob("*.py")) and not found, found


def test_cli_only_parses_dispatches_and_prints():
    # every verdict cli reports is computed in its own layer: cli imports
    # nothing from linalg and names none of the pieces a verdict is built from
    cli = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    imports, sources = imports_of(cli)
    assert imports and not any(m.split(".")[-1] == "linalg" for m in sources), sources
    named = {node.id for node in ast.walk(cli) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(cli) if isinstance(node, ast.Attribute)} | {
        alias.asname or alias.name for node in imports for alias in node.names} | {
        alias.name for node in imports for alias in node.names}
    assert not named & {"unreached_row", "basis_rank", "presentation_failure",
                        "commutator_rows", "modular_rank", "nullspace", "rank",
                        "verify_qmm", "verify_u1_relations", "verify_central_z",
                        "build_an_quiver_algebra", "is_central"}, named


def test_center_rows_form_no_general_product():
    # commutator_rows reads each [b, g] off its closed form: the general
    # product cannot come back into the row builder
    assert callers_of("commutator") and callers_of("_terms")
    assert all(top != "commutator_rows" for _, top in callers_of("commutator") + callers_of("_terms"))


def test_one_builder_of_the_moment_map_on_each_side():
    # the matrix images I + x_i d_i are built by alpha_images alone, and the
    # algebra identity alpha_i g = q^(2 s_i) g alpha_i is checked by verify_qmm
    # alone: no second copy of either can grow back
    assert callers_of("alpha_images") == [("fiber.py", "fiber_rep_report"),
                                          ("reduction.py", "moment_map_ok")]
    assert callers_of("verify_qmm") == [("pbw.py", "qmm_report"), ("pbw.py", "center_report")]
    assert not hasattr(qweyl.fiber, "Rank1Rep") and not hasattr(qweyl.pbw, "_alpha_scales_by_weight")


def test_one_quantum_moment_map_identity():
    # verify_qmm takes the alpha exponent u in Z^n: y and z are labels of the
    # qmm-check report, so no kind switch and no weight-lattice degree grow back
    assert list(inspect.signature(qweyl.pbw.verify_qmm).parameters) == ["a", "u"]
    tree = ast.parse((SRC / "pbw.py").read_text(encoding="utf-8"))
    compared = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                for side in [node.left, *node.comparators]
                if isinstance(side, ast.Constant) and side.value in ("y", "z")]
    assert not compared, compared
    assert not hasattr(qweyl.pbw.PBWElement, "k_degree")
    assert callers_of("verify_qmm") == [("pbw.py", "qmm_report"), ("pbw.py", "center_report")]


def test_one_twist_formula_on_each_side():
    # the matrix model places each generator with its own twist, and the
    # algebra reads the pairings once: no general untwist can grow back
    assert not hasattr(qweyl.fiber, "untwist") and "untwist" not in qweyl.__all__
    assert callers_of("pairing_matrix") == [("fiber.py", "full_matrix_rep"), ("pbw.py", "PBWAlgebra")]


def test_one_seam_rule_builds_the_rank_one_model():
    # the rank-one model states delta_r = gamma q^(-2r) - 1 once, for every
    # row, and finds its seam row without a root search
    src = inspect.getsource(qweyl.fiber.rank1_matrix_rep)
    assert src.count("F.qpow(-2 * r)") == 1 and "k0" not in src


def test_one_model_of_the_fiber():
    # D_lambda is modelled by FullRep alone: the abstract quotient and its
    # splitting check are the test oracle in tests/splitting.py, so no
    # PBWAlgebra subclass and no elimination over fiber elements grow back
    tree = ast.parse((SRC / "fiber.py").read_text(encoding="utf-8"))
    subclasses = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  and any(ast.unparse(base).endswith("PBWAlgebra") for base in node.bases)]
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert tree.body and not subclasses and "SpanBasis" not in imported, subclasses
    assert not {"FiberAlgebra", "endo_splitting_check"} & set(qweyl.__all__)


def test_cyclotomic_keeps_no_cache_beyond_a_field():
    # the product memo is made in CycField.__init__, so it lasts one field;
    # a module- or class-level dict, list or set, or a cache decorator other
    # than the one on cyclotomic_polynomial, would outlive it, and a key on
    # id() would be reused after garbage collection
    tree = ast.parse((SRC / "cyclotomic.py").read_text(encoding="utf-8"))
    containers = (ast.Dict, ast.DictComp, ast.List, ast.ListComp, ast.Set, ast.SetComp,
                  ast.Call)
    tops = tree.body + [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                        for node in cls.body]
    stored = [f"line {node.lineno}" for node in tops
              if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
              and any(isinstance(part, containers) for part in ast.walk(node.value))]
    assert not stored, stored
    cached = [node.name for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and any("cache" in ast.unparse(dec) for dec in node.decorator_list)]
    assert cached == ["cyclotomic_polynomial"]
    assert not [node.lineno for node in ast.walk(tree) if calls(node, "id")]
    [field] = [node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "CycField"]
    [init] = [node for node in field.body
              if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    made = [node for node in ast.walk(init) if isinstance(node, ast.Assign)
            and ast.unparse(node.targets[0]) == "self._products"]
    assert len(made) == 1 and isinstance(made[0].value, ast.Dict) and not made[0].value.keys
