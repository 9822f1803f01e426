"""Checks on the package source itself."""

import ast
import inspect
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import qweyl

SRC = Path(__file__).resolve().parent.parent / "src" / "qweyl"
DEMOS = SRC.parent.parent / "demos"
TESTS = Path(__file__).resolve().parent
SUBMODULES = {f"qweyl.{path.stem}" for path in SRC.glob("*.py") if path.stem != "__init__"}


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
    # the center check is the only reader of a modular_rank result, and
    # nullspace is the one exact solve: no second certificate path and no
    # second entry into SpanBasis can grow back unnoticed; the fiber-rep span
    # is decided by its generation certificate and counts no rank, so the
    # monomial span count and the certified rank live in the tests
    assert callers_of("modular_rank") == [("pbw.py", "center_report")]
    assert callers_of("rank") == []
    assert callers_of("SpanBasis") == [("linalg.py", "nullspace")]
    assert callers_of("basis_rank") == []
    assert not hasattr(qweyl.linalg, "rank")


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
    # the model is its generator images: no word cache can grow back on it,
    # and its field and size are read off them, so they cannot disagree; the
    # dense image of a PBW element is the test oracle in tests/dense_model.py
    from qweyl.fiber import FullRep
    assert FullRep.__slots__ == ("x", "d")
    assert all(isinstance(vars(FullRep)[name], property) for name in ("field", "size"))
    assert [name for name, v in vars(FullRep).items()
            if inspect.isfunction(v) and not name.startswith("__")] == []


def loaded_by(code, modules):
    """Those of modules that a fresh interpreter has loaded once it has run
    code; -S keeps site-packages .pth files out of the module table."""
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); {code}; "
            f"print(*sorted({set(modules)!r} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def loaded_by_the_cli(modules):
    """Those of modules that a fresh `import qweyl.cli` loads."""
    return loaded_by("import qweyl.cli", modules)


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # a qweyl process spends most of its set-up importing: dataclasses brings
    # in inspect, ast, dis and tokenize, and execs each class's methods, so
    # the value classes are plain slotted classes
    assert loaded_by_the_cli({"dataclasses", "inspect"}) == []


def test_a_bare_import_loads_no_submodule():
    # each export is imported from its home module on first access
    assert loaded_by("import qweyl", SUBMODULES) == []


def test_the_cli_loads_only_what_validating_a_config_needs():
    # without .pyc a process compiles every module it imports, so cli
    # imports each task's layers when the task runs, not at import
    validating = ["qweyl.cli", "qweyl.cyclotomic", "qweyl.lattice", "qweyl.linalg"]
    assert loaded_by_the_cli(SUBMODULES) == validating
    assert loaded_by("from qweyl import cli", SUBMODULES) == validating


def test_a_fiber_rep_report_loads_neither_reduction_nor_the_quiver_examples(tmp_path):
    cfg = json.loads((TESTS / "report_configs" / "pair_l3.json").read_text(encoding="utf-8"))
    cfg["tasks"] = [task for task in cfg["tasks"] if task["type"] == "fiber-rep"]
    config, out = tmp_path / "fiber_rep.json", tmp_path / "report.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    run = (f"import qweyl.cli; "
           f"qweyl.cli.main(['report', '--config', {str(config)!r}, '--out', {str(out)!r}])")
    assert loaded_by(run, SUBMODULES) == ["qweyl.cli", "qweyl.cyclotomic", "qweyl.expr",
                                          "qweyl.fiber", "qweyl.lattice", "qweyl.linalg",
                                          "qweyl.pbw"]
    report = json.loads(out.read_text(encoding="utf-8"))
    assert [task["type"] for task in report["tasks"]] == ["fiber-rep"] and report["all_ok"]


def test_every_export_resolves_from_its_home_module():
    # qweyl.<name> and `from qweyl import *` give the home module's object,
    # and a name that is not exported is an AttributeError naming it
    star = {}
    exec("from qweyl import *", star)
    assert set(star) - {"__builtins__"} == set(qweyl.__all__)
    for name in qweyl.__all__:
        if name == "__version__":
            continue
        home = sys.modules[f"qweyl.{qweyl._HOMES[name]}"]
        assert getattr(qweyl, name) is getattr(home, name) is star[name], name
        assert getattr(home, name).__module__ == home.__name__, name
    assert set(qweyl.__all__) <= set(dir(qweyl))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        qweyl.no_such_name


def test_one_rule_for_what_is_a_scalar():
    # Q(q) scalars are parsed, coerced and printed from integers alone, so no
    # module imports fractions (which loads decimal and numbers too), and
    # CycField.scalar is the one place that tests a value's type to decide
    # whether it is a scalar; a caller's Fraction is read through its
    # integer numerator and denominator
    assert loaded_by_the_cli({"fractions", "decimal", "numbers"}) == []
    importing, typed = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if "fractions" in imports_of(tree)[1]:
            importing.append(path.name)
        typed += [(path.name, getattr(top, "name", None)) for top in tree.body
                  for node in ast.walk(top)
                  if calls(node, "isinstance") and "CycScalar" in names_read(node)]
    assert list(SRC.glob("*.py")) and not importing, importing
    assert typed == [("cyclotomic.py", "CycField")], typed


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
    # commutator_rows reads each [b, g] off its closed form and is the one
    # commutator in the package: PBWElement.is_central and center_report read
    # it (center_report at its three call sites: the zero-column test on the
    # expected keys, the modular rank, and the exact solve when that rank
    # misses its bound), the general product is PBWAlgebra.multiply alone,
    # and no second commutator formula can grow back
    assert callers_of("commutator_rows") == [("pbw.py", "PBWElement")] + [("pbw.py", "center_report")] * 3
    assert callers_of("_mul_mono") == [("pbw.py", "PBWAlgebra")]
    assert not {"commutator", "_terms"} & set(vars(qweyl.PBWAlgebra))


def test_one_printer_of_a_key():
    # a key's word is printed by _word alone: center_report prints its basis
    # and witnesses with it and builds no monomial to print, and the parser
    # reads its regex matches with no token class to copy them into
    tree = ast.parse((SRC / "pbw.py").read_text(encoding="utf-8"))
    assert not names_read(definition(tree, "center_report"))["monomial"]
    assert names_read(definition(tree, "PBWElement.__str__"))["_word"]
    assert callers_of("_word") == [("pbw.py", "PBWElement")] + [("pbw.py", "center_report")] * 3
    expr = ast.parse((SRC / "expr.py").read_text(encoding="utf-8"))
    classes = [node.name for node in ast.walk(expr) if isinstance(node, ast.ClassDef)]
    assert classes == ["ParseError", "_Parser"], classes


def test_one_builder_of_the_moment_map_on_each_side():
    # the matrix images I + x_i d_i are built by alpha_images alone (on the
    # slots for fiber_rep_report, on one factor's expansion for _alpha_holds
    # when the slots cannot certify, on the dense rows for
    # moment_map_failure), and the algebra identity alpha_i g = q^(2 s_i) g
    # alpha_i is checked by verify_qmm alone: no second copy of either can
    # grow back
    assert callers_of("alpha_images") == [("fiber.py", "_alpha_holds"),
                                          ("fiber.py", "fiber_rep_report"),
                                          ("reduction.py", "moment_map_failure")]
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


def test_one_immutability_rule():
    # the value classes share Frozen's one __setattr__ and __delattr__, and
    # Frozen._freeze alone stores a field past them, so no class hand-copies
    # the rule again; the quiver wrapper, built only to be passed to
    # quiver_to_embedding, is gone with its cyclic-quiver builder
    from test_fiber import IMMUTABLE_VALUES
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    rules, stores = [], []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                names = [node.name] if isinstance(node, ast.FunctionDef) else [
                    ast.unparse(target) for target in getattr(node, "targets", [])]
                rules += [f"{cls.name}.{name}" for name in names
                          if name in ("__setattr__", "__delattr__")]
        stores += [f"{module}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and ast.unparse(node) == "object.__setattr__"]
    assert rules == ["Frozen.__setattr__", "Frozen.__delattr__"], rules
    freeze = definition(trees["lattice.py"], "Frozen._freeze")
    assert len(stores) == 1 and "object.__setattr__" in ast.unparse(freeze), stores
    Frozen = qweyl.lattice.Frozen
    assert IMMUTABLE_VALUES and all(issubclass(getattr(qweyl, name), Frozen)
                                    for name in IMMUTABLE_VALUES)
    assert not {"QuiverData", "cyclic_quiver", "Frozen"} & set(qweyl.__all__)
    assert not hasattr(qweyl.lattice, "QuiverData")
    assert not hasattr(qweyl.quiver_examples, "cyclic_quiver")


def test_one_twist_formula_on_each_side():
    # the matrix model places each generator with its own twist, and the
    # algebra reads the pairings once: no general untwist and no second
    # pairing formula can grow back
    assert not hasattr(qweyl.fiber, "untwist") and "untwist" not in qweyl.__all__
    assert callers_of("pairing_matrix") == [("fiber.py", "_rank1_models"), ("pbw.py", "PBWAlgebra")]
    assert not {"pairing", "qij_exponent"} & set(vars(qweyl.TorusEmbedding))


def test_one_twist_rule_for_both_models():
    # the twist exponent (b - a) P_ji of a placed entry is written once, in
    # fiber._twist, which full_matrix_rep (dense rows, for reduce) and
    # slot_rep (Kronecker slots, for fiber-rep) both read, so the two models
    # cannot drift apart; no other twist or placement exponent is written
    texts = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    found = {name: text.count("(b - a) * P[j][i]") for name, text in texts.items()}
    assert sum(found.values()) == 1 and found["fiber.py"] == 1, found
    assert "(b - a) * P[j][i]" in inspect.getsource(qweyl.fiber._twist)
    assert sum(text.count("(b - a) *") + text.count("(a - b) *") for text in texts.values()) == 1
    assert callers_of("_twist") == [("fiber.py", "full_matrix_rep"), ("fiber.py", "slot_rep")]


def test_scalars_are_built_by_arithmetic_only():
    # a CycField makes scalars from ints and fractions (scalar), powers of q
    # (qpow) and arithmetic; test_every_function_has_a_reader cannot see a
    # dead CycField.reduce, as functools.reduce and SpanBasis.reduce share
    # its name, so its absence is checked here
    assert not hasattr(qweyl.CycField, "reduce")


def test_one_seam_rule_builds_the_rank_one_model():
    # the rank-one model states delta_r = gamma q^(-2r) - 1 once, for every
    # row, and finds its seam row without a root search; it is a step of
    # _rank1_models, shared by both models, that lists entries only, so it
    # builds no matrix or model, coerces nothing and checks neither the
    # locus nor gamma again
    src = inspect.getsource(qweyl.fiber._rank1_entries)
    assert src.count("F.qpow(-2 * r)") == 1 and "k0" not in src
    tree = ast.parse(src)
    assert not {"Matrix", "FullRep", "scalar", "OutsideAzumayaLocus"} & set(names_read(tree))
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Pow, ast.Raise))]
    assert callers_of("_rank1_entries") == [("fiber.py", "_rank1_models")]
    assert not hasattr(qweyl.fiber, "rank1_matrix_rep") and "rank1_matrix_rep" not in qweyl.__all__


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


# Each method whose name the package defines or imports more than once, with
# the function that reads it.  test_every_function_has_a_reader counts reads
# by bare name, so it cannot tell these methods from their namesakes (a dead
# CycField.reduce once passed it on functools.reduce and SpanBasis.reduce).
SHARED_NAME_READERS = {
    "CycField.one": "fiber.py:FiberPoint.in_azumaya_locus",
    "CycField.zero": "fiber.py:_rank1_entries",
    "CycScalar._coerce": "cyclotomic.py:CycScalar.__add__",
    "DifferenceOperator.identity": "quiver_examples.py:verify_u1_relations",
    "DifferenceOperator.scale": "quiver_examples.py:verify_u1_relations",
    "FiberPoint.n": "fiber.py:full_matrix_rep",
    "Matrix.identity": "fiber.py:slot_rep",
    "Matrix.scale": "fiber.py:SlotImage.__add__",
    "PBWAlgebra.d": "pbw.py:PBWAlgebra.generators",
    "PBWAlgebra.one": "pbw.py:PBWElement.__pow__",
    "PBWAlgebra.zero": "pbw.py:PBWElement.__mul__",
    "PBWElement._coerce": "pbw.py:PBWElement.__add__",
    "SpanBasis.add": "linalg.py:nullspace",
    "SpanBasis.reduce": "linalg.py:SpanBasis.add",
    "TorusEmbedding.d": "pbw.py:qmm_report",
    "TorusEmbedding.n": "pbw.py:PBWAlgebra.__init__",
}


def shared_name_methods(trees):
    """The "Class.method" of each method of trees whose name is defined (at
    any depth) or imported more than once across them; dunders are left out."""
    named = Counter()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                named[node.name] += 1
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                named.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return {f"{cls.name}.{node.name}" for tree in trees for cls in tree.body
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef) and named[node.name] > 1
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def definition(tree, qualname):
    """The def of tree named qualname, "function" or "Class.method"."""
    node = tree
    for part in qualname.split("."):
        [node] = [child for child in node.body if getattr(child, "name", None) == part]
    return node


def test_every_shared_name_method_has_its_reader():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    shared = shared_name_methods(trees.values())
    assert shared == set(SHARED_NAME_READERS), shared ^ set(SHARED_NAME_READERS)
    for method, reader in SHARED_NAME_READERS.items():
        module, qualname = reader.split(":")
        assert qualname != method and names_read(definition(trees[module], qualname))[
            method.split(".")[1]], (method, reader)
    # a dead method that shares its name, as CycField.reduce did, is not in the table
    dead = ast.parse("class CycField:\n    def reduce(self):\n        pass\n")
    unlisted = shared_name_methods([*trees.values(), dead]) - set(SHARED_NAME_READERS)
    assert unlisted == {"CycField.reduce"}
