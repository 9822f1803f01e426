"""Command-line front end: configs, reports, exit codes."""

import json
from itertools import product
from pathlib import Path

import pytest

from qweyl import CycField
from qweyl.cli import DEFAULT_SEED, main, run_suite, validate_config
from qweyl.cyclotomic import MAX_ORDER
from qweyl.lattice import TorusEmbedding
from qweyl.linalg import SpanBasis, nullspace
from qweyl.expr import MAX_NESTING

from splitting import forbid_counts


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def suite_cfg():
    return {
        "ell": 3,
        "embedding": {"matrix": [[1], [1]], "form": [[2]]},
        "tasks": [
            {"type": "normalize", "expressions": ["d1*x1", "a1^3"]},
            {"type": "fiber-rep",
             "point": {"lambda": [["0", "0"], ["7", "1"]], "gamma": ["1", "2"]}},
            {"type": "reduce",
             "point": {"lambda": [["0", "0"], ["0", "0"]], "gamma": ["1", "1"]},
             "eta": ["1"]},
            {"type": "qmm-check"},
            {"type": "quiver-suite", "n": 3},
        ],
    }


# -- config validation ------------------------------------------------------

def test_validate_config_rejects_bad_shapes():
    for cfg in (
        [],                                                   # not an object
        {"embedding": {"matrix": [[1]], "form": [[2]]}},      # no ell
        {"ell": 4, "embedding": {"matrix": [[1]], "form": [[2]]},
         "tasks": [{"type": "normalize"}]},                   # even ell
        {"ell": 3, "tasks": [{"type": "normalize"}]},         # no embedding
        {"ell": 3, "embedding": {"matrix": [[1]], "form": [[2]]},
         "quiver": {"vertices": 3, "edges": []},
         "tasks": [{"type": "normalize"}]},                   # both given
        {"ell": 3, "embedding": {"matrix": [[1]], "form": [[2]]}},  # no tasks
        {"ell": 3, "embedding": {"matrix": [[1]], "form": [[2]]},
         "tasks": [{"type": "frobnicate"}]},                  # unknown task
    ):
        with pytest.raises(ValueError):
            validate_config(cfg)


def test_validate_config_accepts_the_suite():
    emb = validate_config(suite_cfg())
    assert (emb.n, emb.d, emb.matrix) == (2, 1, ((1,), (1,)))


def test_report_builds_the_embedding_at_most_twice(tmp_path, monkeypatch, capsys):
    # load_config validates once, and run_suite runs its tasks on the
    # embedding that validation built
    cfg = suite_cfg()
    cfg["tasks"] = [t for t in cfg["tasks"] if t["type"] != "quiver-suite"]
    path = write_cfg(tmp_path, cfg)
    builds = 0
    init = TorusEmbedding.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal builds
        builds += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(TorusEmbedding, "__init__", counting_init)
    assert main(["report", "--config", path]) == 0
    capsys.readouterr()
    assert 0 < builds <= 2


@pytest.mark.parametrize("command", ["report", "verify", "normalize"])
def test_each_command_builds_the_embedding_once(command, tmp_path, monkeypatch, capsys):
    cfg = {"ell": 3, "embedding": {"matrix": [[1], [1]], "form": [[2]]},
           "tasks": [{"type": "normalize", "expressions": ["d1*x1"]}]}
    path = write_cfg(tmp_path, cfg)
    argv = [command, "--config", path] + (["x2*d2"] if command == "normalize" else [])
    builds = 0
    init = TorusEmbedding.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal builds
        builds += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(TorusEmbedding, "__init__", counting_init)
    assert main(argv) == 0
    capsys.readouterr()
    assert builds == 1
    # a config error still exits 2 with one line
    cfg["embedding"]["matrix"] = [[1], [1.5]]
    assert main([command, "--config", write_cfg(tmp_path, cfg)] + argv[3:]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "integers" in err


@pytest.mark.parametrize("ell", [MAX_ORDER + 2, 10 ** 21 + 1])
def test_an_order_above_the_bound_exits_2_with_one_line(ell, tmp_path, capsys):
    message = f"ell must be an odd integer with 1 < ell <= {MAX_ORDER}, got {ell}\n"
    assert main(["normalize", "--ell", str(ell), "q"]) == 2
    assert capsys.readouterr().err == "error: " + message
    cfg = {"ell": ell, "embedding": {"matrix": [[1]], "form": [[2]]},
           "tasks": [{"type": "normalize", "expressions": ["q"]}]}
    path = write_cfg(tmp_path, cfg)
    for argv in (["verify", "--config", path], ["report", "--config", path]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "config error: " + message
    assert main(["normalize", "--config", path, "q"]) == 2
    assert capsys.readouterr().err == "error: " + message


# -- normalize subcommand -----------------------------------------------------

def test_normalize_prints_normal_forms(capsys):
    rc = main(["normalize", "--ell", "5", "d1*x1"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    assert out == "q^2*x1*d1 + (q^2 - 1)"


def test_normalize_multiple_expressions(capsys):
    # "--" keeps argparse from reading a leading minus as a flag
    rc = main(["normalize", "--ell", "3", "--", "x1^3", "-x1"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert lines == ["x1^3", "(-1)*x1"]


def test_normalize_leading_minus_needs_double_dash(capsys):
    # without "--", argparse takes "-(x1)" for an option and exits 2
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--ell", "3", "-(x1)"])
    assert exc.value.code == 2
    assert "the following arguments are required: expressions" in capsys.readouterr().err
    assert main(["normalize", "--ell", "3", "--", "-(x1)"]) == 0
    assert capsys.readouterr().out == "(-1)*x1\n"


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    # the parser is built on the first call and reused: two calls construct
    # one ArgumentParser of each kind, and a bad subcommand still exits 2
    import argparse
    import qweyl.cli
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    qweyl.cli._parser.cache_clear()
    try:
        assert main(["normalize", "--ell", "3", "x1"]) == 0
        assert main(["normalize", "--ell", "3", "d1"]) == 0
        assert len(built) == 4 and built[0] == "qweyl"
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2 and len(built) == 4
        assert "invalid choice: 'no-such-command'" in capsys.readouterr().err
    finally:
        qweyl.cli._parser.cache_clear()


def test_normalize_parse_error_exits_2(capsys):
    rc = main(["normalize", "--ell", "5", "x1 +"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error" in err


def test_normalize_requires_ell(capsys):
    rc = main(["normalize", "x1"])
    assert rc == 2


def test_normalize_with_config_embedding(tmp_path, capsys):
    path = write_cfg(tmp_path, suite_cfg())
    rc = main(["normalize", "--config", path, "d2*x1"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    # off-diagonal pairing q^-2, which folds to q when ell = 3
    assert out == "q*x1*d2"


def test_normalize_large_exponent_does_not_recurse(capsys):
    # the Gaussian binomials of d1^3000*x1 run 3000 deep; the outputs follow
    # the pattern of exponents 300, 301 and 900
    want = ["x1*d1^3000", "(-q - 1)*x1*d1^3001 + (-q - 2)*d1^3000"]
    assert main(["normalize", "--ell", "3", "d1^3000*x1", "d1^3001*x1"]) == 0
    assert capsys.readouterr().out.splitlines() == want
    cfg = suite_cfg()
    cfg["tasks"] = [{"type": "normalize", "expressions": ["d1^3000*x1", "d1^3001*x1"]}]
    (task,) = run_suite(cfg)["tasks"]
    assert [e["normal_form"] for e in task["expressions"]] == want


def test_deep_parentheses_exit_2_or_fail_the_task(capsys):
    deep = "(" * 400 + "x1" + ")" * 400
    assert main(["normalize", "--ell", "3", deep]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: parentheses nested deeper than {MAX_NESTING}"
                   f" (at byte {MAX_NESTING})\n")
    cfg = suite_cfg()
    cfg["tasks"] = [{"type": "normalize", "expressions": ["(" * 3000 + "x1" + ")" * 3000]}]
    (task,) = run_suite(cfg)["tasks"]
    assert task["ok"] is False
    assert "nested deeper" in task["expressions"][0]["error"]


# -- verify and report ---------------------------------------------------------

def test_verify_passes_on_the_suite(tmp_path, capsys):
    path = write_cfg(tmp_path, suite_cfg())
    out_path = str(tmp_path / "report.json")
    rc = main(["verify", "--config", path, "--out", out_path])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("pass") >= 5
    assert "FAIL" not in out
    assert "all checks passed" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["all_ok"]
    assert report["seed"] == DEFAULT_SEED
    assert [t["type"] for t in report["tasks"]] == [
        "normalize", "fiber-rep", "reduce", "qmm-check", "quiver-suite"]
    assert all(t["ok"] for t in report["tasks"])


def test_verify_fails_on_inadmissible_eta(tmp_path, capsys):
    cfg = suite_cfg()
    cfg["tasks"] = [{"type": "reduce",
                     "point": {"lambda": [["0", "0"], ["0", "0"]],
                               "gamma": ["1", "1"]},
                     "eta": ["5"]}]
    path = write_cfg(tmp_path, cfg)
    rc = main(["verify", "--config", path])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out
    assert "some checks failed" in out
    report = run_suite(cfg)
    entry = report["tasks"][0]
    assert entry["eta_admissible"] is False
    assert len(entry["admissible"]) == 3
    assert not entry["ok"]


def test_missing_and_malformed_configs_exit_2(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["verify", "--config", str(bad)]) == 2
    schema = write_cfg(tmp_path, {"ell": 3}, name="schema.json")
    assert main(["verify", "--config", schema]) == 2
    capsys.readouterr()


def test_unreadable_normalize_config_exits_2(tmp_path, capsys):
    for path in (tmp_path / "nope.json", tmp_path):            # missing, a directory
        assert main(["normalize", "--config", str(path), "x1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    for argv in (["verify", "--config", str(path)], ["report", "--config", str(path)],
                 ["normalize", "--config", str(path), "x1"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.endswith("config is nested too deeply to parse\n") and err.count("\n") == 1


@pytest.mark.parametrize("task", [
    {"type": "normalize", "expressions": "d1*x1"},       # a string, not a list
    {"type": "normalize", "expressions": ["x1", 2]},     # a non-string entry
    {"type": "normalize"},                               # passed on an empty domain
    {"type": "normalize", "expressions": []},
    {"type": "center-check", "max_degree": -1},          # empty key set
    {"type": "center-check", "max_degree": "3"},
    {"type": "center-check", "max_degree": True},
    {"type": "fiber-rep", "point": "x"},                 # not an object
    {"type": "reduce", "point": ["x"], "eta": ["1"]},
    {"type": "fiber-rep", "point": {"lambda": [1, 2], "gamma": ["1", "1"]}},  # not pairs
    {"type": "reduce", "point": {"lambda": [["0", "0"], ["0", "0"]], "gamma": ["1", "1"]},
     "eta": "1"},                                        # was read one character at a time
    {"type": "fiber-rep", "point": {"lambda": [[True, "0"], ["0", "0"]], "gamma": ["1", "1"]}},
    {"type": "fiber-rep", "point": {"lambda": [["0", "0"], ["0", 1.5]], "gamma": ["1", "1"]}},
    {"type": "fiber-rep", "point": {"lambda": [["0", "0"], ["0", "0"]], "gamma": ["1", 2]}},
    {"type": "reduce", "point": {"lambda": [["0", "0"], ["0", "0"]], "gamma": [{"a": 1}, "1"]},
     "eta": ["1"]},                                      # Python's repr leaked into the error
    {"type": "reduce", "point": {"lambda": [["0", "0"], ["0", "0"]], "gamma": ["1", "1"]},
     "eta": [1]},                                        # a JSON integer is not a string either
    {"type": "quiver-suite", "n": 3.7},                  # was truncated to 3
    {"type": "quiver-suite", "n": "x"},
    {"type": "quiver-suite", "n": True},
    {"type": "quiver-suite", "n": 1},
])
def test_malformed_task_fields_exit_2(tmp_path, capsys, task):
    cfg = {"ell": 3, "embedding": {"matrix": [[1], [1]], "form": [[2]]}, "tasks": [task]}
    with pytest.raises(ValueError):
        validate_config(cfg)
    for command in ("verify", "report"):
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: task 0: ") and err.count("\n") == 1


def test_a_non_string_scalar_names_its_task_and_field(tmp_path, capsys):
    # a JSON true once failed its task with "unexpected character 'T'", the
    # first letter of Python's repr; now the config is refused before any task runs
    lam, gamma = [["0", "0"], ["0", "0"]], ["1", "1"]
    for field, task in (
            ("lambda", {"type": "fiber-rep", "point": {"lambda": [["0", True], ["0", "0"]],
                                                        "gamma": gamma}}),
            ("gamma", {"type": "fiber-rep", "point": {"lambda": lam, "gamma": ["1", 1.5]}}),
            ("eta", {"type": "reduce", "point": {"lambda": lam, "gamma": gamma}, "eta": [3]})):
        cfg = {"ell": 3, "embedding": {"matrix": [[1], [1]], "form": [[2]]},
               "tasks": [{"type": "qmm-check"}, task]}
        assert main(["verify", "--config", write_cfg(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == (
            f"config error: task 1: '{field}' entries must be expression strings\n")


@pytest.mark.parametrize("source", [
    {"embedding": {"matrix": [], "form": []}},                   # no coordinates
    {"embedding": {"matrix": [[1], [2]], "form": [[2, 0], [0, 2]]}},
    {"embedding": {"matrix": [[1, 2], [2, 4]], "form": [[2, 0], [0, 2]]}},  # rank 1
    {"embedding": {"matrix": [["a"], [1]], "form": [[2]]}},
    {"embedding": {"matrix": [[1.5], [1]], "form": [[2]]}},      # was truncated to 1
    {"embedding": {"matrix": [[True], [1]], "form": [[2]]}},
    {"embedding": {"matrix": [[1], [1]], "form": "2"}},
    {"quiver": {"vertices": 2, "edges": [[1, 5]]}},              # out of range
    {"quiver": {"vertices": 2, "edges": []}},                    # no coordinates
    {"quiver": {"vertices": 2, "edges": [[1, 2, 1]]}},
    {"quiver": {"vertices": 2.0, "edges": [[1, 2]]}},
])
def test_malformed_weight_data_exits_2(tmp_path, capsys, source):
    cfg = {"ell": 3, **source, "tasks": [{"type": "normalize", "expressions": ["x1"]}]}
    with pytest.raises(ValueError):
        validate_config(cfg)
    for command in ("verify", "report"):
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("src", ["1/0", "(1 - q^3)^-1"])
def test_division_by_zero_exits_2_or_fails_the_task(tmp_path, capsys, src):
    assert main(["normalize", "--ell", "3", src]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    cfg = suite_cfg()
    cfg["tasks"] = [{"type": "fiber-rep",
                     "point": {"lambda": [[src, "0"], ["0", "0"]], "gamma": ["1", "1"]}},
                    {"type": "normalize", "expressions": [src]}]
    fiber, normalize = run_suite(cfg)["tasks"]
    assert fiber["ok"] is False and "zero" in fiber["error"]
    assert normalize["ok"] is False and "zero" in normalize["expressions"][0]["error"]
    assert main(["verify", "--config", write_cfg(tmp_path, cfg)]) == 1
    capsys.readouterr()


def test_report_is_byte_identical(tmp_path, capsys):
    path = write_cfg(tmp_path, suite_cfg())
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["report", "--config", path, "--out", a]) == 0
    assert main(["report", "--config", path, "--out", b]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_report_prints_to_stdout_without_out(tmp_path, capsys):
    cfg = suite_cfg()
    cfg["tasks"] = [{"type": "normalize", "expressions": ["x1"]}]
    path = write_cfg(tmp_path, cfg)
    rc = main(["report", "--config", path])
    out = capsys.readouterr().out
    assert rc == 0
    parsed = json.loads(out)
    assert parsed["tasks"][0]["expressions"][0]["normal_form"] == "x1"


@pytest.mark.parametrize("command", ["verify", "report"])
def test_unwritable_out_path_exits_2(tmp_path, capsys, command):
    cfg = suite_cfg()
    cfg["tasks"] = [{"type": "normalize", "expressions": ["x1"]}]
    out = str(tmp_path / "missing" / "x.json")
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the report: ") and err.count("\n") == 1


# -- task payload shapes ----------------------------------------------------------

def test_center_check_task_payload():
    cfg = {
        "ell": 3,
        "embedding": {"matrix": [[1]], "form": [[2]]},
        "tasks": [{"type": "center-check", "max_degree": 6}],
    }
    entry = run_suite(cfg)["tasks"][0]
    assert entry["ok"]
    assert entry["dimension"] == 9
    assert entry["matches_ell_power_span"]
    assert "x1^3*d1^3" in entry["basis"]
    assert "1" in entry["basis"]


@pytest.mark.parametrize("pinned", [[], [((3,), (0,))]],
                         ids=["x1d1-made-central", "x1d1-made-central-x1^3-pinned"])
def test_center_check_fails_on_a_wrong_commutator_system(monkeypatch, pinned):
    import qweyl.pbw
    commutator_rows = qweyl.pbw.commutator_rows

    def lossy_rows(algebra, keys):
        # no single commutator row matters (each unknown is pinned by several),
        # so the mutant loses every row that keeps x1 d1, a key of central
        # weight, out of the center
        kept = [r for r in commutator_rows(algebra, keys) if ((1,), (1,)) not in r]
        return kept + [{key: algebra.field.one} for key in pinned]

    monkeypatch.setattr(qweyl.pbw, "commutator_rows", lossy_rows)
    cfg = {
        "ell": 3,
        "embedding": {"matrix": [[1]], "form": [[2]]},
        "tasks": [{"type": "center-check", "max_degree": 6}],
    }
    entry = run_suite(cfg)["tasks"][0]
    # with x1^3 pinned the dimension is right and only membership fails
    assert (entry["dimension"], entry["expected_dimension"]) == (10 - len(pinned), 9)
    assert entry["matches_ell_power_span"] is False
    assert entry["basis"] is None
    assert entry["ok"] is False
    # the pinned row is the one that touches an expected key; without it
    # only the nullity is wrong, and the witness is the extra central key
    if pinned:
        assert entry["not_central"] == "x1^3"
        assert "extra_central" not in entry
    else:
        assert "not_central" not in entry
        assert entry["extra_central"] == "x1*d1"


def test_center_check_reports_the_exact_nullity_when_rows_are_lost(monkeypatch):
    # with the rows through x1 d1 lost, x1 d1 solves the system too: the
    # nullity mod p exceeds |expected|, so the exact nullspace decides
    import qweyl.pbw
    commutator_rows = qweyl.pbw.commutator_rows
    lost = ((1, 0), (1, 0))
    kept, solved = [], []

    def lossy_rows(algebra, keys):
        solved[:] = keys
        kept[:] = [r for r in commutator_rows(algebra, keys) if lost not in r]
        return list(kept)

    monkeypatch.setattr(qweyl.pbw, "commutator_rows", lossy_rows)
    cfg = {
        "ell": 3,
        "embedding": {"matrix": [[1], [1]], "form": [[2]]},
        "tasks": [{"type": "center-check", "max_degree": 3}],
    }
    entry = run_suite(cfg)["tasks"][0]
    # the report solves on the keys of central weight, m = k (mod 3)
    keys = [(m, k) for m in product(range(4), repeat=2) for k in product(range(4), repeat=2)
            if all((a - b) % 3 == 0 for a, b in zip(m, k))]
    assert solved == keys and lost in keys
    exact = nullspace(kept, keys, field=CycField(3))
    assert entry["dimension"] == len(exact) > entry["expected_dimension"] == 16
    assert entry["matches_ell_power_span"] is False
    assert entry["basis"] is None and entry["ok"] is False
    assert "not_central" not in entry  # no row touches an expected key
    assert entry["extra_central"] == "x1*d1"


def counted_spans(monkeypatch):
    """The list that each new SpanBasis appends its number of adds to."""
    spans = []
    init, add = SpanBasis.__init__, SpanBasis.add

    def counted_init(self, *args, **kwargs):
        spans.append(0)
        self._count = len(spans) - 1
        init(self, *args, **kwargs)

    def counted_add(self, vec):
        spans[self._count] += 1
        return add(self, vec)

    monkeypatch.setattr(SpanBasis, "__init__", counted_init)
    monkeypatch.setattr(SpanBasis, "add", counted_add)
    return spans


def test_a_failing_center_check_eliminates_its_rows_once(monkeypatch):
    # the lossy-rows mutant at ell 3, n 2, degree 6: the rank mod p misses the
    # bound, and one exact nullspace gives both the dimension and the witness,
    # one add per kept row
    import qweyl.pbw
    commutator_rows = qweyl.pbw.commutator_rows
    lost = ((1, 0), (1, 0))
    kept = []

    def lossy_rows(algebra, keys):
        kept[:] = [r for r in commutator_rows(algebra, keys) if lost not in r]
        return list(kept)

    monkeypatch.setattr(qweyl.pbw, "commutator_rows", lossy_rows)
    cfg = {
        "ell": 3,
        "embedding": {"matrix": [[1], [1]], "form": [[2]]},
        "tasks": [{"type": "center-check", "max_degree": 6}],
    }
    emb = validate_config(cfg)  # the faithfulness check of the embedding solves too
    spans = counted_spans(monkeypatch)
    entry = run_suite(cfg, emb)["tasks"][0]
    assert spans == [len(kept)] and len(kept) == 812
    assert (entry["dimension"], entry["expected_dimension"]) == (82, 81)
    assert entry["ok"] is False and "not_central" not in entry
    assert entry["extra_central"] == "x1*d1"


CENTER_CHECKS = {
    # the center-check cases of the algebra benchmark workload
    "center-l3n2-d6": {"ell": 3, "embedding": {"matrix": [[1], [1]], "form": [[2]]},
                       "tasks": [{"type": "center-check", "max_degree": 6}]},
    "center-l13n1-d26": {"ell": 13, "embedding": {"matrix": [[1]], "form": [[2]]},
                         "tasks": [{"type": "center-check", "max_degree": 26}]},
}
CENTER_CHECKS.update({p.stem: json.loads(p.read_text()) for p in sorted(
    (Path(__file__).resolve().parent / "report_configs").glob("algebra_*.json"))})


@pytest.mark.parametrize("name", sorted(CENTER_CHECKS))
def test_a_passing_center_check_makes_no_exact_solve(name, monkeypatch):
    # the rank mod p meets the proven bound, so no SpanBasis is built
    cfg = CENTER_CHECKS[name]
    emb = validate_config(cfg)  # the faithfulness check of the embedding solves
    spans = counted_spans(monkeypatch)
    report = run_suite(cfg, emb)
    centers = [entry for entry in report["tasks"] if entry["type"] == "center-check"]
    assert len(CENTER_CHECKS) == 5 and centers and all(entry["ok"] for entry in centers)
    assert spans == []


def test_a_passing_center_check_reads_only_the_rows_its_bound_needs(monkeypatch, tmp_path):
    # counts, not times: on algebra_l3.json the zero-column test reads the
    # rows of the 16 expected keys (there are none: each is central), and the
    # rank mod p reaches its bound of 36 - 16 = 20 after 34 of the 72 rows of
    # the 36 keys, so the rest are never built; the report keeps its bytes
    import qweyl.pbw
    commutator_rows = qweyl.pbw.commutator_rows
    reads = []  # [algebra, keys, rows read] of each call

    def counted_rows(algebra, keys):
        reads.append([algebra, keys, 0])
        for row in commutator_rows(algebra, keys):
            reads[-1][2] += 1
            yield row

    monkeypatch.setattr(qweyl.pbw, "commutator_rows", counted_rows)
    out = tmp_path / "r.json"
    assert main(["report", "--config", str(TESTS / "report_configs" / "algebra_l3.json"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (TESTS / "report_output" / "algebra_l3.json").read_bytes()
    # the normalize task's is_central calls come first, the center check's two last
    *_, (_, expected, touched), (algebra, keys, read) = reads
    full = sum(1 for _ in commutator_rows(algebra, keys))
    assert (len(expected), touched, len(keys), read, full) == (16, 0, 36, 34, 72)


def test_center_check_names_the_first_expected_key_a_row_touches(monkeypatch):
    import qweyl.pbw
    commutator_rows = qweyl.pbw.commutator_rows

    def noisy_rows(algebra, keys):
        one = algebra.field.one
        return list(commutator_rows(algebra, keys)) + [{((3,), (3,)): one}, {((0,), (3,)): one}]

    monkeypatch.setattr(qweyl.pbw, "commutator_rows", noisy_rows)
    cfg = {
        "ell": 3,
        "embedding": {"matrix": [[1]], "form": [[2]]},
        "tasks": [{"type": "center-check", "max_degree": 3}],
    }
    entry = run_suite(cfg)["tasks"][0]
    assert entry["ok"] is False and entry["not_central"] == "d1^3"


def test_center_check_scalar_multiplies_stay_few(monkeypatch):
    # the PBW product sums q-exponents and multiplies only by factors that
    # are not 1, and only the keys of central weight are solved for: one
    # center check at ell 3, n 2, degree 3 makes 66 scalar multiplies,
    # against 162 on every key and 9777 when every q-power was multiplied in
    from qweyl.cyclotomic import CycScalar
    mul = CycScalar.__mul__
    calls = [0]

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(CycScalar, "__mul__", counted)
    monkeypatch.setattr(CycScalar, "__rmul__", counted)
    cfg = {
        "ell": 3,
        "embedding": {"matrix": [[1], [1]], "form": [[2]]},
        "tasks": [{"type": "center-check", "max_degree": 3}],
    }
    assert run_suite(cfg)["tasks"][0]["ok"]
    assert 0 < calls[0] <= 80


TESTS = Path(__file__).resolve().parent


def collect_fields(monkeypatch, memo=None):
    """Every CycField made from now on; each is given an empty product memo
    of type memo when one is named, and otherwise keeps its own."""
    init, fields = CycField.__init__, []

    def collecting(self, ell):
        init(self, ell)
        if memo is not None:
            self._products = memo()
        fields.append(self)

    monkeypatch.setattr(CycField, "__init__", collecting)
    return fields


def test_run_suite_calls_share_no_product_memo(monkeypatch):
    # the memo lives on the field and run_suite makes a field per call, so a
    # second run (as in a timed batch) computes its products afresh
    fields = collect_fields(monkeypatch)
    first = run_suite(suite_cfg())
    made = len(fields)
    assert run_suite(suite_cfg()) == first
    assert made and len(fields) == 2 * made
    assert len({id(f._products) for f in fields}) == len(fields)
    sizes = [len(f._products) for f in fields]
    assert sizes[:made] == sizes[made:] and any(sizes)  # the second run computed its own


def test_product_memo_cap_holds_and_changes_no_report(monkeypatch, tmp_path):
    import qweyl.cyclotomic
    peak = [0]

    class Recording(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            peak[0] = max(peak[0], len(self))

    monkeypatch.setattr(qweyl.cyclotomic, "_PRODUCT_MEMO_CAP", 8)
    fields = collect_fields(monkeypatch, Recording)
    out = tmp_path / "report.json"
    config = TESTS / "report_configs" / "pair_l3.json"
    assert main(["report", "--config", str(config), "--out", str(out)]) == 0
    assert fields and peak[0] == 8  # reached, so the clear ran, and never passed
    assert out.read_bytes() == (TESTS / "report_output" / "pair_l3.json").read_bytes()


@pytest.mark.parametrize("stem, calls, computed", [("reduce_l3", 133, 44), ("pair_l3", 351, 92)])
def test_products_computed_once_per_run(monkeypatch, tmp_path, stem, calls, computed):
    # counts, not times: __mul__ is called as often as before the memo, and
    # the suite's field computes each distinct product once; run_suite
    # imports PBWAlgebra from pbw when it runs, so the counter patches pbw
    import qweyl.pbw
    from qweyl.cyclotomic import CycScalar
    from qweyl.pbw import PBWAlgebra
    mul, count, suite_fields = CycScalar.__mul__, [0], []

    def counted(self, other):
        count[0] += 1
        return mul(self, other)

    def algebra(field, emb):
        suite_fields.append(field)
        return PBWAlgebra(field, emb)

    monkeypatch.setattr(CycScalar, "__mul__", counted)
    monkeypatch.setattr(CycScalar, "__rmul__", counted)
    monkeypatch.setattr(qweyl.pbw, "PBWAlgebra", algebra)
    config = TESTS / "report_configs" / f"{stem}.json"
    assert main(["report", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 0
    [field] = suite_fields
    assert (count[0], len(field._products)) == (calls, computed)


def test_fiber_rep_fails_on_an_unreached_row_without_a_count(monkeypatch):
    # the generation certificate is made to name row 5 of the ell 3, n 2
    # model: the report fails on it alone, names it, and carries no span;
    # relations_ok, which reads only the generator images, still holds
    from qweyl import fiber
    cfg = suite_cfg()
    cfg["tasks"] = cfg["tasks"][1:2]
    emb = validate_config(cfg)  # the faithfulness check of the embedding counts a rank
    forbid_counts(monkeypatch)
    monkeypatch.setattr(fiber, "unreached_row", lambda rep: 5)
    entry = run_suite(cfg, emb)["tasks"][0]
    assert entry["relations_ok"] is entry["alpha_diagonal_ok"] is True
    assert entry["ok"] is False and entry["unreached_row"] == 5
    assert "span_dimension" not in entry and entry["expected_span_dimension"] == 81


REPORT_CONFIGS = Path(__file__).resolve().parent / "report_configs"


def moved_central_values(rank1_entries):
    """fiber._rank1_entries with xi_0 doubled and delta_(ell-1) halved on
    c != 0 factors: the model of (2c, w/2).  Each product xi_s delta_(s-1),
    and so the alpha diagonal and the relation d x = q^2 x d + q^2 - 1, is
    kept."""
    def moved(field, c, w, gamma):
        x, d = rank1_entries(field, c, w, gamma)
        if not c:
            return x, d
        ell, two = field.ell, field.scalar(2)
        # xi_0 maps e_0 to e_(ell-1), delta_(ell-1) maps e_(ell-1) to e_0
        return ([(r, s, v * two if (r, s) == (ell - 1, 0) else v) for r, s, v in x],
                [(r, s, v / two if (r, s) == (0, ell - 1) else v) for r, s, v in d])
    return moved


@pytest.mark.parametrize("name,relation", [("pair_l3", "x2^3 = 7"), ("braided_c0_l5", "x1^5 = 3")],
                         ids=["pair_l3", "braided_c0_l5"])
def test_fiber_rep_fails_on_a_model_of_the_wrong_central_values(name, relation, monkeypatch):
    from qweyl import fiber
    cfg = json.loads((REPORT_CONFIGS / f"{name}.json").read_text())
    cfg["tasks"] = [t for t in cfg["tasks"] if t["type"] == "fiber-rep"]
    assert run_suite(cfg)["tasks"][0]["ok"] is True
    monkeypatch.setattr(fiber, "_rank1_entries", moved_central_values(fiber._rank1_entries))
    emb = validate_config(cfg)
    forbid_counts(monkeypatch)
    entry = run_suite(cfg, emb)["tasks"][0]
    # only x_i^ell = c_i I sees the move: the generator pairs and the alpha
    # diagonal still hold, and the failing report counts no span
    assert entry["relations_ok"] is False and entry["ok"] is False
    assert entry["alpha_diagonal_ok"] is True
    assert "span_dimension" not in entry and "unreached_row" not in entry
    # the witness is x_i^ell = c_i on the first c_i != 0 factor: its image
    # is 2 c_i I, so the residual at (0, 0) is c_i
    c = relation.split(" = ")[1]
    assert entry["failed_relation"] == {"relation": relation, "entry": [0, 0], "residual": c}


def test_fiber_rep_task_payload():
    entry = run_suite(suite_cfg())["tasks"][1]
    assert entry["ok"]
    assert entry["in_azumaya_locus"]
    assert entry["relations_ok"] and entry["alpha_diagonal_ok"]
    assert entry["span_dimension"] == entry["expected_span_dimension"] == 81
    assert "failed_relation" not in entry


def test_reduce_task_payload():
    entry = run_suite(suite_cfg())["tasks"][2]
    assert entry["ok"]
    assert entry["invariant_dim"] == 27
    assert entry["quotient_dim"] == 9
    assert entry["module_dim"] == 3
    assert entry["shift"] == [0]


def test_qmm_task_payload():
    entry = run_suite(suite_cfg())["tasks"][3]
    assert entry["ok"]
    # two y directions and one z direction against four generators
    assert len(entry["checks"]) == 12
    assert all(isinstance(c["exponent"], int) and c["ok"] for c in entry["checks"])
    by_pair = {(c["h"], c["target"]): c["exponent"] for c in entry["checks"]}
    assert by_pair[("y(1, 0)", "x1")] == 2
    assert by_pair[("y(1, 0)", "d1")] == -2
    assert by_pair[("y(1, 0)", "x2")] == 0


def test_quiver_suite_task_payload():
    entry = run_suite(suite_cfg())["tasks"][4]
    assert entry["ok"]
    assert entry["n"] == 3
    assert entry["pairing_exponents"] == {"1,2": -1, "1,3": -1, "2,3": -1}
    assert all(entry["table"].values())
    assert entry["u1_relations"]["all_ok"]
    assert entry["central_z"]["all_ok"]


def test_quiver_config_source(tmp_path, capsys):
    cfg = {
        "ell": 3,
        "quiver": {"vertices": 3, "edges": [[1, 2], [2, 3], [3, 1]]},
        "tasks": [{"type": "normalize", "expressions": ["x2*x1"]}],
    }
    path = write_cfg(tmp_path, cfg)
    rc = main(["verify", "--config", path])
    out = capsys.readouterr().out
    assert rc == 0
    report = run_suite(cfg)
    assert report["n"] == 3
    nf = report["tasks"][0]["expressions"][0]["normal_form"]
    # q^-1 = q^2 = -q - 1 in the degree-two field presentation
    assert nf == "(-q - 1)*x1*x2"
