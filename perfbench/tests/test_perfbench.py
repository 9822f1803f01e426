"""Self-tests of the benchmark: generator determinism, report checks, tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
# the cases that run in well under a second each
CHEAP = {"fiber": ["fiber-offlocus-l3n2"],
         "reduce": ["reduce-cyclic-l3n3", "reduce-inadmissible-l3n2"]}


def _case(workload: str, name: str, seed: int) -> workloads.Case:
    return next(c for c in workloads.generate(workload, seed) if c.name == name)


def _report(case: workloads.Case, tmp_path: Path) -> bytes:
    from qweyl import cli
    cfg, out = tmp_path / f"{case.name}.json", tmp_path / f"{case.name}.out.json"
    cfg.write_bytes(case.config_bytes())
    assert cli.main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_configs(workload):
    first = [c.config_bytes() for c in workloads.generate(workload, 7)]
    again = [c.config_bytes() for c in workloads.generate(workload, 7)]
    assert first == again


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_points_and_expressions(workload):
    for a, b in zip(workloads.generate(workload, 1), workloads.generate(workload, 2)):
        assert a.name == b.name
        seeded = [t for t in a.config["tasks"] if "point" in t or "expressions" in t]
        if seeded:
            assert a.config_bytes() != b.config_bytes(), a.name
        else:  # center checks take no point: their config is the same at every seed
            assert a.config_bytes() == b.config_bytes(), a.name


def test_every_workload_has_one_headline():
    for workload in workloads.WORKLOADS:
        assert sum(c.headline for c in workloads.generate(workload, 3)) == 1


def test_reference_matches_and_a_flipped_byte_fails(tmp_path):
    assert REFERENCE["seed"] == workloads.DEFAULT_SEED
    for workload, names in CHEAP.items():
        for name in names:
            case = _case(workload, name, workloads.DEFAULT_SEED)
            data = _report(case, tmp_path)
            ref = REFERENCE["workloads"][workload][name]
            assert workloads.check_report(case, data, ref) == []
            flipped = bytearray(data)
            flipped[len(flipped) // 2] ^= 0x01
            problems = workloads.check_report(case, bytes(flipped), ref)
            assert any("sha256" in p for p in problems), problems


def test_structural_checks_catch_wrong_dimensions_and_verdicts(tmp_path):
    case = _case("reduce", "reduce-cyclic-l3n3", 5)
    report = json.loads(_report(case, tmp_path))
    assert workloads.check_report(case, json.dumps(report).encode(), None) == []
    report["tasks"][0]["quotient_dim"] += 1
    problems = workloads.check_report(case, json.dumps(report).encode(), None)
    assert any("quotient_dim" in p for p in problems)

    # a designed-to-fail case passes only while its report says ok: false
    case = _case("fiber", "fiber-offlocus-l3n2", 5)
    report = json.loads(_report(case, tmp_path))
    assert report["tasks"][0]["ok"] is False
    assert workloads.check_report(case, json.dumps(report).encode(), None) == []
    report["tasks"][0]["ok"] = True
    assert workloads.check_report(case, json.dumps(report).encode(), None)


def test_mismatches_requires_exact_types_and_lengths():
    assert workloads.mismatches({"a": 1}, {"a": 1, "b": 2}) == []
    assert workloads.mismatches({"a": True}, {"a": 1})
    assert workloads.mismatches([workloads.ANY] * 2, [0])
    assert workloads.mismatches({"a": workloads.ANY}, {})


def test_tracer_accounts_for_run_suite_and_uninstalls(tmp_path):
    from qweyl import cli, cyclotomic
    original_mul = cyclotomic.CycScalar.__mul__
    original_suite = cli.run_suite
    cases = [_case("reduce", "reduce-cyclic-l3n3", 4),
             _case("reduce", "reduce-inadmissible-l3n2", 4),  # raises inside the trace
             _case("fiber", "fiber-offlocus-l3n2", 4)]
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.run_suite is not original_suite
        for case in cases:
            report = json.loads(_report(case, tmp_path))
            tracer.end_config()
            assert workloads.mismatches(case.expect, report) == []
    finally:
        tracer.uninstall()
    assert cyclotomic.CycScalar.__mul__ is original_mul
    assert cli.run_suite is original_suite
    assert tracer.calls["cli.run_suite"] == 3
    assert tracer.calls["reduction.hamiltonian_reduce"] == 2
    assert tracer.calls["linalg.add"] > 0 and tracer.calls["cyclotomic.mul"] > 0
    assert tracer.suite_s > 0
    assert tracer.accounting_error() <= 1e-6 * tracer.suite_s
    spans = [s for s in tracer.spans if s[0] == "reduction.hamiltonian_reduce"]
    assert len(spans) == 2 and all(end >= start for _, start, end, _, _ in spans)

    # the traced run emits exactly the per-layer metrics BENCHMARK.json declares
    emitted = run.per_layer({"layers": layer_metrics(tracer, 1, 1.0)})
    assert {name: m["unit"] for name, m in emitted.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_worker_imports_nothing_before_the_set_up_clock():
    code = ("import sys; before = set(sys.modules); import worker; "
            "print(sorted(set(sys.modules) - before - {'worker'}))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.strip() == "[]", proc.stdout + proc.stderr


def test_traced_worker_run_pairs_every_call_and_accounts_for_it(tmp_path):
    cases = [_case("reduce", "reduce-cyclic-l3n3", 6), _case("fiber", "fiber-offlocus-l3n2", 6)]
    run.write_configs(cases, tmp_path)
    res = run._worker(["run", str(tmp_path), "0", "1"], time.monotonic() + 120)
    assert len(res["times"]) == len(res["traced_times"]) == 1
    run.check(cases, res, tmp_path, None)
    assert (res["attempted"], res["failed"]) == (4, 0), res["problems"]
    assert abs(res["traced_s"] - res["tracked_s"]) <= run.ACCOUNTING_TOLERANCE * res["traced_s"]
    assert (tmp_path / "trace.json").is_file()


def test_untraced_run_emits_the_declared_end_to_end_metrics():
    res = {"setup_samples": [0.1, 0.2, 0.3], "wall_s": [2.0, 1.0], "headline_s": [1.0, 0.5],
           "peak_rss_mb": 30.0}
    emitted = run.end_to_end(res)
    assert {name: m["unit"] for name, m in emitted.items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert emitted["setup_s"]["value"] == 0.2 and emitted["wall_s"]["value"] == 1.5


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "algebra",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
