"""`qweyl report` on each config in tests/report_configs/ writes exactly the
bytes recorded in tests/report_output/<stem>.json.

The suites reach the n-factor matrix model: an ell = 3 fiber-rep and
reduce task on the weights (2), (1), whose pairing has a nonzero
off-diagonal entry; an ell = 3 reduce task on the three-cycle quiver; and
an ell = 5 fiber-rep task on the weights (1), (1) with a c = 0 factor,
where x_2^5 maps to the zero matrix.  An ell = 3 fiber-rep task on the
all-ones weights of n = 4 factors (c != 0, c = 0, c != 0, c = w = 0) pins
the 6561-dimensional span, recorded when it was still counted image by
image, so the generation certificate must give the same bytes.  An
ell = 3 fiber-rep and reduce suite on the weights (1), (1), (1) runs
every branch of the rank-one seam rule: a c != 0, w = 0 factor whose
vanishing delta is the seam's own (gamma = q), one whose vanishing delta
is off the seam (gamma = 1), and a c = 0 factor.  Two more ell = 3 reduce suites
pin the listing of admissible parameters after an inadmissible eta, a
shift of 2 on the weights (1), (-1), and a trivial torus (d = 0), whose
reduction keeps the whole fiber.  The quiver suites run U_1 and the
cyclic-quiver table at ell = 3 for n = 2, 3, 4 (n = 2 has no table) with
a qmm-check, and at ell = 13 for n = 3.  The algebra suites pin
normalize (with one malformed expression) and center-check at ell = 3,
to degree 3 for n = 2 and to degree 6 for n = 1.  A composite-ell suite,
ell = 9 on the weights (2), (1), pins normalize, qmm-check and
center-check to degree 9, so the composite path of the cyclotomic field
(deg Phi_9 = 6 < 8) is under the gate too; it was recorded before the
center-check rows were read off their closed form.  A second ell = 9
suite runs fiber-rep, reduce and qmm-check at d = 2 on the weights
(1, 1), (-1, 2), so a composite-ell matrix model and reduction are under
the gate, and the z-checks pull back a negative weight (u = (1, -1) for
z_1); it was recorded before verify_qmm took the alpha exponent u.
Together the configs cover every task type.
To record a new output: qweyl report --config <config> --out <output>.
The same bytes must come out under python -O, which strips assert
statements, so no report rests on one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qweyl import pbw
from qweyl.cli import _RUNNERS, main

ROOT = Path(__file__).resolve().parent
CONFIGS = sorted((ROOT / "report_configs").glob("*.json"))
OUTPUT = ROOT / "report_output"


@pytest.mark.parametrize("config", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_report_matches_recorded_output(config, tmp_path):
    out = tmp_path / "report.json"
    assert main(["report", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == (OUTPUT / f"{config.stem}.json").read_bytes()


def test_report_outputs_are_found():
    assert CONFIGS  # an empty glob would parametrize nothing and pass
    assert sorted(p.stem for p in OUTPUT.glob("*.json")) == [p.stem for p in CONFIGS]
    # every task type is pinned by some config
    covered = {task["type"] for p in CONFIGS for task in json.loads(p.read_text())["tasks"]}
    assert covered == set(_RUNNERS)


ALGEBRA_CONFIGS = [p for p in CONFIGS if p.stem.startswith("algebra_")]


@pytest.mark.parametrize("config", ALGEBRA_CONFIGS, ids=[p.stem for p in ALGEBRA_CONFIGS])
def test_the_exact_solve_writes_the_certified_bytes(config, tmp_path, monkeypatch):
    # with no modular certificate every center-check takes its one exact
    # nullspace, which must give the dimension that the certificate gives
    solves = []
    nullspace = pbw.nullspace
    monkeypatch.setattr(pbw, "modular_rank", lambda rows, field, bound: None)
    monkeypatch.setattr(pbw, "nullspace", lambda *args: solves.append(1) or nullspace(*args))
    out = tmp_path / "report.json"
    assert main(["report", "--config", str(config), "--out", str(out)]) == 0
    centers = [t for t in json.loads(config.read_text())["tasks"] if t["type"] == "center-check"]
    assert len(ALGEBRA_CONFIGS) == 3 and centers and len(solves) == len(centers)
    assert out.read_bytes() == (OUTPUT / f"{config.stem}.json").read_bytes()


def test_reports_match_recorded_output_under_python_O(tmp_path):
    # one interpreter writes every report; it exits 3 if asserts were kept
    code = ("import sys\n"
            "from qweyl.cli import main\n"
            "if __debug__: sys.exit(3)\n"
            "for config, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
            "    if main(['report', '--config', config, '--out', out]): sys.exit(1)\n")
    args = [str(a) for config in CONFIGS for a in (config, tmp_path / config.name)]
    env = dict(os.environ, PYTHONPATH=str(ROOT.parent / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert CONFIGS and proc.returncode == 0, proc.stderr
    differ = [config.name for config in CONFIGS
              if (tmp_path / config.name).read_bytes() != (OUTPUT / config.name).read_bytes()]
    assert not differ, differ
