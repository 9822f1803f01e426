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
to degree 3 for n = 2 and to degree 6 for n = 1.  Together the configs
cover every task type.
To record a new output: qweyl report --config <config> --out <output>.
"""

import json
from pathlib import Path

import pytest

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
