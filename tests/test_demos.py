"""The demo scripts run to the end, with and without python -O, and print
exactly the text recorded in tests/demo_output/<stem>.txt."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
OUTPUT = ROOT / "tests" / "demo_output"


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, flags):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *flags, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)
    stderr = proc.stderr.decode(errors="replace")
    assert proc.returncode == 0 and "Traceback" not in stderr, stderr
    assert proc.stdout == (OUTPUT / f"{demo.stem}.txt").read_bytes()


def test_demos_are_found():
    assert DEMOS  # an empty glob would parametrize nothing and pass
    assert sorted(p.stem for p in OUTPUT.glob("*.txt")) == [p.stem for p in DEMOS]
