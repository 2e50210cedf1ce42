"""Each demo script runs to completion against the library in src/ and
prints exactly its checked-in output, demo_outputs/<demo>.txt.  The demos
are deterministic, so any change in what they print shows here; regenerate
a file only for a change meant to alter that demo's output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "demo_outputs"


def test_demos_found():
    assert DEMOS
    assert sorted(p.stem for p in EXPECTED.glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == (EXPECTED / f"{demo.stem}.txt").read_text()
