"""The acceptance runner.  `unitalforge suite` prints exactly the checked-in
matrix, suite_outputs/<mode>.txt, once each criterion's time is stripped:
the names, verdicts and notes that run_criterion stamps.  Regenerate a file
only for a change meant to alter what the matrix says."""

import os
import re
import subprocess
import sys
from pathlib import Path

import tracemalloc

import numpy as np
import pytest

from unitalforge import analysis as an, suite

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).resolve().parent / "suite_outputs"


@pytest.mark.parametrize("mode", ["quick", "full"])
def test_suite_prints_the_pinned_matrix(mode):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "unitalforge.cli", "suite", f"--{mode}"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    # 7c and 7d stay red in both modes, and criterion 2 in full mode
    assert proc.returncode == 1, proc.stderr[-2000:]
    printed = re.sub(r"  \(\d+\.\d+s\)$", "", proc.stdout, flags=re.M)
    assert printed == (EXPECTED / f"{mode}.txt").read_text()


def test_runner_stamps_names_and_times():
    names = {cid: name for cid, name, _ in suite.CRITERIA}
    results = suite.run_suite(full=False)
    assert [r.cid for r in results] == list(names)
    for r in results:
        # 7b only skips in quick mode, and still reads the runner's clock
        assert r.name == names[r.cid] and r.runtime > 0
    with pytest.raises(KeyError):
        suite.run_criterion("13")


def test_found_blocks_reads_the_narrow_result(unital_q5):
    # criterion 7d's witness lookup compares block indices: reading
    # widening the q = 5 result to block IDs made a 4.6 MB int64 table
    res = an.find_onan_exhaustive(unital_q5)
    cfg = an.construct_onan_explicit(unital_q5)
    tracemalloc.start()
    try:
        found = suite._found_blocks(res, cfg.blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found and peak < 2 ** 20
    row = res.block_lines[res.blocks[7]].tolist()
    assert suite._found_blocks(res, tuple(row))
    assert not suite._found_blocks(res, (row[0], row[1], row[2], row[3] + 1))
    assert not suite._found_blocks(res, tuple(res.block_lines[[0, 1, 2, 3]].tolist()))
