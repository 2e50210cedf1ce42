"""Reference figures outside the benchmark's workloads, measured once per run
of this script and printed as a table.

    python3 perfbench/reference.py            # about four minutes on one core

- tier-1: the test suite (`python -m pytest -q`), wall time and its summary;
- `unitalforge suite --quick` and `--full`, wall time;
- the ROADMAP baseline items: `field_new(3, 10)`, sampled planarity (1000
  shifts) on F_3^10 with one and two workers, `line_intersection_counts` on
  the Albert unital at q = 27, and `find_onan_exhaustive` at q = 5.

Each library item runs in its own fresh interpreter, so no cache is warm.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ITEMS = {
    "field_new(3, 10)": (
        "from unitalforge import gf", "gf.field_new(3, 10)"),
    "sampled planarity F_3^10, 1 worker": (
        "from unitalforge import gf, planar\n"
        "spec = planar.penttila_williams(gf.split_new(gf.field_new(3, 10), 5)); spec.table",
        "planar.check_planarity(spec, mode='sampled', trials=1000, seed=0, workers=1)"),
    "sampled planarity F_3^10, 2 workers": (
        "from unitalforge import gf, planar\n"
        "spec = planar.penttila_williams(gf.split_new(gf.field_new(3, 10), 5)); spec.table",
        "planar.check_planarity(spec, mode='sampled', trials=1000, seed=0, workers=2)"),
    "line_intersection_counts, albert q=27": (
        "from unitalforge import gf, planar, unital as un\n"
        "from unitalforge.plane import ShiftPlane\n"
        "s = gf.split_new(gf.field_new(3, 6), 3)\n"
        "u = un.build_parabolic_unital(ShiftPlane(planar.albert(s, 2)), s.choose_theta())",
        "un.line_intersection_counts(u)"),
    "find_onan_exhaustive, q=5": (
        "from unitalforge import analysis as an, gf, planar, unital as un\n"
        "from unitalforge.plane import ShiftPlane\n"
        "s = gf.split_new(gf.field_new(5, 2), 1)\n"
        "u = un.build_parabolic_unital(ShiftPlane(planar.square(s)), s.choose_theta())",
        "an.find_onan_exhaustive(u)"),
}


def timed(cmd: list[str]) -> tuple[float, str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    out = proc.stdout.strip().splitlines()
    return time.perf_counter() - t0, out[-1] if out else ""


def item(setup: str, stmt: str) -> float:
    code = (f"import time\n{setup}\nt = time.perf_counter()\n{stmt}\n"
            "print(time.perf_counter() - t)")
    _, last = timed([sys.executable, "-c", code])
    return float(last)


def main() -> int:
    import numpy

    rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {numpy.__version__}, revision {rev.stdout.strip() or 'unknown'}")
    rows = []
    t, last = timed([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                     "--continue-on-collection-errors"])
    rows.append(("tier-1", t, last))
    for flag in ("--quick", "--full"):
        t, _ = timed([sys.executable, "-m", "unitalforge.cli", "suite", flag])
        rows.append((f"suite {flag}", t, ""))
    for name, (setup, stmt) in ITEMS.items():
        rows.append((name, item(setup, stmt), ""))
    for name, t, note in rows:
        print(f"{name:<40} {t:8.2f} s  {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
