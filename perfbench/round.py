"""One round of one workload, in a fresh interpreter with one thread.

    python3 perfbench/round.py --workload invariants --seed 0 --trace 0 --workdir DIR
    python3 perfbench/round.py --setup-only

The library is imported from `src/` of the checkout this file sits in,
never from an installed copy.  Set-up (library import plus the benchmark's
own modules) is timed from just before the first import to just before
the first operation.  Each operation is timed on its own; its checks run
after its clock stops.  The last line of standard output is one JSON
object with the round's results.  Exit code 2 means the library source is
missing.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_library():
    package = SRC / "unitalforge"
    if not (package / "__init__.py").is_file():
        print(f"library source not found at {package}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import unitalforge

    if Path(unitalforge.__file__).resolve().parent != package.resolve():
        print(f"imported {unitalforge.__file__}, not {package}", file=sys.stderr)
        raise SystemExit(2)
    import speed
    import tracing
    import workloads

    return speed, tracing, workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    speed, tracing, workloads = import_library()
    if not args.setup_only and args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    setup_s = time.perf_counter() - T_START
    setup = {"setup_s": setup_s, "setup_ref_s": setup_s / speed.calibrate()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = tracing.Tracer(bool(args.trace))
    r = workloads.Round(args.seed, tracer, args.workdir)
    probe = speed.SpeedProbe()
    probe.start()
    ops = []
    for name, op, check in workloads.WORKLOADS[args.workload]:
        t0 = time.perf_counter()
        try:
            with tracer.operation(name):
                out = op(r)
        except Exception:
            out = None
            r.problems.append(f"{name} raised:\n{traceback.format_exc()}")
        t1 = time.perf_counter()
        ops.append({"name": name, "wall_s": t1 - t0,
                    "ref_s": (t1 - t0) / probe.slowdown(t0, t1),
                    "failed": out is None or bool(out.get("failed", False))})
        if out is None:
            continue
        try:
            check(r, out)
        except Exception:
            r.problems.append(f"{name} check raised:\n{traceback.format_exc()}")
        del out          # what later operations need is in r.state
    probe.stop()
    result = {**setup, "ops": ops, "problems": r.problems,
              "peak_rss_mb": tracing.peak_rss_mb(), "slowdown": probe.slowdown()}
    if args.trace:
        tracer.write(os.path.join(args.workdir, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        result["layers"] = tracing.rollup(tracer.spans)
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
