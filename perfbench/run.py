"""unitalforge benchmark: certification and invariant workloads, timed end
to end and per layer.

    python3 perfbench/run.py [--seed N] [--seconds S]
        every workload, untraced and traced, as one table
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
        one workload; the last line of output is one JSON result

A run measures whole rounds until `--seconds` have passed (at least one
round).  Each round is a fresh interpreter with one thread that runs the
workload's operations one after another, a closed loop with a single
caller; see round.py.  Set-up time is sampled in several fresh
interpreters per run and reported as the median.  With `--trace 1` every
round is run twice, untraced and traced: the per-layer metrics come from
the traced round and the tracing overhead is the difference of the two
rounds' wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "unitalforge"
OUT = HERE / "out"
WORKLOADS = ("certify-exhaustive", "certify-sampled", "invariants")
SETUP_PROBES = 5
RUN_LIMIT_S = 170          # no new round starts once a run would pass this
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def child(args: list[str], timeout: float) -> dict:
    """Run round.py in a fresh interpreter and parse its last output line."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "round.py"), *args],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              env={**os.environ, **ONE_THREAD}, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"round {args} did not end within {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise BenchError(f"round {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def round_wall(r: dict, key: str = "ref_s") -> float:
    return sum(op[key] for op in r["ops"])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT / f"{workload}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - start)

    setups = [child(["--setup-only"], remaining())["setup_ref_s"]
              for _ in range(SETUP_PROBES)]
    common = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    plain, traced = [], []
    t_rounds = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(child(common + ["--trace", "0"], remaining()))
        if trace:
            traced.append(child(common + ["--trace", "1"], remaining()))
        took = time.perf_counter() - t0
        if time.perf_counter() - t_rounds >= seconds or took > remaining():
            break
    for stale in workdir.glob("*.unital"):       # left only by a failed round
        stale.unlink()

    rounds = plain + traced
    walls = [round_wall(r) for r in plain]
    result = {
        "correct": not any(r["problems"] for r in rounds),
        "attempted": sum(len(r["ops"]) for r in rounds),
        "failed": sum(op["failed"] for r in rounds for op in r["ops"]),
        "problems": [p for r in rounds for p in r["problems"]],
        "rounds": len(plain),
        "end_to_end": {
            "wall_s": statistics.median(walls),
            "slowest_op_s": statistics.median(
                max(op["ref_s"] for op in r["ops"]) for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": statistics.median(setups + [r["setup_ref_s"] for r in rounds]),
        },
        "raw_wall_s": statistics.median(round_wall(r, "wall_s") for r in plain),
        "slowdown": statistics.median(r["slowdown"] for r in plain),
    }
    if trace:
        layers = {k: statistics.median(t["layers"][k] for t in traced)
                  for k in traced[0]["layers"]}
        layers["bench.spans"] = statistics.median(t["spans"] for t in traced)
        layers["bench.raw_wall_s"] = statistics.median(round_wall(t, "wall_s") for t in traced)
        layers["bench.slowdown"] = statistics.median(t["slowdown"] for t in traced)
        layers["bench.trace_overhead_s"] = (
            statistics.median(round_wall(t) for t in traced) - statistics.median(walls))
        result["per_layer"] = layers
    return result


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_yield", "slowdown")):
        return "ratio"
    return "count"


def with_units(metrics: dict) -> dict:
    return {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}


def report_problems(res: dict):
    for p in res["problems"]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"library source not found at {PACKAGE}", file=sys.stderr)
        return 2
    try:
        if args.workload:
            res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            return run_all(args.seed, args.seconds)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    report_problems(res)
    metrics = res["per_layer"] if args.trace else res["end_to_end"]
    for name, m in with_units(metrics).items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: {res['rounds']} round(s), raw wall time {res['raw_wall_s']:.6g} s "
          f"at {res['slowdown']:.3f}x the reference kernel time")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": with_units(metrics)}))
    return 0 if res["correct"] else 1


def run_all(seed: int, seconds: float) -> int:
    results = {}
    for w in WORKLOADS:
        print(f"running {w} ...", file=sys.stderr, flush=True)
        results[w] = run_workload(w, seed, seconds, trace=True)
        report_problems(results[w])
    header = f"{'metric':<32} {'unit':<6}" + "".join(f"{w:>20}" for w in WORKLOADS)
    print(header)
    print("-" * len(header))
    for key in ("correct", "attempted", "failed", "rounds"):
        print(f"{key:<32} {'':<6}" + "".join(f"{str(results[w][key]):>20}" for w in WORKLOADS))
    for section in ("end_to_end", "per_layer"):
        print(f"[{section}]")
        for name in results[WORKLOADS[0]][section]:
            vals = "".join(f"{results[w][section][name]:>20.6g}" for w in WORKLOADS)
            print(f"{name:<32} {unit_of(name):<6}{vals}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
