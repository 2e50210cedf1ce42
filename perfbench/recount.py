"""Recount the frozen O'Nan numbers with a search written apart from the library.

    python3 perfbench/recount.py

The O'Nan counts 324 (parabolic, q=3), 0 (classical, q=3), 142 500
(parabolic, q=5), 0 (classical, q=5) and the through-infinity counts of the
Coulter-Matthews unital at q=9 have no closed form; the library's tests and
the benchmark compare against frozen values.  This script recomputes them
without importing unitalforge: fields, moduli, theta, planes, unitals and
blocks all come from `oracle.py`, and the search is a different one.

Counting: an O'Nan configuration is four blocks pairwise meeting in six
distinct points.  Each of its six block pairs meets, and is completed by
exactly one pair of the other two blocks, so summing the completions of
every meeting pair counts each configuration six times.  A configuration
through infinity has exactly one block pair meeting there, a pair of
verticals, so summing completions over vertical pairs counts each of them
once.  A circle-pair hit is a line shift a != 0 and two circles (the first
coordinates of the affine points of a block on some L(a, b), and of one on
some L(0, b')) sharing at least three elements.

Runs in a few seconds on one core.  Exit code 0 when every recount agrees.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracle as orc  # noqa: E402

# the frozen values in the library's tests, which the recount must give
FROZEN = {
    "onan parabolic q=3": 324,
    "onan classical q=3": 0,
    "onan parabolic q=5": 142500,
    "onan classical q=5": 0,
    "through-infinity configs q=3": 0,
    "through-infinity hits q=3": 0,
    "through-infinity configs q=5": 0,
    "through-infinity hits q=5": 0,
    "through-infinity hits cm q=9": 288,
}


def smallest_irreducible(p: int, m: int) -> list[int]:
    """The documented default modulus: the first monic irreducible of degree
    m with (c_0, ..., c_{m-1}) in lexicographic order, constant term first."""
    for code in range(p ** m):
        low = [(code // p ** (m - 1 - i)) % p for i in range(m)]
        if orc.irreducible_by_trial_division(low + [1], p):
            return low + [1]
    raise orc.OracleError("no irreducible polynomial")


def instance(p: int, m: int, d: int):
    mod = smallest_irreducible(p, m)
    F = orc.OracleField(f"p={p},m={m},mod=[{','.join(map(str, mod))}]")
    ext = orc.Extension(F)
    f = orc.power_table(F, d)
    return F, ext, f, orc.Geometry(F, f)


def design(geo: orc.Geometry, points: list[int], q: int):
    """Blocks as point-rank lists, their line IDs, and the common-point matrix."""
    rank = {pt: i for i, pt in enumerate(points)}
    blocks = geo.blocks(points)
    if any(len(sec) != q + 1 for _, sec in blocks) or len(blocks) != q ** 4 - q ** 3 + q ** 2:
        raise orc.OracleError("the point set is not a unital")
    lids = [lid for lid, _ in blocks]
    ranks = [[rank[pt] for pt in sec] for _, sec in blocks]
    return lids, ranks, orc.common_point_matrix(ranks, len(points))


def count_onan(ranks, cp, n: int) -> int:
    total = 0
    for b1 in range(len(ranks)):
        for b2 in np.flatnonzero(cp[b1, b1 + 1:] >= 0) + b1 + 1:
            total += orc.completions(ranks, cp, n, b1, int(b2))
    if total % 6:
        raise orc.OracleError(f"completion total {total} is not a multiple of 6")
    return total // 6


def through_infinity(geo: orc.Geometry, points, lids, ranks, cp) -> tuple[int, int]:
    N = geo.N
    verts = [i for i, lid in enumerate(lids) if N * N <= lid < N * N + N]
    configs = sum(orc.completions(ranks, cp, len(points), b1, b2)
                  for i, b1 in enumerate(verts) for b2 in verts[i + 1:])
    member = set(points)
    circles: dict[int, set] = {}
    for lid in lids:
        if lid < N * N:
            a = lid // N
            xs = frozenset(pt // N for pt in geo.line_points(lid)
                           if pt in member and pt < N * N)
            circles.setdefault(a, set()).add(xs)
    hits = sum(len(c & c0) >= 3 for a, cs in circles.items() if a
               for c in cs for c0 in circles[0])
    return configs, hits


def main() -> int:
    t0 = time.perf_counter()
    got = {}
    for q in (3, 5):
        F, ext, f, geo = instance(q, 2, 2)
        for kind, pts in (("parabolic", orc.parabolic_points(ext, ext.canonical_theta())),
                          ("classical", orc.polarity_points(ext, f))):
            lids, ranks, cp = design(geo, pts, q)
            got[f"onan {kind} q={q}"] = count_onan(ranks, cp, len(pts))
            if kind == "parabolic":
                c, h = through_infinity(geo, pts, lids, ranks, cp)
                got[f"through-infinity configs q={q}"] = c
                got[f"through-infinity hits q={q}"] = h
    F, ext, f, geo = instance(3, 4, (3 ** 3 + 1) // 2)
    pts = orc.parabolic_points(ext, ext.canonical_theta())
    lids, ranks, cp = design(geo, pts, 9)
    c, h = through_infinity(geo, pts, lids, ranks, cp)
    got["through-infinity configs cm q=9"] = c
    got["through-infinity hits cm q=9"] = h

    ok = True
    print(f"{'count':<34}{'frozen':>10}{'recount':>10}")
    for name, frozen in FROZEN.items():
        ok &= got[name] == frozen
        mark = "" if got[name] == frozen else "  MISMATCH"
        print(f"{name:<34}{frozen:>10}{got[name]:>10}{mark}")
    print(f"{'through-infinity configs cm q=9':<34}{64:>10}"
          f"{got['through-infinity configs cm q=9']:>10}  (see below)")
    print("The frozen 64 is not a count: find_onan_through_infinity stops at its\n"
          "default max_configs=64 and builds one configuration per circle hit, 288\n"
          "when uncapped.  The recount is every O'Nan configuration through infinity.")
    print(f"recount took {time.perf_counter() - t0:.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
