"""The benchmark's workloads: operations timed through layer spans, and the
checks of each operation's outputs, which run after its clock stops.

Every operation is a function `op(r)` that calls the library's public
functions inside `r.span(layer, stage)` blocks and returns its outputs; its
check `check(r, out)` compares them with the design parameters of the
method and with the independent oracle in `oracle.py`.  State that later
operations need (built unitals, their design indexes, files) stays in
`r.state`, and the library's own caches persist between operations, as in
a library session.
"""

from __future__ import annotations

import os
from math import comb

import numpy as np

import oracle as orc
from unitalforge import analysis as an
from unitalforge import gf, planar
from unitalforge import unital as un
from unitalforge.errors import UnitalForgeError
from unitalforge.plane import Gamma, Shift, ShiftPlane, Sigma, verify_collineation


class Round:
    """One pass over a workload's operations."""

    def __init__(self, seed: int, tracer, workdir: str):
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)   # the benchmark's own choices
        self.state: dict = {}
        self.problems: list[str] = []

    def span(self, layer: str, stage: str):
        return self.tracer.span(layer, stage)

    def expect(self, cond, what: str):
        if not cond:
            self.problems.append(what)


def make_plane(r: Round, p: int, n: int, spec_text: str):
    """Field, split, planar function table and plane of one instance."""
    with r.span("gf", "field_new"):
        ctx = gf.field_new(p, 2 * n)
    with r.span("gf", "split_new"):
        split = gf.split_new(ctx, n)
    with r.span("planar", "table"):
        spec = planar.parse_spec(split, spec_text)
        spec.table
    with r.span("plane", "construct"):
        plane = ShiftPlane(spec)
    return ctx, split, spec, plane


def design_counts(q: int) -> dict:
    return {"points": q ** 3 + 1, "tangents": q ** 3 + 1,
            "secants": q ** 4 - q ** 3 + q ** 2, "lines": q ** 4 + q ** 2 + 1,
            "pairs": comb(q ** 3 + 1, 2), "replication": q * q}


def check_counts(r: Round, tag: str, q: int, counts):
    """Tangent and secant numbers of a line-count vector."""
    d = design_counts(q)
    counts = np.asarray(counts)
    r.expect(len(counts) == d["lines"], f"{tag}: {len(counts)} lines")
    r.expect(int((counts == 1).sum()) == d["tangents"], f"{tag}: tangent count")
    r.expect(int((counts == q + 1).sum()) == d["secants"], f"{tag}: secant count")


# ----------------------------------------------------------------------
# certify-exhaustive
# ----------------------------------------------------------------------

# (tag, p, n, spec, exponent d of the power map f(x) = x^d)
EXHAUSTIVE = (
    ("square-q3", 3, 1, "square", 2),
    ("square-q5", 5, 1, "square", 2),
    ("cm-q9", 3, 2, "cm:k=3", (3 ** 3 + 1) // 2),
    ("albert-q27", 3, 3, "albert:k=2", 3 ** 2 + 1),
)
EXHAUSTIVE_MAX_Q = 9          # exhaustive axioms, collineations and designs


def certify_unital(r: Round, u, q: int) -> dict:
    with r.span("unital", "embedded") as c:
        emb = un.verify_unital_embedded(u, mode="exhaustive")
        c["lines_checked"] = emb.lines_checked
    des = None
    if q <= EXHAUSTIVE_MAX_Q:
        with r.span("unital", "design") as c:
            des = un.verify_design(u, mode="exhaustive")
            c["pairs_covered"] = des.pairs_covered
    return {"unital": u, "embedded": emb, "design": des}


def collineations(r: Round, plane):
    N = plane.N
    u, v, w = (int(x) for x in r.rng.integers(0, N, 3))
    yield "shift", Shift(plane, u, v)
    if plane.spec.is_power_map:
        yield "gamma", Gamma(plane, int(r.rng.integers(1, N)),
                             int(r.rng.integers(0, plane.ctx.m)))
    if plane.spec.is_dembowski_ostrom:
        yield "sigma", Sigma(plane, u, v, w)


def exhaustive_op(p: int, n: int, spec_text: str):
    q = p ** n

    def op(r: Round) -> dict:
        out: dict = {}
        ctx, split, spec, plane = make_plane(r, p, n, spec_text)
        out.update(ctx=ctx, split=split, spec=spec, plane=plane)
        with r.span("planar", "planarity") as c:
            out["planar"] = planar.certify(spec, mode="exhaustive")
            c["shifts_checked"] = out["planar"].planarity.shifts_checked
        with r.span("plane", "axioms") as c:
            if q <= EXHAUSTIVE_MAX_Q:
                out["axioms"] = plane.verify_projective_plane("exhaustive")
            else:
                out["axioms"] = plane.verify_projective_plane("sampled", seed=r.seed)
            c["pairs_checked"] = out["axioms"].pairs_checked
        out["collineations"] = {}
        if q <= EXHAUSTIVE_MAX_Q:
            for kind, g in collineations(r, plane):
                with r.span("plane", "collineation"):
                    out["collineations"][kind] = verify_collineation(plane, g)
        out["theta"] = split.choose_theta()
        with r.span("unital", "build"):
            u = un.build_parabolic_unital(plane, out["theta"])
        out["parabolic"] = certify_unital(r, u, q)
        kappa = un.InvolutionSpec("frobq")
        with r.span("unital", "polarity") as c:
            out["polarity_report"] = un.verify_polarity(plane, kappa, seed=r.seed)
            upol = un.build_polarity_unital(plane, kappa)
            c["incidences_checked"] = out["polarity_report"].incidences_checked
        out["polarity"] = certify_unital(r, upol, q)
        with r.span("unital", "derived"):
            out["dual"] = un.dual_unital(u)
            out["ovals"] = un.ovals_decomposition(u)
        with r.span("analysis", "circles"):
            out["circles"] = an.verify_circle_design(u)
        return out

    return op


def exhaustive_check(tag: str, d: int):
    def check(r: Round, out: dict):
        plane, spec = out["plane"], out["spec"]
        N, q = plane.N, plane.split.sub_size
        dc = design_counts(q)
        cert = out["planar"]
        r.expect(cert.is_planar and cert.is_normal, f"{tag}: planar certificate")
        r.expect(cert.planarity.shifts_checked == N - 1, f"{tag}: shifts checked")
        ax = out["axioms"]
        r.expect(ax.passed, f"{tag}: plane axioms")
        if ax.mode == "exhaustive":
            r.expect(ax.pairs_checked == comb(q ** 4 + q ** 2 + 1, 2),
                     f"{tag}: plane pairs {ax.pairs_checked}")
        if q <= EXHAUSTIVE_MAX_Q:
            kinds = {"shift"} | ({"gamma"} if spec.is_power_map else set()) | (
                {"sigma"} if spec.is_dembowski_ostrom else set())
            r.expect(set(out["collineations"]) == kinds
                     and all(out["collineations"].values()),
                     f"{tag}: collineations {out['collineations']}")
        pol = out["polarity_report"]
        r.expect(pol.passed and pol.absolute_points == dc["points"],
                 f"{tag}: absolute points {pol.absolute_points}")
        for kind in ("parabolic", "polarity"):
            res = out[kind]
            u, emb, des = res["unital"], res["embedded"], res["design"]
            r.expect(len(u.points) == dc["points"], f"{tag} {kind}: |U|")
            r.expect(emb.passed and emb.tangent_count == dc["tangents"]
                     and emb.secant_count == dc["secants"]
                     and emb.lines_checked == dc["lines"],
                     f"{tag} {kind}: embedded report {emb}")
            if des is not None:
                r.expect(des.passed and des.replication_ok
                         and des.pairs_covered == dc["pairs"]
                         and des.block_count == dc["secants"],
                         f"{tag} {kind}: design report {des}")
        u = out["parabolic"]["unital"]
        dual, wit = out["dual"]
        r.expect(wit["tangent_lines"] == dc["tangents"]
                 and np.array_equal(dual.points, u.points), f"{tag}: dual switch")
        ovals = out["ovals"]
        r.expect(len(ovals) == q and all(len(o) == q * q + 1 for o in ovals),
                 f"{tag}: ovals")
        circ = out["circles"]
        r.expect(circ.passed and circ.circle_count == q ** 3 - q ** 2
                 and circ.circle_size == q + 1 and circ.lambda_value == q,
                 f"{tag}: circle design {circ}")
        if q <= EXHAUSTIVE_MAX_Q:
            oracle_line_counts(r, tag, out, d)

    return check


def oracle_line_counts(r: Round, tag: str, out: dict, d: int):
    """Rebuild f, theta and both point sets in the oracle, recount every
    line and compare line by line with the library's counts."""
    plane, split = out["plane"], out["split"]
    q = split.sub_size
    F = orc.OracleField(out["ctx"].descriptor())
    ext = orc.Extension(F)
    f = orc.power_table(F, d)
    r.expect(f == plane.f.tolist(), f"{tag}: oracle f table")
    r.expect(ext.xi == split.xi and ext.canonical_theta() == out["theta"],
             f"{tag}: oracle xi/theta")
    geo = orc.Geometry(F, f)
    for kind, pts in (("parabolic", orc.parabolic_points(ext, out["theta"])),
                      ("polarity", orc.polarity_points(ext, f))):
        u = out[kind]["unital"]
        r.expect(pts == u.points.tolist(), f"{tag} {kind}: oracle point set")
        counts = geo.line_counts(u.points.tolist())
        r.expect(counts == un.line_intersection_counts(u).tolist(),
                 f"{tag} {kind}: oracle line counts differ")
        check_counts(r, f"{tag} {kind} oracle", q, counts)


# ----------------------------------------------------------------------
# certify-sampled
# ----------------------------------------------------------------------

# (tag, p, n, spec); theta = xi, as the command line picks for these families
SAMPLED = (
    ("zhoupott-q125", 5, 3, "zhoupott:i=1,k=1"),
    ("pw-q243", 3, 5, "pw"),
)
PLANARITY_SHIFTS = 1000
EMBEDDED_TRIALS = 10000
ORACLE_PRODUCTS = 200
ORACLE_F_VALUES = 20
ORACLE_DIFFERENCE_MAPS = 1
ROUNDTRIP = "zhoupott-q125"          # the unital stored, read back and tampered


def sampled_op(tag: str, p: int, n: int, spec_text: str):
    def op(r: Round) -> dict:
        ctx, split, spec, plane = make_plane(r, p, n, spec_text)
        out = {"ctx": ctx, "split": split, "spec": spec, "plane": plane,
               "theta": split.xi}
        with r.span("planar", "planarity") as c:
            out["planarity"] = planar.check_planarity(
                spec, mode="sampled", trials=PLANARITY_SHIFTS, seed=r.seed)
            c["shifts_checked"] = out["planarity"].shifts_checked
        with r.span("planar", "normality"):
            out["normal"] = planar.check_normality(spec)
        with r.span("unital", "hypothesis"):
            out["hypothesis"] = un.check_parabolic_hypothesis(plane, out["theta"])
        with r.span("unital", "build"):
            out["unital"] = un.build_parabolic_unital(plane, out["theta"])
        with r.span("unital", "embedded") as c:
            out["embedded"] = un.verify_unital_embedded(
                out["unital"], mode="sampled", seed=r.seed, trials=EMBEDDED_TRIALS)
            c["lines_checked"] = out["embedded"].lines_checked
        if tag == ROUNDTRIP:
            r.state["roundtrip_unital"] = out["unital"]
        return out

    return op


def sampled_f(ext: orc.Extension, family: str, x: int) -> int:
    """f(x) of the two-component families from their defining formulas."""
    F = ext.F
    x0, x1 = ext.decompose(x)
    p = F.p
    if family == "zhoupott":           # i = 1, k = 1
        f0 = F.add(F.pow(x0, p + 1), F.mul(ext.alpha, F.pow(x1, p ** 2 + p)))
        f1 = F.mul(2 % p, F.mul(x0, x1))
    elif family == "pw":               # Penttila-Williams
        f0 = F.add(F.mul(x0, x0), F.pow(x1, 18))
        f1 = F.add(F.mul(2 % p, F.mul(x0, x1)), F.pow(x1, 54))
    else:
        raise orc.OracleError(f"no defining formula for {family!r}")
    return ext.recompose(f0, f1)


def sampled_check(tag: str):
    def check(r: Round, out: dict):
        ctx, split, plane, u = out["ctx"], out["split"], out["plane"], out["unital"]
        N, q = plane.N, split.sub_size
        chk = out["planarity"]
        r.expect(chk.passed and chk.shifts_checked == PLANARITY_SHIFTS,
                 f"{tag}: sampled planarity {chk}")
        r.expect(out["normal"][0], f"{tag}: normality")
        ok, hist = out["hypothesis"]
        r.expect(ok and hist.get(0) == 1 and len(hist) == q
                 and all(v == q + 1 for c, v in hist.items() if c != 0),
                 f"{tag}: fiber histogram")
        r.expect(len(u.points) == q ** 3 + 1
                 and bool((u.points[1:] > u.points[:-1]).all()), f"{tag}: |U|")
        emb = out["embedded"]
        r.expect(emb.passed and emb.secant_count + emb.tangent_count
                 == emb.lines_checked >= EMBEDDED_TRIALS // 2,
                 f"{tag}: sampled embedded report {emb}")
        # oracle spot checks: products and sums, f values, difference maps
        F = orc.OracleField(ctx.descriptor())
        ext = orc.Extension(F, xi=split.xi)
        rng = np.random.default_rng([r.seed, N])
        a, b = (v.tolist() for v in rng.integers(0, N, (2, ORACLE_PRODUCTS)))
        lib_mul = np.asarray(ctx.mul(np.asarray(a), np.asarray(b))).tolist()
        lib_add = np.asarray(ctx.add(np.asarray(a), np.asarray(b))).tolist()
        r.expect(lib_mul == [F.mul(x, y) for x, y in zip(a, b)], f"{tag}: products")
        r.expect(lib_add == [F.add(x, y) for x, y in zip(a, b)], f"{tag}: sums")
        f = plane.f.tolist()
        for x in rng.integers(0, N, ORACLE_F_VALUES).tolist():
            r.expect(f[x] == sampled_f(ext, out["spec"].family, x), f"{tag}: f({x})")
        for s in rng.integers(1, N, ORACLE_DIFFERENCE_MAPS).tolist():
            image = {F.sub(f[F.add(x, s)], fx) for x, fx in enumerate(f)}
            r.expect(len(image) == N, f"{tag}: difference map at {s} not bijective")
        # sampled membership of the point set: (x, y) with y/theta in F_q
        inv_theta = F.inv(out["theta"])
        for pid in rng.choice(u.points[:-1], 50).tolist():
            z = F.mul(pid % N, inv_theta)
            r.expect(ext.frob(z) == z, f"{tag}: point {pid} off the set")
        r.expect(int(u.points[-1]) == N * N + N, f"{tag}: infinity")

    return check


def roundtrip_op(r: Round) -> dict:
    u = r.state["roundtrip_unital"]
    path = os.path.join(r.workdir, "roundtrip.unital")
    with r.span("unital", "io"):
        un.write_unital_file(u, path)
        back = un.read_unital_file(path)
    with r.span("unital", "embedded") as c:
        emb = un.verify_unital_embedded(back, mode="sampled", seed=r.seed,
                                        trials=EMBEDDED_TRIALS)
        c["lines_checked"] = emb.lines_checked
    return {"unital": u, "back": back, "embedded": emb, "path": path}


def roundtrip_check(r: Round, out: dict):
    u, back = out["unital"], out["back"]
    r.expect(np.array_equal(u.points, back.points) and back.theta == u.theta,
             "roundtrip: file does not reproduce the unital")
    r.expect(out["embedded"].passed, "roundtrip: sampled verification")
    # the tampered copy: the last affine point becomes the slope point (0);
    # the file is streamed, so the copy adds nothing to the peak RSS
    N = u.plane.N
    last_affine = 4 + len(u.points) - 2       # four header lines, then the IDs
    tampered = os.path.join(r.workdir, "tampered.unital")
    with open(out["path"]) as src, open(tampered, "w") as dst:
        for i, line in enumerate(src):
            if i == last_affine:
                r.expect(int(line) == int(u.points[-2]), "roundtrip: file layout")
                line = f"{N * N}\n"
            dst.write(line)
    os.remove(out["path"])
    r.state["tampered_path"] = tampered


TAMPERED_SEED = 0        # fixed, so the rejection does not depend on --seed


def tampered_op(r: Round) -> dict:
    """Read and verify a file with one point swapped; it must be rejected.

    Returns failed=True when the verifier accepts it: sampled mode answers
    line counts from the theta on the provenance line, not from the points.
    """
    path = r.state["tampered_path"]
    with r.span("unital", "io"):
        bad = un.read_unital_file(path)
    try:
        with r.span("unital", "embedded") as c:
            emb = un.verify_unital_embedded(bad, mode="sampled", seed=TAMPERED_SEED,
                                            trials=EMBEDDED_TRIALS)
            c["lines_checked"] = emb.lines_checked
        rejected = not emb.passed
    except UnitalForgeError:
        rejected = True
    return {"failed": not rejected, "path": path}


def tampered_check(r: Round, out: dict):
    os.remove(out["path"])


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------

ONAN_COUNTS = {("parabolic", 3): 324, ("classical", 3): 0,
               ("parabolic", 5): 142500, ("classical", 5): 0}
THROUGH_INF = {3: (0, 0), 5: (0, 0), 9: (64, 288)}   # (configs, circle hits)
ONAN_ORACLE_SAMPLE_Q5 = 30


def build_op(r: Round) -> dict:
    st = r.state
    for q in (3, 5):
        ctx, split, spec, plane = make_plane(r, q, 1, "square")
        with r.span("unital", "build"):
            st[("parabolic", q)] = un.build_parabolic_unital(plane, split.choose_theta())
        with r.span("unital", "polarity"):
            st[("classical", q)] = un.build_classical_baseline(split)
        st[("plane", q)] = plane
    ctx, split, spec, plane = make_plane(r, 3, 2, "cm:k=3")
    with r.span("unital", "build"):
        st[("parabolic", 9)] = un.build_parabolic_unital(plane, split.choose_theta())
    with r.span("unital", "polarity"):
        st[("polarity", 9)] = un.build_polarity_unital(plane, un.InvolutionSpec("frobq"))
    return {}


def build_check(r: Round, out: dict):
    for key, u in r.state.items():
        if key[0] != "plane":
            r.expect(len(u.points) == key[1] ** 3 + 1, f"build {key}: |U|")


def design_index_op(r: Round) -> dict:
    for key in ONAN_COUNTS:
        u = r.state[key]
        with r.span("unital", "blocks"):
            u.blocks
        with r.span("analysis", "design_index"):
            idx = an.DesignIndex(u)
            idx.blocks_by_point, idx.block_through_pair, idx.meets, idx.common_point
        r.state[("index",) + key] = idx
    return {}


def design_index_check(r: Round, out: dict):
    for kind, q in ONAN_COUNTS:
        idx = r.state[("index", kind, q)]
        dc = design_counts(q)
        r.expect(idx.B == dc["secants"] and idx.n == dc["points"]
                 and idx.blocks_by_point.shape == (dc["points"], dc["replication"]),
                 f"design index {kind} q={q}")


def onan_op(r: Round) -> dict:
    res = {}
    for key in ONAN_COUNTS:
        with r.span("analysis", "onan") as c:
            res[key] = an.find_onan_exhaustive(r.state[key], index=r.state[("index",) + key])
            c["quadruples_examined"] = res[key].examined
            c["onan_configs"] = res[key].count
    return res


def onan_check(r: Round, out: dict):
    for (kind, q), want in ONAN_COUNTS.items():
        res = out[(kind, q)]
        r.expect(res.complete and res.count == want == len(res.configs),
                 f"onan {kind} q={q}: {res.count} configs, want {want}")
    # the oracle verifies every configuration at q=3 and a sample at q=5
    for q, sample in ((3, None), (5, ONAN_ORACLE_SAMPLE_Q5)):
        u = r.state[("parabolic", q)]
        configs = out[("parabolic", q)].configs
        if sample is not None and configs:
            pick = np.random.default_rng([r.seed, q]).choice(len(configs), sample, replace=False)
            configs = [configs[i] for i in pick]
        verify_configs(r, u, configs, f"onan q={q}")


def verify_configs(r: Round, u, configs, tag: str):
    F = orc.OracleField(u.plane.ctx.descriptor())
    geo = orc.Geometry(F, u.plane.f.tolist())
    member = set(u.points.tolist())
    for cfg in configs:
        why = orc.check_onan(geo, member, u.q, cfg.blocks, cfg.points)
        r.expect(why is None, f"{tag}: {cfg.blocks}: {why}")


def wilbrink_op(r: Round) -> dict:
    res = {}
    for q in (3, 5):
        u, idx = r.state[("parabolic", q)], r.state[("index", "parabolic", q)]
        with r.span("analysis", "wilbrink") as c:
            reports = [an.wilbrink_vertex_check(u, int(pid), strong=True, index=idx)
                       for pid in u.points]
            ratio = an.wilbrink_vertex_check(u, u.plane.infinity_id, strong=False,
                                             index=idx)
            c["wilbrink_triples"] = sum(rep.total for rep in reports) + ratio.total
        res[q] = (reports, ratio)
    return res


def wilbrink_check(r: Round, out: dict):
    for q, (reports, ratio) in out.items():
        inf = r.state[("parabolic", q)].plane.infinity_id
        strong = [rep.point_id for rep in reports if rep.strong]
        r.expect(strong == [inf], f"wilbrink q={q}: strong vertices {strong}")
        r.expect(ratio.strong and ratio.satisfied == ratio.total > 0,
                 f"wilbrink q={q}: ratio sweep {ratio}")


def through_infinity_op(r: Round) -> dict:
    res = {}
    for q in THROUGH_INF:
        with r.span("analysis", "onan"):
            res[q] = an.find_onan_through_infinity(r.state[("parabolic", q)])
    return res


def through_infinity_check(r: Round, out: dict):
    for q, (configs, hits) in out.items():
        r.expect((len(configs), len(hits)) == THROUGH_INF[q],
                 f"through infinity q={q}: {len(configs)}/{len(hits)}")
        u = r.state[("parabolic", q)]
        r.expect(all(u.plane.infinity_id in cfg.points for cfg in configs),
                 f"through infinity q={q}: a config misses infinity")
        verify_configs(r, u, configs, f"through infinity q={q}")


def stabilizers_op(r: Round) -> dict:
    res = {}
    with r.span("analysis", "stabilizer"):
        for q in (3, 5):
            for kind in ("parabolic", "classical"):
                res[(kind, q)] = an.sigma_stabilizer_report(r.state[(kind, q)])
        res["composition"] = an.verify_sigma_composition(r.state[("plane", 3)])
        for kind in ("parabolic", "polarity"):
            res[(kind, 9)] = an.shift_stabilizer_report(r.state[(kind, 9)])
    return res


def stabilizers_check(r: Round, out: dict):
    for q in (3, 5):
        par, cl = out[("parabolic", q)], out[("classical", q)]
        r.expect(par.order == q ** 3 and par.is_abelian,
                 f"sigma stabilizer parabolic q={q}: {par}")
        r.expect(cl.order == q ** 3 and not cl.is_abelian
                 and cl.commutator_witness is not None,
                 f"sigma stabilizer classical q={q}: {cl}")
    r.expect(out["composition"]["pairs_checked"] == 729 ** 2, "sigma composition")
    r.expect(out[("parabolic", 9)].order == 729 and out[("polarity", 9)].order == 81,
             "shift stabilizers at cm q=9")


def gamma_orbits_op(r: Round) -> dict:
    plane = r.state[("plane", 3)]
    split = plane.split
    with r.span("gf", "norms"):
        idx = np.arange(1, plane.N)
        norms = np.asarray(split.norm(idx))
        thetas = [int(t) for t, nv in zip(idx, norms) if split.sub_eta(int(nv)) == -1]
    with r.span("unital", "orbits"):
        classes = un.gamma_orbit_partition(plane, thetas)
    return {"thetas": thetas, "classes": classes}


def gamma_orbits_check(r: Round, out: dict):
    F = orc.OracleField(r.state[("plane", 3)].ctx.descriptor())
    # at q = 3 the norm t^(q+1) is a nonsquare of F_3 exactly when it is -1
    want = [t for t in range(1, F.size) if F.pow(t, 3 + 1) == F.neg(1)]
    r.expect(out["thetas"] == want, f"gamma orbits: thetas {out['thetas']}")
    r.expect(out["classes"] == [want], f"gamma orbits: classes {out['classes']}")


def compare_op(r: Round) -> dict:
    paths = []
    with r.span("unital", "io"):
        for kind in ("parabolic", "classical"):
            path = os.path.join(r.workdir, f"{kind}-q3.unital")
            un.write_unital_file(r.state[(kind, 3)], path)
            paths.append(path)
        left, right = (un.read_unital_file(p) for p in paths)
    with r.span("analysis", "compare"):
        profiles = [an.invariant_profile(u) for u in (left, right)]
        verdict, reasons = an.compare_profiles(*profiles)
    return {"left": left, "right": right, "profiles": profiles,
            "verdict": verdict, "reasons": reasons, "paths": paths}


def compare_check(r: Round, out: dict):
    for path in out["paths"]:
        os.remove(path)
    r.expect(np.array_equal(out["left"].points, r.state[("parabolic", 3)].points)
             and np.array_equal(out["right"].points, r.state[("classical", 3)].points),
             "compare: file round trip")
    lp, rp = out["profiles"]
    r.expect(out["verdict"] == "NON-ISOMORPHIC"
             and (lp.onan_total, rp.onan_total) == (324, 0)
             and lp.strong_vertex_count == 1,
             f"compare: {out['verdict']} {out['reasons']}")


# ----------------------------------------------------------------------

WORKLOADS = {
    "certify-exhaustive": [
        (tag, exhaustive_op(p, n, spec), exhaustive_check(tag, d))
        for tag, p, n, spec, d in EXHAUSTIVE],
    "certify-sampled": [
        (tag, sampled_op(tag, p, n, spec), sampled_check(tag))
        for tag, p, n, spec in SAMPLED] + [
        ("roundtrip", roundtrip_op, roundtrip_check),
        ("tampered", tampered_op, tampered_check)],
    "invariants": [
        ("build", build_op, build_check),
        ("design-index", design_index_op, design_index_check),
        ("onan-exhaustive", onan_op, onan_check),
        ("wilbrink", wilbrink_op, wilbrink_check),
        ("through-infinity", through_infinity_op, through_infinity_check),
        ("stabilizers", stabilizers_op, stabilizers_check),
        ("gamma-orbits", gamma_orbits_op, gamma_orbits_check),
        ("compare", compare_op, compare_check)],
}
