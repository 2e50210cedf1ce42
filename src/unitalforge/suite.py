"""The acceptance matrix: one callable per certified claim.

Each criterion function performs its sweeps at the stated scale and returns
(passed, details) or (passed, details, notes); run_criterion times it and
stamps its id and name from CRITERIA into a CriterionResult.  The pytest
acceptance module asserts these results; the command-line `suite` command
prints them as a table.  Expected constants are frozen here (design
parameters from the counting formulas, regression counts from the first
verified computation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import analysis as an
from . import gf
from . import planar
from . import unital as un
from .errors import SpecConstraintViolated, UnitalForgeError
from .plane import ShiftPlane, Sigma

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_suite"]


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    runtime: float = 0.0
    details: dict = field(default_factory=dict)
    notes: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f"  [{self.notes}]" if self.notes else ""
        return f"ACCEPTANCE {self.cid:>3} {self.name:<38} {status}{tail}"


# frozen regression counts (first verified computation, q = 3 and q = 9)
ONAN_COUNT_Q3_PARABOLIC = 324
ONAN_COUNT_Q3_CLASSICAL = 0
ONAN_THROUGH_INF_CM81_CONFIGS = an.THROUGH_INF_MAX_CONFIGS   # the search's cap, not a count
ONAN_THROUGH_INF_CM81_HITS = 288      # all circle hits; lifting the cap gives 288 configs


def _parabolic(p, n, make):
    """The plane of make(split) over F_{p^2n} and its parabolic unital at
    the split's chosen theta."""
    split = gf.split_new(gf.field_new(p, 2 * n), n)
    plane = ShiftPlane(make(split))
    return plane, un.build_parabolic_unital(plane, split.choose_theta())


def _cm81_unital():
    return _parabolic(3, 2, lambda s: planar.coulter_matthews(s, 3))


# -- criterion 1: quadratic solution-count oracle -------------------------


def _brute_quadratic_counts(p):
    """Independent oracle: counts of Q(x0, x1) = b over the prime field F_p,
    using plain modular integer arithmetic only."""
    x0, x1 = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    inv4 = pow(4 % p, p - 2, p)
    squares = set((i * i) % p for i in range(1, p))
    results = {}
    for a0 in range(p):
        for a1 in range(p):
            for a2 in range(p):
                delta = (a0 * a2 - a1 * a1 * inv4) % p
                if delta == 0:
                    continue
                q_vals = (a0 * x0 * x0 + a1 * x0 * x1 + a2 * x1 * x1) % p
                results[(a0, a1, a2)] = (np.bincount(q_vals.ravel(), minlength=p),
                                         delta, squares)
    return results


def criterion_01(full: bool):
    checked = 0
    for p in (3, 5, 7):
        ctx = gf.field_new(p, 1)
        for (a0, a1, a2), (counts, delta, squares) in _brute_quadratic_counts(p).items():
            library = gf.quadratic_solution_count(ctx, a0, a1, a2, np.arange(p))
            for b in range(p):
                nu = p - 1 if b == 0 else -1
                eta = 1 if (-delta) % p in squares else (0 if delta % p == 0 else -1)
                expected = p + nu * eta
                if counts[b] != expected:
                    return False, {"p": p, "coeffs": (a0, a1, a2), "b": b}
                if library[b] != expected:
                    return False, {"p": p, "side": "library"}
                checked += 1
    return True, {"cases": checked}


# -- criterion 2: planarity / normality of the catalog ---------------------


def criterion_02(full: bool):
    details = {}
    ok = True
    notes = []

    def run(tag, make, mode="exhaustive", trials=1000, ledger=False):
        nonlocal ok
        try:
            spec = make()
        except SpecConstraintViolated as e:
            details[tag] = f"not constructible: {e}"
            ok = False
            notes.append(f"{tag} not constructible"
                         + ("; see docs/LEDGER.md" if ledger else ""))
            return None
        cert = planar.certify(spec, mode=mode, trials=trials, seed=0)
        details[tag] = {"planar": cert.is_planar, "normal": cert.is_normal,
                        "mode": mode}
        if not (cert.is_planar and cert.is_normal):
            ok = False
        return spec

    run("square F_9", lambda: planar.square(gf.split_new(gf.field_new(3, 2), 1)))
    run("square F_25", lambda: planar.square(gf.split_new(gf.field_new(5, 2), 1)))
    if full:
        s729 = gf.split_new(gf.field_new(3, 6), 3)
        run("albert F_3^6 k=2", lambda: planar.albert(s729, 2))
        run("cm F_81 k=3",
            lambda: planar.coulter_matthews(gf.split_new(gf.field_new(3, 4), 2), 3))
        run("dickson F_5^4 i=1",
            lambda: planar.dickson(gf.split_new(gf.field_new(5, 4), 2), 1))
        run("ganley F_3^6", lambda: planar.ganley(s729))
        # stated clause: k = 1, which is provably non-planar (docs/LEDGER.md);
        # the smallest valid instance k = 2 is certified alongside
        run("bh F_3^6 k=1 (as stated)", lambda: planar.budaghyan_helleseth(s729, 1),
            ledger=True)
        run("bh F_3^6 k=2 (smallest valid)",
            lambda: planar.budaghyan_helleseth(s729, 2))
        # large set: exhaustive fiber histogram + sampled planarity
        for tag, split_args, make in (
                ("zhoupott F_5^6", (5, 6, 3),
                 lambda s: planar.zhou_pott(s, 1, 1)),
                ("pw F_3^10", (3, 10, 5),
                 lambda s: planar.penttila_williams(s))):
            p_, m_, n_ = split_args
            split = gf.split_new(gf.field_new(p_, m_), n_)
            spec = make(split)
            plane = ShiftPlane(spec)
            hyp_ok, _ = un.check_parabolic_hypothesis(plane, split.xi)
            chk = planar.check_planarity(spec, mode="sampled", trials=1000, seed=0)
            nrm, _ = planar.check_normality(spec)
            details[tag] = {"hypothesis": hyp_ok, "planar_sampled": chk.passed,
                            "shifts": chk.shifts_checked, "normal": nrm}
            if not (hyp_ok and chk.passed and nrm):
                ok = False
    return ok, details, "; ".join(notes)


# -- criterion 3: unital certification -------------------------------------


def criterion_03(full: bool):
    details = {}
    ok = True
    for p, n in ((3, 1), (5, 1)):
        q = p ** n
        plane, u = _parabolic(p, n, planar.square)
        emb = un.verify_unital_embedded(u)
        des = un.verify_design(u)
        details[f"square q={q}"] = {
            "points": len(u.points), "blocks": des.block_count,
            "embedded": emb.passed, "design": des.passed}
        ok &= (emb.passed and des.passed and len(u.points) == q ** 3 + 1
               and des.block_count == q ** 4 - q ** 3 + q ** 2)
    if full:
        plane, u = _cm81_unital()
        emb = un.verify_unital_embedded(u)           # full line sweep
        des = un.verify_design(u)
        details["cm q=9"] = {"points": len(u.points), "blocks": des.block_count,
                             "embedded": emb.passed, "design": des.passed}
        ok &= emb.passed and des.passed and len(u.points) == 730
    return ok, details


# -- criterion 4: tangency condition ---------------------------------------


def criterion_04(full: bool):
    details = {}
    ok = True
    for p in (3, 5):
        q = p
        plane, u = _parabolic(p, 1, planar.square)
        counts = un.line_intersection_counts(u)
        N = plane.N
        shifted = counts[: N * N]
        beta = np.asarray(un.beta_of(plane, u.theta,
                                     np.arange(N * N, dtype=np.int64) % N))
        tangency_match = bool(np.all((shifted == 1) == (beta == 0)))
        per_point = np.zeros(plane.n_points, dtype=np.int64)
        for lid in np.flatnonzero(counts == 1):
            per_point[u.line_section(int(lid))] += 1
        one_tangent = bool(np.all(per_point[u.points] == 1))
        details[f"q={q}"] = {"tangency_beta": tangency_match,
                             "one_tangent_per_point": one_tangent}
        ok &= tangency_match and one_tangent
    return ok, details


# -- criterion 5: circle design ---------------------------------------------


def criterion_05(full: bool):
    details = {}
    ok = True
    for p in (3, 5):
        q = p
        _, u = _parabolic(p, 1, planar.square)
        rep = an.verify_circle_design(u)
        details[f"q={q}"] = {"circles": rep.circle_count, "size": rep.circle_size,
                             "lambda": rep.lambda_value, "passed": rep.passed}
        ok &= rep.passed and rep.circle_count == q ** 3 - q ** 2
    return ok, details


# -- criterion 6: Wilbrink condition ----------------------------------------


def criterion_06(full: bool):
    details = {}
    ok = True
    for p in (3, 5):
        plane, u = _parabolic(p, 1, planar.square)
        idx = an.DesignIndex(u)
        inf_rep = an.wilbrink_vertex_check(u, plane.infinity_id, index=idx)
        strong = inf_rep.strong + sum(
            an.wilbrink_vertex_check(u, int(pid), index=idx).strong
            for pid in u.points if pid != plane.infinity_id)
        details[f"q={p}"] = {"infinity_strong": inf_rep.strong,
                             "strong_count": int(strong),
                             "checked": inf_rep.total}
        ok &= inf_rep.strong and strong == 1
    return ok, details


# -- criterion 7: O'Nan configurations --------------------------------------


def criterion_07a(full: bool):
    details = {}
    ok = True
    for p in (3, 5):
        _, u = _parabolic(p, 1, planar.square)
        cfgs, hits = an.find_onan_through_infinity(u)
        details[f"square q={p}"] = {"configs": len(cfgs), "circle_hits": len(hits)}
        ok &= len(cfgs) == 0 and len(hits) == 0
    return ok, details


def criterion_07b(full: bool):
    if not full:
        return True, {}, "skipped in quick mode"
    _, u = _cm81_unital()
    cfgs, hits = an.find_onan_through_infinity(u)
    ok = (len(cfgs) >= 1 and len(cfgs) == ONAN_THROUGH_INF_CM81_CONFIGS
          and len(hits) == ONAN_THROUGH_INF_CM81_HITS)
    return ok, {"configs": len(cfgs), "hits": len(hits)}


def criterion_07c(full: bool):
    """Explicit template at (square, q=3) and (albert, F_3^6) as stated.

    Provably unattainable: membership of the template points forces
    t_u/t_v = omega*a_w/a_v into F_q*, and with omega = -1 in
    characteristic 3 the admissible ratios are exactly the excluded +-1.
    The function still runs the faithful attempt and reports the supplement
    at (square, q=5), where the template genuinely succeeds.
    """
    details = {}
    ok = True
    cases = [("square q=3", 3, 1, planar.square)]
    if full:
        cases.append(("albert F_3^6", 3, 3, lambda s: planar.albert(s, 2)))
    # supplement: smallest instance where the template provably works
    cases.append(("square q=5 (supplement)", 5, 1, planar.square))
    for tag, p, n, make in cases:
        _, u = _parabolic(p, n, make)
        try:
            details[tag] = {"config": an.construct_onan_explicit(u).blocks}
        except UnitalForgeError as e:
            details[tag] = f"failed: {e}"
            ok = False
    return ok, details, "" if ok else "char-3 template obstruction; see docs/LEDGER.md"


def _found_blocks(res: an.OnanSearchResult, blocks: tuple) -> bool:
    """Whether the search found the configuration on these block lines,
    compared as block indices, so the result is never widened to IDs."""
    want = np.searchsorted(res.block_lines, blocks)
    return bool(np.array_equal(res.block_lines.take(want, mode="clip"), blocks)
                and (res.blocks == want).all(axis=1).any())


def criterion_07d(full: bool):
    details = {}
    split = gf.split_new(gf.field_new(3, 2), 1)
    baseline = un.build_classical_baseline(split)
    res_cl = an.find_onan_exhaustive(baseline)
    _, u3 = _parabolic(3, 1, planar.square)
    res_u = an.find_onan_exhaustive(u3)
    details["classical q=3"] = {"count": res_cl.count, "complete": res_cl.complete}
    details["parabolic q=3"] = {"count": res_u.count, "complete": res_u.complete}
    counts_ok = (res_cl.complete and res_u.complete
                 and res_cl.count == ONAN_COUNT_Q3_CLASSICAL
                 and res_u.count == ONAN_COUNT_Q3_PARABOLIC)
    try:
        cfg = an.construct_onan_explicit(u3)
        witness_ok = _found_blocks(res_u, cfg.blocks)
        details["witness"] = {"blocks": cfg.blocks, "found": witness_ok}
    except UnitalForgeError as e:
        witness_ok = False
        details["witness"] = f"unavailable: {e}"
    if full:
        _, u5 = _parabolic(5, 1, planar.square)
        cfg5 = an.construct_onan_explicit(u5)
        res5 = an.find_onan_exhaustive(u5)
        details["q=5 cross-validation (supplement)"] = {
            "count": res5.count, "complete": res5.complete,
            "witness_found": _found_blocks(res5, cfg5.blocks)}
    return (counts_ok and witness_ok, details, "" if witness_ok else
            "q=3 witness unavailable (7c obstruction); see docs/LEDGER.md")


# -- criterion 8: self-duality ----------------------------------------------


def criterion_08(full: bool):
    details = {}
    ok = True
    for p in (3, 5):
        _, u = _parabolic(p, 1, planar.square)
        try:
            _, wit = un.dual_unital(u)
            details[f"q={p}"] = wit
        except UnitalForgeError as e:
            details[f"q={p}"] = f"failed: {e}"
            ok = False
    return ok, details


# -- criterion 9: scaling orbit ----------------------------------------------


def criterion_09(full: bool):
    split = gf.split_new(gf.field_new(3, 2), 1)
    plane = ShiftPlane(planar.square(split))
    idx = np.arange(9)
    norms = np.asarray(split.norm(idx))
    thetas = [int(t) for t in idx
              if t and split.sub_eta(int(norms[t])) == -1]
    classes = un.gamma_orbit_partition(plane, thetas)
    ok = len(classes) == 1 and sorted(classes[0]) == sorted(thetas)
    return ok, {"thetas": thetas, "classes": classes}


# -- criterion 10: stabilizer subgroups ---------------------------------------


def criterion_10(full: bool):
    details = {}
    plane, u = _parabolic(3, 1, planar.square)
    rep1 = an.sigma_stabilizer_report(u)
    upol = un.build_polarity_unital(plane, un.InvolutionSpec("frobq"))
    rep2 = an.sigma_stabilizer_report(upol)
    comp = an.verify_sigma_composition(plane)
    details["sigma1"] = {"order": rep1.order, "abelian": rep1.is_abelian}
    details["sigma2"] = {"order": rep2.order, "abelian": rep2.is_abelian,
                         "witness": rep2.commutator_witness}
    details["composition"] = comp
    ok = (rep1.order == 27 and rep1.is_abelian
          and rep2.order == 27 and not rep2.is_abelian
          and rep2.commutator_witness is not None
          and comp["pairs_checked"] == 729 ** 2)
    # membership examples: (0, theta, 0) fixes, (0, 1, 0) does not
    ok &= Sigma(plane, 0, u.theta, 0).fixes_point_set(u.points)
    ok &= not Sigma(plane, 0, 1, 0).fixes_point_set(u.points)
    if full:
        plane9, u9 = _cm81_unital()
        upol9 = un.build_polarity_unital(plane9, un.InvolutionSpec("frobq"))
        rt = an.shift_stabilizer_report(u9)
        rp = an.shift_stabilizer_report(upol9)
        details["cm shift stabilizers"] = {"parabolic": rt.order,
                                           "polarity": rp.order}
        ok &= rt.order == 729 and rp.order == 81
    return ok, details


# -- criterion 11: polarities --------------------------------------------------


def criterion_11(full: bool):
    details = {}
    ok = True
    for p in (3, 5):
        split = gf.split_new(gf.field_new(p, 2), 1)
        plane = ShiftPlane(planar.square(split))
        rep = un.verify_polarity(plane, un.InvolutionSpec("frobq"))
        details[f"square q={p} frobq"] = {"absolutes": rep.absolute_points,
                                          "mode": rep.mode}
        ok &= rep.passed and rep.absolute_points == p ** 3 + 1
    if full:
        split = gf.split_new(gf.field_new(5, 4), 2)
        plane = ShiftPlane(planar.dickson(split, 1))
        rep = un.verify_polarity(plane, un.InvolutionSpec("conjxi"))
        details["dickson F_5^4 conjxi"] = {"absolutes": rep.absolute_points,
                                           "mode": rep.mode}
        ok &= rep.passed and rep.absolute_points == 25 ** 3 + 1
        plane9, _ = _cm81_unital()
        rep = un.verify_polarity(plane9, un.InvolutionSpec("frobq"))
        details["cm F_81 frobq"] = {"absolutes": rep.absolute_points,
                                    "mode": rep.mode}
        ok &= rep.passed and rep.absolute_points == 730
    return ok, details


# -- criterion 12: non-isomorphism via compare ---------------------------------


def criterion_12(full: bool):
    import io
    import tempfile
    from contextlib import redirect_stdout
    from pathlib import Path

    from .cli import main as cli_main

    _, u = _parabolic(3, 1, planar.square)
    baseline = un.build_classical_baseline(gf.split_new(gf.field_new(3, 2), 1))
    with tempfile.TemporaryDirectory() as td:
        left = Path(td) / "parabolic.unital"
        right = Path(td) / "classical.unital"
        un.write_unital_file(u, left)
        un.write_unital_file(baseline, right)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["compare", "--left", str(left), "--right", str(right)])
    out = buf.getvalue().strip()
    ok = code == 0 and out.startswith("NON-ISOMORPHIC") and "onan_total: 324 vs 0" in out
    return ok, {"output": out, "exit": code}


CRITERIA = [
    ("1", "quadratic-count oracle", criterion_01),
    ("2", "planarity/normality catalog", criterion_02),
    ("3", "unital certification", criterion_03),
    ("4", "tangent-line characterization", criterion_04),
    ("5", "circle (q^2,q+1,q)-design", criterion_05),
    ("6", "Wilbrink strong-vertex uniqueness", criterion_06),
    ("7a", "no config through infinity (square)", criterion_07a),
    ("7b", "config through infinity (cm q=9)", criterion_07b),
    ("7c", "explicit construction (as stated)", criterion_07c),
    ("7d", "exhaustive search + witness (q=3)", criterion_07d),
    ("8", "self-duality switch", criterion_08),
    ("9", "scaling-orbit equivalence (q=3)", criterion_09),
    ("10", "stabilizer subgroups", criterion_10),
    ("11", "unitary polarities", criterion_11),
    ("12", "non-isomorphism evidence", criterion_12),
]


def run_criterion(cid: str, full: bool = True) -> CriterionResult:
    """Criterion cid of CRITERIA at full or quick scale, as a CriterionResult
    carrying its CRITERIA name and the check's wall time; KeyError for an
    unknown id.  This is the one place a criterion is run and measured."""
    for k, name, check in CRITERIA:
        if k == cid:
            start = time.perf_counter()
            passed, details, *notes = check(full)
            return CriterionResult(cid, name, passed, time.perf_counter() - start,
                                   details, *notes)
    raise KeyError(cid)


def run_suite(full: bool = True):
    return [run_criterion(cid, full) for cid, _, _ in CRITERIA]
