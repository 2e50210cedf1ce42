import hashlib
import time
import tracemalloc
from math import gcd
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitalforge import analysis as an, gf, planar, unital as un
from unitalforge.errors import (
    CompositionLawFailed,
    ElementDoesNotFix,
    FamilyMismatch,
    HypothesisUnmet,
    ProvenanceMismatch,
    SingularSystem,
    UsageError,
    WitnessCheckFailed,
    ZeroBeta,
)
from unitalforge.plane import Shift, ShiftPlane, Sigma, sigma_compose

# frozen regression values (first verified computation)
Q3_PARABOLIC_ONAN = 324
Q3_CLASSICAL_ONAN = 0
CM81_THROUGH_INF_CONFIGS = an.THROUGH_INF_MAX_CONFIGS   # the search's cap, not a count
CM81_THROUGH_INF_HITS = 288        # circle hits: every one, whatever the cap
CM81_THROUGH_INF_ALL_CONFIGS = 288
ALBERT27_THROUGH_INF_HITS = 39312  # circle hits of the per-(a, beta, beta') loop


# -- delta and circles --------------------------------------------------------

def test_derive_delta_identity_exhaustive(s9):
    theta = s9.choose_theta()
    delta = an.derive_delta(s9, theta)
    f9 = s9.ctx
    th0, th1 = (int(v) for v in s9.decompose(theta))
    for z in range(9):
        z0, z1 = (int(v) for v in s9.decompose(z))
        assert int(s9.trace(f9.mul(delta, z))) == int(
            f9.sub(f9.mul(th1, z0), f9.mul(th0, z1)))


def test_derive_delta_unique(s9):
    theta = s9.choose_theta()
    delta = an.derive_delta(s9, theta)
    f9 = s9.ctx
    th0, th1 = (int(v) for v in s9.decompose(theta))
    solutions = []
    for cand in range(9):
        if all(int(s9.trace(f9.mul(cand, z)))
               == int(f9.sub(f9.mul(th1, int(s9.x0_of[z])),
                             f9.mul(th0, int(s9.x1_of[z])))) for z in range(9)):
            solutions.append(cand)
    assert solutions == [delta]


def test_derive_delta_for_theta_xi(s9):
    # theta = xi means theta0 = 0, theta1 = 1: Tr(delta) = 1, Tr(delta*xi) = 0
    delta = an.derive_delta(s9, s9.xi)
    assert int(s9.trace(delta)) == 1
    assert int(s9.trace(s9.ctx.mul(delta, s9.xi))) == 0


def test_derive_delta_checks_every_element_q125(monkeypatch):
    split = gf.split_new(gf.field_new(5, 6), 3)
    ctx, theta = split.ctx, split.choose_theta()
    delta = an.derive_delta(split, theta)
    z = np.arange(ctx.size, dtype=np.int64)
    z0, z1 = split.decompose(z)
    th0, th1 = (int(v) for v in split.decompose(theta))
    assert np.array_equal(split.trace(ctx.mul(delta, z)),
                          ctx.sub(ctx.mul(th1, z0), ctx.mul(th0, z1)))
    # a trace wrong at one product delta*z, for the last z outside the
    # seeded 10^4-element sample a sampled check would draw, is caught
    sample = np.random.default_rng(0).integers(0, ctx.size, 10000)
    bad = int(ctx.mul(delta, int(np.setdiff1d(z, sample)[-1])))
    real = split.trace
    monkeypatch.setattr(split, "trace", lambda x: np.where(
        np.asarray(x) == bad, ctx.add(real(x), 1), real(x)))
    with pytest.raises(SingularSystem, match="fails the trace identity"):
        an.derive_delta(split, theta)


def test_circle_size_and_membership(unital_q3):
    c = an.circle(unital_q3, 0, 1)
    assert len(c.members) == 4
    phi = un.phi_table(unital_q3.plane, unital_q3.theta)
    assert all(int(phi[m]) == 1 for m in c.members)


def test_circle_rejects_zero_beta(unital_q3):
    with pytest.raises(ZeroBeta):
        an.circle(unital_q3, 0, 0)


def test_circles_partition(unital_q3):
    plane = unital_q3.plane
    f9 = plane.ctx
    for a in (0, 3, 7):
        union = set()
        for beta in plane.split.sub_elements[1:]:
            union.update(an.circle(unital_q3, a, int(beta)).members)
        assert union == set(range(9)) - {int(f9.neg(a))}


def test_block_projects_to_circle(unital_q3):
    # blocks meeting the vertical block over u project to C(a, phi(u+a))
    plane, theta = unital_q3.plane, unital_q3.theta
    f9 = plane.ctx
    phi = un.phi_table(plane, theta)
    a, u = 2, 5
    beta = int(phi[f9.add(u, a)])
    members = an.circle(unital_q3, a, beta).members
    # pick the block through (u, t*theta) with first index a: b = f(u+a) - t*theta
    t0 = int(un.parabolic_y_values(plane, theta)[1])
    b = int(f9.sub(int(plane.f[f9.add(u, a)]), t0))
    sec = unital_q3.line_section(plane.shifted_id(a, b))
    firsts = sorted(set(int(p) // 9 for p in sec if p < 81))
    assert firsts == sorted(members)


def test_circle_readers_reject_non_parabolic_points(unital_q3):
    # the q=3 parabolic unital with its last affine point swapped for (0)
    plane = unital_q3.plane
    pts = unital_q3.points.copy()
    pts[-2] = plane.slope_id(0)
    bad = un.Unital(plane, pts, unital_q3.provenance)
    for read in (an.verify_circle_design, an.all_circles,
                 an.find_onan_through_infinity, lambda u: an.circle(u, 0, 1)):
        with pytest.raises(ProvenanceMismatch):
            read(bad)
    assert bad.checks == []


def test_circle_design_q3(unital_q3):
    rep = an.verify_circle_design(unital_q3)
    assert rep.passed
    assert rep.circle_count == 18 and rep.circle_size == 4 and rep.lambda_value == 3


def test_circle_design_reports_the_measured_lambda(unital_q3, monkeypatch):
    # one more circle pair at d = 1: the report fails and names the
    # lambda it counted there, not the design's q
    rank0, meet = an._circle_meets(unital_q3)
    assert meet.dtype == np.int32                    # counts of at most N
    meet = meet.copy()
    meet[1, 1, 1] += 1
    monkeypatch.setattr(an, "_circle_meets", lambda unital: (rank0, meet))
    rep = an.verify_circle_design(unital_q3)
    assert not rep.passed and rep.distinct_ok and rep.partition_ok
    assert (rep.circle_size, rep.lambda_value) == (4, 4)


def test_circle_distinctness_witness(unital_q3):
    c0 = an.circle(unital_q3, 0, 1)
    for a in range(1, 9):
        assert an.circle(unital_q3, a, 1).members != c0.members


# -- circle design by translation ----------------------------------------------

def _report(passed, count, q, partition_ok, distinct_ok, size=None, lam=None):
    """A report with the design's size q + 1 and lambda q unless given."""
    return an.CircleDesignReport(passed, count, q + 1 if size is None else size,
                                 q if lam is None else lam, partition_ok, distinct_ok)


def _circles_digest(circles):
    text = repr([(c.a, c.beta, c.members, c.delta) for c in circles])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _phi_patches(split):
    """phi tables that break the circle design, each in one way."""
    ctx, beta1, beta2 = split.ctx, split.sub_elements[1], split.sub_elements[2]

    def repeat(phi):                   # periodic along xi*F_q: circles repeat
        return phi[np.asarray(split.decompose(np.arange(ctx.size))[0])]

    def size(phi):                     # one element moves between circles
        out = phi.copy()
        out[np.flatnonzero(phi == beta1)[0]] = beta2
        return out

    def zero(phi):                     # a second zero of phi
        out = phi.copy()
        out[np.flatnonzero(phi)[0]] = 0
        return out

    def outside(phi):                  # a value outside F_q, in no circle
        out = phi.copy()
        out[np.flatnonzero(phi)[0]] = split.xi
        return out

    def swap(phi):                     # sizes and partition kept, lambda broken
        z1, z2 = np.flatnonzero(phi == beta1)[0], np.flatnonzero(phi == beta2)[0]
        sigma = np.arange(ctx.size)
        sigma[[z1, z2]] = z2, z1
        return phi[sigma]

    return {"repeat": repeat, "size": size, "zero": zero, "outside": outside,
            "swap": swap}


def test_circle_design_frozen(unital_q3, unital_q5, unital_cm81, s729):
    # the reports of the former per-(a, beta) loop
    ua = un.build_parabolic_unital(ShiftPlane(planar.albert(s729, 2)),
                                   s729.choose_theta())
    for u, q in ((unital_q3, 3), (unital_q5, 5), (unital_cm81, 9), (ua, 27)):
        assert an.verify_circle_design(u) == _report(True, q ** 3 - q ** 2, q, True, True)
    assert _circles_digest(an.all_circles(unital_q3)) == "eba5e1c21e706f7a"
    assert _circles_digest(an.all_circles(unital_q5)) == "6b74bf1cb0908ecd"


def _reference_circle_design(u, phi):
    """The former per-(a, beta) loop, kept as the oracle of the reading by
    translation.  It runs over every circle, past a repeat too, so that the
    size and lambda it reports are measured: the first circle size at a = 0
    off q + 1, and the first pair count of {0, d}, d = 1, 2, ..., off q
    (every pair {x, x + d} has the count of {0, d}, by translation)."""
    q, ctx, split, N = u.q, u.plane.ctx, u.plane.split, u.plane.N
    X = np.arange(N, dtype=np.int64)
    seen, repeat = {}, None
    pair_counts = np.zeros(N * N, dtype=np.int16)
    sizes = []
    partition_ok = size_ok = True
    for a in range(N):
        shifted = phi[np.asarray(ctx.add(X, a))]
        union = set()
        for beta in split.sub_elements[1:]:
            members = np.flatnonzero(shifted == int(beta))
            if len(members) != q + 1:
                size_ok = False
            if a == 0:
                sizes.append(len(members))
            key = tuple(int(m) for m in members)
            if key in seen and repeat is None:
                repeat = len(seen)
            seen.setdefault(key, (a, int(beta)))
            union.update(key)
            ii, jj = np.triu_indices(len(members), k=1)
            pair_counts[members[ii] * N + members[jj]] += 1
        if union != set(range(N)) - {int(ctx.neg(a))}:
            partition_ok = False
    size = next((v for v in sizes if v != q + 1), q + 1)
    lam = next((int(v) for v in pair_counts[1:N] if v != q), q)
    if repeat is not None:
        return _report(False, repeat, q, False, False, size, lam)
    ii, jj = np.triu_indices(N, k=1)
    lam_ok = bool(np.all(pair_counts[ii * N + jj] == q))
    passed = len(seen) == q ** 3 - q ** 2 and size_ok and partition_ok and lam_ok
    return _report(passed, len(seen), q, partition_ok, True, size, lam)


def _reference_circles(u, phi):
    ctx, split, N = u.plane.ctx, u.plane.split, u.plane.N
    X = np.arange(N, dtype=np.int64)
    return [(a, int(beta), tuple(int(m) for m in
                                 np.flatnonzero(phi[np.asarray(ctx.add(X, a))] == beta)))
            for a in range(N) for beta in split.sub_elements[1:]]


def _random_phis(u):
    """Seeded perturbations of phi: one to four entries set to random field
    elements (often outside F_q), or phi read through a random permutation."""
    N, real = u.plane.N, un.phi_table(u.plane, u.theta)
    rng = np.random.default_rng(u.q)
    for trial in range(40):
        phi = real.copy()
        if trial % 4 == 3:
            phi = phi[rng.permutation(N)]
        else:
            phi[rng.integers(0, N, trial % 4 + 1)] = rng.integers(0, N, trial % 4 + 1)
        yield phi


def test_circle_design_matches_reference_on_random_phi(unital_q3, unital_q5, monkeypatch):
    for u in (unital_q3, unital_q5):
        for phi in _random_phis(u):
            monkeypatch.setattr(an, "phi_table", lambda plane, theta, phi=phi: phi)
            assert an.verify_circle_design(u) == _reference_circle_design(u, phi)
            assert [(c.a, c.beta, c.members) for c in an.all_circles(u)] == \
                _reference_circles(u, phi)


# (report fields, all_circles digest) per patch, from the per-(a, beta) loop;
# size and lambda are the measured ones (the loop's, on every circle)
BROKEN_CIRCLES = {
    3: {"repeat": (False, 3, 6, 6, False, False, "3b0177a7e0ac3e1b"),
        "size": (False, 18, 3, 2, True, True, "cd08615b94bb7f99"),
        "zero": (False, 18, 3, 2, False, True, "7ff8365a34f9e5d5"),
        "outside": (False, 18, 3, 2, False, True, "7ff8365a34f9e5d5"),
        "swap": (False, 18, 4, 2, True, True, "f271fd395469c104")},
    5: {"repeat": (False, 2, 10, 20, False, False, "ab16bc1bd60b397c"),
        "size": (False, 100, 5, 4, True, True, "9d23e9925ce3c1c9"),
        "zero": (False, 100, 5, 4, False, True, "900c94bcb30362b7"),
        "outside": (False, 100, 5, 4, False, True, "900c94bcb30362b7"),
        "swap": (False, 100, 6, 6, True, True, "e26b6147f70a5782")},
}


@pytest.mark.parametrize("q", [3, 5])
def test_broken_circle_designs_frozen(q, unital_q3, unital_q5, monkeypatch):
    u = {3: unital_q3, 5: unital_q5}[q]
    real = an.phi_table
    for name, patch in _phi_patches(u.plane.split).items():
        monkeypatch.setattr(an, "phi_table",
                            lambda plane, theta, patch=patch: patch(real(plane, theta)))
        *fields, digest = BROKEN_CIRCLES[q][name]
        assert an.verify_circle_design(u) == an.CircleDesignReport(*fields), name
        assert _circles_digest(an.all_circles(u)) == digest, name


def test_circle_design_peak_memory_albert27(s729):
    u = un.build_parabolic_unital(ShiftPlane(planar.albert(s729, 2)), s729.choose_theta())
    tracemalloc.start()
    try:
        rep = an.verify_circle_design(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep == _report(True, 27 ** 3 - 27 ** 2, 27, True, True)
    # the stable argsort of the 729^2 circle keys peaked at 22.5 MiB
    assert peak < 16 * 2 ** 20


def test_circle_readers_refuse_q81_before_allocating():
    # the meet table holds 4 q^4 bytes: 2.1 MB at q = 27, 172 MB at q = 81
    assert 4 * 61 ** 4 <= an.CIRCLE_TABLE_MAX_BYTES < 4 * 67 ** 4
    s = gf.split_new(gf.field_new(3, 8), 4)
    u = un.build_parabolic_unital(ShiftPlane(planar.square(s)), s.choose_theta())
    calls = (an.verify_circle_design, an.all_circles, an.find_onan_through_infinity,
             lambda u: an.verify_circle_design(SimpleNamespace(q=81)))   # q alone decides
    tracemalloc.start()
    start = time.perf_counter()
    try:
        for call in calls:
            with pytest.raises(UsageError, match=r"got 172186884 at q = 81"):
                call(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 100 * 2 ** 20


# -- Wilbrink ----------------------------------------------------------------

def test_infinity_is_strong_vertex(unital_q3):
    rep = an.wilbrink_vertex_check(unital_q3, unital_q3.plane.infinity_id)
    assert rep.strong and rep.satisfied == rep.total


def test_no_affine_strong_vertex_q3(unital_q3):
    idx = an.DesignIndex(unital_q3)
    for pid in unital_q3.points:
        if int(pid) == unital_q3.plane.infinity_id:
            continue
        rep = an.wilbrink_vertex_check(unital_q3, int(pid), index=idx)
        assert not rep.strong
        assert rep.witness is not None


def test_classical_unital_all_points_strong(classical_q3):
    # the classical comparison object is strong at every point
    idx = an.DesignIndex(classical_q3)
    for pid in classical_q3.points:
        assert an.wilbrink_vertex_check(classical_q3, int(pid), index=idx).strong


def test_wilbrink_ratio_mode(unital_q3):
    pid = int(unital_q3.points[0])
    rep = an.wilbrink_vertex_check(unital_q3, pid, strong=False)
    assert rep.total > 0 and 0 < rep.satisfied < rep.total


def _reference_wilbrink(unital, point_id, strong=True, index=None):
    """The former per-(B, C, w) loop, kept as the oracle of the bitset
    kernel."""
    v = int(np.searchsorted(unital.points, point_id))
    idx = index or an.DesignIndex(unital)
    # the meeting table the kernel reads, so that a thinned index thins both
    meets = np.unpackbits(idx.meets_bits.view(np.uint8), axis=1,
                          bitorder="little")[:, :idx.B].astype(bool)
    satisfied = total = 0
    v_blocks = set(int(b) for b in idx.blocks_by_point[v])
    for B in range(idx.B):
        if B in v_blocks:
            continue
        through_v = np.unique(idx.block_through_pair[v, idx.block_points[B]])
        ok_blocks = meets[:, through_v].all(axis=1)
        for C in through_v:
            z = int(idx.common_point[C, B])        # the point of B on C
            for w in idx.block_points[C]:
                w = int(w)
                if w == v or w == z:
                    continue
                total += 1
                cands = idx.blocks_by_point[w]
                if int(ok_blocks[cands].sum()) - int(ok_blocks[C]) > 0:
                    satisfied += 1
                elif strong:
                    witness = (int(idx.block_lines[B]), int(idx.block_lines[C]),
                               int(unital.points[w]))
                    return an.WilbrinkReport(point_id, False, satisfied, total, witness)
    return an.WilbrinkReport(point_id, satisfied == total, satisfied, total)


def _thinned_index(unital, seed, pairs=20):
    """A DesignIndex of unital whose meets_bits drop `pairs` seeded
    meeting pairs: strong vertices then fail at triples far into the
    sweep."""
    idx = an.DesignIndex(unital)
    meets = idx.meets
    rows, cols = np.nonzero(np.triu(meets))
    pick = np.random.default_rng(seed).choice(len(rows), pairs, replace=False)
    meets[rows[pick], cols[pick]] = meets[cols[pick], rows[pick]] = False
    idx.__dict__.update(meets_bits=an._pack_rows(meets))
    return idx


@pytest.fixture(scope="module")
def wilbrink_cases(unital_q3, classical_q3, unital_q5, classical_q5):
    """(unital, index, point ID, strong, the reference report) over every
    point of the q = 3 unitals, of two thinned classical q = 3 indexes and
    of the parabolic q = 5 unital, and over infinity and 4 seeded points
    of the classical q = 5 unital."""
    both = (True, False)
    runs = [(u, an.DesignIndex(u), u.points, both) for u in (unital_q3, classical_q3)]
    runs += [(classical_q3, _thinned_index(classical_q3, seed), classical_q3.points, both)
             for seed in (0, 1)]
    inf5 = unital_q5.plane.infinity_id
    idx5 = an.DesignIndex(unital_q5)
    runs += [(unital_q5, idx5, unital_q5.points, (True,)), (unital_q5, idx5, [inf5], (False,))]
    pick = np.random.default_rng(5).choice(classical_q5.points[:-1], 4, replace=False)
    inf = classical_q5.plane.infinity_id
    runs.append((classical_q5, an.DesignIndex(classical_q5), [inf, *pick], both))
    return [(u, idx, int(pid), strong, _reference_wilbrink(u, int(pid), strong, idx))
            for u, idx, pids, modes in runs for pid in pids for strong in modes]


@pytest.mark.parametrize("batch_bytes", [None, 1])
def test_wilbrink_matches_reference(batch_bytes, wilbrink_cases, monkeypatch):
    # batch_bytes=1: one block B per batch, so the counts and the witnesses
    # of the thinned indexes cross batch boundaries
    if batch_bytes is not None:
        monkeypatch.setattr(an, "_WILBRINK_BYTES", batch_bytes)
    late = 0
    for u, idx, pid, strong, want in wilbrink_cases:
        assert an.wilbrink_vertex_check(u, pid, strong, idx) == want
        late += want.witness is not None and want.total > 4 * (u.q - 1) * (u.q + 1)
    assert late > 0                    # some witness lies past the fourth block B


def test_wilbrink_strong_vertices_cm81(unital_cm81, plane_cm81):
    # the only strong vertex of either cm q = 9 unital is infinity: the count
    # is frozen in tests/test_cli.py::test_compare_reports_strong_vertices_at_q9,
    # and here the check at infinity meets the reference
    idx = an.DesignIndex(unital_cm81)
    inf = plane_cm81.infinity_id
    assert an.wilbrink_vertex_check(unital_cm81, inf, index=idx) == \
        _reference_wilbrink(unital_cm81, inf, index=idx)


# -- O'Nan configurations -------------------------------------------------------

def test_no_config_through_infinity_square(unital_q3, unital_q5):
    for u in (unital_q3, unital_q5):
        cfgs, hits = an.find_onan_through_infinity(u)
        assert cfgs == [] and hits == []


def test_configs_through_infinity_cm81(unital_cm81):
    cfgs, hits = an.find_onan_through_infinity(unital_cm81)
    assert len(cfgs) == CM81_THROUGH_INF_CONFIGS
    assert len(hits) == CM81_THROUGH_INF_HITS
    inf = unital_cm81.plane.infinity_id
    for cfg in cfgs[:8]:
        assert inf in cfg.points
        assert an.onan_from_blocks(unital_cm81, cfg.blocks) == cfg


def test_configs_through_infinity_cm81_uncapped(unital_cm81, monkeypatch):
    # lifting the cap of 64: every circle hit yields its own config
    monkeypatch.setattr(an, "THROUGH_INF_MAX_CONFIGS", 10 ** 6)
    cfgs, hits = an.find_onan_through_infinity(unital_cm81)
    assert len(hits) == CM81_THROUGH_INF_HITS
    assert len(cfgs) == len({cfg.blocks for cfg in cfgs}) == CM81_THROUGH_INF_ALL_CONFIGS
    inf = unital_cm81.plane.infinity_id
    for cfg in cfgs:
        assert inf in cfg.points
        assert an.onan_from_blocks(unital_cm81, cfg.blocks) == cfg


def _reference_through_infinity(u, cap):
    """The former per-(a, beta, beta') intersect1d loop, kept as the oracle
    of the meet table."""
    plane = u.plane
    ctx, N = plane.ctx, plane.N
    phi = an._checked_phi(u)
    betas = [int(b) for b in plane.split.sub_elements[1:]]
    base = {bp: np.flatnonzero(phi == bp) for bp in betas}
    beta_all = np.asarray(un.beta_of(plane, u.theta, np.arange(N)))
    rep_b = {bp: int(np.flatnonzero(beta_all == bp)[0]) for bp in betas}
    configs, seen_blocks, hits = [], set(), []
    for a in range(1, N):
        shifted = ctx.translate(phi, a)
        for beta in betas:
            members = np.flatnonzero(shifted == beta)
            for beta_p in betas:
                common = np.intersect1d(members, base[beta_p], assume_unique=True)
                if len(common) < 3:
                    continue
                hits.append((a, beta, beta_p, len(common)))
                if len(configs) >= cap:
                    continue
                u0, v, w = (int(c) for c in common[:3])
                b = rep_b[beta]
                d_p = ctx.sub(ctx.add(int(plane.f[u0]), b), int(plane.f[ctx.add(u0, a)]))
                lids = [plane.vertical_id(v), plane.vertical_id(w),
                        plane.shifted_id(a, b), plane.shifted_id(0, int(d_p))]
                cfg = an.onan_from_blocks(u, lids)
                if cfg is not None and cfg.blocks not in seen_blocks:
                    seen_blocks.add(cfg.blocks)
                    configs.append(cfg)
    return configs, hits


@pytest.mark.parametrize("cap", [64, 10 ** 6])
def test_through_infinity_matches_reference(cap, unital_q3, unital_q5, unital_cm81,
                                            monkeypatch):
    monkeypatch.setattr(an, "THROUGH_INF_MAX_CONFIGS", cap)
    for u in (unital_q3, unital_q5, unital_cm81):
        assert an.find_onan_through_infinity(u) == _reference_through_infinity(u, cap)


def test_through_infinity_matches_reference_on_broken_phi(unital_q3, unital_q5, monkeypatch):
    # ranks outside F_q, broken circle sizes, repeated circles: every hit and
    # every configuration the loop finds, under a small cap and none
    for u in (unital_q3, unital_q5):
        patches = [patch(un.phi_table(u.plane, u.theta))
                   for patch in _phi_patches(u.plane.split).values()]
        found = 0
        for phi in [*patches, *_random_phis(u)]:
            monkeypatch.setattr(an, "phi_table", lambda plane, theta, phi=phi: phi)
            for cap in (2, 10 ** 6):
                monkeypatch.setattr(an, "THROUGH_INF_MAX_CONFIGS", cap)
                got = an.find_onan_through_infinity(u)
                assert got == _reference_through_infinity(u, cap)
            found += len(got[1])
        assert found > 0


def test_configs_through_infinity_albert27(s729):
    u = un.build_parabolic_unital(ShiftPlane(planar.albert(s729, 2)), s729.choose_theta())
    cfgs, hits = an.find_onan_through_infinity(u)
    assert len(hits) == ALBERT27_THROUGH_INF_HITS
    assert len(cfgs) == an.THROUGH_INF_MAX_CONFIGS == len({cfg.blocks for cfg in cfgs})
    inf = u.plane.infinity_id
    for cfg in cfgs:
        assert inf in cfg.points
        assert an.onan_from_blocks(u, cfg.blocks) == cfg
    # the counts against the single-row circle formula, on a seeded sample
    for i in np.random.default_rng(27).choice(len(hits), 20, replace=False):
        a, beta, beta_p, count = hits[i]
        common = set(an.circle(u, a, beta).members) & set(an.circle(u, 0, beta_p).members)
        assert count == len(common) >= 3


def test_exhaustive_counts_q3(unital_q3, classical_q3):
    res_u = an.find_onan_exhaustive(unital_q3)
    res_c = an.find_onan_exhaustive(classical_q3)
    assert res_u.complete and res_c.complete
    assert res_u.count == Q3_PARABOLIC_ONAN
    assert res_c.count == Q3_CLASSICAL_ONAN
    for cfg in res_u.configs:
        assert an.onan_from_blocks(unital_q3, cfg.blocks) == cfg
    assert res_u.configs == sorted(res_u.configs, key=lambda c: c.blocks)


@pytest.fixture(scope="module")
def full_search_q3(unital_q3):
    return an.find_onan_exhaustive(unital_q3)


@pytest.mark.parametrize("which", ["parabolic", "classical"])
def test_design_index_tables_q3(which, unital_q3, classical_q3):
    u = {"parabolic": unital_q3, "classical": classical_q3}[which]
    idx = an.DesignIndex(u)
    q, n = u.q, len(u.points)
    lines = [lid for lid in range(u.plane.n_lines)
             if len(u.line_section(lid)) == q + 1]
    assert idx.block_lines.tolist() == lines
    blocks = [set(np.searchsorted(u.points, u.line_section(lid)).tolist()) for lid in lines]
    B = len(blocks)
    assert idx.B == B and idx.n == n
    assert [set(row) for row in idx.block_points.tolist()] == blocks
    assert np.all(np.diff(idx.block_points, axis=1) > 0)
    assert idx.blocks_by_point.tolist() == [
        [b for b in range(B) if r in blocks[b]] for r in range(n)]
    for r in range(n):
        for s in range(n):
            through = [b for b in range(B) if {r, s} <= blocks[b]] if r != s else [-1]
            assert [idx.block_through_pair[r, s]] == through
    for b in range(B):
        for c in range(B):
            common = sorted(blocks[b] & blocks[c]) if b != c else []
            assert idx.meets[b, c] == bool(common)
            assert [idx.common_point[b, c]] == (common or [-1])


def _reference_onan_configs(unital, idx):
    """The former object-building search: one OnanConfig per configuration,
    in order, and the number of quadruples examined."""
    meets, cp = idx.meets, idx.common_point
    configs, examined = [], 0
    for b1 in range(idx.B):
        nb = np.flatnonzero(meets[b1, b1 + 1:]) + b1 + 1
        p1 = cp[b1, nb]
        m = meets[np.ix_(nb, nb)]
        i2, i3 = np.nonzero(np.triu(m & (p1[:, None] != p1), 1))
        t, i4 = np.nonzero(m[i2] & m[i3] & (np.arange(len(nb)) > i3[:, None]))
        examined += len(t)
        i2, i3 = i2[t], i3[t]
        quad = np.stack([np.full(len(t), b1), nb[i2], nb[i3], nb[i4]])
        _, b2, b3, b4 = quad
        six = np.stack([p1[i2], p1[i3], cp[b2, b3], p1[i4], cp[b2, b4], cp[b3, b4]])
        hit = (six[3] != six[4]) & (six[3] != six[5]) & (six[4] != six[5])
        blocks = idx.block_lines[quad[:, hit].T].tolist()
        points = unital.points[np.sort(six[:, hit], axis=0).T].tolist()
        configs.extend(an.OnanConfig(tuple(bl), tuple(pt)) for bl, pt in zip(blocks, points))
    return configs, examined


@pytest.mark.parametrize("q", [3, 5])
def test_exhaustive_arrays_match_reference(q, unital_q3, unital_q5):
    u = {3: unital_q3, 5: unital_q5}[q]
    idx = an.DesignIndex(u)
    res = an.find_onan_exhaustive(u, index=idx)
    ref, examined = _reference_onan_configs(u, idx)
    assert res.complete and res.examined == examined and res.count == len(ref)
    carriers = res.block_lines[res.blocks]
    pids = res.points.astype(np.int64)[res.ranks]
    assert carriers.dtype == pids.dtype == np.int64
    assert carriers.shape == (len(ref), 4) and pids.shape == (len(ref), 6)
    assert carriers.tolist() == [list(c.blocks) for c in ref]
    assert pids.tolist() == [list(c.points) for c in ref]
    assert res.configs == ref


def _moved(u):
    """The points of u moved by the first tau(0, d) that moves them, under
    a tag that names no theta or kappa."""
    for d in range(1, u.plane.N):
        img = np.sort(np.asarray(Shift(u.plane, 0, d).apply_point(u.points)))
        if not np.array_equal(img, u.points):
            return un.Unital(u.plane, img, "moved")


@pytest.fixture(scope="module")
def orbit_cases(unital_q3, classical_q3, s25, hermitian_slopes_q3):
    """(unital, its number of affine translation orbits) for the orbit route."""
    return {"classical q=3": (classical_q3, 3),
            "classical q=5": (un.build_classical_baseline(s25), 5),
            "moved parabolic q=3": (_moved(unital_q3), 1),
            "moved classical q=3": (_moved(classical_q3), 3),
            "hermitian with slopes q=3": (hermitian_slopes_q3, 24)}


@pytest.mark.parametrize("case", ["classical q=3", "classical q=5", "moved parabolic q=3",
                                  "moved classical q=3", "hermitian with slopes q=3"])
def test_orbit_route_matches_reference(case, orbit_cases):
    u, affine_orbits = orbit_cases[case]
    label, _ = u.translation_group.point_orbits(u.points)
    reps = np.flatnonzero(label == np.arange(len(u.points)))
    assert np.count_nonzero(u.points[reps] < u.plane.N ** 2) == affine_orbits
    idx = an.DesignIndex(u)
    res = an.find_onan_exhaustive(u, index=idx)
    ref, examined = _reference_onan_configs(u, idx)
    assert res.complete and res.examined == examined and res.configs == ref
    # c_R, read on every point of R's orbit, counts the listed configurations there
    per_point = an._onan_orbits(u, idx)[0]
    assert np.array_equal(per_point, np.bincount(res.ranks.ravel(), minlength=len(u.points)))


@pytest.mark.parametrize("q", [3, 5])
def test_orbit_route_under_every_subgroup(q, unital_q3, unital_q5):
    # any subgroup of the translation group serves: fewer elements mean
    # more orbits, each configuration listed through its least one, and the
    # images through R then range over the smaller group
    u = {3: unital_q3, 5: unital_q5}[q]
    full = an.find_onan_exhaustive(u)
    basis = u.translation_group.basis
    for r in range(len(basis)):
        sub = un.Unital(u.plane, u.points, u.provenance)
        sub.__dict__["translation_group"] = un.TranslationGroup(u.plane, basis[:r])
        label, image = sub.translation_group.point_orbits(sub.points)
        assert len(image) == q ** r
        assert np.count_nonzero(label == np.arange(len(label))) == q ** (3 - r) + 1
        res = an.find_onan_exhaustive(sub)
        assert (res.examined, res.complete) == (full.examined, True)
        assert np.array_equal(res.blocks, full.blocks) and np.array_equal(res.ranks, full.ranks)
        assert np.array_equal(an._onan_orbits(sub, an.DesignIndex(sub))[0],
                              np.bincount(full.ranks.ravel(), minlength=len(u.points)))


def test_translation_group_elements_and_orbits(unital_q3, classical_q3, hermitian_slopes_q3):
    for u in (unital_q3, classical_q3, hermitian_slopes_q3):
        group = u.translation_group
        c, d = group.elements()
        assert len(c) == group.order and (c[0], d[0]) == (0, 0)
        assert len(np.unique(c * u.plane.N + d)) == group.order
        assert un._fixing(u, c, d).all()
        label, image = group.point_orbits(u.points)
        assert np.array_equal(image[0], np.arange(len(u.points)))
        # the orbit of r is the column image[:, r], and its label its least entry
        for r in range(len(u.points)):
            assert label[r] == image[:, r].min() == label[image[:, r]].max()
        lift_c, lift_d = group.slope_lifts()
        assert len(np.unique(lift_c)) == len(lift_c)
        assert set(zip(lift_c.tolist(), lift_d.tolist())) <= set(zip(c.tolist(), d.tolist()))


@pytest.mark.parametrize("kind, count, examined, digest", [
    ("parabolic", 5_383_728, 35_146_524,
     "fe7bc0b26f52777af3ff89b7a543fd8df6d53eef89a8ffd0514fd05aff54cd84"),
    ("classical", 0, 29_762_796, hashlib.sha256(b"").hexdigest())],
    ids=["parabolic", "classical"])
def test_exhaustive_frozen_q7(kind, count, examined, digest):
    # recorded from the triangle pass that the orbit route replaced (3.9 s
    # and 2.5 s there): the SHA-256 of the uint16 blocks and ranks
    s = gf.split_new(gf.field_new(7, 2), 1)
    plane = ShiftPlane(planar.square(s))
    u = (un.build_parabolic_unital(plane, s.choose_theta()) if kind == "parabolic"
         else un.build_classical_baseline(s))
    res = an.find_onan_exhaustive(u)
    assert (res.count, res.examined, res.complete) == (count, examined, True)
    assert res.blocks.dtype == res.ranks.dtype == np.uint16
    assert hashlib.sha256(res.blocks.tobytes() + res.ranks.tobytes()).hexdigest() == digest


def test_exhaustive_cap_names_the_count(unital_q5, monkeypatch):
    idx = an.DesignIndex(unital_q5)
    monkeypatch.setattr(an, "ONAN_MAX_CONFIGS", 142_499)
    with pytest.raises(UsageError, match=r"holds 142500 configurations, over the cap of 142499"):
        an.find_onan_exhaustive(unital_q5, index=idx)
    monkeypatch.setattr(an, "ONAN_MAX_CONFIGS", 142_500)
    assert an.find_onan_exhaustive(unital_q5, index=idx).count == 142_500


def test_exhaustive_configs_view(full_search_q3):
    res = full_search_q3
    view, as_list = res.configs, list(res.configs)
    assert len(view) == len(as_list) == res.count == Q3_PARABOLIC_ONAN
    assert view[-1] == as_list[-1] == view[res.count - 1]
    assert view[np.int64(7)] == as_list[7]
    assert view[5:9] == as_list[5:9] and list(view[5:9]) == as_list[5:9]
    assert view[::-3] == as_list[::-3] and len(view[400:]) == 0
    assert view == as_list and as_list == view and view == view[:]
    assert view != as_list[:-1] and view[1:] != view[:-1]
    assert [cfg for cfg in view] == as_list
    for i in (res.count, -res.count - 1):
        with pytest.raises(IndexError):
            view[i]
    first = an.OnanConfig(tuple(int(v) for v in res.block_lines[res.blocks[0]]),
                          tuple(int(v) for v in res.points[res.ranks[0]]))
    assert view[0] == first and hash(view[0]) == hash(first)
    assert repr(view[0]) == f"OnanConfig(blocks={first.blocks}, points={first.points})"
    for cfg in (view[0], view[-1], as_list[100]):
        assert all(type(v) is int for v in cfg.blocks + cfg.points)


def _reference_quadruples(idx):
    """Every quadruple the search examines, in order: the number of its
    triangle (b1, b2, b3) and whether b4 meets the three in distinct
    points."""
    meets, cp = idx.meets, idx.common_point
    triangle, hit, triangles = [], [], 0
    for b1 in range(idx.B):
        nb = np.flatnonzero(meets[b1, b1 + 1:]) + b1 + 1
        p1 = cp[b1, nb]
        m = meets[np.ix_(nb, nb)]
        i2, i3 = np.nonzero(np.triu(m & (p1[:, None] != p1), 1))
        t, i4 = np.nonzero(m[i2] & m[i3] & (np.arange(len(nb)) > i3[:, None]))
        b2, b3, b4 = nb[i2[t]], nb[i3[t]], nb[i4]
        q1, q2, q3 = p1[i4], cp[b2, b4], cp[b3, b4]
        triangle.append(triangles + t)
        hit.append((q1 != q2) & (q1 != q3) & (q2 != q3))
        triangles += len(i2)
    return np.concatenate(triangle), np.concatenate(hit)


@pytest.fixture(scope="module")
def full_search_q5(unital_q5):
    idx = an.DesignIndex(unital_q5)
    return an.find_onan_exhaustive(unital_q5, index=idx), _reference_quadruples(idx)


def test_examined_by_first_block_q5(unital_q5, full_search_q5):
    # the closed form of docs/ORBITS.md section 10 against the quadruples
    # the former pass examined
    full, (triangle, hit) = full_search_q5
    assert full.examined == len(triangle) and full.count == hit.sum()
    assert an._type_b(an.DesignIndex(unital_q5)) == full.examined - full.count


def test_exhaustive_peak_memory_q5(unital_q5):
    idx = an.DesignIndex(unital_q5)
    idx.common_point, idx.meets
    tracemalloc.start()
    try:
        res = an.find_onan_exhaustive(unital_q5, index=idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the per-b1 mask search peaked at 21.9 MiB
    assert res.count and peak < 18 * 2 ** 20


def test_exhaustive_keeps_narrow_parts_q5(unital_q3, unital_q5):
    # the search keeps its block indices and point ranks as uint16 / uint8
    # and returns them so: the same int64 tables (hashes of the int32 /
    # int64 parts version) read from a result of 1.9 MiB, at a search peak
    # of 4.6 MiB where widening them into the 10.9 MiB int64 tables peaked
    # at 13.4 MiB
    frozen = {3: "9209f2db82fcee9c30bc2396d60be295cf85e82650d856d354f28147bd5dcd65",
              5: "42039169efbf47bbeebc4fa6a2c251f840bb8e4e078361e252c27aece56a9523"}
    for u in (unital_q3, unital_q5):
        idx = an.DesignIndex(u)
        idx.common_point, idx.meets
        tracemalloc.start()
        try:
            res = an.find_onan_exhaustive(u, index=idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        carriers = res.block_lines[res.blocks]
        pids = res.points.astype(np.int64)[res.ranks]
        assert carriers.dtype == pids.dtype == np.int64
        tables = carriers.tobytes() + pids.tobytes()
        assert hashlib.sha256(tables).hexdigest() == frozen[u.q]
    assert peak < 6 * 2 ** 20


def test_exhaustive_result_keeps_the_narrow_parts_q5(unital_q5, full_search_q5):
    res = full_search_q5[0]
    assert res.blocks.dtype == np.uint16 and res.ranks.dtype == np.uint8
    assert res.blocks.shape == (res.count, 4) and res.ranks.shape == (res.count, 6)
    assert res.blocks.nbytes + res.ranks.nbytes <= 2 * 2 ** 20
    assert res.points is unital_q5.points
    pids = res.points.astype(np.int64)[res.ranks]
    assert np.array_equal(pids, unital_q5.points[res.ranks])
    assert np.array_equal(unital_q5.ranks(pids), res.ranks)


def test_design_index_pair_tables_are_narrow(unital_q3, unital_q5):
    # the same values as the former int32 tables, whose bytes these hashes are
    frozen = {3: ("5b1904914720b9b0105bd45667c0791a92b1d21ad228c6e90cdcd6a201f34373",
                  "99498e6ac93187635eb7808646b5bd7195ee87066b5ccb19e62876c53983d996"),
              5: ("f2633ab2f836ee9ff3d679297ada3bfd6beb9202da1c67d9a9902ee7600a3ea9",
                  "8aeccb6bdd1b32ae32ee064373df61a232c48ec25f81fdc2e8fa58086068233c")}
    dtypes = {3: (np.int8, np.int8), 5: (np.int8, np.int16)}
    for u in (unital_q3, unital_q5):
        idx = an.DesignIndex(u)
        tables = (idx.common_point, idx.block_through_pair)
        assert tuple(t.dtype for t in tables) == dtypes[u.q]
        assert tuple(hashlib.sha256(t.astype(np.int32).tobytes()).hexdigest()
                     for t in tables) == frozen[u.q]


def test_design_index_pair_tables_peak_near_their_size(unital_cm81):
    # each table is scattered a batch of rows at a time: building the 67 MiB
    # cm q = 9 common-point table peaked at 139 MiB through two int64 index
    # arrays of 36 MiB each
    idx = an.DesignIndex(unital_cm81)
    idx.blocks_by_point
    for name in ("common_point", "block_through_pair"):
        tracemalloc.start()
        try:
            table = getattr(idx, name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes + 2 ** 20


def test_design_index_refusal_reads_the_narrow_itemsize():
    def narrow_bytes(q):                       # both tables int16 at q = 9 and 11
        return 2 * ((q ** 4 - q ** 3 + q ** 2) ** 2 + (q ** 3 + 1) ** 2)

    assert narrow_bytes(9) <= an.DESIGN_INDEX_MAX_BYTES < narrow_bytes(11)
    with pytest.raises(UsageError, match=r"\(q <= 9\), got q = 11$"):
        an.DesignIndex(SimpleNamespace(q=11))


def test_design_index_keeps_no_bool_meets_table(unital_q3, unital_q5):
    # meets is rebuilt per read; the searches read only its bitsets, which
    # are the bytes the cached bool table used to pack
    frozen = {3: "57d0b4105a9af7997b83b7ffa405eb654e5c968ac0c8ea165fb983be8dcabd9c",
              5: "345cf3e00bed9ad3daf5dbf6848fa490cf593924875f0dd9768448d4c89d91ef"}
    for u in (unital_q3, unital_q5):
        idx = an.DesignIndex(u)
        an.find_onan_exhaustive(u, index=idx)
        an.wilbrink_vertex_check(u, int(u.points[-1]), index=idx)
        assert "meets" not in idx.__dict__
        assert hashlib.sha256(idx.meets_bits.tobytes()).hexdigest() == frozen[u.q]
        assert np.array_equal(idx.meets, idx.common_point >= 0)


def test_meets_bits_packed_by_row_batches(unital_cm81):
    # the (B, B) bool table that packing it whole needs is 33 MiB at cm q = 9
    # (41.7 MiB traced); by id_batches of rows the peak stays near the 4.2 MiB
    # bitset, with the same bytes
    idx = an.DesignIndex(unital_cm81)
    idx.common_point
    tracemalloc.start()
    try:
        bits = idx.meets_bits
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits.nbytes == 5913 * 93 * 8
    assert peak < 2 * bits.nbytes
    assert hashlib.sha256(bits.tobytes()).hexdigest() == (
        "fc5dd20025c707184455e8bd1761a760bec5f9f963baef36261dae24914f23d2")


def test_avoid_bits_packed_by_point_batches(unital_q3, unital_q5, unital_cm81):
    # the (n, B) bool table that packing it whole needs peaked at 5.16 MiB
    # traced at cm q = 9; by id_batches of points the peak stays near the
    # 0.52 MiB bitset, with the same bytes at q = 3, 5 and cm q = 9
    def digest(bits):
        return hashlib.sha256(bits.tobytes()).hexdigest()

    assert digest(an.DesignIndex(unital_q3).avoid_bits) == (
        "bb1d2579c9803765022065be57b4a3412862f269a3b955c2e847076e05df485a")
    assert digest(an.DesignIndex(unital_q5).avoid_bits) == (
        "c04c407c1a3a1a24cfd1c11827a8c0a0ea487fb09f09b58ec0f49dd046639117")
    idx = an.DesignIndex(unital_cm81)
    idx.blocks_by_point
    tracemalloc.start()
    try:
        bits = idx.avoid_bits
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits.nbytes == 730 * 93 * 8
    assert peak < 2 * bits.nbytes
    assert digest(bits) == (
        "2eebebbb08644a0b814fe1cb1e5608f559c9cbe365ffa164ca3fb894f56a1de2")


def test_design_index_bitsets_q3(unital_q3):
    idx = an.DesignIndex(unital_q3)
    B = idx.B

    def unpack(bits):
        assert bits.dtype == np.uint64 and bits.shape[1] == -(-B // 64)
        cols = np.unpackbits(bits.view(np.uint8), axis=1, bitorder="little")
        assert not cols[:, B:].any()
        return cols[:, :B].astype(bool)

    assert np.array_equal(unpack(idx.meets_bits), idx.meets)
    through = np.zeros((idx.n, B), dtype=bool)
    for b, row in enumerate(idx.block_points):
        through[row, b] = True
    assert np.array_equal(unpack(idx.avoid_bits), ~through)


def test_design_index_refuses_q27_before_allocating(s729):
    def table_bytes(q):
        return 4 * ((q ** 4 - q ** 3 + q ** 2) ** 2 + (q ** 3 + 1) ** 2)

    assert table_bytes(9) <= an.DESIGN_INDEX_MAX_BYTES < table_bytes(11)
    plane = ShiftPlane(planar.albert(s729, 2))
    u = un.build_parabolic_unital(plane, s729.choose_theta())
    calls = (lambda: an.DesignIndex(u), lambda: an.find_onan_exhaustive(u),
             lambda: an.wilbrink_vertex_check(u, plane.infinity_id),
             lambda: an.invariant_profile(u),
             lambda: an.DesignIndex(SimpleNamespace(q=81)))   # q alone decides
    tracemalloc.start()
    start = time.perf_counter()
    try:
        for call in calls:
            with pytest.raises(UsageError, match="q <= 9"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 100 * 2 ** 20
    assert "blocks" not in u.__dict__


def test_wilbrink_refuses_q81_before_allocating():
    # the rank of the point is found by search: a rank table over the 43 M
    # points of the q=81 plane would be 332 MiB before the refusal
    s = gf.split_new(gf.field_new(3, 8), 4)
    plane = ShiftPlane(planar.square(s))
    u = un.build_parabolic_unital(plane, s.choose_theta())
    tracemalloc.start()
    start = time.perf_counter()
    try:
        for pid in (plane.infinity_id, int(u.points[5])):
            with pytest.raises(UsageError, match="q <= 9"):
                an.wilbrink_vertex_check(u, pid)
        for pid in (-1, int(u.points[5]) + 1, plane.n_points):
            with pytest.raises(UsageError, match="not in the unital"):
                an.wilbrink_vertex_check(u, pid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 100 * 2 ** 20
    assert "blocks" not in u.__dict__


def test_explicit_construction_q5(unital_q5):
    cfg = an.construct_onan_explicit(unital_q5)
    assert an.onan_from_blocks(unital_q5, cfg.blocks) == cfg
    assert unital_q5.plane.infinity_id not in cfg.points


def test_explicit_witness_in_exhaustive_q5(unital_q5):
    cfg = an.construct_onan_explicit(unital_q5)
    res = an.find_onan_exhaustive(unital_q5)
    assert res.complete
    assert any(c.blocks == cfg.blocks for c in res.configs)
    pick = np.random.default_rng(5).choice(len(res.configs), 200, replace=False)
    for i in pick:
        assert an.onan_from_blocks(unital_q5, res.configs[i].blocks) == res.configs[i]


def test_explicit_construction_char3_obstruction(unital_q3, s729):
    # in characteristic 3 the template ratio t_u/t_v = -a_w/a_v must land in
    # F_q* \ {1, -1}, which is empty whenever the template subfield meets F_q
    # only in F_3: provably no admissible pair exists (docs/LEDGER.md)
    with pytest.raises(WitnessCheckFailed):
        an.construct_onan_explicit(unital_q3)
    plane = ShiftPlane(planar.albert(s729, 2))
    ua = un.build_parabolic_unital(plane, s729.choose_theta())
    with pytest.raises(WitnessCheckFailed):
        an.construct_onan_explicit(ua)


def _reference_template_pairs(u):
    """The scalar candidate loop the array filter of construct_onan_explicit
    replaced: every admissible (a_v, a_w, t_u, t_v), in order."""
    plane = u.plane
    ctx, split = plane.ctx, plane.split
    k = 2 * split.sub_degree if plane.spec.family == "square" else plane.spec.k
    omega = an._omega_root(ctx)
    g = gcd(2 * split.sub_degree, k)
    sub_elems = np.flatnonzero(
        np.asarray(ctx.frobenius(np.arange(ctx.size, dtype=np.int64), g)) == np.arange(ctx.size))
    inv_theta, four = ctx.inv(u.theta), 4 % ctx.p
    pairs = [(int(av), int(aw)) for av in sub_elems[1:] for aw in sub_elems[1:]]
    out = []
    for av, aw in pairs:
        if av == aw or av == ctx.mul(omega, aw):
            continue
        diff = ctx.sub(av, aw)
        t_u = ctx.mul(ctx.mul(ctx.mul(four, aw), ctx.mul(int(diff), omega)), inv_theta)
        t_v = ctx.mul(ctx.mul(ctx.mul(four, av), int(diff)), inv_theta)
        if not (split.in_subfield(int(t_u)) and split.in_subfield(int(t_v))):
            continue
        if t_u == t_v or t_u == 0 or t_v == 0:
            continue
        out.append((av, aw, int(t_u), int(t_v)))
    return out


def _template_candidates(u, monkeypatch):
    """The (a_v, a_w, t_u, t_v) construct_onan_explicit hands to
    _assemble_template when every assembly fails, and the error it ends in."""
    calls = []

    def record(unital, omega, av, aw, t_u, t_v):
        calls.append((av, aw, t_u, t_v))
        return None

    monkeypatch.setattr(an, "_assemble_template", record)
    with pytest.raises(WitnessCheckFailed) as err:
        an.construct_onan_explicit(u)
    return calls, str(err.value)


def test_explicit_candidates_match_scalar_loop(unital_q3, unital_q5, s81, s729, monkeypatch):
    square9 = un.build_parabolic_unital(ShiftPlane(planar.square(s81)), s81.choose_theta())
    albert27 = un.build_parabolic_unital(ShiftPlane(planar.albert(s729, 2)),
                                         s729.choose_theta())
    messages = {}
    for u in (unital_q3, unital_q5, square9, albert27):
        calls, messages[u.q] = _template_candidates(u, monkeypatch)
        assert calls == _reference_template_pairs(u)
        assert all(type(v) is int for c in calls for v in c)
    # only q=5 lies outside the characteristic-3 obstruction
    assert len(_reference_template_pairs(unital_q5)) > 0
    assert messages[9] == ("no admissible (a_v, a_w) places the template points "
                           "in the unital (subfield size 81, q 9)")


def test_explicit_construction_rejects_cm(unital_cm81):
    with pytest.raises(HypothesisUnmet):
        an.construct_onan_explicit(unital_cm81)


def test_explicit_template_reads_the_exponent(s9, s729, unital_q3, monkeypatch):
    # k comes from f = x^(p^k+1), whatever spec produced f: cm:k=1 is x^2
    # (k = 0) and custom x^10 is the Albert map k = 2 (an odd k is never
    # planar on F_{p^2n})
    cases = [(planar.coulter_matthews(s9, 1), unital_q3),
             (planar.custom(s729, [(10, 1)]),
              un.build_parabolic_unital(ShiftPlane(planar.albert(s729, 2)),
                                        s729.choose_theta()))]
    for spec, named in cases:
        u = un.build_parabolic_unital(ShiftPlane(spec), named.theta)
        assert _template_candidates(u, monkeypatch) == \
            _template_candidates(named, monkeypatch)


# -- stabilizers ------------------------------------------------------------------

def test_sigma1_order_and_abelian(unital_q3):
    rep = an.sigma_stabilizer_report(unital_q3)
    assert rep.order == 27 and rep.is_abelian and rep.fixes_unital


def test_sigma2_order_and_nonabelian(polarity_q3):
    rep = an.sigma_stabilizer_report(polarity_q3)
    assert rep.order == 27 and not rep.is_abelian
    (p1, p2) = rep.commutator_witness
    plane = polarity_q3.plane
    g1, g2 = Sigma(plane, *p1), Sigma(plane, *p2)
    c12, c21 = sigma_compose(g1, g2), sigma_compose(g2, g1)
    assert (c12.u, c12.v, c12.w) != (c21.u, c21.v, c21.w)


def test_sigma_membership_examples(unital_q3):
    plane, theta = unital_q3.plane, unital_q3.theta
    assert Sigma(plane, 0, theta, 0).fixes_point_set(unital_q3.points)
    assert not Sigma(plane, 0, 1, 0).fixes_point_set(unital_q3.points)


def test_sigma_composition_law_exhaustive(plane_q3):
    res = an.verify_sigma_composition(plane_q3)
    assert res["pairs_checked"] == 729 ** 2
    assert res["biadditivity"] == "exhaustive"
    # 3m = 6 generators, each after all 729 shears, on all 90 points
    assert res["generators"] == 6 and res["images_compared"] == 6 * 729 * 90


def test_sigma_composition_applies_the_maps(plane_q3, monkeypatch):
    # with the shear's sign flipped the maps no longer compose by the law;
    # a check that only rearranges the law's own formulas cannot see it
    def wrong_sign(self, x, y):
        ctx = self.plane.ctx
        shear = planar.polarization(self.plane.spec, self.w, x)
        return ctx.add(x, self.u), ctx.sub(ctx.sub(y, shear), self.v)

    monkeypatch.setattr(Sigma, "_affine_map", wrong_sign)
    with pytest.raises(CompositionLawFailed, match="composition law fails for generator"):
        an.verify_sigma_composition(plane_q3)


def test_sigma_composition_sees_one_wrong_image(plane_q3, monkeypatch):
    # one shear that is no generator, sigma(2, 5, 7), sends the affine point
    # (1, 2) astray and nothing else: a check of the generators on the probe
    # points (0, 0) and slope(0) alone would miss it
    N, bad = plane_q3.N, plane_q3.affine_id(1, 2)
    true_apply = Sigma.apply_point

    def one_wrong(self, pid):
        out = true_apply(self, pid)
        hit = ((np.asarray(self.u) == 2) & (np.asarray(self.v) == 5)
               & (np.asarray(self.w) == 7) & (np.asarray(pid) == bad))
        return np.where(hit, (out + 1) % (N * N), out)

    monkeypatch.setattr(Sigma, "apply_point", one_wrong)
    with pytest.raises(CompositionLawFailed, match=rf"sigma\(2, 5, 7\).* at point {bad}$"):
        an.verify_sigma_composition(plane_q3)


def test_sigma_composition_peak_q3(plane_q3):
    # a 64 KiB uint8 image table and the id_batch temporaries that fill it,
    # about 2.6 MiB; one batch of N^2 + N images per outer shear needs 4.5 MiB
    an.verify_sigma_composition(plane_q3)        # the star table is cached
    tracemalloc.start()
    try:
        an.verify_sigma_composition(plane_q3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.7 * 2 ** 20


def test_sigma_composition_refuses_q9_by_table_size(s81):
    # square q = 9 is Dembowski-Ostrom, but its image table would hold
    # 81^3 * (81^2 + 81) entries; the refusal comes before any is allocated
    plane = ShiftPlane(planar.square(s81))
    assert plane.spec.is_dembowski_ostrom
    N = plane.N
    assert 25 ** 3 * (25 ** 2 + 25) <= an.SIGMA_TABLE_MAX_ENTRIES < N ** 3 * (N * N + N)
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match=r"\(q <= 5\), got N\^3 \(N\^2 \+ N\) = 3529831122$"):
            an.verify_sigma_composition(plane)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_stabilizer_needs_theta_or_kappa(plane_q3, unital_q3):
    g_table = np.tile(un.parabolic_y_values(plane_q3, unital_q3.theta), (9, 1))
    with pytest.raises(HypothesisUnmet, match="neither theta nor kappa"):
        an.sigma_stabilizer_report(un.build_general_unital(plane_q3, g_table))


def test_sigma_composition_needs_dembowski_ostrom(plane_cm81, unital_cm81):
    # Coulter-Matthews q=9 is not Dembowski-Ostrom: its star table is not
    # biadditive, so neither the law nor the shears apply
    with pytest.raises(FamilyMismatch):
        an.verify_sigma_composition(plane_cm81)
    with pytest.raises(FamilyMismatch):
        an.sigma_stabilizer_report(unital_cm81)


def test_sigma_composition_refuses_before_allocating():
    # cm:k=3 over F_3^8 is not Dembowski-Ostrom either; past the refusal the
    # law would allocate N^3 = 6561^3 parameters, and at this N no Sigma
    # constructor would refuse first
    split = gf.split_new(gf.field_new(3, 8), 4)
    plane = ShiftPlane(planar.coulter_matthews(split, 3))
    tracemalloc.start()
    try:
        with pytest.raises(FamilyMismatch):
            an.verify_sigma_composition(plane)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# per-element references: one Sigma or Shift object per element, one
# fixes_point_set call each, and every pair compared by two sigma_compose calls

def _sigma_reference(unital):
    """(order, is_abelian, commutator_witness) element by element."""
    plane, ctx, N = unital.plane, unital.plane.ctx, unital.plane.N
    if unital.theta is not None:
        ys = un.parabolic_y_values(plane, unital.theta)
        params = [(u, int(v), 0) for u in range(N) for v in ys]
    else:
        tr = [int(ctx.add(x, int(c))) for x, c in enumerate(unital.kappa.table(plane))]
        params = [(u, v, tr[u]) for u in range(N) for v in range(N)
                  if tr[v] == int(ctx.neg(int(plane.f[tr[u]])))]
    elements = [Sigma(plane, *p) for p in params]
    for g in elements:
        if not g.fixes_point_set(unital.points):
            raise ElementDoesNotFix(f"sigma{(g.u, g.v, g.w)} moves the unital")
    for i, g1 in enumerate(elements):
        for g2 in elements[i + 1:]:
            c12, c21 = sigma_compose(g1, g2), sigma_compose(g2, g1)
            if (c12.u, c12.v, c12.w) != (c21.u, c21.v, c21.w):
                return len(elements), False, ((g1.u, g1.v, g1.w), (g2.u, g2.v, g2.w))
    return len(elements), True, None


def _shift_reference(unital):
    plane, N = unital.plane, unital.plane.N
    return sum(Shift(plane, u, v).fixes_point_set(unital.points)
               for u in range(N) for v in range(N))


@pytest.fixture(scope="module")
def classical_q5(s25):
    return un.build_classical_baseline(s25)


@pytest.fixture(scope="module")
def parabolic_sq81(s81):
    return un.build_parabolic_unital(ShiftPlane(planar.square(s81)), s81.choose_theta())


@pytest.fixture(scope="module")
def polarity_sq81(parabolic_sq81):
    return un.build_polarity_unital(parabolic_sq81.plane, un.InvolutionSpec("frobq"))


@pytest.mark.parametrize("name", ["unital_q3", "classical_q3", "unital_q5", "classical_q5",
                                  "parabolic_sq81", "polarity_sq81"])
def test_sigma_report_matches_reference(name, request):
    u = request.getfixturevalue(name)
    rep = an.sigma_stabilizer_report(u)
    assert (rep.order, rep.is_abelian, rep.commutator_witness) == _sigma_reference(u)
    assert rep.order == u.q ** 3


@pytest.mark.parametrize("swap", ["affine", "slope"])
@pytest.mark.parametrize("name", ["unital_q3", "polarity_q3"])
def test_reports_on_tampered_point_set(name, swap, request):
    # the second point of U swapped for the first affine point off U, or
    # for the slope point (1)
    u = request.getfixturevalue(name)
    plane, pts = u.plane, u.points.copy()
    off = np.flatnonzero(~u.contains(np.arange(plane.N ** 2)))[0]
    pts[1] = off if swap == "affine" else plane.slope_id(1)
    tampered = un.Unital(plane, pts, u.provenance)
    with pytest.raises(ElementDoesNotFix) as ref:
        _sigma_reference(tampered)
    with pytest.raises(ElementDoesNotFix) as new:
        an.sigma_stabilizer_report(tampered)
    assert str(new.value) == str(ref.value)
    assert an.shift_stabilizer_report(tampered).order == _shift_reference(tampered)


def _closure(gens, seeds):
    """The smallest point set holding seeds that every generator maps into
    itself."""
    pts = np.unique(seeds)
    while True:
        grown = np.union1d(pts, np.concatenate([g.apply_point(pts) for g in gens]))
        if len(grown) == len(pts):
            return pts
        pts = grown


@settings(max_examples=25, deadline=None)
@given(gens=st.lists(st.tuples(*[st.integers(0, 8)] * 3), min_size=1, max_size=2),
       seeds=st.lists(st.integers(0, 90), min_size=1, max_size=3))
def test_fixing_matches_fixes_point_set(gens, seeds, plane_q3):
    # point sets with slope points and nontrivial stabilizers: the closures
    # of a few points, one of them a slope point, under random generators
    P = plane_q3
    seeds = seeds + [P.slope_id(seeds[0] % P.N)]
    u, v, w = np.unravel_index(np.arange(P.N ** 3), (P.N,) * 3)
    for kind, params in ((Sigma, (u, v, w)), (Shift, (u[::P.N], v[::P.N]))):
        pts = _closure([kind(P, *g[:len(params)]) for g in gens], seeds)
        stand_in = SimpleNamespace(plane=P, points=pts,
                                   contains=lambda ids, pts=pts: np.isin(ids, pts))
        expect = [kind(P, *p).fixes_point_set(pts) for p in zip(*(a.tolist() for a in params))]
        assert un._fixing(stand_in, *params).tolist() == expect


def _span(plane, group):
    """Every element (c, d) of the group, by adding basis elements until
    nothing new comes."""
    ctx, span = plane.ctx, {(0, 0)}
    while True:
        grown = span | {(int(ctx.add(a, c)), int(ctx.add(b, d)))
                        for a, b in span for c, d in group.basis.tolist()}
        if grown == span:
            return span
        span = grown


@settings(max_examples=25, deadline=None)
@given(gens=st.lists(st.tuples(*[st.integers(0, 8)] * 3), min_size=1, max_size=2),
       seeds=st.lists(st.integers(0, 90), min_size=1, max_size=3),
       probe=st.tuples(st.integers(0, 8), st.integers(0, 8)))
def test_translation_group_is_the_fixing_set(gens, seeds, probe, plane_q3):
    # the point sets of test_fixing_matches_fixes_point_set: a translation
    # lies in the span of the greedy basis iff _fixing accepts it, for a
    # drawn one and for each of the N^2
    P = plane_q3
    seeds = seeds + [P.slope_id(seeds[0] % P.N)]
    u, v = np.divmod(np.arange(P.N ** 2), P.N)
    for kind in (Sigma, Shift):
        pts = _closure([kind(P, *g[:2 if kind is Shift else 3]) for g in gens], seeds)
        stand_in = SimpleNamespace(plane=P, points=pts,
                                   contains=lambda ids, pts=pts: np.isin(ids, pts))
        span = _span(P, un._translation_group(stand_in))
        fixing = un._fixing(stand_in, u, v)
        assert (probe in span) == fixing[probe[0] * P.N + probe[1]]
        assert span == {(int(a), int(b)) for a, b in zip(u[fixing], v[fixing])}


def test_shift_report_matches_reference(unital_q3, polarity_q3, unital_cm81, plane_cm81):
    upol = un.build_polarity_unital(plane_cm81, un.InvolutionSpec("frobq"))
    for u in (unital_q3, polarity_q3, unital_cm81, upol):
        assert an.shift_stabilizer_report(u).order == _shift_reference(u)


def test_cm_shift_stabilizers(unital_cm81, plane_cm81):
    rep = an.shift_stabilizer_report(unital_cm81)
    assert rep.order == 3 ** 6 == 729
    upol = un.build_polarity_unital(plane_cm81, un.InvolutionSpec("frobq"))
    rep2 = an.shift_stabilizer_report(upol)
    assert rep2.order == 3 ** 4 == 81


def test_shift_stabilizer_q3(unital_q3):
    # tau(u, v) fixes the parabolic set iff v lies in theta*F_q: q^2 * q = 27
    rep = an.shift_stabilizer_report(unital_q3)
    assert rep.order == 27


# -- invariant profiles -------------------------------------------------------------

def test_profiles_distinguish(unital_q3, classical_q3):
    p1 = an.invariant_profile(unital_q3)
    p2 = an.invariant_profile(classical_q3)
    verdict, reasons = an.compare_profiles(p1, p2)
    assert verdict == "NON-ISOMORPHIC"
    assert p1.onan_total == Q3_PARABOLIC_ONAN and p2.onan_total == 0
    assert p1.strong_vertex_count == 1 and p2.strong_vertex_count == 28


@pytest.mark.parametrize("q, histogram", [(3, ((0, 1), (72, 27))),
                                          (5, ((0, 1), (6840, 125)))])
def test_profile_onan_point_histogram(q, histogram, unital_q3, unital_q5, s9, s25):
    u = {3: unital_q3, 5: unital_q5}[q]
    p = an.invariant_profile(u)
    assert p.onan_point_histogram == histogram
    assert p.onan_total == sum(c * n for c, n in histogram) // 6   # 6 points each
    classical = un.build_classical_baseline({3: s9, 5: s25}[q])
    p_cl = an.invariant_profile(classical)
    assert p_cl.onan_point_histogram == ((0, q ** 3 + 1),) and p_cl.onan_total == 0


@pytest.mark.parametrize("name", ["unital_q3", "classical_q3", "unital_q5", "classical_q5"])
def test_profile_equals_the_sweep_of_every_point(name, request):
    # the profile reads its per-point invariants at orbit representatives;
    # counting through and checking every point gives the same fields
    u = request.getfixturevalue(name)
    idx = an.DesignIndex(u)
    through = [sum(len(b) for b, _ in an._configs_through(idx, R)) for R in range(idx.n)]
    strong = sum(an.wilbrink_vertex_check(u, int(pid), index=idx).strong for pid in u.points)
    p = an.invariant_profile(u)
    assert u.translation_group.order > 1
    assert p.onan_point_histogram == an._histogram(np.array(through))
    assert p.onan_total == sum(through) // 6 and p.strong_vertex_count == strong


def test_profile_invariant_under_collineation(unital_q3):
    from unitalforge.plane import Shift

    plane = unital_q3.plane
    img = np.sort(np.asarray(Shift(plane, 2, 0).apply_point(unital_q3.points)))
    moved = un.Unital(plane, img, unital_q3.provenance)
    p1 = an.invariant_profile(unital_q3)
    p2 = an.invariant_profile(moved)
    assert p1.design_fields() == p2.design_fields()


def test_profile_of_dual_matches(unital_q3):
    dual, _ = un.dual_unital(unital_q3)
    assert (an.invariant_profile(dual).design_fields()
            == an.invariant_profile(unital_q3).design_fields())


def test_profiles_inconclusive_on_self(unital_q3):
    p = an.invariant_profile(unital_q3)
    verdict, reasons = an.compare_profiles(p, p)
    assert verdict == "INCONCLUSIVE" and reasons == []
