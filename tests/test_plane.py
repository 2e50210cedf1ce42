import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from unitalforge import gf, plane as plane_mod, planar
from unitalforge.errors import AxiomViolation, EqualPoints, FamilyMismatch, UsageError
from unitalforge.plane import Gamma, Shift, ShiftPlane, Sigma, sigma_compose, verify_collineation


def test_point_line_counts(plane_q3):
    assert plane_q3.n_points == 91 == plane_q3.n_lines   # q^4 + q^2 + 1 at q = 3


def test_incidence_cases(plane_q3):
    P = plane_q3
    f9 = P.ctx
    assert P.incident(P.infinity_id, P.at_infinity_id)
    assert P.incident(P.slope_id(4), P.at_infinity_id)
    assert not P.incident(P.affine_id(1, 1), P.at_infinity_id)
    # affine (0, f(a) - b) lies on L(a, b)
    for a in range(9):
        for b in range(9):
            y = int(f9.sub(int(P.f[a]), b))
            assert P.incident(P.affine_id(0, y), P.shifted_id(a, b))
    # verticals carry (a, y) and infinity; slope points only on L(a, .) lines
    for x in range(9):
        for y in range(9):
            assert P.incident(P.affine_id(x, y), P.vertical_id(x))
            assert not P.incident(P.affine_id(x, y), P.vertical_id((x + 1) % 9))
    assert P.incident(P.infinity_id, P.vertical_id(3))
    assert P.incident(P.slope_id(2), P.shifted_id(2, 5))
    assert not P.incident(P.slope_id(2), P.shifted_id(3, 5))


def test_points_on_line_sorted_size(plane_q3):
    for lid in range(plane_q3.n_lines):
        pts = plane_q3.points_on_line(lid)
        assert len(pts) == 10
        assert np.all(np.diff(pts) > 0)


def test_lines_through_point_duality(plane_q3):
    for pid in range(plane_q3.n_points):
        lns = plane_q3.lines_through_point(pid)
        assert len(lns) == 10
        for lid in lns:
            assert plane_q3.incident(pid, int(lid))


def test_line_through_cases(plane_q3):
    P = plane_q3
    assert P.line_through(P.infinity_id, P.slope_id(4)) == P.at_infinity_id
    assert P.line_through(P.slope_id(1), P.slope_id(2)) == P.at_infinity_id
    assert P.line_through(P.affine_id(4, 2), P.infinity_id) == P.vertical_id(4)
    assert P.line_through(P.affine_id(4, 2), P.affine_id(4, 7)) == P.vertical_id(4)
    lid = P.line_through(P.affine_id(2, 3), P.slope_id(5))
    assert P.incident(P.affine_id(2, 3), lid) and P.incident(P.slope_id(5), lid)
    lid = P.line_through(P.affine_id(1, 2), P.affine_id(3, 4))
    assert P.incident(P.affine_id(1, 2), lid) and P.incident(P.affine_id(3, 4), lid)
    with pytest.raises(EqualPoints):
        P.line_through(17, 17)


def test_line_through_exhaustive_agreement(plane_q3):
    # every point pair determines exactly the line that contains both
    P = plane_q3
    for p1 in range(0, P.n_points, 7):
        for p2 in range(p1 + 1, P.n_points, 5):
            lid = P.line_through(p1, p2)
            assert P.incident(p1, lid) and P.incident(p2, lid)


def test_verify_projective_plane_q3(plane_q3):
    rep = plane_q3.verify_projective_plane()
    assert rep.passed and rep.points == 91 and rep.lines == 91


def test_verify_projective_plane_sampled(plane_cm81):
    rep = plane_cm81.verify_projective_plane(mode="sampled", seed=1, trials=300)
    assert rep.passed and rep.points == 6643


def test_nonplanar_plane_rejected(s9):
    cube = planar.custom(s9, [(3, 1)])
    with pytest.raises(AxiomViolation):
        ShiftPlane(cube).verify_projective_plane()


# -- collineations ------------------------------------------------------------


def test_shift_identity_and_action(plane_q3):
    P = plane_q3
    pts = P.point_ids()
    ident = Shift(P, 0, 0)
    assert np.all(np.asarray(ident.apply_point(pts)) == pts)
    g = Shift(P, 4, 7)
    assert verify_collineation(P, g)
    # point map: affine translate, slope shifts by -u, infinity fixed
    assert g.apply_point(P.affine_id(1, 2)) == P.affine_id(P.ctx.add(1, 4),
                                                           P.ctx.add(2, 7))
    assert g.apply_point(P.slope_id(3)) == P.slope_id(P.ctx.sub(3, 4))
    assert g.apply_point(P.infinity_id) == P.infinity_id


def test_all_shifts_are_collineations(plane_q3):
    for u in range(9):
        for v in range(9):
            assert _sampled(plane_q3, Shift(plane_q3, u, v), u * 9 + v, 40)[0] is None


def test_gamma_slope_map(plane_q3):
    P, f9 = plane_q3, plane_q3.ctx
    g = Gamma(P, 5, 1)
    assert verify_collineation(P, g)
    assert g.apply_point(P.slope_id(2)) == P.slope_id(int(f9.frobenius(f9.mul(5, 2), 1)))
    g0 = Gamma(P, 5, 0)
    assert g0.apply_point(P.slope_id(2)) == P.slope_id(f9.mul(5, 2))


def test_gamma_needs_power_map(s729):
    P = ShiftPlane(planar.ganley(s729))
    with pytest.raises(FamilyMismatch):
        Gamma(P, 1, 0)


def test_sigma_needs_do(plane_cm81):
    with pytest.raises(FamilyMismatch):
        Sigma(plane_cm81, 0, 0, 1)


def test_sigma_follows_biadditivity_on_custom_maps(s9):
    from unitalforge.analysis import verify_sigma_composition

    # x^2 + 1: planar, but the shears are no collineations of its plane
    plus_one = ShiftPlane(planar.custom(s9, [(2, 1), (0, 1)]))
    with pytest.raises(FamilyMismatch):
        Sigma(plus_one, 1, 2, 1)
    with pytest.raises(FamilyMismatch):
        verify_sigma_composition(plus_one)
    # x^2 + x: its polarization 2xy is biadditive, and every shear is one
    plus_x = ShiftPlane(planar.custom(s9, [(2, 1), (1, 1)]))
    for u in range(9):
        for v in (0, 4):
            for w in range(9):
                assert verify_collineation(plus_x, Sigma(plus_x, u, v, w))
    assert verify_sigma_composition(plus_x)["biadditivity"] == "exhaustive"


def test_sigma_is_collineation(plane_q3):
    g = Sigma(plane_q3, 2, 3, 4)
    assert verify_collineation(plane_q3, g)


def test_sigma_vertical_and_slope_maps(plane_q3):
    P, f9 = plane_q3, plane_q3.ctx
    g = Sigma(P, 2, 3, 4)
    assert g.apply_line(P.vertical_id(1)) == P.vertical_id(f9.add(1, 2))
    assert g.apply_point(P.slope_id(1)) == P.slope_id(f9.add(f9.sub(1, 2), 4))
    assert g.apply_point(P.infinity_id) == P.infinity_id


def test_sigma_compose_identity(plane_q3):
    g = Sigma(plane_q3, 2, 3, 4)
    ident = Sigma(plane_q3, 0, 0, 0)
    for c in (sigma_compose(g, ident), sigma_compose(ident, g)):
        assert (c.u, c.v, c.w) == (g.u, g.v, g.w)


def test_sigma_shift_subgroup_closed_and_abelian(plane_q3):
    # w = 0 elements compose by adding parameters, in either order
    for u1 in range(9):
        for v1 in range(9):
            g1 = Sigma(plane_q3, u1, v1, 0)
            g2 = Sigma(plane_q3, (2 * u1 + 1) % 9, (v1 + 3) % 9, 0)
            c12, c21 = sigma_compose(g1, g2), sigma_compose(g2, g1)
            assert c12.w == 0
            assert (c12.u, c12.v, c12.w) == (c21.u, c21.v, c21.w)


def test_sigma_commutator_middle_parameter(plane_q3):
    gw = Sigma(plane_q3, 0, 0, 1)
    gu = Sigma(plane_q3, 2, 0, 0)
    c1, c2 = sigma_compose(gw, gu), sigma_compose(gu, gw)
    assert (c1.u, c1.w) == (c2.u, c2.w)
    assert c1.v != c2.v                              # -2w*u does not vanish


def test_sigma_group_action_random(plane_q3, plane_q5):
    rng = np.random.default_rng(0)
    for plane in (plane_q3, plane_q5):
        N = plane.N
        for _ in range(5000):
            u1, v1, w1, u2, v2, w2 = (int(z) for z in rng.integers(0, N, 6))
            g1, g2 = Sigma(plane, u1, v1, w1), Sigma(plane, u2, v2, w2)
            g12 = sigma_compose(g1, g2)
            pid = int(rng.integers(0, plane.n_points))
            assert int(g12.apply_point(pid)) == int(g1.apply_point(int(g2.apply_point(pid))))
            lid = int(rng.integers(0, plane.n_lines))
            assert int(g12.apply_line(lid)) == int(g1.apply_line(int(g2.apply_line(lid))))


def test_sigma_family_distinct(plane_q3):
    # q^6 parameter triples give q^6 distinct collineations
    images = set()
    for u in range(9):
        for v in range(9):
            for w in range(9):
                g = Sigma(plane_q3, u, v, w)
                images.add((int(g.apply_point(plane_q3.affine_id(0, 0))),
                            int(g.apply_point(plane_q3.slope_id(0)))))
    assert len(images) == 729


def test_elation_fixes_axis_pointwise(plane_q3):
    g = Sigma(plane_q3, 0, 0, 5)
    axis = plane_q3.points_on_line(plane_q3.vertical_id(0))
    assert np.all(np.asarray(g.apply_point(axis)) == axis)
    assert g.apply_point(plane_q3.infinity_id) == plane_q3.infinity_id


def _broken_map(plane_q3):
    # (x, y) -> (x, y^3) with all lines fixed is not incidence-preserving
    f9 = plane_q3.ctx

    class Broken:
        def apply_point(self, pid):
            arr = np.atleast_1d(np.asarray(pid)).copy()
            aff = arr < 81
            arr[aff] = (arr[aff] // 9) * 9 + np.asarray(f9.frobenius(arr[aff] % 9, 1))
            return arr if np.ndim(pid) else int(arr[0])

        def apply_line(self, lid):
            return lid

    return Broken()


def test_broken_map_rejected(plane_q3):
    assert not verify_collineation(plane_q3, _broken_map(plane_q3))
    assert _sampled(plane_q3, _broken_map(plane_q3))[0] is not None


@pytest.mark.parametrize("trials", [0, -1])
def test_sampled_collineation_needs_a_trial(trials, plane_q3):
    # no flag drawn would let the broken map pass
    with pytest.raises(UsageError, match="at least 1 trial"):
        _sampled(plane_q3, _broken_map(plane_q3), trials=trials)


@pytest.mark.parametrize("trials", [0, -1])
def test_sampled_axioms_need_a_trial(trials, plane_q3):
    with pytest.raises(UsageError, match="at least 1 trial"):
        plane_q3.verify_projective_plane(mode="sampled", trials=trials)


# -- exhaustive flag checks by translation conjugation ---------------------------

def _sweep(P, g):
    """The reference: every flag swept, (first failing flag or None, count)."""
    def holds(pids, lids):
        return P.incident_many(g.apply_point(pids), g.apply_line(lids))
    return plane_mod._first_failing_flag(P, holds, "exhaustive", 0, 1)


def _checked(P, g):
    return plane_mod._check_flags(P, g, "exhaustive", 0, 1)


def _sampled(P, g, seed=0, trials=20000):
    """Seeded sampled flags through the flag routine verify_polarity shares."""
    return plane_mod._check_flags(P, g, "sampled", seed, trials)


def _conjugation_planes(s9, s25, s81):
    """Square q=3 and 5, cm q=9, and a Dembowski-Ostrom F_81 that is no
    power map."""
    return [ShiftPlane(planar.square(s9)), ShiftPlane(planar.square(s25)),
            ShiftPlane(planar.coulter_matthews(s81, 3)), ShiftPlane(planar.dickson(s81, 1))]


@settings(max_examples=25, deadline=None)
@given(which=st.integers(0, 3), kind=st.sampled_from(["shift", "gamma", "sigma"]),
       params=st.tuples(*[st.integers(0, 10 ** 6)] * 3))
def test_exhaustive_collineation_matches_sweep(which, kind, params, s9, s25, s81):
    P = _conjugation_planes(s9, s25, s81)[which]
    assume(kind != "gamma" or P.spec.is_power_map)
    assume(kind != "sigma" or P.spec.is_dembowski_ostrom)
    u, v, w = (x % P.N for x in params)
    g = {"shift": lambda: Shift(P, u, v), "gamma": lambda: Gamma(P, 1 + u % (P.N - 1), v),
         "sigma": lambda: Sigma(P, u, v, w)}[kind]()
    reference = _sweep(P, g)
    assert _checked(P, g) == reference
    assert verify_collineation(P, g) is (reference[0] is None)


class _Transposed:
    """A Shift whose point (or line) images of a and b are swapped: no
    collineation."""

    def __init__(self, g, a, b, lines=False):
        self.apply_point, self.apply_line = g.apply_point, g.apply_line
        real = g.apply_line if lines else g.apply_point

        def swapped(ids):
            image = np.asarray(real(ids))
            return np.where(image == a, b, np.where(image == b, a, image))

        if lines:
            self.apply_line = swapped
        else:
            self.apply_point = swapped


class _Split:
    """Points moved by one translation, lines by another: both conjugate
    every translation to itself, yet most flags break."""

    def __init__(self, P, points, lines):
        self.apply_point = Shift(P, *points).apply_point
        self.apply_line = Shift(P, *lines).apply_line


@pytest.mark.parametrize("which", [0, 1, 2])
def test_transposition_gets_the_sweeps_witness(which, s9, s25, s81):
    P = _conjugation_planes(s9, s25, s81)[which]
    NN = P.N ** 2
    for a, b in ((3, 2 * P.N + 5), (7, NN + 1), (NN + 2, P.infinity_id),
                 (0, P.infinity_id)):
        for lines in (False, True):
            g = _Transposed(Shift(P, 4, 1), a, b, lines)
            reference = _sweep(P, g)
            assert reference[0] is not None
            assert _checked(P, g) == reference
            assert not verify_collineation(P, g)


@pytest.mark.parametrize("which", [0, 2])
def test_representative_flags_are_needed(which, s9, s25, s81):
    # the conjugation part alone would accept this map; the flags of
    # L(0, 0), V(0) and L_inf reject it, and the sweep gives the witness
    P = _conjugation_planes(s9, s25, s81)[which]
    g = _Split(P, (1, 2), (1, 3))
    assert plane_mod._proved_by_translations(
        P, g.apply_point, g.apply_line, lambda p, l: np.ones(np.broadcast(p, l).shape, bool))
    reference = _sweep(P, g)
    assert reference[0] is not None and _checked(P, g) == reference


def test_proof_stops_when_the_origin_image_is_not_affine(plane_q3):
    # the identity with the images of (0, 0) and (0) swapped: g(0, 0) is no
    # affine ID, so the proof fails even under a flag test that always holds
    P = plane_q3
    g = _Transposed(Shift(P, 0, 0), 0, P.slope_id(0))
    assert not plane_mod._proved_by_translations(
        P, g.apply_point, g.apply_line, lambda p, l: np.ones(np.broadcast(p, l).shape, bool))
    reference = _sweep(P, g)
    assert reference[0] == (P.slope_id(0), 1) == (81, 1)
    assert _checked(P, g) == reference
    assert not verify_collineation(P, g)


def test_sweep_runs_only_after_a_failed_proof(plane_q3, plane_cm81, monkeypatch):
    from unitalforge import unital as un

    calls = []
    real = plane_mod._first_failing_flag

    def spy(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(plane_mod, "_first_failing_flag", spy)
    for P in (plane_q3, plane_cm81):
        assert verify_collineation(P, Shift(P, 5, 2))
        assert verify_collineation(P, Gamma(P, 2, 1))
        assert un.verify_polarity(P, un.InvolutionSpec("frobq"), mode="exhaustive").passed
    assert verify_collineation(plane_q3, Sigma(plane_q3, 1, 2, 3))
    assert calls == []
    assert _sampled(plane_q3, Shift(plane_q3, 5, 2))[0] is None
    assert not verify_collineation(plane_q3, _broken_map(plane_q3))
    assert calls == ["sampled", "exhaustive"]


def _scale_check(run):
    # the sweep takes about 50 s at q=27 and the proof 1-2 s; 20 s tells
    # them apart with room for a loaded host
    tracemalloc.start()
    start = time.perf_counter()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 20
    assert peak < 64 * 2 ** 20
    return result


@pytest.mark.parametrize("kind", ["shift", "sigma"])
def test_exhaustive_collineation_albert27(kind, s729):
    # the sweep would visit 3.9e8 flags; the proof maps 12 generators
    P = _albert27(s729)
    g = Shift(P, 5, 11) if kind == "shift" else Sigma(P, 5, 11, 7)
    assert _scale_check(lambda: verify_collineation(P, g))


def test_exhaustive_polarity_albert27(s729):
    from unitalforge import unital as un

    P = _albert27(s729)
    report = _scale_check(lambda: un.verify_polarity(P, un.InvolutionSpec("frobq"),
                                                     mode="exhaustive"))
    assert report == un.PolarityReport(True, "exhaustive", 27 ** 3 + 1,
                                       P.n_lines * (P.N + 1))


@pytest.mark.parametrize("call", ["axioms"])
def test_unknown_mode_is_a_usage_error(call, plane_q3):
    # a misspelt mode used to run the sampled check and pass
    with pytest.raises(UsageError, match="mode must be one of"):
        plane_q3.verify_projective_plane("bogus")


# -- batch incidence ------------------------------------------------------------

def _on_line_membership(P, pids, lids):
    """(pids[i, j] on line lids[i]) from the sorted rows of points_on_line."""
    rows = np.array([P.points_on_line(int(lid)) for lid in lids])
    offset = np.arange(len(lids), dtype=np.int64)[:, None] * P.n_points
    flat = (rows + offset).ravel()
    probe = pids + offset
    pos = np.searchsorted(flat, probe).clip(max=flat.size - 1)
    return flat[pos] == probe


def test_incident_many_all_pairs_q3(plane_q3):
    P = plane_q3
    lids = P.line_ids()
    pids = np.tile(P.point_ids(), (len(lids), 1))          # row i: every point
    expect = _on_line_membership(P, pids, lids)
    assert np.array_equal(P.incident_many(pids, lids[:, None]), expect)
    assert expect.sum() == 91 * 10
    assert np.array_equal(P.points_on_lines(lids), [P.points_on_line(l) for l in lids])
    assert P.incident(P.infinity_id, P.at_infinity_id) is True


def test_incident_many_sample_q9(plane_cm81):
    P = plane_cm81
    rng = np.random.default_rng(11)
    lids = rng.integers(0, P.n_lines, 6000)
    pids = rng.integers(0, P.n_points, (6000, 200))       # more than one batch
    pids[:, :82] = P.points_on_lines(lids)                 # and every incident pair
    assert np.array_equal(pids[:50, :82], [P.points_on_line(l) for l in lids[:50]])
    assert pids.size > plane_mod.BATCH
    expect = _on_line_membership(P, pids, lids)
    assert np.array_equal(P.incident_many(pids, lids[:, None]), expect)


def _reference_incident(P, pids, lids):
    """The per-kind incidence equations incident_many replaced by reading
    points_at at one column, kept as its oracle (1-d ID arrays)."""
    N, NN = P.N, P.N * P.N
    hit = np.zeros(pids.shape, dtype=bool)
    at_inf = lids == P.at_infinity_id
    hit[at_inf] = pids[at_inf] >= NN                 # slopes and infinity
    # vertical x = a: pid // N equals a only for affine points
    vert = (lids >= NN) & ~at_inf
    pv = pids[vert]
    hit[vert] = (pv == P.infinity_id) | (pv // N == lids[vert] - NN)
    # graph L(a, b): the slope point (a), never infinity (its offset is N)
    slope = (lids < NN) & (pids >= NN)
    hit[slope] = pids[slope] - NN == lids[slope] // N
    aff = (lids < NN) & (pids < NN)
    x, y = pids[aff] // N, pids[aff] % N
    a, b = lids[aff] // N, lids[aff] % N
    hit[aff] = P.ctx.sub(P.f[P.ctx.add(x, a)], b) == y
    return hit


def test_incident_many_matches_reference_all_pairs_q3(plane_q3):
    P = plane_q3
    pids, lids = np.meshgrid(P.point_ids(), P.line_ids(), indexing="ij")
    got = P.incident_many(pids, lids)
    assert np.array_equal(got.ravel(), _reference_incident(P, pids.ravel(), lids.ravel()))
    assert got.sum() == 91 * 10


@pytest.mark.parametrize("which", ["cm-q9", "albert-q27"])
def test_incident_many_matches_reference(which, plane_cm81, s729):
    P = plane_cm81 if which == "cm-q9" else ShiftPlane(planar.albert(s729, 2))
    NN, rng = P.N * P.N, np.random.default_rng(5)
    # every pairing of point kind with line kind (as IDs: affine or graph,
    # slope or vertical, infinity or L_inf), the incident pairs of seeded
    # lines, and seeded pairs
    kinds = np.concatenate([rng.integers(0, NN, 40), rng.integers(NN, P.infinity_id, 40),
                            [P.infinity_id]])
    pairs = np.stack(np.meshgrid(kinds, kinds, indexing="ij"), axis=-1).reshape(-1, 2)
    flags = np.stack(P.sample_flags(rng, 5000), axis=-1)
    seeded = np.stack([rng.integers(0, P.n_points, 40000),
                       rng.integers(0, P.n_lines, 40000)], axis=-1)
    pids, lids = np.concatenate([pairs, flags, seeded]).T
    got = P.incident_many(pids, lids)
    assert np.array_equal(got, _reference_incident(P, pids, lids))
    assert got[len(pairs):len(pairs) + 5000].all()


def test_small_batches_change_nothing(plane_q3, monkeypatch):
    P = plane_q3
    full = P.points_on_lines(P.line_ids())
    monkeypatch.setattr(plane_mod, "BATCH", 7)
    assert np.array_equal(P.points_on_lines(P.line_ids()), full)
    assert P.incident_many(full, P.line_ids()[:, None]).all()
    assert P.verify_projective_plane().passed
    assert verify_collineation(P, Shift(P, 2, 7))


# -- sampled axioms by difference rows ------------------------------------------

def _reference_line_through(P, pid1, pid2):
    """The scalar line solver the batch solver replaced, kept as its oracle."""
    if pid1 == pid2:
        raise EqualPoints(f"point {pid1} given twice")
    N = P.N
    p1, p2 = sorted((int(pid1), int(pid2)))
    if p2 == P.infinity_id:
        if p1 >= N * N:
            return P.at_infinity_id
        return N * N + p1 // N
    if p2 >= N * N:
        if p1 >= N * N:
            return P.at_infinity_id
        a = p2 - N * N
        x, y = p1 // N, p1 % N
        b = P.ctx.sub(int(P.f[P.ctx.add(x, a)]), y)
        return a * N + int(b)
    x1, y1 = p1 // N, p1 % N
    x2, y2 = p2 // N, p2 % N
    if x1 == x2:
        return N * N + x1
    a = np.arange(N, dtype=np.int64)
    lhs = P.ctx.sub(P.f[np.asarray(P.ctx.add(np.int64(x1), a))],
                    P.f[np.asarray(P.ctx.add(np.int64(x2), a))])
    hits = np.flatnonzero(lhs == P.ctx.sub(y1, y2))
    if len(hits) != 1:
        raise AxiomViolation(f"{len(hits)} candidate lines through {pid1}, {pid2}",
                             witness=(int(p1), int(p2)))
    a0 = int(hits[0])
    b0 = int(P.ctx.sub(int(P.f[P.ctx.add(x1, a0)]), y1))
    return a0 * N + b0


def _reference_sampled(P, seed, trials):
    """The per-trial sampled axiom loop the batch check replaced."""
    rng = np.random.default_rng(seed)
    pairs, lids = [], []
    for _ in range(trials):
        p1, p2 = (int(v) for v in rng.integers(0, P.n_points, 2))
        if p1 == p2:
            continue
        pairs.append((p1, p2))
        lids.append(_reference_line_through(P, p1, p2))
    if pairs:
        both = np.array(pairs, dtype=np.int64)
        ok = P.incident_many(both, np.array(lids, dtype=np.int64)[:, None]).all(axis=1)
        if not ok.all():
            return plane_mod.PlaneReport(False, "sampled", P.n_points, P.n_lines,
                                         trials, witness=pairs[int(np.argmin(ok))])
    for _ in range(trials):
        l1, l2 = (int(v) for v in rng.integers(0, P.n_lines, 2))
        if l1 == l2:
            continue
        common = np.intersect1d(P.points_on_line(l1), P.points_on_line(l2))
        if len(common) != 1:
            return plane_mod.PlaneReport(False, "sampled", P.n_points, P.n_lines,
                                         trials, witness=(l1, l2))
    return plane_mod.PlaneReport(True, "sampled", P.n_points, P.n_lines, 2 * trials)


def _outcome(run):
    """A report, or the type, message and witness of the exception raised."""
    try:
        return run()
    except AxiomViolation as e:
        return type(e), str(e), e.witness


def _sampled_pair(P, seed, trials):
    return (_outcome(lambda: P.verify_projective_plane("sampled", seed=seed, trials=trials)),
            _outcome(lambda: _reference_sampled(P, seed, trials)))


def test_sampled_axioms_match_reference_q3(plane_q3):
    new, ref = _sampled_pair(plane_q3, 0, 20000)
    assert new == ref and new.passed and new.pairs_checked == 40000


@pytest.mark.parametrize("spec, seeds", [("square", (0, 1, 2)), ("cm:k=3", (0, 1, 2)),
                                         ("albert:k=2", (0,))])
def test_sampled_axioms_reports_frozen(spec, seeds, s9, s81, s729):
    # reports of the per-trial loop, 20 000 point pairs and 20 000 line pairs
    split = {"square": s9, "cm:k=3": s81, "albert:k=2": s729}[spec]
    P = ShiftPlane(planar.parse_spec(split, spec))
    for seed in seeds:
        assert P.verify_projective_plane("sampled", seed=seed) == plane_mod.PlaneReport(
            True, "sampled", P.n_points, P.n_lines, 40000, None)


def _non_planar_planes(s9, s81):
    corrupt = ShiftPlane(planar.coulter_matthews(s81, 3))
    corrupt.f = corrupt.f.copy()
    corrupt.f[5] = 7
    return [ShiftPlane(planar.custom(s9, [(3, 1)])), ShiftPlane(planar.custom(s9, [(4, 1)])),
            ShiftPlane(planar.custom(s81, [(3, 1)])), corrupt]


def test_sampled_axioms_match_reference_non_planar(s9, s81):
    # full trial counts stop at the first point pair without exactly one line;
    # a handful of trials also reaches the line pairs
    outcomes = set()
    for P in _non_planar_planes(s9, s81):
        for seed in range(3):
            new, ref = _sampled_pair(P, seed, 20000)
            assert new == ref and new[0] is AxiomViolation
        for seed in range(40):
            new, ref = _sampled_pair(P, seed, 3)
            assert new == ref
            outcomes.add("raised" if isinstance(new, tuple) else
                         "passed" if new.passed else "line pair")
    assert outcomes == {"raised", "passed", "line pair"}


def test_sampled_axioms_incidence_witness(plane_q3, monkeypatch):
    # a failing incidence reports the first failing point pair as drawn
    P = ShiftPlane(plane_q3.spec)
    true_incident = P.incident_many
    pairs = np.random.default_rng(4).integers(0, P.n_points, (50, 2))
    bad = [tuple(int(v) for v in pairs[k]) for k in (17, 31)]

    def flaky(pids, lids):
        out = true_incident(pids, lids)
        if np.ndim(pids) == 2:
            for k, row in enumerate(np.asarray(pids)):
                if tuple(int(v) for v in row) in bad:
                    out[k] = False
        return out

    monkeypatch.setattr(P, "incident_many", flaky)
    new, ref = _sampled_pair(P, 4, 50)
    assert not new.passed and new == ref and new.witness == bad[0]


@pytest.mark.parametrize("n", [91, 6643, 532171])
def test_one_call_draw_matches_per_trial_draws(n):
    for seed in range(4):
        loop = np.random.default_rng(seed)
        per_trial = np.array([loop.integers(0, n, 2) for _ in range(3000)])
        batch = np.random.default_rng(seed)
        assert np.array_equal(batch.integers(0, n, (3000, 2)), per_trial)
        assert batch.integers(0, n) == loop.integers(0, n)      # streams stay aligned


def test_line_through_many_all_pairs_q3(plane_q3):
    P = plane_q3
    p1, p2 = np.divmod(np.arange(P.n_points ** 2), P.n_points)
    p1, p2 = p1[p1 != p2], p2[p1 != p2]
    lines = P.line_through_many(p1, p2)
    expect = [_reference_line_through(P, a, b) for a, b in zip(p1.tolist(), p2.tolist())]
    assert lines.tolist() == expect
    assert all(P.line_through(a, b) == e for a, b, e in zip(p1[::97], p2[::97], expect[::97]))
    assert P.line_through_many(p1.reshape(-1, 10), p2.reshape(-1, 10)).shape == (819, 10)
    with pytest.raises(EqualPoints, match="point 5 given twice"):
        P.line_through_many([1, 5], [2, 5])


def test_meet_counts_all_pairs_q3(plane_q3, s9):
    for P in (plane_q3, ShiftPlane(planar.custom(s9, [(3, 1)]))):
        l1, l2 = np.divmod(np.arange(P.n_lines ** 2), P.n_lines)
        l1, l2 = l1[l1 != l2], l2[l1 != l2]
        expect = [len(np.intersect1d(P.points_on_line(a), P.points_on_line(b)))
                  for a, b in zip(l1.tolist(), l2.tolist())]
        assert P._joins(l1, l2)[0].tolist() == expect


# -- exhaustive axioms by translation pencils -------------------------------------

def _reference_exhaustive(P):
    """The pair-table check the pencil check replaced: every line adds its
    C(N+1, 2) point pairs to an n_points^2 table, which then must hold 1
    for every pair (the totals agree, so at most 1 suffices)."""
    npts, N = P.n_points, P.N
    counts = np.zeros(npts * npts, dtype=np.int8)
    ii, jj = np.triu_indices(N + 1, k=1)
    for lids in plane_mod.id_batches(P.n_lines, len(ii)):
        rows = P.points_on_lines(lids)
        repeated = np.any(rows[:, 1:] == rows[:, :-1], axis=1)
        if repeated.any():
            k = int(np.argmax(repeated))
            raise AxiomViolation(f"line {int(lids[k])} has {len(np.unique(rows[k]))} "
                                 "distinct points", witness=(int(lids[k]),))
        for row in rows:
            counts[row[ii] * npts + row[jj]] += 1
    if counts.max() > 1:
        k = int(np.argmax(counts))
        raise AxiomViolation("point pair covered more than once",
                             witness=(k // npts, k % npts))
    return plane_mod.PlaneReport(True, "exhaustive", npts, P.n_lines,
                                 npts * (npts - 1) // 2)


def test_exhaustive_axioms_match_pair_table(plane_q3, plane_q5, plane_cm81):
    for P in (plane_q3, plane_q5, plane_cm81):
        rep = P.verify_projective_plane()
        assert rep == _reference_exhaustive(P) and rep.passed


def _common_lines(P, pair):
    return int(P.incident_many(np.array(pair)[:, None], P.line_ids()[None, :])
               .all(axis=0).sum())


def _first_bad_pair(P):
    """The first pair not on exactly one listed line, pencil by pencil in the
    order (0, 0), (0), inf, from exact counts rather than saturating bytes."""
    for pid in (0, P.N ** 2, P.infinity_id):
        rows = P.points_on_lines(P.lines_through_point(pid))
        count = np.bincount(rows.ravel(), minlength=P.n_points)
        count[pid] = 1
        if (count != 1).any():
            return tuple(sorted((pid, int(np.argmax(count != 1)))))
    return None


def test_exhaustive_axioms_reject_non_planar(s9, s81):
    witnesses = []
    for P in _non_planar_planes(s9, s81):
        with pytest.raises(AxiomViolation):
            _reference_exhaustive(P)
        with pytest.raises(AxiomViolation) as err:
            P.verify_projective_plane()
        pair = err.value.witness
        assert pair == _first_bad_pair(P) and _common_lines(P, pair) != 1
        witnesses.append(pair)
    assert witnesses[0] == (0, 9)               # (0, 0) and (1, 0) on x^3 over F_9


def test_exhaustive_axioms_check_the_listed_pencil(plane_q3, monkeypatch):
    # a listed pencil with a line off its point is refused before any count
    P = ShiftPlane(plane_q3.spec)
    pencil = P.lines_through_point
    monkeypatch.setattr(P, "lines_through_point", lambda pid: pencil(pid - (pid > 0)))
    with pytest.raises(AxiomViolation, match="through point 81 misses it") as err:
        P.verify_projective_plane()
    assert err.value.witness == (81,)


def test_exhaustive_axioms_check_orbit_rows(plane_q3, monkeypatch):
    P = ShiftPlane(plane_q3.spec)
    rows = P.points_on_lines

    def repeating(lids):
        out = rows(lids)
        out[:, -1] = out[:, 0]
        return out

    monkeypatch.setattr(P, "points_on_lines", repeating)
    with pytest.raises(AxiomViolation, match="line 0 repeats a point") as err:
        P.verify_projective_plane()
    assert err.value.witness == (0,)


def test_translation_generators_are_collineations(s9, s25, s81, s729):
    # the lemma the pencil check rests on, for planar and non-planar f alike
    planes = ([ShiftPlane(planar.square(s9)), ShiftPlane(planar.square(s25)),
               ShiftPlane(planar.coulter_matthews(s81, 3))] + _non_planar_planes(s9, s81))
    for P in planes:
        for unit in P.ctx.pow_p.tolist():
            for c, d in ((unit, 0), (0, unit)):
                assert verify_collineation(P, Shift(P, c, d))
    P = _albert27(s729)
    for seed, unit in enumerate(P.ctx.pow_p.tolist()):
        for c, d in ((unit, 0), (0, unit)):
            assert _sampled(P, Shift(P, c, d), seed)[0] is None


def test_exhaustive_axioms_albert27(s729):
    P = _albert27(s729)
    assert P.verify_projective_plane() == plane_mod.PlaneReport(
        True, "exhaustive", 532171, 532171, 532171 * 532170 // 2)


def test_exhaustive_axioms_refuse_q243_before_allocating():
    P = ShiftPlane(planar.square(gf.split_new(gf.field_new(3, 10), 5)))
    assert P.n_points > plane_mod.EXHAUSTIVE_MAX_POINTS
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match="use sampled mode"):
            P.verify_projective_plane()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


# -- difference solver ------------------------------------------------------------

def _reference_difference_rows(P, c, d):
    """The per-pair row builder the distinct-difference solver replaced:
    row i marks the u in F with f(u + c[i]) = d[i] + f(u)."""
    U = np.arange(P.N, dtype=np.int64)
    for idx in plane_mod.id_batches(len(c), P.N):
        yield idx, (P.f[P.ctx.add(c[idx, None], U)] == P.ctx.add(d[idx, None], P.f))


def _check_difference_solutions(P, c, d):
    counts, sols = P._difference_solutions(c, d)
    ref_counts = np.empty(len(c), dtype=np.int64)
    ref_sols = np.empty(len(c), dtype=np.int64)
    for idx, hits in _reference_difference_rows(P, c, d):
        ref_counts[idx] = hits.sum(axis=1)
        ref_sols[idx] = np.argmax(hits, axis=1)
    assert np.array_equal(counts, ref_counts)
    unique = counts == 1
    assert np.array_equal(sols[unique], ref_sols[unique])
    return counts


def _difference_batches(N, seed):
    """Seeded (c, d) batches: spread c, many repeats of few c, and c = 0."""
    rng = np.random.default_rng([seed, N])
    spread = rng.integers(0, N, (2, 3000))
    few = np.stack([rng.choice(rng.integers(0, N, 4), 3000), rng.integers(0, N, 3000)])
    zero = np.stack([np.zeros(200, dtype=np.int64), rng.integers(0, N, 200)])
    mixed = np.concatenate([spread, few, zero], axis=1)
    return [spread, few, zero, mixed[:, rng.permutation(mixed.shape[1])],
            np.zeros((2, 0), dtype=np.int64)]


@pytest.mark.parametrize("spec", ["square", "cm:k=3", "albert:k=2"])
def test_difference_solutions_match_rows(spec, s9, s81, s729):
    split = {"square": s9, "cm:k=3": s81, "albert:k=2": s729}[spec]
    P = ShiftPlane(planar.parse_spec(split, spec))
    for seed in range(2):
        for c, d in _difference_batches(P.N, seed):
            counts = _check_difference_solutions(P, c, d)
            # a planar f: one solution unless c = 0, where d = 0 gives N
            assert np.array_equal(counts, np.where(c != 0, 1, np.where(d == 0, P.N, 0)))


def test_difference_solutions_match_rows_non_planar(s9, s81):
    counts = np.concatenate([_check_difference_solutions(P, c, d)
                             for P in _non_planar_planes(s9, s81)
                             for seed in range(2)
                             for c, d in _difference_batches(P.N, seed)])
    assert set(np.unique(counts).tolist()) > {0, 1, 2}


# -- sampled flags ------------------------------------------------------------------

def _reference_flag_draws(n_lines, N, rng, trials):
    """The per-trial loop the one-call draw replaced: a line, then a position."""
    lids = np.empty(trials, dtype=np.int64)
    cols = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        lids[t] = rng.integers(0, n_lines)
        cols[t] = rng.integers(0, N + 1)
    return lids, cols


def _reference_sample_flags(self, rng, trials):
    lids, cols = _reference_flag_draws(self.n_lines, self.N, rng, trials)
    return self.points_at(lids, cols), lids


def _albert27(s729):
    return ShiftPlane(planar.parse_spec(s729, "albert:k=2"))


@pytest.mark.parametrize("which", ["square-q3", "cm-q9", "albert-q27", "bounds-3^10"])
def test_sample_flags_match_per_trial_loop(which, plane_q3, plane_cm81, s729):
    if which == "bounds-3^10":
        # the draw alone at the F_3^10 plane's bounds, N^2 + N + 1 > 2^31
        N = 3 ** 10
        P = SimpleNamespace(N=N, n_lines=N * N + N + 1,
                            points_at=lambda lids, cols: lids * (N + 1) + cols)
    else:
        P = {"square-q3": plane_q3, "cm-q9": plane_cm81}.get(which) or _albert27(s729)
    for seed in range(4):
        for trials in (1, 7, 20000):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            pids, lids = ShiftPlane.sample_flags(P, rng, trials)
            ref_pids, ref_lids = _reference_sample_flags(P, ref_rng, trials)
            assert np.array_equal(lids, ref_lids) and np.array_equal(pids, ref_pids)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
    if isinstance(P, ShiftPlane):
        pids, lids = P.sample_flags(np.random.default_rng(0), 500)
        assert P.incident_many(pids, lids).all()


def test_sampled_reports_match_per_trial_loop_albert27(s729, monkeypatch):
    from unitalforge import unital as un

    P = _albert27(s729)
    kappa = un.InvolutionSpec("frobq")
    g = Sigma(P, 5, 11, 7)

    def reports():
        return [(_sampled(P, g, seed), un.verify_polarity(P, kappa, seed=seed))
                for seed in range(4)]

    new = reports()
    monkeypatch.setattr(ShiftPlane, "sample_flags", _reference_sample_flags)
    assert new == reports()
    assert new[0] == ((None, 20000), un.PolarityReport(True, "sampled", 27 ** 3 + 1, 20000))


# -- properties of the collineations ----------------------------------------------

def _collineation_planes(s9, s25, s81):
    """Power maps with and without the Dembowski-Ostrom property, and a
    Dembowski-Ostrom plane that is no power map."""
    return [ShiftPlane(planar.square(s9)), ShiftPlane(planar.coulter_matthews(s9, 3)),
            ShiftPlane(planar.square(s25)), ShiftPlane(planar.dickson(s81, 1)),
            ShiftPlane(planar.coulter_matthews(s81, 3))]


@settings(max_examples=20, deadline=None)
@given(which=st.integers(0, 4), kind=st.sampled_from(["shift", "gamma", "sigma"]),
       params=st.tuples(*[st.integers(0, 10 ** 6)] * 3))
def test_collineations_preserve_incidence(which, kind, params, s9, s25, s81):
    P = _collineation_planes(s9, s25, s81)[which]
    assume(kind != "gamma" or P.spec.is_power_map)
    assume(kind != "sigma" or P.spec.is_dembowski_ostrom)
    u, v, w = (x % P.N for x in params)
    g = {"shift": lambda: Shift(P, u, v), "gamma": lambda: Gamma(P, 1 + u % (P.N - 1), v),
         "sigma": lambda: Sigma(P, u, v, w)}[kind]()
    assert verify_collineation(P, g)
    # a bijection of points and of lines, and a scalar ID maps as in the array
    for apply, ids in ((g.apply_point, P.point_ids()), (g.apply_line, P.line_ids())):
        images = apply(ids)
        assert np.array_equal(np.sort(images), ids)
        scalar = [apply(i) for i in ids.tolist()]
        assert all(type(x) is int for x in scalar) and scalar == images.tolist()


@settings(max_examples=30, deadline=None)
@given(field=st.integers(0, 2), kind=st.sampled_from([Shift, Sigma]),
       params=st.lists(st.tuples(*[st.integers(0, 10 ** 6)] * 3), min_size=1, max_size=6),
       ids=st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=50))
def test_array_parameters_match_scalar_elements(field, kind, params, ids, s9, s25, s81):
    # parameters of shape (E, 1) give, row by row, the images under the E
    # scalar elements, for every kind of point and line ID
    P = ShiftPlane(planar.square((s9, s25, s81)[field]))
    E = np.array(params, dtype=np.int64)[:, :2 if kind is Shift else 3] % P.N
    batch = kind(P, *(E[:, [i]] for i in range(E.shape[1])))
    for apply, size in (("apply_point", P.n_points), ("apply_line", P.n_lines)):
        xs = np.concatenate([np.array(ids) % size, [0, P.N ** 2, size - 1]])
        table = getattr(batch, apply)(xs)
        assert table.shape == (len(E), len(xs))
        for row, e in zip(table, E.tolist()):
            assert row.tolist() == getattr(kind(P, *e), apply)(xs).tolist()


def _where_glue(g, ids, pair_map, far_map):
    """The images of ids by two nested np.where over full-size arrays, the
    far (slope or vertical) map evaluated on every ID: the former glue."""
    N, NN, last = g.plane.N, g.plane.N ** 2, g.plane.n_points - 1
    ids = np.asarray(ids, dtype=np.int64)
    hi, lo = np.divmod(ids, N)
    hi2, lo2 = pair_map(np.minimum(hi, N - 1), lo)
    out = np.where(ids < NN, np.asarray(hi2) * N + lo2,
                   np.where(ids < last, NN + np.asarray(far_map(lo)), ids))
    return int(out) if out.ndim == 0 else out


def _where_point(g, ids):
    return _where_glue(g, ids, g._affine_map, g._slope_map)


def _where_line(g, ids):
    return _where_glue(g, ids, g._shifted_map, g._vertical_map)


class _RandomTables(plane_mod._TableMap):
    def __init__(self, plane, rng):
        self.plane = plane
        self._tables = (rng.permutation(plane.N), rng.permutation(plane.N))


def _glue_cases(P, rng):
    """Maps of every family with scalar and with (E, 1) and (E, 1, 1)
    parameters, and ID batches with and without far IDs."""
    N, NN, last = P.N, P.N ** 2, P.n_points - 1
    u, v, w = (int(x) for x in rng.integers(0, N, 3))
    c = rng.integers(0, N, (5, 1))
    maps = [Shift(P, u, v), Sigma(P, u, v, w), Gamma(P, 1 + u % (N - 1), 1),
            _RandomTables(P, rng), Shift(P, c, v), Sigma(P, u, c, c[::-1]),
            Shift(P, c[:, :, None], c[:, :, None])]
    every = np.arange(P.n_points, dtype=np.int64)
    batches = [every, every[:NN], every[NN:], every[NN:last], np.array([last]),
               rng.permutation(every)[:40], rng.integers(0, P.n_points, (6, 9)),
               rng.integers(0, P.n_points, (9, 6)).T, every[NN - 3:].reshape(-1, 1),
               0, NN + 2, last, np.int64(NN)]
    return maps, batches


@pytest.mark.parametrize("which", ["square-q3", "square-q5"])
def test_apply_matches_where_glue(which, plane_q3, plane_q5):
    P = {"square-q3": plane_q3, "square-q5": plane_q5}[which]
    rng = np.random.default_rng([13, P.N])
    maps, batches = _glue_cases(P, rng)
    for g in maps:
        for ids in batches:
            try:
                np.broadcast_shapes(*(np.shape(getattr(g, k, 0)) for k in "uvw"),
                                    np.shape(ids))
            except ValueError:
                continue
            for new, old in ((g.apply_point, _where_point), (g.apply_line, _where_line)):
                got, want = new(ids), old(g, ids)
                assert type(got) is type(want) and np.shape(got) == np.shape(want)
                assert np.array_equal(got, want), (g, ids)
        # parameters that vary along the axes of 2-D IDs: (E, 1) against (E, P)
        if np.ndim(getattr(g, "u", 0)) == 2 and np.shape(g.u)[-1] == 1:
            ids = rng.integers(0, P.n_points, (len(g.u), 30))
            ids[:, :3] = [P.N ** 2, P.N ** 2 + 1, P.n_points - 1]
            for new, old in ((g.apply_point, _where_point), (g.apply_line, _where_line)):
                assert np.array_equal(new(ids), old(g, ids))


def test_apply_allocates_no_more_than_where_glue(plane_q3):
    # the shape of the batches that fill verify_sigma_composition's image
    # table: (rows, N^2 + N) images of the affine and slope points under
    # Sigma of (rows, 1) parameters
    P = plane_q3
    n3 = P.N ** 3
    rows = next(plane_mod.id_batches(n3, P.N ** 2 + P.N))
    u, v, w = np.unravel_index(rows, (P.N,) * 3)
    g = Sigma(P, u[:, None], v[:, None], w[:, None])
    pids = np.arange(P.N ** 2 + P.N)

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert np.array_equal(g.apply_point(pids), _where_point(g, pids))
    new = min(peak(lambda: g.apply_point(pids)) for _ in range(3))
    old = min(peak(lambda: _where_point(g, pids)) for _ in range(3))
    assert new <= old, (new, old)


# -- properties of the batch routines ---------------------------------------------

def _property_planes(s9, s25, s81):
    return [ShiftPlane(planar.square(s9)), ShiftPlane(planar.square(s25)),
            ShiftPlane(planar.coulter_matthews(s81, 3))]


_ID_PAIRS = st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
                     min_size=1, max_size=60)


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, 2), pairs=_ID_PAIRS)
def test_line_through_many_is_incident_with_both(which, pairs, s9, s25, s81):
    P = _property_planes(s9, s25, s81)[which]
    p1, p2 = (np.array(v, dtype=np.int64) % P.n_points for v in zip(*pairs))
    p2 = np.where(p1 == p2, (p2 + 1) % P.n_points, p2)
    lids = P.line_through_many(p1, p2)
    assert P.incident_many(p1, lids).all() and P.incident_many(p2, lids).all()


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, 2), pairs=_ID_PAIRS)
def test_meet_counts_match_point_rows(which, pairs, s9, s25, s81):
    P = _property_planes(s9, s25, s81)[which]
    l1, l2 = (np.array(v, dtype=np.int64) % P.n_lines for v in zip(*pairs))
    l2 = np.where(l1 == l2, (l2 + 1) % P.n_lines, l2)
    expect = [len(np.intersect1d(P.points_on_line(a), P.points_on_line(b)))
              for a, b in zip(l1.tolist(), l2.tolist())]
    assert P._joins(l1, l2)[0].tolist() == expect == [1] * len(expect)
