import hashlib
import io
import json
import time
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from unitalforge import analysis as an, gf, planar, plane as plane_mod, unital as un
from unitalforge.errors import (
    MAX_TRIALS,
    ConditionAFailed,
    ConditionBFailed,
    ConditionCFailed,
    CountViolation,
    HypothesisFailed,
    IntersectionViolation,
    InvalidPointSet,
    NotInjective,
    PairCoverageViolation,
    NotPolarity,
    ProvenanceMismatch,
    UsageError,
    ZeroTheta,
)
from unitalforge.plane import Gamma, Shift, ShiftPlane, id_batches


# -- hypothesis and construction ---------------------------------------------

def test_hypothesis_holds_for_chosen_theta(plane_q3):
    ok, hist = un.check_parabolic_hypothesis(plane_q3, plane_q3.split.choose_theta())
    assert ok
    assert hist[0] == 1 and all(v == 4 for c, v in hist.items() if c != 0)


def test_hypothesis_fails_for_theta_one(plane_q3):
    # theta = 1 has square norm, so some fiber deviates from q+1
    ok, hist = un.check_parabolic_hypothesis(plane_q3, 1)
    assert not ok
    assert any(v not in (1, 4) for v in hist.values())


def test_hypothesis_rejects_zero(plane_q3):
    with pytest.raises(ZeroTheta):
        un.check_parabolic_hypothesis(plane_q3, 0)


def test_build_fails_on_bad_theta(plane_q3):
    with pytest.raises(HypothesisFailed):
        un.build_parabolic_unital(plane_q3, 1)


def test_unital_sizes(unital_q3, unital_q5, unital_cm81):
    assert len(unital_q3.points) == 28       # q^3 + 1, q = 3
    assert len(unital_q5.points) == 126
    assert len(unital_cm81.points) == 730
    assert unital_q3.plane.infinity_id in unital_q3.points
    # (0, 0) is the t = 0 point over x = 0
    assert 0 in unital_q3.points


def test_bh_hypothesis_theta_xi(s729):
    plane = ShiftPlane(planar.budaghyan_helleseth(s729, 2))
    ok, _ = un.check_parabolic_hypothesis(plane, s729.xi)
    assert ok


def test_hypothesis_failure_names_every_wrong_fiber(s9):
    # x^2 + x at q=3 swaps the counts: 0 is hit 4 times and 2 once
    plane = ShiftPlane(planar.custom(s9, [(2, 1), (1, 1)]))
    ok, hist = un.check_parabolic_hypothesis(plane, s9.choose_theta())
    assert ok is False and hist == {0: 4, 1: 4, 2: 1}
    with pytest.raises(HypothesisFailed) as err:
        un.build_parabolic_unital(plane, s9.choose_theta())
    assert str(err.value) == "fiber histogram violates {1, q+1}: {0: 4, 2: 1}"
    ok, _ = un.check_parabolic_hypothesis(ShiftPlane(planar.square(s9)), s9.choose_theta())
    assert ok is True


# -- general (data-driven) construction ----------------------------------------

def test_general_reduces_to_parabolic(plane_q3, unital_q3):
    ys = un.parabolic_y_values(plane_q3, unital_q3.theta)
    g_table = np.tile(ys, (9, 1))
    u = un.build_general_unital(plane_q3, g_table)
    assert np.array_equal(u.points, unital_q3.points)


def test_general_rejects_subfield_line(plane_q3):
    # g_x(t) = t is the theta = 1 case and violates the solution counts
    g_table = np.tile(np.sort(plane_q3.split.sub_elements), (9, 1))
    with pytest.raises(CountViolation) as err:
        un.build_general_unital(plane_q3, g_table)
    assert (err.value.a, err.value.b, err.value.count) == (0, 0, 5)


def test_general_accepts_shifted_values(plane_q3, unital_q3):
    # g_x(t) = t*theta + c is the translate of the parabolic set by (0, c)
    f9 = plane_q3.ctx
    ys = un.parabolic_y_values(plane_q3, unital_q3.theta)
    g_table = np.sort(np.asarray(f9.add(np.tile(ys, (9, 1)), 5)), axis=1)
    u = un.build_general_unital(plane_q3, g_table)
    rep = un.verify_unital_embedded(u)
    assert rep.passed
    translated = np.sort(np.asarray(Shift(plane_q3, 0, 5).apply_point(unital_q3.points)))
    assert np.array_equal(u.points, translated)


def test_general_rejects_noninjective(plane_q3):
    g_table = np.zeros((9, 3), dtype=np.int64)
    with pytest.raises(NotInjective, match="g_0 "):
        un.build_general_unital(plane_q3, g_table)
    g_table = np.tile(np.arange(3), (9, 1))
    g_table[4, 2] = g_table[6, 0] = 1
    with pytest.raises(NotInjective, match="g_4 "):
        un.build_general_unital(plane_q3, g_table)


@pytest.mark.parametrize("bad", [-1, 9])
def test_general_rejects_entries_outside_the_field(plane_q3, bad):
    g_table = np.tile(np.arange(3), (9, 1))
    g_table[5, 1] = bad
    with pytest.raises(ValueError, match=r"entries in \[0, 9\)"):
        un.build_general_unital(plane_q3, g_table)


def _reference_solution_counts(plane, g_table):
    """The former (a, b) loop of build_general_unital: the first (a, b),
    row-major, whose solution count is not 1 or q+1, else None."""
    ctx, N, q = plane.ctx, plane.N, plane.split.sub_size
    member = np.zeros((N, N), dtype=bool)
    member[np.repeat(np.arange(N), q), g_table.ravel()] = True
    X = np.arange(N, dtype=np.int64)
    for a in range(N):
        fs = ctx.translate(plane.f, a)
        for b in range(N):
            count = int(member[X, np.asarray(ctx.sub(fs, b))].sum())
            if count not in (1, q + 1):
                return a, b, count
    return None


@pytest.mark.parametrize("q", [3, 5])
def test_general_counts_match_former_loop(q, plane_q3, plane_q5):
    plane = {3: plane_q3, 5: plane_q5}[q]
    N = plane.N
    good = np.tile(un.parabolic_y_values(plane, plane.split.choose_theta()), (N, 1))
    moved = good.copy()
    moved[N - 1, 0] = (moved[N - 1, 0] + 1) % N
    rng = np.random.default_rng(0)
    tables = [good, moved, good[:, ::-1]] + [
        np.array([rng.permutation(N)[:q] for _ in range(N)]) for _ in range(3)]
    for g_table in tables:
        expected = _reference_solution_counts(plane, g_table)
        if expected is None:
            assert un.build_general_unital(plane, g_table).checks[0].status == "pass"
        else:
            with pytest.raises(CountViolation) as err:
                un.build_general_unital(plane, g_table)
            assert (err.value.a, err.value.b, err.value.count) == expected


# -- certification ---------------------------------------------------------------

def test_embedded_q3(unital_q3):
    rep = un.verify_unital_embedded(unital_q3)
    assert rep.passed
    assert rep.secant_count == 63 and rep.tangent_count == 28
    assert rep.tangents_per_point_ok


def test_at_infinity_is_tangent_at_infinity(unital_q3):
    plane = unital_q3.plane
    sec = unital_q3.line_section(plane.at_infinity_id)
    assert list(sec) == [plane.infinity_id]


def test_verticals_are_secant(unital_q3):
    plane = unital_q3.plane
    verticals = [plane.vertical_id(a) for a in range(9)]
    assert unital_q3.line_counts(verticals).tolist() == [4] * 9


def test_tangency_characterization(unital_q3):
    plane, theta = unital_q3.plane, unital_q3.theta
    counts = un.line_intersection_counts(unital_q3)
    for a in range(9):
        for b in range(9):
            lid = plane.shifted_id(a, b)
            is_tangent = counts[lid] == 1
            assert is_tangent == (int(un.beta_of(plane, theta, b)) == 0)


def test_design_q3_q5(unital_q3, unital_q5):
    rep3 = un.verify_design(unital_q3)
    assert rep3.passed and rep3.point_count == 28 and rep3.block_count == 63
    assert rep3.pairs_covered == 28 * 27 // 2 == 378
    rep5 = un.verify_design(unital_q5)
    assert rep5.passed and rep5.point_count == 126 and rep5.block_count == 525


def _design_unitals(plane):
    return (un.build_parabolic_unital(plane, plane.split.choose_theta()),
            un.build_polarity_unital(plane, un.InvolutionSpec("frobq")),
            _translated_general(plane, 2))


def test_block_sizes_and_replication(plane_q3, plane_q5):
    for u in _design_unitals(plane_q3) + _design_unitals(plane_q5):
        q, blocks = u.q, u.blocks
        assert blocks.dtype == np.int64
        assert blocks.shape == (q ** 4 - q ** 3 + q ** 2, q + 1)
        for row, lid in zip(blocks, u.secant_line_ids):
            assert np.array_equal(row, np.searchsorted(u.points, u.line_section(int(lid))))
        assert np.all(np.diff(blocks, axis=1) > 0)
        # replication number q^2
        assert np.all(np.bincount(blocks.ravel(), minlength=len(u.points)) == q * q)
        assert an.DesignIndex(u).block_points is u.blocks


def test_line_count_matches_section(unital_cm81):
    plane = unital_cm81.plane
    rng = np.random.default_rng(0)
    lids = rng.integers(0, plane.n_lines, 200)
    assert unital_cm81.line_counts(lids).tolist() == [
        len(unital_cm81.line_section(int(lid))) for lid in lids]


def _swap_block_points(blocks):
    """The table with one point of block 0 exchanged for a point of another
    block: block count and replication stay, pair coverage breaks."""
    blocks = blocks.copy()
    x = int(blocks[0, 0])
    k = next(k for k, row in enumerate(blocks) if x not in row
             and not set(row.tolist()) & set(blocks[0, 1:].tolist()))
    blocks[0, 0], blocks[k, 0] = blocks[k, 0], x
    blocks.sort(axis=1)
    return blocks


def _replace_block_point(blocks):
    """The table with one point of block 0 replaced by a point outside it:
    replications become q^2 - 1, q^2 and q^2 + 1."""
    blocks = blocks.copy()
    blocks[0, 0] = next(p for p in range(blocks.max() + 1) if p not in blocks[0])
    blocks.sort(axis=1)
    return blocks


@pytest.mark.parametrize("q", [3, 5])
def test_design_rejects_tampered_tables(q, plane_q3, plane_q5):
    plane = {3: plane_q3, 5: plane_q5}[q]
    for tamper in (_swap_block_points, _replace_block_point):
        u = un.build_parabolic_unital(plane, plane.split.choose_theta())
        u.blocks = tamper(u.blocks)
        replication = np.bincount(u.blocks.ravel(), minlength=len(u.points))
        assert (replication == q * q).all() == (tamper is _swap_block_points)
        with pytest.raises(PairCoverageViolation) as err:
            un.verify_design(u)
        assert err.value.count == 2
        assert [c.name for c in u.checks] == ["parabolic-hypothesis"]
    with pytest.raises(UsageError, match="mode must be one of exhaustive, got 'sampled'"):
        un.verify_design(u, mode="sampled")


def test_design_refuses_q27_before_allocating(s729):
    plane = ShiftPlane(planar.albert(s729, 2))
    u = un.build_parabolic_unital(plane, s729.choose_theta())
    assert len(u.points) ** 2 > un.DESIGN_MAX_PAIR_CODES >= 730 ** 2     # q = 27, q = 9
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(UsageError, match="codes, got 387459856 at q = 27"):
            un.verify_design(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 100 * 2 ** 20
    assert "blocks" not in u.__dict__


def test_line_pass_refuses_q81_before_allocating():
    # 8 bytes per line: 111 MB at q = 61, 161 MB at q = 67, 344 MB at q = 81
    assert 8 * (61 ** 4 + 61 ** 2 + 1) <= un.LINE_PASS_MAX_BYTES < 8 * (67 ** 4 + 67 ** 2 + 1)
    s = gf.split_new(gf.field_new(3, 8), 4)
    u = un.build_parabolic_unital(ShiftPlane(planar.square(s)), s.choose_theta())
    calls = (lambda u: un.verify_unital_embedded(u, mode="exhaustive"),
             un.line_intersection_counts, un.dual_unital)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        for call in calls:
            with pytest.raises(UsageError, match="line counts, got 344426264 at q = 81"):
                call(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 100 * 2 ** 20
    assert "translation_group" not in u.__dict__ and len(u.checks) == 1   # the build's own


# -- polarities -------------------------------------------------------------------

def test_polarity_square_q3(plane_q3):
    rep = un.verify_polarity(plane_q3, un.InvolutionSpec("frobq"))
    assert rep.passed and rep.absolute_points == 28



@pytest.mark.parametrize("kind", ["frobq", "conjxi"])
@pytest.mark.parametrize("which", ["square-q3", "square-q5", "cm-q9", "albert-q27"])
def test_correlation_squared_is_identity(kind, which, plane_q3, plane_q5, plane_cm81,
                                         s729):
    planes = {"square-q3": plane_q3, "square-q5": plane_q5, "cm-q9": plane_cm81}
    plane = planes[which] if which in planes else ShiftPlane(planar.albert(s729, 2))
    bar = un.InvolutionSpec(kind).table(plane)
    rho = un._Polarity(plane, bar)
    ids = np.arange(plane.n_points, dtype=np.int64)       # every point and line ID
    image = rho.apply_point(ids)
    # (x, y) <-> L(bar x, bar y), (a) <-> V(bar a), inf <-> L_inf
    N, NN = plane.N, plane.N ** 2
    x, y = np.divmod(ids[:NN], N)
    assert np.array_equal(image, np.concatenate([bar[x] * N + bar[y], NN + bar,
                                                 [plane.infinity_id]]))
    assert not np.array_equal(image, ids)
    assert np.array_equal(rho.apply_line(image), ids)
    assert np.array_equal(rho.apply_line(ids), image)     # one map on both kinds


def test_conjxi_involution_table(s9):
    kappa = un.InvolutionSpec("conjxi")
    plane = ShiftPlane(planar.square(s9))
    bar = kappa.table(plane)
    f9 = s9.ctx
    # x0 + x1 xi -> x0 - x1 xi, twice is the identity
    assert np.array_equal(bar[bar], np.arange(9))
    x0, x1 = s9.decompose(np.arange(9))
    assert np.array_equal(bar, np.asarray(s9.recompose(x0, f9.neg(x1))))


def test_conjxi_equals_frobq_on_canonical_split(plane_cm81):
    # with xi^q = -xi the coordinate conjugation IS the q-power map
    t1 = un.InvolutionSpec("frobq").table(plane_cm81)
    t2 = un.InvolutionSpec("conjxi").table(plane_cm81)
    assert np.array_equal(t1, t2)


def test_polarity_rejects_non_involution(plane_q3, monkeypatch):
    # a 3-cycle squares to its inverse, so condition (a) refuses it
    def cycled(self, plane):
        table = np.arange(plane.N)
        table[[1, 2, 3]] = 2, 3, 1
        return table

    monkeypatch.setattr(un.InvolutionSpec, "table", cycled)
    with pytest.raises(ConditionAFailed, match="frobq is not an involution"):
        un.verify_polarity(plane_q3, un.InvolutionSpec("frobq"))


def test_polarity_commutation_rejected_for_bh(s729):
    # the xi-term of the BH function breaks commutation with conjugation
    plane = ShiftPlane(planar.budaghyan_helleseth(s729, 2))
    with pytest.raises(ConditionBFailed):
        un.verify_polarity(plane, un.InvolutionSpec("frobq"))


def test_polarity_unital_fiber_at_zero(plane_q3, polarity_q3):
    # points (0, y) of the absolute set have y + conj(y) = f(0) = 0: q of them
    ys = [int(p) % 9 for p in polarity_q3.points
          if p < 81 and p // 9 == 0]
    assert len(ys) == 3
    split = plane_q3.split
    for y in ys:
        assert int(split.trace(y)) == 0


def test_polarity_unital_certifies(polarity_q3):
    assert len(polarity_q3.points) == 28
    assert un.verify_unital_embedded(polarity_q3).passed
    assert un.verify_design(polarity_q3).passed


def test_classical_baseline(classical_q3):
    assert len(classical_q3.points) == 28
    rep = un.verify_design(classical_q3)
    assert rep.passed and rep.block_count == 63


def test_cm_polarity(plane_cm81):
    rep = un.verify_polarity(plane_cm81, un.InvolutionSpec("frobq"))
    assert rep.passed and rep.absolute_points == 730


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_polarity_witness_is_first_unreversed_flag(mode, plane_q3, monkeypatch):
    # flags on L(2, 5) and V(4) are not reversed: the witness is the first
    # flag on either line, lines ascending then points, or in sample order
    P, kappa = plane_q3, un.InvolutionSpec("frobq")
    lines = [P.shifted_id(2, 5), P.vertical_id(4)]
    if mode == "exhaustive":
        # the correlation sends both lines to infinity, which lies on no
        # image of their affine points.  The fault sits in the map: faults
        # in incident_many itself are not reachable, since translations
        # keep the incidence equation, and the proof by them rests on that
        real = un._check_flags

        class Faulty:
            def __init__(self, g):
                self.apply_point, self._real_line = g.apply_point, g.apply_line

            def apply_line(self, ids):
                return np.where(np.isin(ids, lines), P.infinity_id, self._real_line(ids))

        def faulty(plane, g, *rest):
            return real(plane, Faulty(g), *rest)

        monkeypatch.setattr(un, "_check_flags", faulty)
        flag = (int(P.points_on_line(lines[0])[0]), lines[0])
    else:
        # incidences with the images of the two lines read False; the
        # images of the lines are the second argument of incident_many
        bar = kappa.table(P)
        images = [P.affine_id(int(bar[2]), int(bar[5])), P.slope_id(int(bar[4]))]
        real = ShiftPlane.incident_many
        monkeypatch.setattr(ShiftPlane, "incident_many",
                            lambda self, p, l: real(self, p, l) & ~np.isin(l, images))
        pids, lids = P.sample_flags(np.random.default_rng(4), 300)
        k = int(np.argmax(np.isin(lids, lines)))
        flag = (int(pids[k]), int(lids[k]))
    with pytest.raises(NotPolarity, match=rf"not reversed at \({flag[0]}, {flag[1]}\)"):
        un.verify_polarity(P, kappa, mode=mode, seed=4, trials=300)


@pytest.mark.parametrize("kind", ["frobq", "conjxi"])
@pytest.mark.parametrize("which", ["square-q3", "square-q5", "cm-q9", "dickson-q9"])
def test_exhaustive_polarity_matches_sweep(kind, which, plane_q3, plane_q5, plane_cm81,
                                           s81):
    planes = {"square-q3": plane_q3, "square-q5": plane_q5, "cm-q9": plane_cm81}
    P = planes[which] if which in planes else ShiftPlane(planar.dickson(s81, 1))
    kappa = un.InvolutionSpec(kind)
    rho = un._Polarity(P, kappa.table(P))

    def reversed_incident(pids, lids):
        return P.incident_many(rho.apply_line(lids), rho.apply_point(pids))

    flag, checked = plane_mod._first_failing_flag(P, reversed_incident, "exhaustive", 0, 1)
    assert flag is None
    reference = un.PolarityReport(True, "exhaustive",
                                  len(un.absolute_point_ids(P, kappa)), checked)
    assert un.verify_polarity(P, kappa) == reference
    assert un.verify_polarity(P, kappa, mode="exhaustive") == reference


@given(st.lists(st.integers(0, 4), max_size=12), st.lists(st.integers(0, 5), max_size=12))
@example([], [])
@example([], [2, 0])
@example([1, 3, 1], [])
@example([3, 3, 3], [3, 0, 3])           # one full fibre, hit twice, and an empty one
@settings(max_examples=200, deadline=None)
def test_trace_fibres_equal_the_equality_table(tr, values):
    tr, values = np.array(tr, dtype=np.int64), np.array(values, dtype=np.int64)
    xs, ys = np.nonzero(values[:, None] == tr)
    got, counts = un.trace_fibres(tr, values)
    assert got.tolist() == ys.tolist()
    assert counts.tolist() == np.bincount(xs, minlength=len(values)).tolist()


@pytest.mark.parametrize("kind, which", [
    ("frobq", "square-q3"), ("frobq", "square-q5"), ("frobq", "cm-q9"),
    ("frobq", "albert-q27"), ("conjxi", "dickson-F_5^4")])
def test_polarity_points_equal_the_equality_table(kind, which, plane_q3, plane_q5,
                                                  plane_cm81, s729):
    planes = {"square-q3": plane_q3, "square-q5": plane_q5, "cm-q9": plane_cm81}
    P = planes.get(which) or ShiftPlane(
        planar.albert(s729, 2) if which == "albert-q27"
        else planar.dickson(gf.split_new(gf.field_new(5, 4), 2), 1))
    kappa, N = un.InvolutionSpec(kind), P.N
    tr = np.asarray(P.ctx.add(np.arange(N), kappa.table(P)))     # y + conj(y)
    xs, ys = np.nonzero(P.f[tr][:, None] == tr)                  # the N x N route
    points = un.absolute_point_ids(P, kappa)
    assert points.dtype == P.id_dtype
    assert points.tolist() == (xs * N + ys).tolist() + [P.infinity_id]


def test_verify_polarity_counts_fibres_without_listing_them():
    # listing the (N, q) fibre table only to count it peaked at 30.6 MiB
    split = gf.split_new(gf.field_new(5, 6), 3)
    P, kappa = ShiftPlane(planar.zhou_pott(split, 1, 1)), un.InvolutionSpec("frobq")
    kappa.table(P)                                  # builds the cached frobq table
    tracemalloc.start()
    try:
        rep = un.verify_polarity(P, kappa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.mode, rep.absolute_points) == ("sampled", 125 ** 3 + 1)
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("d, where", [(1, "x=0 is 1"), (5, "x=0 is 5"), (7, "x=1 is 1")])
def test_condition_c_names_the_first_uneven_fibre(d, where, plane_q3, monkeypatch):
    # x -> x^d on F_9 is an involution commuting with the square map for d
    # = 1, 3, 5, 7; only d = 3, frobq, gives every trace fibre q points
    table = np.array([0] + [int(plane_q3.ctx.pow(x, d)) for x in range(1, 9)])
    monkeypatch.setattr(un.InvolutionSpec, "table", lambda self, plane: table)
    for call in (un.verify_polarity, un.absolute_point_ids):
        with pytest.raises(ConditionCFailed, match=f"^fiber count at {where}$"):
            call(plane_q3, un.InvolutionSpec("frobq"))


def test_unknown_involution_kind_is_a_usage_error():
    with pytest.raises(UsageError, match="unknown involution kind 'bogus'"):
        un.InvolutionSpec("bogus")


@pytest.mark.parametrize("trials", [0, -2])
def test_sampled_polarity_needs_a_trial(trials, plane_q3):
    with pytest.raises(UsageError, match="at least 1 trial"):
        un.verify_polarity(plane_q3, un.InvolutionSpec("frobq"), mode="sampled",
                           trials=trials)


@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 2 ** 64])
def test_sampled_checks_refuse_trials_past_the_ceiling(trials, plane_q3, unital_q3):
    # 2^64 reached numpy as an array size and ended in its ValueError
    for check in (lambda: planar.check_planarity(plane_q3.spec, "sampled", trials),
                  lambda: plane_q3.verify_projective_plane("sampled", trials=trials),
                  lambda: un.verify_unital_embedded(unital_q3, mode="sampled",
                                                    trials=trials),
                  lambda: un.verify_polarity(plane_q3, un.InvolutionSpec("frobq"),
                                             mode="sampled", trials=trials)):
        with pytest.raises(UsageError, match=f"at most {MAX_TRIALS} trials"):
            check()


def test_unknown_polarity_mode_is_a_usage_error(plane_q3):
    # a misspelt mode used to run the sampled check and report mode='bogus'
    with pytest.raises(UsageError, match="mode must be one of"):
        un.verify_polarity(plane_q3, un.InvolutionSpec("frobq"), mode="bogus")


# -- duality, ovals, scaling orbits --------------------------------------------

def test_dual_switch_fixes_parabolic(unital_q3, unital_q5):
    for u in (unital_q3, unital_q5):
        dual, wit = un.dual_unital(u)
        assert np.array_equal(dual.points, u.points)
        assert wit["tangent_lines"] == len(u.points)
        # the switch is an involution: the dual of the dual is the original
        dual2, _ = un.dual_unital(dual)
        assert np.array_equal(dual2.points, u.points)


def test_tangent_lines_are_parabolic_lines(unital_q3):
    plane, theta = unital_q3.plane, unital_q3.theta
    tl = set(int(t) for t in un.tangent_line_ids(unital_q3))
    expected = {plane.at_infinity_id}
    for x in range(9):
        for y in un.parabolic_y_values(plane, theta):
            expected.add(plane.shifted_id(x, int(y)))
    assert tl == expected


def test_ovals_decomposition(unital_q3):
    ovals = un.ovals_decomposition(unital_q3)
    assert len(ovals) == 3 and all(len(o) == 10 for o in ovals)
    inf = unital_q3.plane.infinity_id
    for i in range(3):
        for j in range(i + 1, 3):
            assert set(map(int, ovals[i])) & set(map(int, ovals[j])) == {inf}
    union = set()
    for o in ovals:
        union.update(map(int, o))
    assert union == set(map(int, unital_q3.points))


def test_oval_meets_vertical_twice(unital_q3):
    plane = unital_q3.plane
    ovals = un.ovals_decomposition(unital_q3)
    mask = np.zeros(plane.n_points, dtype=bool)
    mask[ovals[1]] = True
    for a in range(9):
        pts = plane.points_on_line(plane.vertical_id(a))
        assert int(mask[pts].sum()) == 2


def test_gamma_orbit_single_class(plane_q3):
    split = plane_q3.split
    idx = np.arange(9)
    norms = np.asarray(split.norm(idx))
    thetas = [int(t) for t in idx if t and split.sub_eta(int(norms[t])) == -1]
    assert len(thetas) == 4
    classes = un.gamma_orbit_partition(plane_q3, thetas)
    assert classes == [sorted(thetas)]


def _gamma_classes_by_union_find(plane, thetas):
    """Reference: merge theta and theta2 whenever some Gamma(c, e) maps the
    point set of U_theta onto that of U_theta2, and close under union."""
    thetas = [int(t) for t in thetas]
    point_sets = {t: frozenset(int(p) for p in un.build_parabolic_unital(plane, t).points)
                  for t in thetas}
    by_set = {s: t for t, s in point_sets.items()}
    parent = {t: t for t in thetas}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for c in range(1, plane.ctx.size):
        for e in range(plane.ctx.m):
            g = Gamma(plane, c, e)
            for t in thetas:
                arr = np.fromiter(point_sets[t], dtype=np.int64, count=len(point_sets[t]))
                t2 = by_set.get(frozenset(int(p) for p in np.asarray(g.apply_point(arr))))
                if t2 is not None and find(t) != find(t2):
                    parent[find(t2)] = find(t)
    classes: dict[int, list[int]] = {}
    for t in thetas:
        classes.setdefault(find(t), []).append(t)
    return sorted(sorted(v) for v in classes.values())


@pytest.mark.parametrize("p, n, family", [(3, 1, "square"), (5, 1, "square"),
                                          (7, 1, "square"), (3, 2, "cm:k=3")])
def test_gamma_orbits_match_union_find(p, n, family):
    split = gf.split_new(gf.field_new(p, 2 * n), n)
    plane = ShiftPlane(planar.parse_spec(split, family))
    admissible = [t for t in range(1, plane.N)
                  if un.check_parabolic_hypothesis(plane, t)[0]]
    thetas = admissible + admissible[:2]          # two listed twice
    classes = un.gamma_orbit_partition(plane, thetas)
    assert classes == _gamma_classes_by_union_find(plane, thetas)
    assert sorted(t for cls in classes for t in cls) == sorted(thetas)


def test_gamma_identity_fixes(unital_q3):
    g = Gamma(unital_q3.plane, 1, 0)
    assert g.fixes_point_set(unital_q3.points)


def test_shift_orbit_fixes_unital(unital_q3):
    plane, theta = unital_q3.plane, unital_q3.theta
    f9 = plane.ctx
    for s in plane.split.sub_elements:
        assert Shift(plane, 0, int(f9.mul(int(s), theta))).fixes_point_set(unital_q3.points)
    for u_ in range(9):
        assert Shift(plane, u_, 0).fixes_point_set(unital_q3.points)
    assert not Shift(plane, 0, 1).fixes_point_set(unital_q3.points)


# -- catalog instances at scale ---------------------------------------------------

def test_build_and_certify_q27_families(s729):
    # full line-sweep certification is still feasible at q = 27
    for make in (lambda: planar.albert(s729, 2), lambda: planar.ganley(s729)):
        plane = ShiftPlane(make())
        theta = s729.xi if make().family == "ganley" else s729.choose_theta()
        u = un.build_parabolic_unital(plane, theta)
        assert len(u.points) == 27 ** 3 + 1
        rep = un.verify_unital_embedded(u)
        assert rep.passed and rep.secant_count == 27 ** 4 - 27 ** 3 + 27 ** 2


def test_build_and_certify_zhou_pott_f5_6():
    # hypothesis check plus seeded sampled line certification at q = 125
    split = gf.split_new(gf.field_new(5, 6), 3)
    plane = ShiftPlane(planar.zhou_pott(split, 1, 1))
    ok, _ = un.check_parabolic_hypothesis(plane, split.xi)
    assert ok
    u = un.build_parabolic_unital(plane, split.xi)
    assert len(u.points) == 125 ** 3 + 1
    rep = un.verify_unital_embedded(u, mode="sampled", seed=0, trials=10_000)
    assert rep.passed and rep.mode == "sampled"


def test_build_and_certify_pw_f3_10():
    # the largest catalog instance: q = 243 over F_3^10
    split = gf.split_new(gf.field_new(3, 10), 5)
    plane = ShiftPlane(planar.penttila_williams(split))
    ok, _ = un.check_parabolic_hypothesis(plane, split.xi)
    assert ok
    u = un.build_parabolic_unital(plane, split.xi)
    assert len(u.points) == 243 ** 3 + 1
    rep = un.verify_unital_embedded(u, mode="sampled", seed=0, trials=10_000)
    assert rep.passed and rep.mode == "sampled"


# -- serialization ----------------------------------------------------------------

def test_unital_file_round_trip(unital_q3, tmp_path):
    path = tmp_path / "u.unital"
    un.write_unital_file(unital_q3, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "UNITAL v1"
    assert lines[1] == unital_q3.plane.ctx.descriptor()
    assert lines[2] == "square"
    again = un.read_unital_file(path)
    assert np.array_equal(again.points, unital_q3.points)
    assert again.theta == unital_q3.theta


@pytest.mark.parametrize("which", ["unital_q3", "unital_q5"])
def test_unital_file_bytes(which, request, tmp_path):
    # the layout of the earlier one-write-per-line writer, byte for byte
    u = request.getfixturevalue(which)
    path = tmp_path / "u.unital"
    un.write_unital_file(u, path)
    head = ["UNITAL v1", u.plane.ctx.descriptor(), u.plane.spec.spec_string(),
            u.provenance]
    expected = "".join(f"{line}\n" for line in head)
    expected += "".join(f"{int(p)}\n" for p in u.points)
    assert path.read_bytes() == expected.encode()


def test_polarity_file_round_trip(polarity_q3, tmp_path):
    path = tmp_path / "pol.unital"
    un.write_unital_file(polarity_q3, path)
    again = un.read_unital_file(path)
    assert again.kappa is not None and again.kappa.kind == "frobq"
    assert np.array_equal(again.points, polarity_q3.points)


def test_dual_file_round_trip_keeps_theta(unital_q3, tmp_path):
    dual, _ = un.dual_unital(unital_q3)
    path = tmp_path / "dual.unital"
    un.write_unital_file(dual, path)
    again = un.read_unital_file(path)
    assert again.provenance == dual.provenance == f"dual:of={unital_q3.provenance}"
    assert again.theta == dual.theta == unital_q3.theta and again.kappa is None
    assert np.array_equal(again.points, dual.points)


def test_provenance_tag_alone_gives_theta_and_kappa(plane_q3, unital_q3):
    N, theta = plane_q3.N, unital_q3.theta
    assert un.parse_provenance(f"utheta:theta={theta}", N) == (theta, None)
    assert un.parse_provenance(f"dual:of=dual:of=utheta:theta={theta}", N) == (theta, None)
    assert un.parse_provenance("dual:of=polarity:kappa=conjxi", N) == (
        None, un.InvolutionSpec("conjxi"))
    for tag in ("general", "again", "", "utheta:theta", "utheta:theta2=4", "dual:of=general",
                "dual:utheta:theta=4"):
        assert un.parse_provenance(tag, N) == (None, None)
    nested = un.Unital(plane_q3, unital_q3.points, f"dual:of=dual:of={unital_q3.provenance}")
    assert nested.theta == theta and nested.kappa is None
    assert nested.theta_y_values.tolist() == unital_q3.theta_y_values.tolist()
    plain = un.Unital(plane_q3, unital_q3.points, "again")
    assert plain.theta is None and plain.kappa is None


@pytest.mark.parametrize("tag", [
    "utheta:theta=x", "utheta:theta=0", "utheta:theta=9", "utheta:theta=-1",
    "utheta:theta=999999", "utheta:theta=04", "utheta:theta= 4", "utheta:theta=",
    "utheta:theta=4\n", "utheta:theta=" + "9" * 5000, "dual:of=utheta:theta=-1",
    "polarity:kappa=bogus", "polarity:kappa=", "dual:of=polarity:kappa=FROBQ"])
def test_malformed_provenance_is_a_usage_error(tag, plane_q3, unital_q3):
    value = tag.rpartition("=")[2]
    with pytest.raises(UsageError, match=r"theta .* is not an index in \[1, 9\)|"
                       "unknown involution kind") as err:
        un.Unital(plane_q3, unital_q3.points, tag)
    assert repr(value)[:40] in str(err.value)


def test_certificate_schema_and_hash(unital_q3):
    cert = unital_q3.certificate()
    assert set(cert) >= {"field", "spec", "provenance", "checks", "hash"}
    assert cert["spec"] == "square"
    for chk in cert["checks"]:
        assert {"name", "mode", "status"} <= set(chk)
    # identical content hashes identically
    assert unital_q3.certificate()["hash"] == cert["hash"]


# -- point-driven line counts ---------------------------------------------------

def _recount(u):
    """|line ∩ U| line by line, from points_on_line and the point mask."""
    P = u.plane
    return np.array([np.count_nonzero(u.contains(P.points_on_line(lid)))
                     for lid in range(P.n_lines)])


def _translated_general(plane, c):
    u = un.build_parabolic_unital(plane, plane.split.choose_theta())
    ys = un.parabolic_y_values(plane, u.theta)
    g_table = np.sort(np.asarray(plane.ctx.add(np.tile(ys, (plane.N, 1)), c)), axis=1)
    return un.build_general_unital(plane, g_table)


@pytest.mark.parametrize("q", [3, 5])
def test_line_counts_match_recount(q, plane_q3, plane_q5):
    plane = {3: plane_q3, 5: plane_q5}[q]
    for u in (un.build_parabolic_unital(plane, plane.split.choose_theta()),
              un.build_polarity_unital(plane, un.InvolutionSpec("frobq")),
              _translated_general(plane, 2)):
        counts, tangents = un._line_counts(u)
        direct = _recount(u)
        assert np.array_equal(counts, direct)
        assert np.array_equal(un.line_intersection_counts(u), direct)
        # tangent lines through each point, from the same recount
        per_point = [np.count_nonzero(direct[u.plane.lines_through_point(int(p))] == 1)
                     for p in u.points]
        assert np.array_equal(tangents, per_point) and np.all(tangents == 1)


@pytest.mark.parametrize("q", [3, 5])
def test_slope_point_swap_counts_and_rejection(q, plane_q3, plane_q5):
    plane = {3: plane_q3, 5: plane_q5}[q]
    good = un.build_parabolic_unital(plane, plane.split.choose_theta())
    pts = good.points.copy()
    pts[-2] = plane.slope_id(0)                    # last affine point -> (0)
    u = un.Unital(plane, pts, "swapped")
    counts, tangents = un._line_counts(u)
    direct = _recount(u)
    assert np.array_equal(counts, direct)
    assert len(tangents) == len(u.points)
    with pytest.raises(IntersectionViolation):
        un.verify_unital_embedded(u)


def test_line_count_pass_runs_once_per_unital(plane_q5, monkeypatch):
    calls, searches = [], []
    raw, raw_group = un._line_counts, un._translation_group

    def counted(unital):
        calls.append(unital)
        return raw(unital)

    def searched(unital):
        searches.append(unital)
        return raw_group(unital)

    monkeypatch.setattr(un, "_line_counts", counted)
    monkeypatch.setattr(un, "_translation_group", searched)
    u = un.build_parabolic_unital(plane_q5, plane_q5.split.choose_theta())
    assert un.verify_unital_embedded(u).passed
    assert len(u.blocks) == 525
    dual, _ = un.dual_unital(u)
    profile = an.invariant_profile(u)
    assert an.shift_stabilizer_report(u).order == 125
    assert calls == [u] and searches == [u]
    counts = un.line_intersection_counts(u)
    assert calls == [u] and searches == [u] and not counts.flags.writeable
    assert profile.line_spectrum == ((1, 126), (6, 525))
    assert np.array_equal(dual.points, u.points)
    assert np.array_equal(counts, _recount(u))


def test_sampled_mode_never_searches_the_group(plane_q5, monkeypatch):
    def refuse(unital):
        raise AssertionError("translation group searched in sampled mode")

    monkeypatch.setattr(un, "_translation_group", refuse)
    u = un.build_parabolic_unital(plane_q5, plane_q5.split.choose_theta())
    pol = un.build_polarity_unital(plane_q5, un.InvolutionSpec("frobq"))
    for v in (u, pol):
        assert un.verify_unital_embedded(v, mode="sampled", seed=0, trials=500).passed


# -- line counts by translation orbits -------------------------------------------

def _direct_line_counts(unital):
    """The all-rows pass: every shift a counted directly, O(q^5) in all; the
    reference for the orbit route of un._line_counts."""
    plane = unital.plane
    ctx, N = plane.ctx, plane.N
    NN = N * N
    pts = unital.points
    aff = pts[pts < NN]
    xs, ys = aff // N, aff % N
    slopes = pts[(pts >= NN) & (pts < NN + N)] - NN
    slope_in = np.zeros(N, dtype=np.int64)
    slope_in[slopes] = 1
    has_inf = int(pts[-1] == plane.infinity_id)
    counts = np.empty(plane.n_lines, dtype=np.int64)
    tangents = np.zeros(len(aff), dtype=np.int64)
    for a in id_batches(N, max(1, len(aff))):
        # row r, column j: the b with affine point j on L(a[r], b), offset by r*N
        votes = np.asarray(ctx.sub(plane.f[ctx.add(xs[None, :], a[:, None])], ys[None, :]))
        votes += (np.arange(len(a), dtype=np.int64) * N)[:, None]
        block = np.bincount(votes.ravel(), minlength=len(a) * N)
        block += np.repeat(slope_in[a], N)          # the slope point (a) on L(a, b)
        counts[a[0] * N: (a[-1] + 1) * N] = block
        tangents += (block[votes] == 1).sum(axis=0)
    counts[NN: NN + N] = np.bincount(xs, minlength=N) + has_inf
    counts[plane.at_infinity_id] = len(slopes) + has_inf
    tangent_lines = counts == 1
    at_inf_tangent = int(tangent_lines[plane.at_infinity_id])
    tangents += tangent_lines[NN + xs]
    graph_tangents = tangent_lines[:NN].reshape(N, N).sum(axis=1)
    per_point = [tangents, graph_tangents[slopes] + at_inf_tangent]
    if has_inf:
        per_point.append([int(tangent_lines[NN: NN + N].sum()) + at_inf_tangent])
    return counts, np.concatenate(per_point)


def _swapped(u, rank, new_id):
    pts = u.points.copy()
    pts[rank] = new_id
    return un.Unital(u.plane, pts, "swapped")


def _orbit_cases(plane):
    """Point sets with large, small and trivial translation groups, by name."""
    par = un.build_parabolic_unital(plane, plane.split.choose_theta())
    off = int(np.flatnonzero(~par.contains(np.arange(plane.N ** 2)))[0])
    return {"parabolic": par,
            "polarity": un.build_polarity_unital(plane, un.InvolutionSpec("frobq")),
            "translated-general": _translated_general(plane, 2),
            "slope-swap": _swapped(par, -2, plane.slope_id(0)),
            "affine-swap": _swapped(par, 1, off)}


def _assert_orbit_pass_matches(u, name):
    counts, tangents = un._line_counts(u)
    ref_counts, ref_tangents = _direct_line_counts(u)
    assert np.array_equal(counts, ref_counts), name
    assert np.array_equal(tangents, ref_tangents), name
    q = u.q
    bad = np.flatnonzero((ref_counts != 1) & (ref_counts != q + 1))
    if len(bad):
        with pytest.raises(IntersectionViolation) as err:
            un.verify_unital_embedded(u)
        assert (err.value.line_id, err.value.count) == (bad[0], ref_counts[bad[0]])
    else:
        rep = un.verify_unital_embedded(u)
        assert rep == un.EmbeddedReport(
            bool(np.all(ref_tangents == 1)), "exhaustive", int((ref_counts == q + 1).sum()),
            int((ref_counts == 1).sum()), bool(np.all(ref_tangents == 1)), u.plane.n_lines)


# SHA-256 of the counts and tangents bytes of _line_counts; the
# forced-split F_81 field gives the cm-q9 bytes too
LINE_COUNTS_SHA256 = {
    ("square-q3", "parabolic"): "da0c42969417d595f9277d90617303c501b8ec21e8be87d7c4149c1196c00900",
    ("square-q3", "polarity"): "641dc8347016918e60c6922cfd4679f13e8e4a72d897d0cc1c3d843b8e834c74",
    ("square-q5", "parabolic"): "335c9c0febc31ac990fe5f34b57db118cf13f3738853848069ebb41799cb2423",
    ("square-q5", "polarity"): "d0f9a4b0b0eb129237863b6a18a9817201f5a54f83db520e3a600627505c2c3f",
    ("cm-q9", "parabolic"): "048ca5a662dbfc3e965faf1fdc117d35c535f482727d789dcf6d0908f9f78e44",
    ("cm-q9", "polarity"): "0cf98464803f4c87a6f4dbc0456fc41108cf78218ef8245e6222daea90ac1478",
    ("albert-q27", "parabolic"): "6a6d34c7c0f6e3a18cacb4b4b6c6315d5231aef14b13217b046f289015dc4622",
    ("albert-q27", "polarity"): "9fd8b2e7cdd48685f3871089027f9244de898b7179eaed2a698afa0d4b4cac7a",
}


def _assert_line_counts_frozen(cases, tag):
    for kind in ("parabolic", "polarity"):
        counts, tangents = un._line_counts(cases[kind])
        digest = hashlib.sha256(counts.tobytes() + tangents.tobytes()).hexdigest()
        assert digest == LINE_COUNTS_SHA256[tag, kind], (tag, kind)


@pytest.mark.parametrize("plane_name", ["plane_q3", "plane_q5", "plane_cm81"])
def test_orbit_line_counts_match_direct_pass(plane_name, request):
    plane = request.getfixturevalue(plane_name)
    q = plane.split.sub_size
    cases = _orbit_cases(plane)
    orders = {name: u.translation_group.order for name, u in cases.items()}
    # both routes run: one direct row (parabolic, translated), q (polarity), all N
    assert orders == {"parabolic": q ** 3, "polarity": q ** 2, "translated-general": q ** 3,
                      "slope-swap": 1, "affine-swap": 1}
    for name, u in cases.items():
        _assert_orbit_pass_matches(u, name)
    tag = {"plane_q3": "square-q3", "plane_q5": "square-q5", "plane_cm81": "cm-q9"}
    _assert_line_counts_frozen(cases, tag[plane_name])


def test_orbit_line_counts_match_direct_pass_albert27(s729):
    plane = ShiftPlane(planar.parse_spec(s729, "albert:k=2"))
    cases = {"parabolic": un.build_parabolic_unital(plane, s729.choose_theta()),
             "polarity": un.build_polarity_unital(plane, un.InvolutionSpec("frobq"))}
    for name, u in cases.items():
        _assert_orbit_pass_matches(u, name)
        assert u.translation_group.order == {"parabolic": 19683, "polarity": 729}[name]
    _assert_line_counts_frozen(cases, "albert-q27")


def test_orbit_line_counts_on_a_two_table_field(monkeypatch):
    # F_81 split into 9 x 9 halves: the direct rows add through add_lo and add_hi
    monkeypatch.setattr(gf, "ADD_TABLE_MAX", 27)
    ctx = gf.FieldCtx(3, 4)
    assert ctx.split_base == 9 and ctx.add_table is None
    plane = ShiftPlane(planar.coulter_matthews(gf.ExtensionSplit(ctx, 2), 3))
    cases = _orbit_cases(plane)
    for name, u in cases.items():
        _assert_orbit_pass_matches(u, name)
    _assert_line_counts_frozen(cases, "cm-q9")


@settings(max_examples=30, deadline=None)
@given(gens=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=2),
       seeds=st.lists(st.integers(0, 90), min_size=1, max_size=4))
def test_orbit_line_counts_on_translation_closed_sets(gens, seeds, plane_q3):
    # point sets of any size whose groups need not split as C x D: the
    # closures of a few points, slope points and infinity included, under
    # drawn translations
    P = plane_q3
    pts = np.unique(seeds)
    while True:
        grown = np.union1d(pts, np.concatenate([Shift(P, c, d).apply_point(pts)
                                                for c, d in gens]))
        if len(grown) == len(pts):
            break
        pts = grown
    stand_in = SimpleNamespace(plane=P, points=pts,
                               contains=lambda ids: np.isin(ids, pts))
    stand_in.translation_group = un._translation_group(stand_in)
    counts, tangents = un._line_counts(stand_in)
    ref_counts, ref_tangents = _direct_line_counts(stand_in)
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(tangents, ref_tangents)


@pytest.mark.parametrize("plane_name", ["plane_q3", "plane_q5", "plane_cm81"])
def test_translation_group_basis_fixes_the_unital(plane_name, request):
    plane = request.getfixturevalue(plane_name)
    for name, u in _orbit_cases(plane).items():
        group = u.translation_group
        assert group.order == plane.ctx.p ** len(group.basis), name
        for c, d in group.basis.tolist():
            assert Shift(plane, c, d).fixes_point_set(u.points), (name, c, d)
        # against every translation checked on every point
        X = np.arange(plane.N, dtype=np.int64)
        fixing = un._fixing(u, np.repeat(X, plane.N), np.tile(X, plane.N))
        assert group.order == np.count_nonzero(fixing), name
        # one lift per slope of the projection, each a group element
        lift_c, lift_d = group.slope_lifts()
        assert (lift_c[0], lift_d[0]) == (0, 0)
        assert sorted(lift_c.tolist()) == np.unique(np.repeat(X, plane.N)[fixing]).tolist()
        assert fixing[lift_c * plane.N + lift_d].all(), name


# certificate hashes of freshly built unitals after the checks below, as
# computed before the point-driven counts and batch incidence routine
FROZEN_HASHES = {
    ("square-q3", "parabolic"): "4ab8ebcc78fc26bd21ae5b7228ee9ea9eb181c05ce199f88f8740023bc10554a",
    ("square-q3", "polarity"): "23332a59ccdbfb4c54a1aecf12e45c033833c349c3a76127db26542e9f62c610",
    ("square-q5", "parabolic"): "7a7afc7fc0e372c423735c06bff774ad50885005c75eb80055e62e1ecae43fcf",
    ("square-q5", "polarity"): "ccdb5c2d033d35cf3bad50c7aa6275b097e177b7ed71e6e298d2414c21eb2ab3",
    ("cm-q9", "parabolic"): "29f76d929404dbe3ca2b2020005f8ded1c7e3d4c39d969f5c23faa6dcfa03528",
    ("cm-q9", "polarity"): "d0380d80da5c7c908e06342d5b9c23c82e51b2a8ba84a5d98aae9d8b40bbdf09",
}


def test_certificate_hashes_unchanged(plane_q3, plane_q5, plane_cm81):
    for tag, plane in (("square-q3", plane_q3), ("square-q5", plane_q5),
                       ("cm-q9", plane_cm81)):
        u = un.build_parabolic_unital(plane, plane.split.choose_theta())
        un.verify_unital_embedded(u)
        un.verify_design(u)
        un.verify_unital_embedded(u, mode="sampled", seed=0, trials=500)
        assert u.certificate()["hash"] == FROZEN_HASHES[(tag, "parabolic")]
        pol = un.build_polarity_unital(plane, un.InvolutionSpec("frobq"))
        un.verify_unital_embedded(pol)
        un.verify_design(pol)
        assert pol.certificate()["hash"] == FROZEN_HASHES[(tag, "polarity")]


# -- files and provenance ---------------------------------------------------------

def _swap_last_affine(src, dst, new_id):
    lines = src.read_text().splitlines()
    lines[-2] = str(new_id)                        # infinity stays the last ID
    dst.write_text("\n".join(lines) + "\n")


def test_file_round_trip(unital_q5, tmp_path):
    path = tmp_path / "u.unital"
    un.write_unital_file(unital_q5, path)
    back = un.read_unital_file(path)
    assert np.array_equal(back.points, unital_q5.points)
    assert back.theta == unital_q5.theta and back.provenance == unital_q5.provenance
    assert un.verify_unital_embedded(back, mode="sampled", seed=0, trials=500).passed


def test_malformed_files_rejected(unital_q3, tmp_path):
    path = tmp_path / "u.unital"
    un.write_unital_file(unital_q3, path)
    lines = path.read_text().splitlines()
    bad = tmp_path / "bad.unital"
    bad.write_text("\n".join(lines[:6] + ["seven"] + lines[7:]) + "\n")
    with pytest.raises(ValueError, match="seven"):
        un.read_unital_file(bad)
    bad.write_text("\n".join(["UNITAL v2"] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match="not a unital file"):
        un.read_unital_file(bad)


def test_tampered_parabolic_file_rejected(unital_q5, tmp_path):
    plane = unital_q5.plane
    path = tmp_path / "u.unital"
    un.write_unital_file(unital_q5, path)
    ys = set(int(y) for y in un.parabolic_y_values(plane, unital_q5.theta))
    off_set = plane.affine_id(0, min(set(range(plane.N)) - ys))
    for new_id in (plane.slope_id(0), off_set):
        bad = tmp_path / f"bad{new_id}.unital"
        _swap_last_affine(path, bad, new_id)
        u = un.read_unital_file(bad)
        assert u.theta == unital_q5.theta and new_id in u.points
        with pytest.raises(ProvenanceMismatch):
            un.verify_unital_embedded(u, mode="sampled", seed=0, trials=500)


@pytest.mark.parametrize("trials", [0, -1])
def test_sampled_embedded_needs_a_trial(trials, unital_q3):
    with pytest.raises(UsageError, match="at least 1 trial"):
        un.verify_unital_embedded(unital_q3, mode="sampled", trials=trials)


def test_unknown_embedded_mode_is_a_usage_error(unital_q3):
    with pytest.raises(UsageError, match="mode must be one of"):
        un.verify_unital_embedded(unital_q3, mode="bogus")


def test_ovals_of_tampered_parabolic_file_rejected(unital_q3, tmp_path):
    path, bad = tmp_path / "u.unital", tmp_path / "bad.unital"
    un.write_unital_file(unital_q3, path)
    _swap_last_affine(path, bad, unital_q3.plane.slope_id(0))
    with pytest.raises(ProvenanceMismatch):
        un.ovals_decomposition(un.read_unital_file(bad))


def test_unital_rejects_invalid_point_ids(unital_q5):
    plane, pts = unital_q5.plane, unital_q5.points
    unsorted_repeat = pts[::-1].copy()
    unsorted_repeat[0] = pts[40]
    for points, message in ((np.append(pts[:-1], pts[-2]), "listed twice"),
                            (unsorted_repeat, f"point ID {pts[40]} listed twice"),
                            (np.append(pts[:-1], plane.n_points), "outside"),
                            (np.append(pts[1:], -1), "outside"),
                            # narrowed before the check, it would be pts[0] again
                            (np.append(pts[1:], 2 ** 32 + int(pts[0])), "outside"),
                            (pts[:-1], "expected 126 points, got 125")):
        with pytest.raises(InvalidPointSet, match=message):
            un.Unital(plane, points, "test")
    assert np.array_equal(un.Unital(plane, pts[::-1], "test").points, pts)


# -- batched line counts against the former scalar routes -------------------------

def _reference_sampled_embedded(unital, seed, trials):
    """The former sampled loop: one count per line in draw order, each from
    the line's own points; the first violation is returned, not raised."""
    plane, q, N = unital.plane, unital.q, unital.plane.N
    rng = np.random.default_rng(seed)
    shifted = np.unique(rng.integers(0, N * N, size=trials))
    n_vert = min(N, max(1, trials // 4))
    verts = N * N + np.sort(rng.choice(N, size=n_vert, replace=False))
    tangents = 0
    for lid in np.concatenate([shifted, verts, [plane.at_infinity_id]]):
        c = len(unital.line_section(int(lid)))
        if c not in (1, q + 1):
            return int(lid), c
        tangents += c == 1
    n_pencil = max(1, min(50, 10 ** 9 // (N * N)))
    sample = rng.choice(unital.points, size=min(n_pencil, len(unital.points)),
                        replace=False)
    pencil_ok = all(sum(len(unital.line_section(int(lid))) == 1
                        for lid in plane.lines_through_point(int(pid))) == 1
                    for pid in sample)
    n = len(shifted) + len(verts) + 1
    return un.EmbeddedReport(pencil_ok, "sampled", n - tangents, tangents, pencil_ok, n)


@pytest.mark.parametrize("q", [3, 5])
def test_sampled_embedded_matches_scalar_loop(q, plane_q3, plane_q5):
    plane = {3: plane_q3, 5: plane_q5}[q]
    swapped = un.build_parabolic_unital(plane, plane.split.choose_theta()).points.copy()
    swapped[-2] = plane.slope_id(0)
    for make in (lambda: un.build_parabolic_unital(plane, plane.split.choose_theta()),
                 lambda: un.build_polarity_unital(plane, un.InvolutionSpec("frobq")),
                 lambda: _translated_general(plane, 2),
                 lambda: un.Unital(plane, swapped, "swapped")):
        for seed, trials in ((0, 500), (1, 40), (2, 8)):
            u = make()
            expected = _reference_sampled_embedded(u, seed, trials)
            if isinstance(expected, tuple):
                with pytest.raises(IntersectionViolation) as err:
                    un.verify_unital_embedded(u, mode="sampled", seed=seed, trials=trials)
                assert (err.value.line_id, err.value.count) == expected
            else:
                assert un.verify_unital_embedded(
                    u, mode="sampled", seed=seed, trials=trials) == expected


def test_pencil_tangent_counts_match_sections(unital_q3, polarity_q3):
    for u in (unital_q3, polarity_q3):
        plane = u.plane
        for pid in u.points:
            pencil = plane.lines_through_point(int(pid))
            direct = sum(len(u.line_section(int(lid))) == 1 for lid in pencil)
            assert un._pencil_tangent_count(u, int(pid)) == direct == 1
        # (0) lies off both unitals, so each of its q + 1 lines is tangent
        assert un._pencil_tangent_count(u, plane.slope_id(0)) == u.q + 1


def test_unital_with_slope_points_certifies(hermitian_slopes_q3):
    # the sampled check draws every point's pencil at q = 3, the four slope
    # points' among them: the graph lines of their slope plus L_inf
    u = hermitian_slopes_q3
    NN = u.plane.N ** 2
    assert np.count_nonzero((u.points >= NN) & (u.points < NN + u.plane.N)) == 4
    for pid in u.points.tolist():
        assert un._pencil_tangent_count(u, pid) == 1
    for mode in ("exhaustive", "sampled"):
        rep = un.verify_unital_embedded(u, mode=mode)
        assert rep.passed and (rep.secant_count, rep.tangent_count) == (63, 28)
    assert un.verify_design(u).passed


@pytest.mark.parametrize("which", ["unital_q3", "unital_cm81"])
def test_sorted_lookup_matches_the_mask(which, request, monkeypatch):
    # planes above _MASK_LIMIT points (q >= 67) look IDs up in the sorted points
    u = request.getfixturevalue(which)
    mask, n = u.point_mask, u.plane.n_points
    ids = np.concatenate([np.random.default_rng(0).integers(0, n, 2000),
                          u.points[[0, -1]], [0, n - 1]])
    monkeypatch.setattr(un, "_MASK_LIMIT", 0)
    assert np.array_equal(u.contains(ids), mask[ids])
    assert mask[ids].any() and not mask[ids].all()


def test_shifted_counts_by_b_match_former_formula(unital_q3, unital_q5, unital_cm81):
    split = gf.split_new(gf.field_new(5, 6), 3)
    plane = ShiftPlane(planar.zhou_pott(split, 1, 1))
    for u in (unital_q3, unital_q5, unital_cm81, un.build_parabolic_unital(plane, split.xi)):
        ctx, N = u.plane.ctx, u.plane.N
        fhist = np.bincount(u.plane.f, minlength=N)
        b = np.arange(N, dtype=np.int64)
        former = sum(fhist[ctx.add(b, int(y))] for y in u.theta_y_values)
        assert np.array_equal(u.shifted_counts_by_b, former)


def _catalog_parabolic(which, plane_q3, plane_q5, plane_cm81, s729):
    """The parabolic unital of a catalog instance with a valid theta: the
    chosen theta up to q = 27, theta = xi at q = 125 and 243."""
    planes = {"square-q3": plane_q3, "square-q5": plane_q5, "cm-q9": plane_cm81}
    if which in planes:
        return un.build_parabolic_unital(planes[which], planes[which].split.choose_theta())
    if which == "albert-q27":
        return un.build_parabolic_unital(ShiftPlane(planar.albert(s729, 2)),
                                         s729.choose_theta())
    p, n, make = {"zhoupott-q125": (5, 3, lambda s: planar.zhou_pott(s, 1, 1)),
                  "pw-q243": (3, 5, planar.penttila_williams)}[which]
    split = gf.split_new(gf.field_new(p, 2 * n), n)
    return un.build_parabolic_unital(ShiftPlane(make(split)), split.xi)


@pytest.mark.parametrize("which", ["square-q3", "square-q5", "cm-q9", "albert-q27",
                                   "zhoupott-q125", "pw-q243"])
def test_shifted_counts_by_b_equal_per_y_translate_sum(which, plane_q3, plane_q5,
                                                       plane_cm81, s729):
    # the coset sums take n(p - 1) translates along a basis of Y = theta F_q,
    # the per-y oracle one per y in Y
    u = _catalog_parabolic(which, plane_q3, plane_q5, plane_cm81, s729)
    ctx, N = u.plane.ctx, u.plane.N
    u.theta_y_values
    with mock.patch.object(ctx, "translate", wraps=ctx.translate) as spy:
        counts = u.shifted_counts_by_b
    assert spy.call_count == u.plane.split.sub_degree * (ctx.p - 1)
    fhist = np.bincount(u.plane.f, minlength=N)
    per_y = np.zeros(N, dtype=np.int64)
    for y in u.theta_y_values.tolist():
        per_y += ctx.translate(fhist, y)
    assert np.array_equal(counts, per_y)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_provenance_checked_in_first_middle_and_last_slice(unital_zp125, where):
    # one point moved off the y-set in the first, a middle or the last slice
    # of rows (the last is shorter than the others at q = 125)
    u = unital_zp125
    plane, N, q = u.plane, u.plane.N, u.q
    step = plane_mod.BATCH // q
    assert N % step
    row = {"first": 0, "middle": N // step // 2 * step + step // 2, "last": N - 1}[where]
    off = int(np.setdiff1d(np.arange(N), u.theta_y_values)[0])
    pts = u.points.copy()
    pts[row * q + q // 2] = row * N + off
    bad = un.Unital(plane, pts, u.provenance)
    with pytest.raises(ProvenanceMismatch):
        bad.theta_y_values


def test_parabolic_points_built_in_place(plane_q5):
    u = un.build_parabolic_unital(plane_q5, plane_q5.split.choose_theta())
    N, ys = plane_q5.N, un.parabolic_y_values(plane_q5, u.theta)
    former = np.concatenate([(np.arange(N)[:, None] * N + ys).ravel(),
                             [plane_q5.infinity_id]])
    assert np.array_equal(u.points, former)
    # an ascending array of the plane's id_dtype is kept as it is; any other
    # is sorted first
    assert un.Unital(plane_q5, u.points, "again").points is u.points
    shuffled = np.random.default_rng(0).permutation(u.points)
    again = un.Unital(plane_q5, shuffled, "shuffled")
    assert np.array_equal(again.points, u.points) and again.points is not shuffled


def test_provenance_checked_in_every_row_block():
    # at q = 125 the y-set check runs over 30 row blocks; a point swapped in
    # the last of them is seen as well
    split = gf.split_new(gf.field_new(5, 6), 3)
    plane = ShiftPlane(planar.zhou_pott(split, 1, 1))
    pts = un.build_parabolic_unital(plane, split.xi).points.copy()
    pts[-2] = plane.slope_id(0)
    u = un.Unital(plane, pts, f"utheta:theta={split.xi}")
    with pytest.raises(ProvenanceMismatch):
        u.theta_y_values


# -- unital files as bytes: the ID formatter and parser ----------------------------

def _reference_file_text(u):
    """The file as the earlier one-string-per-ID writer produced it."""
    head = ["UNITAL v1", u.plane.ctx.descriptor(), u.plane.spec.spec_string(),
            u.provenance]
    return "".join(f"{line}\n" for line in head) + "".join(f"{int(p)}\n" for p in u.points)


@pytest.fixture(scope="module")
def unital_zp125():
    split = gf.split_new(gf.field_new(5, 6), 3)
    return un.build_parabolic_unital(ShiftPlane(planar.zhou_pott(split, 1, 1)), split.xi)


@pytest.mark.parametrize("call", [
    lambda get: gf.FieldCtx(3, 0),
    lambda get: get("s9").ctx.pow(2, -1),
    lambda get: get("s9").ctx.frobenius(2, -1),
    lambda get: gf.ExtensionSplit(get("s9").ctx, 2),
    lambda get: Gamma(get("plane_q3"), 0, 0),
    lambda get: un.build_general_unital(get("plane_q3"), np.zeros((9, 2), dtype=np.int64)),
    lambda get: get("unital_zp125").point_mask,
    # an index past the field or the IDs, or below 0, which numpy would wrap
    lambda get: an.circle(get("unital_q3"), 10, 1),
    lambda get: an.circle(get("unital_q3"), 0, 9),
    lambda get: un.check_parabolic_hypothesis(get("plane_q3"), -5),
    lambda get: un.build_parabolic_unital(get("plane_q3"), 9),
    lambda get: an.derive_delta(get("s9"), -3),
    lambda get: Gamma(get("plane_q3"), -1, 0),
    lambda get: get("unital_q3").line_section(-1),
    lambda get: get("unital_q3").line_section(91),
    lambda get: get("plane_q3").lines_through_point(-1),
], ids=["field-degree", "negative-power", "negative-frobenius", "split-degree",
        "gamma-zero-c", "general-table-shape", "point-mask-size", "circle-a-past",
        "circle-beta-past", "hypothesis-theta-negative", "build-theta-past",
        "delta-theta-negative", "gamma-c-negative", "section-line-negative",
        "section-line-past", "pencil-point-negative"])
def test_argument_errors_are_usage_errors(request, call):
    # UsageError subclasses ValueError, so callers that catch one still do
    with pytest.raises(UsageError):
        call(request.getfixturevalue)


def test_certificate_hash_matches_int_list_body(unital_zp125):
    # the hash body lists the points by tolist(); the former per-point int()
    # comprehension gives the same JSON, so the same hash
    u = unital_zp125
    extra = {"points_count": len(u.points), "theta": u.theta}
    body = {"field": u.plane.ctx.descriptor(), "spec": u.plane.spec.spec_string(),
            "provenance": u.provenance, "points": [int(p) for p in u.points],
            "checks": [c.as_dict() for c in u.checks], **extra}
    digest = hashlib.sha256(json.dumps(body, sort_keys=True, default=str).encode())
    assert u.certificate(extra)["hash"] == digest.hexdigest()


@pytest.mark.parametrize("which", ["unital_cm81", "polarity_q3", "unital_zp125"])
def test_unital_file_bytes_larger_and_polarity(which, request, tmp_path):
    u = request.getfixturevalue(which)
    path = tmp_path / "u.unital"
    un.write_unital_file(u, path)
    assert path.read_bytes() == _reference_file_text(u).encode()
    assert np.array_equal(un.read_unital_file(path).points, u.points)


# the ends of each width, and both sides of the uint32 limits of the reader
# (9 digits: 10^9 - 1 and 10^9, among the ends) and the writer (2^32)
_BOUNDARY_IDS = [0, 10 ** 18 - 1, *(10 ** k - 1 for k in range(1, 18)),
                 *(10 ** k for k in range(1, 18)), 2 ** 32 - 1, 2 ** 32]


@settings(max_examples=150, deadline=None)
@example(ids=sorted(_BOUNDARY_IDS), block=1, chunk=7)
@example(ids=sorted(_BOUNDARY_IDS), block=1 << 16, chunk=1 << 20)
@given(ids=st.sets(st.sampled_from(_BOUNDARY_IDS) | st.integers(0, 10 ** 18 - 1),
                   max_size=120).map(sorted),
       block=st.sampled_from([1, 3, 1 << 16]),
       chunk=st.sampled_from([7, 19, 64, 1 << 20]))
def test_id_lines_round_trip(ids, block, chunk):
    # the formatter against one f-string per ID, and the parser back again,
    # across write blocks and read chunks of every size that matters; with
    # n_points = 10^18 every ID is in range and read as int64
    points = np.array(ids, dtype=np.int64)
    with mock.patch.object(un, "_WRITE_BLOCK", block):
        data = b"".join(un._format_ids(points))
    assert data == "".join(f"{i}\n" for i in ids).encode()
    with mock.patch.object(un, "_READ_CHUNK", chunk):
        for capacity in (len(ids), 0):           # the buffer also grows
            back = un._read_ids(io.BytesIO(data), capacity, 10 ** 18)
            assert np.array_equal(back, points)


@pytest.mark.parametrize("chunk", [7, 64])
def test_chunk_boundaries(chunk, unital_q5, unital_cm81, tmp_path, monkeypatch):
    monkeypatch.setattr(un, "_READ_CHUNK", chunk)
    for u in (unital_q5, unital_cm81):
        path = tmp_path / "u.unital"
        un.write_unital_file(u, path)
        back = un.read_unital_file(path)
        assert np.array_equal(back.points, u.points) and back.theta == u.theta


@pytest.mark.parametrize("width", [7, 9])
def test_malformed_line_after_a_chunk_boundary_is_quoted(width):
    # a body of over 256 KB, read in default-size chunks; with 8-byte lines
    # the bad line starts at the first read boundary, with 10-byte lines it
    # straddles it, so it opens the second parsed piece either way
    first_bad = un._READ_CHUNK // (width + 1)
    lines = [f"{10 ** (width - 1) + i}" for i in range(2 * first_bad + (1 << 18) // width)]
    lines[first_bad] = "12x" + "4" * (width - 3)
    lines[-5] = "later"
    data = "".join(f"{line}\n" for line in lines).encode()
    assert len(data) > max(1 << 18, 2 * un._READ_CHUNK)
    with pytest.raises(UsageError) as err:
        un._read_ids(io.BytesIO(data), len(lines), 10 ** 18)
    assert str(err.value) == f"malformed point ID line: {lines[first_bad]!r}"


@pytest.mark.parametrize("chunk", [7, 1 << 20])
def test_reader_skips_chunks_of_blank_lines(chunk, monkeypatch):
    # some chunks, or the whole body, hold blank lines only
    monkeypatch.setattr(un, "_READ_CHUNK", chunk)
    assert un._read_ids(io.BytesIO(b"\n" * 40), 0, 10 ** 18).tolist() == []
    body = b"5\n" + b"\n" * 40 + b"17\n" + b"\r\n" * 20 + b"203"
    assert un._read_ids(io.BytesIO(body), 0, 10 ** 18).tolist() == [5, 17, 203]


def _body_edit(u, tmp_path, edit, sep="\n"):
    """A copy of u's file whose lines pass through edit, joined by sep."""
    path = tmp_path / "u.unital"
    un.write_unital_file(u, path)
    bad = tmp_path / "edited.unital"
    bad.write_bytes(sep.join(edit(path.read_text().splitlines())).encode())
    return bad


@pytest.mark.parametrize("chunk", [7, 1 << 20])
@pytest.mark.parametrize("edit, sep", [
    (lambda l: l + [""], "\r\n"),                                  # CRLF
    (lambda l: l, "\n"),                                           # no final newline
    (lambda l: l, "\r\n"),                                         # both
    (lambda l: l[:4] + [""] + l[4:9] + ["", ""] + l[9:] + ["", ""], "\n"),  # blank lines
    (lambda l: l[:4] + [""] + l[4:] + [""], "\r\n"),               # blank CRLF lines
])
def test_reader_accepts_loadtxt_line_variants(unital_q3, tmp_path, monkeypatch,
                                              chunk, edit, sep):
    monkeypatch.setattr(un, "_READ_CHUNK", chunk)
    back = un.read_unital_file(_body_edit(unital_q3, tmp_path, edit, sep))
    assert np.array_equal(back.points, unital_q3.points) and back.theta == unital_q3.theta


@pytest.mark.parametrize("chunk", [7, 1 << 20])
@pytest.mark.parametrize("line", ["+4", "-4", " 4", "4 ", "1 7", "\t4", "4a", "0x4",
                                  "4\r5", "1" * 19, "0" * 19, "9" * 40])
def test_reader_rejects_malformed_id_lines(unital_q3, tmp_path, monkeypatch, chunk, line):
    # the first bad line is quoted, here the second ID line; a later one is not
    monkeypatch.setattr(un, "_READ_CHUNK", chunk)
    bad = _body_edit(unital_q3, tmp_path,
                     lambda l: l[:5] + [line] + l[6:-1] + ["later"] + l[-1:] + [""])
    quoted = repr(line[:24] + ("..." if len(line) > 24 else ""))
    with pytest.raises(UsageError, match="^malformed point ID line: ") as err:
        un.read_unital_file(bad)
    assert str(err.value) == f"malformed point ID line: {quoted}"


def test_reader_rejects_an_unterminated_long_line(unital_q3, tmp_path, monkeypatch):
    monkeypatch.setattr(un, "_READ_CHUNK", 7)
    bad = _body_edit(unital_q3, tmp_path, lambda l: l[:-1] + ["7" * 100])
    with pytest.raises(UsageError, match="malformed point ID line: '7777"):
        un.read_unital_file(bad)


@pytest.mark.parametrize("line, message", [
    ("p=3,m=x", "malformed field descriptor"),
    ("p=3,m=3,mod=[1,2,0,1]", "has odd degree"),
])
def test_header_checked_before_the_body(unital_q3, tmp_path, line, message):
    bad = _body_edit(unital_q3, tmp_path,
                     lambda l: l[:1] + [line] + l[2:5] + ["seven"] + l[6:] + [""])
    with pytest.raises(UsageError, match=message):
        un.read_unital_file(bad)


def test_extra_and_missing_id_lines_are_counted(unital_q3, tmp_path):
    # more lines than the buffer sized from the header: still all counted
    extra = _body_edit(unital_q3, tmp_path, lambda l: l + ["90", "91", ""])
    with pytest.raises(InvalidPointSet, match="expected 28 points, got 30"):
        un.read_unital_file(extra)
    short = _body_edit(unital_q3, tmp_path, lambda l: l[:4] + [""])
    with pytest.raises(InvalidPointSet, match="expected 28 points, got 0"):
        un.read_unital_file(short)


# -- point IDs stored narrow -----------------------------------------------------

def test_builders_and_reader_store_the_plane_id_dtype(plane_q3, unital_q3, polarity_q3,
                                                      tmp_path):
    # n_points = q^4 + q^2 + 1 fits 2^32 up to q = 255, not at q = 257
    assert plane_mod.point_id_dtype(255 ** 4 + 255 ** 2 + 1) == np.uint32
    assert plane_mod.point_id_dtype(257 ** 4 + 257 ** 2 + 1) == np.int64
    assert plane_q3.id_dtype == np.uint32
    general = un.build_general_unital(
        plane_q3, np.tile(un.parabolic_y_values(plane_q3, unital_q3.theta), (9, 1)))
    path = tmp_path / "u.unital"
    un.write_unital_file(unital_q3, path)
    listed = un.Unital(plane_q3, unital_q3.points.tolist(), "list")
    for u in (unital_q3, polarity_q3, general, un.dual_unital(unital_q3)[0],
              un.read_unital_file(path), listed):
        assert u.points.dtype == np.uint32


@pytest.mark.parametrize("chunk", [3, 1 << 20])
def test_reader_widens_from_the_first_id_past_the_plane(chunk, monkeypatch):
    # IDs below n_points are stored as uint32; the first one past it turns the
    # array to int64, the IDs before it kept, so it is never wrapped
    monkeypatch.setattr(un, "_READ_CHUNK", chunk)
    narrow = un._read_ids(io.BytesIO(b"5\n7\n90\n"), 0, 91)         # the buffer grows
    assert narrow.dtype == np.uint32 and narrow.tolist() == [5, 7, 90]
    far = [5, 7, 2 ** 32 + 5, 91, 8]
    wide = un._read_ids(io.BytesIO("".join(f"{i}\n" for i in far).encode()), 2, 91)
    assert wide.dtype == np.int64 and wide.tolist() == far


def test_provenance_sees_a_point_below_its_row_base(unital_zp125):
    # the first row of the second slice of rows opens with a point of the row
    # before it: row - s*N would wrap in uint32, row == block + s*N does not
    u = unital_zp125
    plane, N, q = u.plane, u.plane.N, u.q
    s = plane_mod.BATCH // q
    off = int(np.setdiff1d(np.arange(N), u.theta_y_values)[0])
    pts = u.points.copy()
    pts[s * q] = (s - 1) * N + off
    bad = un.Unital(plane, pts, u.provenance)
    assert bad.points.dtype == np.uint32 and bad.points[s * q] < s * N
    with pytest.raises(ProvenanceMismatch):
        bad.theta_y_values


def test_narrow_table_is_never_copied_wide(unital_zp125):
    # an int64 copy of the q = 125 table is 15.6 MB; membership probes, the
    # y-set check, one formatting pass and the read back of its bytes each
    # allocate under 2 MB beyond their own output
    u = unital_zp125
    plane, n = u.plane, len(u.points)
    assert u.points.dtype == np.uint32 and plane.n_points > un._MASK_LIMIT
    fresh = un.Unital(plane, u.points, u.provenance)
    assert fresh.points is u.points
    off = int(np.setdiff1d(np.arange(plane.N), u.theta_y_values)[0])   # (0, off) is not in U
    probes = np.array([u.points[7], off, plane.slope_id(0), plane.infinity_id],
                      dtype=np.int64)
    stream = io.BytesIO(b"".join(un._format_ids(u.points)))

    def extra(run):
        tracemalloc.start()
        try:
            out = run()
            return out, tracemalloc.get_traced_memory()[1] - getattr(out, "nbytes", 0)
        finally:
            tracemalloc.stop()

    member, peak = extra(lambda: u.contains(probes))
    assert member.tolist() == [True, False, False, True] and peak < 2e6
    ys, peak = extra(lambda: fresh.theta_y_values)
    assert len(ys) == u.q and peak < 2e6

    def format_pass():                 # its output is one block at a time
        sizes = [len(block) for block in un._format_ids(u.points)]
        return SimpleNamespace(total=sum(sizes), nbytes=max(sizes))

    written, peak = extra(format_pass)
    assert written.total == len(stream.getvalue()) and peak < 2e6
    back, peak = extra(lambda: un._read_ids(stream, n, plane.n_points))
    assert back.dtype == np.uint32 and np.array_equal(back, u.points) and peak < 2e6


# the sampled certificate of the q = 125 Zhou-Pott unital that the
# certify-sampled benchmark workload builds, and the SHA-256 of its file, as
# the int64 tables gave them
ZP125_SAMPLED_HASH = "56e62669a0874f805195532753f8cc73924de44c3ddb4e90f92bc05421995c9f"
ZP125_FILE_SHA256 = "62b9de083b8f0f9c0f27b026c5bc2d017112083a49d0a98113ecfe27e79b1e1a"


def test_certificate_streams_the_point_list(unital_zp125):
    # json.dumps of points.tolist() held 106 MiB at q = 125
    u = unital_zp125
    tracemalloc.start()
    try:
        cert = u.certificate({"points_count": len(u.points)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cert["hash"]) == 64 and peak < 8 * 2 ** 20


def test_absolute_points_at_q125_hold_no_square_table(unital_zp125):
    # the N x N equality table was 244 MB at N = 15625; the fibre pass holds
    # a few arrays of N q IDs
    plane, kappa = unital_zp125.plane, un.InvolutionSpec("frobq")
    tracemalloc.start()
    try:
        points = un.absolute_point_ids(plane, kappa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(points) == unital_zp125.q ** 3 + 1 and peak < 40 * 2 ** 20


def test_sampled_q125_certificate_and_file_unchanged(unital_zp125, tmp_path):
    u = un.build_parabolic_unital(unital_zp125.plane, unital_zp125.theta)
    un.verify_unital_embedded(u, mode="sampled", seed=0, trials=10000)
    path = tmp_path / "u.unital"
    un.write_unital_file(u, path)
    assert u.certificate()["hash"] == ZP125_SAMPLED_HASH
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ZP125_FILE_SHA256
