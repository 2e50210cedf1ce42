"""The projective plane of order q^2 built from a planar function.

Points: affine pairs (x, y), one slope point (a) per field element, and a
single point at infinity.  Lines: graphs y = f(x+a) - b (each carrying the
slope point (a)), verticals x = a (each carrying infinity), and the line at
infinity holding all slope points and infinity.

Everything is addressed by canonical integer IDs (N = field size):

    affine (x, y) -> x*N + y          shifted L(a, b) -> a*N + b
    slope (a)     -> N^2 + a          vertical V(a)   -> N^2 + a
    infinity      -> N^2 + N          at-infinity     -> N^2 + N

Incidence is always computed from the defining equations, never stored as a
global matrix, so plane contexts stay small even over F_{3^10}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (AxiomViolation, EqualPoints, FamilyMismatch, UsageError,
                     require_index, require_mode, require_trials)
from .planar import PlanarFunctionSpec, polarization

__all__ = [
    "ShiftPlane",
    "Line",
    "Shift",
    "Gamma",
    "Sigma",
    "sigma_compose",
    "verify_collineation",
    "id_batches",
    "point_id_dtype",
    "BATCH",
]

# most (point, line) pairs one batch of the array routines holds; 2^16 keeps
# a batch's temporaries near a few MB
BATCH = 1 << 16

# exhaustive axioms hold one count byte per point: 43 MB at q = 81, 3.5 GB at q = 243
EXHAUSTIVE_MAX_POINTS = 1 << 28


def point_id_dtype(n_points: int) -> np.dtype:
    """The dtype that stores the IDs 0..n_points-1 of a point table: uint32
    while they fit, as on every plane up to q = 255, int64 beyond.  Tables
    are stored narrow and computed with wide: a routine casts a bounded
    batch of IDs to int64 before any arithmetic on it."""
    return np.dtype(np.uint32 if n_points <= 1 << 32 else np.int64)


def id_batches(n: int, width: int = 1):
    """Consecutive ranges of 0..n-1 as ID arrays, each of at most
    max(1, BATCH // width) IDs, so that width entries per ID fit a batch."""
    step = max(1, BATCH // width)
    for start in range(0, n, step):
        yield np.arange(start, min(n, start + step), dtype=np.int64)


@dataclass(frozen=True, slots=True)
class Line:
    kind: str            # "shifted" | "vertical" | "at_infinity"
    a: int = 0
    b: int = 0


@dataclass
class PlaneReport:
    passed: bool
    mode: str
    points: int
    lines: int
    pairs_checked: int
    witness: tuple | None = None


class ShiftPlane:
    """Projective plane of order N = q^2 derived from a planar function."""

    def __init__(self, spec: PlanarFunctionSpec):
        self.spec = spec
        self.split = spec.split
        self.ctx = spec.split.ctx
        self.N = self.ctx.size
        self.f = spec.table
        self.infinity_id = self.N * self.N + self.N
        self.at_infinity_id = self.N * self.N + self.N
        self.n_points = self.N * self.N + self.N + 1
        self.n_lines = self.n_points
        self.id_dtype = point_id_dtype(self.n_points)

    # -- ID helpers --

    def affine_id(self, x, y):
        return x * self.N + y

    def slope_id(self, a):
        return self.N * self.N + a

    def shifted_id(self, a, b):
        return a * self.N + b

    def vertical_id(self, a):
        return self.N * self.N + a

    def decode_line(self, lid: int) -> Line:
        if lid == self.at_infinity_id:
            return Line("at_infinity")
        if lid >= self.N * self.N:
            return Line("vertical", a=lid - self.N * self.N)
        return Line("shifted", a=lid // self.N, b=lid % self.N)

    def point_ids(self) -> np.ndarray:
        return np.arange(self.n_points, dtype=np.int64)

    def line_ids(self) -> np.ndarray:
        return np.arange(self.n_lines, dtype=np.int64)

    # -- incidence --

    def incident_many(self, pids, lids) -> np.ndarray:
        """Incidence of point IDs with line IDs, elementwise after
        broadcasting, in batches of at most BATCH pairs.

        A point lies on a line iff it is the line's points_at entry at the
        one position it could hold: x on a graph line, y on a vertical, the
        slope on L_inf, else N.  The line equation lives in points_at;
        points_on_line (one line a call, 3-6x faster) and the votes of
        unital._line_counts (one line per slope, not N) keep it for speed.
        """
        N, NN = self.N, self.N * self.N
        pids, lids = np.broadcast_arrays(np.asarray(pids, dtype=np.int64),
                                         np.asarray(lids, dtype=np.int64))
        out = np.empty(pids.shape, dtype=bool)
        flat_p, flat_l, flat_out = pids.ravel(), lids.ravel(), out.reshape(-1)
        for start in range(0, flat_p.size, BATCH):
            part = slice(start, start + BATCH)
            p, l = flat_p[part], flat_l[part]
            cols = np.where(p < NN, np.where(l < NN, p // N, p % N),
                            np.where(l == self.at_infinity_id, p - NN, N))
            flat_out[part] = self.points_at(l, cols) == p
        return out

    def incident(self, pid: int, lid: int) -> bool:
        return bool(self.incident_many(pid, lid))

    def points_on_lines(self, lids) -> np.ndarray:
        """Row i holds the q^2 + 1 point IDs on line lids[i], ascending."""
        lids = np.asarray(lids, dtype=np.int64).reshape(-1)
        cols = np.arange(self.N + 1, dtype=np.int64)
        out = np.empty((len(lids), self.N + 1), dtype=np.int64)
        for idx in id_batches(len(lids), self.N + 1):
            out[idx] = self.points_at(lids[idx, None], cols)
        return out

    def points_at(self, lids, cols) -> np.ndarray:
        """The point at position cols of the ascending row of line lids,
        elementwise after broadcasting.

        Positions 0..N-1 of a graph line L(a, b) hold (x, f(x+a) - b) with
        x the position, ascending because x*N + y grows with x; position N
        holds its slope point (a).  A vertical V(a) holds (a, y) and then
        infinity; L_inf holds the slope points and then infinity.
        """
        N, NN = self.N, self.N * self.N
        lids, cols = np.broadcast_arrays(np.asarray(lids, dtype=np.int64),
                                         np.asarray(cols, dtype=np.int64))
        out = np.empty(lids.shape, dtype=np.int64)
        graph = lids < NN
        aff = graph & (cols < N)
        x, a, b = cols[aff], lids[aff] // N, lids[aff] % N
        out[aff] = x * N + self.ctx.sub(self.f[self.ctx.add(x, a)], b)
        slope = graph & (cols == N)
        out[slope] = NN + lids[slope] // N
        vert = (lids >= NN) & (lids != self.at_infinity_id)
        out[vert] = np.where(cols[vert] < N, (lids[vert] - NN) * N + cols[vert],
                             self.infinity_id)
        at_inf = lids == self.at_infinity_id
        out[at_inf] = NN + cols[at_inf]
        return out

    def points_on_line(self, lid: int) -> np.ndarray:
        """The q^2 + 1 point IDs on a line, ascending: one row of
        points_on_lines, built directly because its callers (line_section
        and the sampled tangent pencils) take one line per call, where the
        batch path costs 4x as much (4.9 ms against 1.1 ms a call at
        q=243 on a 2-core VM)."""
        N, lid = self.N, require_index(lid, self.n_lines, "ID")
        ids = np.empty(N + 1, dtype=np.int64)
        if lid == self.at_infinity_id:
            ids[:] = np.arange(N * N, N * N + N + 1)
        elif lid >= N * N:
            ids[:N] = (lid - N * N) * N + np.arange(N)
            ids[N] = self.infinity_id
        else:
            a, b = lid // N, lid % N
            x = np.arange(N, dtype=np.int64)
            ids[:N] = x * N + self.ctx.sub(self.ctx.translate(self.f, a), b)
            ids[N] = N * N + a
        return ids

    def lines_through_point(self, pid: int) -> np.ndarray:
        """The q^2 + 1 line IDs through a point, ascending.

        The ID scheme is self-dual: (x, y) on L(a, b) reads y + b = f(x+a),
        symmetric in (x, y) <-> (a, b), and (a) on L(a, b) mirrors (a, b)
        on V(a).  So the pencil of point k is the range of line k.
        """
        return self.points_on_line(pid)

    def sample_flags(self, rng: np.random.Generator, trials: int):
        """Seeded incident (point, line) pairs: per trial a line, then one of
        its points by position.  Returns (point IDs, line IDs).

        One draw with the bounds alternating n_lines, N + 1 yields the same
        values, and leaves rng in the same state, as drawing a line and a
        position per trial with two scalar calls.
        """
        draws = rng.integers(0, np.tile([self.n_lines, self.N + 1], trials))
        lids, cols = draws[0::2], draws[1::2]
        pids = np.empty(trials, dtype=np.int64)
        for idx in id_batches(trials):
            pids[idx] = self.points_at(lids[idx], cols[idx])
        return pids, lids

    def line_through_many(self, pids1, pids2) -> np.ndarray:
        """The line through each pair of distinct points, elementwise after
        broadcasting: the lines of _joins.  The first pair in input order
        that _joins counts 0 or >= 2 lines through raises AxiomViolation,
        witness the sorted pair.
        """
        p1, p2 = np.broadcast_arrays(np.asarray(pids1, dtype=np.int64),
                                     np.asarray(pids2, dtype=np.int64))
        shape, p1, p2 = p1.shape, p1.ravel(), p2.ravel()
        same = p1 == p2
        if same.any():
            raise EqualPoints(f"point {p1[np.argmax(same)]} given twice")
        counts, lines = self._joins(p1, p2)
        if np.any(counts != 1):
            i = int(np.argmax(counts != 1))
            raise AxiomViolation(f"{counts[i]} candidate lines through {p1[i]}, {p2[i]}",
                                 witness=tuple(sorted((int(p1[i]), int(p2[i])))))
        return lines.reshape(shape)

    def line_through(self, pid1: int, pid2: int) -> int:
        """The unique line through two distinct points."""
        return int(self.line_through_many(pid1, pid2))

    def _joins(self, p1, p2):
        """(counts, lines) for the pairs of distinct point IDs p1[i], p2[i]:
        the number of lines through both, and that line where the number is
        1 (elsewhere L_inf).

        Infinity, slope points and equal x have closed forms, one line
        each.  Two affine points with x1 != x2 lie on L(a, b) iff u = x2 + a
        solves f(u + c) = d + f(u) with c = x1 - x2, d = y1 - y2, which
        _difference_solutions counts; planarity makes that u unique.  The
        line through (x, y) of slope a, L(a, f(x+a) - y), is the points_at
        entry of line ID x*N + y at position a, as the ID scheme is
        self-dual (see lines_through_point).  By the same duality the count
        for two line IDs is the number of points the two lines share.
        """
        N, NN = self.N, self.N * self.N
        lo, hi = np.minimum(p1, p2), np.maximum(p1, p2)
        counts = np.ones(lo.shape, dtype=np.int64)
        lines = np.full(lo.shape, self.at_infinity_id, dtype=np.int64)  # no affine point
        vert = (lo < NN) & ((hi == self.infinity_id) | ((hi < NN) & (lo // N == hi // N)))
        lines[vert] = NN + lo[vert] // N
        slope = (lo < NN) & (hi >= NN) & (hi != self.infinity_id)
        lines[slope] = self.points_at(lo[slope], hi[slope] - NN)
        solve = np.flatnonzero((hi < NN) & ~vert)
        x2 = hi[solve] // N
        c = self.ctx.sub(lo[solve] // N, x2)
        d = self.ctx.sub(lo[solve] % N, hi[solve] % N)
        counts[solve], u = self._difference_solutions(c, d)
        one = counts[solve] == 1
        lines[solve[one]] = self.points_at(lo[solve[one]], self.ctx.sub(u[one], x2[one]))
        return counts, lines

    def _difference_solutions(self, c, d):
        """For each i, the number of u in F with f(u + c[i]) = d[i] + f(u),
        and such a u where that number is 1 (elsewhere an arbitrary value).

        The work is per distinct c: its row D_c(u) = f(u + c) - f(u) is
        built once, in id_batches blocks of N-wide rows, and one bincount of
        row * N + D_c counts the solutions of every (c, d) at once; one
        scatter of u over the same codes keeps a solution of each.
        """
        N, ctx = self.N, self.ctx
        counts = np.empty(len(c), dtype=np.int64)
        sols = np.empty(len(c), dtype=np.int64)
        cs, row = np.unique(c, return_inverse=True)
        order = np.argsort(row, kind="stable")        # the pairs of each c together
        ranked = row[order]
        U = np.arange(N, dtype=np.int64)
        for rows in id_batches(len(cs), N):
            pick = order[np.searchsorted(ranked, rows[0]):
                         np.searchsorted(ranked, rows[-1] + 1)]
            codes = (ctx.sub(self.f[ctx.add(cs[rows, None], U)], self.f)
                     + (rows - rows[0])[:, None] * N).ravel()
            table = np.bincount(codes, minlength=len(rows) * N)
            where = np.empty(len(rows) * N, dtype=np.int64)
            where[codes] = np.tile(U, len(rows))
            keys = (row[pick] - rows[0]) * N + d[pick]
            counts[pick], sols[pick] = table[keys], where[keys]
        return counts, sols

    # -- axiom verification --

    def verify_projective_plane(self, mode: str = "exhaustive",
                                seed: int = 0, trials: int = 20000) -> PlaneReport:
        """(i) two points lie on one common line, (ii) two lines meet in one
        point, (iii) every line carries q^2 + 1 points.

        Exhaustive mode works by translations.  tau(c, d) maps (x, y) ->
        (x + c, y + d), (s) -> (s - c), L(a, b) -> L(a - c, b - d), V(a) ->
        V(a + c), and fixes inf and L_inf; as y + b = f(x + a) is invariant,
        for any f it maps the points_at row of a line onto that of its image.
        Its orbits are the affine points, the slope points, {inf}, the graph
        lines, the verticals and {L_inf}.  So (iii) holds once the rows of
        L(0, 0), V(0) and L_inf hold N + 1 distinct points, and (i) once the
        N + 1 lines lines_through_point lists through P = (0, 0), (0), inf
        contain P and cover every other point exactly once.  No other line
        passes through P: every point then lies on >= N + 1 lines, and the
        n_lines (N + 1) = n_points (N + 1) flags allow no more.  (ii)
        follows: a 2-(n_points, N + 1, 1) design with as many blocks as
        points is symmetric, so its blocks meet pairwise in one point.  The
        first pair not covered exactly once raises AxiomViolation, witness
        the sorted pair; over EXHAUSTIVE_MAX_POINTS points is a UsageError.

        Sampled mode draws `trials` seeded point pairs, then `trials` line
        pairs (equal draws skipped); the first failing draw is the witness.
        Both kinds of pair go through _joins: two lines share as many points
        as there are lines through the two points with their IDs, as the ID
        scheme is self-dual.  Affine pairs are solved per distinct
        difference c, not per pair (see _difference_solutions), so a sample
        costs at most N difference rows however many trials it has.
        """
        require_mode(mode, ("exhaustive", "sampled"))
        if mode == "exhaustive":
            return self._verify_exhaustive()
        require_trials(trials)
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, self.n_points, (trials, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        lids = self.line_through_many(pairs[:, 0], pairs[:, 1])
        ok = self.incident_many(pairs, lids[:, None]).all(axis=1)
        if not ok.all():
            return PlaneReport(False, "sampled", self.n_points, self.n_lines, trials,
                               witness=tuple(int(v) for v in pairs[np.argmin(ok)]))
        lines = rng.integers(0, self.n_lines, (trials, 2))
        lines = lines[lines[:, 0] != lines[:, 1]]
        bad = self._joins(lines[:, 0], lines[:, 1])[0] != 1
        if bad.any():
            return PlaneReport(False, "sampled", self.n_points, self.n_lines, trials,
                               witness=tuple(int(v) for v in lines[np.argmax(bad)]))
        return PlaneReport(True, "sampled", self.n_points, self.n_lines, 2 * trials)

    def _verify_exhaustive(self) -> PlaneReport:
        npts, N, NN = self.n_points, self.N, self.N * self.N
        if npts > EXHAUSTIVE_MAX_POINTS:
            raise UsageError(f"exhaustive axioms need <= {EXHAUSTIVE_MAX_POINTS} "
                             f"points, got {npts}; use sampled mode")
        # (iii) one row per line orbit: L(0, 0), V(0), L_inf
        reps = [0, NN, self.at_infinity_id]
        for lid, row in zip(reps, np.sort(self.points_on_lines(reps), axis=1)):
            if (row[1:] == row[:-1]).any():
                raise AxiomViolation(f"line {lid} repeats a point", witness=(lid,))
        # (i) one pencil per point orbit: (0, 0), (0), infinity
        for pid in (0, NN, self.infinity_id):
            pencil = self.lines_through_point(pid)
            count = np.zeros(npts, dtype=np.uint8)     # 2 stands for "2 or more"
            for idx in id_batches(N + 1, N + 1):
                rows = self.points_on_lines(pencil[idx])
                if not (rows == pid).any(axis=1).all():
                    raise AxiomViolation(f"a line listed through point {pid} "
                                         "misses it", witness=(pid,))
                ids, times = np.unique(rows, return_counts=True)
                count[ids] = np.minimum(count[ids] + times, 2)
            count[pid] = 1
            if (count != 1).any():
                other = int(np.argmax(count != 1))
                many = "no" if count[other] == 0 else "more than one"
                raise AxiomViolation(f"points {pid}, {other} lie on {many} common line",
                                     witness=tuple(sorted((pid, other))))
        return PlaneReport(True, "exhaustive", npts, self.n_lines,
                           npts * (npts - 1) // 2)

    def __repr__(self):
        return f"ShiftPlane({self.spec.spec_string()}, order={self.N})"


# ----------------------------------------------------------------------
# Collineations.  Each family provides affine/slope coordinate maps; the
# shared glue below applies them to arrays of IDs.
# ----------------------------------------------------------------------


class _Collineation:
    """Point and line maps from the coordinate maps of a family.

    The parameters of Shift and Sigma may be ints or integer arrays; they
    broadcast against the IDs, so parameters of shape (E, 1) and P IDs give
    the (E, P) table of E elements' images.  The affine (or graph-line) map
    runs on all IDs, whose quotient by N is clipped into the field; only a
    batch that holds slope (or vertical) IDs or infinity (or L_inf) then
    runs the slope (vertical) map, and np.copyto writes those entries over
    the affine result in place.
    """

    def apply_point(self, pid):
        """Images of point IDs, elementwise after broadcasting; a scalar ID
        under scalar parameters gives a Python int."""
        return self._apply(pid, self._affine_map, self._slope_map)

    def apply_line(self, lid):
        """Images of line IDs, elementwise after broadcasting; a scalar ID
        under scalar parameters gives a Python int."""
        return self._apply(lid, self._shifted_map, self._vertical_map)

    def _apply(self, ids, pair_map, far_map):
        N, last = self.plane.N, self.plane.n_points - 1
        ids = np.asarray(ids, dtype=np.int64)
        hi, lo = np.divmod(ids, N)
        hi, lo = pair_map(np.minimum(hi, N - 1), lo)
        out = np.asarray(hi * N + lo)
        far = ids >= N * N
        if far.any():         # N^2 + a -> N^2 + far_map(a); the last ID is fixed
            np.copyto(out, N * N + np.asarray(far_map(ids % N)), where=far & (ids < last))
            np.copyto(out, last, where=ids == last)
        return int(out) if out.ndim == 0 else out

    def fixes_point_set(self, pids: np.ndarray) -> bool:
        image = np.sort(np.asarray(self.apply_point(pids)))
        return bool(np.array_equal(image, np.sort(np.asarray(pids))))


@dataclass(frozen=True)
class Shift(_Collineation):
    """Translation: (x, y) -> (x+u, y+v), slopes (a) -> (a-u), lines
    L(a,b) -> L(a-u, b-v), verticals V(a) -> V(a+u).

    u and v are field indices, ints or integer arrays that broadcast with
    each other and with the IDs: Shift(plane, c[:, None], d[:, None])
    maps P IDs to the (E, P) images of the E translations tau(c, d).
    Parameters must lie in 0..N-1 and IDs in 0..N^2+N: FieldCtx.add does
    not range-check, so an index outside them gives a wrong image, not an
    error."""

    plane: ShiftPlane
    u: int | np.ndarray
    v: int | np.ndarray

    def _affine_map(self, x, y):
        ctx = self.plane.ctx
        return ctx.add(x, self.u), ctx.add(y, self.v)

    def _slope_map(self, a):
        return self.plane.ctx.sub(a, self.u)

    def _shifted_map(self, a, b):
        ctx = self.plane.ctx
        return ctx.sub(a, self.u), ctx.sub(b, self.v)

    def _vertical_map(self, a):
        return self.plane.ctx.add(a, self.u)


class _TableMap(_Collineation):
    """Coordinate maps read off two index tables, _tables = (px, py): px
    on x, on the slope of (a) and on the a of L(a, b) and V(a), py on y and
    on b.  The same tables act on points and on lines."""

    def _affine_map(self, x, y):
        px, py = self._tables
        return px[x], py[y]

    _shifted_map = _affine_map

    def _slope_map(self, a):
        return self._tables[0][a]

    _vertical_map = _slope_map


@dataclass(frozen=True)
class Gamma(_TableMap):
    """Semilinear scaling: (x, y) -> (sigma(c x), sigma(c^d y)) on a
    power-map plane f(x) = x^d, with sigma = Frobenius^sigma_exp taken mod
    the full automorphism order of the field."""

    plane: ShiftPlane
    c: int
    sigma_exp: int

    def __post_init__(self):
        if not self.plane.spec.is_power_map:
            raise FamilyMismatch("gamma collineations need a power-map plane")
        if require_index(self.c, self.plane.N, "c") == 0:
            raise UsageError("c must be nonzero")

    @cached_property
    def _tables(self):
        ctx, d = self.plane.ctx, self.plane.spec.power_exponent
        e = self.sigma_exp % ctx.m
        idx = np.arange(ctx.size, dtype=np.int64)
        px = np.asarray(ctx.frobenius(ctx.mul(self.c, idx), e))
        py = np.asarray(ctx.frobenius(ctx.mul(int(ctx.pow(self.c, d)), idx), e))
        return px, py


@dataclass(frozen=True)
class Sigma(_Collineation):
    """Shear-translation: (x, y) -> (x+u, y + (2w*x) - v), with 2w*x the
    polarization f(w+x) - f(w) - f(x); slopes map by (a) -> (a+w-u).

    Line images follow from the point map by expanding f(x+a+w) through
    biadditivity: L(a,b) -> L(a+w-u, b+v+f(w)+pol(a,w)), V(a) -> V(a+u).
    Needs a Dembowski-Ostrom plane.

    u, v and w are ints or integer arrays that broadcast with each other
    and with the IDs, and lie in the same ranges, as for Shift."""

    plane: ShiftPlane
    u: int | np.ndarray
    v: int | np.ndarray
    w: int | np.ndarray

    def __post_init__(self):
        if not self.plane.spec.is_dembowski_ostrom:
            raise FamilyMismatch("sigma collineations need a Dembowski-Ostrom plane")

    def _affine_map(self, x, y):
        ctx = self.plane.ctx
        shear = polarization(self.plane.spec, self.w, x)
        return ctx.add(x, self.u), ctx.sub(ctx.add(y, shear), self.v)

    def _slope_map(self, a):
        ctx = self.plane.ctx
        return ctx.add(ctx.sub(a, self.u), self.w)

    def _shifted_map(self, a, b):
        ctx, f = self.plane.ctx, self.plane.f
        cross = polarization(self.plane.spec, a, self.w)
        nb = ctx.add(ctx.add(ctx.add(b, self.v), f[self.w]), cross)
        return ctx.add(ctx.sub(a, self.u), self.w), nb

    def _vertical_map(self, a):
        return self.plane.ctx.add(a, self.u)


def sigma_compose(g1: Sigma, g2: Sigma) -> Sigma:
    """g1 after g2: parameters (u+u', v+v' - (2w'*u), w+w') with the primed
    values from the outer map g1 and the middle term the polarization of
    g1.w with g2.u."""
    if g1.plane is not g2.plane:
        raise FamilyMismatch("sigma elements from different planes")
    ctx = g1.plane.ctx
    cross = polarization(g1.plane.spec, g1.w, g2.u)
    return Sigma(g1.plane,
                 int(ctx.add(g2.u, g1.u)),
                 int(ctx.sub(ctx.add(g2.v, g1.v), int(cross))),
                 int(ctx.add(g2.w, g1.w)))


def verify_collineation(plane: ShiftPlane, g) -> bool:
    """Every flag's images are incident: proved or swept by _check_flags."""
    return _check_flags(plane, g, "exhaustive", 0, 1)[0] is None


def _check_flags(plane: ShiftPlane, g, mode: str, seed: int, trials: int):
    """(the first flag whose images are not incident, or None; the number of
    flags checked) for a map g given by its apply_point and apply_line on
    IDs.  g keeps flag (P, l) when incident_many(g.apply_point(P),
    g.apply_line(l)) holds.  The one test serves a collineation and a
    correlation: a correlation such as a polarity sends (P, l) to the flag
    (g l, g P), and incidence is symmetric in IDs (see
    ShiftPlane.lines_through_point), so that reversed test reads the same.

    Exhaustive mode first tries _proved_by_translations.  If that proof
    holds, every flag holds and the count is that of the sweep; otherwise
    _first_failing_flag sweeps as before, so a failing map gets the sweep's
    witness.  Sampled mode always runs the seeded sample.
    """
    def holds(pids, lids):
        return plane.incident_many(g.apply_point(pids), g.apply_line(lids))

    if mode == "exhaustive" and _proved_by_translations(plane, g.apply_point,
                                                        g.apply_line, holds):
        return None, plane.n_lines * (plane.N + 1)
    return _first_failing_flag(plane, holds, mode, seed, trials)


def _proved_by_translations(plane: ShiftPlane, on_points, on_lines, holds) -> bool:
    """True only if the map keeps every flag (docs/ORBITS.md, section 7).

    (b) holds on the flags of L(0, 0), V(0) and L_inf, and (a) the map g
    conjugates each unit-digit translation tau = tau(p^i, 0), tau(0, p^i)
    to the translation tau' = tau(x1 - x0, y1 - y0): g(tau X) = tau'(g X)
    on every point and every line ID, and every image is a valid ID.
    (x0, y0) and (x1, y1) are the IDs of g(0, 0) and g(tau(0, 0)), which
    must be below N^2.  The generators span the translations, each flag is
    a translate of a flag on one of the three lines, and tau' keeps
    incidence, so (a) and (b) cover every flag.  False means only that the
    proof failed, not that a flag does.
    """
    N, ctx = plane.N, plane.ctx
    reps = np.array([0, N * N, plane.at_infinity_id], dtype=np.int64)
    if not holds(plane.points_on_lines(reps), reps[:, None]).all():
        return False
    zero = np.zeros(ctx.m, dtype=np.int64)
    c, d = np.concatenate([ctx.pow_p, zero]), np.concatenate([zero, ctx.pow_p])
    tau = Shift(plane, c[:, None], d[:, None])
    base = np.asarray(on_points(np.concatenate([[0], c * N + d])))
    if not ((base >= 0) & (base < N * N)).all():
        return False
    x, y = np.divmod(base, N)
    prime = Shift(plane, ctx.sub(x[1:], x[0])[:, None], ctx.sub(y[1:], y[0])[:, None])
    for move, act, move_image in ((tau.apply_point, on_points, prime.apply_point),
                                  (tau.apply_line, on_lines, prime.apply_line)):
        for ids in id_batches(plane.n_points, len(c)):
            image = np.asarray(act(ids))
            if image.min() < 0 or image.max() >= plane.n_points:
                return False
            moved = move(ids)
            if not np.array_equal(np.asarray(act(moved.ravel())).reshape(moved.shape),
                                  move_image(image)):
                return False
    return True


def _first_failing_flag(plane: ShiftPlane, holds, mode: str, seed: int, trials: int):
    """(the first incident (point, line) pair at which holds(pids, lids) is
    False, or None; the number of pairs checked before it).

    Exhaustive mode sweeps every flag: per id_batches block of lines, their
    points_on_lines rows with the line IDs as a column, which broadcast, so
    holds maps each line once.  Sampled mode takes `trials` seeded
    sample_flags.  _check_flags falls back on this sweep whenever its proof
    fails; the tests use it as the reference for that proof.
    """
    if mode == "exhaustive":
        batches = ((plane.points_on_lines(lids), lids[:, None])
                   for lids in id_batches(plane.n_lines, plane.N + 1))
    else:
        require_trials(trials)
        batches = [plane.sample_flags(np.random.default_rng(seed), trials)]
    checked = 0
    for pids, lids in batches:
        ok = holds(pids, lids)
        if not ok.all():
            k = np.unravel_index(np.argmin(ok), ok.shape)
            pids, lids = np.broadcast_arrays(pids, lids)
            return (int(pids[k]), int(lids[k])), checked
        checked += ok.size
    return None, checked
