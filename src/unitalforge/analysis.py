"""Circle designs, Wilbrink vertices, O'Nan configurations, stabilizers.

These are the discriminating invariants of the unitals: the (q^2, q+1, q)
design carried by the first-coordinate projections of blocks, the strong
Wilbrink vertex set, the counts of O'Nan configurations (four blocks meeting
pairwise in six distinct points), and the orders/abelianness of the natural
stabilizer subgroups.  Two unitals whose profiles differ in any
design-intrinsic field are certified non-isomorphic as designs.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from math import comb, gcd

import numpy as np

from .errors import (
    CompositionLawFailed,
    ElementDoesNotFix,
    FamilyMismatch,
    HypothesisUnmet,
    PairCoverageViolation,
    SingularSystem,
    UsageError,
    WitnessCheckFailed,
    ZeroBeta,
    require_index,
)
from .plane import BATCH, ShiftPlane, Sigma, id_batches
from .planar import polarization
from .unital import (Unital, _fixing, beta_of, line_intersection_counts,
                     parabolic_y_values, phi_table, trace_fibres)

__all__ = [
    "derive_delta",
    "Circle",
    "circle",
    "all_circles",
    "verify_circle_design",
    "CIRCLE_TABLE_MAX_BYTES",
    "DESIGN_INDEX_MAX_BYTES",
    "DesignIndex",
    "wilbrink_vertex_check",
    "OnanConfig",
    "onan_from_blocks",
    "find_onan_through_infinity",
    "construct_onan_explicit",
    "OnanConfigs",
    "OnanSearchResult",
    "find_onan_exhaustive",
    "ONAN_MAX_CONFIGS",
    "THROUGH_INF_MAX_CONFIGS",
    "SubgroupReport",
    "sigma_stabilizer_report",
    "verify_sigma_composition",
    "SIGMA_TABLE_MAX_ENTRIES",
    "shift_stabilizer_report",
    "InvariantProfile",
    "invariant_profile",
    "compare_profiles",
]


# ----------------------------------------------------------------------
# Circles: first-coordinate projections of the secant blocks
# ----------------------------------------------------------------------


def derive_delta(split, theta: int) -> int:
    """The delta with Tr(delta * z) = theta_1 z_0 - theta_0 z_1 for all z.

    Solves the 2x2 system Tr(delta) = theta_1, Tr(delta*xi) = -theta_0 over
    F_q by Cramer's rule (the trace form on the basis (1, xi) is
    nondegenerate) and verifies the identity on every element of F_{q^2}:
    O(q^2) work, 59 049 elements at q = 243.
    """
    ctx = split.ctx
    theta = require_index(theta, ctx.size, "theta")
    if theta == 0:
        raise ZeroBeta("theta must be nonzero")
    th0, th1 = (int(v) for v in split.decompose(theta))
    xi = split.xi
    t1 = int(split.trace(1))                       # Tr(1) = 2
    tx = int(split.trace(xi))                      # Tr(xi)
    txx = int(split.trace(ctx.mul(xi, xi)))        # Tr(xi^2)
    det = ctx.sub(ctx.mul(t1, txx), ctx.mul(tx, tx))
    if det == 0:
        raise SingularSystem("trace form degenerate: invalid split")
    rhs0, rhs1 = th1, int(ctx.neg(th0))
    inv_det = ctx.inv(int(det))
    d0 = ctx.mul(inv_det, ctx.sub(ctx.mul(rhs0, txx), ctx.mul(tx, rhs1)))
    d1 = ctx.mul(inv_det, ctx.sub(ctx.mul(t1, rhs1), ctx.mul(rhs0, tx)))
    delta = int(split.recompose(int(d0), int(d1)))
    # verify Tr(delta*z) = theta_1 z_0 - theta_0 z_1
    zs = np.arange(ctx.size, dtype=np.int64)
    lhs = np.asarray(split.trace(ctx.mul(delta, zs)))
    z0, z1 = split.decompose(zs)
    rhs = np.asarray(ctx.sub(ctx.mul(th1, z0), ctx.mul(th0, z1)))
    if not np.array_equal(lhs, rhs):
        raise SingularSystem("derived delta fails the trace identity")
    return delta


@dataclass(frozen=True)
class Circle:
    """C(a, beta) = {x : phi(x+a) = beta}, the projection of a secant block."""

    a: int
    beta: int
    members: tuple
    delta: int


def _checked_phi(unital: Unital) -> np.ndarray:
    """phi of a parabolic unital whose points are first checked to be the
    parabolic set of its theta (ProvenanceMismatch otherwise)."""
    if unital.theta_y_values is None:
        raise HypothesisUnmet("circles are defined for parabolic unitals only")
    return phi_table(unital.plane, unital.theta)


def circle(unital: Unital, a: int, beta: int) -> Circle:
    plane = unital.plane
    split, ctx = plane.split, plane.ctx
    a, beta = require_index(a, plane.N, "a"), require_index(beta, plane.N, "beta")
    if beta == 0 or not split.in_subfield(beta):
        raise ZeroBeta(f"beta must be a nonzero subfield element, got {beta}")
    phi = _checked_phi(unital)
    members = np.flatnonzero(ctx.translate(phi, a) == beta)
    if len(members) != unital.q + 1:
        raise ZeroBeta(f"circle ({a}, {beta}) has {len(members)} members")
    return Circle(a, beta, tuple(int(m) for m in members),
                  derive_delta(split, unital.theta))


# meet holds q^4 int32 counts of at most N: 2.1 MB at q = 27, 81 MB at
# q = 67.  So q <= 61 passes and q >= 67 is refused.
CIRCLE_TABLE_MAX_BYTES = 1 << 26
_MEET = np.dtype(np.int32)


def _circle_ranks(unital: Unital) -> np.ndarray:
    """rank0[x], the rank of phi(x) in split.sub_elements (0 for zero and for
    values outside F_q, which lie in no circle).  Over CIRCLE_TABLE_MAX_BYTES
    of meet (q >= 67) it is a UsageError, raised before any table is built.
    """
    q, width = unital.q, _MEET.itemsize
    if width * q ** 4 > CIRCLE_TABLE_MAX_BYTES:
        raise UsageError(f"circle tables need {width} q^4 <= {CIRCLE_TABLE_MAX_BYTES} "
                         f"bytes, got {width * q ** 4} at q = {q}")
    return np.maximum(unital.plane.split.sub_rank[_checked_phi(unital)], 0)


def _circle_meets(unital: Unital):
    """rank0 and meet[d, s, t] = |C(d, beta_s) & C(0, beta_t)|, one bincount
    of the keys (d*q + rank0[x + d])*q + rank0[x] over id_batches of d.
    Every circle is a translate C(a, beta_s) = C(0, beta_s) - a, so these
    two decide them all (docs/ORBITS.md section 8).
    """
    rank0 = _circle_ranks(unital)
    ctx, q, N = unital.plane.ctx, unital.q, unital.plane.N
    X = np.arange(N, dtype=np.int64)
    meet = np.empty((N, q, q), dtype=_MEET)
    for D in id_batches(N, N):
        keys = ((D - D[0])[:, None] * q + rank0[ctx.add(D[:, None], X)]) * q + rank0
        meet[D] = np.bincount(keys.ravel(), minlength=len(D) * q * q).reshape(-1, q, q)
    return rank0, meet


def all_circles(unital: Unital) -> list[Circle]:
    """Every circle in (a, beta) order, as the sorted translate C(0, beta) - a."""
    ctx, split = unital.plane.ctx, unital.plane.split
    rank0 = _circle_ranks(unital)
    delta = derive_delta(split, unital.theta)
    A = np.arange(unital.plane.N, dtype=np.int64)
    members = [np.sort(ctx.sub(np.flatnonzero(rank0 == s), A[:, None]), axis=1).tolist()
               for s in range(1, unital.q)]
    return [Circle(a, beta, tuple(members[s][a]), delta)
            for a in A.tolist() for s, beta in enumerate(split.sub_elements[1:].tolist())]


@dataclass
class CircleDesignReport:
    passed: bool
    circle_count: int
    circle_size: int
    lambda_value: int
    partition_ok: bool
    distinct_ok: bool


def verify_circle_design(unital: Unital) -> CircleDesignReport:
    """All circles distinct, q^3 - q^2 of them, each of size q+1, the
    beta-slices partition F_{q^2} minus one point, and every unordered pair
    of field elements lies in exactly q circles, all read from the meet
    table (docs/ORBITS.md section 8).  Raises ProvenanceMismatch when the
    points are not the parabolic set of the unital's theta.

    A repeated circle ends the check: the report then counts the circles
    before the first repeat in (a, beta) order.

    circle_size and lambda_value are measured: the first circle size, over
    beta_s, off q + 1 and the first pair count, over d != 0, off q (the
    design's value when none is off; docs/ORBITS.md section 8).
    """
    rank0, meet = _circle_meets(unital)
    ctx, q, N = unital.plane.ctx, unital.q, unital.plane.N
    sizes = meet[0].diagonal()
    # C(a, beta_s) = C(a - d, beta_t) iff meet[d, s, t] equals both sizes;
    # C(a, beta_s) is the later one iff a - d < a as IDs, or d = 0 and t < s
    # (the cell (-d, t, s) covers the pairs where C(a - d, beta_t) is later)
    S = sizes[1:]
    D, s, t = np.nonzero((meet[:, 1:, 1:] == S[:, None]) & (S[:, None] == S))
    keep = (D != 0) | (t < s)
    D, s = D[keep], s[keep]
    lam = meet[1:, 1:, 1:].diagonal(axis1=1, axis2=2).sum(axis=1)
    size, lam_value = int(S[np.argmax(S != q + 1)]), int(lam[np.argmax(lam != q)])
    if len(D):
        # IDs add digitwise in base p, so a - d < a first at a = the leading
        # base-p digit of d times its place value (0 for d = 0)
        lead = ctx.pow_p[np.searchsorted(ctx.pow_p, D, side="right") - 1]
        first_repeat = int(np.min(D // lead * lead * (q - 1) + s))
        return CircleDesignReport(False, first_repeat, size, lam_value, False, False)
    partition_ok = bool(sizes[0] == 1 and rank0[0] == 0)
    passed = size == q + 1 and lam_value == q and partition_ok
    return CircleDesignReport(passed, N * (q - 1), size, lam_value, partition_ok, True)


# ----------------------------------------------------------------------
# Design index: fast block-level structure for Wilbrink / O'Nan work
# ----------------------------------------------------------------------


# DesignIndex holds two pair tables, common_point (point ranks) over B^2 block
# pairs and block_through_pair (block indices) over n^2 point pairs, with
# B = q^4 - q^3 + q^2 and n = q^3 + 1, each in the narrowest signed type that
# holds -1 and its values (int8 / int16 up to q = 9): 71 MB at q = 9, 364 MB
# at q = 11, 0.5 TB at q = 27.  So q <= 9 passes and q >= 11 is refused.
DESIGN_INDEX_MAX_BYTES = 1 << 28
# find_onan_exhaustive expands at most this many rows, up to 28 bytes each
# with their keys: q = 7 (5 383 728) passes, cm q = 9 (99 552 240) does not.
ONAN_MAX_CONFIGS = 1 << 23
THROUGH_INF_MAX_CONFIGS = 64  # find_onan_through_infinity's cap
_ONAN_ROWS = 1 << 12      # rows expanded or decoded per step of that search
_WILBRINK_BYTES = 1 << 21  # gathered avoid rows per batch of wilbrink_vertex_check
# verify_sigma_composition holds one image table of N^3 (N^2 + N) entries:
# 1.0 * 10^7 at q = 5 passes, 2.9 * 10^8 at q = 7 and 3.5 * 10^9 at q = 9 do not.
SIGMA_TABLE_MAX_ENTRIES = 1 << 24


def _pack_rows(mask: np.ndarray) -> np.ndarray:
    """(rows, W) uint64 bitsets of a 2-d bool mask: column j is bit j % 64
    of word j // 64; the bits past the last column are 0."""
    rows, cols = mask.shape
    out = np.zeros((rows, -(-cols // 64) * 8), dtype=np.uint8)
    out[:, :-(-cols // 8)] = np.packbits(mask, axis=1, bitorder="little")
    return out.view("<u8")


def _pair_table(rows: np.ndarray, size: int) -> np.ndarray:
    """(size, size): entry (a, b), a != b, is the row holding a and b, else
    -1, in the narrowest signed type; scattered an id_batch at a time."""
    tbl = np.full((size, size), -1, dtype=np.min_scalar_type(-len(rows)))
    flat = tbl.reshape(-1)
    for r in id_batches(len(rows), rows.shape[1] ** 2):
        sub = rows[r]
        flat[sub[:, :, None] * size + sub[:, None, :]] = r[:, None, None]
    np.fill_diagonal(tbl, -1)
    return tbl


class DesignIndex:
    """Block-level lookup tables over `unital.blocks`.

    Over DESIGN_INDEX_MAX_BYTES of pair tables (q >= 11) it is a UsageError,
    raised from the closed forms before the blocks are built.  Raises
    PairCoverageViolation unless every point lies on q^2 blocks, as the
    per-point tables need."""

    def __init__(self, unital: Unital):
        q = unital.q
        B, n = q ** 4 - q ** 3 + q ** 2, q ** 3 + 1       # blocks and points, closed form
        if (np.min_scalar_type(-n).itemsize * B * B
                + np.min_scalar_type(-B).itemsize * n * n > DESIGN_INDEX_MAX_BYTES):
            raise UsageError(f"DesignIndex needs <= {DESIGN_INDEX_MAX_BYTES} bytes of "
                             f"pair tables (q <= 9), got q = {q}")
        self.q = q
        self.n = len(unital.points)
        self.block_lines = unital.secant_line_ids
        self.block_points = unital.blocks
        self.B = len(self.block_points)
        reps = np.bincount(self.block_points.ravel(), minlength=self.n)
        bad = np.flatnonzero(reps != self.q ** 2)
        if len(bad):
            r = int(bad[0])
            raise PairCoverageViolation(
                ("replication", int(unital.points[r])), int(reps[r]))

    @cached_property
    def blocks_by_point(self) -> np.ndarray:
        """(n, q^2) block indices through each point rank, ascending."""
        order = np.argsort(self.block_points.ravel(), kind="stable")
        return (order // (self.q + 1)).reshape(self.n, self.q ** 2)

    @cached_property
    def block_through_pair(self) -> np.ndarray:
        """(n, n) block index through each point-rank pair (-1 on diagonal)."""
        return _pair_table(self.block_points, self.n)

    @cached_property
    def common_point(self) -> np.ndarray:
        """(B, B) the shared point rank of two meeting blocks, else -1."""
        return _pair_table(self.blocks_by_point, self.B)

    @property
    def meets(self) -> np.ndarray:
        """(B, B) boolean: blocks sharing a point, built afresh per read."""
        return self.common_point >= 0

    @cached_property
    def meets_bits(self) -> np.ndarray:
        """(B, W) bitsets of `meets` (see _pack_rows), packed an id_batch
        of rows at a time."""
        cp = self.common_point
        bits = np.empty((self.B, -(-self.B // 64)), dtype="<u8")
        for r in id_batches(self.B, self.B):
            bits[r] = _pack_rows(cp[r] >= 0)
        return bits

    @cached_property
    def avoid_bits(self) -> np.ndarray:
        """(n, W) bitsets: row P holds the blocks not through point rank P,
        packed an id_batch of points at a time."""
        bits = np.empty((self.n, -(-self.B // 64)), dtype="<u8")
        for r in id_batches(self.n, self.B):
            avoid = np.ones((len(r), self.B), dtype=bool)
            avoid[np.arange(len(r))[:, None], self.blocks_by_point[r]] = False
            bits[r] = _pack_rows(avoid)
        return bits


@dataclass
class WilbrinkReport:
    point_id: int
    strong: bool
    satisfied: int
    total: int
    witness: tuple | None = None     # (block line ID B, block line ID C, point ID w)


def wilbrink_vertex_check(unital: Unital, point_id: int, strong: bool = True,
                          index: DesignIndex | None = None) -> WilbrinkReport:
    """Vertex test: for blocks B (without v) and C (through v, meeting B)
    and points w on C off {v, B∩C}, some block B' != C through w must meet
    every block through v that meets B.

    strong=True short-circuits at the first failing (B, C, w) with the
    smallest-ID witness; strong=False counts satisfied/total over the full
    range.  Exactly q+1 blocks through v meet B (one per point of B, since
    two blocks share at most one point).  A point_id off the unital, or
    outside [0, n_points), is a UsageError.

    The triples run on the packed bitsets of the index, the blocks B in
    ascending order and a batch at a time.  T = the q+1 blocks
    block_through_pair[v, B's points], sorted; ok = the AND of meets[C]
    over C in T holds the blocks that meet all of them.  The blocks B'
    through w that qualify are ok & ~avoid[w], so the per-triple count is
    popcount(ok & ~avoid[w]) - ok[C].  C is never in ok, since no block is
    counted as meeting itself, so (B, C, w) holds iff ok & ~avoid[w] is
    not empty, that is iff ok & avoid[w] != ok.  The triples of a batch
    lie in the row-major (B, C, w) order of the former per-triple loop:
    B ascending, C ascending in T and w in block_points[C] order.  The
    first failing one in that order is therefore the same triple, with the
    same counts before it.  A batch starts at one block and doubles up to
    _WILBRINK_BYTES of gathered avoid rows, so a vertex that fails early
    costs one small batch.
    """
    if not 0 <= point_id < unital.plane.n_points:      # before numpy casts it
        raise UsageError(f"point {point_id} not in the unital")
    v = int(unital.ranks(point_id))
    if v == len(unital.points) or unital.points[v] != point_id:
        raise UsageError(f"point {point_id} not in the unital")
    idx = index or DesignIndex(unital)
    avoid = idx.avoid_bits
    q1 = idx.q + 1
    cap = max(1, _WILBRINK_BYTES // (q1 * q1 * avoid[0].nbytes))
    off_v = np.setdiff1d(np.arange(idx.B), idx.blocks_by_point[v], assume_unique=True)
    satisfied = total = 0
    size = 1
    while len(off_v):
        bs, off_v = off_v[:size], off_v[size:]
        size = min(2 * size, cap)
        T = np.sort(idx.block_through_pair[v, idx.block_points[bs]], axis=1)
        ok = np.bitwise_and.reduce(np.take(idx.meets_bits, T, axis=0), axis=1)[:, None, None]
        w = idx.block_points[T]                          # (k, q+1, q+1) point ranks
        live = (w != v) & (w != idx.common_point[T, bs[:, None]][:, :, None])
        rows = np.take(avoid, w, axis=0)
        rows &= ok                                       # ok less the blocks through w
        fails = live & (rows == ok).all(axis=3)
        if strong and fails.any():
            first = int(np.argmax(fails))
            r, c, j = np.unravel_index(first, fails.shape)
            before = int(np.count_nonzero(live.ravel()[:first]))
            witness = (int(idx.block_lines[bs[r]]), int(idx.block_lines[T[r, c]]),
                       int(unital.points[w[r, c, j]]))
            return WilbrinkReport(point_id, False, satisfied + before,
                                  total + before + 1, witness)
        n_live = int(np.count_nonzero(live))
        total += n_live
        satisfied += n_live - int(np.count_nonzero(fails))
    return WilbrinkReport(point_id, satisfied == total, satisfied, total)


# ----------------------------------------------------------------------
# O'Nan configurations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OnanConfig:
    """Four blocks pairwise meeting in six distinct points.

    Blocks are the ascending IDs of their carrier lines, points ascending;
    each block contains exactly 3 of the 6 points, each point lies on
    exactly 2 of the 4 blocks.  The class checks nothing: onan_from_blocks
    verifies this on the line sections, find_onan_exhaustive by the
    argument of docs/ORBITS.md section 10.
    """

    blocks: tuple
    points: tuple


def onan_from_blocks(unital: Unital, line_ids) -> OnanConfig | None:
    """Assemble and verify a configuration from four candidate block lines;
    None when the incidence pattern fails."""
    line_ids = sorted(int(v) for v in line_ids)
    if len(set(line_ids)) != 4:
        return None
    sections = []
    for lid in line_ids:
        sec = unital.line_section(lid)
        if len(sec) != unital.q + 1:
            return None
        sections.append(set(int(p) for p in sec))
    pts = []
    for i in range(4):
        for j in range(i + 1, 4):
            common = sections[i] & sections[j]
            if len(common) != 1:
                return None
            pts.append(next(iter(common)))
    if len(set(pts)) != 6:
        return None
    for sec in sections:
        if len(sec & set(pts)) != 3:
            return None
    return OnanConfig(tuple(line_ids), tuple(sorted(set(pts))))


def find_onan_through_infinity(unital: Unital):
    """Search for configurations containing the infinity point.

    One exists iff circles C(a, beta) and C(0, beta') share >= 3 elements
    for some a != 0 (translation reduces the second circle's shift to 0).
    Returns (list of verified configs, list of raw circle-pair hits
    (a, beta, beta', |C(a, beta) & C(0, beta')|) as tuples of ints).

    The meet table of _circle_meets holds every intersection size
    |C(a, beta_s) & C(0, beta_t)|; outside its a = 0 and rank-0 slices the
    hits are the cells with count >= 3, in (a, beta, beta') order.

    Every hit is recorded, but at most THROUGH_INF_MAX_CONFIGS configurations
    are assembled.  Raises ProvenanceMismatch when the points are not the
    parabolic set of the unital's theta.
    """
    plane, N = unital.plane, unital.plane.N
    ctx, betas = plane.ctx, plane.split.sub_elements
    rank0, meet = _circle_meets(unital)
    A, S, T = (i + 1 for i in np.nonzero(meet[1:, 1:, 1:] >= 3))
    hits = list(zip(A.tolist(), betas[S].tolist(), betas[T].tolist(),
                    meet[A, S, T].tolist()))
    configs: list[OnanConfig] = []
    seen_blocks = set()
    beta_all = np.asarray(beta_of(plane, unital.theta, np.arange(N)))
    for a, s, t in zip(A.tolist(), S.tolist(), T.tolist()):
        if len(configs) >= THROUGH_INF_MAX_CONFIGS:
            break
        u, v, w = np.flatnonzero((ctx.translate(rank0, a) == s) & (rank0 == t))[:3].tolist()
        # smallest b with beta(b) = beta (block representative)
        b = int(np.flatnonzero(beta_all == betas[s])[0])
        # block through (u, f(u+a)-b) with first index 0
        d_p = ctx.sub(ctx.add(int(plane.f[u]), b), int(plane.f[ctx.add(u, a)]))
        lids = [plane.vertical_id(v), plane.vertical_id(w),
                plane.shifted_id(a, b), plane.shifted_id(0, int(d_p))]
        cfg = onan_from_blocks(unital, lids)
        if cfg is not None and cfg.blocks not in seen_blocks:
            seen_blocks.add(cfg.blocks)
            configs.append(cfg)
    return configs, hits


def _omega_root(ctx) -> int | None:
    """A root of w^2 - w + 1 = 0, or None; in characteristic 3 this is -1."""
    if ctx.p == 3:
        return ctx.minus_one_index
    idx = np.arange(ctx.size, dtype=np.int64)
    vals = np.asarray(ctx.add(ctx.sub(ctx.mul(idx, idx), idx), 1))
    roots = np.flatnonzero(vals == 0)
    return int(roots[0]) if len(roots) else None


def construct_onan_explicit(unital: Unital) -> OnanConfig:
    """Explicit configuration from the power-map template.

    For a power map f = x^(p^k+1) with k even, whatever spec produced it
    (x^2 is k = 0, and gcd(2n, 0) = 2n), picks a_v, a_w in the subfield
    F_{p^gcd(2n,k)} with a_v != a_w, a_v != omega*a_w (omega a root of
    w^2 - w + 1), sets

        a_u = a_w(1-omega) + omega*a_v,
        t_u = 4 a_w (a_v - a_w) omega / theta,
        t_v = 4 a_v (a_v - a_w) / theta,      t_w = 0,

    requires t_u, t_v to land in F_q (membership of the template points in
    the point set), solves the linear conditions for x_u, x_v, x_w, checks
    both block-intersection conditions with the unhalved star product, and
    assembles the four blocks through (0, t_u*theta), (0, t_v*theta), (0,0).
    Raises WitnessCheckFailed when no admissible pair lands in F_q (this is
    provably the case in characteristic 3 whenever F_q meets the template
    subfield only in F_3).
    """
    plane = unital.plane
    spec, ctx, split = plane.spec, plane.ctx, plane.split
    if unital.theta is None:
        raise HypothesisUnmet("template applies to parabolic unitals")
    d = spec.power_exponent or 0
    k = next((k for k in range(0, d.bit_length(), 2) if ctx.p ** k + 1 == d), None)
    if k is None:
        raise HypothesisUnmet("template needs f = x^(p^k+1) with k even")
    omega = _omega_root(ctx)
    if omega is None:
        raise HypothesisUnmet("no root of w^2 - w + 1 in this field")
    g = gcd(2 * split.sub_degree, k)
    sub_mask = np.asarray(ctx.frobenius(np.arange(ctx.size, dtype=np.int64), g)) == \
        np.arange(ctx.size)
    sub_elems = np.flatnonzero(sub_mask)
    if len(sub_elems) < 9:
        raise HypothesisUnmet(
            f"template subfield has {len(sub_elems)} < 9 elements")
    theta = unital.theta
    inv_theta = ctx.inv(theta)
    four = 4 % ctx.p
    av, aw = (g.ravel() for g in np.meshgrid(sub_elems[1:], sub_elems[1:], indexing="ij"))
    diff = ctx.sub(av, aw)
    t_u = ctx.mul(ctx.mul(ctx.mul(four, aw), ctx.mul(diff, omega)), inv_theta)
    t_v = ctx.mul(ctx.mul(ctx.mul(four, av), diff), inv_theta)
    admissible = ((av != aw) & (av != ctx.mul(omega, aw))
                  & split.in_subfield(t_u) & split.in_subfield(t_v)
                  & (t_u != t_v) & (t_u != 0) & (t_v != 0))
    for i in np.flatnonzero(admissible).tolist():
        cfg = _assemble_template(unital, omega, int(av[i]), int(aw[i]),
                                 int(t_u[i]), int(t_v[i]))
        if cfg is not None:
            return cfg
    raise WitnessCheckFailed(
        "no admissible (a_v, a_w) places the template points in the unital "
        f"(subfield size {len(sub_elems)}, q {split.sub_size})")


def _assemble_template(unital: Unital, omega: int, av: int, aw: int,
                       t_u: int, t_v: int) -> OnanConfig | None:
    plane = unital.plane
    spec, ctx, split = plane.spec, plane.ctx, plane.split
    theta = unital.theta
    one_minus_w = ctx.sub(1, omega)
    au = int(ctx.add(ctx.mul(aw, int(one_minus_w)), ctx.mul(omega, av)))
    if au in (0, av, aw):
        return None
    minus2 = ctx.neg(2 % ctx.p)
    xs = {"w": int(ctx.mul(minus2, au)),
          "u": int(ctx.mul(minus2, av)),
          "v": int(ctx.mul(minus2, aw))}
    avals = {"u": au, "v": av, "w": aw}
    tvals = {"u": t_u, "v": t_v, "w": 0}
    labels = ("u", "v", "w")
    # condition (a): x_k * a_i - x_k * a_j = (t_j - t_i) theta
    for kk in labels:
        i, j = [l for l in labels if l != kk]
        lhs = ctx.sub(int(polarization(spec, xs[kk], avals[i])),
                      int(polarization(spec, xs[kk], avals[j])))
        rhs = ctx.mul(int(ctx.sub(tvals[j], tvals[i])), theta)
        if int(lhs) != int(rhs):
            return None
    # condition (b): f(x_k + a_i) - f(a_i) in theta*F_q
    for kk in labels:
        for i in labels:
            if i == kk:
                continue
            val = ctx.sub(int(plane.f[ctx.add(xs[kk], avals[i])]),
                          int(plane.f[avals[i]]))
            if int(beta_of(plane, theta, int(val))) != 0:
                return None
    lids = [plane.vertical_id(0)]
    for l in labels:
        b = int(ctx.sub(int(plane.f[avals[l]]), ctx.mul(tvals[l], theta)))
        lids.append(plane.shifted_id(avals[l], b))
    return onan_from_blocks(unital, lids)


class OnanConfigs(Sequence):
    """Read-only sequence of OnanConfig over the block indices and point
    ranks of a search, mapped to IDs a row or a chunk at a time; each item
    is made when read and holds Python ints.  Slices are views too, and a
    view equals another view or a list with the same configurations."""

    _CHUNK = 4096                    # rows converted per step of iteration

    def __init__(self, blocks: np.ndarray, ranks: np.ndarray,
                 block_lines: np.ndarray, points: np.ndarray):
        self._blocks, self._ranks = blocks, ranks
        self._lines, self._points = block_lines, points

    def _ids(self, rows):                # carrier-line IDs, point IDs
        return self._lines[self._blocks[rows]], self._points[self._ranks[rows]]

    def __len__(self) -> int:
        return len(self._blocks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return OnanConfigs(self._blocks[i], self._ranks[i], self._lines, self._points)
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError(f"configuration {i} of {len(self)}")
        bl, pt = self._ids(i)
        return OnanConfig(tuple(bl.tolist()), tuple(pt.tolist()))

    def __iter__(self):
        for start in range(0, len(self), self._CHUNK):
            bl, pt = self._ids(slice(start, start + self._CHUNK))
            for row in zip(bl.tolist(), pt.tolist()):
                yield OnanConfig(*map(tuple, row))

    def __eq__(self, other):
        if isinstance(other, OnanConfigs):
            return all(map(np.array_equal, self._ids(slice(None)), other._ids(slice(None))))
        if isinstance(other, list):
            return len(other) == len(self) and all(map(operator.eq, self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"OnanConfigs(<{len(self)} configurations>)"


@dataclass(eq=False)
class OnanSearchResult:
    """Configurations found by find_onan_exhaustive, one row each, in
    lexicographic order of block index (hence of carrier-line ID).

    blocks (count, 4) indexes block_lines and ranks (count, 6) points, each
    row ascending, in the narrowest unsigned types (uint8 / uint16 to q = 9);
    `configs` reads them as OnanConfig objects of IDs.
    """

    blocks: np.ndarray
    ranks: np.ndarray
    block_lines: np.ndarray
    points: np.ndarray
    examined: int
    complete = True                  # the search lists every configuration

    @property
    def count(self) -> int:
        return len(self.blocks)

    @property
    def configs(self) -> OnanConfigs:
        return OnanConfigs(self.blocks, self.ranks, self.block_lines, self.points)


# sorting networks of 4 and 6 columns
_SORT4 = ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))
_SORT6 = ((1, 2), (4, 5), (0, 2), (3, 5), (0, 1), (3, 4), (2, 5), (0, 3), (1, 4), (2, 4),
          (1, 3), (2, 3))


def _sorted_columns(cols: list, network) -> list:
    """The arrays of cols sorted elementwise, by min and max."""
    for i, j in network:
        cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
    return cols


def _block_keys(blocks: np.ndarray, bits: int) -> np.ndarray:
    """One int64 per row of four block indices, sorted first: keys order
    as the sorted rows do."""
    b = _sorted_columns([blocks[..., k] for k in range(4)], _SORT4)
    return ((b[0].astype(np.int64) << bits | b[1]) << bits | b[2]) << bits | b[3]


def _configs_through(idx: DesignIndex, R: int):
    """Each configuration through point rank R once, from the cross blocks
    of the block pairs through R: (blocks, ranks) in batches."""
    q, bt, cp = idx.q, idx.block_through_pair, idx.common_point
    lines = idx.blocks_by_point[R]
    on = idx.block_points[lines]
    off = on[on != R].reshape(q * q, q)          # the points of each block but R
    row, col = np.divmod(np.arange(q * q), q)
    c1, c2 = np.nonzero((row[:, None] < row) & (col[:, None] != col))
    i1, i2 = np.triu_indices(q * q, 1)
    for k in id_batches(len(i1), len(c1)):
        a, b = off[i1[k]], off[i2[k]]
        cross = bt[a[:, :, None], b[:, None, :]].reshape(len(k), q * q)
        t, m = np.nonzero(cp[cross[:, c1], cross[:, c2]] >= 0)
        b3, b4 = cross[t, c1[m]], cross[t, c2[m]]
        yield (np.stack([lines[i1[k[t]]], lines[i2[k[t]]], b3, b4], axis=1),
               np.stack([np.full(len(t), R), a[t, row[c1[m]]], b[t, col[c1[m]]],
                         a[t, row[c2[m]]], b[t, col[c2[m]]], cp[b3, b4]], axis=1))


def _onan_orbits(unital: Unital, idx: DesignIndex):
    """(c, bmap, kept) from one listing through each orbit representative of
    the translation group G: the configurations through each point rank,
    the (|G|, B) block map, and the blocks of one configuration per orbit
    of G: the least key through the least-labelled orbit."""
    label, image = unital.translation_group.point_orbits(unital.points)
    bp, bits = idx.block_points, int(idx.B - 1).bit_length()
    bmap = idx.block_through_pair[image[:, bp[:, 0]], image[:, bp[:, 1]]]
    g, pts = np.nonzero(image == label)
    to_rep = np.zeros(len(label), dtype=np.int64)
    to_rep[pts] = g                               # the element taking P to its label
    affine = unital.points < unital.plane.N ** 2
    counts = np.zeros(len(label), dtype=np.int64)
    kept = [np.empty((0, 4), dtype=np.int64)]
    for R in np.flatnonzero(label == np.arange(len(label))).tolist():
        for blocks, ranks in _configs_through(idx, R):
            counts[R] += len(blocks)
            if not affine[R]:                     # every configuration has an affine point
                continue
            lab = label[ranks]
            least = lab.min(axis=1) == R
            blocks, ranks, lab = blocks[least], ranks[least], lab[least]
            keys = _block_keys(bmap[to_rep[ranks][:, :, None], blocks[:, None, :]], bits)
            keys[lab != R] = np.iinfo(np.int64).max
            kept.append(blocks[_block_keys(blocks, bits) == keys.min(axis=1)])
    return counts[label], bmap, np.concatenate(kept)


def _type_b(idx: DesignIndex) -> int:
    """The number of examined quadruples of type (b): three blocks through
    P and a block b avoiding P but not last.  Of the q + 1 blocks through P
    meeting b, k precede b."""
    q, B, bp = idx.q, idx.B, idx.block_points
    b = np.arange(B)[:, None]
    out = idx.n * (B - q * q) * comb(q + 1, 3)
    for P in id_batches(idx.n, B * (q + 1)):
        k = np.count_nonzero(idx.block_through_pair[P][:, bp] < b, axis=2)
        out -= int((k * (k - 1) * (k - 2) // 6).sum())   # C(k, 3); k = 1 for b through P
    return out


def find_onan_exhaustive(unital: Unital, index: DesignIndex | None = None) -> OnanSearchResult:
    """All configurations, from the design index tables and the unital's
    translation group, in lexicographic block order (docs/ORBITS.md
    section 10).  Over ONAN_MAX_CONFIGS rows to expand is a UsageError
    naming the count, raised before any is expanded.

    examined counts the pairwise meeting blocks b1 < b2 < b3 < b4 whose
    first three are not concurrent: the configurations and, in closed
    form, those of type (b).  The search has no cut: the result lists
    every configuration, and its complete is always True.
    """
    idx = index or DesignIndex(unital)
    counts, bmap, kept = _onan_orbits(unital, idx)
    if len(kept) * len(bmap) > ONAN_MAX_CONFIGS:
        raise UsageError(f"the exhaustive O'Nan list holds {counts.sum() // 6} "
                         f"configurations, over the cap of {ONAN_MAX_CONFIGS}")
    bits = int(idx.B - 1).bit_length()
    keys = np.empty(len(kept) * len(bmap), dtype=np.int64)
    step = max(1, _ONAN_ROWS // len(bmap))
    for s in range(0, len(kept), step):
        keys[s * len(bmap):(s + step) * len(bmap)] = \
            _block_keys(bmap[:, kept[s:s + step]], bits).ravel()
    keys.sort()
    fresh = np.ones(len(keys), dtype=bool)      # a translation may fix one (p = 3)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    keys = keys[fresh]
    examined = len(keys) + _type_b(idx)
    blocks = np.empty((len(keys), 4), dtype=np.min_scalar_type(idx.B - 1))
    shifts, mask = bits * np.arange(3, -1, -1), (1 << bits) - 1
    for s in range(0, len(keys), _ONAN_ROWS):
        blocks[s:s + _ONAN_ROWS] = keys[s:s + _ONAN_ROWS, None] >> shifts & mask
    del keys                                     # the ranks are read from the blocks
    ranks = np.empty((len(blocks), 6), dtype=np.min_scalar_type(len(unital.points) - 1))
    cp = idx.common_point.reshape(-1)
    for s in range(0, len(blocks), _ONAN_ROWS):
        b = blocks[s:s + _ONAN_ROWS].T.astype(np.int64)
        six = [cp[b[x] * idx.B + b[y]] for x, y in zip(*np.triu_indices(4, 1))]
        ranks[s:s + _ONAN_ROWS] = np.stack(_sorted_columns(six, _SORT6), axis=1)
    return OnanSearchResult(blocks, ranks, idx.block_lines, unital.points, examined)


# ----------------------------------------------------------------------
# Stabilizer subgroups
# ----------------------------------------------------------------------


@dataclass
class SubgroupReport:
    description: str
    order: int
    is_abelian: bool
    fixes_unital: bool
    commutator_witness: tuple | None = None


def _first_noncommuting(plane: ShiftPlane, u, w) -> tuple | None:
    """The first pair (i, j), i < j, in element order whose shears do not
    commute, or None.

    By the composition law (sigma_compose) sigma_i sigma_j = sigma_j sigma_i
    iff pol(w_i, u_j) = pol(w_j, u_i), so one D x D comparison over the D
    distinct (u, w) values decides every pair.
    """
    keys, cls = np.unique(u * plane.N + w, return_inverse=True)
    pol = polarization(plane.spec, keys[:, None] % plane.N, keys // plane.N)
    bad = pol != pol.T                              # bad[a, b]: classes a, b clash
    last = np.zeros(len(keys), dtype=np.int64)      # last element of each class
    np.maximum.at(last, cls, np.arange(len(u)))
    # element k clashes with a later one iff its class clashes with a class
    # whose last element comes after k
    later = np.where(bad, last, -1).max(axis=1)[cls] > np.arange(len(u))
    if not later.any():
        return None
    i = int(np.argmax(later))
    return i, i + 1 + int(np.argmax(bad[cls[i], cls[i + 1:]]))


def sigma_stabilizer_report(unital: Unital) -> SubgroupReport:
    """The natural shear-translation stabilizer of the unital.

    Parabolic: {(u, v, 0) : v in theta*F_q}, expected abelian of order q^3.
    Polarity: {(u, v, u+conj(u)) : f(u+conj(u)) = -(v+conj(v))}, expected
    non-abelian of order q^3.  Elements are ordered by u, then v; the first
    that moves the unital raises ElementDoesNotFix.

    Commutation is exhaustive at every size: two shears commute iff
    pol(w1, u2) = pol(w2, u1), so the distinct (u, w) values decide every
    pair.  The witness is the first non-commuting pair (i, j), i < j, in
    element order, as ((u, v, w), (u, v, w)).
    """
    plane = unital.plane
    ctx, N = plane.ctx, plane.N
    X = np.arange(N, dtype=np.int64)
    if unital.theta is not None:
        ys = parabolic_y_values(plane, unital.theta)
        u, v = np.repeat(X, len(ys)), np.tile(ys, N)
        w = np.zeros_like(u)
        desc = "shear stabilizer of the parabolic unital (w = 0, v in theta*F_q)"
    elif unital.kappa is not None:
        tr = np.asarray(ctx.add(X, unital.kappa.table(plane)))     # x + conj(x)
        v, counts = trace_fibres(tr, np.asarray(ctx.neg(plane.f[tr])))
        u = np.repeat(X, counts)
        w = tr[u]
        desc = "shear stabilizer of the polarity unital (w = u+conj(u))"
    else:
        raise HypothesisUnmet("unital carries neither theta nor kappa provenance")
    params = np.stack([u, v, w], axis=1)
    moved = ~_fixing(unital, u, v, w)
    if moved.any():
        g = tuple(params[np.argmax(moved)].tolist())
        raise ElementDoesNotFix(f"sigma{g} moves the unital")
    pair = _first_noncommuting(plane, u, w)
    witness = None if pair is None else tuple(tuple(params[k].tolist()) for k in pair)
    return SubgroupReport(desc, len(params), witness is None, True, witness)


def verify_sigma_composition(plane: ShiftPlane) -> dict:
    """Exhaustively verify the composition law over all N^6 parameter pairs
    from its 3m generators (docs/ORBITS.md, section 11).

    One table holds T[b] = Sigma(b).apply_point of the affine and slope
    points for every parameter triple b.  For each generator s = (e_i, 0, 0),
    (0, e_i, 0), (0, 0, e_i), e_i = p^i, and every b, Sigma(s) after
    Sigma(b), T[s][T[b]], must equal T[s*b] on every point, with s*b the
    law's composite, whose w1*u is read by polarization.  The
    Dembowski-Ostrom test, checked first, proves the polarization
    symmetric and biadditive, so the law is associative: the
    triples a with Sigma(a) Sigma(b) = Sigma(a*b) for all b are closed
    under it and, holding the generators, are all the triples.  Raises
    FamilyMismatch off Dembowski-Ostrom planes and UsageError past
    SIGMA_TABLE_MAX_ENTRIES, both before the table is allocated, and
    CompositionLawFailed naming the generator, the inner triple and the
    first point where the maps differ.
    """
    if not plane.spec.is_dembowski_ostrom:
        raise FamilyMismatch("sigma collineations need a Dembowski-Ostrom plane")
    ctx, N = plane.ctx, plane.N
    n3, P = N ** 3, N * N + N
    if n3 * P > SIGMA_TABLE_MAX_ENTRIES:
        raise UsageError(f"the composition law needs <= {SIGMA_TABLE_MAX_ENTRIES} "
                         f"image table entries (q <= 5), got N^3 (N^2 + N) = {n3 * P}")
    pids = np.arange(P)                     # the affine and slope points
    table = np.empty((n3, P), dtype=np.min_scalar_type(P - 1))
    for rows in id_batches(n3, P):
        u, v, w = np.unravel_index(rows, (N, N, N))
        table[rows] = Sigma(plane, u[:, None], v[:, None], w[:, None]).apply_point(pids)
    gens = [g for e in ctx.pow_p.tolist() for g in ((e, 0, 0), (0, e, 0), (0, 0, e))]
    u, v, w = np.unravel_index(np.arange(n3), (N, N, N))
    for u1, v1, w1 in gens:
        outer = table[(u1 * N + v1) * N + w1]
        # s*b per the composition law, with s = (u1, v1, w1) outer
        star = polarization(plane.spec, w1, u)         # 2 w1*u
        comp = ((ctx.add(u, u1) * N + ctx.sub(ctx.add(v, v1), star)) * N
                + ctx.add(w, w1))
        for rows in id_batches(n3, P):
            seq, want = outer[table[rows]], table[comp[rows]]
            if not np.array_equal(seq, want):
                r, k = np.unravel_index(np.argmax(seq != want), seq.shape)
                b = tuple(int(a[rows[r]]) for a in (u, v, w))
                c = np.unravel_index(comp[rows[r]], (N, N, N))
                raise CompositionLawFailed(
                    f"composition law fails for generator sigma{(u1, v1, w1)} after "
                    f"sigma{b}: the composite sigma{tuple(map(int, c))} differs at "
                    f"point {k}")
    return {"pairs_checked": n3 * n3, "generators": len(gens),
            "images_compared": len(gens) * n3 * P, "biadditivity": "exhaustive",
            "symmetry": "exhaustive"}


def shift_stabilizer_report(unital: Unital) -> SubgroupReport:
    """Order of the translation subgroup fixing the unital setwise: p^r for
    the r basis elements of unital.translation_group, each certified by one
    image check of every point."""
    return SubgroupReport("translation stabilizer", unital.translation_group.order,
                          True, True, None)


# ----------------------------------------------------------------------
# Invariant profiles
# ----------------------------------------------------------------------


@dataclass
class InvariantProfile:
    point_count: int
    block_size: int
    block_count: int
    onan_total: int
    onan_point_histogram: tuple      # ((configurations through a point, points), ...)
    strong_vertex_count: int
    line_spectrum: tuple             # embedding-level: ((size, lines), ...)

    def design_fields(self) -> dict:
        """Every field but the embedding-level line spectrum."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "line_spectrum"}


def _histogram(values: np.ndarray) -> tuple:
    """((value, multiplicity), ...) in ascending value."""
    vals, mult = np.unique(values, return_counts=True)
    return tuple((int(a), int(b)) for a, b in zip(vals, mult))


def invariant_profile(unital: Unital) -> InvariantProfile:
    """Design parameters, O'Nan statistics, strong-vertex count and the
    line intersection spectrum, each computed in full.  The per-point
    invariants are read at the translation-orbit representatives and
    carried to every point through its orbit label: the translations that
    fix U are design automorphisms, so the number of configurations
    through a point (listed by _configs_through, never kept) and whether
    it is a strong vertex are constant on orbits.  The O'Nan total is the
    sum of the counts over the points / 6.  The DesignIndex comes first,
    so that its size limit refuses a unital past q = 9 before anything is
    built."""
    idx = DesignIndex(unital)
    label = unital.translation_group.point_orbits(unital.points)[0]
    through = np.zeros(len(label), dtype=np.int64)
    strong = np.zeros(len(label), dtype=bool)
    for R in np.flatnonzero(label == np.arange(len(label))).tolist():
        through[R] = sum(len(blocks) for blocks, _ in _configs_through(idx, R))
        strong[R] = wilbrink_vertex_check(unital, int(unital.points[R]), index=idx).strong
    per_point = through[label]
    return InvariantProfile(idx.n, idx.q + 1, idx.B, int(per_point.sum()) // 6,
                            _histogram(per_point), int(strong[label].sum()),
                            _histogram(line_intersection_counts(unital)))


def compare_profiles(p1: InvariantProfile, p2: InvariantProfile):
    """(verdict, reasons): NON-ISOMORPHIC when a design-intrinsic field
    differs, INCONCLUSIVE otherwise."""
    d2 = p2.design_fields()
    reasons = [f"{key}: {v1} vs {d2[key]}" for key, v1 in p1.design_fields().items()
               if v1 != d2[key]]
    return ("NON-ISOMORPHIC" if reasons else "INCONCLUSIVE"), reasons
