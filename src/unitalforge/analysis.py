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
from dataclasses import dataclass
from functools import cached_property
from math import gcd

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
)
from .plane import ShiftPlane, Sigma, id_batches
from .planar import polarization
from .unital import Unital, _fixing, beta_of, parabolic_y_values, phi_table

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
    "SubgroupReport",
    "sigma_stabilizer_report",
    "verify_sigma_composition",
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
    theta = ctx.index_of(theta)
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
    a, beta = ctx.index_of(a), ctx.index_of(beta)
    if beta == 0 or not split.in_subfield(beta):
        raise ZeroBeta(f"beta must be a nonzero subfield element, got {beta}")
    phi = _checked_phi(unital)
    members = np.flatnonzero(ctx.translate(phi, a) == beta)
    if len(members) != unital.q + 1:
        raise ZeroBeta(f"circle ({a}, {beta}) has {len(members)} members")
    return Circle(a, beta, tuple(int(m) for m in members),
                  derive_delta(split, unital.theta))


# meet holds N q^2 = q^4 int64 counts: 4 MB at q = 27, 63 MB at q = 53,
# 97 MB at q = 59, 344 MB at q = 81.  So q <= 53 passes and q >= 59 is
# refused.
CIRCLE_TABLE_MAX_BYTES = 1 << 26


def _circle_ranks(unital: Unital) -> np.ndarray:
    """rank0[x], the rank of phi(x) in split.sub_elements (0 for zero and for
    values outside F_q, which lie in no circle).  Over CIRCLE_TABLE_MAX_BYTES
    of meet (q >= 59) it is a UsageError, raised before any table is built.
    """
    q = unital.q
    if 8 * q ** 4 > CIRCLE_TABLE_MAX_BYTES:
        raise UsageError(f"circle tables need 8 q^4 <= {CIRCLE_TABLE_MAX_BYTES} "
                         f"bytes, got {8 * q ** 4} at q = {q}")
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
    meet = np.empty((N, q, q), dtype=np.int64)
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
    if len(D):
        # IDs add digitwise in base p, so a - d < a first at a = the leading
        # base-p digit of d times its place value (0 for d = 0)
        lead = ctx.pow_p[np.searchsorted(ctx.pow_p, D, side="right") - 1]
        first_repeat = int(np.min(D // lead * lead * (q - 1) + s))
        return CircleDesignReport(False, first_repeat, q + 1, q, False, False)
    size_ok = bool(np.all(S == q + 1))
    partition_ok = bool(sizes[0] == 1 and rank0[0] == 0)
    lam = meet[1:, 1:, 1:].diagonal(axis1=1, axis2=2).sum(axis=1)
    passed = size_ok and partition_ok and bool(np.all(lam == q))
    return CircleDesignReport(passed, N * (q - 1), q + 1, q, partition_ok, True)


# ----------------------------------------------------------------------
# Design index: fast block-level structure for Wilbrink / O'Nan work
# ----------------------------------------------------------------------


# DesignIndex holds two int32 pair tables, common_point over B^2 block pairs
# and block_through_pair over n^2 point pairs, with B = q^4 - q^3 + q^2 and
# n = q^3 + 1: 142 MB at q = 9, 722 MB at q = 11, 1 TB at q = 27.  So q <= 9
# passes and q >= 11 is refused.
DESIGN_INDEX_MAX_BYTES = 1 << 28
_ONAN_PAIRS = 1024        # meeting block pairs per step of find_onan_exhaustive
_WILBRINK_BYTES = 1 << 21  # gathered avoid rows per batch of wilbrink_vertex_check


def _pack_rows(mask: np.ndarray) -> np.ndarray:
    """(rows, W) uint64 bitsets of a 2-d bool mask: column j is bit j % 64
    of word j // 64; the bits past the last column are 0."""
    rows, cols = mask.shape
    out = np.zeros((rows, -(-cols // 64) * 8), dtype=np.uint8)
    out[:, :-(-cols // 8)] = np.packbits(mask, axis=1, bitorder="little")
    return out.view("<u8")


def _set_bits(bits: np.ndarray):
    """(rows, columns) of the set bits of (k, W) bitsets, in row-major
    order, as np.nonzero of the unpacked mask.  Each round takes the lowest
    bit left in every nonzero word into that word's next output slot."""
    words = np.flatnonzero(bits)
    w = bits.ravel()[words]
    counts = np.bitwise_count(w)
    slot = np.cumsum(counts, dtype=np.int64)
    pos = np.empty(slot[-1] if len(slot) else 0, dtype=np.int64)
    slot -= counts
    base = words * 64
    while len(w):
        low = w & (~w + 1)
        pos[slot] = base + np.bitwise_count(low - 1)
        w ^= low
        left = np.flatnonzero(w)
        w, slot, base = w[left], slot[left] + 1, base[left]
    return np.divmod(pos, bits.shape[1] * 64)


class DesignIndex:
    """Block-level lookup tables over `unital.blocks`.

    Over DESIGN_INDEX_MAX_BYTES of pair tables (q >= 11) it is a UsageError,
    raised from the closed forms before the blocks are built.  Raises
    PairCoverageViolation unless every point lies on q^2 blocks, as the
    per-point tables need."""

    def __init__(self, unital: Unital):
        q = unital.q
        n_blocks, n_points = q ** 4 - q ** 3 + q ** 2, q ** 3 + 1
        if 4 * (n_blocks ** 2 + n_points ** 2) > DESIGN_INDEX_MAX_BYTES:
            raise UsageError(f"DesignIndex needs <= {DESIGN_INDEX_MAX_BYTES} bytes of "
                             f"pair tables (q <= 9), got q = {q}")
        self.unital = unital
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
        tbl = np.full((self.n, self.n), -1, dtype=np.int32)
        ii, jj = np.nonzero(~np.eye(self.q + 1, dtype=bool))   # off-diagonal
        tbl[self.block_points[:, ii], self.block_points[:, jj]] = \
            np.arange(self.B)[:, None]
        return tbl

    @cached_property
    def common_point(self) -> np.ndarray:
        """(B, B) the shared point rank of two meeting blocks, else -1."""
        cp = np.full((self.B, self.B), -1, dtype=np.int32)
        ii, jj = np.nonzero(~np.eye(self.q ** 2, dtype=bool))
        cp[self.blocks_by_point[:, ii], self.blocks_by_point[:, jj]] = \
            np.arange(self.n)[:, None]
        return cp

    @property
    def meets(self) -> np.ndarray:
        """(B, B) boolean: blocks sharing a point, built afresh per read."""
        return self.common_point >= 0

    @cached_property
    def meets_bits(self) -> np.ndarray:
        """(B, W) bitsets of `meets` (see _pack_rows)."""
        return _pack_rows(self.common_point >= 0)

    @cached_property
    def after_bits(self) -> np.ndarray:
        """(B, W) bitsets: row b holds the blocks after b."""
        b = np.arange(self.B)
        return _pack_rows(b > b[:, None])

    @cached_property
    def avoid_bits(self) -> np.ndarray:
        """(n, W) bitsets: row P holds the blocks not through point rank P."""
        avoid = np.ones((self.n, self.B), dtype=bool)
        avoid[np.arange(self.n)[:, None], self.blocks_by_point] = False
        return _pack_rows(avoid)


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
    v = int(np.searchsorted(unital.points, point_id))
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
    verifies this on the line sections, find_onan_exhaustive by its lemma.
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


def find_onan_through_infinity(unital: Unital, max_configs: int = 64):
    """Search for configurations containing the infinity point.

    One exists iff circles C(a, beta) and C(0, beta') share >= 3 elements
    for some a != 0 (translation reduces the second circle's shift to 0).
    Returns (list of verified configs, list of raw circle-pair hits
    (a, beta, beta', |C(a, beta) & C(0, beta')|) as tuples of ints).

    The meet table of _circle_meets holds every intersection size
    |C(a, beta_s) & C(0, beta_t)|; outside its a = 0 and rank-0 slices the
    hits are the cells with count >= 3, in (a, beta, beta') order.

    Every hit is recorded, but configurations are assembled only until
    `max_configs` of them are found: with the default cap of 64 the
    returned count is that cap, not a count of all configurations.  At
    Coulter-Matthews q=9 the 288 hits give 288 distinct configurations
    once the cap is lifted.  Raises ProvenanceMismatch when the points are
    not the parabolic set of the unital's theta.
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
        if len(configs) >= max_configs:
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


def construct_onan_explicit(unital: Unital, a_v: int | None = None,
                            a_w: int | None = None) -> OnanConfig:
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
    if a_v is not None and a_w is not None:
        av, aw = np.array([int(a_v)]), np.array([int(a_w)])
    else:
        av, aw = (g.ravel() for g in np.meshgrid(sub_elems[1:], sub_elems[1:],
                                                 indexing="ij"))
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
    """Read-only sequence of OnanConfig over the (count, 4) block and
    (count, 6) point ID arrays of a search; each item is made when read
    and holds Python ints.  Slices are views too, and a view equals another
    view or a list with the same configurations in the same order."""

    _CHUNK = 4096                    # rows converted per step of iteration

    def __init__(self, block_ids: np.ndarray, point_ids: np.ndarray):
        self._blocks, self._points = block_ids, point_ids

    def __len__(self) -> int:
        return len(self._blocks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return OnanConfigs(self._blocks[i], self._points[i])
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError(f"configuration {i} of {len(self)}")
        return OnanConfig(tuple(self._blocks[i].tolist()),
                          tuple(self._points[i].tolist()))

    def __iter__(self):
        for start in range(0, len(self), self._CHUNK):
            stop = start + self._CHUNK
            for bl, pt in zip(self._blocks[start:stop].tolist(),
                              self._points[start:stop].tolist()):
                yield OnanConfig(tuple(bl), tuple(pt))

    def __eq__(self, other):
        if isinstance(other, OnanConfigs):
            return (np.array_equal(self._blocks, other._blocks)
                    and np.array_equal(self._points, other._points))
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

    block_ids (count, 4) holds the ascending carrier-line IDs of the four
    blocks and point_ids (count, 6) the ascending IDs of the six points,
    both int64; `configs` reads the rows as OnanConfig objects.
    """

    block_ids: np.ndarray
    point_ids: np.ndarray
    complete: bool
    examined: int

    @property
    def count(self) -> int:
        return len(self.block_ids)

    @property
    def configs(self) -> OnanConfigs:
        return OnanConfigs(self.block_ids, self.point_ids)


def _take_rows(table: np.ndarray, parts: list, width: int) -> np.ndarray:
    """table[np.concatenate(parts)], (rows, width), filled part by part with
    no concatenated copy of the parts."""
    out = np.empty((sum(len(part) for part in parts), width), dtype=table.dtype)
    row = 0
    for part in parts:
        np.take(table, part, out=out[row:row + len(part)])
        row += len(part)
    return out


def find_onan_exhaustive(unital: Unital, budget: int | None = None,
                         index: DesignIndex | None = None) -> OnanSearchResult:
    """All configurations, from the design index tables alone (q <= 5).

    Examined are the pairwise meeting blocks b1 < b2 < b3 < b4 whose first
    three meet in three distinct points, the vertices P12, P13, P23 of a
    triangle, once each, in lexicographic order.  Lemma: such a quadruple
    is a configuration iff b4 passes through no vertex.  Two blocks share
    at most one point.  A b4 that meets all three blocks and passes through
    no vertex meets them in three distinct points: any coincidence of two
    of those points would lie on two of b1, b2, b3, so it would be a
    vertex.  A b4 through a vertex meets both blocks of that vertex there,
    so it repeats a meet.  The six points of a configuration are distinct,
    and each block holds exactly its three.  With more than `budget`
    quadruples, the result holds the configurations among the first
    `budget`, examined == budget and complete=False.

    The pass runs on the packed bitsets of the index, a chunk of meeting
    pairs b1 < b2 at a time.  The third blocks of a pair are
    meets[b1] & meets[b2] & after[b2] & avoid[P12]; for a triangle,
    M = meets[b1] & meets[b2] & meets[b3] & after[b3] holds the fourth
    blocks examined, and M & avoid[P12] & avoid[P13] & avoid[P23] the
    configurations.  The configurations come back as two int64 arrays in
    the order they are examined (see OnanSearchResult); no Python object is
    built per configuration.
    """
    idx = index or DesignIndex(unital)
    cp, meets, avoid = idx.common_point, idx.meets_bits, idx.avoid_bits
    later = meets & idx.after_bits           # the blocks after b that meet b
    quads, sixes = [], []                    # int32 block indices, point ranks
    examined = 0
    complete = True
    pairs_1, pairs_2 = _set_bits(later)      # meeting pairs b1 < b2, in order
    for start in range(0, len(pairs_1), _ONAN_PAIRS):
        b1 = pairs_1[start:start + _ONAN_PAIRS]
        b2 = pairs_2[start:start + _ONAN_PAIRS]
        both = np.take(meets, b1, axis=0)    # after b2, meeting b1 and b2
        both &= np.take(later, b2, axis=0)
        third = np.take(avoid, cp[b1, b2], axis=0)
        third &= both
        r, b3 = _set_bits(third)             # triangles (b1[r], b2[r], b3)
        b1, b2 = b1[r], b2[r]
        p12, p13, p23 = cp[b1, b2], cp[b1, b3], cp[b2, b3]
        fourth = np.take(both, r, axis=0)    # M of each triangle
        fourth &= np.take(later, b3, axis=0)
        seen = np.bitwise_count(fourth)
        n_seen = int(seen.sum())
        cfg = np.take(avoid, p13, axis=0)
        cfg &= np.take(avoid, p23, axis=0)
        cfg &= np.take(third, r, axis=0)
        cfg &= fourth
        t, b4 = _set_bits(cfg)
        if budget is not None and examined + n_seen > budget:
            n_seen = max(int(budget) - examined, 0)
            cum = np.cumsum(seen.sum(axis=1))
            cut = int(np.searchsorted(cum, n_seen, side="right"))  # triangles wholly in
            keep = n_seen - (int(cum[cut - 1]) if cut else 0)      # b4 kept in triangle `cut`
            last = _set_bits(fourth[cut:cut + 1])[1][keep - 1] if keep else -1
            kept = (t < cut) | ((t == cut) & (b4 <= last))
            t, b4 = t[kept], b4[kept]
            complete = False
        examined += n_seen
        b1, b2, b3 = b1[t], b2[t], b3[t]
        quads.append(np.stack([b1, b2, b3, b4], axis=1, dtype=np.int32))
        sixes.append(np.sort(np.stack([p12[t], p13[t], p23[t], cp[b1, b4],
                                       cp[b2, b4], cp[b3, b4]], axis=1), axis=1))
        if not complete:
            break
    # both tables are int64: line IDs from flatnonzero, points as Unital keeps them
    block_ids = _take_rows(idx.block_lines, quads, 4)
    del quads                    # freed before point_ids is allocated
    point_ids = _take_rows(unital.points, sixes, 6)
    return OnanSearchResult(block_ids, point_ids, complete, examined)


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
        rhs = np.asarray(ctx.neg(plane.f[tr]))                      # indexed by u
        u, v = np.nonzero(rhs[:, None] == tr[None, :])
        w = tr[u]
        desc = "shear stabilizer of the polarity unital (w = u+conj(u))"
    else:
        raise HypothesisUnmet("unital carries neither theta nor kappa provenance")
    if not plane.spec.is_dembowski_ostrom:
        raise FamilyMismatch("sigma collineations need a Dembowski-Ostrom plane")
    params = np.stack([u, v, w], axis=1)
    moved = ~_fixing(unital, u, v, w)
    if moved.any():
        g = tuple(params[np.argmax(moved)].tolist())
        raise ElementDoesNotFix(f"sigma{g} moves the unital")
    pair = _first_noncommuting(plane, u, w)
    witness = None if pair is None else tuple(tuple(params[k].tolist()) for k in pair)
    return SubgroupReport(desc, len(params), witness is None, True, witness)


def verify_sigma_composition(plane: ShiftPlane) -> dict:
    """Exhaustively verify the composition law over all parameter pairs.

    For each pair (g1, g2) the maps themselves are applied: g1 after g2 must
    send the probe points (0,0) and slope(0) where the Sigma of the
    composite parameters given by the law sends them.  The probes recover
    (u, v, w) of any shear-translation, so together with the exhaustively
    verified symmetry and biadditivity of the star table, probe agreement
    forces functional equality on every point of the plane.  Raises
    FamilyMismatch off Dembowski-Ostrom planes, CompositionLawFailed when a
    check fails.
    """
    if not plane.spec.is_dembowski_ostrom:
        raise FamilyMismatch("sigma collineations need a Dembowski-Ostrom plane")
    ctx, N = plane.ctx, plane.N
    star = plane.spec.polarization_table    # star[w, x] = 2 w*x
    X = np.arange(N, dtype=np.int64)
    if not np.array_equal(star, star.T):
        raise CompositionLawFailed("star table is not symmetric")
    for w in range(N):
        row = star[w]
        lhs = row[np.asarray(ctx.add(X[:, None], X[None, :]))]
        rhs = np.asarray(ctx.add(row[X[:, None]], row[X[None, :]]))
        if not np.array_equal(lhs, rhs):
            raise CompositionLawFailed(f"star biadditivity fails at w={w}")
    n3 = N ** 3
    u, v, w = np.unravel_index(np.arange(n3, dtype=np.int64), (N, N, N))
    # the probe images under every Sigma, in parameter order: those of the
    # inner maps g2 and of the composites
    probes = Sigma(plane, u[:, None], v[:, None], w[:, None]).apply_point(
        np.array([0, N * N]))
    pids = np.arange(N * N + N)             # the affine and slope points
    pairs_checked = 0
    for rows in id_batches(n3, n3):
        u1, v1, w1 = u[rows, None], v[rows, None], w[rows, None]
        outer = Sigma(plane, u1, v1, w1).apply_point(pids)
        seq = outer[np.arange(len(rows))[:, None, None], probes]
        # composite parameters per the composition law
        u3 = np.asarray(ctx.add(u, u1))
        v3 = np.asarray(ctx.sub(ctx.add(v, v1), star[w1, u]))
        w3 = np.asarray(ctx.add(w, w1))
        if not np.array_equal(seq, probes[(u3 * N + v3) * N + w3]):
            raise CompositionLawFailed("composition law fails on the probe points")
        pairs_checked += u3.size
    return {"pairs_checked": pairs_checked, "biadditivity": "exhaustive",
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
    onan_total: int | None = None
    onan_point_histogram: tuple | None = None
    strong_vertex_count: int | None = None
    line_spectrum: tuple = ()        # embedding-level: ((size, lines), ...)

    def design_fields(self) -> dict:
        return {
            "point_count": self.point_count,
            "block_size": self.block_size,
            "block_count": self.block_count,
            "onan_total": self.onan_total,
            "onan_point_histogram": self.onan_point_histogram,
            "strong_vertex_count": self.strong_vertex_count,
        }


def invariant_profile(unital: Unital, with_onan: bool = True,
                      with_wilbrink: bool = True) -> InvariantProfile:
    """Design parameters, O'Nan statistics, strong-vertex count, and the
    line intersection spectrum.  O'Nan and Wilbrink sweeps run only when
    requested; the O'Nan search is meant for q <= 5, the strong-vertex
    sweep runs to q = 9.  The DesignIndex comes first, so that its size
    limit refuses a large unital before anything is built."""
    from .unital import line_intersection_counts

    idx = DesignIndex(unital)
    counts = line_intersection_counts(unital)
    vals, mult = np.unique(counts, return_counts=True)
    spectrum = tuple((int(a), int(b)) for a, b in zip(vals, mult))
    profile = InvariantProfile(idx.n, idx.q + 1, idx.B, line_spectrum=spectrum)
    if with_onan:
        result = find_onan_exhaustive(unital, index=idx)
        ranks = np.searchsorted(unital.points, result.point_ids)
        per_point = np.bincount(ranks.ravel(), minlength=len(unital.points))
        histo_vals, histo_mult = np.unique(per_point, return_counts=True)
        profile.onan_total = result.count
        profile.onan_point_histogram = tuple(
            (int(a), int(b)) for a, b in zip(histo_vals, histo_mult))
    if with_wilbrink:
        strong = 0
        for pid in unital.points:
            rep = wilbrink_vertex_check(unital, int(pid), strong=True, index=idx)
            strong += rep.strong
        profile.strong_vertex_count = strong
    return profile


def compare_profiles(p1: InvariantProfile, p2: InvariantProfile):
    """(verdict, reasons): NON-ISOMORPHIC when a design-intrinsic field
    differs, INCONCLUSIVE otherwise."""
    reasons = []
    for key, v1 in p1.design_fields().items():
        v2 = p2.design_fields()[key]
        if v1 is not None and v2 is not None and v1 != v2:
            reasons.append(f"{key}: {v1} vs {v2}")
    return ("NON-ISOMORPHIC" if reasons else "INCONCLUSIVE"), reasons
