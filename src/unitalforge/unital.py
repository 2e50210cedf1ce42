"""Construction and certification of unitals embedded in shift planes.

A unital of order q in a plane of order q^2 is a set of q^3 + 1 points met
by every line in 1 or q+1 points; its blocks (the (q+1)-point line sections)
form a 2-(q^3+1, q+1, 1) design.  This module builds

  * the parabolic point sets {(x, t*theta)} + infinity, certified through
    the fiber-count histogram of theta_1 f_0 - theta_0 f_1,
  * general data-driven point sets {(x, g_x(t))} certified by solution
    counting,
  * absolute-point unitals of unitary polarities (x -> x^q or the xi-sign
    conjugation), including the classical comparison unital in the
    square-map plane,

plus the self-duality switch, oval decompositions and scaling-orbit
partitions used by the analysis layer.  Certification sweeps are direct
incidence counts, independent of the histogram shortcut that motivates the
construction, so each route checks the other.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConditionAFailed,
    ConditionBFailed,
    ConditionCFailed,
    CountViolation,
    HypothesisFailed,
    HypothesisUnmet,
    IntersectionViolation,
    InvalidPointSet,
    NotInjective,
    NotNormal,
    NotPolarity,
    PairCoverageViolation,
    ProvenanceMismatch,
    SwitchMismatch,
    UsageError,
    ZeroTheta,
    require_index,
    require_mode,
    require_trials,
)
from .plane import (BATCH, Gamma, Shift, ShiftPlane, Sigma, _check_flags, _TableMap,
                    id_batches, point_id_dtype)

__all__ = [
    "Unital",
    "TranslationGroup",
    "Check",
    "InvolutionSpec",
    "check_parabolic_hypothesis",
    "build_parabolic_unital",
    "build_general_unital",
    "verify_unital_embedded",
    "verify_design",
    "verify_polarity",
    "build_polarity_unital",
    "build_classical_baseline",
    "dual_unital",
    "tangent_line_ids",
    "ovals_decomposition",
    "gamma_orbit_partition",
    "write_unital_file",
    "read_unital_file",
]

# Up to this many plane points, contains reads a point mask, else the sorted
# points.  Sorted lookup alone took certify-exhaustive from 0.153 to 0.196 s
# wall and 0.096 to 0.135 s slowest op (medians of 6 alternating benchmark
# runs, 2-core VM) for 1.5 MB less peak RSS.
_MASK_LIMIT = 1 << 24
_WRITE_BLOCK = 1 << 16    # point IDs formatted into one write by write_unital_file
_READ_CHUNK = 1 << 16     # bytes of ID lines parsed at once by read_unital_file
_MAX_ID_DIGITS = 18       # the longest ID line read; 19 digits could overflow int64
_UINT32_DIGITS = 9        # digits that always fit a uint32: 10^9 - 1 < 2^32
_QUOTE_BYTES = 24         # of a malformed ID line quoted in its error, longer than any ID
_PRUNE_POINTS = 64        # most points moved out of U that a rejected translation prunes by

# verify_design counts every point pair in one bincount over n^2 codes, n =
# q^3 + 1, 8 bytes each: 4.3 MB at q = 9, 134 MB at this limit, 3.1 GB at
# q = 27.  So q <= 13 passes and q >= 17 is refused.
DESIGN_MAX_PAIR_CODES = 1 << 24

# the exhaustive line pass holds one int64 count per line, n_lines = q^4 +
# q^2 + 1 of them: 111 MB at q = 61, 161 MB at q = 67, 344 MB at q = 81.
# So q <= 61 passes and q >= 67 is refused.
LINE_PASS_MAX_BYTES = 1 << 27


@dataclass
class Check:
    name: str
    mode: str
    status: str                      # "pass" | "fail"
    witness: object = None

    def as_dict(self):
        d = {"name": self.name, "mode": self.mode, "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


class Unital:
    """A certified point set of size q^3 + 1 with the table of its blocks.

    `points` is the ascending array of canonical point IDs in the plane's
    `id_dtype` (uint32 up to q = 255).  An array of that dtype that already
    ascends strictly is kept as it is, with no copy.  Any other array is
    sorted and checked in its own dtype, then narrowed, so an ID outside
    the plane is reported and never wraps into range.  Routines compute on
    the IDs in int64, a bounded batch at a time.  `blocks` lists each block
    as point ranks, by secant line ID.

    `theta` (parabolic) and `kappa` (polarity) are read from `provenance`
    alone, by parse_provenance; each is None unless the tag names it, and a
    malformed tag is a UsageError.  The theta shortcuts check the points
    against the tag before they answer (theta_y_values).
    """

    def __init__(self, plane: ShiftPlane, points: np.ndarray, provenance: str):
        self.theta, self.kappa = parse_provenance(provenance, plane.N)
        self.plane = plane
        self.q = plane.split.sub_size
        points = np.asarray(points)
        if points.dtype.kind not in "iu":
            points = points.astype(np.int64)
        # strictly ascending IDs cannot repeat; sorted IDs repeat iff two
        # neighbours agree
        repeat = _first_non_increase(points)
        if repeat >= 0:
            points = np.sort(points)
            repeat = _first_non_increase(points)
        self._check_points(points, repeat)
        self.points = points.astype(plane.id_dtype, copy=False)
        self.provenance = provenance
        self.checks: list[Check] = []

    def _check_points(self, pts: np.ndarray, repeat: int):
        n = self.plane.n_points
        if len(pts) != self.q ** 3 + 1:
            raise InvalidPointSet(f"expected {self.q ** 3 + 1} points, got {len(pts)}")
        if pts[0] < 0 or pts[-1] >= n:
            bad = int(pts[0] if pts[0] < 0 else pts[-1])
            raise InvalidPointSet(f"point ID {bad} outside [0, {n})")
        if repeat >= 0:
            raise InvalidPointSet(f"point ID {int(pts[repeat])} listed twice")

    # -- membership --

    @cached_property
    def point_mask(self) -> np.ndarray:
        if self.plane.n_points > _MASK_LIMIT:
            raise UsageError("plane too large for a full point mask")
        mask = np.zeros(self.plane.n_points, dtype=bool)
        mask[self.points] = True
        return mask

    def ranks(self, pids) -> np.ndarray:
        """np.searchsorted(points, pids): the rank of each member ID.  The
        IDs are cast to the table's dtype first, as a search with needles
        of another dtype copies the whole table to their common dtype."""
        needles = np.asarray(pids).astype(self.points.dtype, copy=False)
        return np.searchsorted(self.points, needles)

    def contains(self, pids):
        if self.plane.n_points <= _MASK_LIMIT:
            return self.point_mask[pids]
        # compared with pids as given, so an ID that the cast wrapped is no member
        return self.points[np.minimum(self.ranks(pids), len(self.points) - 1)] == pids

    @cached_property
    def theta_y_values(self) -> np.ndarray | None:
        """The y-set {t*theta} of a theta-carrying unital, once its points are
        checked to be exactly {(x, t*theta)} + infinity; None without theta.

        The theta shortcuts below answer from this set, so a point set that
        differs from it (a tampered file, say) raises ProvenanceMismatch.
        """
        if self.theta is None:
            return None
        plane, N = self.plane, self.plane.N
        ys = parabolic_y_values(plane, self.theta)
        rows = self.points[:-1].reshape(N, len(ys))
        # row x must read x*N + ys: a slice of rows from s on must equal the
        # first rows of one fixed int64 block plus s*N, which is added to the
        # block, not subtracted from the rows, where it could wrap
        step = min(N, max(1, BATCH // len(ys)))
        block = (np.arange(step, dtype=np.int64) * N)[:, None] + ys
        if not (self.points[-1] == plane.infinity_id and all(
                np.array_equal(rows[s:s + step], block[:min(step, N - s)] + s * N)
                for s in range(0, N, step))):
            raise ProvenanceMismatch(
                f"points differ from the parabolic set of theta={self.theta}")
        return ys

    @cached_property
    def shifted_counts_by_b(self) -> np.ndarray | None:
        """|L(a, b) ∩ U| for a parabolic set, which depends only on b.

        Substituting z = x + a turns the member count #{x : f(x+a) - b in
        Y} into #{z : f(z) in b + Y}, Y the y-set, so the f-value histogram
        summed over b + Y counts every graph line.  Y = theta*F_q is an
        F_p-space, so that sum is n sums of p translates, one along each
        basis element (docs/ORBITS.md, "Graph-line counts of a parabolic set
        by coset sums").
        """
        if self.theta_y_values is None:
            return None
        plane = self.plane
        ctx = plane.ctx
        # zeta = g^(q+1) generates F_q^*, so 1, zeta, ..., zeta^(n-1) span F_q
        basis = ctx.mul(self.theta, ctx.exp[(self.q + 1) * np.arange(plane.split.sub_degree)])
        counts = np.bincount(plane.f, minlength=plane.N)
        for e in basis.tolist():
            total, shifted = counts.copy(), counts
            for _ in range(ctx.p - 1):
                shifted = ctx.translate(shifted, e)
                total += shifted
            counts = total
        return counts

    # -- line sections --

    def line_counts(self, lids) -> np.ndarray:
        """|line ∩ U| for each line ID, by direct membership counting.

        Parabolic sets answer from their checked structure: a graph line
        from the per-b count table, a vertical from its q y-values plus
        infinity, L_inf from infinity alone.
        """
        plane, N = self.plane, self.plane.N
        lids = np.asarray(lids, dtype=np.int64).reshape(-1)
        if self.theta_y_values is not None:
            graph = lids < N * N
            counts = np.full(len(lids), len(self.theta_y_values) + 1, dtype=np.int64)
            counts[graph] = self.shifted_counts_by_b[lids[graph] % N]
            counts[lids == plane.at_infinity_id] = 1
            return counts
        counts = np.empty(len(lids), dtype=np.int64)
        for idx in id_batches(len(lids), N + 1):
            member = self.contains(plane.points_on_lines(lids[idx]))
            counts[idx] = np.count_nonzero(member, axis=1)
        return counts

    def line_section(self, lid: int) -> np.ndarray:
        pts = self.plane.points_on_line(lid)
        return pts[np.asarray(self.contains(pts))]

    @cached_property
    def translation_group(self) -> "TranslationGroup":
        """The translations that fix the point set, found and certified once
        per unital (see _translation_group)."""
        return _translation_group(self)

    @cached_property
    def _line_pass(self) -> tuple[np.ndarray, np.ndarray]:
        """The result of _line_counts, computed once per unital: (|line ∩
        U| per line ID, tangent lines through each point), both read-only.
        Every reader of the exhaustive line counts shares it.  Counts over
        LINE_PASS_MAX_BYTES are a UsageError, raised before the translation
        group is searched or anything is allocated."""
        size = 8 * self.plane.n_lines
        if size > LINE_PASS_MAX_BYTES:
            raise UsageError(f"the exhaustive line pass needs <= {LINE_PASS_MAX_BYTES} "
                             f"bytes of line counts, got {size} at q = {self.q}")
        counts, tangents = _line_counts(self)
        counts.flags.writeable = tangents.flags.writeable = False
        return counts, tangents

    @cached_property
    def secant_line_ids(self) -> np.ndarray:
        """IDs of all lines meeting the point set in q+1 points."""
        counts = line_intersection_counts(self)
        return np.flatnonzero(counts == self.q + 1)

    @cached_property
    def blocks(self) -> np.ndarray:
        """The design's blocks as a (B, q+1) int64 table of point ranks
        (indices into `points`): row k holds the q+1 points of the secant
        line secant_line_ids[k], ascending.

        Point-driven: incidence is symmetric in the IDs, (x, y) on L(a, b)
        iff (a, b) on L(x, y), so row r of points_on_lines(points) is the
        pencil of points[r].  Its secants give (rank, line) pairs in rank
        order, and a stable sort by line lists each block's ranks
        ascending."""
        counts = line_intersection_counts(self)
        pencils = self.plane.points_on_lines(self.points)
        ranks, cols = np.nonzero(counts[pencils] == self.q + 1)
        order = np.argsort(pencils[ranks, cols], kind="stable")
        return ranks[order].reshape(-1, self.q + 1)

    def record(self, check: Check):
        self.checks.append(check)

    def certificate(self, extra: dict | None = None) -> dict:
        """The fields, checks and `extra` of the unital with the SHA-256 of
        their JSON (keys sorted) with the point list: `hash`.

        The list is hashed as it streams, never held as text: the body is
        dumped with a placeholder for it and hashed up to and after it, and
        the IDs go in as _format_ids blocks, each newline made the list's
        ", " but for the last.
        """
        body = {
            "field": self.plane.ctx.descriptor(),
            "spec": self.plane.spec.spec_string(),
            "provenance": self.provenance,
            "points": "\0",
            "checks": [c.as_dict() for c in self.checks],
        }
        if extra:
            body.update(extra)
        head, tail = json.dumps(body, sort_keys=True, default=str).split(
            '"points": "\\u0000"')
        digest = hashlib.sha256(f'{head}"points": ['.encode())
        sep = b""
        for block in _format_ids(self.points):
            digest.update(sep + block[:-1].replace(b"\n", b", "))
            sep = b", "
        digest.update(f"]{tail}".encode())
        body["hash"] = digest.hexdigest()
        body.pop("points")
        return body

    def __repr__(self):
        return (f"Unital({self.provenance}, q={self.q}, "
                f"|points|={len(self.points)}, checks={len(self.checks)})")


def _first_non_increase(ids: np.ndarray) -> int:
    """The first i with ids[i + 1] <= ids[i], or -1 when ids strictly
    ascend; compared in blocks of BATCH, so no full-length temporary."""
    for start in range(0, len(ids) - 1, BATCH):
        block = ids[start:start + BATCH + 1]
        down = block[1:] <= block[:-1]
        if down.any():
            return start + int(np.argmax(down))
    return -1


def parse_provenance(tag: str, N: int) -> tuple[int | None, "InvolutionSpec | None"]:
    """(theta, kappa) of a provenance tag, the one place either is read.

    `utheta:theta=<decimal index>`, 0 < theta < N, gives theta;
    `polarity:kappa=<kind>` gives kappa; `dual:of=<tag>` gives what <tag>
    gives; any other tag gives neither.  A malformed or out-of-range theta
    or an unknown kind is a UsageError.
    """
    match = re.fullmatch(r"(?:dual:of=)*(utheta:theta|polarity:kappa)=(.*)", tag, re.S)
    if match is None:
        return None, None
    key, value = match.groups()
    if key == "polarity:kappa":
        return None, InvolutionSpec(value)
    # at most 18 digits, so int() is cheap and the bound check decides
    if re.fullmatch(r"[1-9][0-9]{0,17}", value) is None or int(value) >= N:
        raise UsageError(f"provenance theta {value!r} is not an index in [1, {N})")
    return int(value), None


# ----------------------------------------------------------------------
# Collineations fixing the point set
# ----------------------------------------------------------------------


def _fixing(unital: Unital, u, v, w=None) -> np.ndarray:
    """Which elements fix the unital: the shears sigma(u[i], v[i], w[i]) or,
    without w, the translations tau(u[i], v[i]).

    Each element is a bijection of the plane, so it maps U into U iff onto
    U.  The points are taken in id_batches, each against the elements still
    standing, so the first batch already discards most of a large
    candidate set.
    """
    kind, params = (Shift, (u, v)) if w is None else (Sigma, (u, v, w))
    alive = np.arange(len(u))
    for idx in id_batches(len(unital.points), len(u)):
        g = kind(unital.plane, *(a[alive, None] for a in params))
        alive = alive[unital.contains(g.apply_point(unital.points[idx])).all(axis=1)]
    return np.isin(np.arange(len(u)), alive)


def _moved_out(unital: Unital, c: int, d: int) -> np.ndarray:
    """The first _PRUNE_POINTS points of U, or fewer, that tau(c, d) sends
    out of U; none iff tau(c, d) fixes U.  Points go in id_batches."""
    g, out = Shift(unital.plane, c, d), []
    for idx in id_batches(len(unital.points)):
        pts = unital.points[idx]
        out.extend(pts[~unital.contains(g.apply_point(pts))][:_PRUNE_POINTS].tolist())
        if len(out) >= _PRUNE_POINTS:
            break
    return np.array(out[:_PRUNE_POINTS], dtype=np.int64)


@dataclass(frozen=True)
class TranslationGroup:
    """The translations tau(c, d): (x, y) -> (x + c, y + d) that fix a point
    set: an F_p-space of order p^r.

    `basis` holds r elements (c, d) in echelon form over the digit vector
    of (c, d), the m digits of c and then those of d: each element's first
    nonzero digit is a 1 in a place where the others have no first nonzero
    digit.  Each is a candidate checked on every point of the set, less
    multiples of the elements before it.
    """

    plane: ShiftPlane
    basis: np.ndarray             # (r, 2) int64 rows (c, d)

    @property
    def order(self) -> int:
        return self.plane.ctx.p ** len(self.basis)

    def _combinations(self, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(c, d) of the p^s combinations of the s rows of basis, identity
        first: element k is the sum of k_j times row j, where k = sum of
        k_j p^j in base p."""
        ctx = self.plane.ctx
        c = d = np.zeros(1, dtype=np.int64)
        for gc, gd in basis.tolist():
            cs, ds = [c], [d]
            for _ in range(ctx.p - 1):
                cs.append(np.asarray(ctx.add(cs[-1], gc)))
                ds.append(np.asarray(ctx.add(ds[-1], gd)))
            c, d = np.concatenate(cs), np.concatenate(ds)
        return c, d

    def elements(self) -> tuple[np.ndarray, np.ndarray]:
        """(c, d) of every element tau(c, d), identity first."""
        return self._combinations(self.basis)

    def slope_lifts(self) -> tuple[np.ndarray, np.ndarray]:
        """(c, d): one element tau(c, d) for each c in the projection C of
        the group onto its first coordinate, c distinct, identity first.

        The basis elements with c != 0 lead in a digit of c, so their c
        parts are independent and, as the others have c = 0, span C; their
        p^s combinations give each c of C once.
        """
        return self._combinations(self.basis[self.basis[:, 0] != 0])

    def point_orbits(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(label, image) over the ranks of a point set that the group fixes.

        image[g, r] is the rank of element g of elements() applied to
        points[r]; label[r] is the least rank in the orbit of r, so the
        representatives are flatnonzero(label == arange(n)).
        """
        c, d = self.elements()
        ids = Shift(self.plane, c[:, None], d[:, None]).apply_point(points)
        image = np.searchsorted(points, ids.astype(points.dtype, copy=False))
        return image.min(axis=0), image


def _translation_group(unital: Unital) -> TranslationGroup:
    """The translation stabilizer of the unital's points, by a greedy
    F_p-basis (docs/ORBITS.md).

    A translation fixing U maps the first affine point (x0, y0) of U into
    U, so the candidates are (x - x0, y - y0) over U's affine points (every
    translation when U has none).  They go in order: one in the span of
    the basis so far fixes U, since the stabilizer is a group; one outside
    it is checked on every point of U and, if it fixes U, joins the basis
    less its part in the span.  Otherwise the points it moves out of U
    discard, by one image check, every candidate that moves one of them,
    itself included.  The span then holds every candidate that fixes U, so
    it is the stabilizer.
    """
    plane = unital.plane
    ctx, N, NN, p = plane.ctx, plane.N, plane.N * plane.N, plane.ctx.p
    pts = unital.points
    aff = pts[pts < NN]
    if len(aff):
        c = np.asarray(ctx.sub(aff // N, aff[0] // N))
        d = np.asarray(ctx.sub(aff % N, aff[0] % N))
    else:
        c, d = np.divmod(np.arange(NN, dtype=np.int64), N)

    # (rc, rd): the candidates minus their parts along the basis so far,
    # which are (0, 0) just for the candidates in its span
    rc, rd = c, d
    basis, start = [], 0
    multiples = np.arange(p, dtype=np.int64)
    while True:
        live = np.flatnonzero((rc[start:] != 0) | (rd[start:] != 0))
        if not len(live):
            break
        k = start + int(live[0])
        out = _moved_out(unital, int(c[k]), int(d[k]))
        if len(out):
            # the candidates before k lie in the span and stay
            keep = np.concatenate([
                unital.contains(Shift(plane, c[idx, None], d[idx, None])
                                .apply_point(out)).all(axis=1)
                for idx in id_batches(len(c), len(out))])
            c, d, rc, rd = c[keep], d[keep], rc[keep], rd[keep]
            start = k
            continue
        part = rc if rc[k] else rd                   # holds the first nonzero digit
        place = int(np.argmax(ctx.digits[part[k]] != 0))
        scale = pow(int(ctx.digits[part[k], place]), p - 2, p)
        ec, ed = ctx.mul(int(rc[k]), scale), ctx.mul(int(rd[k]), scale)
        along = ctx.digits[part, place]              # each candidate's digit there
        rc = np.asarray(ctx.sub(rc, ctx.mul(ec, multiples)[along]))
        rd = np.asarray(ctx.sub(rd, ctx.mul(ed, multiples)[along]))
        basis.append((ec, ed))
        start = k + 1
    return TranslationGroup(plane, np.array(basis, dtype=np.int64).reshape(-1, 2))


# ----------------------------------------------------------------------
# Parabolic construction {(x, t*theta)} + infinity
# ----------------------------------------------------------------------


def phi_table(plane: ShiftPlane, theta: int) -> np.ndarray:
    """phi(x) = theta_1 f_0(x) - theta_0 f_1(x), the F_q table of beta_of(f(x))."""
    return np.asarray(beta_of(plane, theta, plane.f))


def beta_of(plane: ShiftPlane, theta: int, b) -> np.ndarray | int:
    """beta(b) = b_0 theta_1 - b_1 theta_0 (an F_q value; 0 iff b in theta*F_q)."""
    split, ctx = plane.split, plane.ctx
    th0, th1 = (int(v) for v in split.decompose(theta))
    b0, b1 = split.decompose(b)
    return ctx.sub(ctx.mul(th1, b0), ctx.mul(th0, b1))


def check_parabolic_hypothesis(plane: ShiftPlane, theta: int):
    """Fiber histogram of phi: value 0 hit once, every other value q+1 times.

    Returns (ok, histogram keyed by the F_q element index).
    """
    theta = require_index(theta, plane.N, "theta")
    if theta == 0:
        raise ZeroTheta("theta must be nonzero")
    split = plane.split
    phi = phi_table(plane, theta)
    counts = np.bincount(split.sub_rank[phi], minlength=split.sub_size)
    hist = {int(split.sub_elements[r]): int(c) for r, c in enumerate(counts)}
    need = np.full(split.sub_size, split.sub_size + 1)
    need[split.sub_rank[0]] = 1
    return bool(np.array_equal(counts, need)), hist


def parabolic_y_values(plane: ShiftPlane, theta: int) -> np.ndarray:
    """The q admissible second coordinates {t*theta : t in F_q}, ascending."""
    split = plane.split
    return np.sort(np.asarray(plane.ctx.mul(split.sub_elements, theta)))


def build_parabolic_unital(plane: ShiftPlane, theta: int) -> Unital:
    """Point set {(x, t*theta) : x in F_{q^2}, t in F_q} with infinity."""
    theta = int(theta)
    ok, hist = check_parabolic_hypothesis(plane, theta)
    if not ok:
        q = plane.split.sub_size
        bad = {c: n for c, n in hist.items() if n != (1 if c == 0 else q + 1)}
        raise HypothesisFailed(f"fiber histogram violates {{1, q+1}}: {bad}")
    points = _graph_point_ids(plane, parabolic_y_values(plane, theta))
    u = Unital(plane, points, f"utheta:theta={theta}")
    u.record(Check("parabolic-hypothesis", "exhaustive", "pass"))
    return u


def _graph_point_ids(plane: ShiftPlane, ys: np.ndarray) -> np.ndarray:
    """The IDs x*N + ys[x, t] of the affine points, row x of ys, or ys
    itself for every x, then infinity: written once, in the plane's
    id_dtype, so Unital keeps the array as it is when the rows ascend."""
    N, dtype = plane.N, plane.id_dtype
    points = np.empty(N * ys.shape[-1] + 1, dtype=dtype)
    np.add((np.arange(N, dtype=dtype) * N)[:, None], ys.astype(dtype),
           out=points[:-1].reshape(N, -1))
    points[-1] = plane.infinity_id
    return points


def build_general_unital(plane: ShiftPlane, g_table: np.ndarray) -> Unital:
    """Data-driven point set {(x, g_x(t))} certified by solution counting.

    g_table has shape (q^2, q): row x lists the q values g_x(t).  Each row
    must be injective.  For every (a, b) the number of pairs (x, t) with
    f(x+a) - b = g_x(t) must be 1 or q+1; the first offending pair raises.
    """
    N, q = plane.N, plane.split.sub_size
    g_table = np.asarray(g_table, dtype=np.int64)
    if g_table.shape != (N, q) or g_table.min() < 0 or g_table.max() >= N:
        raise UsageError(f"expected table of shape ({N}, {q}) with entries in [0, {N})")
    rows = np.sort(g_table, axis=1)
    repeats = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
    if repeats.any():
        raise NotInjective(f"g_{int(np.argmax(repeats))} is not injective")
    u = Unital(plane, _graph_point_ids(plane, g_table), "general")
    # the solutions (x, t) for (a, b) are the points of U on L(a, b), whose
    # ID a*N + b orders the pairs row-major
    counts = line_intersection_counts(u)[:N * N]
    bad = np.flatnonzero((counts != 1) & (counts != q + 1))
    if len(bad):
        a, b = divmod(int(bad[0]), N)
        raise CountViolation(a, b, int(counts[bad[0]]))
    u.record(Check("solution-counts", "exhaustive", "pass"))
    return u


# ----------------------------------------------------------------------
# Embedded / design certification
# ----------------------------------------------------------------------


def line_intersection_counts(unital: Unital) -> np.ndarray:
    """|line ∩ U| for every line ID, by direct incidence counting.

    Point-driven: for a shift a, the affine points (x, y) of U vote for the
    graph line L(a, f(x+a) - y) through them, and one bincount gives the
    whole row of counts.  The translations that fix U carry each counted
    row onto the rows of its orbit, so only one row per orbit is counted
    (see _line_counts); with no such translation that is O(q^5) work, with
    no mask over the q^4 + q^2 + 1 plane points.  The pass runs once per
    unital: the read-only array returned is the one that the embedded
    check, the secant and tangent lines and the invariant profile read too.
    """
    return unital._line_pass[0]


def _line_counts(unital: Unital):
    """(counts per line ID, tangent lines through each distinct point of U).

    Graph lines go by translation orbits; docs/ORBITS.md has the argument.
    A translation tau(c, d) that fixes U maps L(a, b) onto L(a - c, b - d)
    and the slope point (a) to (a - c), so row a - c of the counts is row a
    read at b + d.  With C the projection of unital.translation_group onto
    the slopes, one direct row per coset a0 + C gives every row; a unital
    whose group is trivial counts all N rows directly.  A direct row bins
    the votes f(x + a0) - y of the affine points (x, y), which
    ctx.minus_shifted reads at the points' x, with f and -y split into
    the halves of the addition table once for all rows.

    The tangents per point come out of the same pass: a point's pencil is
    the graph line it votes for at every shift, plus its vertical (affine
    points), the graph lines of its slope plus L_inf (slope points), or
    every vertical plus L_inf (infinity).  A tangent graph line of a direct
    row holds one affine point of U or none, and a bincount of the voters'
    indices, weighted, names it; tau carries that point with its line.
    unital.points is strictly ascending (Unital.__init__ sees to it), so
    infinity, if present, is last; the pass is exhaustive, so it casts the
    points to int64 once.
    """
    plane = unital.plane
    ctx, N = plane.ctx, plane.N
    NN = N * N
    pts = unital.points.astype(np.int64)
    aff = pts[pts < NN]
    xs, ys = aff // N, aff % N
    slopes = pts[(pts >= NN) & (pts < NN + N)] - NN
    slope_in = np.zeros(N, dtype=np.int64)
    slope_in[slopes] = 1
    has_inf = int(pts[-1] == plane.infinity_id)
    counts = np.empty(plane.n_lines, dtype=np.int64)
    graph = counts[:NN].reshape(N, N)
    lift_c, lift_d = unital.translation_group.slope_lifts()
    lifts = Shift(plane, lift_c[:, None], lift_d[:, None])
    vote = ctx.minus_shifted(plane.f, ys, at=xs)   # a0 -> f(x + a0) - y
    voter = np.arange(len(aff), dtype=np.float64)
    moved = []                      # the affine point of each tangent graph line
    done = np.zeros(N, dtype=bool)
    for a0 in range(N):
        if done[a0]:
            continue
        votes = vote(a0)
        row = np.bincount(votes, minlength=N)
        owner = np.bincount(votes, weights=voter, minlength=N)
        tangent = aff[owner[(row == 1) & (slope_in[a0] == 0)].astype(np.int64)]
        row += slope_in[a0]                          # the slope point (a0) on L(a0, b)
        orbit = np.asarray(ctx.sub(a0, lift_c))
        for a, d in zip(orbit.tolist(), lift_d.tolist()):
            graph[a] = ctx.translate(row, d)
        done[orbit] = True
        moved.append(lifts.apply_point(tangent).ravel())
    tangents = np.bincount(np.searchsorted(aff, np.concatenate(moved)),
                           minlength=len(aff))
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


@dataclass
class EmbeddedReport:
    passed: bool
    mode: str
    secant_count: int
    tangent_count: int
    tangents_per_point_ok: bool
    lines_checked: int


def verify_unital_embedded(unital: Unital, mode: str = "exhaustive",
                           seed: int = 0, trials: int = 10000) -> EmbeddedReport:
    """Every line meets the point set in 1 or q+1 points; each unital point
    lies on exactly one tangent.

    Exhaustive mode sweeps all lines.  Sampled mode checks a deterministic
    seeded sample of at least `trials` lines covering all three kinds and
    the tangent pencils of a point sample.
    """
    require_mode(mode, ("exhaustive", "sampled"))
    plane, q = unital.plane, unital.q
    if mode == "exhaustive":
        counts, tangents_per_point = unital._line_pass
        bad = np.flatnonzero((counts != 1) & (counts != q + 1))
        if len(bad):
            lid = int(bad[0])
            raise IntersectionViolation(lid, int(counts[lid]))
        ok = bool(np.all(tangents_per_point == 1))
        report = EmbeddedReport(ok, mode, int((counts == q + 1).sum()),
                                int((counts == 1).sum()), ok, int(plane.n_lines))
        unital.record(Check("embedded-intersections", mode,
                            "pass" if report.passed else "fail"))
        return report
    # sampled: seeded choice of shifted lines plus every vertical and L_inf
    require_trials(trials)
    rng = np.random.default_rng(seed)
    N = plane.N
    shifted = np.sort(rng.integers(0, N * N, size=trials))
    shifted = shifted[np.append(True, shifted[1:] != shifted[:-1])]
    n_vert = min(N, max(1, trials // 4))
    verts = N * N + np.sort(rng.choice(N, size=n_vert, replace=False))
    lids = np.concatenate([shifted, verts, [plane.at_infinity_id]])
    counts = unital.line_counts(lids)
    bad = np.flatnonzero((counts != 1) & (counts != q + 1))
    if len(bad):
        raise IntersectionViolation(int(lids[bad[0]]), int(counts[bad[0]]))
    tangents = int((counts == 1).sum())
    # tangent pencils of a point sample (each pencil costs O(N^2), so the
    # sample size adapts to the field size)
    n_pencil = max(1, min(50, 10 ** 9 // (N * N)))
    sample = rng.choice(unital.points, size=min(n_pencil, len(unital.points)),
                        replace=False)
    pencil_ok = all(_pencil_tangent_count(unital, int(pid)) == 1
                    for pid in sample)
    n_checked = len(lids)
    report = EmbeddedReport(pencil_ok, "sampled", n_checked - tangents,
                            tangents, pencil_ok, n_checked)
    unital.record(Check("embedded-intersections", "sampled",
                        "pass" if pencil_ok else "fail",
                        witness={"seed": seed, "lines": n_checked,
                                 "pencils": int(len(sample))}))
    return report


def _pencil_tangent_count(unital: Unital, pid: int) -> int:
    """Tangent lines through one point, by counting over its full pencil."""
    plane = unital.plane
    return int((unital.line_counts(plane.lines_through_point(pid)) == 1).sum())


@dataclass
class DesignReport:
    passed: bool
    mode: str
    point_count: int
    block_count: int
    pairs_covered: int
    replication_ok: bool


def verify_design(unital: Unital, mode: str = "exhaustive") -> DesignReport:
    """Every unordered point pair lies in exactly one block; the block count
    is q^4 - q^3 + q^2 and every point sits in q^2 blocks.

    Coverage follows from the block count and the one-block-per-pair check:
    B = q^4 - q^3 + q^2 blocks of q + 1 points hold B q(q+1)/2 = n(n-1)/2
    distinct pair codes for the n = q^3 + 1 points of a Unital.

    The check is exhaustive; `mode` names it, and any other value is a
    UsageError from require_mode.  Over DESIGN_MAX_PAIR_CODES pair codes n^2
    it is a UsageError, raised before the blocks are built.
    """
    require_mode(mode, ("exhaustive",))
    q = unital.q
    n = len(unital.points)
    if n * n > DESIGN_MAX_PAIR_CODES:
        raise UsageError(f"verify_design needs n^2 <= {DESIGN_MAX_PAIR_CODES} point-pair "
                         f"codes, got {n * n} at q = {q}")
    blocks = unital.blocks
    expected_blocks = q ** 4 - q ** 3 + q ** 2
    if len(blocks) != expected_blocks:
        raise PairCoverageViolation(("block-count",), len(blocks))
    ii, jj = np.triu_indices(q + 1, k=1)
    # block rows ascend, so each code has i < j
    counts = np.bincount((blocks[:, ii] * n + blocks[:, jj]).ravel(), minlength=n * n)
    if counts.max() > 1:
        k = int(np.argmax(counts))
        pair = (int(unital.points[k // n]), int(unital.points[k % n]))
        raise PairCoverageViolation(pair, int(counts[k]))
    total = int(counts.sum())
    replication_ok = bool(np.all(np.bincount(blocks.ravel(), minlength=n) == q * q))
    report = DesignReport(replication_ok, mode, n, len(blocks), total, replication_ok)
    unital.record(Check("design-pair-coverage", mode,
                        "pass" if report.passed else "fail"))
    return report


# ----------------------------------------------------------------------
# Polarities
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InvolutionSpec:
    """Additive involution used for the polarity: x -> x^q ("frobq"), or the
    xi-sign conjugation x0 + x1*xi -> x0 - x1*xi ("conjxi").  Any other
    kind is a UsageError."""

    kind: str
    KINDS = ("frobq", "conjxi")       # class constant, not a field

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise UsageError(f"unknown involution kind {self.kind!r}")

    def table(self, plane: ShiftPlane) -> np.ndarray:
        split, ctx = plane.split, plane.ctx
        if self.kind == "frobq":
            return np.asarray(split.frobq)
        x0, x1 = split.decompose(np.arange(ctx.size, dtype=np.int64))
        return np.asarray(split.recompose(x0, ctx.neg(x1)))


@dataclass
class PolarityReport:
    passed: bool
    mode: str
    absolute_points: int
    incidences_checked: int


def _fibre_bounds(tr: np.ndarray, values: np.ndarray):
    """(order, lo, counts), nothing listed: the fibre of tr over values[x],
    y ascending, is order[lo[x]:lo[x] + counts[x]] of a stable argsort."""
    order = np.argsort(tr, kind="stable")
    ranked = tr[order]
    lo = np.searchsorted(ranked, values, side="left")
    return order, lo, np.searchsorted(ranked, values, side="right") - lo


def trace_fibres(tr: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ys, counts): counts[x] = #{y : tr[y] == values[x]}, and ys those y
    for x = 0, 1, ... in turn, each fibre ascending.  So ys and
    np.repeat(arange, counts) are np.nonzero(values[:, None] == tr) in its
    row-major order, without that len(values) x len(tr) table.
    """
    order, lo, counts = _fibre_bounds(tr, values)
    # output k of row x is order[lo[x] + k - (first output of row x)]
    pos = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    pos += np.arange(len(pos))
    return order[pos], counts


def _polarity_precheck(plane: ShiftPlane, kappa: InvolutionSpec):
    """The three admissibility conditions; returns the involution table and
    the traces y + conj(y), whose fibre over f(x + conj(x)) holds the y of
    the affine absolute points (x, y).

    Condition C is that every such fibre holds q points; with infinity that
    makes q^3 + 1 absolute points.  _fibre_bounds counts the fibres without
    listing them, so verify_polarity holds no (N, q) table; the first x
    with another count is named in ConditionCFailed.
    """
    ctx, split = plane.ctx, plane.split
    bar = kappa.table(plane)
    idx = np.arange(ctx.size, dtype=np.int64)
    if not np.array_equal(bar[bar], idx):
        raise ConditionAFailed(f"{kappa.kind} is not an involution")
    if not np.array_equal(bar[plane.f], plane.f[bar]):
        raise ConditionBFailed(f"{kappa.kind} does not commute with the plane function")
    tr = np.asarray(ctx.add(idx, bar))             # y + conj(y)
    fibers = _fibre_bounds(tr, plane.f[tr])[2]     # over f(x + conj(x)) per x
    if not np.all(fibers == split.sub_size):
        x = int(np.flatnonzero(fibers != split.sub_size)[0])
        raise ConditionCFailed(f"fiber count at x={x} is {int(fibers[x])}")
    return bar, tr


class _Polarity(_TableMap):
    """rho of an involution table bar, as a map of IDs: points and lines
    share the ID scheme, so apply_point sends point IDs to the IDs of
    their image lines and apply_line line IDs to points, by one map;
    infinity and L_inf keep their ID."""

    def __init__(self, plane: ShiftPlane, bar: np.ndarray):
        self.plane, self._tables = plane, (bar, bar)


def verify_polarity(plane: ShiftPlane, kappa: InvolutionSpec,
                    mode: str = "auto", seed: int = 0,
                    trials: int = 20000) -> PolarityReport:
    """rho: (x,y) <-> L(conj x, conj y), (a) <-> V(conj a), inf <-> L_inf.

    Checks the three admissibility conditions (the first, conj an
    involution, makes rho^2 = id on every ID; the third gives the q^3 + 1
    absolute points, counted by _polarity_precheck) and
    incidence reversal: rho l on rho P for each flag (P, l), which is
    plane._check_flags's test rho P on rho l, since incidence is symmetric
    in IDs.  Exhaustive mode proves it by translation conjugation, with
    the sweep's first unreversed flag as the fallback; sampled mode checks
    `trials` seeded flags.  Mode "auto" is exhaustive for q <= 9 and
    sampled otherwise.
    """
    require_mode(mode, ("auto", "exhaustive", "sampled"))
    bar, _ = _polarity_precheck(plane, kappa)
    if mode == "auto":
        mode = "exhaustive" if plane.split.sub_size <= 9 else "sampled"
    flag, checked = _check_flags(plane, _Polarity(plane, bar), mode, seed, trials)
    if flag is not None:
        raise NotPolarity(f"incidence not reversed at ({flag[0]}, {flag[1]})")
    return PolarityReport(True, mode, plane.N * plane.split.sub_size + 1, checked)


def absolute_point_ids(plane: ShiftPlane, kappa: InvolutionSpec) -> np.ndarray:
    """The absolute points of rho, ascending, in the plane's id_dtype: the
    affine (x, y) with y + conj(y) = f(x + conj(x)), listed by one
    trace_fibres pass after _polarity_precheck, then infinity, which is
    always absolute; slope points never are.  Raises as the precheck does."""
    tr = _polarity_precheck(plane, kappa)[1]
    return _graph_point_ids(plane, trace_fibres(tr, plane.f[tr])[0].reshape(plane.N, -1))


def build_polarity_unital(plane: ShiftPlane, kappa: InvolutionSpec, seed: int = 0,
                          trials: int = 20000) -> Unital:
    """The absolute points of rho, certified by one verify_polarity run
    with `seed` and `trials`, which the `polarity` check records."""
    report = verify_polarity(plane, kappa, seed=seed, trials=trials)
    points = absolute_point_ids(plane, kappa)
    u = Unital(plane, points, f"polarity:kappa={kappa.kind}")
    u.record(Check("polarity", report.mode, "pass",
                   witness={"absolute_points": report.absolute_points}))
    return u


def build_classical_baseline(split) -> Unital:
    """The absolute-point unital of x -> x^q in the square-map plane: the
    classical (Hermitian-curve) comparison object."""
    from .planar import square

    plane = ShiftPlane(square(split))
    return build_polarity_unital(plane, InvolutionSpec("frobq"))


# ----------------------------------------------------------------------
# Self-duality, ovals, scaling orbits
# ----------------------------------------------------------------------


def tangent_line_ids(unital: Unital) -> np.ndarray:
    counts = line_intersection_counts(unital)
    return np.flatnonzero(counts == 1)


def dual_unital(unital: Unital):
    """Dual point set (the tangent lines) pushed through the point/line
    switch (a,b) <-> L(a,b), (a) <-> V(a), inf <-> L_inf.

    The switch preserves canonical IDs, so for a parabolic unital the
    switched dual must equal the original ID set; a mismatch raises.
    Returns (dual unital, witness dict).
    """
    if unital.theta is None:
        raise HypothesisUnmet("dual switch is defined for parabolic unitals")
    duals = tangent_line_ids(unital)               # ascending line IDs = dual point IDs
    if not np.array_equal(duals, unital.points):
        raise SwitchMismatch("switch image differs from the original point set")
    u = Unital(unital.plane, duals, f"dual:of={unital.provenance}")
    u.record(Check("self-duality-switch", "exhaustive", "pass"))
    return u, {"tangent_lines": int(len(duals)), "switch": "identity-on-ids"}


def ovals_decomposition(unital: Unital) -> list[np.ndarray]:
    """The q point sets O_c = {(x, c)} + infinity, c over theta*F_q, whose
    union is the unital.  Needs a normal plane function.

    Each O_c is an oval: L(a, b) meets it in #{x : f(x + a) = b + c} points,
    at most 2 because check_normality, run first, bounds every fiber of f
    by 2 and x -> x + a permutes F; a vertical meets it in (a, c) and
    infinity, L_inf in infinity.  So no line is left to check.  The c are
    unital.theta_y_values, which raises ProvenanceMismatch unless the
    points are exactly that parabolic set, so the union is the unital.
    """
    from .planar import check_normality

    plane = unital.plane
    if unital.theta is None:
        raise HypothesisUnmet("oval decomposition applies to parabolic unitals")
    ok, witness = check_normality(plane.spec)
    if not ok:
        raise NotNormal(f"plane function is not normal: {witness}")
    column = np.arange(plane.N, dtype=np.int64) * plane.N
    return [np.concatenate([column + c, [plane.infinity_id]])
            for c in unital.theta_y_values.tolist()]


def gamma_orbit_partition(plane: ShiftPlane, thetas) -> list[list[int]]:
    """Group theta values whose parabolic unitals map onto each other under
    the scaling collineations; returns sorted equivalence classes, each
    theta as often as it is listed.

    The maps Gamma(c, e) form a group: with phi the Frobenius map,
    Gamma(c1, e1) after Gamma(c2, e2) is Gamma(phi^(-e2)(c1) c2, e1 + e2) on
    points and lines alike, and Gamma(1, 0) is the identity.  So the images
    of U_theta under all of them are its whole orbit, and the thetas whose
    point sets lie among those images make up theta's class.  The images,
    computed in int64, are compared as bytes in the tables' id_dtype.
    """
    thetas = [int(t) for t in thetas]
    points = {t: build_parabolic_unital(plane, t).points for t in thetas}
    ctx = plane.ctx
    classes = []
    while thetas:
        orbit = {np.sort(Gamma(plane, c, e).apply_point(points[thetas[0]]))
                 .astype(plane.id_dtype).tobytes()
                 for c in range(1, ctx.size) for e in range(ctx.m)}
        classes.append(sorted(t for t in thetas if points[t].tobytes() in orbit))
        thetas = [t for t in thetas if points[t].tobytes() not in orbit]
    return sorted(classes)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------


def _format_ids(ids: np.ndarray):
    """The lines `f"{id}\\n"` of ascending non-negative IDs as bytes, in blocks
    of at most _WRITE_BLOCK IDs.

    IDs with the same number of digits are contiguous in an ascending array,
    so each block is one (width + 1, n) table of digit bytes, filled one
    contiguous row at a time from the right and written out transposed.  A
    block below 2^32 divides in uint32, about twice as fast as int64.  The
    width stops are searched in the dtype of ids, so the search copies
    nothing; a power of ten past that dtype's range is past every ID.
    """
    powers = 10 ** np.arange(1, 19, dtype=np.int64)
    powers = powers[powers <= np.iinfo(ids.dtype).max].astype(ids.dtype)
    stops = np.searchsorted(ids, powers).tolist()
    stops += [len(ids)] * (19 - len(stops))
    start = 0
    for width, stop in enumerate(stops, 1):
        for lo in range(start, stop, _WRITE_BLOCK):
            rest = ids[lo:min(lo + _WRITE_BLOCK, stop)]
            if rest[-1] <= np.iinfo(np.uint32).max:
                rest = rest.astype(np.uint32, copy=False)
            buf = np.empty((width + 1, len(rest)), dtype=np.uint8)
            buf[width] = ord("\n")
            for row in range(width - 1, 0, -1):
                quot = rest // 10            # faster than np.divmod
                buf[row] = rest - 10 * quot
                rest = quot
            buf[0] = rest
            buf[:width] += ord("0")
            yield buf.T.tobytes()
        start = stop


def _parse_id_lines(data) -> np.ndarray:
    """The IDs of `data`, whole lines each ending in a newline and holding
    1 to _MAX_ID_DIGITS decimal digits; blank lines are skipped.

    One flat pass checks every byte.  The lines fall into runs of equal
    width: one run when the k newlines fall every len(data) / k bytes, the
    usual case in an ascending file, otherwise the runs between the
    newlines that _line_bounds finds.  Each run is an (n, width + 1) view,
    copied transposed into contiguous (width, n) digit rows and read by
    Horner's rule: in uint32 for the first _UINT32_DIGITS rows, which cannot
    overflow it, in int64 after them.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    digits = raw - ord("0")                  # any other byte wraps to 10 or more
    n_lines = int(np.count_nonzero(raw == ord("\n")))
    if not n_lines:
        return np.zeros(0, dtype=np.int64)
    step = len(raw) // n_lines
    if (step * n_lines == len(raw) and 1 < step <= _MAX_ID_DIGITS + 1
            and (raw[step - 1::step] == ord("\n")).all()):
        runs, longest = [(0, n_lines, step - 1)], step - 1
    else:
        starts, ends = _line_bounds(raw)
        widths = ends - starts
        bounds = [0, *(np.flatnonzero(widths[1:] != widths[:-1]) + 1).tolist(), n_lines]
        runs = [(int(starts[lo]), hi - lo, int(widths[lo]))
                for lo, hi in zip(bounds, bounds[1:]) if widths[lo]]
        longest = widths.max()
    if (np.count_nonzero(digits < 10) != len(raw) - n_lines
            or longest > _MAX_ID_DIGITS):
        raise _first_malformed_line(data, raw, digits)
    ids = np.empty(sum(lines for _, lines, _ in runs), dtype=np.int64)
    n = 0
    for first, lines, width in runs:
        view = digits[first:first + lines * (width + 1)].reshape(lines, width + 1)
        rows = np.ascontiguousarray(view[:, :width].T)
        head = min(width, _UINT32_DIGITS)
        acc = rows[0].astype(np.uint32)
        for row in rows[1:head]:
            acc *= 10
            acc += row
        value = ids[n:n + lines]
        value[:] = acc
        for row in rows[head:]:
            value *= 10
            value += row
        n += lines
    return ids


def _line_bounds(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start, newline position) of each line of raw."""
    ends = np.flatnonzero(raw == ord("\n"))
    return np.concatenate(([0], ends[:-1] + 1)), ends


def _first_malformed_line(data, raw, digits) -> UsageError:
    """The error quoting the first line of data that is too long or holds a
    byte other than a digit."""
    starts, ends = _line_bounds(raw)
    bad = ends - starts > _MAX_ID_DIGITS
    stray = np.flatnonzero((digits >= 10) & (raw != ord("\n")))
    bad[np.searchsorted(ends, stray)] = True
    line = np.argmax(bad)
    return _malformed_line(data[starts[line]:ends[line]])


def _malformed_line(line) -> UsageError:
    text = bytes(line[:_QUOTE_BYTES]).decode(errors="replace")
    if len(line) > _QUOTE_BYTES:
        text += "..."
    return UsageError(f"malformed point ID line: {text!r}")


def _read_ids(fh, capacity: int, n_points: int) -> np.ndarray:
    """The point IDs of the rest of the binary stream `fh`, one per line,
    in point_id_dtype(n_points).

    The body is read in _READ_CHUNK pieces cut after their last newline, so
    every temporary is bounded by the chunk; the IDs go into one array sized
    for `capacity` IDs, which grows only for a file with more lines.  Each
    piece is range-checked before it is narrowed: from the first ID at or
    past n_points on, the array is int64, so that ID reaches Unital's check
    as it was written and never wraps into range.  CRLF line ends and a
    missing final newline are accepted.
    """
    ids, n, tail = np.empty(capacity, dtype=point_id_dtype(n_points)), 0, b""
    while True:
        chunk = fh.read(_READ_CHUNK)
        data = tail + chunk
        if tail and not chunk:
            data += b"\n"                      # the last line has no newline
        cut = data.rfind(b"\n") + 1
        lines, tail = memoryview(data)[:cut], data[cut:]
        if data.find(b"\r", 0, cut) >= 0:
            lines = data[:cut].replace(b"\r\n", b"\n")
        part = _parse_id_lines(lines)
        if len(part) and part.max() >= n_points:
            ids = ids.astype(np.int64, copy=False)
        if n + len(part) > len(ids):
            ids = np.concatenate((ids[:n], np.empty(n + len(part), dtype=ids.dtype)))
        ids[n:n + len(part)] = part
        n += len(part)
        if len(tail) > _QUOTE_BYTES:            # no valid line is this long
            raise _malformed_line(tail)
        if not chunk:
            return ids[:n]


def write_unital_file(unital: Unital, path):
    """Text format: `UNITAL v1`, field descriptor, spec string, provenance,
    then one ascending point ID per line; written to `path`."""
    header = ["UNITAL v1", unital.plane.ctx.descriptor(),
              unital.plane.spec.spec_string(), unital.provenance]
    with open(path, "wb") as fh:
        fh.write("".join(f"{line}\n" for line in header).encode())
        fh.writelines(_format_ids(unital.points))


def read_unital_file(path) -> Unital:
    """The unital of a file in write_unital_file's format.

    The header, its provenance tag by parse_provenance included, is checked
    before the body is read; a malformed header or ID line is a UsageError,
    and the points get Unital's own checks.
    """
    from . import gf
    from .planar import parse_spec

    with open(path, "rb") as fh:
        header = [fh.readline().decode(errors="replace").strip() for _ in range(4)]
        if header[0] != "UNITAL v1":
            raise UsageError(f"not a unital file: {header[0]!r}")
        ctx = gf.parse_descriptor(header[1])
        if ctx.m % 2:
            raise UsageError(f"field {header[1]!r} has odd degree; the plane needs F_(q^2)")
        split = gf.split_new(ctx, ctx.m // 2)
        plane = ShiftPlane(parse_spec(split, header[2]))
        parse_provenance(header[3], plane.N)
        points = _read_ids(fh, split.sub_size ** 3 + 1, plane.n_points)
    return Unital(plane, points, header[3])
