"""Independent oracle: F_{p^m} arithmetic and shift-plane geometry in plain
Python integers, rebuilt from a field descriptor alone.

Nothing here imports unitalforge.  The field comes from the modulus printed
by `FieldCtx.descriptor()` (`p=3,m=2,mod=[1,0,1]`, constant term first) and
that modulus is proven irreducible by trial division before it is used.
Elements are the canonical indices of the file format: the element
c_0 + c_1 x + ... has index sum(c_i p^i).  Points and lines use the
documented canonical IDs (N = field size):

    affine (x, y) -> x*N + y          shifted L(a, b) -> a*N + b
    slope (a)     -> N^2 + a          vertical V(a)   -> N^2 + a
    infinity      -> N^2 + N          at infinity     -> N^2 + N

L(a, b) is the graph y = f(x+a) - b together with the slope point (a).
"""

from __future__ import annotations

import numpy as np


class OracleError(Exception):
    """The oracle refused its input (for example a reducible modulus)."""


def _poly_rem(num, den, p):
    """Remainder of num by monic den over F_p (coefficient lists, constant first)."""
    num = list(num)
    d = len(den) - 1
    for k in range(len(num) - 1, d - 1, -1):
        c = num[k] % p
        if c:
            for i in range(d + 1):
                num[k - d + i] -= c * den[i]
    return [c % p for c in num[:d]]


def irreducible_by_trial_division(mod, p) -> bool:
    """True when no monic polynomial of degree 1..m//2 divides mod."""
    m = len(mod) - 1
    for d in range(1, m // 2 + 1):
        for low in range(p ** d):
            g = [(low // p ** i) % p for i in range(d)] + [1]
            if not any(_poly_rem(mod, g, p)):
                return False
    return True


class OracleField:
    """F_{p^m} on canonical indices, arithmetic by digit lists."""

    def __init__(self, descriptor: str):
        head, _, modpart = descriptor.partition(",mod=[")
        fields = dict(kv.split("=") for kv in head.split(","))
        self.p, self.m = int(fields["p"]), int(fields["m"])
        self.mod = [int(c) for c in modpart.rstrip("]").split(",")]
        if len(self.mod) != self.m + 1 or self.mod[-1] != 1:
            raise OracleError(f"modulus {self.mod} is not monic of degree {self.m}")
        if not irreducible_by_trial_division(self.mod, self.p):
            raise OracleError(f"modulus {self.mod} is reducible over F_{self.p}")
        self.size = self.p ** self.m

    def digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.m):
            a, d = divmod(a, self.p)
            out.append(d)
        return out

    def index(self, digits) -> int:
        out = 0
        for d in reversed(digits):
            out = out * self.p + d % self.p
        return out

    def add(self, a: int, b: int) -> int:
        p, out, w = self.p, 0, 1
        while a or b:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            out += (da + db) % p * w
            w *= p
        return out

    def neg(self, a: int) -> int:
        return self.index([-d for d in self.digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        return self.index(_poly_rem(prod, self.mod, self.p))

    def pow(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise OracleError("inverse of zero")
        return self.pow(a, self.size - 2)


class Extension:
    """F_{q^2} over F_q with basis (1, xi).

    Without a given xi, the canonical one is searched from its definition:
    the smallest-index element outside F_q whose square lies in F_q.  A
    given xi is checked against that membership test instead, which keeps
    large fields cheap.
    """

    def __init__(self, F: OracleField, xi: int | None = None):
        if F.m % 2:
            raise OracleError("a quadratic extension needs even m")
        self.F = F
        self.q = F.p ** (F.m // 2)
        if xi is None:
            xi = next(x for x in range(F.size) if self._is_xi(x))
        elif not self._is_xi(xi):
            raise OracleError(f"xi {xi} is in F_q or has its square outside F_q")
        self.xi = xi
        self.alpha = F.mul(xi, xi)
        self._inv_den = F.inv(F.sub(xi, self.frob(xi)))

    def _is_xi(self, x: int) -> bool:
        sq = self.F.mul(x, x)
        return self.frob(x) != x and self.frob(sq) == sq

    def frob(self, x: int) -> int:
        return self.F.pow(x, self.q)

    def subfield(self) -> list[int]:
        return [x for x in range(self.F.size) if self.frob(x) == x]

    def canonical_theta(self) -> int:
        """Smallest-index theta whose norm theta^(q+1) is a nonsquare of F_q."""
        F, minus_one = self.F, self.F.neg(1)
        return next(t for t in range(1, F.size)
                    if F.pow(F.pow(t, self.q + 1), (self.q - 1) // 2) == minus_one)

    def decompose(self, z: int) -> tuple[int, int]:
        """z = z0 + z1*xi with z0, z1 in F_q."""
        F = self.F
        z1 = F.mul(F.sub(z, self.frob(z)), self._inv_den)
        return F.sub(z, F.mul(z1, self.xi)), z1

    def recompose(self, z0: int, z1: int) -> int:
        return self.F.add(z0, self.F.mul(z1, self.xi))


class Geometry:
    """The shift plane of a planar function table f (length N list)."""

    def __init__(self, F: OracleField, f: list[int]):
        self.F = F
        self.N = N = F.size
        self.f = f
        self.inf = N * N + N
        self.add_tab = [[F.add(a, b) for b in range(N)] for a in range(N)]
        self.neg_tab = [F.neg(b) for b in range(N)]

    def line_points(self, lid: int) -> list[int]:
        N, add = self.N, self.add_tab
        if lid == self.inf:
            return list(range(N * N, N * N + N + 1))
        if lid >= N * N:
            a = lid - N * N
            return [a * N + y for y in range(N)] + [self.inf]
        a, nb = lid // N, self.neg_tab[lid % N]
        return [x * N + add[self.f[add[x][a]]][nb] for x in range(N)] + [N * N + a]

    def line_counts(self, points) -> list[int]:
        """|L ∩ U| for every line ID, by walking each line's points."""
        member = set(int(p) for p in points)
        N, add, f = self.N, self.add_tab, self.f
        counts = [0] * (N * N + N + 1)
        for a in range(N):
            fa = [f[add[x][a]] for x in range(N)]
            slope = (N * N + a) in member
            for b in range(N):
                nb = self.neg_tab[b]
                counts[a * N + b] = slope + sum(
                    (x * N + add[fa[x]][nb]) in member for x in range(N))
        inf_in = self.inf in member
        for a in range(N):
            counts[N * N + a] = inf_in + sum((a * N + y) in member for y in range(N))
        counts[self.inf] = sum(p in member for p in range(N * N, N * N + N + 1))
        return counts

    def blocks(self, points) -> list[tuple[int, list[int]]]:
        """(line ID, sorted section) for every line meeting U in > 1 point."""
        member = set(int(p) for p in points)
        out = []
        for lid in range(self.N * self.N + self.N + 1):
            sec = sorted(p for p in self.line_points(lid) if p in member)
            if len(sec) > 1:
                out.append((lid, sec))
        return out


def power_table(F: OracleField, d: int) -> list[int]:
    return [F.pow(x, d) for x in range(F.size)]


def parabolic_points(ext: Extension, theta: int) -> list[int]:
    """{(x, t*theta) : x in F_{q^2}, t in F_q} plus infinity, ascending."""
    F, N = ext.F, ext.F.size
    ys = sorted(F.mul(t, theta) for t in ext.subfield())
    return sorted([x * N + y for x in range(N) for y in ys]) + [N * N + N]


def polarity_points(ext: Extension, f: list[int]) -> list[int]:
    """Absolute points of x -> x^q: y + y^q = f(x + x^q), plus infinity."""
    F, N = ext.F, ext.F.size
    tr = [F.add(z, ext.frob(z)) for z in range(N)]
    return sorted(x * N + y for x in range(N) for y in range(N)
                  if tr[y] == f[tr[x]]) + [N * N + N]


def check_onan(geo: Geometry, member: set, q: int, blocks, six) -> str | None:
    """None when the four lines carry an O'Nan configuration on `six`:
    four blocks of q+1 points of U (`member`) pairwise meeting in six
    distinct points, three of them on each block; otherwise the reason it
    is not one."""
    secs = [set(p for p in geo.line_points(int(lid)) if p in member) for lid in blocks]
    if len(set(int(b) for b in blocks)) != 4 or any(len(s) != q + 1 for s in secs):
        return f"lines {list(blocks)} are not four blocks"
    meets = []
    for i in range(4):
        for j in range(i + 1, 4):
            common = secs[i] & secs[j]
            if len(common) != 1:
                return f"blocks {blocks[i]}, {blocks[j]} share {len(common)} points"
            meets.extend(common)
    if len(set(meets)) != 6:
        return f"the pairwise meets {sorted(meets)} are not six distinct points"
    if any(len(s & set(meets)) != 3 for s in secs):
        return "some block does not carry three of the six points"
    if sorted(meets) != sorted(int(p) for p in six):
        return f"reported points {list(six)} differ from the meets {sorted(meets)}"
    return None


def common_point_matrix(blocks, n_ranks: int) -> np.ndarray:
    """(B, B) rank of the point two blocks share, -1 when disjoint or equal.
    Built from each point's pencil of blocks."""
    B = len(blocks)
    pencil = [[] for _ in range(n_ranks)]
    for bi, ranks in enumerate(blocks):
        for r in ranks:
            pencil[r].append(bi)
    cp = np.full((B, B), -1, dtype=np.int16)
    for r, bl in enumerate(pencil):
        bl = np.asarray(bl, dtype=np.int64)
        cp[np.ix_(bl, bl)] = r
    np.fill_diagonal(cp, -1)
    return cp


def completions(blocks, cp: np.ndarray, n_ranks: int, b1: int, b2: int) -> int:
    """Number of unordered block pairs {b3, b4} that complete the meeting
    pair {b1, b2} to an O'Nan configuration: both meet b1 and b2 away from
    their common point P, and meet each other off b1 and b2."""
    P = cp[b1, b2]
    r1, r2 = cp[b1], cp[b2]
    S = np.flatnonzero((r1 >= 0) & (r2 >= 0) & (r1 != P) & (r2 != P))
    if len(S) < 2:
        return 0
    sub = cp[np.ix_(S, S)].astype(np.int64)
    on1 = np.zeros(n_ranks + 1, dtype=bool)
    on2 = np.zeros(n_ranks + 1, dtype=bool)
    on1[blocks[b1]] = True
    on2[blocks[b2]] = True
    # index -1 lands on the last, always-False slot
    valid = (sub >= 0) & ~on1[sub] & ~on2[sub]
    return int(valid.sum()) // 2
