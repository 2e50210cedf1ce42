"""Exact arithmetic in F_{p^m} for odd p, with quadratic-extension structure.

Elements are canonical integer indices: the element with coefficient vector
(c_0, ..., c_{m-1}) over F_p (c_i multiplying x^i) has index sum(c_i * p^i).
The ring F_p[x]/(f) has one form at construction: m x m matrices over F_p,
with the companion matrix C of the modulus f as multiplication by x, so that
h(C) is multiplication by h.  Powers of C decide irreducibility (Rabin's
test, with the same elimination mod p that proves planarity by rank), g(C)
tests a candidate primitive element g and, by doubling, builds the log
tables.  All arithmetic is table-driven.  Multiplication goes through
discrete-log tables over a fixed primitive element g, and as g is no square
the quadratic characters of the field and of F_q are read off the parity of
the discrete log, as tables.  Addition is digit-wise in base p, and its
tables are composed rather than summed digit by digit: an index
a = p * a' + a_0 adds its higher digits a' and its lowest digit a_0 apart, so
the table on k digits is p times the table on k - 1 digits broadcast against
the p x p table of one digit, one pass per digit (`_digitwise`; negation
likewise).  A field of at most ADD_TABLE_MAX elements keeps the N x N table
flattened as add_lo, and a sum is one flat take, add_lo[a * N + b], with the
index computed in int64 and the sums written over it.  Larger fields write an index as hi * P + lo with
P = p^ceil(m/2); the low and high digits add independently, so a sum is one
take in a P x P table plus one in a Q x Q table, Q = N/P (243 x 243 each at
F_3^10).  Every field keeps this split form: a small field takes P = N and
Q = 1, so its P x P table is the N x N one.  Every arithmetic operation
takes ints or numpy arrays of indices and runs the same array code on both:
a scalar in gives a numpy integer scalar out, never a 0-d array, so scalar
API calls and bulk sweeps share one path.

Translation x -> x + a acts on the two parts apart: the high parts move by
one row of the Q x Q table and the low parts by one row of the P x P table.
`FieldCtx.translate(table, a)` therefore reads table[x + a] for every x as a
row take and a column take of table viewed as a (Q, P) array, without one
field addition per element.  `FieldCtx.minus_shifted(table, minus, at)`
builds on it the map a -> table[x + a] - minus, splitting table and -minus
into their halves once: the planarity sweeps read their difference maps
f(x + a) - f(x) from it, and the line counts their votes f(x + a) - y, so
no other module reads the split addition tables.

`ExtensionSplit` views F_{p^{2n}} over its index-2 subfield F_q (q = p^n):
decomposition along the basis (1, xi), relative trace and norm, the quadratic
character of the subfield, and the deterministic choices of xi and theta used
throughout the geometry modules.
"""

from __future__ import annotations

import re
from functools import cache

import numpy as np

from .errors import (
    DegenerateForm,
    DivisionByZero,
    EvenCharacteristic,
    NotIrreducible,
    NotPrime,
    UsageError,
)

__all__ = [
    "FieldCtx",
    "ExtensionSplit",
    "field_new",
    "split_new",
    "quadratic_solution_count",
    "parse_descriptor",
    "default_modulus",
    "monic_irreducibles",
    "is_irreducible",
    "is_prime",
]


# Fields up to this size keep one N x N addition table; larger ones add
# through two tables on the halves of the index.  Split addition alone took
# certify-exhaustive from 0.154 to 0.215 s wall and 0.095 to 0.129 s slowest
# op (medians of 3 alternating benchmark runs, 2-core VM) for 3.3 MB less
# peak RSS.
ADD_TABLE_MAX = 1024
# The largest field built.  Construction holds about m + 4 int64 entries per
# element: F_3^12 (531 441 elements) builds in 0.3 s at a 135 MB peak, and
# F_3^13 (1 594 323) would take 332 MB, so it is refused.
FIELD_SIZE_MAX = 1 << 20


def require_field_size(p: int, m: int) -> None:
    """A UsageError for F_{p^m} past FIELD_SIZE_MAX, before p is tested or
    a table sized; p^m >= 2^m bounds m first, so a huge p or m costs nothing."""
    if p >= 2 and (m >= FIELD_SIZE_MAX.bit_length() or p ** m > FIELD_SIZE_MAX):
        raise UsageError(f"F_{p}^{m} is past FIELD_SIZE_MAX = {FIELD_SIZE_MAX} elements")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# ----------------------------------------------------------------------
# F_p[x]/(f) as m x m matrices over F_p.  The companion matrix C of a monic
# f of degree m is the matrix of multiplication by x on the basis
# (1, x, ..., x^(m-1)), so h(C) is multiplication by h, and it is invertible
# exactly when gcd(h, f) = 1.  Construction-time only, but for the
# elimination mod p, which planar's rank proof runs as well.
# ----------------------------------------------------------------------

def _companions(F, p: int) -> np.ndarray:
    """Companion matrices of x^m + sum_i F[:, i] x^i, one per row of F."""
    s, m = F.shape
    C = np.zeros((s, m, m), dtype=np.int64)
    C[:, np.arange(1, m), np.arange(m - 1)] = 1
    C[:, :, m - 1] = -F % p
    return C


def _matpow(A, e: int, p: int) -> np.ndarray:
    """A^e mod p for a stack of square matrices and e >= 1, by repeated
    squaring."""
    out = None
    while e:
        if e & 1:
            out = A if out is None else out @ A % p
        A = A @ A % p
        e >>= 1
    return out


def _invertible_mod_p(M, p: int) -> np.ndarray:
    """Which of the (s, m, m) matrices over F_p are invertible: one Gaussian
    elimination run on all of them at once (M is overwritten)."""
    s, m, _ = M.shape
    inv = np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=M.dtype)
    rows = np.arange(s)
    ok = np.ones(s, dtype=bool)
    for col in range(m):
        piv = col + np.argmax(M[:, col:, col] != 0, axis=1)
        top = M[rows, piv]
        ok &= top[:, col] != 0
        M[rows, piv] = M[:, col]
        top = top * inv[top[:, col]][:, None] % p
        M[:, col + 1:] = (M[:, col + 1:] - M[:, col + 1:, col, None] * top[:, None, :]) % p
    return ok


def _irreducible(F, p: int) -> np.ndarray:
    """Rabin's test on the monic x^m + sum_i F[:, i] x^i, one per row of F.

    f is irreducible iff x^(p^m) = x mod f and gcd(x^(p^(m/r)) - x, f) = 1
    for every prime r of m; with C the companion matrix of f these read
    C^(p^m) = C and C^(p^(m/r)) - C invertible.  Column 0 of h(C) holds
    h mod f, so the first condition compares column 0 only.
    """
    m = F.shape[1]
    C = _companions(F, p)
    X, frob = C, {}
    for d in range(1, m + 1):
        X = frob[d] = _matpow(X, p, p)      # C^(p^d)
    ok = (frob[m][:, :, 0] == C[:, :, 0]).all(axis=1)
    for r in prime_factors(m):
        ok &= _invertible_mod_p((frob[m // r] - C) % p, p)
    return ok


def is_irreducible(coeffs, p) -> bool:
    """Monic polynomial (coefficients constant term first) irreducible over
    F_p; the one-row case of `_irreducible`."""
    f = [int(c) % p for c in coeffs]
    while f and not f[-1]:
        f.pop()
    if len(f) < 2 or f[-1] != 1:
        return False
    return bool(_irreducible(np.array([f[:-1]]), p)[0])


def monic_irreducibles(p: int, m: int):
    """Monic irreducibles of degree m >= 2 over F_p, in the order of
    `default_modulus`.

    A candidate with a root r in F_p (c_0 = 0 among them, r = 0) is divisible
    by x - r and so reducible; it is sieved out, a block of candidates at a
    time, and Rabin's test runs on the rest 16 at a time, so a search for
    the first irreducible stops soon after finding it.
    """
    weights = p ** np.arange(m - 1, -1, -1, dtype=np.int64)  # c_0 most significant
    roots = np.arange(p, dtype=np.int64)
    total = p ** m
    for start in range(0, total, 4096):
        codes = np.arange(start, min(start + 4096, total), dtype=np.int64)
        coeffs = (codes[:, None] // weights) % p       # column i holds c_i
        vals = np.ones((len(codes), p), dtype=np.int64)  # Horner from x^m down
        for i in range(m - 1, -1, -1):
            vals = (vals * roots + coeffs[:, i:i + 1]) % p
        left = coeffs[(vals != 0).all(axis=1)]
        for lo in range(0, len(left), 16):
            block = left[lo:lo + 16]
            for row in block[_irreducible(block, p)]:
                yield tuple(int(c) for c in row) + (1,)


@cache
def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over F_p.

    Coefficient tuples (c_0, ..., c_{m-1}) are compared low-degree-first, so
    the constant term is the most significant comparison position.
    """
    if m == 1:
        return (0, 1)  # the polynomial x
    for cand in monic_irreducibles(p, m):
        return cand
    raise NotIrreducible(f"no irreducible of degree {m} over F_{p}")  # unreachable


def _digitwise(one, k: int) -> np.ndarray:
    """The table of a digit-wise map on the base-p indices below p^k, from
    `one`, its table on single digits (p = len(one), any dimension d).

    An index a = p * a' + a_0 splits into its higher digits a' and its
    lowest digit a_0, which the map treats apart, so the k-digit table is
    p times the (k - 1)-digit one broadcast against `one` on interleaved
    axes: one pass per digit over the growing table, from the 0-digit
    table 0.  A (p, p) table of digit sums gives the addition tables, a
    (p,) table of digit negatives the negation table.
    """
    p, d = len(one), one.ndim
    out = np.zeros((1,) * d, dtype=np.int64)
    for _ in range(k):
        out = (p * np.expand_dims(out, tuple(range(1, 2 * d, 2)))
               + np.expand_dims(one, tuple(range(0, 2 * d, 2))))
        out = out.reshape([n * p for n in out.shape[::2]])
    return out


class FieldCtx:
    """Immutable arithmetic context for F_{p^m} with odd p.

    Elements are indices only.  The arithmetic (add, sub, neg, mul, inv,
    div, pow, frobenius and the characters) takes ints or numpy int arrays
    of indices and runs one array path: an array in gives an array out, a
    scalar in gives a numpy integer scalar out.
    """

    def __init__(self, p: int, m: int, modulus=None):
        require_field_size(p, m)
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if p == 2:
            raise EvenCharacteristic("characteristic 2 is out of scope")
        if m < 1:
            raise UsageError("extension degree must be >= 1")
        if modulus is None:
            modulus = default_modulus(p, m)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise UsageError(f"modulus must be monic of degree {m}")
        if not is_irreducible(modulus, p):
            raise NotIrreducible(f"{list(modulus)} is reducible over F_{p}")
        self.p = p
        self.m = m
        self.modulus = modulus
        self.size = p ** m
        self.pow_p = p ** np.arange(m, dtype=np.int64)
        self.digits = np.empty((self.size, m), dtype=np.int16)
        idx = np.arange(self.size, dtype=np.int64)
        for i in range(m):
            self.digits[:, i] = idx // self.pow_p[i] % p
        r = np.arange(p, dtype=np.int32)
        self.neg_table = _digitwise(-r % p, m)
        self._build_log_tables()
        # index = hi * P + lo: the low and high digits add apart, each
        # through a flattened table of its own (add_hi holds hi * P); a
        # field of at most ADD_TABLE_MAX elements takes P = N, so that
        # add_lo is its whole addition table and add_hi is [0]
        k = m if self.size <= ADD_TABLE_MAX else (m + 1) // 2
        self.split_base = P = p ** k
        one = r[:, None] + r                 # digit sums, reduced mod p
        one[one >= p] -= p
        self.add_lo = _digitwise(one, k).reshape(-1)
        self.add_hi = (P * _digitwise(one, m - k)).reshape(-1)
        self.add_table = self.add_lo.reshape(P, P) if k == m else None

    # -- construction helpers --

    def _build_log_tables(self):
        p, m, n1 = self.p, self.m, self.size - 1
        gmat = self._generator_matrix()
        # row i holds the coefficients of g^i; rows [k, 2k) are rows [0, k)
        # times g^k, one matrix product per doubling
        powers = np.zeros((n1, m), dtype=np.int64)
        powers[0, 0] = 1
        step, k = gmat, 1
        while k < n1:
            r = min(k, n1 - k)
            powers[k:k + r] = (powers[:r] @ step.T) % p
            step, k = (step @ step) % p, 2 * k
        exp = powers @ self.pow_p
        log = np.full(self.size, -1, dtype=np.int64)
        log[exp] = np.arange(n1, dtype=np.int64)
        self.exp = exp
        self.log = log
        self.generator = int(exp[1])
        # g is no square, so its odd powers are the nonsquares
        self._eta = np.ones(self.size, dtype=np.int8)
        self._eta[exp[1::2]] = -1
        self._eta[0] = 0

    def _generator_matrix(self):
        """g(C), the matrix of multiplication by the primitive element g of
        smallest index: the first candidate with g^(n1/r) != 1 for every
        prime r of n1 = size - 1, candidates tested 16 at a time.  Column 0
        of g^e(C) holds the digits of g^e."""
        p, m, n1 = self.p, self.m, self.size - 1
        C = _companions(np.array([self.modulus[:-1]]), p)[0]
        for lo in range(2, self.size, 16):
            cand = np.arange(lo, min(lo + 16, self.size))
            # column j of g(C) is g x^j, which is C times column j - 1
            G = np.empty((len(cand), m, m), dtype=np.int64)
            G[:, :, 0] = self.digits[cand]
            for j in range(1, m):
                G[:, :, j] = G[:, :, j - 1] @ C.T % p
            ok = np.ones(len(cand), dtype=bool)
            for r in prime_factors(n1):
                ok &= _matpow(G, n1 // r, p)[:, :, 0] @ self.pow_p != 1
            if ok.any():
                return G[np.argmax(ok)]
        raise RuntimeError("no primitive element found (unreachable)")

    # -- arithmetic on indices --

    def add(self, a, b):
        """a + b: one flat take of add_lo on a one-table field, one take
        of each half on a split one.  The indices are computed in int64,
        so narrow integer inputs cannot overflow.  On a one-table field
        the index array is built once, in place, and the sums are taken
        into it, so a sum holds one array of the broadcast shape, not two
        or three.

        a and b must be element indices, 0 <= a, b < N.  They are not
        range-checked: on a one-table field an out-of-range index reads
        another entry of add_lo (add(0, N) is add(1, 0)), not an IndexError."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        P = self.split_base
        if self.add_table is not None:
            shape = np.broadcast(a, b).shape
            if not shape:
                return self.add_lo[a * P + b]
            idx = np.multiply(a, P, out=np.empty(shape, dtype=np.int64))
            idx += b
            return self.add_lo.take(idx, out=idx, mode="wrap")
        Q = self.size // P
        return self.add_lo[a % P * P + b % P] + self.add_hi[a // P * Q + b // P]

    def translate(self, table, a):
        """table[x + a] for every element x, in index order.

        With Q = N / P rows of P entries, x + a has high part row[x_hi] of
        add_hi and low part row[x_lo] of add_lo, so the result is one row
        take and one column take of table viewed as (Q, P).  A one-table
        field (Q = 1) has only the column take.
        """
        P = self.split_base
        Q = self.size // P
        a_hi, a_lo = divmod(int(a), P)
        cols = self.add_lo[a_lo * P:(a_lo + 1) * P]
        if Q == 1:
            return np.asarray(table)[cols]
        rows = self.add_hi[a_hi * Q:(a_hi + 1) * Q] // P
        return np.asarray(table).reshape(Q, P)[rows][:, cols].reshape(-1)

    def minus_shifted(self, table, minus, at=None):
        """The map a -> table[x + a] - minus over x in `at` (every element,
        in index order, when at is None); minus has the shape of the result.
        It equals a -> sub(translate(table, a)[at], minus).

        table and -minus are split into their halves once, as row and
        column offsets into add_hi and add_lo, so a shift costs one
        translation and one flat take per half.  A one-table field has no
        high half (it is all zeros there) and skips it.
        """
        P = self.split_base
        Q = self.size // P
        table, neg = np.asarray(table), self.neg_table[minus]
        halves = [(self.add_lo, table % P * P, neg % P)]
        if Q > 1:
            halves.append((self.add_hi, table // P * Q, neg // P))

        def shifted(a):
            out = None
            for add, part, neg_part in halves:
                moved = self.translate(part, a)
                half = add[(moved if at is None else moved[at]) + neg_part]
                out = half if out is None else np.add(out, half, out=out)
            return out
        return shifted

    def neg(self, a):
        return self.neg_table[a]

    def sub(self, a, b):
        return self.add(a, self.neg_table[b])

    def mul(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        out = self.exp[(self.log[a] + self.log[b]) % (self.size - 1)]
        return np.where((a == 0) | (b == 0), 0, out)[()]

    def inv(self, a):
        a = np.asarray(a)
        if np.any(a == 0):
            raise DivisionByZero("inverse of zero")
        return self.exp[(-self.log[a]) % (self.size - 1)]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        """a**e for integer e >= 0 (convention 0**0 = 1)."""
        if e < 0:
            raise UsageError("negative exponent; use inv")
        n1 = self.size - 1
        a = np.asarray(a)
        out = self.exp[(self.log[a] * (e % n1)) % n1]
        return np.where(a == 0, 1 if e == 0 else 0, out)[()]

    def frobenius(self, a, k: int = 1):
        """a^(p^k), the k-fold Frobenius power (k >= 0)."""
        if k < 0:
            raise UsageError("frobenius exponent must be >= 0")
        return self.pow(a, pow(self.p, k, self.size - 1))

    def quadratic_character(self, a):
        """eta(a) in {-1, 0, +1}: +1 on the squares, read off the parity of
        the discrete log."""
        return self._eta[a]

    def nu(self, b):
        """nu(0) = size - 1 and nu(b) = -1 for nonzero b, elementwise; a
        scalar b gives a scalar."""
        return np.where(np.asarray(b) == 0, self.size - 1, -1)[()]

    @property
    def minus_one_index(self) -> int:
        return int(self.neg_table[1])

    def descriptor(self) -> str:
        mod = ",".join(str(c) for c in self.modulus)
        return f"p={self.p},m={self.m},mod=[{mod}]"

    def __repr__(self):
        return f"FieldCtx(p={self.p}, m={self.m}, size={self.size})"


_CTX_CACHE: dict[tuple, FieldCtx] = {}


def field_new(p: int, m: int, modulus=None) -> FieldCtx:
    """Build (or fetch the cached) F_{p^m} context.

    With no modulus, the lexicographically smallest monic irreducible is
    selected, so construction is reproducible across runs and platforms.
    """
    require_field_size(p, m)
    if modulus is None and is_prime(p) and p != 2 and m >= 1:
        modulus = default_modulus(p, m)
    key = (p, m, tuple(int(c) for c in modulus) if modulus is not None else None)
    if key not in _CTX_CACHE:
        _CTX_CACHE[key] = FieldCtx(p, m, modulus)
    return _CTX_CACHE[key]


_DESCRIPTOR = re.compile(r"p=(\d+),m=([1-9]\d*),mod=\[(\d+(?:,\d+)*)\]")


def parse_descriptor(s: str) -> FieldCtx:
    """Inverse of FieldCtx.descriptor(): 'p=3,m=2,mod=[1,0,1]'.

    Text of another shape, or a field that field_new refuses (past
    FIELD_SIZE_MAX, p no odd prime, a modulus not monic of degree m), is a
    UsageError.
    """
    match = _DESCRIPTOR.fullmatch(s)
    if match is None:
        raise UsageError(f"malformed field descriptor {s!r}")
    p, m, mod = match.groups()
    try:
        return field_new(int(p), int(m), tuple(int(c) for c in mod.split(",")))
    except (UsageError, NotPrime, EvenCharacteristic) as e:
        raise UsageError(f"field descriptor {s!r}: {e}") from None


def quadratic_solution_count(ctx: FieldCtx, a0, a1, a2, b):
    """Number of (x0, x1) in F^2 with a0*x0^2 + a1*x0*x1 + a2*x1^2 = b, for
    each element of b (a scalar b gives a scalar).

    Closed form q + nu(b) * eta(-Delta) with Delta = a0*a2 - a1^2/4, valid
    whenever Delta != 0 (division by 4 is multiplication by inv(4); p odd).
    """
    quarter = ctx.inv(4 % ctx.p)
    delta = ctx.sub(ctx.mul(a0, a2), ctx.mul(ctx.mul(a1, a1), quarter))
    if delta == 0:
        raise DegenerateForm("quadratic form has zero discriminant")
    return ctx.size + ctx.nu(b) * int(ctx.quadratic_character(ctx.neg(delta)))


class ExtensionSplit:
    """F_{p^{2n}} viewed over its subfield F_q, q = p^n, with basis (1, xi).

    xi is the smallest-index element outside F_q whose square lies in F_q;
    that square alpha is then automatically a nonsquare of F_q.
    """

    def __init__(self, ctx: FieldCtx, sub_degree: int):
        if ctx.m != 2 * sub_degree:
            raise UsageError(f"need m = 2*sub_degree, got m={ctx.m}, sub_degree={sub_degree}")
        self.ctx = ctx
        self.sub_degree = sub_degree
        self.sub_size = ctx.p ** sub_degree  # q
        idx = np.arange(ctx.size, dtype=np.int64)
        self.frobq = np.asarray(ctx.frobenius(idx, sub_degree))  # x -> x^q
        self.in_subfield_mask = self.frobq == idx
        self.sub_elements = np.flatnonzero(self.in_subfield_mask)
        self.sub_rank = np.full(ctx.size, -1, dtype=np.int64)
        self.sub_rank[self.sub_elements] = np.arange(self.sub_size)
        # a nonzero c of F_q is g^k with (q + 1) | k, and a square of F_q
        # exactly when k / (q + 1) is even; rank 0 is the element 0
        k = ctx.log[self.sub_elements] // (self.sub_size + 1)
        self._sub_eta = (1 - 2 * (k & 1)).astype(np.int8)
        self._sub_eta[0] = 0
        self.xi, self.alpha = self.canonical_xi_alpha()
        inv_denom = ctx.inv(int(ctx.sub(self.xi, int(self.frobq[self.xi]))))  # xi - xi^q != 0
        self.x1_of = np.asarray(ctx.mul(ctx.sub(idx, self.frobq), inv_denom))
        self.x0_of = np.asarray(ctx.sub(idx, ctx.mul(self.x1_of, self.xi)))

    # -- canonical choices --

    def canonical_xi_alpha(self) -> tuple[int, int]:
        """Smallest-index xi outside F_q with xi^2 in F_q, and alpha = xi^2."""
        ctx = self.ctx
        idx = np.arange(ctx.size, dtype=np.int64)
        squares = np.asarray(ctx.mul(idx, idx))
        ok = (~self.in_subfield_mask) & self.in_subfield_mask[squares]
        xi = int(np.flatnonzero(ok)[0])
        return xi, int(ctx.mul(xi, xi))

    def choose_theta(self) -> int:
        """Smallest-index theta whose norm down to F_q is a nonsquare of F_q."""
        idx = np.arange(self.ctx.size, dtype=np.int64)
        norms = np.asarray(self.ctx.mul(idx, self.frobq))
        mask = np.asarray(self.sub_eta(norms)) == -1
        return int(np.flatnonzero(mask)[0])

    # -- subfield-relative operations --

    def trace(self, x):
        """x + x^q, the trace onto F_q."""
        return self.ctx.add(x, self.frobq[x])

    def norm(self, x):
        """x * x^q, the norm onto F_q."""
        return self.ctx.mul(x, self.frobq[x])

    def decompose(self, x):
        """x = x0 + x1*xi with x0, x1 in F_q; returns (x0, x1)."""
        return self.x0_of[x], self.x1_of[x]

    def recompose(self, x0, x1):
        return self.ctx.add(x0, self.ctx.mul(x1, self.xi))

    def in_subfield(self, x):
        return self.in_subfield_mask[x]

    def sub_eta(self, x):
        """Quadratic character of F_q; evaluate only at subfield elements."""
        return self._sub_eta[self.sub_rank[x]]

    def __repr__(self):
        return (f"ExtensionSplit(q={self.sub_size}, q^2={self.ctx.size}, "
                f"xi={self.xi}, alpha={self.alpha})")


@cache
def split_new(ctx: FieldCtx, sub_degree: int) -> ExtensionSplit:
    """Cached ExtensionSplit constructor (contexts are immutable and
    compare by identity)."""
    return ExtensionSplit(ctx, sub_degree)
