"""Exact arithmetic in F_{p^m} for odd p, with quadratic-extension structure.

Elements are canonical integer indices: the element with coefficient vector
(c_0, ..., c_{m-1}) over F_p (c_i multiplying x^i) has index sum(c_i * p^i).
All arithmetic is table-driven.  Multiplication goes through discrete-log
tables over a fixed primitive element.  Addition (digit-wise in base p) is
one lookup in an N x N table for fields of at most ADD_TABLE_MAX elements.
Larger fields write an index as hi * P + lo with P = p^ceil(m/2); the low and
high digits add independently, so a sum is one lookup in a P x P table plus
one in a Q x Q table, Q = N/P (243 x 243 each at F_3^10).  Every field keeps
this split form: a small field takes P = N and Q = 1, so its P x P table is
the N x N one.  Every operation accepts either plain ints or numpy arrays of
indices, so the same code serves scalar API calls and bulk sweeps.

Translation x -> x + a acts on the two parts apart: the high parts move by
one row of the Q x Q table and the low parts by one row of the P x P table.
`FieldCtx.translate(table, a)` therefore reads table[x + a] for every x as a
row take and a column take of table viewed as a (Q, P) array, without one
field addition per element; the planarity sweeps and the parabolic line
counts run on it.

`ExtensionSplit` views F_{p^{2n}} over its index-2 subfield F_q (q = p^n):
decomposition along the basis (1, xi), relative trace and norm, the quadratic
character of the subfield, and the deterministic choices of xi and theta used
throughout the geometry modules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (
    DegenerateForm,
    DivisionByZero,
    EvenCharacteristic,
    NotIrreducible,
    NotPrime,
    UsageError,
    XiInSubfield,
)

__all__ = [
    "FieldCtx",
    "FieldElem",
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
# through two tables on the halves of the index.
ADD_TABLE_MAX = 1024


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
# Polynomial arithmetic over F_p (coefficient lists, constant term first).
# Construction-time only; everything hot is table-driven.
# ----------------------------------------------------------------------

def _trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _polydivmod(a, b, p):
    a = list(a)
    b = _trim(list(b))
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - db, 0)
    a = _trim(a)
    while a and len(a) - 1 >= db:
        shift = len(a) - 1 - db
        c = (a[-1] * inv_lead) % p
        q[shift] = c
        for i in range(db + 1):
            a[shift + i] = (a[shift + i] - c * b[i]) % p
        a = _trim(a)
    return _trim(q), a


def _polymulmod(a, b, mod, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _polydivmod(out, mod, p)[1]


def _polysub(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def _polygcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _polydivmod(a, b, p)[1]
    if a:
        inv_lead = pow(a[-1], p - 2, p)
        a = [(c * inv_lead) % p for c in a]
    return a


def _polypowmod(base, e, mod, p):
    result = [1]
    base = _polydivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _polymulmod(result, base, mod, p)
        base = _polymulmod(base, base, mod, p)
        e >>= 1
    return result


def is_irreducible(coeffs, p) -> bool:
    """Monic degree-m polynomial irreducible over F_p.

    Tests x^(p^m) == x (mod f) plus gcd(x^(p^d) - x, f) = 1 for every proper
    divisor d of m; together these characterize irreducibility.
    """
    f = _trim(list(coeffs))
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        return False
    if m == 1:
        return True
    x = [0, 1]
    t = list(x)
    powers = {}
    for d in range(1, m + 1):
        t = _polypowmod(t, p, f, p)  # t = x^(p^d) mod f
        powers[d] = list(t)
    if _polysub(powers[m], x, p):
        return False
    for d in range(1, m):
        if m % d == 0:
            g = _polygcd(_polysub(powers[d], x, p), f, p)
            if len(g) - 1 != 0:
                return False
    return True


def monic_irreducibles(p: int, m: int):
    """Monic irreducibles of degree m >= 2 over F_p, in the order of
    `default_modulus`.

    A candidate with a root r in F_p (c_0 = 0 among them, r = 0) is divisible
    by x - r and so reducible; it is sieved out, a block of candidates at a
    time, before `is_irreducible` is asked about the rest.
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
        for row in coeffs[(vals != 0).all(axis=1)]:
            cand = tuple(int(c) for c in row) + (1,)
            if is_irreducible(cand, p):
                yield cand


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


# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FieldElem:
    """One element of a fixed field, identified by its canonical index."""

    ctx: "FieldCtx"
    index: int

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(int(c) for c in self.ctx.digits[self.index])

    def _idx(self, other) -> int:
        if isinstance(other, FieldElem):
            if other.ctx is not self.ctx:
                raise ValueError("elements from different field contexts")
            return other.index
        return int(other)

    def __add__(self, other):
        return FieldElem(self.ctx, int(self.ctx.add(self.index, self._idx(other))))

    def __sub__(self, other):
        return FieldElem(self.ctx, int(self.ctx.sub(self.index, self._idx(other))))

    def __neg__(self):
        return FieldElem(self.ctx, int(self.ctx.neg(self.index)))

    def __mul__(self, other):
        return FieldElem(self.ctx, int(self.ctx.mul(self.index, self._idx(other))))

    def __truediv__(self, other):
        return FieldElem(self.ctx, int(self.ctx.div(self.index, self._idx(other))))

    def __pow__(self, e: int):
        return FieldElem(self.ctx, int(self.ctx.pow(self.index, e)))

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}x" if i == 1 else f"{head}x^{i}")
        return " + ".join(terms) if terms else "0"


class FieldCtx:
    """Immutable arithmetic context for F_{p^m} with odd p.

    Hot operations (add, mul, pow, frobenius, ...) accept indices as plain
    ints or numpy int arrays and return the same kind.
    """

    def __init__(self, p: int, m: int, modulus=None):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if p == 2:
            raise EvenCharacteristic("characteristic 2 is out of scope")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        if modulus is None:
            modulus = default_modulus(p, m)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise NotIrreducible(f"modulus must be monic of degree {m}")
        if not is_irreducible(modulus, p):
            raise NotIrreducible(f"{list(modulus)} is reducible over F_{p}")
        self.p = p
        self.m = m
        self.modulus = modulus
        self.size = p ** m
        self.pow_p = p ** np.arange(m, dtype=np.int64)
        idx = np.arange(self.size, dtype=np.int64)
        self.digits = ((idx[:, None] // self.pow_p[None, :]) % p).astype(np.int16)
        self.neg_table = (((-self.digits) % p).astype(np.int64) @ self.pow_p)
        self._build_log_tables()
        # index = hi * P + lo: the low and high digits add apart, each
        # through a flattened table of its own (add_hi holds hi * P)
        if self.size <= ADD_TABLE_MAX:
            self.add_table = self._digit_add(idx[:, None], idx[None, :])
            self.split_base = self.size
            self.add_lo = self.add_table.reshape(-1)
            self.add_hi = np.zeros(1, dtype=np.int64)
        else:
            self.add_table = None
            self.split_base = P = p ** ((m + 1) // 2)
            lo = np.arange(P, dtype=np.int64)
            hi = np.arange(self.size // P, dtype=np.int64) * P
            self.add_lo = self._digit_add(lo[:, None], lo[None, :]).ravel()
            self.add_hi = self._digit_add(hi[:, None], hi[None, :]).ravel()

    # -- construction helpers --

    def _build_log_tables(self):
        p, m, n1 = self.p, self.m, self.size - 1
        g = self._find_generator()
        # multiplication by g is F_p-linear; gmat is its matrix over (1, x, ..)
        gmat = np.zeros((m, m), dtype=np.int64)
        for j in range(m):
            col = _polymulmod(g, [0] * j + [1], list(self.modulus), p)
            for i, c in enumerate(col):
                gmat[i, j] = c
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
        self.generator = int(exp[1]) if n1 > 1 else 1

    def _find_generator(self):
        n1 = self.size - 1
        checks = [n1 // f for f in prime_factors(n1)]
        mod = list(self.modulus)
        for cand_idx in range(2, self.size):
            cand = _trim([int(c) for c in self.digits[cand_idx]])
            if all(_polypowmod(cand, e, mod, self.p) != [1] for e in checks):
                return cand
        raise RuntimeError("no primitive element found (unreachable)")

    # -- arithmetic on indices --

    def _digit_add(self, a, b):
        """Digit-wise sum in base p; builds the addition tables."""
        d = (self.digits[a] + self.digits[b]) % self.p
        return d.astype(np.int64) @ self.pow_p

    def add(self, a, b):
        if self.add_table is not None:
            return self.add_table[a, b]
        a, b, P = np.asarray(a), np.asarray(b), self.split_base
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

    def neg(self, a):
        return self.neg_table[a]

    def sub(self, a, b):
        return self.add(a, self.neg_table[b])

    def mul(self, a, b):
        if np.isscalar(a) and np.isscalar(b):
            if a == 0 or b == 0:
                return 0
            return int(self.exp[(self.log[a] + self.log[b]) % (self.size - 1)])
        a = np.asarray(a)
        b = np.asarray(b)
        out = self.exp[(self.log[a] + self.log[b]) % (self.size - 1)]
        return np.where((a == 0) | (b == 0), 0, out)

    def inv(self, a):
        if np.isscalar(a):
            if a == 0:
                raise DivisionByZero("inverse of zero")
            return int(self.exp[(-self.log[a]) % (self.size - 1)])
        a = np.asarray(a)
        if np.any(a == 0):
            raise DivisionByZero("inverse of zero")
        return self.exp[(-self.log[a]) % (self.size - 1)]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        """a**e for integer e >= 0 (convention 0**0 = 1)."""
        if e < 0:
            raise ValueError("negative exponent; use inv")
        n1 = self.size - 1
        er = e % n1
        if np.isscalar(a):
            if a == 0:
                return 1 if e == 0 else 0
            return int(self.exp[(self.log[a] * er) % n1])
        a = np.asarray(a)
        out = self.exp[(self.log[a] * er) % n1]
        return np.where(a == 0, 1 if e == 0 else 0, out)

    def frobenius(self, a, k: int = 1):
        """a^(p^k), the k-fold Frobenius power (k >= 0)."""
        if k < 0:
            raise ValueError("frobenius exponent must be >= 0")
        return self.pow(a, pow(self.p, k, self.size - 1))

    def quadratic_character(self, a):
        """eta(a) in {-1, 0, +1}: the sign of a^((size-1)/2)."""
        e = (self.size - 1) // 2
        if np.isscalar(a):
            if a == 0:
                return 0
            return 1 if self.pow(a, e) == 1 else -1
        a = np.asarray(a)
        v = self.pow(a, e)
        return np.where(a == 0, 0, np.where(v == 1, 1, -1))

    def nu(self, b) -> int:
        """nu(0) = size - 1 and nu(b) = -1 for nonzero b."""
        return self.size - 1 if self.index_of(b) == 0 else -1

    # -- element API --

    def element(self, index) -> FieldElem:
        index = int(index)
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range for field of size {self.size}")
        return FieldElem(self, index)

    def index_of(self, x) -> int:
        if isinstance(x, FieldElem):
            if x.ctx is not self:
                raise ValueError("element from a different field context")
            return x.index
        return int(x)

    @property
    def zero(self) -> FieldElem:
        return FieldElem(self, 0)

    @property
    def one(self) -> FieldElem:
        return FieldElem(self, 1)

    @property
    def minus_one_index(self) -> int:
        return int(self.neg_table[1])

    def elements(self):
        for i in range(self.size):
            yield FieldElem(self, i)

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
    if modulus is None and is_prime(p) and p != 2 and m >= 1:
        modulus = default_modulus(p, m)
    key = (p, m, tuple(int(c) for c in modulus) if modulus is not None else None)
    if key not in _CTX_CACHE:
        _CTX_CACHE[key] = FieldCtx(p, m, modulus)
    return _CTX_CACHE[key]


_DESCRIPTOR = re.compile(r"p=(\d+),m=([1-9]\d*),mod=\[(\d+(?:,\d+)*)\]")


def parse_descriptor(s: str) -> FieldCtx:
    """Inverse of FieldCtx.descriptor(): 'p=3,m=2,mod=[1,0,1]'.

    Text of another shape, or a p that is no odd prime, is a UsageError.
    """
    match = _DESCRIPTOR.fullmatch(s)
    if match is None:
        raise UsageError(f"malformed field descriptor {s!r}")
    p, m, mod = match.groups()
    if int(p) == 2 or not is_prime(int(p)):
        raise UsageError(f"field descriptor {s!r}: p must be an odd prime")
    return field_new(int(p), int(m), tuple(int(c) for c in mod.split(",")))


def quadratic_solution_count(ctx: FieldCtx, a0, a1, a2, b) -> int:
    """Number of (x0, x1) in F^2 with a0*x0^2 + a1*x0*x1 + a2*x1^2 = b.

    Closed form q + nu(b) * eta(-Delta) with Delta = a0*a2 - a1^2/4, valid
    whenever Delta != 0 (division by 4 is multiplication by inv(4); p odd).
    """
    a0, a1, a2, b = (ctx.index_of(v) for v in (a0, a1, a2, b))
    quarter = ctx.inv(4 % ctx.p)
    delta = ctx.sub(ctx.mul(a0, a2), ctx.mul(ctx.mul(a1, a1), quarter))
    if delta == 0:
        raise DegenerateForm("quadratic form has zero discriminant")
    return ctx.size + ctx.nu(b) * int(ctx.quadratic_character(ctx.neg(delta)))


class ExtensionSplit:
    """F_{p^{2n}} viewed over its subfield F_q, q = p^n, with basis (1, xi).

    xi defaults to the smallest-index element outside F_q whose square lies
    in F_q; that square alpha is then automatically a nonsquare of F_q.
    """

    def __init__(self, ctx: FieldCtx, sub_degree: int, xi=None):
        if ctx.m != 2 * sub_degree:
            raise ValueError(f"need m = 2*sub_degree, got m={ctx.m}, sub_degree={sub_degree}")
        self.ctx = ctx
        self.sub_degree = sub_degree
        self.sub_size = ctx.p ** sub_degree  # q
        idx = np.arange(ctx.size, dtype=np.int64)
        self.frobq = np.asarray(ctx.frobenius(idx, sub_degree))  # x -> x^q
        self.in_subfield_mask = self.frobq == idx
        self.sub_elements = np.flatnonzero(self.in_subfield_mask)
        self.sub_rank = np.full(ctx.size, -1, dtype=np.int64)
        self.sub_rank[self.sub_elements] = np.arange(self.sub_size)
        if xi is None:
            xi, _ = self.canonical_xi_alpha()
        xi = ctx.index_of(xi)
        if self.in_subfield_mask[xi]:
            raise XiInSubfield(f"xi index {xi} lies in the subfield")
        self.xi = xi
        sq = int(ctx.mul(xi, xi))
        self.alpha = sq if self.in_subfield_mask[sq] else None
        inv_denom = ctx.inv(int(ctx.sub(xi, int(self.frobq[xi]))))  # xi - xi^q != 0
        self.x1_of = np.asarray(ctx.mul(ctx.sub(idx, self.frobq), inv_denom))
        self.x0_of = np.asarray(ctx.sub(idx, ctx.mul(self.x1_of, xi)))

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
        e = (self.sub_size - 1) // 2
        v = self.ctx.pow(x, e)
        if np.isscalar(x):
            return 0 if x == 0 else (1 if v == 1 else -1)
        return np.where(np.asarray(x) == 0, 0, np.where(v == 1, 1, -1))

    def __repr__(self):
        return (f"ExtensionSplit(q={self.sub_size}, q^2={self.ctx.size}, "
                f"xi={self.xi}, alpha={self.alpha})")


_SPLIT_CACHE: dict[tuple, ExtensionSplit] = {}


def split_new(ctx: FieldCtx, sub_degree: int, xi=None) -> ExtensionSplit:
    """Cached ExtensionSplit constructor (contexts are immutable)."""
    key = (id(ctx), sub_degree, xi)
    if key not in _SPLIT_CACHE:
        _SPLIT_CACHE[key] = ExtensionSplit(ctx, sub_degree, xi)
    return _SPLIT_CACHE[key]
