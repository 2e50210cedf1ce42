"""Catalog of planar functions on F_{q^2} and their verifiers.

A planar function f has all difference maps x -> f(x+a) - f(x) bijective for
nonzero a.  The catalog covers the power families (square, Albert twisted
field, Coulter-Matthews) and the two-component semifield families (Dickson,
Zhou-Pott, Ganley, Penttila-Williams, Budaghyan-Helleseth), plus arbitrary
user polynomials.  Parameter validation is eager: a spec outside its family's
admissible range fails at construction rather than silently producing a
non-planar function.

Verification is always computational and reads only the table of f, never
the catalog membership.  Normality comes from a sweep of the field.  A shift
of the planarity check is proved either by rank, when the table is quadratic
in the base-p digits (the Dembowski-Ostrom families, whatever spec produced
them), or by a full sweep of its difference map; sampled mode checks a
documented, seeded set of shifts.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import cached_property
from math import gcd
from typing import NamedTuple

import numpy as np

from .errors import SpecConstraintViolated, UsageError, require_mode, require_trials
from .gf import ExtensionSplit, _invertible_mod_p

__all__ = [
    "PlanarFunctionSpec",
    "PlanarityCertificate",
    "square",
    "albert",
    "coulter_matthews",
    "dickson",
    "zhou_pott",
    "ganley",
    "penttila_williams",
    "budaghyan_helleseth",
    "custom",
    "parse_spec",
    "check_planarity",
    "check_normality",
    "check_value_distribution",
    "certify",
    "polarization",
    "half_polarization",
    "smallest_nonsquare",
]

def smallest_nonsquare(ctx) -> int:
    """Smallest-index nonsquare of the whole field."""
    idx = np.arange(ctx.size)
    return int(np.flatnonzero(np.asarray(ctx.quadratic_character(idx)) == -1)[0])


@dataclass(frozen=True)
class PlanarFunctionSpec:
    """A parameterized catalog entry bound to one quadratic extension split."""

    split: ExtensionSplit
    family: str
    k: int = 0
    i: int = 0
    b: int = 0                      # field index of the Budaghyan-Helleseth constant
    terms: tuple = ()               # custom: ((exponent, coeff index), ...)

    def __post_init__(self):
        ctx, n = self.split.ctx, self.split.sub_degree
        p = ctx.p
        fam = self.family
        if fam == "square":
            pass
        elif fam == "albert":
            if not (1 <= self.k <= n and (2 * n // gcd(2 * n, self.k)) % 2 == 1):
                raise SpecConstraintViolated(
                    f"albert needs 1 <= k <= n and 2n/gcd(2n,k) odd; got k={self.k}, n={n}")
        elif fam == "cm":
            if p != 3 or gcd(self.k, 2 * n) != 1 or self.k < 1:
                raise SpecConstraintViolated(
                    f"coulter-matthews needs p=3 and gcd(k,2n)=1; got p={p}, k={self.k}, n={n}")
        elif fam == "dickson":
            self._need_alpha()
            if not (0 < self.i < n and p ** n % 4 == 1):
                raise SpecConstraintViolated(
                    f"dickson needs 0 < i < n and p^n = 1 mod 4; got i={self.i}, p^n={p ** n}")
        elif fam == "zhoupott":
            self._need_alpha()
            if not (0 < self.i < n and 0 < self.k < n
                    and (n // gcd(self.k, n)) % 2 == 1 and p ** n % 4 == 1):
                raise SpecConstraintViolated(
                    f"zhou-pott needs 0 < i,k < n, n/gcd(k,n) odd, p^n = 1 mod 4; "
                    f"got i={self.i}, k={self.k}, p^n={p ** n}")
        elif fam == "ganley":
            # n = 1 degenerates toward the prime field
            if p != 3 or n % 2 == 0 or n < 3:
                raise SpecConstraintViolated(
                    f"ganley needs p=3 and odd n >= 3; got p={p}, n={n}")
        elif fam == "pw":
            if p != 3 or n != 5:
                raise SpecConstraintViolated(
                    f"penttila-williams needs p=3, n=5; got p={p}, n={n}")
        elif fam == "bh":
            if not (0 < self.k < n and (n // gcd(self.k, n)) % 2 == 1 and p ** n % 4 == 3):
                raise SpecConstraintViolated(
                    f"budaghyan-helleseth needs 0 < k < n, n/gcd(k,n) odd, p^n = 3 mod 4; "
                    f"got k={self.k}, p^n={p ** n}")
            if p ** self.k % 4 != 1:
                # odd k kills planarity: with u^(q-1) = u^(p^k-1) = -1 (such u
                # exist exactly when p^k = 3 mod 4 here), every pair (a, u*a)
                # lies in the kernel of the difference map
                raise SpecConstraintViolated(
                    f"budaghyan-helleseth needs p^k = 1 mod 4 (even k); got k={self.k}")
            if ctx.quadratic_character(self.b) != -1:
                raise SpecConstraintViolated("budaghyan-helleseth constant b must be a nonsquare")
        elif fam == "custom":
            if not self.terms:
                raise SpecConstraintViolated("custom spec needs at least one term")
            exps = [e for e, _ in self.terms]
            if len(set(exps)) != len(exps) or any(e < 0 for e in exps):
                raise SpecConstraintViolated("custom exponents must be distinct and >= 0")
            if any(not 0 <= c < ctx.size for _, c in self.terms):
                raise SpecConstraintViolated("custom coefficient index out of range")
        else:
            raise SpecConstraintViolated(f"unknown family {fam!r}")
        # an unread parameter keeps its default, so equal specs print equal
        read = (("split", "family") + _FAMILIES[fam].params
                + (("terms",) if fam == "custom" else ()))
        for param in fields(self):
            value = getattr(self, param.name)
            if param.name not in read and value != param.default:
                raise SpecConstraintViolated(
                    f"{fam} reads no parameter {param.name}; got {param.name}={value!r}")

    def _need_alpha(self):
        if self.split.alpha is None:
            raise SpecConstraintViolated(
                "this family needs a split with xi^2 = alpha in the subfield")

    # -- identity / formatting --

    def spec_string(self) -> str:
        """The text parse_spec reads back into this spec."""
        if self.family == "custom":
            return "custom:" + ",".join(f"{e}:{c}" for e, c in self.terms)
        kv = ",".join(f"{key}={getattr(self, key)}" for key in _FAMILIES[self.family].params)
        return f"{self.family}:{kv}" if kv else self.family

    def __repr__(self):
        return f"PlanarFunctionSpec({self.spec_string()} over {self.split!r})"

    # -- structure flags --

    @property
    def power_exponent(self) -> int | None:
        """Exponent d when f(x) = x^d, else None."""
        p = self.split.ctx.p
        if self.family == "square":
            return 2
        if self.family == "albert":
            return p ** self.k + 1
        if self.family == "cm":
            return (3 ** self.k + 1) // 2
        if self.family == "custom" and len(self.terms) == 1 and self.terms[0][1] == 1:
            return self.terms[0][0]
        return None

    @property
    def is_power_map(self) -> bool:
        return self.power_exponent is not None

    @cached_property
    def is_dembowski_ostrom(self) -> bool:
        """Whether the polarization f(x+y) - f(x) - f(y) is biadditive.

        That holds exactly when f(0) = 0 and every base-p digit of f(x) is a
        polynomial of degree <= 2 in the digits of x, which is the test
        check_planarity's rank proof runs on the table (_digit_quadratic);
        the catalog name is never read.
        """
        return bool(self.table[0] == 0) and _digit_quadratic(self.split.ctx, self.table)

    @property
    def is_two_component(self) -> bool:
        """Whether f = f0 + f1*xi is a catalog family built from two
        components over F_q (its natural theta is xi)."""
        return _FAMILIES[self.family].two_component

    # -- evaluation --

    @cached_property
    def table(self) -> np.ndarray:
        """f as a full lookup table over element indices."""
        split, ctx = self.split, self.split.ctx
        p, n = ctx.p, split.sub_degree
        x = np.arange(ctx.size, dtype=np.int64)
        fam = self.family
        if fam == "square":
            return np.asarray(ctx.mul(x, x))
        if fam == "albert":
            return np.asarray(ctx.pow(x, p ** self.k + 1))
        if fam == "cm":
            return np.asarray(ctx.pow(x, (3 ** self.k + 1) // 2))
        if fam in ("dickson", "zhoupott", "ganley", "pw"):
            x0, x1 = split.decompose(x)
            two = 2 % p
            if fam == "dickson":
                f0 = ctx.add(ctx.mul(x0, x0),
                             ctx.mul(split.alpha, ctx.pow(x1, 2 * p ** self.i)))
                f1 = ctx.mul(two, ctx.mul(x0, x1))
            elif fam == "zhoupott":
                f0 = ctx.add(ctx.pow(x0, p ** self.k + 1),
                             ctx.mul(split.alpha, ctx.pow(x1, p ** (self.k + self.i) + p ** self.i)))
                f1 = ctx.mul(two, ctx.mul(x0, x1))
            elif fam == "ganley":
                f0 = ctx.add(ctx.mul(x0, x0), ctx.pow(x1, 10))
                f1 = ctx.add(ctx.mul(two, ctx.mul(x0, x1)), ctx.pow(x1, 6))
            else:  # pw
                f0 = ctx.add(ctx.mul(x0, x0), ctx.pow(x1, 18))
                f1 = ctx.add(ctx.mul(two, ctx.mul(x0, x1)), ctx.pow(x1, 54))
            return np.asarray(split.recompose(f0, f1))
        if fam == "bh":
            t = ctx.mul(self.b, ctx.pow(x, p ** self.k + 1))
            return np.asarray(ctx.add(ctx.add(t, ctx.frobenius(t, n)),
                                      ctx.mul(split.xi, ctx.pow(x, p ** n + 1))))
        out = np.zeros(ctx.size, dtype=np.int64)
        for e, c in self.terms:
            out = np.asarray(ctx.add(out, ctx.mul(c, ctx.pow(x, e))))
        return out

    def eval(self, x):
        """f(x) for an index, FieldElem index, or index array."""
        if np.isscalar(x):
            return int(self.table[x])
        return self.table[np.asarray(x)]

    def components(self, x):
        """(f0(x), f1(x)) with f = f0 + f1*xi and both components in F_q."""
        v = self.eval(x)
        return self.split.decompose(v)

    @cached_property
    def polarization_table(self) -> np.ndarray:
        """star[x, y] = f(x+y) - f(x) - f(y), materialized for small fields."""
        ctx = self.split.ctx
        if ctx.size > 1024:
            raise ValueError("polarization table only materialized for small fields")
        x = np.arange(ctx.size)
        t = self.table
        return np.asarray(ctx.sub(ctx.sub(t[ctx.add(x[:, None], x[None, :])],
                                          t[x][:, None]), t[x][None, :]))


def polarization(spec: PlanarFunctionSpec, x, y):
    """f(x+y) - f(x) - f(y); symmetric, biadditive for Dembowski-Ostrom f."""
    ctx = spec.split.ctx
    t = spec.table
    return ctx.sub(ctx.sub(t[ctx.add(x, y)], t[x]), t[y])


def half_polarization(spec: PlanarFunctionSpec, x, y):
    """(f(x+y) - f(x) - f(y)) / 2; satisfies x*x = f(x) for Dembowski-Ostrom f."""
    ctx = spec.split.ctx
    return ctx.mul(ctx.inv(2 % ctx.p), polarization(spec, x, y))


# -- catalog constructors --

def square(split) -> PlanarFunctionSpec:
    return PlanarFunctionSpec(split, "square")


def albert(split, k: int) -> PlanarFunctionSpec:
    return PlanarFunctionSpec(split, "albert", k=k)


def coulter_matthews(split, k: int) -> PlanarFunctionSpec:
    return PlanarFunctionSpec(split, "cm", k=k)


def dickson(split, i: int) -> PlanarFunctionSpec:
    return PlanarFunctionSpec(split, "dickson", i=i)


def zhou_pott(split, i: int, k: int) -> PlanarFunctionSpec:
    return PlanarFunctionSpec(split, "zhoupott", i=i, k=k)


def ganley(split) -> PlanarFunctionSpec:
    return PlanarFunctionSpec(split, "ganley")


def penttila_williams(split) -> PlanarFunctionSpec:
    return PlanarFunctionSpec(split, "pw")


def budaghyan_helleseth(split, k: int, b: int | None = None) -> PlanarFunctionSpec:
    if b is None:
        b = smallest_nonsquare(split.ctx)
    return PlanarFunctionSpec(split, "bh", k=k, b=split.ctx.index_of(b))


def custom(split, terms) -> PlanarFunctionSpec:
    return PlanarFunctionSpec(split, "custom",
                              terms=tuple((int(e), split.ctx.index_of(c)) for e, c in terms))


# the catalog: spec_string writes and parse_spec reads a family's
# parameters in this order, and the CLI takes theta = xi for two components
class _Family(NamedTuple):
    make: Callable                  # the public constructor, make(split, **params)
    params: tuple = ()              # spec-string parameters, in spec-string order
    two_component: bool = False     # f = f0 + f1*xi from two components over F_q
    defaulted: tuple = ()           # params make fills in when a spec string omits them


_FAMILIES = {
    "square": _Family(square),
    "albert": _Family(albert, ("k",)),
    "cm": _Family(coulter_matthews, ("k",)),
    "dickson": _Family(dickson, ("i",), True),
    "zhoupott": _Family(zhou_pott, ("i", "k"), True),
    "ganley": _Family(ganley, (), True),
    "pw": _Family(penttila_williams, (), True),
    "bh": _Family(budaghyan_helleseth, ("k", "b"), True, ("b",)),
    "custom": _Family(custom),          # spec string: custom:<exp>:<coeff>[,...]
}


def parse_spec(split, text: str) -> PlanarFunctionSpec:
    """Parse the spec grammar: square | albert:k=2 | cm:k=3 | dickson:i=1 |
    zhoupott:i=1,k=1 | ganley | pw | bh:k=1,b=7 | custom:<exp>:<coeff>[,...]."""
    name, _, rest = text.strip().partition(":")
    pairs, kv = [], {}
    try:
        if name == "custom":
            for chunk in rest.split(","):
                e, _, c = chunk.partition(":")
                pairs.append((int(e), int(c)))
        elif rest:
            for chunk in rest.split(","):
                key, _, val = chunk.partition("=")
                kv[key.strip()] = int(val)
    except ValueError:
        raise UsageError(f"malformed spec string {text!r}") from None
    if name == "custom":
        return custom(split, pairs)
    if name not in _FAMILIES:
        raise UsageError(f"unknown spec string {text!r}")
    fam = _FAMILIES[name]
    for key in kv:
        if key not in fam.params:
            raise UsageError(f"spec string {text!r} has no parameter {key}")
    for key in fam.params:
        if key not in kv and key not in fam.defaulted:
            raise UsageError(f"spec string {text!r} needs {key}=<int>")
    return fam.make(split, **{key: kv[key] for key in fam.params if key in kv})


# -- verifiers --

@dataclass
class PlanarityCheck:
    passed: bool
    mode: str                       # "exhaustive" or "sampled"
    shifts_checked: int
    witness: tuple | None = None    # (a, x, x') with equal difference values
    seed: int | None = None


@dataclass
class PlanarityCertificate:
    spec: PlanarFunctionSpec
    is_planar: bool
    is_normal: bool
    satisfies_value_distribution: bool
    planarity: PlanarityCheck = None
    witness: tuple | None = None


# rows of the table checked per batch of the quadratic identity, and shifts
# per batch of the rank filter, whose (batch, m, m) matrices stay a few MB
_IDENTITY_ROWS = 1024
_RANK_BATCH = 4096


def _digit_quadratic(ctx, t) -> bool:
    """Whether each base-p digit of t[x] is a polynomial of degree <= 2 in
    the digits x_i of x, checked exactly at every x.

    The only candidate is g(x) = c + l.x + (1/2) x^T H x with c = t[0],
    l_i + H_ii / 2 = t[e_i] - c and H_ij = t[e_i + e_j] - t[e_i] - t[e_j] + c
    (digit-wise, e_i = p^i, and i = j allowed: e_i + e_i = 2 e_i).  Writing
    x = x_lo + x_hi by its low k and high m - k digits, g(x) = g(x_lo) +
    g(x_hi) - c + x_lo^T H x_hi, so g is evaluated on the p^k low and the
    p^(m-k) high parts alone and the table is compared with it in batches of
    about _IDENTITY_ROWS rows.
    """
    p, m, D, e = ctx.p, ctx.m, ctx.digits, ctx.pow_p
    c = D[t[0]].astype(np.int64)
    g1 = D[t[e]] - c
    H = (D[t[e[:, None] + e]] - g1[:, None] - g1 - c) % p      # (m, m, digit)
    half = (p + 1) // 2
    lin = (g1 - half * H[np.arange(m), np.arange(m)]) % p

    def g(X):
        return (c + X @ lin + half * np.einsum("ki,kj,ijr->kr", X, X, H)) % p

    k = m // 2
    B = p ** k
    lo, hi = D[:B].astype(np.int64), D[::B].astype(np.int64)
    g_lo, g_hi = g(lo), g(hi) - c
    cross = np.einsum("li,ijr->jlr", lo[:, :k], H[:k, k:]).reshape(m - k, B * m)
    step = max(1, _IDENTITY_ROWS // B)
    for h in range(0, len(hi), step):
        xh = hi[h:h + step, k:]
        pred = (g_lo + g_hi[h:h + step, None] + (xh @ cross).reshape(len(xh), B, m)) % p
        if not np.array_equal(pred.reshape(-1, m), D[t[h * B:(h + step) * B]]):
            return False
    return True


def _proved_by_rank(ctx, t, shifts) -> np.ndarray:
    """Boolean mask of the shifts a whose difference map is proved bijective.

    When t is quadratic in the digits (_digit_quadratic), D_a(x) = t[x + a] -
    t[x] is t[a] - t[0] plus a map linear in x over F_p, whose matrix M_a has
    as column i the digits of t[e_i + a] - t[e_i] - t[a] + t[0].  D_a is
    bijective exactly when M_a is invertible, which gf's batched elimination
    mod p decides for a block of shifts at once.  Any other table proves no
    shift.
    """
    proved = np.zeros(len(shifts), dtype=bool)
    if not _digit_quadratic(ctx, t):
        return proved
    p, D, e = ctx.p, ctx.digits, ctx.pow_p
    base = D[t[e]] - D[t[0]]
    for lo in range(0, len(shifts), _RANK_BATCH):
        a = shifts[lo:lo + _RANK_BATCH]
        M = (D[t[ctx.add(e, a[:, None])]] - base - D[t[a]][:, None]) % p
        # int16 digits mean p < 2^15, so (p - 1)^2 fits int32
        proved[lo:lo + _RANK_BATCH] = _invertible_mod_p(M.astype(np.int32), p)
    return proved


def check_planarity(spec: PlanarFunctionSpec, mode: str = "exhaustive",
                    trials: int = 1000, seed: int = 0,
                    workers: int = 1) -> PlanarityCheck:
    """Difference maps x -> f(x+a) - f(x) are bijections for nonzero a.

    Exhaustive mode checks every nonzero shift a; sampled mode checks a
    seeded sample of `trials` distinct shifts.  A shift is proved either by
    rank or by a full bijection sweep of its difference map.  When every
    digit of f(x) over F_p is a polynomial of degree <= 2 in the digits of x
    (checked on the whole table, never read from the catalog), D_a is an
    affine map over F_p, bijective exactly when its m x m matrix M_a is
    invertible; the shifts with invertible M_a are proved and dropped, the
    rest are swept.  A shift with singular M_a does fail, but its witness
    comes from the sweep, as for every other table.

    The reported witness is the one with the smallest failing shift, and
    `shifts_checked` counts it within all the shifts of the mode.  The sweep
    runs in one thread (a pool of two was slower); `workers` is ignored and
    stays only because perfbench/reference.py still passes it.
    """
    require_mode(mode, ("exhaustive", "sampled"))
    ctx = spec.split.ctx
    N, P = ctx.size, ctx.split_base
    Q = N // P
    t = spec.table
    if mode == "exhaustive":
        shifts = np.arange(1, N, dtype=np.int64)
        seed_used = None
    else:
        require_trials(trials)
        rng = np.random.default_rng(seed)
        count = min(trials, N - 1)
        shifts = np.sort(rng.choice(N - 1, size=count, replace=False) + 1)
        seed_used = seed

    # f(x+a) - f(x) digit-wise: the high and low parts of f(x+a), as row
    # offsets into add_hi and add_lo, are two translations of tables built
    # once; those of -f(x) are the column offsets
    hi, lo = t // P * Q, t % P * P
    neg_t = ctx.neg(t)
    neg_hi, neg_lo = neg_t // P, neg_t % P

    seen = np.zeros(N, dtype=bool)
    for a in shifts[~_proved_by_rank(ctx, t, shifts)]:
        vals = (ctx.add_hi[ctx.translate(hi, a) + neg_hi]
                + ctx.add_lo[ctx.translate(lo, a) + neg_lo])
        seen[:] = False
        seen[vals] = True
        if not seen.all():
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            dup = np.flatnonzero(sv[1:] == sv[:-1])[0]
            x1, x2 = sorted((int(order[dup]), int(order[dup + 1])))
            checked = int(np.searchsorted(shifts, a)) + 1
            return PlanarityCheck(False, mode, checked, witness=(int(a), x1, x2),
                                  seed=seed_used)
    return PlanarityCheck(True, mode, len(shifts), seed=seed_used)


def check_normality(spec: PlanarFunctionSpec):
    """f(0) = 0 together with f(a) = f(b) iff a = +-b.

    Returns (passed, witness); witness is ('f0', value) or (a, b) for a fiber
    collision outside {a, -a}.
    """
    ctx = spec.split.ctx
    t = spec.table
    if t[0] != 0:
        return False, ("f0", int(t[0]))
    x = np.arange(ctx.size)
    even = t[ctx.neg(x)] == t
    if not even.all():
        a = int(np.flatnonzero(~even)[0])
        return False, (a, int(ctx.neg(a)))
    counts = np.bincount(t, minlength=ctx.size)
    if counts[0] != 1 or counts.max() > 2:
        bad_val = 0 if counts[0] != 1 else int(np.flatnonzero(counts > 2)[0])
        pre = np.flatnonzero(t == bad_val)
        a, b = int(pre[0]), int(pre[1]) if len(pre) > 1 else int(pre[0])
        for cand in pre[1:]:
            if cand != ctx.neg(a):
                b = int(cand)
                break
        return False, (a, b)
    return True, None


def check_value_distribution(spec: PlanarFunctionSpec) -> bool:
    """#{x : f(x) = c} equals #{y : y^2 = c} for every c."""
    ctx = spec.split.ctx
    x = np.arange(ctx.size)
    hist_f = np.bincount(spec.table, minlength=ctx.size)
    hist_sq = np.bincount(np.asarray(ctx.mul(x, x)), minlength=ctx.size)
    return bool(np.array_equal(hist_f, hist_sq))


def certify(spec: PlanarFunctionSpec, mode: str = "exhaustive",
            trials: int = 1000, seed: int = 0) -> PlanarityCertificate:
    planarity = check_planarity(spec, mode=mode, trials=trials, seed=seed)
    normal, witness_n = check_normality(spec)
    vd = check_value_distribution(spec)
    return PlanarityCertificate(
        spec=spec,
        is_planar=planarity.passed,
        is_normal=normal,
        satisfies_value_distribution=vd,
        planarity=planarity,
        witness=planarity.witness or witness_n,
    )
