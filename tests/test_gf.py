import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitalforge import gf
from unitalforge.errors import (
    DegenerateForm,
    DivisionByZero,
    EvenCharacteristic,
    NotIrreducible,
    NotPrime,
    XiInSubfield,
)


# -- independent oracles ----------------------------------------------------

def poly_mul_mod(a, b, modulus, p):
    """Schoolbook polynomial product mod (modulus, p); coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    # reduce by the monic modulus
    m = len(modulus) - 1
    while len(out) > m:
        lead = out.pop()
        if lead:
            for i in range(m):
                out[-m + i] = (out[-m + i] - lead * modulus[i]) % p
    return [c % p for c in out] + [0] * (m - len(out))


def poly_rem(a, b, p):
    """Remainder of a by the monic b over F_p; coefficient lists."""
    a, d = list(a), len(b) - 1
    while len(a) > d:
        lead = a.pop()
        for i in range(d):
            a[-d + i] = (a[-d + i] - lead * b[i]) % p
    return a


def monic_polys(p, d):
    """Every monic polynomial of degree d over F_p, constant term first."""
    for code in range(p ** d):
        yield [(code // p ** i) % p for i in range(d)] + [1]


def idx_of(coeffs, p):
    return sum(c * p ** i for i, c in enumerate(coeffs))


def pow_by_squaring(ctx, x, e):
    acc = 1
    base = x
    while e:
        if e & 1:
            acc = ctx.mul(acc, base)
        base = ctx.mul(base, base)
        e >>= 1
    return acc


# -- construction -----------------------------------------------------------

def test_prime_field_modulus_is_x():
    f3 = gf.field_new(3, 1)
    assert f3.modulus == (0, 1)
    assert f3.size == 3


def test_f9_default_modulus():
    f9 = gf.field_new(3, 2)
    assert f9.modulus == (1, 0, 1)  # x^2 + 1; -1 is a nonsquare mod 3


def test_explicit_irreducible_accepted():
    f9 = gf.field_new(3, 2, (1, 0, 1))
    assert f9.size == 9


def test_reducible_modulus_rejected():
    with pytest.raises(NotIrreducible):
        gf.FieldCtx(3, 2, (0, 2, 1))   # x^2 + 2x = x(x+2)


def test_bad_characteristic():
    with pytest.raises(NotPrime):
        gf.FieldCtx(9, 1)
    with pytest.raises(EvenCharacteristic):
        gf.FieldCtx(2, 3)


def test_default_modulus_deterministic():
    for p, m in ((3, 4), (5, 2), (7, 2)):
        assert gf.default_modulus(p, m) == gf.default_modulus(p, m)
        assert gf.is_irreducible(gf.default_modulus(p, m), p)


def test_descriptor_round_trip():
    f = gf.field_new(5, 4)
    assert gf.parse_descriptor(f.descriptor()) is f


# -- arithmetic -------------------------------------------------------------

def test_inv_of_one():
    f9 = gf.field_new(3, 2)
    assert f9.inv(1) == 1


def test_f9_x_squared_is_two():
    # with modulus x^2 + 1 the element x (index 3) squares to -1 = 2
    f9 = gf.field_new(3, 2)
    assert f9.mul(3, 3) == 2


def test_lagrange_power():
    for p, m in ((3, 2), (5, 2), (3, 4)):
        ctx = gf.field_new(p, m)
        nz = np.arange(1, ctx.size)
        assert np.all(ctx.pow(nz, ctx.size - 1) == 1)


def test_division_by_zero():
    f9 = gf.field_new(3, 2)
    with pytest.raises(DivisionByZero):
        f9.inv(0)
    with pytest.raises(DivisionByZero):
        f9.inv(np.array([1, 0, 2]))


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3)])
def test_mul_matches_polynomial_oracle(p, m):
    ctx = gf.field_new(p, m)
    mod = list(ctx.modulus)
    for a in range(ctx.size):
        ca = [int(c) for c in ctx.digits[a]]
        for b in range(ctx.size):
            cb = [int(c) for c in ctx.digits[b]]
            expect = idx_of(poly_mul_mod(ca, cb, mod, p), p)
            assert ctx.mul(a, b) == expect


def test_pow_matches_square_and_multiply():
    ctx = gf.field_new(5, 2)
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = int(rng.integers(1, 25))
        e = int(rng.integers(0, 600))
        assert ctx.pow(x, e) == pow_by_squaring(ctx, x, e)


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])
def test_field_axioms_exhaustive(p, m):
    ctx = gf.field_new(p, m)
    if ctx.size > 81:
        pytest.skip("exhaustive triple check capped at 81 elements")
    idx = np.arange(ctx.size)
    a = idx[:, None, None]
    b = idx[None, :, None]
    c = idx[None, None, :]
    assert np.all(ctx.add(a, b) == ctx.add(b, a))
    assert np.all(ctx.mul(a, b)[..., 0] == ctx.mul(b, a)[..., 0])
    assert np.all(ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c)))
    assert np.all(ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c)))
    assert np.all(ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c)))


def test_field_axioms_random_f729():
    ctx = gf.field_new(3, 6)
    rng = np.random.default_rng(0)
    a, b, c = rng.integers(0, 729, (3, 100_000))
    assert np.all(ctx.add(a, b) == ctx.add(b, a))
    assert np.all(ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c)))
    assert np.all(ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c)))


@pytest.mark.parametrize("p,m", [(3, 2), (3, 4), (5, 2), (3, 6)])
def test_inverses_exhaustive(p, m):
    ctx = gf.field_new(p, m)
    nz = np.arange(1, ctx.size)
    assert np.all(ctx.mul(ctx.inv(nz), nz) == 1)


# -- frobenius, trace, decomposition -----------------------------------------

def test_frobenius_basic():
    ctx = gf.field_new(3, 4)
    idx = np.arange(81)
    assert np.all(ctx.frobenius(idx, 0) == idx)
    assert np.all(ctx.frobenius(idx, 4) == idx)      # full orbit
    assert np.all(ctx.frobenius(idx, 1) == ctx.pow(idx, 3))


def test_frobenius_xi_in_f9(s9):
    # xi^3 = xi * xi^2 = 2 xi = -xi when xi^2 = 2
    f9 = s9.ctx
    assert f9.frobenius(s9.xi, 1) == f9.neg(s9.xi)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 3)])
def test_trace_fibers(p, n):
    split = gf.split_new(gf.field_new(p, 2 * n), n)
    ctx = split.ctx
    tr = np.asarray(split.trace(np.arange(ctx.size)))
    assert np.all(np.asarray(split.in_subfield(tr)))
    vals, counts = np.unique(tr, return_counts=True)
    assert len(vals) == split.sub_size              # surjective onto F_q
    assert np.all(counts == split.sub_size)         # fibers of size q


def test_trace_linear_and_doubles_subfield(s9):
    f9 = s9.ctx
    for c in s9.sub_elements:
        assert s9.trace(int(c)) == f9.mul(2, int(c))
    x, y = 5, 7
    assert s9.trace(f9.add(x, y)) == f9.add(s9.trace(x), s9.trace(y))


def test_decompose_examples(s9):
    assert tuple(int(v) for v in s9.decompose(0)) == (0, 0)
    assert tuple(int(v) for v in s9.decompose(s9.xi)) == (0, 1)
    for c in s9.sub_elements:
        assert tuple(int(v) for v in s9.decompose(int(c))) == (int(c), 0)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2)])
def test_decompose_recompose_round_trip(p, n):
    split = gf.split_new(gf.field_new(p, 2 * n), n)
    idx = np.arange(split.ctx.size)
    x0, x1 = split.decompose(idx)
    assert np.all(np.asarray(split.in_subfield(x0)))
    assert np.all(np.asarray(split.in_subfield(x1)))
    assert np.all(np.asarray(split.recompose(x0, x1)) == idx)
    # recompose is injective on F_q x F_q: all pairs give distinct elements
    pairs = np.asarray(split.recompose(split.sub_elements[:, None],
                                       split.sub_elements[None, :]))
    assert len(np.unique(pairs)) == split.ctx.size


def test_xi_in_subfield_rejected(s9):
    with pytest.raises(XiInSubfield):
        gf.ExtensionSplit(s9.ctx, 1, xi=2)


# -- characters and counting -------------------------------------------------

def test_eta_examples():
    f3 = gf.field_new(3, 1)
    assert f3.quadratic_character(0) == 0
    assert f3.quadratic_character(1) == 1
    assert f3.quadratic_character(2) == -1          # squares of F_3 are {0, 1}


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3)])
def test_eta_against_square_enumeration(p, m):
    ctx = gf.field_new(p, m)
    idx = np.arange(ctx.size)
    squares = set(int(v) for v in np.asarray(ctx.mul(idx, idx)))
    eta = np.asarray(ctx.quadratic_character(idx))
    for x in range(ctx.size):
        expect = 0 if x == 0 else (1 if x in squares else -1)
        assert eta[x] == expect


def test_nu_values():
    f3 = gf.field_new(3, 1)
    f5 = gf.field_new(5, 1)
    assert f3.nu(0) == 2
    assert f3.nu(1) == -1
    assert f5.nu(2) == -1


def test_quadratic_count_examples():
    f3 = gf.field_new(3, 1)
    # Q = x0^2 + x1^2 over F_3: delta = 1, eta(-1) = eta(2) = -1
    assert gf.quadratic_solution_count(f3, 1, 0, 1, 1) == 4
    assert gf.quadratic_solution_count(f3, 1, 0, 1, 0) == 1
    with pytest.raises(DegenerateForm):
        gf.quadratic_solution_count(f3, 1, 2, 1, 1)  # delta = 1 - 4/4 = 0


def test_quadratic_count_brute_force_f3():
    f3 = gf.field_new(3, 1)
    for a0 in range(3):
        for a1 in range(3):
            for a2 in range(3):
                delta = (a0 * a2 - a1 * a1 * pow(4 % 3, 1, 3)) % 3
                if delta == 0:
                    continue
                for b in range(3):
                    brute = sum(1 for x0 in range(3) for x1 in range(3)
                                if (a0 * x0 * x0 + a1 * x0 * x1 + a2 * x1 * x1) % 3 == b)
                    assert gf.quadratic_solution_count(f3, a0, a1, a2, b) == brute


# -- deterministic choices -----------------------------------------------------

def test_choose_theta_f9(s9):
    theta = s9.choose_theta()
    f9 = s9.ctx
    assert f9.pow(theta, 4) == 2                    # norm is the nonsquare of F_3
    assert theta != 0
    for smaller in range(theta):
        norm = int(s9.norm(smaller))
        assert smaller == 0 or s9.sub_eta(norm) != -1


def test_choose_xi_alpha_f9(s9):
    xi, alpha = s9.canonical_xi_alpha()
    assert (xi, alpha) == (3, 2)                    # xi = x, x^2 = -1 = 2
    assert s9.sub_eta(alpha) == -1                  # alpha automatically a nonsquare
    assert s9.recompose(0, 1) == s9.xi


def test_field_elem_operators(s9):
    f9 = s9.ctx
    x = f9.element(3)
    assert (x * x).index == 2
    assert (x + (-x)).index == 0
    assert (x / x).index == 1
    assert (x ** 8).index == 1
    assert str(f9.element(5)) == "2 + x"


# -- large-field tables ------------------------------------------------------

# default moduli and a SHA-256 of the exp table (little-endian int64), frozen
# from the digit-path implementation that preceded the split addition tables
FROZEN_MODULI = {
    (3, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
    (5, 6): (1, 0, 0, 0, 1, 1, 1),
    (3, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1),
    (3, 6): (1, 0, 0, 0, 1, 1, 1),
    (5, 4): (1, 0, 1, 1, 1),
    (7, 4): (1, 0, 0, 1, 1),
}
FROZEN_EXP_SHA256 = {
    (3, 10): "bb1be2d55951169a68fdc04c24d7a4292636484f7e5d0f13654bd90e9e0b4a09",
    (5, 6): "c6cfd82f776f942ccf9ce4010ae6fcfdd2ae6272ac94b23e0d2c67959675c14e",
}
LARGE_FIELDS = [(3, 10), (5, 6)]
SPLIT_FIELDS = LARGE_FIELDS + [(3, 7)]    # F_3^7: halves of 3^4 and 3^3


def mobius(n):
    out, f = 1, 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            out = -out
        f += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p,m", sorted(FROZEN_MODULI))
def test_default_modulus_frozen(p, m):
    assert gf.default_modulus(p, m) == FROZEN_MODULI[(p, m)]
    assert gf.field_new(p, m).modulus == FROZEN_MODULI[(p, m)]


@pytest.mark.parametrize("p,m", [(3, 4), (3, 5), (5, 3), (7, 3)])
def test_sieved_search_accepts_every_irreducible(p, m):
    unsieved = []
    for code in range(p ** m):
        cand = tuple((code // p ** (m - 1 - i)) % p for i in range(m)) + (1,)
        if gf.is_irreducible(cand, p):
            unsieved.append(cand)
    sieved = list(gf.monic_irreducibles(p, m))
    assert sieved == unsieved
    gauss = sum(mobius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0) // m
    assert len(sieved) == gauss
    assert gf.default_modulus(p, m) == sieved[0]


@pytest.mark.parametrize("p,m", LARGE_FIELDS)
def test_log_tables_frozen(p, m):
    import hashlib

    ctx = gf.field_new(p, m)
    assert hashlib.sha256(ctx.exp.astype("<i8").tobytes()).hexdigest() == \
        FROZEN_EXP_SHA256[(p, m)]
    n1 = ctx.size - 1
    assert ctx.log[0] == -1 and np.array_equal(ctx.log[ctx.exp], np.arange(n1))
    assert ctx.generator == ctx.exp[1]


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3),
                                 (7, 2), (7, 3)])
def test_is_irreducible_matches_trial_division(p, m):
    # f of degree m is reducible iff a monic factor of degree <= m/2 divides it
    factors = [g for d in range(1, m // 2 + 1) for g in monic_polys(p, d)]
    for f in monic_polys(p, m):
        divisible = any(not any(poly_rem(f, g, p)) for g in factors)
        assert gf.is_irreducible(f, p) == (not divisible), f


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (7, 2), (3, 4), (5, 4)])
def test_generator_is_smallest_primitive_index(p, m):
    ctx = gf.field_new(p, m)

    def order(a):
        k, x = 1, a
        while x != 1:
            x, k = ctx.mul(x, a), k + 1
        return k

    orders = [order(a) for a in range(1, ctx.generator + 1)]
    assert orders[-1] == ctx.size - 1 and max(orders[:-1]) < ctx.size - 1


@pytest.mark.parametrize("p,m", sorted(FROZEN_MODULI))
def test_characters_match_euler_criterion(p, m):
    # eta(a) = a^((N-1)/2) and, on F_q, sub_eta(c) = c^((q-1)/2), as +-1 or 0
    ctx = gf.field_new(p, m)
    split = gf.split_new(ctx, m // 2)
    minus_one = ctx.minus_one_index

    def as_sign(v):
        return np.where(v == 1, 1, np.where(v == minus_one, -1, v))

    idx = np.arange(ctx.size)
    assert np.array_equal(ctx.quadratic_character(idx),
                          as_sign(pow_by_squaring(ctx, idx, (ctx.size - 1) // 2)))
    sub = split.sub_elements
    assert np.array_equal(split.sub_eta(sub),
                          as_sign(pow_by_squaring(ctx, sub, (split.sub_size - 1) // 2)))
    assert isinstance(ctx.quadratic_character(2), np.integer)
    assert isinstance(split.sub_eta(1), np.integer)


@pytest.mark.parametrize("p,m", SPLIT_FIELDS)
def test_split_addition_matches_digits(p, m):
    ctx = gf.field_new(p, m)
    assert ctx.size > gf.ADD_TABLE_MAX and ctx.add_table is None
    a, b = np.random.default_rng(5).integers(0, ctx.size, (2, 10 ** 5))

    def index_of_digits(d):
        return (d % p).astype(np.int64) @ ctx.pow_p

    da, db = ctx.digits[a].astype(np.int64), ctx.digits[b].astype(np.int64)
    assert np.array_equal(ctx.add(a, b), index_of_digits(da + db))
    assert np.array_equal(ctx.sub(a, b), index_of_digits(da - db))
    assert np.array_equal(ctx.neg(a), index_of_digits(-da))
    # scalar and broadcast calls take the same path
    assert ctx.add(int(a[0]), int(b[0])) == index_of_digits(da[0] + db[0])
    assert np.array_equal(ctx.add(a[:10], int(b[0])), index_of_digits(da[:10] + db[0]))


@pytest.mark.parametrize("p,m", SPLIT_FIELDS)
def test_field_axioms_random_large(p, m):
    ctx = gf.field_new(p, m)
    a, b, c = np.random.default_rng(6).integers(0, ctx.size, (3, 10 ** 4))
    assert np.array_equal(ctx.add(a, b), ctx.add(b, a))
    assert np.array_equal(ctx.add(ctx.add(a, b), c), ctx.add(a, ctx.add(b, c)))
    assert np.array_equal(ctx.mul(a, ctx.add(b, c)),
                          ctx.add(ctx.mul(a, b), ctx.mul(a, c)))
    assert np.all(ctx.add(a, ctx.neg(a)) == 0) and np.array_equal(ctx.add(a, 0), a)


@pytest.mark.parametrize("p,m", [(3, 4), (5, 2), (3, 7)] + LARGE_FIELDS)
def test_translate_matches_addition(p, m):
    # every shift a up to F_3^7, a seeded sample beyond
    ctx = gf.field_new(p, m)
    x = np.arange(ctx.size, dtype=np.int64)
    rng = np.random.default_rng([7, ctx.size])
    table = rng.integers(0, 10 ** 6, ctx.size)
    shifts = x if ctx.size <= 2187 else np.append(rng.integers(0, ctx.size, 30),
                                                   [0, 1, ctx.size - 1])
    for a in shifts:
        assert np.array_equal(ctx.translate(table, a), table[ctx.add(x, int(a))]), a
    assert ctx.translate(table, np.int64(1)).shape == (ctx.size,)


def test_small_field_split_form_is_the_addition_table():
    # P = N, Q = 1: the low table is the whole one, the high table trivial
    ctx = gf.field_new(3, 4)
    assert ctx.split_base == ctx.size and np.array_equal(ctx.add_hi, [0])
    assert np.array_equal(ctx.add_lo.reshape(ctx.size, ctx.size), ctx.add_table)


# -- properties over small random fields ---------------------------------------

# prime fields, extensions, and two fields past ADD_TABLE_MAX (split addition)
SMALL_FIELDS = [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (5, 2), (7, 2), (11, 2),
                (3, 3), (5, 3), (3, 4), (3, 5), (3, 7), (7, 4)]


@st.composite
def field_elements(draw, k=3):
    """A field from SMALL_FIELDS and k of its elements."""
    ctx = gf.field_new(*draw(st.sampled_from(SMALL_FIELDS)))
    return ctx, [draw(st.integers(0, ctx.size - 1)) for _ in range(k)]


@settings(max_examples=200, deadline=None)
@given(field_elements())
def test_field_associativity_property(field):
    ctx, (a, b, c) = field
    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))


@settings(max_examples=200, deadline=None)
@given(field_elements())
def test_field_distributivity_property(field):
    ctx, (a, b, c) = field
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.mul(ctx.add(a, b), c) == ctx.add(ctx.mul(a, c), ctx.mul(b, c))


@settings(max_examples=200, deadline=None)
@given(field_elements(k=2))
def test_field_inverses_property(field):
    ctx, (a, b) = field
    assert ctx.add(a, ctx.neg(a)) == 0 and ctx.add(a, 0) == a
    assert ctx.sub(ctx.add(a, b), b) == a
    assert ctx.mul(a, 1) == a
    if a:
        assert ctx.mul(a, ctx.inv(a)) == 1
    if b:
        assert ctx.div(ctx.mul(a, b), b) == a


@settings(max_examples=200, deadline=None)
@given(field_elements(k=2))
def test_table_and_digit_paths_agree_property(field):
    # addition by table (or split tables) against the base-p digits; the
    # log-table product against the polynomial product mod the modulus
    ctx, (a, b) = field
    p = ctx.p
    da, db = [int(d) for d in ctx.digits[a]], [int(d) for d in ctx.digits[b]]
    assert ctx.add(a, b) == idx_of([(x + y) % p for x, y in zip(da, db)], p)
    assert ctx.mul(a, b) == idx_of(poly_mul_mod(da, db, list(ctx.modulus), p), p)
    pair = np.array([a, b])
    assert np.array_equal(ctx.add(pair, pair[::-1]), [ctx.add(a, b)] * 2)
    assert np.array_equal(ctx.mul(pair, pair[::-1]), [ctx.mul(a, b)] * 2)
