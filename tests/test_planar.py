import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitalforge import gf, planar
from unitalforge.errors import SpecConstraintViolated, UsageError


def test_square_eval_examples(s9):
    sq = planar.square(s9)
    assert sq.eval(0) == 0
    assert sq.eval(s9.xi) == s9.alpha == 2


def test_cm_exponent(s81):
    cm = planar.coulter_matthews(s81, 3)
    assert cm.power_exponent == (3 ** 3 + 1) // 2 == 14
    x = np.arange(81)
    assert np.all(cm.eval(x) == s81.ctx.pow(x, 14))


def _family_formula_table(spec):
    """The table as each family wrote its own formula: x*x for square,
    x^(p^k + 1) for albert, x^((3^k + 1)/2) for cm, the term sum for custom."""
    ctx = spec.split.ctx
    x = np.arange(ctx.size, dtype=np.int64)
    if spec.family == "square":
        return np.asarray(ctx.mul(x, x))
    if spec.family == "albert":
        return np.asarray(ctx.pow(x, ctx.p ** spec.k + 1))
    if spec.family == "cm":
        return np.asarray(ctx.pow(x, (3 ** spec.k + 1) // 2))
    out = np.zeros(ctx.size, dtype=np.int64)
    for e, c in spec.terms:
        out = np.asarray(ctx.add(out, ctx.mul(c, ctx.pow(x, e))))
    return out


@pytest.mark.parametrize("p, m, text", [
    *((p, m, "square") for p, m in ((3, 2), (5, 2), (7, 2), (3, 4), (5, 4), (3, 6))),
    (3, 6, "albert:k=2"), (5, 6, "albert:k=2"),
    (3, 4, "cm:k=1"), (3, 4, "cm:k=3"), (3, 6, "cm:k=1"), (3, 6, "cm:k=5"),
    *((3, 2, f"custom:{e}:1") for e in (0, 2, 4, 6, 10)),
])
def test_power_tables_match_the_family_formulas(p, m, text):
    spec = planar.parse_spec(gf.split_new(gf.field_new(p, m), m // 2), text)
    table, formula = spec.table, _family_formula_table(spec)
    assert spec.is_power_map
    assert table.dtype == formula.dtype and table.tobytes() == formula.tobytes()


def test_components_recompose_round_trip(s9, s81):
    for spec in (planar.square(s9), planar.coulter_matthews(s81, 3)):
        split = spec.split
        x = np.arange(split.ctx.size)
        f0, f1 = spec.components(x)
        assert np.all(np.asarray(split.recompose(f0, f1)) == spec.eval(x))


def test_square_components_formula(s9):
    # (x0 + x1 xi)^2 = x0^2 + alpha x1^2 + 2 x0 x1 xi when xi^2 = alpha
    f9 = s9.ctx
    sq = planar.square(s9)
    x = np.arange(9)
    x0, x1 = s9.decompose(x)
    f0, f1 = sq.components(x)
    assert np.all(f0 == np.asarray(
        f9.add(f9.mul(x0, x0), f9.mul(s9.alpha, f9.mul(x1, x1)))))
    assert np.all(f1 == np.asarray(f9.mul(2, f9.mul(x0, x1))))


def test_dickson_components_formula():
    split = gf.split_new(gf.field_new(5, 4), 2)
    ctx = split.ctx
    dk = planar.dickson(split, 1)
    x = np.arange(ctx.size)
    x0, x1 = split.decompose(x)
    f0, f1 = dk.components(x)
    assert np.all(f0 == np.asarray(
        ctx.add(ctx.mul(x0, x0), ctx.mul(split.alpha, ctx.pow(x1, 2 * 5)))))
    assert np.all(f1 == np.asarray(ctx.mul(2, ctx.mul(x0, x1))))


def test_components_zero_for_catalog(s9, s81, s729):
    specs = [planar.square(s9), planar.coulter_matthews(s81, 3),
             planar.albert(s729, 2), planar.ganley(s729),
             planar.budaghyan_helleseth(s729, 2)]
    for spec in specs:
        assert tuple(int(v) for v in spec.components(0)) == (0, 0)


def test_square_planar(s9, s25):
    for split in (s9, s25):
        chk = planar.check_planarity(planar.square(split))
        assert chk.passed


def test_cube_not_planar_with_witness(s9):
    cube = planar.custom(s9, [(3, 1)])
    chk = planar.check_planarity(cube)
    assert not chk.passed
    a, x1, x2 = chk.witness
    f9 = s9.ctx
    d1 = f9.sub(int(cube.eval(f9.add(x1, a))), int(cube.eval(x1)))
    d2 = f9.sub(int(cube.eval(f9.add(x2, a))), int(cube.eval(x2)))
    assert a != 0 and x1 != x2 and d1 == d2


def test_sampled_planarity_deterministic(s729):
    alb = planar.albert(s729, 2)
    c1 = planar.check_planarity(alb, mode="sampled", trials=50, seed=7)
    c2 = planar.check_planarity(alb, mode="sampled", trials=50, seed=7)
    assert c1.passed and c2.passed and c1.shifts_checked == c2.shifts_checked == 50


@pytest.mark.parametrize("trials", [0, -3])
def test_sampled_planarity_needs_a_trial(trials, s9):
    # a sample of no shift would pass the non-planar cube having checked nothing
    cube = planar.custom(s9, [(3, 1)])
    with pytest.raises(UsageError, match="at least 1 trial"):
        planar.check_planarity(cube, mode="sampled", trials=trials)


def test_unknown_planarity_mode_is_a_usage_error(s9):
    # a misspelt mode used to sample and pass the non-planar cube
    with pytest.raises(UsageError, match="mode must be one of"):
        planar.check_planarity(planar.custom(s9, [(3, 1)]), mode="bogus")


def test_workers_agree_on_witness(s9):
    # perfbench/reference.py still passes workers; the keyword changes nothing
    cube = planar.custom(s9, [(3, 1)])
    w1 = planar.check_planarity(cube, workers=1).witness
    w4 = planar.check_planarity(cube, workers=4).witness
    assert w1 == w4


def test_square_normal(s9):
    ok, _ = planar.check_normality(planar.square(s9))
    assert ok


def test_catalog_families_normal(s81, s729):
    for spec in (planar.coulter_matthews(s81, 3), planar.albert(s729, 2),
                 planar.ganley(s729), planar.budaghyan_helleseth(s729, 2)):
        ok, w = planar.check_normality(spec)
        assert ok, (spec.spec_string(), w)


def test_shifted_map_not_normal(s9):
    shifted = planar.custom(s9, [(2, 1), (0, 1)])   # x^2 + 1
    ok, witness = planar.check_normality(shifted)
    assert not ok and witness == ("f0", 1)


def test_fiber_collision_witness(s9):
    # x^4 is even, and its fibers over F_9 have size 4: the witness is two
    # points of one fiber that are not +-each other
    spec = planar.parse_spec(s9, "custom:4:1")
    ok, (a, b) = planar.check_normality(spec)
    assert not ok and spec.table[a] == spec.table[b]
    assert b not in (a, int(s9.ctx.neg(a)))
    assert (a, b) == (1, 3)


def test_value_distribution(s9, s81, s729):
    assert planar.check_value_distribution(planar.square(s9))
    assert planar.check_value_distribution(planar.albert(s729, 2))
    assert planar.check_value_distribution(planar.coulter_matthews(s81, 3))


def test_two_component_families_fail_value_distribution(s729):
    # the square-fiber identity is a power-family property, not expected here
    assert not planar.check_value_distribution(planar.ganley(s729))


def test_polarization_symmetric_random():
    split = gf.split_new(gf.field_new(5, 4), 2)
    dk = planar.dickson(split, 1)
    rng = np.random.default_rng(1)
    xs, ys = rng.integers(0, split.ctx.size, (2, 10_000))
    assert np.all(planar.polarization(dk, xs, ys) == planar.polarization(dk, ys, xs))


def test_polarization_biadditive_do():
    split = gf.split_new(gf.field_new(5, 4), 2)
    dk = planar.dickson(split, 1)
    ctx = split.ctx
    rng = np.random.default_rng(2)
    x, xp, y = rng.integers(0, ctx.size, (3, 10_000))
    lhs = planar.polarization(dk, np.asarray(ctx.add(x, xp)), y)
    rhs = ctx.add(planar.polarization(dk, x, y), planar.polarization(dk, xp, y))
    assert np.all(np.asarray(lhs) == np.asarray(rhs))


def test_polarization_with_zero(s9):
    sq = planar.square(s9)
    x = np.arange(9)
    assert np.all(np.asarray(planar.polarization(sq, x, 0)) == 0)


def test_half_polarization_square_is_product(s9):
    sq = planar.square(s9)
    f9 = s9.ctx
    x = np.arange(9)
    assert np.all(np.asarray(planar.half_polarization(sq, x[:, None], x[None, :]))
                  == np.asarray(f9.mul(x[:, None], x[None, :])))


def test_half_polarization_diagonal_is_eval_for_do():
    split = gf.split_new(gf.field_new(5, 4), 2)
    dk = planar.dickson(split, 1)
    x = np.arange(split.ctx.size)
    assert np.all(np.asarray(planar.half_polarization(dk, x, x)) == dk.eval(x))


def test_do_flags(s9, s81, s729):
    assert planar.square(s9).is_dembowski_ostrom
    assert planar.albert(s729, 2).is_dembowski_ostrom
    assert planar.ganley(s729).is_dembowski_ostrom
    assert not planar.coulter_matthews(s81, 3).is_dembowski_ostrom
    assert planar.coulter_matthews(s81, 3).is_power_map
    assert not planar.ganley(s729).is_power_map


@pytest.mark.parametrize("build", [
    lambda s9, s729: planar.albert(s9, 1),                # 2n/gcd even
    lambda s9, s729: planar.coulter_matthews(s729, 2),    # gcd(k, 2n) != 1
    lambda s9, s729: planar.dickson(s9, 1),               # needs 0 < i < n
    lambda s9, s729: planar.ganley(s9),                   # needs n >= 3
    lambda s9, s729: planar.PlanarFunctionSpec(s9, "ganley"),  # by either path
    lambda s9, s729: planar.penttila_williams(s729),      # needs n = 5
    lambda s9, s729: planar.budaghyan_helleseth(s729, 1),  # odd k: non-planar
    lambda s9, s729: planar.budaghyan_helleseth(s729, 2, b=1),  # square b
    lambda s9, s729: planar.custom(s9, []),
    lambda s9, s729: planar.PlanarFunctionSpec(s9, "square", k=5),  # k unread
])
def test_eager_validation_rejects(build, s9, s729):
    with pytest.raises(SpecConstraintViolated):
        build(s9, s729)


def test_dickson_needs_one_mod_four(s9):
    # p^n = 3 for the F_9 split: 3 = 3 mod 4
    with pytest.raises(SpecConstraintViolated):
        planar.PlanarFunctionSpec(s9, "dickson", i=1)


def test_spec_string_round_trip(s9, s81, s729):
    split625 = gf.split_new(gf.field_new(5, 4), 2)
    specs = [planar.square(s9), planar.coulter_matthews(s81, 3),
             planar.albert(s729, 2), planar.dickson(split625, 1),
             planar.ganley(s729), planar.budaghyan_helleseth(s729, 2),
             planar.custom(s9, [(3, 1), (2, 4)])]
    for spec in specs:
        again = planar.parse_spec(spec.split, spec.spec_string())
        assert again.spec_string() == spec.spec_string()
        assert np.array_equal(again.table, spec.table)


# one instance of every family and its spec string, as the family table
# reproduces them byte for byte (bh with its default b = the smallest nonsquare)
SPEC_STRINGS = [
    ((3, 2), lambda s: planar.square(s), "square"),
    ((3, 6), lambda s: planar.albert(s, 2), "albert:k=2"),
    ((3, 4), lambda s: planar.coulter_matthews(s, 3), "cm:k=3"),
    ((5, 4), lambda s: planar.dickson(s, 1), "dickson:i=1"),
    ((5, 6), lambda s: planar.zhou_pott(s, 1, 1), "zhoupott:i=1,k=1"),
    ((3, 6), lambda s: planar.ganley(s), "ganley"),
    ((3, 10), lambda s: planar.penttila_williams(s), "pw"),
    ((3, 6), lambda s: planar.budaghyan_helleseth(s, 2), "bh:k=2,b=4"),
    ((3, 2), lambda s: planar.custom(s, [(3, 1), (2, 4)]), "custom:3:1,2:4"),
]


@pytest.mark.parametrize("field, build, text", SPEC_STRINGS,
                         ids=[t for _, _, t in SPEC_STRINGS])
def test_spec_strings_frozen(field, build, text):
    split = gf.split_new(gf.field_new(*field), field[1] // 2)
    spec = build(split)
    assert spec.spec_string() == text
    assert planar.parse_spec(split, text) == spec
    assert planar.parse_spec(split, text).spec_string() == text


@pytest.mark.parametrize("text, message", [
    ("albert", "spec string 'albert' needs k=<int>"),
    ("zhoupott:i=1", "spec string 'zhoupott:i=1' needs k=<int>"),
    ("bh:b=4", "spec string 'bh:b=4' needs k=<int>"),
    ("foo:k=1", "unknown spec string 'foo:k=1'"),
    ("albert:k=two", "malformed spec string 'albert:k=two'"),
    ("custom:3", "malformed spec string 'custom:3'"),
    ("square:z=7", "spec string 'square:z=7' has no parameter z"),
    ("albert:k=2,j=1", "spec string 'albert:k=2,j=1' has no parameter j"),
    # each parameter once, each number as spec_string writes it
    ("albert:k=1,k=2", "spec string 'albert:k=1,k=2' repeats a parameter"),
    ("albert:k=02", "malformed spec string 'albert:k=02'"),
    ("albert:k=+2", "malformed spec string 'albert:k=+2'"),
    ("albert:k=1_0", "malformed spec string 'albert:k=1_0'"),
    ("custom:03:1", "malformed spec string 'custom:03:1'"),
    ("square:", "malformed spec string 'square:'"),
])
def test_parse_spec_messages(s729, text, message):
    with pytest.raises(UsageError) as err:
        planar.parse_spec(s729, text)
    assert str(err.value) == message


# is_dembowski_ostrom as the catalog names decided it before the flag was
# read off the table: x^14 on F_81 and x^122 on F_729 are the only non-DO
DO_CATALOG = [
    ((3, 2), "square", True), ((5, 2), "square", True), ((7, 2), "square", True),
    ((3, 4), "square", True), ((3, 4), "cm:k=1", True), ((3, 4), "cm:k=3", False),
    ((3, 6), "cm:k=1", True), ((3, 6), "cm:k=5", False), ((3, 6), "albert:k=2", True),
    ((3, 6), "ganley", True), ((3, 6), "bh:k=2", True), ((5, 4), "dickson:i=1", True),
    ((5, 6), "zhoupott:i=1,k=1", True), ((3, 10), "pw", True),
]


@pytest.mark.parametrize("field, text, expected", DO_CATALOG,
                         ids=[f"{t}@{p}^{m}" for (p, m), t, _ in DO_CATALOG])
def test_do_flag_read_off_the_table_matches_catalog(field, text, expected):
    split = gf.split_new(gf.field_new(*field), field[1] // 2)
    assert planar.parse_spec(split, text).is_dembowski_ostrom is expected


def test_certify_bundle(s9):
    cert = planar.certify(planar.square(s9))
    assert cert.is_planar and cert.is_normal and cert.satisfies_value_distribution
    assert cert.witness is None


# -- large fields (split addition tables) --------------------------------------
# reports frozen from the digit-path implementation that preceded the tables

@pytest.fixture(scope="module")
def s15625():
    return gf.split_new(gf.field_new(5, 6), 3)


@pytest.fixture(scope="module")
def s59049():
    return gf.split_new(gf.field_new(3, 10), 5)


def test_sampled_planarity_frozen_large(s15625, s59049):
    for split, text in ((s15625, "zhoupott:i=1,k=1"), (s59049, "pw")):
        chk = planar.check_planarity(planar.parse_spec(split, text),
                                     mode="sampled", trials=1000, seed=0)
        assert chk == planar.PlanarityCheck(True, "sampled", 1000, None, 0)


@pytest.mark.parametrize("p, m, text, kwargs, want", [
    (3, 2, "square", {}, (True, 8, None)),
    (5, 2, "square", {}, (True, 24, None)),
    (3, 4, "cm:k=3", {}, (True, 80, None)),
    (3, 6, "albert:k=2", {}, (True, 728, None)),
    (3, 8, "cm:k=3", {"mode": "sampled", "trials": 300, "seed": 0}, (True, 300, None)),
])
def test_planarity_results_frozen(p, m, text, kwargs, want):
    # Coulter-Matthews is not quadratic in the digits, so its shifts are
    # swept: on one table at F_81, through both halves at F_3^8
    spec = planar.parse_spec(gf.split_new(gf.field_new(p, m), m // 2), text)
    chk = planar.check_planarity(spec, **kwargs)
    assert (chk.passed, chk.shifts_checked, chk.witness) == want


def test_non_planar_witness_frozen_large(s15625):
    # f = x^2 + 7 x^26 over F_5^6: the first 39 shifts pass, shift 40 fails
    f = planar.parse_spec(s15625, "custom:2:1,26:7")
    assert planar.check_planarity(f) == planar.PlanarityCheck(
        False, "exhaustive", 40, (40, 55, 1183), None)
    assert planar.check_planarity(f, mode="sampled", trials=1000, seed=0) == \
        planar.PlanarityCheck(False, "sampled", 15, (228, 326, 1040), 0)


def test_bh_k1_as_stated_is_not_planar(s729):
    # docs/LEDGER.md, obstruction 1: the Budaghyan-Helleseth map with k = 1
    # over F_3^6, written out as b x^4 + b^27 x^108 + xi x^28, has a u with
    # u^(p^k - 1) = u^(q - 1) = -1, so D_1(x) = f(x+1) - f(x) repeats a value
    ctx, xi = s729.ctx, s729.xi
    b = planar.smallest_nonsquare(ctx)

    def written_out(k):
        e = 3 ** k + 1
        return planar.custom(s729, [(e, b), (27 * e, ctx.pow(b, 27)), (28, xi)])

    assert np.array_equal(written_out(2).table, planar.budaghyan_helleseth(s729, 2).table)
    f = written_out(1)
    u = int(ctx.exp[182])                                 # g^(728/4): u^2 = -1
    assert ctx.pow(u, 2) == ctx.pow(u, 26) == ctx.minus_one_index
    assert ctx.sub(f.eval(ctx.add(u, 1)), f.eval(u)) == ctx.sub(f.eval(1), f.eval(0))
    assert not planar.check_planarity(f).passed


# -- split-digit translation sweep against the former field additions ----------

def _reference_planarity(spec, mode="exhaustive", trials=1000, seed=0):
    """The former sweep: two full-field ctx.add calls per shift."""
    ctx = spec.split.ctx
    N = ctx.size
    t = spec.table
    x = np.arange(N, dtype=np.int64)
    if mode == "exhaustive":
        shifts = np.arange(1, N, dtype=np.int64)
        seed_used = None
    else:
        rng = np.random.default_rng(seed)
        shifts = np.sort(rng.choice(N - 1, size=min(trials, N - 1), replace=False) + 1)
        seed_used = seed
    neg_t = ctx.neg(t)

    seen = np.zeros(N, dtype=bool)
    for checked, a in enumerate(shifts, 1):
        vals = ctx.add(t[ctx.add(x, int(a))], neg_t)
        seen[:] = False
        seen[vals] = True
        if not seen.all():
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            dup = np.flatnonzero(sv[1:] == sv[:-1])[0]
            x1, x2 = sorted((int(order[dup]), int(order[dup + 1])))
            return planar.PlanarityCheck(False, mode, checked, witness=(int(a), x1, x2),
                                         seed=seed_used)
    return planar.PlanarityCheck(True, mode, len(shifts), seed=seed_used)


def _as_spec(ctx, t):
    return SimpleNamespace(split=SimpleNamespace(ctx=ctx), table=t)


def _perturbed_squares(ctx, seeds):
    """Seeded variants of f = x^2, by seed % 5: (0) f itself; (1) f with a
    few entries overwritten, which fails at every shift; (2, 3) f + h with h
    constant on the cosets of H = {index < p^k}, which passes exactly the
    shifts in H, k <= 3 in (2) and k = m - 1 in (3); (4) f + c*x^p, planar
    again."""
    p, m = ctx.p, ctx.m
    x = np.arange(ctx.size, dtype=np.int64)
    for seed in seeds:
        rng = np.random.default_rng([seed, ctx.size])
        t = np.asarray(ctx.mul(x, x))
        kind = seed % 5
        if kind == 1:
            at = rng.choice(ctx.size, size=int(rng.integers(1, 4)), replace=False)
            t[at] = rng.integers(0, ctx.size, len(at))
        elif kind in (2, 3):
            k = int(rng.integers(1, min(m - 1, 3) + 1)) if kind == 2 else m - 1
            h = rng.integers(0, ctx.size, ctx.size // p ** k)
            t = np.asarray(ctx.add(t, h[x // p ** k]))
        elif kind == 4:
            t = np.asarray(ctx.add(t, ctx.mul(int(rng.integers(1, ctx.size)), ctx.pow(x, p))))
        yield seed, _as_spec(ctx, t)


# F_3^6 keeps one addition table; F_3^7 splits into unequal halves (Q = 27,
# P = 81), F_5^6 and F_3^10 into equal ones
@pytest.mark.parametrize("p, m", [(3, 6), (3, 7), (5, 6), (3, 10)])
def test_planarity_matches_reference_sweep(p, m):
    ctx = gf.field_new(p, m)
    small = ctx.size <= 2187
    for seed, spec in _perturbed_squares(ctx, range(10)):
        runs = [("sampled", 25)]
        # a full reference sweep of x^2 (seed 0) or of the k = m - 1 variant
        # (seed 3) runs only up to F_3^7; the variants 1 and 2 stop within
        # p^3 shifts everywhere
        if seed % 5 in (1, 2) or (small and seed in (0, 3)):
            runs.append(("exhaustive", None))
        for mode, trials in runs:
            kwargs = dict(mode=mode, seed=seed)
            if trials:
                kwargs["trials"] = trials
            assert (planar.check_planarity(spec, **kwargs)
                    == _reference_planarity(spec, **kwargs)), (seed, mode)


# -- planarity by rank on digit-quadratic tables -------------------------------

def _sample_shifts(ctx, trials=1000, seed=0):
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(ctx.size - 1, size=min(trials, ctx.size - 1), replace=False) + 1)


def _quadratic_table(ctx, rng, square_part):
    """A random table of digit degree <= 2: digits c + l.x + sum q_i x_i^2 +
    sum_{i<j} D_ij x_i x_j with random coefficient digits, or x^2 plus a
    random affine part (planar) when `square_part`."""
    p, m = ctx.p, ctx.m
    X = ctx.digits.astype(np.int64)
    digits = rng.integers(0, p, m) + X @ rng.integers(0, p, (m, m))
    if square_part:
        x = np.arange(ctx.size)
        digits = digits + ctx.digits[ctx.mul(x, x)]
    else:
        iu, ju = np.triu_indices(m)
        digits = digits + (X[:, iu] * X[:, ju]) @ rng.integers(0, p, (len(iu), m))
    return (digits % p) @ ctx.pow_p


@settings(max_examples=25, deadline=None)
@given(field=st.sampled_from([(3, 4), (3, 5), (5, 3)]), seed=st.integers(0, 2 ** 32 - 1),
       square_part=st.booleans())
def test_planarity_on_quadratic_tables_matches_reference(field, seed, square_part):
    # mostly non-planar: singular M_a leave their shifts, and the witness, to the sweep
    ctx = gf.field_new(*field)
    spec = _as_spec(ctx, _quadratic_table(ctx, np.random.default_rng(seed), square_part))
    for mode in ("exhaustive", "sampled"):
        kwargs = dict(mode=mode, trials=40, seed=seed % 100)
        assert (planar.check_planarity(spec, **kwargs)
                == _reference_planarity(spec, **kwargs)), kwargs


def test_rank_proves_every_sampled_shift_of_do_families(s729, s15625, s59049):
    for spec in (planar.penttila_williams(s59049), planar.zhou_pott(s15625, 1, 1),
                 planar.albert(s729, 2)):
        ctx = spec.split.ctx
        assert planar._proved_by_rank(ctx, spec.table, _sample_shifts(ctx)).all(), spec


def test_rank_proves_nothing_off_the_quadratic_tables(s81, s59049):
    cm = planar.coulter_matthews(s81, 3)
    assert not planar._proved_by_rank(s81.ctx, cm.table, np.arange(1, 81)).any()
    pw = planar.penttila_williams(s59049)
    ctx = s59049.ctx
    t = pw.table.copy()
    t[12345] = ctx.add(int(t[12345]), 1)
    assert not planar._digit_quadratic(ctx, t)
    assert not planar._proved_by_rank(ctx, t, _sample_shifts(ctx)).any()


def test_linear_cube_keeps_its_witness(s9):
    # x^3 is additive over F_9: every M_a is 0, so the sweep finds the witness
    cube = planar.custom(s9, [(3, 1)])
    assert planar._digit_quadratic(s9.ctx, cube.table)
    assert not planar._proved_by_rank(s9.ctx, cube.table, np.arange(1, 9)).any()
    assert planar.check_planarity(cube) == planar.PlanarityCheck(
        False, "exhaustive", 1, (1, 0, 1), None)
    assert planar.check_planarity(cube, mode="sampled", trials=5, seed=1) == \
        planar.PlanarityCheck(False, "sampled", 1, (1, 0, 1), 1)


def test_even_quartic_keeps_its_witness(s9, monkeypatch):
    # x^4 is even, so f(x + a) - f(x) repeats a value on every field; over
    # F_9 the sweep names (1, 1, 4), and over F_81 on the split form
    # (1, 1, 16)
    assert planar.check_planarity(planar.parse_spec(s9, "custom:4:1")) == \
        planar.PlanarityCheck(False, "exhaustive", 1, (1, 1, 4), None)
    monkeypatch.setattr(gf, "ADD_TABLE_MAX", 27)
    ctx = gf.FieldCtx(3, 4)
    assert ctx.add_table is None
    spec = planar.parse_spec(gf.ExtensionSplit(ctx, 2), "custom:4:1")
    chk = planar.check_planarity(spec)
    a, x1, x2 = chk.witness
    t = spec.table
    assert chk == planar.PlanarityCheck(False, "exhaustive", 1, (1, 1, 16), None)
    assert ctx.sub(t[ctx.add(x1, a)], t[x1]) == ctx.sub(t[ctx.add(x2, a)], t[x2])


def test_exhaustive_planarity_pw_q243(s59049):
    # every one of the 59 048 shifts, proved by rank within a few MB
    tracemalloc.start()
    try:
        chk = planar.check_planarity(planar.penttila_williams(s59049), "exhaustive")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chk == planar.PlanarityCheck(True, "exhaustive", 59048, None, None)
    assert peak < 64 * 2 ** 20
