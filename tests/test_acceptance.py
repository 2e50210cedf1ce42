"""Acceptance gate: every criterion at its stated scale, one line each.

Each test delegates to the matching criterion function, prints the
pass/fail line, spot-checks the key frozen numbers, and asserts the
criterion verdict.  Three criteria are expected to stay red on
mathematically proven grounds (documented in docs/LEDGER.md):
criterion 2's "k=1" instance of the fifth two-component family is provably
non-planar, and the explicit-configuration template of criteria 7c/7d has
no admissible parameters in characteristic 3 at the stated instances.
"""

import pytest

from unitalforge import suite


def _run(cid, **spot):
    result = suite.run_criterion(cid, full=True)
    print(result.line())
    for key, expect in spot.items():
        found = result.details
        for part in key.split("/"):
            found = found[part]
        assert found == expect, f"{key}: expected {expect}, got {found}"
    return result


def test_criterion_01_quadratic_count_oracle():
    r = _run("1")
    assert r.details["cases"] == sum(
        sum(1 for a0 in range(p) for a1 in range(p) for a2 in range(p)
            if (a0 * a2 - a1 * a1 * pow(4 % p, p - 2, p)) % p) * p
        for p in (3, 5, 7))
    assert r.runtime < 10
    assert r.passed, "quadratic-count formula disagreed with brute force"


def test_criterion_02_planarity_normality_catalog():
    r = _run("2")
    assert r.details["square F_9"] == {"planar": True, "normal": True,
                                       "mode": "exhaustive"}
    assert r.details["albert F_3^6 k=2"]["planar"]
    assert r.details["cm F_81 k=3"]["planar"]
    assert r.details["dickson F_5^4 i=1"]["planar"]
    assert r.details["ganley F_3^6"]["planar"]
    assert r.details["bh F_3^6 k=2 (smallest valid)"]["planar"]
    assert r.details["zhoupott F_5^6"]["hypothesis"]
    assert r.details["zhoupott F_5^6"]["planar_sampled"]
    assert r.details["pw F_3^10"]["hypothesis"]
    assert r.details["pw F_3^10"]["planar_sampled"]
    assert r.passed, (
        "criterion as stated includes the k=1 fifth-family instance, which "
        "is provably non-planar (docs/LEDGER.md); every other family "
        f"certifies: {r.details}")


def test_criterion_03_unital_certification():
    r = _run("3")
    assert r.details["square q=3"]["points"] == 28
    assert r.details["square q=3"]["blocks"] == 63
    assert r.details["square q=5"]["points"] == 126
    assert r.details["square q=5"]["blocks"] == 525
    assert r.details["cm q=9"]["points"] == 730
    assert r.details["cm q=9"]["blocks"] == 5913
    assert r.passed


def test_criterion_04_tangency():
    r = _run("4")
    for q in (3, 5):
        assert r.details[f"q={q}"]["tangency_beta"]
        assert r.details[f"q={q}"]["one_tangent_per_point"]
    assert r.passed


def test_criterion_05_circle_design():
    r = _run("5")
    assert r.details["q=3"] == {"circles": 18, "size": 4, "lambda": 3,
                                "passed": True}
    assert r.details["q=5"] == {"circles": 100, "size": 6, "lambda": 5,
                                "passed": True}
    assert r.passed


def test_criterion_06_wilbrink():
    r = _run("6")
    for q in (3, 5):
        assert r.details[f"q={q}"]["infinity_strong"]
        assert r.details[f"q={q}"]["strong_count"] == 1
    assert r.runtime < 600
    assert r.passed


def test_criterion_07a_no_config_through_infinity():
    r = _run("7a")
    for q in (3, 5):
        assert r.details[f"square q={q}"] == {"configs": 0, "circle_hits": 0}
    assert r.passed


def test_criterion_07b_config_through_infinity_cm():
    r = _run("7b")
    assert r.details["configs"] == 64 and r.details["hits"] == 288
    assert r.passed


def test_criterion_07c_explicit_construction():
    r = _run("7c")
    # the q=5 supplement demonstrates the template where it is satisfiable
    assert isinstance(r.details["square q=5 (supplement)"], dict)
    assert r.passed, (
        "stated instances are provably outside the template's reach in "
        f"characteristic 3 (docs/LEDGER.md): {r.details}")


def test_criterion_07d_exhaustive_search_and_witness():
    r = _run("7d")
    assert r.details["classical q=3"]["count"] == 0
    assert r.details["parabolic q=3"]["count"] == 324
    assert r.details["q=5 cross-validation (supplement)"]["witness_found"]
    assert r.passed, (
        "counts certified; the q=3 witness clause inherits the criterion-7c "
        f"obstruction (docs/LEDGER.md): {r.details}")


def test_criterion_08_self_duality():
    r = _run("8")
    assert r.details["q=3"]["tangent_lines"] == 28
    assert r.details["q=5"]["tangent_lines"] == 126
    assert r.passed


def test_criterion_09_gamma_orbit():
    r = _run("9")
    assert len(r.details["thetas"]) == 4
    assert len(r.details["classes"]) == 1
    assert r.passed


def test_criterion_10_subgroups():
    r = _run("10")
    assert r.details["sigma1"] == {"order": 27, "abelian": True}
    assert r.details["sigma2"]["order"] == 27
    assert not r.details["sigma2"]["abelian"]
    assert r.details["sigma2"]["witness"] is not None
    assert r.details["composition"]["pairs_checked"] == 729 ** 2
    assert r.details["cm shift stabilizers"] == {"parabolic": 729, "polarity": 81}
    assert r.passed


def test_criterion_11_polarities():
    r = _run("11")
    assert r.details["square q=3 frobq"]["absolutes"] == 28
    assert r.details["square q=5 frobq"]["absolutes"] == 126
    assert r.details["dickson F_5^4 conjxi"]["absolutes"] == 15626
    assert r.details["cm F_81 frobq"]["absolutes"] == 730
    assert r.passed


def test_criterion_12_non_isomorphism():
    r = _run("12")
    assert r.details["output"] == (
        "NON-ISOMORPHIC (onan_total: 324 vs 0; "
        "onan_point_histogram: ((0, 1), (72, 27)) vs ((0, 28),); strong_vertex_count: 1 vs 28)")
    assert r.details["exit"] == 0
    assert r.passed
