import argparse
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from unitalforge.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field_check(capsys):
    code, out, _ = run(capsys, "field", "check", "--p", "3", "--m", "2")
    assert code == 0
    assert "p=3,m=2,mod=[1,0,1]" in out


def test_field_check_rejects_reducible(capsys):
    code, _, err = run(capsys, "field", "check", "--p", "3", "--m", "2",
                       "--modulus", "0,2,1")
    assert code == 1 and "NotIrreducible" in err


def test_planar_verify(capsys):
    code, out, _ = run(capsys, "planar", "verify", "--p", "3", "--m", "2",
                       "--spec", "square")
    assert code == 0
    assert "planar=True" in out and "normal=True" in out


def test_planar_verify_failure(capsys):
    code, out, _ = run(capsys, "planar", "verify", "--p", "3", "--m", "2",
                       "--spec", "custom:3:1")
    assert code == 1 and "witness=" in out


def test_planar_verify_exhaustive_pw_q243(capsys):
    code, out, _ = run(capsys, "planar", "verify", "--p", "3", "--m", "10",
                       "--spec", "pw", "--mode", "exhaustive")
    assert code == 0
    assert "planar=True (exhaustive, 59048 shifts)" in out and "normal=True" in out


def test_plane_verify(capsys):
    code, out, _ = run(capsys, "plane", "verify", "--p", "3", "--m", "2",
                       "--spec", "square")
    assert code == 0 and "points=91" in out


def test_plane_dump_format(capsys, tmp_path):
    out_file = tmp_path / "lines.txt"
    code, _, _ = run(capsys, "plane", "dump", "--p", "3", "--m", "2",
                     "--spec", "square", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 91
    assert lines[0].startswith("L 0 : ")
    assert len(lines[0].split(":")[1].split()) == 10


def test_unital_build_and_verify(capsys, tmp_path):
    out_file = tmp_path / "u.unital"
    code, out, _ = run(capsys, "unital", "build", "--p", "3", "--m", "2",
                       "--spec", "square", "--theta", "auto",
                       "--out", str(out_file))
    assert code == 0
    cert = json.loads((tmp_path / "u.unital.json").read_text())
    assert cert["points_count"] == 28
    assert cert["secants"] == 63 and cert["tangents"] == 28
    assert "runconfig_hash" in cert and "timestamp" in cert
    code, out, _ = run(capsys, "unital", "verify", "--p", "3", "--m", "2",
                       "--spec", "square", "--in", str(out_file))
    assert code == 0 and "passed=True" in out


def test_runconfig_hash_reproducible(capsys, tmp_path):
    certs = []
    for name in ("a", "b"):
        out_file = tmp_path / f"{name}.unital"
        run(capsys, "unital", "build", "--p", "3", "--m", "2",
            "--spec", "square", "--theta", "auto", "--out", str(out_file))
        certs.append(json.loads((tmp_path / f"{name}.unital.json").read_text()))
    assert certs[0]["hash"] == certs[1]["hash"]
    assert certs[0]["runconfig_hash"] == certs[1]["runconfig_hash"]


def test_unital_build_reads_and_writes_no_cache(capsys, tmp_path, monkeypatch):
    # a certificate covers the unital handed in, so each build computes the
    # one it prints and stores none to replay
    monkeypatch.setenv("UNITALFORGE_CACHE", str(tmp_path))
    for _ in range(2):
        code, out, err = run(capsys, "unital", "build", "--p", "3", "--m", "2")
        assert code == 0 and err == ""
        assert json.loads(out)["hash"] == (
            "80561246fb67a04bd1f2d730d5ddfac56064a5b0666053affbd6e596750d655c")
    assert list(tmp_path.iterdir()) == []


def test_unital_dual_and_ovals(capsys):
    code, out, _ = run(capsys, "unital", "dual", "--p", "3", "--m", "2",
                       "--spec", "square")
    assert code == 0 and "self-dual" in out
    code, out, _ = run(capsys, "unital", "ovals", "--p", "3", "--m", "2",
                       "--spec", "square")
    assert code == 0 and "ovals: 3" in out


def test_circles_command(capsys):
    code, out, _ = run(capsys, "circles", "--p", "3", "--m", "2",
                       "--spec", "square")
    assert code == 0
    assert "count=18" in out and "lambda=3" in out


def test_wilbrink_output_format(capsys, plane_q3):
    code, out, _ = run(capsys, "wilbrink", "--p", "3", "--m", "2",
                       "--spec", "square", "--point", "inf")
    assert code == 0
    assert out.startswith(f"VERTEX {plane_q3.infinity_id} strong=True satisfied=")


def test_onan_find_through_infinity(capsys):
    code, out, _ = run(capsys, "onan", "find", "--p", "3", "--m", "2",
                       "--spec", "square")
    assert code == 0 and "count=0" in out


def test_onan_find_through_infinity_albert27(capsys):
    code, out, _ = run(capsys, "onan", "find", "--p", "3", "--m", "6",
                       "--spec", "albert:k=2")
    assert code == 0 and "count=64 circle_hits=39312" in out


def test_onan_find_exhaustive(capsys):
    code, out, _ = run(capsys, "onan", "find", "--p", "3", "--m", "2",
                       "--spec", "square", "--exhaustive", "--limit", "2")
    assert code == 0
    assert "count=324" in out and out.count("ONAN blocks=") == 2


def test_onan_find_exhaustive_over_the_cap_is_usage_error(capsys, monkeypatch):
    from unitalforge import analysis as an

    monkeypatch.setattr(an, "ONAN_MAX_CONFIGS", 1000)
    code, out, err = run(capsys, "onan", "find", "--p", "5", "--m", "2",
                         "--spec", "square", "--exhaustive")
    assert code == 2 and out == ""
    assert "usage error: the exhaustive O'Nan list holds 142500 configurations" in err


def _non_unital_file(tmp_path, unital_q3):
    # the q=3 parabolic unital with its last affine point swapped for (0)
    from unitalforge import unital as un

    good, bad = tmp_path / "u.unital", tmp_path / "bad.unital"
    un.write_unital_file(unital_q3, good)
    lines = good.read_text().splitlines()
    lines[-2] = str(unital_q3.plane.slope_id(0))
    bad.write_text("\n".join(lines) + "\n")
    return str(bad)


def test_ovals_rejects_non_unital(capsys, tmp_path, unital_q3):
    code, out, err = run(capsys, "unital", "ovals", "--p", "3", "--m", "2",
                         "--in", _non_unital_file(tmp_path, unital_q3))
    assert code == 1 and "CHECK FAILED (ProvenanceMismatch): points differ" in err
    assert out == ""


def test_wilbrink_rejects_non_unital(capsys, tmp_path, unital_q3):
    code, _, err = run(capsys, "wilbrink", "--p", "3", "--m", "2", "--point",
                       "inf", "--in", _non_unital_file(tmp_path, unital_q3))
    assert code == 1 and "CHECK FAILED (PairCoverageViolation)" in err


def test_onan_find_rejects_non_unital(capsys, tmp_path, unital_q3):
    code, _, err = run(capsys, "onan", "find", "--p", "3", "--m", "2",
                       "--exhaustive", "--in", _non_unital_file(tmp_path, unital_q3))
    assert code == 1 and "CHECK FAILED (PairCoverageViolation)" in err


def test_design_refuses_the_wrong_block_count(tmp_path, unital_q3):
    from unitalforge import unital as un
    from unitalforge.errors import PairCoverageViolation

    u = un.read_unital_file(_non_unital_file(tmp_path, unital_q3))
    with pytest.raises(PairCoverageViolation) as err:
        un.verify_design(u)
    assert (err.value.pair, err.value.count) == (("block-count",), 50)


def _polarity_file(tmp_path, polarity_q3):
    from unitalforge import unital as un

    path = tmp_path / "h3.unital"
    un.write_unital_file(polarity_q3, path)
    return str(path)


@pytest.mark.parametrize("cmd", [("circles",), ("unital", "dual"), ("unital", "ovals")])
def test_parabolic_commands_reject_polarity_unital(cmd, capsys, tmp_path, polarity_q3):
    code, out, err = run(capsys, *cmd, "--p", "3", "--m", "2",
                         "--in", _polarity_file(tmp_path, polarity_q3))
    assert code == 1 and "CHECK FAILED (HypothesisUnmet)" in err and out == ""


def test_circles_refuses_the_table_size_before_theta(capsys, tmp_path, polarity_q3,
                                                      monkeypatch):
    # the library's order: a polarity file at q >= 67 exits 2 on the size
    from unitalforge import analysis as an

    monkeypatch.setattr(an, "CIRCLE_TABLE_MAX_BYTES", 4 * 3 ** 4 - 1)
    code, _, err = run(capsys, "circles", "--p", "3", "--m", "2",
                       "--in", _polarity_file(tmp_path, polarity_q3))
    assert code == 2 and "usage error: circle tables need" in err


@pytest.mark.parametrize("action", ["verify", "build"])
def test_polarity_failure_is_typed(action, capsys):
    # f = c x^2 with c (index 4) outside F_3, so x -> x^3 does not commute with f
    code, out, err = run(capsys, "polarity", action, "--p", "3", "--m", "2",
                         "--spec", "custom:2:4")
    assert code == 1 and "CHECK FAILED (ConditionBFailed)" in err and out == ""


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_verify_unital_with_slope_points(mode, capsys, tmp_path, hermitian_slopes_q3):
    from unitalforge import unital as un

    path = tmp_path / "slopes.unital"
    un.write_unital_file(hermitian_slopes_q3, path)
    code, out, _ = run(capsys, "unital", "verify", "--p", "3", "--m", "2",
                       "--mode", mode, "--in", str(path))
    assert code == 0 and "embedded: passed=True secants=63 tangents=28" in out
    assert "design: passed=True" in out


def test_subgroups_on_a_plane_that_is_not_dembowski_ostrom(capsys):
    code, out, _ = run(capsys, "subgroups", "--p", "3", "--m", "4", "--spec", "cm:k=3")
    assert code == 0
    assert "translation stabilizer (parabolic): order=729" in out
    assert "translation stabilizer (polarity): order=81" in out


def test_circles_rejects_non_unital(capsys, tmp_path, unital_q3):
    code, _, err = run(capsys, "circles", "--p", "3", "--m", "2",
                       "--in", _non_unital_file(tmp_path, unital_q3))
    assert code == 1 and "CHECK FAILED (ProvenanceMismatch)" in err


def test_onan_find_through_infinity_rejects_non_unital(capsys, tmp_path, unital_q3):
    code, _, err = run(capsys, "onan", "find", "--p", "3", "--m", "2",
                       "--in", _non_unital_file(tmp_path, unital_q3))
    assert code == 1 and "CHECK FAILED (ProvenanceMismatch)" in err


def test_onan_find_through_infinity_rejects_polarity_unital(capsys, tmp_path, polarity_q3):
    code, _, err = run(capsys, "onan", "find", "--p", "3", "--m", "2",
                       "--in", _polarity_file(tmp_path, polarity_q3))
    assert code == 1 and "CHECK FAILED (HypothesisUnmet)" in err


def test_field_check_large_field(capsys):
    code, out, _ = run(capsys, "field", "check", "--p", "3", "--m", "10")
    assert code == 0 and "axioms: pass (size 59049)" in out


def test_field_check_flags_corrupt_addition_table(capsys, monkeypatch):
    from unitalforge import gf

    ctx = gf.field_new(3, 10)
    monkeypatch.setattr(ctx, "add_lo", np.roll(ctx.add_lo, 1))
    code, out, _ = run(capsys, "field", "check", "--p", "3", "--m", "10")
    assert code == 1 and "axioms: FAIL" in out


def test_field_check_flags_corrupt_one_table_field(capsys, monkeypatch):
    # F_729 adds by one flat take of add_lo
    from unitalforge import gf

    ctx = gf.field_new(3, 6)
    assert ctx.add_table is not None
    monkeypatch.setattr(ctx, "add_lo", np.roll(ctx.add_lo, 1))
    code, out, _ = run(capsys, "field", "check", "--p", "3", "--m", "6")
    assert code == 1 and "axioms: FAIL" in out


def test_onan_construct_q5_and_q3(capsys):
    code, out, _ = run(capsys, "onan", "construct", "--p", "5", "--m", "2",
                       "--spec", "square")
    assert code == 0 and out.startswith("ONAN blocks=")
    code, out, err = run(capsys, "onan", "construct", "--p", "3", "--m", "2",
                         "--spec", "square")
    assert code == 1 and "CHECK FAILED (WitnessCheckFailed)" in err and out == ""


def test_polarity_verify(capsys):
    code, out, _ = run(capsys, "polarity", "verify", "--p", "3", "--m", "2",
                       "--spec", "square", "--kappa", "frobq")
    assert code == 0 and "absolutes=28" in out


def test_subgroups(capsys):
    code, out, _ = run(capsys, "subgroups", "--p", "3", "--m", "2",
                       "--spec", "square")
    assert code == 0
    assert "order=27 abelian=True" in out
    assert "order=27 abelian=False" in out
    assert "pairs=531441" in out


def test_subgroups_checks_composition_law_at_q5(capsys):
    # N^6 = 244 140 625 pairs, proved from the 6 generators in about a second
    code, out, _ = run(capsys, "subgroups", "--p", "5", "--m", "2",
                       "--spec", "square")
    assert code == 0 and "order=125 abelian=False" in out
    assert "pairs=244140625" in out


def test_subgroups_skips_composition_law_above_q5(capsys):
    # the law check covers N^6 parameter pairs, 2.8 * 10^11 at q = 9
    code, out, _ = run(capsys, "subgroups", "--p", "3", "--m", "4",
                       "--spec", "square")
    assert code == 0 and "order=729 abelian=False" in out
    assert "composition law" not in out


def test_compare_command(capsys, tmp_path, unital_q3, classical_q3):
    from unitalforge import unital as un

    left = tmp_path / "left.unital"
    right = tmp_path / "right.unital"
    un.write_unital_file(unital_q3, left)
    un.write_unital_file(classical_q3, right)
    code, out, _ = run(capsys, "compare", "--left", str(left), "--right", str(right))
    assert code == 0
    assert out.strip() == ("NON-ISOMORPHIC (onan_total: 324 vs 0; "
                           "onan_point_histogram: ((0, 1), (72, 27)) vs ((0, 28),); "
                           "strong_vertex_count: 1 vs 28)")


def test_compare_square_q9_parabolic_and_classical(capsys, tmp_path):
    # ten and two translation orbits: the profile checks 12 vertices, not 1460
    from unitalforge import gf, planar, unital as un
    from unitalforge.plane import ShiftPlane

    split = gf.split_new(gf.field_new(3, 4), 2)
    plane = ShiftPlane(planar.square(split))
    left, right = tmp_path / "left.unital", tmp_path / "right.unital"
    un.write_unital_file(un.build_parabolic_unital(plane, split.choose_theta()), left)
    un.write_unital_file(un.build_classical_baseline(split), right)
    code, out, _ = run(capsys, "compare", "--left", str(left), "--right", str(right))
    assert code == 0
    assert out.strip() == ("NON-ISOMORPHIC (onan_total: 80236656 vs 0; "
                           "onan_point_histogram: ((0, 1), (660384, 729)) vs ((0, 730),); "
                           "strong_vertex_count: 1 vs 730)")


def test_compare_out_names_the_hash_of_each_input(capsys, tmp_path, unital_q3, classical_q3):
    from unitalforge import unital as un

    left, right = tmp_path / "left.unital", tmp_path / "right.unital"
    un.write_unital_file(unital_q3, left)
    un.write_unital_file(classical_q3, right)
    out_file = tmp_path / "c.json"
    code, _, _ = run(capsys, "compare", "--left", str(left), "--right", str(right),
                     "--out", str(out_file))
    payload = json.loads(out_file.read_text())
    hashes = [payload[side]["hash"] for side in ("left", "right")]
    assert code == 0 and hashes[0] != hashes[1]
    assert hashes == [un.read_unital_file(path).certificate()["hash"]
                      for path in (left, right)]


def test_compare_reports_strong_vertices_at_q9(capsys, tmp_path, unital_cm81, plane_cm81):
    from unitalforge import unital as un

    upol = un.build_polarity_unital(plane_cm81, un.InvolutionSpec("frobq"))
    left, right = tmp_path / "left.unital", tmp_path / "right.unital"
    out_file = tmp_path / "c.json"
    un.write_unital_file(unital_cm81, left)
    un.write_unital_file(upol, right)
    code, out, _ = run(capsys, "compare", "--left", str(left), "--right", str(right),
                       "--out", str(out_file))
    payload = json.loads(out_file.read_text())
    histograms = (((629856, 1), (818496, 729)),
                  ((620136, 1), (761240, 81), (762542, 648)))
    assert code == 0
    assert out.strip() == (f"NON-ISOMORPHIC (onan_total: 99552240 vs 92734632; "
                           f"onan_point_histogram: {histograms[0]} vs {histograms[1]})")
    sides = [payload[side] for side in ("left", "right")]
    assert [s["strong_vertex_count"] for s in sides] == [1, 1]
    assert [s["onan_total"] for s in sides] == [99552240, 92734632]
    assert [tuple(map(tuple, s["onan_point_histogram"])) for s in sides] == list(histograms)


def test_polarity_build_verifies_once(capsys, tmp_path, monkeypatch):
    # the certificate's polarity check is the run the runconfig names
    from unitalforge import unital as un

    calls, verify = [], un.verify_polarity

    def counted(plane, kappa, **kw):
        calls.append(kw)
        return verify(plane, kappa, **kw)

    monkeypatch.setattr(un, "verify_polarity", counted)
    out_file = tmp_path / "h.unital"
    code, out, _ = run(capsys, "polarity", "build", "--p", "3", "--m", "2",
                       "--seed", "5", "--trials", "7", "--out", str(out_file))
    cert = json.loads((tmp_path / "h.unital.json").read_text())
    assert code == 0 and calls == [{"seed": 5, "trials": 7}]
    assert (cert["runconfig"]["seed"], cert["runconfig"]["trials"]) == (5, 7)
    (check,) = [c for c in cert["checks"] if c["name"] == "polarity"]
    assert check["mode"] == cert["runconfig"]["mode"] == "exhaustive"
    assert "polarity kappa=frobq: absolutes=28 mode=exhaustive" in out


def test_compare_self_inconclusive(capsys, tmp_path, unital_q3):
    from unitalforge import unital as un

    path = tmp_path / "u.unital"
    un.write_unital_file(unital_q3, path)
    code, out, _ = run(capsys, "compare", "--left", str(path), "--right", str(path))
    assert code == 0 and out.startswith("INCONCLUSIVE")


def test_usage_error_exit_code(capsys):
    assert main(["nonsense"]) == 2
    assert main(["unital", "build", "--p", "3"]) == 2   # missing --m


def _edited_unital_file(tmp_path, unital, edit, name="edited.unital"):
    from unitalforge import unital as un

    good, bad = tmp_path / "u.unital", tmp_path / name
    un.write_unital_file(unital, good)
    bad.write_text("\n".join(edit(good.read_text().splitlines())) + "\n")
    return str(bad)


def test_unital_verify_rejects_repeated_point(capsys, tmp_path, unital_q5):
    # 126 IDs, 125 of them distinct: the last ID repeats its predecessor
    path = _edited_unital_file(tmp_path, unital_q5, lambda l: l[:-1] + [l[-2]])
    code, _, err = run(capsys, "unital", "verify", "--p", "5", "--m", "2", "--in", path)
    assert code == 1 and "CHECK FAILED (InvalidPointSet)" in err and "listed twice" in err


@pytest.mark.parametrize("spec", ["albert", "custom:2", "square:z=7", "albert:k=2,j=1",
                                  "albert:k=1,k=2", "albert:k=02", "albert:k=+2",
                                  "albert:k=1_0", "square:"])
def test_malformed_spec_is_usage_error(capsys, spec):
    code, _, err = run(capsys, "plane", "verify", "--p", "3", "--m", "2", "--spec", spec)
    assert code == 2 and "usage error" in err and repr(spec) in err


def test_missing_input_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "unital", "verify", "--p", "3", "--m", "2",
                       "--in", str(tmp_path / "absent.unital"))
    assert code == 2 and "usage error: cannot read" in err


@pytest.mark.parametrize("argv", [
    "plane dump --p 3 --m 2 --out {dir}",
    "unital build --p 3 --m 2 --out {dir}",
    "unital build --p 3 --m 2 --out {dir}/missing/x",
    "polarity build --p 3 --m 2 --out {dir}",
    "compare --left {file} --right {file} --out {dir}",
])
def test_unwritable_output_path_is_usage_error(capsys, tmp_path, unital_q3, argv):
    from unitalforge import unital as un

    path = tmp_path / "u.unital"
    un.write_unital_file(unital_q3, path)
    code, _, err = run(capsys, *(t.format(dir=tmp_path, file=path) for t in argv.split()))
    assert code == 2 and "usage error: cannot write" in err and "Traceback" not in err


@pytest.mark.parametrize("edit, message", [
    (lambda l: ["UNITAL v2"] + l[1:], "not a unital file"),
    (lambda l: l[:6] + ["seven"] + l[7:], "malformed point ID line"),
])
def test_malformed_unital_file_is_usage_error(capsys, tmp_path, unital_q3, edit, message):
    path = _edited_unital_file(tmp_path, unital_q3, edit)
    for argv in (("unital", "verify", "--p", "3", "--m", "2", "--in", path),
                 ("compare", "--left", path, "--right", path)):
        code, _, err = run(capsys, *argv)
        assert code == 2 and f"usage error: {message}" in err


@pytest.mark.parametrize("tag", ["utheta:theta=x", "utheta:theta=0", "utheta:theta=9",
                                 "utheta:theta=-1", "utheta:theta=999999",
                                 "polarity:kappa=bogus"])
def test_malformed_provenance_is_usage_error(capsys, tmp_path, unital_q3, tag):
    # theta=-1 used to pass circles by reading element 8, theta=x and
    # theta=999999 ended in tracebacks, and kappa=bogus was accepted
    from unitalforge import unital as un

    path = _edited_unital_file(tmp_path, unital_q3, lambda l: l[:3] + [tag] + l[4:])
    good = tmp_path / "good.unital"
    un.write_unital_file(unital_q3, good)
    for argv in (("unital", "verify", "--p", "3", "--m", "2", "--in", path),
                 ("circles", "--p", "3", "--m", "2", "--in", path),
                 ("compare", "--left", path, "--right", str(good))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("usage error: ") and repr(tag.rpartition("=")[2]) in err


def test_kappa_choices_are_the_involution_kinds(capsys):
    from unitalforge import unital as un

    kappas = [a for actions in _leaf_actions(build_parser()).values()
              for a in actions if "--kappa" in a.option_strings]
    assert len(kappas) == 3
    assert all(tuple(a.choices) == un.InvolutionSpec.KINDS for a in kappas)
    for kind in un.InvolutionSpec.KINDS:
        assert un.InvolutionSpec(kind).kind == kind
    code, out, err = run(capsys, "polarity", "verify", "--p", "3", "--m", "2",
                         "--kappa", "bogus")
    assert code == 2 and out == "" and "invalid choice: 'bogus'" in err


def _leaf_actions(parser, path=""):
    """{subcommand: its argparse actions} under parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {path: parser._actions}
    found = {}
    for name, child in subs[0].choices.items():
        found.update(_leaf_actions(child, f"{path} {name}".strip()))
    return found


def test_provenance_is_checked_before_the_body(capsys, tmp_path, unital_q3):
    path = _edited_unital_file(tmp_path, unital_q3,
                               lambda l: l[:3] + ["utheta:theta=x"] + l[4:6] + ["seven"] + l[7:])
    code, _, err = run(capsys, "unital", "verify", "--p", "3", "--m", "2", "--in", path)
    assert code == 2 and "usage error: provenance theta 'x'" in err
    assert "malformed point ID line" not in err


def test_dual_unital_file_keeps_its_theta(capsys, tmp_path, unital_q3):
    from unitalforge import unital as un

    path = tmp_path / "dual.unital"
    un.write_unital_file(un.dual_unital(unital_q3)[0], path)
    code, out, _ = run(capsys, "unital", "dual", "--p", "3", "--m", "2", "--in", str(path))
    assert code == 0 and "self-dual" in out


@pytest.mark.parametrize("line", ["p=3,m=x,mod=[1,0,1]", "p=3,m=x", "p=3,m=2",
                                  "p=4,m=2,mod=[1,0,1]", "p=3,m=3,mod=[1,2,0,1]",
                                  "p=3,m=2,mod=[1,0,2]"])
def test_malformed_field_descriptor_is_usage_error(capsys, tmp_path, unital_q3, line):
    path = _edited_unital_file(tmp_path, unital_q3, lambda l: l[:1] + [line] + l[2:])
    code, _, err = run(capsys, "unital", "verify", "--p", "3", "--m", "2", "--in", path)
    assert code == 2 and "usage error" in err and repr(line) in err


@pytest.mark.parametrize("argv, message", [
    (("planar", "verify", "--p", "3", "--m", "2", "--spec", "foo"),
     "unknown spec string 'foo'"),
    (("planar", "verify", "--p", "4", "--m", "2"), "--p must be an odd prime, got 4"),
    (("field", "check", "--p", "2", "--m", "2"), "--p must be an odd prime, got 2"),
    (("plane", "verify", "--p", "3", "--m", "3"), "--m must be even, got 3"),
    (("field", "check", "--p", "3", "--m", "0"), "--m must be at least 1, got 0"),
    (("field", "check", "--p", "3", "--m", "2", "--modulus", "1,x,1"),
     "malformed --modulus '1,x,1'"),
    (("plane", "verify", "--p", "3", "--m", "2", "--mode", "sampled", "--trials", "0"),
     "--trials must be at least 1, got 0"),
    (("unital", "verify", "--p", "3", "--m", "2", "--mode", "sampled", "--trials", "-5"),
     "--trials must be at least 1, got -5"),
    (("planar", "verify", "--p", "3", "--m", "2", "--mode", "sampled", "--trials", "0"),
     "--trials must be at least 1, got 0"),
    (("field", "check", "--p", "3", "--m", "2", "--seed", "-1"),
     "--seed must be at least 0, got -1"),
    (("polarity", "verify", "--p", "3", "--m", "2", "--seed", "-3"),
     "--seed must be at least 0, got -3"),
    # a modulus not monic, or of the wrong degree, once reduced mod p
    (("field", "check", "--p", "3", "--m", "2", "--modulus", "1,0,2"),
     "modulus must be monic of degree 2"),
    # [:-1] would print 323 of the 324 configurations and exit 0
    (("onan", "find", "--p", "3", "--m", "2", "--exhaustive", "--limit", "-1"),
     "--limit must be at least 0, got -1"),
    (("field", "check", "--p", "3", "--m", "2", "--modulus", "1,1"),
     "modulus must be monic of degree 2"),
])
def test_flag_out_of_range_is_usage_error(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2 and f"usage error: {message}" in err


# each of these sized an array by the flag (a numpy ValueError traceback,
# exit 1) or trial-divided a 19-digit p
_BIG = str(2 ** 64)


@pytest.mark.parametrize("argv, message", [
    (("unital", "build", "--p", "3", "--m", "2", "--mode", "sampled", "--trials", _BIG),
     f"--trials must be at most 1000000, got {_BIG}"),
    (("plane", "verify", "--p", "3", "--m", "2", "--mode", "sampled", "--trials", _BIG),
     f"--trials must be at most 1000000, got {_BIG}"),
    (("unital", "verify", "--p", "3", "--m", "2", "--mode", "sampled",
      "--trials", str(2 ** 63 - 1)), f"--trials must be at most 1000000, got {2 ** 63 - 1}"),
    (("unital", "build", "--p", "3", "--m", "2", "--trials", _BIG),
     "--trials must be at most 1000000"),
    (("unital", "build", "--p", "3", "--m", _BIG), f"F_3^{_BIG} is past FIELD_SIZE_MAX"),
    (("field", "check", "--p", "3", "--m", _BIG), f"F_3^{_BIG} is past FIELD_SIZE_MAX"),
    (("field", "check", "--p", "3", "--m", "40"), "F_3^40 is past FIELD_SIZE_MAX"),
    (("field", "check", "--p", "1000000000000000003", "--m", "2"),
     "F_1000000000000000003^2 is past FIELD_SIZE_MAX"),
])
def test_oversized_flag_is_refused_at_once(capsys, argv, message):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert code == 2 and f"usage error: {message}" in err
    assert time.perf_counter() - start < 1


def test_oversized_field_in_file_header_is_refused(capsys, tmp_path, unital_q3):
    line = f"p=3,m={_BIG},mod=[1,0,1]"
    path = _edited_unital_file(tmp_path, unital_q3, lambda l: l[:1] + [line] + l[2:])
    code, _, err = run(capsys, "unital", "verify", "--p", "3", "--m", "2", "--in", path)
    assert code == 2 and f"F_3^{_BIG} is past FIELD_SIZE_MAX" in err


def test_odd_m_field_check_still_runs(capsys):
    code, out, _ = run(capsys, "field", "check", "--p", "3", "--m", "3")
    assert code == 0 and "axioms: pass (size 27)" in out


@pytest.mark.parametrize("flags, message", [
    (("--p", "3", "--m", "2"), "--p 3 differs from the file's field p=5,m=2,mod=[1,1,1]"),
    (("--p", "5", "--m", "4"), "--m 4 differs from the file's field"),
    (("--p", "5", "--m", "2", "--modulus", "2,0,1"),
     "--modulus 2,0,1 differs from the file's field"),
])
def test_flags_against_file_header_are_usage_error(capsys, tmp_path, unital_q5,
                                                   flags, message):
    from unitalforge import unital as un

    path = tmp_path / "u5.unital"
    un.write_unital_file(unital_q5, path)
    code, _, err = run(capsys, "unital", "verify", *flags, "--in", str(path))
    assert code == 2 and f"usage error: {message}" in err


@pytest.mark.parametrize("modulus", [None, "1,1,1", "6,-4,1"])
def test_flags_matching_file_header_pass(capsys, tmp_path, unital_q5, modulus):
    from unitalforge import unital as un

    path = tmp_path / "u5.unital"
    un.write_unital_file(unital_q5, path)
    extra = ("--modulus", modulus) if modulus else ()
    code, out, _ = run(capsys, "unital", "verify", "--p", "5", "--m", "2", *extra,
                       "--in", str(path))
    assert code == 0 and "embedded: passed=True" in out


@pytest.mark.parametrize("line", ["-4", "+4", " 4", "4a", "1" * 19])
def test_malformed_id_line_is_usage_error(capsys, tmp_path, unital_q3, line):
    # a negative ID is a malformed line (exit 2), no longer a point outside
    # the plane (exit 1)
    path = _edited_unital_file(tmp_path, unital_q3, lambda l: l[:5] + [line] + l[6:])
    code, _, err = run(capsys, "unital", "verify", "--p", "3", "--m", "2", "--in", path)
    assert code == 2 and f"usage error: malformed point ID line: {line!r}" in err


def test_crlf_unital_file_verifies(capsys, tmp_path, unital_q3):
    from unitalforge import unital as un

    path = tmp_path / "crlf.unital"
    un.write_unital_file(unital_q3, path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    code, out, _ = run(capsys, "unital", "verify", "--p", "3", "--m", "2", "--in", str(path))
    assert code == 0 and "embedded: passed=True" in out


@pytest.mark.parametrize("spec, code", [(None, 0), ("square", 0), (" square", 0),
                                        ("custom:2:1", 2), ("custom:2", 2)])
def test_spec_against_file_header(capsys, tmp_path, unital_q5, spec, code):
    from unitalforge import unital as un

    path = tmp_path / "u5.unital"
    un.write_unital_file(unital_q5, path)
    flags = ("--spec", spec) if spec is not None else ()
    got, out, err = run(capsys, "unital", "verify", "--p", "5", "--m", "2", *flags,
                        "--in", str(path))
    assert got == code
    if spec == "custom:2:1":
        assert "usage error: --spec custom:2:1 differs from the file's spec square" in err
    elif code == 0:
        assert "embedded: passed=True" in out


def test_spec_flag_omitted_reads_a_non_square_file(capsys, tmp_path, unital_cm81):
    from unitalforge import unital as un

    path = tmp_path / "cm.unital"
    un.write_unital_file(unital_cm81, path)
    argv = ("circles", "--p", "3", "--m", "4", "--in", str(path))
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv, "--spec", "cm:k=3")[0] == 0
    code, _, err = run(capsys, *argv, "--spec", "square")
    assert code == 2 and "--spec square differs from the file's spec cm:k=3" in err


def test_spec_default_keeps_runconfig_hash(capsys):
    # a missing --spec resolves to square, so the RunConfig and its hash agree
    base = ("unital", "build", "--p", "3", "--m", "2")
    out1 = json.loads(run(capsys, *base)[1])
    out2 = json.loads(run(capsys, *base, "--spec", "square")[1])
    assert out1["runconfig"]["spec"] == "square"
    assert out1["runconfig_hash"] == out2["runconfig_hash"] and out1["hash"] == out2["hash"]


def test_plane_verify_albert27_exhaustive(capsys):
    code, out, _ = run(capsys, "plane", "verify", "--p", "3", "--m", "6",
                       "--spec", "albert:k=2")
    assert code == 0 and "points=532171" in out and "mode=exhaustive" in out
    assert "passed=True" in out



@pytest.mark.parametrize("argv", [("wilbrink", "--point", "inf"),
                                  ("onan", "find", "--exhaustive")])
def test_design_index_commands_refuse_q27(capsys, argv):
    code, out, err = run(capsys, *argv, "--p", "3", "--m", "6", "--spec", "albert:k=2")
    assert code == 2 and out == ""
    assert "usage error: DesignIndex needs" in err and "(q <= 9)" in err


@pytest.mark.parametrize("argv", [("circles",), ("onan", "find")])
def test_circle_commands_refuse_q81(capsys, argv):
    code, out, err = run(capsys, *argv, "--p", "3", "--m", "8")
    assert code == 2 and out == ""
    assert "usage error: circle tables need" in err and "at q = 81" in err


def test_plane_verify_q243_exhaustive_is_usage_error(capsys):
    code, out, err = run(capsys, "plane", "verify", "--p", "3", "--m", "10")
    assert code == 2 and out == ""
    assert "usage error: exhaustive axioms need <= 268435456 points" in err


@pytest.mark.parametrize("point, message", [
    ("abc", "--point must be 'inf', 'all' or a point ID, got 'abc'"),
    ("5", "point 5 not in the unital"),
    ("99999", "point 99999 not in the unital"),
    ("-1", "point -1 not in the unital"),
])
def test_wilbrink_bad_point_is_usage_error(capsys, point, message):
    code, out, err = run(capsys, "wilbrink", "--p", "3", "--m", "2", "--point", point)
    assert code == 2 and out == "" and f"usage error: {message}" in err


@pytest.mark.parametrize("point", [2 ** 64, -(2 ** 64) - 1])
def test_wilbrink_point_outside_int64_is_usage_error(capsys, unital_q3, point):
    # the ID is range-checked before numpy casts it to the point dtype
    from unitalforge import analysis as an
    from unitalforge.errors import UsageError

    code, out, err = run(capsys, "wilbrink", "--p", "3", "--m", "2", "--point", str(point))
    assert code == 2 and out == "" and "Traceback" not in err
    assert f"usage error: point {point} not in the unital" in err
    with pytest.raises(UsageError, match=f"^point {point} not in the unital$"):
        an.wilbrink_vertex_check(unital_q3, point)


def test_wilbrink_point_id(capsys, plane_q3):
    code, out, _ = run(capsys, "wilbrink", "--p", "3", "--m", "2",
                       "--point", str(plane_q3.infinity_id))
    assert code == 0 and out.startswith(f"VERTEX {plane_q3.infinity_id} strong=True")


@pytest.mark.parametrize("theta", ["x", "999", "-1", "2.0"])
def test_theta_out_of_range_is_usage_error(capsys, theta):
    for cmd in (("unital", "build"), ("unital", "verify"), ("subgroups",)):
        code, _, err = run(capsys, *cmd, "--p", "3", "--m", "2", "--theta", theta)
        assert code == 2 and ("usage error: --theta must be 'auto' or an element "
                              f"index in [0, 9), got {theta!r}") in err


def test_zero_theta_is_check_failure(capsys):
    code, _, err = run(capsys, "unital", "build", "--p", "3", "--m", "2", "--theta", "0")
    assert code == 1 and "CHECK FAILED (ZeroTheta)" in err


# the flags each subcommand takes beyond --p --m --modulus
_SUBCOMMAND_FLAGS = {
    "field check": "--seed",
    "planar verify": "--spec --mode --seed --trials",
    "plane verify": "--spec --mode --seed --trials",
    "plane dump": "--spec --out",
    "unital build": "--spec --theta --mode --seed --trials --out",
    "unital verify": "--spec --in --theta --mode --seed --trials",
    "unital dual": "--spec --in --theta",
    "unital ovals": "--spec --in --theta",
    "circles": "--spec --in --theta",
    "wilbrink": "--spec --in --theta --point --ratio",
    "onan find": "--spec --in --theta --exhaustive --limit",
    "onan construct": "--spec --in --theta",
    "polarity build": "--spec --kappa --seed --trials --out",
    "polarity verify": "--spec --kappa --seed --trials",
    "subgroups": "--spec --theta --kappa",
}
_FIELD_FLAGS = {"--p", "--m", "--modulus"}
# the flags that every subcommand above took before each got only its own,
# with a value each; plane dump also took a --lines that nothing read
_FORMER_FLAGS = {"--spec": "square", "--theta": "auto", "--kappa": "conjxi",
                 "--mode": "sampled", "--seed": "1", "--trials": "5", "--threads": "2",
                 "--out": "F", "--cache-dir": "C"}


def _leaf_flags(parser, path=""):
    """{subcommand: its option strings} under parser, --help left out."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {path: {s for a in parser._actions if not isinstance(a, argparse._HelpAction)
                       for s in a.option_strings}}
    found = {}
    for name, child in subs[0].choices.items():
        found.update(_leaf_flags(child, f"{path} {name}".strip()))
    return found


def test_each_subcommand_takes_only_the_flags_it_reads():
    leaves = _leaf_flags(build_parser())
    assert sum(map(len, leaves.values())) == 107
    assert leaves.pop("compare") == {"--left", "--right", "--out"}
    assert leaves.pop("suite") == {"--quick", "--full"}
    assert leaves == {name: _FIELD_FLAGS | set(flags.split())
                      for name, flags in _SUBCOMMAND_FLAGS.items()}


def test_readme_flag_table_matches_parser():
    # README's "| Subcommand | Flags |" table leaves out the field flags and --spec
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("| Subcommand | Flags |"):].split("\n\n")[0]
    documented = {}
    for row in table.splitlines()[2:]:
        names, flags = row.strip("|").split("|")
        for name in re.findall(r"`([^`]+)`", names):
            documented[name] = set(re.findall(r"--[\w-]+", flags))
    assert documented == {name: flags - _FIELD_FLAGS - {"--spec"}
                          for name, flags in _leaf_flags(build_parser()).items()}


def _dropped_flags():
    for name, flags in _SUBCOMMAND_FLAGS.items():
        former = set(_FORMER_FLAGS) - ({"--spec"} if name == "field check" else set())
        for flag in sorted(former - set(flags.split())):
            yield name, flag, [flag, _FORMER_FLAGS[flag]]
    yield "plane dump", "--lines", ["--lines"]


def test_dropped_flags_are_usage_errors(capsys, tmp_path, monkeypatch):
    # each of these was accepted and changed nothing the command computed
    monkeypatch.chdir(tmp_path)
    dropped = list(_dropped_flags())
    assert len(dropped) == 197 - 108
    for name, flag, argv in dropped:
        code, out, err = run(capsys, *name.split(), "--p", "3", "--m", "2", *argv)
        assert code == 2 and out == "" and f"unrecognized arguments: {flag}" in err, name
    assert list(tmp_path.iterdir()) == []          # no dropped flag's path was written


def test_onan_find_takes_no_budget(capsys):
    # the exhaustive search lists every configuration; it has no cut to set
    code, out, err = run(capsys, "onan", "find", "--p", "3", "--m", "2", "--exhaustive",
                         "--budget", "5")
    assert code == 2 and out == "" and "unrecognized arguments: --budget 5" in err


@pytest.mark.parametrize("name", [n for n, f in _SUBCOMMAND_FLAGS.items() if "--in" in f])
def test_in_and_theta_exclude_each_other(capsys, tmp_path, unital_q3, name):
    from unitalforge import unital as un

    path = tmp_path / "u.unital"
    un.write_unital_file(unital_q3, path)
    code, out, err = run(capsys, *name.split(), "--p", "3", "--m", "2",
                         "--in", str(path), "--theta", "4")
    assert code == 2 and out == ""
    assert "argument --theta: not allowed with argument --in" in err


@pytest.mark.parametrize("cmd, field, frozen", [
    ("unital", ("--p", "3", "--m", "2"),
     "80561246fb67a04bd1f2d730d5ddfac56064a5b0666053affbd6e596750d655c"),
    ("polarity", ("--p", "3", "--m", "2"),
     "6ec833b406758130aabc4f69f9a4034bc21f55ba633084fe645be7d000c885b9"),
    ("unital", ("--p", "3", "--m", "6", "--spec", "albert:k=2"), None),
    ("polarity", ("--p", "3", "--m", "6", "--spec", "albert:k=2"), None),
])
def test_build_runconfig_records_the_mode_its_checks_ran(capsys, tmp_path, cmd, field,
                                                         frozen):
    out_file = tmp_path / "u.unital"
    code, _, _ = run(capsys, cmd, "build", *field, "--out", str(out_file))
    assert code == 0
    cert = json.loads((tmp_path / "u.unital.json").read_text())
    assert {c["mode"] for c in cert["checks"]} == {cert["runconfig"]["mode"]}
    if frozen:       # the hashes of the default q = 3 builds are unchanged
        assert cert["hash"] == frozen
        assert cert["runconfig_hash"] == (
            "e39ca96bd2ec00e81f6f326fd9e67bdf530e9ba4636938d2c279a7a2729807e4")
    if cmd == "polarity" and frozen is None:          # q = 27 samples its flags
        assert cert["runconfig"]["mode"] == "sampled"


def test_exhaustive_embedded_check_is_certified_or_refused(capsys):
    code, out, _ = run(capsys, "unital", "build", "--p", "37", "--m", "2")
    modes = {c["name"]: c["mode"] for c in json.loads(out)["checks"]}
    assert code == 0 and modes["embedded-intersections"] == "exhaustive"
    code, out, err = run(capsys, "unital", "verify", "--p", "3", "--m", "8")
    assert code == 2 and out == ""
    assert ("usage error: the exhaustive line pass needs <= 134217728 bytes of line "
            "counts, got 344426264 at q = 81") in err
    code, out, _ = run(capsys, "unital", "verify", "--p", "3", "--m", "8", "--mode", "sampled")
    assert code == 0 and "mode=sampled" in out


@pytest.mark.parametrize("p, line", [
    ("11", "design: passed=True points=1332 blocks=13431 pairs=886446"),
    ("17", "design: skipped (verify_design needs n^2 <= 16777216 point-pair codes, "
           "got 24147396 at q = 17)"),
])
def test_unital_verify_design_up_to_the_library_limit(capsys, p, line):
    code, out, _ = run(capsys, "unital", "verify", "--p", p, "--m", "2")
    assert code == 0 and line in out.splitlines()


@pytest.mark.parametrize("command", ["dual", "ovals"])
def test_parabolic_only_commands_refuse_polarity_file(capsys, tmp_path, command):
    path = str(tmp_path / "h3.unital")
    code, _, _ = run(capsys, "polarity", "build", "--p", "3", "--m", "2", "--out", path)
    assert code == 0
    code, _, err = run(capsys, "unital", command, "--p", "3", "--m", "2", "--in", path)
    assert code == 1 and "Traceback" not in err


# x^4 over F_9 is not planar: f(x + 1) - f(x) takes one value at x = 1 and x = 4
_NOT_PLANAR = "CHECK FAILED (NotPlanar): custom:4:1 is not planar: witness (1, 1, 4)\n"


@pytest.mark.parametrize("command", ["unital build", "unital verify", "polarity build",
                                     "polarity verify", "circles", "subgroups"])
def test_non_planar_spec_is_refused(capsys, command):
    argv = (*command.split(), "--p", "3", "--m", "2", "--spec", "custom:4:1")
    assert run(capsys, *argv) == (1, "", _NOT_PLANAR)


def test_unital_file_on_a_non_planar_spec_is_refused(capsys, tmp_path, s9):
    from unitalforge import planar
    from unitalforge import unital as un
    from unitalforge.plane import ShiftPlane

    plane = ShiftPlane(planar.custom(s9, [(4, 1)]))
    path = str(tmp_path / "x4.unital")
    un.write_unital_file(un.build_parabolic_unital(plane, s9.choose_theta()), path)
    for argv in (("unital", "verify", "--p", "3", "--m", "2", "--in", path),
                 ("compare", "--left", path, "--right", path)):
        assert run(capsys, *argv) == (1, "", _NOT_PLANAR)


def test_planarity_is_certified_in_the_command_mode(capsys, monkeypatch):
    from unitalforge import planar

    calls, check = [], planar.check_planarity

    def recorded(spec, *args):
        calls.append(args)
        return check(spec, *args)

    monkeypatch.setattr(planar, "check_planarity", recorded)
    flags = ("--p", "3", "--m", "2", "--seed", "7", "--trials", "5")
    assert run(capsys, "unital", "build", *flags, "--mode", "sampled")[0] == 0
    assert run(capsys, "unital", "build", *flags)[0] == 0
    assert run(capsys, "polarity", "verify", *flags)[0] == 0
    assert calls == [("sampled", 5, 7), (), ()]


@pytest.mark.parametrize("far", ["n_points", "2^32 + last"])
def test_unital_file_id_past_the_plane_fails_the_check(capsys, tmp_path, unital_q5, far):
    # 2^32 + the last affine ID would narrow to that ID, the line it replaces;
    # it fails as the first ID past the plane does
    last = int(unital_q5.points[-2])
    line = str(unital_q5.plane.n_points if far == "n_points" else 2 ** 32 + last)
    path = _edited_unital_file(tmp_path, unital_q5, lambda l: l[:-2] + [line] + l[-1:])
    code, _, err = run(capsys, "unital", "verify", "--p", "5", "--m", "2", "--in", path)
    assert code == 1 and "CHECK FAILED (InvalidPointSet)" in err
    assert f"point ID {line} outside [0, 651)" in err
