"""Batch front end: build, verify, and compare unitals from the shell.

Every subcommand but compare and suite resolves a field/function context
from --p --m --modulus (and --spec where it builds a plane) and takes only
the command flags its handler reads.  The certifying ones serialize their
RunConfig into the emitted JSON certificates (the hash is stable across
reruns; a timestamp is attached after hashing).  Exit codes: 0 on
all-pass, 1 on any check failure, 2 on usage errors, an output path that
cannot be written among them.  A check that raises is reported in one
place, main: `CHECK FAILED (<error type>): <message>` on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__ as VERSION
from . import analysis as an
from . import gf
from . import planar
from . import unital as un
from .errors import MAX_TRIALS, NotPlanar, UnitalForgeError, UsageError
from .plane import ShiftPlane


@dataclass
class RunConfig:
    field: str
    spec: str
    theta: str = "auto"
    mode: str = "exhaustive"
    seed: int = 0
    trials: int = 10000
    workers: int = 1        # always 1; kept so that certificate hashes stay put
    out_format: str = "json"

    def digest(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True) + VERSION
        return hashlib.sha256(payload.encode()).hexdigest()


def _add_field_args(p: argparse.ArgumentParser):
    p.add_argument("--p", type=int, required=True, help="characteristic (odd prime)")
    p.add_argument("--m", type=int, required=True, help="extension degree of F_{p^m} = F_{q^2}")
    p.add_argument("--modulus", type=str, default=None,
                   help="comma-separated modulus coefficients, constant first")


# the command flags; each subcommand takes only those its handler reads
# (_COMMANDS), so any other flag is a usage error
_FLAGS = {
    "--spec": dict(default=None, help="function spec string (square, albert:k=2, "
                                      "cm:k=3, ...); square when not given"),
    "--in": dict(dest="infile", default=None,
                 help="read a UNITAL v1 file instead of building"),
    "--theta": dict(default="auto",
                    help="'auto' (smallest admissible) or an element index"),
    "--kappa": dict(choices=un.InvolutionSpec.KINDS, default="frobq"),
    "--mode": dict(choices=["exhaustive", "sampled"], default="exhaustive"),
    "--seed": dict(type=int, default=0),
    "--trials": dict(type=int, default=10000),
    "--out": dict(default=None),
    "--point": dict(default="inf", help="'inf', 'all', or a point ID"),
    "--ratio": dict(action="store_true",
                    help="report satisfied/total instead of short-circuiting"),
    "--exhaustive": dict(action="store_true"),
    "--limit": dict(type=int, default=8, help="max configurations to print"),
}


def _add_command_args(p: argparse.ArgumentParser, flags: str):
    """The named _FLAGS.  A file read fixes its own theta, so --in and
    --theta exclude each other."""
    names = flags.split()
    group = p.add_mutually_exclusive_group() if "--in" in names else p
    for name in names:
        (group if name in ("--in", "--theta") else p).add_argument(name, **_FLAGS[name])


# the least and the greatest value of each numeric flag, whatever the
# mode; a value outside is a usage error
_FLAG_RANGES = (("trials", 1, MAX_TRIALS), ("seed", 0, float("inf")),
                ("limit", 0, float("inf")))


def _check_flag_ranges(args):
    for name, least, most in _FLAG_RANGES:
        value = getattr(args, name, None)
        if value is not None and not least <= value <= most:
            bound = f"at least {least}" if value < least else f"at most {most}"
            raise UsageError(f"--{name} must be {bound}, got {value}")


def _field(args):
    """F_{p^m} of --p, --m and --modulus; flags outside their range are
    usage errors, a field past gf.FIELD_SIZE_MAX among them."""
    gf.require_field_size(args.p, args.m)
    if args.p == 2 or not gf.is_prime(args.p):
        raise UsageError(f"--p must be an odd prime, got {args.p}")
    if args.m < 1:
        raise UsageError(f"--m must be at least 1, got {args.m}")
    return gf.field_new(args.p, args.m, _modulus(args))


def _modulus(args):
    """The coefficients of --modulus, None when it is not given."""
    if not args.modulus:
        return None
    try:
        return tuple(int(c) for c in args.modulus.split(","))
    except ValueError:
        raise UsageError(f"malformed --modulus {args.modulus!r}") from None


def _context(args):
    if args.m % 2 != 0:
        raise UsageError(f"--m must be even, got {args.m}: the plane lives over "
                         "F_{q^2} = F_{p^m}")
    ctx = _field(args)
    split = gf.split_new(ctx, args.m // 2)
    spec = planar.parse_spec(split, _spec_arg(args))
    return ctx, split, spec


def _spec_arg(args) -> str:
    """--spec, or "square" when it is not given."""
    return "square" if args.spec is None else args.spec


def _theta_index(split, spec, theta_arg: str) -> int:
    if theta_arg == "auto":
        if spec.is_two_component:
            return split.xi
        return split.choose_theta()
    if not (theta_arg.isdecimal() and int(theta_arg) < split.ctx.size):
        raise UsageError(f"--theta must be 'auto' or an element index in "
                         f"[0, {split.ctx.size}), got {theta_arg!r}")
    return int(theta_arg)


def _runconfig(args, ctx, mode: str, theta: str = "auto") -> RunConfig:
    """The RunConfig of a certificate whose checks ran in `mode`; a command
    without --theta records "auto", and no certifying command threads."""
    return RunConfig(field=ctx.descriptor(), spec=_spec_arg(args), theta=theta,
                     mode=mode, seed=args.seed, trials=args.trials)


def _certify_planar(spec, args):
    """Refuse a spec that check_planarity does not certify planar, in the
    command's --mode (exhaustive without one): it generates no projective
    plane, so no unital or polarity in it is certified."""
    chk = (planar.check_planarity(spec, "sampled", args.trials, args.seed)
           if getattr(args, "mode", None) == "sampled" else planar.check_planarity(spec))
    if not chk.passed:
        raise NotPlanar(f"{spec.spec_string()} is not planar: witness {chk.witness}")


def _plane(spec, args) -> ShiftPlane:
    _certify_planar(spec, args)
    return ShiftPlane(spec)


def _read_unital(path, args):
    try:
        u = un.read_unital_file(path)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}") from None
    _certify_planar(u.plane.spec, args)
    return u


def _emit(cert: dict, out: str | None):
    text = json.dumps(cert, indent=2, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _publish(u, extra: dict, rc: RunConfig, out: str | None):
    """The certificate of u with `extra`, its RunConfig and a timestamp
    attached after hashing: emitted to <out>.json beside u written to out,
    or printed without --out."""
    cert = u.certificate(extra)
    cert["runconfig"] = asdict(rc)
    cert["runconfig_hash"] = rc.digest()
    cert["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if out:
        un.write_unital_file(u, out)
    _emit(cert, out and out + ".json")


# ---------------------------------------------------------------------- cmds


def cmd_field_check(args) -> int:
    ctx = _field(args)
    print(ctx.descriptor())
    rng = np.random.default_rng(args.seed)
    a, b, c = rng.integers(0, ctx.size, (3, 5000))
    ok = bool(np.all(ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))))
    # the addition tables against digit-wise addition in base p
    ok &= bool(np.all(ctx.add(b, c) == (ctx.digits[b] + ctx.digits[c]) % ctx.p @ ctx.pow_p))
    nz = np.arange(1, ctx.size) if ctx.size <= 4096 else (
        rng.integers(1, ctx.size, 5000))
    ok &= bool(np.all(ctx.mul(ctx.inv(nz), nz) == 1))
    print(f"axioms: {'pass' if ok else 'FAIL'} (size {ctx.size})")
    return 0 if ok else 1


def cmd_planar_verify(args) -> int:
    ctx, split, spec = _context(args)
    cert = planar.certify(spec, mode=args.mode, trials=args.trials, seed=args.seed)
    print(f"spec={spec.spec_string()} field={ctx.descriptor()}")
    print(f"planar={cert.is_planar} ({cert.planarity.mode}, "
          f"{cert.planarity.shifts_checked} shifts)")
    print(f"normal={cert.is_normal}")
    print(f"value-distribution={cert.satisfies_value_distribution}")
    if cert.witness:
        print(f"witness={cert.witness}")
    return 0 if cert.is_planar and cert.is_normal else 1


def cmd_plane_verify(args) -> int:
    ctx, split, spec = _context(args)
    plane = ShiftPlane(spec)
    rep = plane.verify_projective_plane(mode=args.mode, seed=args.seed,
                                        trials=args.trials)
    print(f"plane order {plane.N}: points={rep.points} lines={rep.lines} "
          f"mode={rep.mode} pairs={rep.pairs_checked} passed={rep.passed}")
    if rep.witness:
        print(f"witness={rep.witness}")
    return 0 if rep.passed else 1


def cmd_plane_dump(args) -> int:
    ctx, split, spec = _context(args)
    plane = ShiftPlane(spec)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for lid in range(plane.n_lines):
            pts = " ".join(str(int(p)) for p in plane.points_on_line(lid))
            out.write(f"L {lid} : {pts}\n")
    finally:
        if args.out:
            out.close()
    return 0


def _build_unital(args):
    _, split, spec = _context(args)
    return un.build_parabolic_unital(_plane(spec, args),
                                     _theta_index(split, spec, args.theta))


def cmd_unital_build(args) -> int:
    u = _build_unital(args)
    emb = un.verify_unital_embedded(u, mode=args.mode, seed=args.seed,
                                    trials=args.trials)
    _publish(u, {"points_count": len(u.points), "theta": u.theta,
                 "secants": emb.secant_count, "tangents": emb.tangent_count},
             _runconfig(args, u.plane.ctx, args.mode, args.theta), args.out)
    return 0


def _check_field_flags(args, plane):
    """--p, --m and a given --modulus must name the field of the file read,
    and a given --spec its planar function."""
    ctx = plane.ctx
    for flag, given, stored in (("--p", args.p, ctx.p), ("--m", args.m, ctx.m)):
        if given != stored:
            raise UsageError(f"{flag} {given} differs from the file's field "
                             f"{ctx.descriptor()}")
    modulus = _modulus(args)
    if modulus is not None and tuple(c % ctx.p for c in modulus) != ctx.modulus:
        raise UsageError(f"--modulus {args.modulus} differs from the file's field "
                         f"{ctx.descriptor()}")
    stored = plane.spec.spec_string()
    if args.spec is not None and planar.parse_spec(plane.split,
                                                   args.spec).spec_string() != stored:
        raise UsageError(f"--spec {args.spec} differs from the file's spec {stored}")


def _load_or_build(args):
    if args.infile:
        u = _read_unital(args.infile, args)
        _check_field_flags(args, u.plane)
        return u
    return _build_unital(args)


def cmd_unital_verify(args) -> int:
    u = _load_or_build(args)
    emb = un.verify_unital_embedded(u, mode=args.mode, seed=args.seed,
                                    trials=args.trials)
    print(f"embedded: passed={emb.passed} secants={emb.secant_count} "
          f"tangents={emb.tangent_count} mode={emb.mode}")
    try:
        des = un.verify_design(u)
    except UsageError as e:
        print(f"design: skipped ({e})")
        return 0 if emb.passed else 1
    print(f"design: passed={des.passed} points={des.point_count} "
          f"blocks={des.block_count} pairs={des.pairs_covered}")
    return 0 if emb.passed and des.passed else 1


def cmd_unital_dual(args) -> int:
    u = _load_or_build(args)
    _, wit = un.dual_unital(u)
    print(f"self-dual: switch image equals the point set "
          f"({wit['tangent_lines']} tangent lines)")
    return 0


def cmd_unital_ovals(args) -> int:
    u = _load_or_build(args)
    ovals = un.ovals_decomposition(u)
    print(f"ovals: {len(ovals)} of sizes {sorted(set(len(o) for o in ovals))}, "
          f"union = unital")
    return 0


def cmd_circles(args) -> int:
    u = _load_or_build(args)
    rep = an.verify_circle_design(u)
    print(f"circles: count={rep.circle_count} size={rep.circle_size} "
          f"lambda={rep.lambda_value} partition={rep.partition_ok} "
          f"passed={rep.passed}")
    return 0 if rep.passed else 1


def cmd_wilbrink(args) -> int:
    if args.point not in ("all", "inf") and not args.point.removeprefix("-").isdecimal():
        raise UsageError(f"--point must be 'inf', 'all' or a point ID, got {args.point!r}")
    u = _load_or_build(args)
    idx = an.DesignIndex(u)
    named = {"all": u.points.tolist(), "inf": [u.plane.infinity_id]}
    pids = named.get(args.point) or [int(args.point)]
    code = 0
    for pid in pids:
        rep = an.wilbrink_vertex_check(u, pid, strong=not args.ratio, index=idx)
        print(f"VERTEX {pid} strong={rep.strong} "
              f"satisfied={rep.satisfied}/{rep.total}")
        if args.point == "inf" and not rep.strong:
            code = 1
    return code


def _print_onan(cfgs):
    for cfg in cfgs:
        print(f"ONAN blocks={list(cfg.blocks)} points={list(cfg.points)}")


def cmd_onan_find(args) -> int:
    u = _load_or_build(args)
    if args.exhaustive:
        res = an.find_onan_exhaustive(u)
        _print_onan(res.configs[: args.limit])
        print(f"count={res.count} complete={res.complete}")
        return 0
    cfgs, hits = an.find_onan_through_infinity(u)
    _print_onan(cfgs[: args.limit])
    print(f"count={len(cfgs)} circle_hits={len(hits)}")
    return 0


def cmd_onan_construct(args) -> int:
    _print_onan([an.construct_onan_explicit(_load_or_build(args))])
    return 0


def cmd_polarity(args) -> int:
    ctx, split, spec = _context(args)
    plane = _plane(spec, args)
    kappa = un.InvolutionSpec(args.kappa)
    if args.action == "verify":
        rep = un.verify_polarity(plane, kappa, seed=args.seed, trials=args.trials)
        print(f"polarity kappa={args.kappa}: absolutes={rep.absolute_points} "
              f"mode={rep.mode} incidences={rep.incidences_checked}")
        return 0
    u = un.build_polarity_unital(plane, kappa, seed=args.seed, trials=args.trials)
    check = u.checks[-1]                  # its one verify_polarity run
    print(f"polarity kappa={args.kappa}: "
          f"absolutes={check.witness['absolute_points']} mode={check.mode}")
    _publish(u, {"points_count": len(u.points)}, _runconfig(args, ctx, check.mode),
             args.out)
    return 0


def cmd_subgroups(args) -> int:
    u = _build_unital(args)
    plane = u.plane
    if plane.spec.is_dembowski_ostrom:
        rep1 = an.sigma_stabilizer_report(u)
        print(f"shear stabilizer (parabolic): order={rep1.order} "
              f"abelian={rep1.is_abelian}")
        upol = un.build_polarity_unital(plane, un.InvolutionSpec(args.kappa))
        rep2 = an.sigma_stabilizer_report(upol)
        print(f"shear stabilizer (polarity): order={rep2.order} "
              f"abelian={rep2.is_abelian} witness={rep2.commutator_witness}")
        try:
            comp = an.verify_sigma_composition(plane)
        except UsageError:              # its image table is past q = 5: no line
            return 0
        print(f"composition law: pairs={comp['pairs_checked']} "
              f"biadditivity={comp['biadditivity']}")
    else:
        rept = an.shift_stabilizer_report(u)
        print(f"translation stabilizer (parabolic): order={rept.order}")
        upol = un.build_polarity_unital(plane, un.InvolutionSpec(args.kappa))
        repp = an.shift_stabilizer_report(upol)
        print(f"translation stabilizer (polarity): order={repp.order}")
    return 0


def cmd_compare(args) -> int:
    sides = {"left": args.left, "right": args.right}
    unitals = [_read_unital(path, args) for path in sides.values()]
    profiles = [an.invariant_profile(u) for u in unitals]
    verdict, reasons = an.compare_profiles(*profiles)
    if verdict == "NON-ISOMORPHIC":
        print(f"NON-ISOMORPHIC ({'; '.join(reasons)})")
    else:
        print("INCONCLUSIVE (profiles agree on all computed invariants)")
    if args.out:
        payload = {side: {"file": path, "hash": u.certificate()["hash"], **p.design_fields(),
                          "line_spectrum": p.line_spectrum}
                   for (side, path), u, p in zip(sides.items(), unitals, profiles)}
        _emit({**payload, "verdict": verdict, "reasons": reasons}, args.out)
    return 0


def cmd_suite(args) -> int:
    from .suite import run_suite

    full = not args.quick
    results = run_suite(full=full)
    print(f"acceptance suite ({'full' if full else 'quick'} mode)")
    print("-" * 72)
    for r in results:
        print(r.line() + f"  ({r.runtime:.1f}s)")
    n_pass = sum(r.passed for r in results)
    print("-" * 72)
    print(f"{n_pass}/{len(results)} criteria passed")
    return 0 if n_pass == len(results) else 1


# ---------------------------------------------------------------------- main


# (subcommand, help of its first word, handler, the flags the handler reads
# beyond --p --m --modulus)
_COMMANDS = (
    ("field check", "field-level checks", cmd_field_check, "--seed"),
    ("planar verify", "planar-function certification", cmd_planar_verify,
     "--spec --mode --seed --trials"),
    ("plane verify", "projective-plane checks", cmd_plane_verify,
     "--spec --mode --seed --trials"),
    ("plane dump", None, cmd_plane_dump, "--spec --out"),
    ("unital build", "build and certify unitals", cmd_unital_build,
     "--spec --theta --mode --seed --trials --out"),
    ("unital verify", None, cmd_unital_verify, "--spec --in --theta --mode --seed --trials"),
    ("unital dual", None, cmd_unital_dual, "--spec --in --theta"),
    ("unital ovals", None, cmd_unital_ovals, "--spec --in --theta"),
    ("circles", "circle-design verification", cmd_circles, "--spec --in --theta"),
    ("wilbrink", "strong-vertex checks", cmd_wilbrink,
     "--spec --in --theta --point --ratio"),
    ("onan find", "configuration searches", cmd_onan_find,
     "--spec --in --theta --exhaustive --limit"),
    ("onan construct", None, cmd_onan_construct, "--spec --in --theta"),
    ("polarity build", "unitary-polarity checks", cmd_polarity,
     "--spec --kappa --seed --trials --out"),
    ("polarity verify", None, cmd_polarity, "--spec --kappa --seed --trials"),
    ("subgroups", "stabilizer subgroup reports", cmd_subgroups, "--spec --theta --kappa"),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="unitalforge",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    actions = {}
    for name, help_, fn, flags in _COMMANDS:
        cmd, _, action = name.partition(" ")
        if not action:
            leaf = sub.add_parser(cmd, help=help_)
        else:
            if cmd not in actions:
                actions[cmd] = sub.add_parser(cmd, help=help_).add_subparsers(
                    dest="action", required=True)
            leaf = actions[cmd].add_parser(action)
        _add_field_args(leaf)
        _add_command_args(leaf, flags)
        leaf.set_defaults(fn=fn)

    pc = sub.add_parser("compare", help="design-isomorphism verdict from two files")
    pc.add_argument("--left", required=True)
    pc.add_argument("--right", required=True)
    pc.add_argument("--out", type=str, default=None,
                    help="also write both profiles and the verdict as JSON")
    pc.set_defaults(fn=cmd_compare)

    psu = sub.add_parser("suite", help="run the acceptance matrix")
    group = psu.add_mutually_exclusive_group()
    group.add_argument("--quick", action="store_true",
                       help="small-field subset (q <= 5)")
    group.add_argument("--full", action="store_true")
    psu.set_defaults(fn=cmd_suite)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        _check_flag_ranges(args)
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except UnitalForgeError as e:
        print(f"CHECK FAILED ({type(e).__name__}): {e}", file=sys.stderr)
        return 1
    except OSError as e:                # an --out path it cannot write
        print(f"usage error: cannot write {e.filename}: {e.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
