"""Command-line surface.

Exit codes: 0 success, 1 a verification/check reported failures, 2 usage or
input errors.  Every error prints ``error[<code>]: <message>`` on stderr.

Each command imports the modules it runs in its body, and only those.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import serialize as ser
from .errors import MalformedInput, QschemeError
from .quiver import expected_dim, parse_quiver, serialize_quiver, to_dot


def _read(path):
    return Path(path).read_text(encoding="utf-8")


def _load_quiver(path):
    return parse_quiver(_read(path))


def _load_json(path):
    try:
        return json.loads(_read(path))
    except RecursionError:
        raise MalformedInput(f"{path}: JSON nested too deeply") from None


def _parse_dims(text):
    return tuple(int(x) for x in text.split(","))


def _emit(args, obj, text):
    if args.format == "json":
        sys.stdout.write(ser.dumps(obj))
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _write_out(args, text):
    """Write text to the --out file when one is given, else to stdout."""
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_parse(args):
    q = _load_quiver(args.file)
    if args.dot:
        sys.stdout.write(to_dot(q))
    else:
        sys.stdout.write(serialize_quiver(q))
    return 0


def cmd_cartan(args):
    q = _load_quiver(args.file)
    cd = q.cartan
    obj = {
        "vertices": [v.name for v in q.vertices],
        "a": [list(r) for r in cd.a],
        "aprime": [[str(x) for x in r] for r in cd.aprime],
        "d": list(cd.d),
        "c": [list(r) for r in cd.c],
    }
    text = "\n".join(
        f"{q.name(i)}: " + " ".join(str(x) for x in row)
        for i, row in enumerate(cd.c)
    )
    _emit(args, obj, "C =\n" + text)
    return 0


def cmd_dim(args):
    q = _load_quiver(args.file)
    v = _parse_dims(args.v)
    value = expected_dim(q, v)
    _emit(args, {"v": list(v), "expected_dim": value}, f"expected dim: {value}")
    return 0


def cmd_reflect(args):
    from .weyl import reflect_dim, reflect_param
    q = _load_quiver(args.file)
    lam = ser.params_from_obj(q, _load_json(args.lam))
    v = _parse_dims(args.v)
    new_lam = reflect_param(q, args.vertex, lam)
    new_v = reflect_dim(q, args.vertex, v)
    obj = {"lambda": ser.params_to_obj(q, new_lam), "v": list(new_v)}
    _emit(args, obj, ser.dumps(obj))
    return 0


def cmd_weyl_verify(args):
    from .weyl import verify_coxeter
    q = _load_quiver(args.file)
    checks, skipped = verify_coxeter(q)
    obj = {
        "ok": checks.ok,
        "checks": [
            {"action": action, "vertices": list(names), "order": order, "ok": ok}
            for (action, names, order), ok, _, _ in checks.verdicts
        ],
        "skipped": [
            {"vertices": list(pair), "product": prod}
            for pair, prod in skipped
        ],
    }
    text = "\n".join([checks.summary()] + [
        f"  skipped infinite pair {pair} (c_ij*c_ji = {prod})" for pair, prod in skipped
    ])
    _emit(args, obj, text)
    return 0 if checks.ok else 1


def cmd_moment(args):
    from .repn import moment_map
    q = _load_quiver(args.file)
    rep = ser.rep_from_obj(q, _load_json(args.rep))
    mu = moment_map(rep)
    obj = {q.name(i): ser.rmap_to_obj(m) for i, m in enumerate(mu)}
    _emit(args, obj, ser.dumps(obj))
    return 0


def cmd_mesh(args):
    from .repn import mesh_check
    from .weyl import level_check
    q = _load_quiver(args.file)
    rep = ser.rep_from_obj(q, _load_json(args.rep))
    lam = ser.params_from_obj(q, _load_json(args.lam))
    res = mesh_check(rep, lam)
    zero = all(r.is_zero() for r in res)
    obj = {
        "zero": zero,
        "residuals": {q.name(i): ser.rmap_to_obj(r) for i, r in enumerate(res)},
        "level_ok": level_check(q, lam, rep.v),
    }
    _emit(args, obj, f"residuals zero: {zero}")
    return 0 if zero else 1


def cmd_random_rep(args):
    from .repn import random_rep
    q = _load_quiver(args.file)
    rep = random_rep(q, _parse_dims(args.v), args.seed)
    _write_out(args, ser.dumps(ser.rep_to_obj(rep)))
    return 0


def cmd_orbit_check(args):
    from .orbit import orbit_membership
    spec = ser.orbit_spec_from_obj(_load_json(args.spec))
    a = ser.rmap_from_obj(_load_json(args.a))
    witness = orbit_membership(spec, a)
    obj = {"member": witness.ok, "reasons": witness.reasons}
    _emit(args, obj, "member" if witness.ok else "not a member:\n  "
          + "\n  ".join(witness.reasons))
    return 0 if witness.ok else 1


def cmd_leg_factor(args):
    from .orbit import leg_factorize
    spec = ser.orbit_spec_from_obj(_load_json(args.spec))
    a = ser.rmap_from_obj(_load_json(args.a))
    point = leg_factorize(spec, a)
    _write_out(args, ser.dumps(ser.leg_point_to_obj(point)))
    return 0


def cmd_functor(args):
    from .reflect import reflection_functor
    from .weyl import reflect_param
    q = _load_quiver(args.file)
    rep = ser.rep_from_obj(q, _load_json(args.rep))
    lam = ser.params_from_obj(q, _load_json(args.lam))
    out_rep = reflection_functor(rep, args.vertex, lam)
    new_lam = reflect_param(q, args.vertex, lam)
    obj = {
        "rep": ser.rep_to_obj(out_rep),
        "lambda": ser.params_to_obj(q, new_lam),
        "v": list(out_rep.v),
    }
    _write_out(args, ser.dumps(obj))
    return 0


def cmd_random_level(args):
    from .reflect import random_level_point
    q = _load_quiver(args.file)
    lam = ser.params_from_obj(q, _load_json(args.lam))
    rep = random_level_point(q, lam, _parse_dims(args.v), args.vertex, args.seed)
    _write_out(args, ser.dumps(ser.rep_to_obj(rep)))
    return 0


def cmd_legs(args):
    from .regularize import find_legs
    q = _load_quiver(args.file)
    legs = find_legs(q)
    obj = [
        {
            "base": q.name(leg.base),
            "vertices": [q.name(i) for i in leg.vertices],
            "d": leg.d,
        }
        for leg in legs
    ]
    text = "\n".join(
        f"leg: base {o['base']}, chain {','.join(o['vertices'])}, d={o['d']}"
        for o in obj
    ) or "no legs"
    _emit(args, obj, text)
    return 0


def _leg_from_arg(q, text):
    from .regularize import leg_from_names
    names = [x.strip() for x in text.split(",")]
    return leg_from_names(q, names)


def cmd_regularize(args):
    from .regularize import check_theorem_hypotheses, regularize_params, regularize_quiver
    if (args.lam is None) != (args.v is None):
        raise MalformedInput("--lambda and --v must be given together")
    q = _load_quiver(args.file)
    leg = _leg_from_arg(q, args.leg)
    reg = regularize_quiver(q, leg)
    out_text = serialize_quiver(reg)
    result = {"quiver": out_text}
    if args.lam is not None:
        lam = ser.params_from_obj(q, _load_json(args.lam))
        v = _parse_dims(args.v)
        lamc, vc = regularize_params(q, leg, lam, v)
        hyp = check_theorem_hypotheses(q, leg, lam, v)
        result["lambda"] = ser.params_to_obj(reg, lamc)
        result["v"] = list(vc)
        result["hypotheses_ok"] = hyp.ok
    if args.out:
        Path(args.out).write_text(out_text, encoding="utf-8")
    if args.format == "json":
        sys.stdout.write(ser.dumps(result))
        return 0
    if not args.out:
        sys.stdout.write(out_text)
    # the transferred data goes to stdout, with or without --out
    if "v" in result:
        sys.stdout.write(f"# v: {result['v']}\n")
        sys.stdout.write(f"# hypotheses ok: {result['hypotheses_ok']}\n")
    return 0


def cmd_reg_verify(args):
    from .regularize import (isometry_check, regularize_quiver, verify_param_equivariance,
                             verify_semidirect)
    q = _load_quiver(args.file)
    leg = _leg_from_arg(q, args.leg)
    reg = regularize_quiver(q, leg)
    iso = isometry_check(q, leg, reg)
    sd = verify_semidirect(q, leg, reg)
    pe = verify_param_equivariance(q, leg, reg)
    ok = iso and sd.ok and pe.ok
    obj = {
        "isometry": iso,
        "semidirect": [{"label": case, "ok": o} for case, o, _, _ in sd.verdicts],
        "equivariance": [{"label": case, "ok": o} for case, o, _, _ in pe.verdicts],
        "ok": ok,
    }
    text = "\n".join([f"isometry: {'ok' if iso else 'FAIL'}", sd.summary(), pe.summary()])
    _emit(args, obj, text)
    return 0 if ok else 1


def cmd_check(args):
    from .suites import run_suite
    if args.trials < 1:
        raise MalformedInput(f"--trials must be at least 1, got {args.trials}")
    corpus_dir = Path(args.corpus)
    quivers = {}
    for path in sorted(corpus_dir.glob("*.quiver")):
        quivers[path.stem] = parse_quiver(path.read_text(encoding="utf-8"))
    if not quivers:
        raise MalformedInput(f"no .quiver files in {corpus_dir}")
    report = run_suite(quivers, args.suite, seed=args.seed, trials=args.trials)
    _emit(args, {"suite": args.suite, "seed": args.seed, **report.to_obj()}, report.summary())
    return 0 if report.ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="qs", description="exact quiver-scheme computations"
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse a quiver file and echo it")
    sp.add_argument("file")
    sp.add_argument("--dot", action="store_true")
    sp.set_defaults(func=cmd_parse)

    sp = sub.add_parser("cartan", help="Cartan data of a quiver")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_cartan)

    sp = sub.add_parser("dim", help="expected dimension for a dimension vector")
    sp.add_argument("file")
    sp.add_argument("--v", required=True)
    sp.set_defaults(func=cmd_dim)

    sp = sub.add_parser("reflect", help="reflect parameters and dimensions")
    sp.add_argument("file")
    sp.add_argument("--vertex", required=True)
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--v", required=True)
    sp.set_defaults(func=cmd_reflect)

    sp = sub.add_parser("weyl-verify", help="verify the reflection relations")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_weyl_verify)

    sp = sub.add_parser("moment", help="moment values of a representation")
    sp.add_argument("file")
    sp.add_argument("--rep", required=True)
    sp.set_defaults(func=cmd_moment)

    sp = sub.add_parser("mesh", help="level-set residuals of a representation")
    sp.add_argument("file")
    sp.add_argument("--rep", required=True)
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.set_defaults(func=cmd_mesh)

    sp = sub.add_parser("random-rep", help="deterministic random representation")
    sp.add_argument("file")
    sp.add_argument("--v", required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_random_rep)

    sp = sub.add_parser("orbit-check", help="orbit membership with witnesses")
    sp.add_argument("spec")
    sp.add_argument("--a", required=True)
    sp.set_defaults(func=cmd_orbit_check)

    sp = sub.add_parser("leg-factor", help="factor an orbit member through a chain")
    sp.add_argument("spec")
    sp.add_argument("--a", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_leg_factor)

    sp = sub.add_parser("functor", help="apply the reflection functor")
    sp.add_argument("file")
    sp.add_argument("--vertex", required=True)
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--rep", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_functor)

    sp = sub.add_parser("random-level", help="random vertex level-set point")
    sp.add_argument("file")
    sp.add_argument("--vertex", required=True)
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--v", required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_random_level)

    sp = sub.add_parser("legs", help="list the legs of a quiver")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_legs)

    sp = sub.add_parser("regularize", help="rewrite a quiver along a leg")
    sp.add_argument("file")
    sp.add_argument("--leg", required=True, help="base,v1,...,vl vertex names")
    sp.add_argument("--lambda", dest="lam")
    sp.add_argument("--v")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_regularize)

    sp = sub.add_parser("reg-verify", help="verify the regularization identities")
    sp.add_argument("file")
    sp.add_argument("--leg", required=True)
    sp.set_defaults(func=cmd_reg_verify)

    sp = sub.add_parser("check", help="run property suites over a corpus")
    sp.add_argument("corpus")
    sp.add_argument("--suite", default="all")
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--trials", type=int, default=25)
    sp.set_defaults(func=cmd_check)

    # --format is also accepted after the subcommand
    for sp in sub.choices.values():
        sp.add_argument(
            "--format", choices=("text", "json"), default=argparse.SUPPRESS
        )
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except QschemeError as e:
        sys.stderr.write(f"error[{e.code}]: {e}\n")
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as e:
        sys.stderr.write(f"error[input]: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
