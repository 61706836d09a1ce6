"""Command-line interface.

Subcommands: parse, verify, vf, level, classify, orbit, series, zoo,
symmetric, dual.  Exit codes: 0 success (non-rational verdicts included),
1 other errors (a map without a vector field, a map that is not a flow
given to classify or dual, a total degree above the monomial key's cap
2^32 - 1, and input too large to process included),
2 parse or usage error (``symmetric --N`` beyond +-64, ``orbit --grid``
outside 1..200 and ``series --order`` outside 2..400 included; the order
cap bounds the order, not the work: a rational field has run past 100 s
at order 100), 3 identically singular input (a map whose Jacobian vanishes
identically included), 4 a required root is irrational.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .algebra import AlgebraError, IdenticallySingular, NeedsRationalRoot
from .flowcore import (DegenerateJacobian, Flow, level_of, vector_field,
                       verify_translation, zeros_poles, is_i0_symmetric)
from .parser import (ParseError, parse_flow, parse_input,
                     print_flow, print_vector_field)
from .series import expand_from_vf, diagonal_series
from . import classify as _cl
from .render import orbit_points, orbit_svg, vector_field_csv

_NAMES = ("x", "y")
# caps on option values whose cost grows steeply: a larger value is a usage
# error (exit 2) instead of a run of minutes
MAX_SYMMETRIC_N = 64
MAX_GRID = 200
MAX_ORDER = 400


def _frac(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a rational number: %r" % s) from None


def _capped_int(cap, least=None):
    """An argparse type: an int of absolute value at most ``cap`` and, if
    ``least`` is given, at least ``least``."""
    def capped(s):
        try:
            n = int(s)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % s) from None
        if abs(n) > cap:
            raise argparse.ArgumentTypeError(
                "%d: absolute value above the cap %d" % (n, cap))
        if least is not None and n < least:
            raise argparse.ArgumentTypeError(
                "%d: below the least value %d" % (n, least))
        return n
    return capped


def _emit(payload, args):
    if getattr(args, "json", False):
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for k, v in payload.items():
            sys.stdout.write("%s: %s\n" % (k, v))


def _ell_repr(ell):
    if ell is None:
        return None
    return {"P": ell.P.to_string(_NAMES), "Q": ell.Q.to_string(_NAMES),
            "L": [str(ell.L.a), str(ell.L.b), str(ell.L.c), str(ell.L.d)]}


def _coords_repr(coords):
    if coords is None:
        return None
    if isinstance(coords, _cl.PHatValue):
        return {"phat": "oo" if coords.is_infinity else str(coords.tau)}
    return {"pN": [str(v) for v in coords.triple()], "N": coords.N}


def _verdict_payload(verdict):
    # no timings: identical inputs must give byte-identical reports
    out = {"verdict": verdict.kind}
    if isinstance(verdict, _cl.RationalFlow):
        out["level"] = verdict.level
        out["ell"] = _ell_repr(verdict.ell)
        out["orbit_W"] = verdict.orbit_W.to_string(_NAMES)
        out["coords"] = _coords_repr(verdict.coords)
    elif isinstance(verdict, _cl.NonRationalGenus1):
        out["level"] = verdict.level
        out["pair"] = list(verdict.pair)
        out["orbit_W"] = (verdict.orbit_W.to_string(_NAMES)
                          if verdict.orbit_W is not None else None)
    elif isinstance(verdict, _cl.PseudoLog):
        out["ell"] = _ell_repr(verdict.ell_to_normal_form)
    elif isinstance(verdict, _cl.NonIntegerLevel):
        out["delta_squared"] = str(verdict.delta_squared)
    elif isinstance(verdict, _cl.Degenerate):
        out.update(R=verdict.R.to_string(_NAMES), c=str(verdict.c),
                   A=str(verdict.A), B=str(verdict.B))
    elif isinstance(verdict, _cl.NonRational):
        out["tag"] = verdict.tag
    return out


def _read_input(args):
    if args.input == "-":
        return sys.stdin.read()
    return args.input


def cmd_parse(args):
    obj = parse_input(_read_input(args))
    if isinstance(obj, Flow):
        _emit({"kind": "flow", "printed": print_flow(obj)}, args)
    else:
        _emit({"kind": "vector_field",
               "printed": print_vector_field(obj)}, args)
    return 0


def cmd_verify(args):
    f = parse_flow(_read_input(args))
    # verify_translation is verify_pde, except that it raises on a map for
    # which the composition is nowhere defined
    ok = verify_translation(f)
    _emit({"translation_equation": ok, "pde": ok}, args)
    return 0


def cmd_vf(args):
    f = parse_flow(_read_input(args))
    vf = vector_field(f)
    _emit({"w": vf.w.to_string(_NAMES), "r": vf.r.to_string(_NAMES)}, args)
    return 0


def cmd_level(args):
    obj = parse_input(_read_input(args))
    vf = vector_field(obj) if isinstance(obj, Flow) else obj
    lvl = level_of(vf)
    zp = zeros_poles(vf)
    _emit({"level": repr(lvl), "zeros_poles": list(zp)}, args)
    return 0


def cmd_classify(args):
    obj = parse_input(_read_input(args))
    if isinstance(obj, Flow):
        verdict = _cl.canonicalize(obj)
    else:
        verdict = _cl.classify_vf(obj)
    payload = _verdict_payload(verdict)
    if isinstance(obj, Flow) and isinstance(verdict, _cl.RationalFlow):
        payload["zeros_poles"] = list(zeros_poles(vector_field(obj)))
    _emit(payload, args)
    return 0


def cmd_orbit(args):
    if args.range[0] == args.range[1]:
        args.parser.error("argument --range: empty range %s %s" % tuple(args.range))
    f = parse_flow(_read_input(args))
    if f.is_identity():
        x0, y0 = args.point
        csv = "x,y,w,r\n%s,%s,0,0\n" % (x0, y0)
        svg = orbit_svg([(Fraction(x0), Fraction(y0))], None,
                        rng=tuple(args.range))
        _write_artifacts(args, csv, svg)
        return 0
    vf = vector_field(f)
    verdict = _cl.canonicalize(f)
    if not isinstance(verdict, _cl.RationalFlow):
        _emit({"error": "no rational orbit invariant",
               "verdict": verdict.kind}, args)
        return 0
    W = verdict.orbit_W
    x0, y0 = Fraction(args.point[0]), Fraction(args.point[1])
    den = W.den.eval((x0, y0))
    if den == 0:
        _emit({"error": "orbit invariant has a pole at the base point"}, args)
        return 0
    value = W.num.eval((x0, y0)) / den
    pts = orbit_points(W, value, rng=tuple(args.range), n=args.grid)
    csv = vector_field_csv(vf, rng=tuple(args.range), n=args.grid)
    svg = orbit_svg(pts, vf, rng=tuple(args.range))
    _write_artifacts(args, csv, svg)
    return 0


def _write_artifacts(args, csv, svg):
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(csv)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(svg)
    if not args.csv and not args.svg:
        sys.stdout.write(csv)


def cmd_series(args):
    obj = parse_input(_read_input(args))
    vf = vector_field(obj) if isinstance(obj, Flow) else obj
    jets = expand_from_vf(vf, args.order)
    direction = tuple(Fraction(v) for v in args.direction)
    diag = diagonal_series(jets, direction)
    payload = {
        "order": args.order,
        "u_jets": [j.to_string(_NAMES) for j in jets.u_parts],
        "v_jets": [j.to_string(_NAMES) for j in jets.v_parts],
        "diagonal": [str(c) for c in diag],
    }
    _emit(payload, args)
    return 0


def cmd_zoo(args):
    rows = [{
        "name": e.name,
        "level": e.level,
        "orbit_W": e.orbit_W.to_string(_NAMES),
        "w": e.vf.w.to_string(_NAMES),
        "r": e.vf.r.to_string(_NAMES),
        "coords": _coords_repr(e.coords),
        "zeros_poles": [e.zeros, e.poles],
        "translation_equation": verify_translation(e.flow),
    } for e in _cl.zoo()]
    if args.json:
        _emit(rows, args)
    else:
        for row in rows:
            sys.stdout.write("%-14s level=%d W=%s ok=%s\n" % (
                row["name"], row["level"], row["orbit_W"],
                row["translation_equation"]))
    return 0


def cmd_symmetric(args):
    f = _cl.symmetric_family(args.N, args.family)
    _emit({"flow": print_flow(f),
           "i0_symmetric": is_i0_symmetric(f),
           "translation_equation": verify_translation(f)}, args)
    return 0


def cmd_dual(args):
    f = parse_flow(_read_input(args))
    d = _cl.dual(f)
    _emit({"dual": print_flow(d)}, args)
    return 0


@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(
        prog="projflow",
        description="Exact computer algebra for rational projective flows")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_input=True):
        p = sub.add_parser(name)
        if needs_input:
            p.add_argument("input", help="expression, or - for stdin")
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=fn, parser=p)
        return p

    add("parse", cmd_parse)
    add("verify", cmd_verify)
    add("vf", cmd_vf)
    add("level", cmd_level)
    add("classify", cmd_classify)
    p = add("orbit", cmd_orbit)
    p.add_argument("--point", nargs=2, type=_frac, default=(Fraction(1), Fraction(2)))
    p.add_argument("--range", nargs=2, type=_frac, default=(Fraction(-2), Fraction(2)))
    p.add_argument("--grid", type=_capped_int(MAX_GRID, 1), default=41,
                   help="grid points per side, 1 to %d" % MAX_GRID)
    p.add_argument("--csv")
    p.add_argument("--svg")
    p = add("series", cmd_series)
    p.add_argument("--order", type=_capped_int(MAX_ORDER, 2), default=8,
                   help="jet order, 2 to %d" % MAX_ORDER)
    p.add_argument("--direction", nargs=2, type=_frac,
                   default=(Fraction(1), Fraction(-1)))
    add("zoo", cmd_zoo, needs_input=False)
    p = add("symmetric", cmd_symmetric, needs_input=False)
    p.add_argument("--N", type=_capped_int(MAX_SYMMETRIC_N), default=1,
                   help="the index of the family, |N| at most %d" % MAX_SYMMETRIC_N)
    p.add_argument("--family", default="Phi",
                   choices=["Phi", "PhiPrime", "phi_tor_1", "Psi"])
    add("dual", cmd_dual)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return 2
    except (IdenticallySingular, DegenerateJacobian) as exc:
        sys.stderr.write("identically singular: %s\n" % exc)
        return 3
    except NeedsRationalRoot as exc:
        sys.stderr.write("needs rational root: %s\n" % exc)
        return 4
    except AlgebraError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except (RecursionError, MemoryError) as exc:
        sys.stderr.write("error: input too large to process (%s)\n"
                         % type(exc).__name__)
        return 1


if __name__ == "__main__":
    sys.exit(main())
