"""Command-line driver.

Subcommands: slope, analyze, diagonalize, isomorphic, moduli.  Input
files use the .conn.json schema ({schema_version, n, field, nu,
matrix}) documented in the README; output is canonical JSON (sorted
keys).  Exit codes: 0 ok, 2 parse error, 3 insufficient precision,
4 residue/constraint violation, 5 non-regular or unsupported input.
"""

import argparse
import json
import sys
from fractions import Fraction

from .connections import FormalConnection, diagonalize, fundamental_stratum, slope
from .errors import (DuplicatePoints, FormalConnError, IrreducibleStratum,
                     NonsplitField, NotRegular, NotSplit, ParseError,
                     PrecisionError, ResidueNonzero, UnsupportedDepth)
from .formal_types import orbit_equivalent, validate_formal_type
from .matrices import LaurentMatrix
from .moduli import (GlobalConfig, assemble_global, check_framing, moment_map,
                     orbit_dimensions, regular_singular_orbit_dimensions)
from .scalars import format_scalar, get_field
from .parahoric import filtration_degree, standard_chain
from .series import INF, OneForm, default_precision, set_default_precision
from .strata import is_regular, stratum_char_poly

EXIT_PARSE = 2
EXIT_PRECISION = 3
EXIT_CONSTRAINT = 4
EXIT_UNSUPPORTED = 5


def _emit(payload):
    print(json.dumps(payload, sort_keys=True))


def _load_json(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    if not isinstance(data, dict):
        raise ParseError("%s does not hold a JSON object" % path)
    return data


def _parse_nu(spec, field):
    spec = spec.replace(" ", "")
    if spec == "dt":
        return OneForm.dt()
    if spec == "dt/t":
        return OneForm.dt_over_t()
    if spec.startswith("dt/t^"):
        try:
            return OneForm.dt_over_t_pow(int(spec[len("dt/t^"):]))
        except ValueError:
            pass
    raise ParseError("cannot parse one-form %r (use dt, dt/t, dt/t^k)" % spec)


def _load_connection(path, args):
    data = _load_json(path)
    field = get_field(args.field) if args.field else get_field(data.get("field", "Q"))
    conn = FormalConnection.from_json(data, field)
    if args.nu:
        conn = conn.with_one_form(_parse_nu(args.nu, field))
    return conn, field


def cmd_slope(args):
    conn, _ = _load_connection(args.file, args)
    print(str(slope(conn)))
    return 0


def cmd_analyze(args):
    conn, field = _load_connection(args.file, args)
    gauge, cur, strat = fundamental_stratum(conn)
    phi = stratum_char_poly(strat)
    std = conn.standardized()
    naive = filtration_degree(std.matrix, standard_chain((conn.n,)), stop_at=1)
    naive_r = 0 if naive is INF else max(0, -naive)
    report = {
        "slope": str(strat.slope),
        "r": strat.r,
        "e": strat.ctx.period,
        "blocks": list(strat.ctx.chain.blocks),
        "phi": phi.format(),
        "fundamental": True,
        "reduction": {
            "naive_depth": naive_r,
            "naive_slope_bound": str(Fraction(naive_r)),
            "gauge_is_identity": gauge.agrees(LaurentMatrix.identity(conn.n)),
        },
    }
    try:
        reg = is_regular(strat, field)
        report["regular"] = bool(reg)
        if reg:
            report["torus"] = {"e": reg.e, "m": reg.m}
            report["pure"] = reg.m == 1
            report["leading"] = [format_scalar(a) for a in reg.leading]
        else:
            report["regular_failure"] = reg.reason
    except NonsplitField as exc:
        report["regular"] = None
        report["regular_failure"] = str(exc)
    _emit(report)
    return 0


def cmd_diagonalize(args):
    conn, _ = _load_connection(args.file, args)
    res = diagonalize(conn, digits=args.digits)
    ok, diags = validate_formal_type(res.formal_type)
    _emit({
        "gauge": res.gauge.to_json(),
        "formal_type": res.formal_type.to_json(),
        "A_rep": res.A_rep.to_json(),
        "valid": ok,
        "diagnostics": diags,
    })
    return 0


def cmd_isomorphic(args):
    conn_a, _ = _load_connection(args.fileA, args)
    conn_b, _ = _load_connection(args.fileB, args)
    sa, sb = slope(conn_a), slope(conn_b)
    if sa != sb:
        _emit({"isomorphic": False, "reason": "slopes differ: %s vs %s" % (sa, sb)})
        return 0
    ra = diagonalize(conn_a, digits=args.digits)
    rb = diagonalize(conn_b, digits=args.digits)
    w = orbit_equivalent(ra.formal_type, rb.formal_type)
    if w is None:
        _emit({"isomorphic": False, "reason": "formal types in different orbits"})
    else:
        _emit({"isomorphic": True, "witness": w.to_json()})
    return 0


def cmd_moduli(args):
    data = _load_json(args.file)
    field = get_field(args.field) if args.field else get_field(data.get("field", "Q"))
    cfg = GlobalConfig.from_json(data, field)
    assembled = assemble_global(cfg)
    mm = moment_map(cfg)
    report = {
        "global_matrix": assembled.to_json(),
        "moment_map": [[format_scalar(c) for c in row] for row in mm],
        "points": [],
    }
    for pp, ft, fr in cfg.entries:
        item = {"point": str(pp.point)}
        if ft is not None:
            if ft.depth >= 1:
                item["dimensions"] = orbit_dimensions(ft, ft.depth + 1)
            else:
                item["dimensions"] = regular_singular_orbit_dimensions(ft)
            if fr is not None:
                local = assembled.local_expansion(pp.point, ft.depth + args.digits)
                conn = FormalConnection.from_dt_matrix(local, OneForm.dt())
                item["framing_ok"] = check_framing(fr, conn, ft)
        report["points"].append(item)
    _emit(report)
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", help="ground field: Q, Q(i), Q(zeta_m)")
    common.add_argument("--prec", type=int,
                        help="default precision window (t-adic digits)")
    common.add_argument("--nu", help="one-form (dt, dt/t, dt/t^k); default from file")
    common.add_argument("--digits", type=int, default=8,
                        help="output digits for diagonalization (>= 0)")
    ap = argparse.ArgumentParser(
        prog="formalconn",
        description="Exact analysis of formal meromorphic connections")
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("slope", parents=[common],
                       help="Katz slope of a connection file")
    p.add_argument("file")
    p.set_defaults(func=cmd_slope)
    p = sub.add_parser("analyze", parents=[common],
                       help="fundamental stratum / regularity report")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)
    p = sub.add_parser("diagonalize", parents=[common],
                       help="formal type of a connection file")
    p.add_argument("file")
    p.set_defaults(func=cmd_diagonalize)
    p = sub.add_parser("isomorphic", parents=[common],
                       help="formal isomorphism of two connections")
    p.add_argument("fileA")
    p.add_argument("fileB")
    p.set_defaults(func=cmd_isomorphic)
    p = sub.add_parser("moduli", parents=[common],
                       help="assemble a global configuration")
    p.add_argument("file")
    p.set_defaults(func=cmd_moduli)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.prec:
        try:
            set_default_precision(args.prec)
        except PrecisionError as exc:
            print("error[%s]: %s" % (exc.code, exc), file=sys.stderr)
            return EXIT_PRECISION
    try:
        if args.digits < 0:
            raise ParseError("--digits must be >= 0, got %d" % args.digits)
        return args.func(args)
    except PrecisionError as exc:
        payload = {"error": exc.code, "message": str(exc)}
        if exc.short_by is not None:
            payload["suggested_precision"] = default_precision() + exc.short_by
        elif exc.needed is not None:
            payload["suggested_precision"] = exc.needed
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return EXIT_PRECISION
    except (ResidueNonzero, DuplicatePoints, NotSplit) as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return EXIT_CONSTRAINT
    except (NotRegular, NonsplitField, UnsupportedDepth, IrreducibleStratum) as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ParseError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return EXIT_PARSE
    except FormalConnError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
