"""Command-line front end: verification suites and table reproduction.

Subcommands:
  verify <suite>          run a named check suite, one line per check;
                          with --profile PATH, write its cProfile stats
  klein --group <name>    show a polyhedral group's invariants and checks
  cycles --map klein      superattracting-cycle report for the Klein map
  qseries --name <series> print q-expansion coefficients
  j-relation --n <level>  residual of j = k_n f_n(j_n)^3 / v_n(j_n)^n
  nc s-poly --n <k>       print S_k in canonical form
  report --out <path>     write a JSON report for a suite (also --profile)

The group-config directory comes from --config-dir, else the
EQUIOPS_CONFIG_DIR environment variable, else the packaged configs.
"""

import argparse
import cProfile
import sys
from fractions import Fraction
from functools import partial

from .properties import GROUP_NAMES, SUITES, klein_cycles, phi_images
from .report import emit_report, load_config, run_suite


def _add_config_dir(parser):
    parser.add_argument("--config-dir", default=None,
                        help="directory with <group>.config files")


def _add_suite_options(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--order", type=int, default=10,
                        help="q-series order for the qseries suite")
    parser.add_argument("--count", type=int, help="number of random samples per randomized check")
    parser.add_argument("--profile", metavar="PATH", help="write cProfile stats to PATH")
    _add_config_dir(parser)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="equiops",
        description="Equivariant functions and rational differential "
                    "operators: verification suites and table reproduction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    _add_suite_options(p)

    p = sub.add_parser("klein", help="polyhedral group summary and checks")
    p.add_argument("--group", required=True, choices=GROUP_NAMES)
    _add_config_dir(p)

    p = sub.add_parser("cycles", help="cycle report for an equivariant map")
    p.add_argument("--map", dest="map_name", default="klein",
                   choices=("klein", "newton", "halley"))
    p.add_argument("--tol", type=float, default=1e-9)
    _add_config_dir(p)

    p = sub.add_parser("qseries", help="print q-expansion coefficients")
    p.add_argument("--name", required=True,
                   choices=("eta", "E2", "E4", "E6", "delta", "j",
                            "j2", "j3", "j4", "j5"))
    p.add_argument("--terms", type=int, default=10)

    p = sub.add_parser("j-relation", help="verify a j = r_n(j_n) relation")
    p.add_argument("--n", type=int, required=True, choices=(2, 3, 4, 5))
    p.add_argument("--order", type=int, default=10)

    p = sub.add_parser("nc", help="non-commutative algebra utilities")
    ncsub = p.add_subparsers(dest="nc_command", required=True)
    sp = ncsub.add_parser("s-poly", help="print S_n in canonical form")
    sp.add_argument("--n", type=int, required=True)

    p = sub.add_parser("report", help="write a JSON verification report")
    p.add_argument("--out", required=True)
    p.add_argument("--suite", default="all", choices=SUITES)
    _add_suite_options(p)

    return parser


def _print_report(report, out=None):
    out = out if out is not None else sys.stdout
    for check in report.checks:
        out.write("%-40s %s  %s\n" % (
            check.check_id, "pass" if check.status else "FAIL", check.detail))
    out.write("suite %s: %s (%d checks, config %s, seed %d)\n" % (
        report.suite, "pass" if report.passed else "FAIL",
        len(report.checks), report.confighash[:12], report.seed))
    return 0 if report.passed else 1


def _run_suite(args):
    """run_suite for verify and report, under cProfile with --profile."""
    run = partial(run_suite, args.suite, seed=args.seed, order=args.order,
                  count=args.count, cfg_dir=args.config_dir)
    if args.profile is None:
        return run()
    profile = cProfile.Profile()
    report = profile.runcall(run)
    profile.dump_stats(args.profile)
    return report


def _cmd_verify(args):
    return _print_report(_run_suite(args))


def _cmd_klein(args):
    from .parsing import poly_literal, ratfn_literal

    cfg = load_config(args.group, args.config_dir)
    print("group %s: %d generators, %d invariant forms" % (
        cfg.name, len(cfg.generators), len(cfg.forms)))
    failures = 0
    for form, op, (ok, _) in phi_images(cfg):
        if not ok:
            failures += 1
        print("  %s (weight %d): %s" % (form.name, form.weight,
                                        poly_literal(form.poly)))
        print("    phi = %s" % ratfn_literal(op))
        print("    equivariant on all generators: %s" % ok)
    return 0 if failures == 0 else 1


def _cmd_cycles(args):
    from .dynamics import cycle_report, iteration_map
    from .parsing import parse_poly

    if args.map_name == "klein":
        report = klein_cycles(load_config("A5", args.config_dir), args.tol)
    else:
        rmap = iteration_map(parse_poly("z^2 - 1"), args.map_name)
        report = cycle_report(rmap, [1 + 0j, -1 + 0j], 1, tol=args.tol)
    print(report.text())
    return 0 if report.passed else 1


def _cmd_qseries(args):
    from . import qseries as qs
    terms = args.terms
    if args.name == "eta":
        series = qs.eta(terms)
    elif args.name in ("E2", "E4", "E6"):
        series = qs.eisenstein(int(args.name[1]), terms)
    elif args.name == "delta":
        series = qs.delta_series(terms)
    elif args.name == "j":
        series = qs.j_series(terms)
    else:
        series = qs.hauptmodul(int(args.name[1]), Fraction(terms))
    for line in series.export_lines():
        print(line)
    return 0


def _cmd_j_relation(args):
    from . import qseries as qs
    residual = qs.verify_j_relation(args.n, args.order)
    if residual.is_zero:
        print("j-relation level %d: exact to order %d" % (args.n, args.order))
        return 0
    print("j-relation level %d: NONZERO residual" % args.n)
    for line in residual.export_lines():
        print(line)
    return 1


def _cmd_nc(args):
    from .ncalg import s_poly
    if args.nc_command == "s-poly":
        poly = s_poly(args.n)
        print("S%d = %s" % (args.n, poly.canonical_text()))
        return 0
    raise AssertionError(args.nc_command)


def _cmd_report(args):
    report = _run_suite(args)
    emit_report(report, args.out)
    print("wrote %s (%s, config %s)" % (
        args.out, "pass" if report.passed else "FAIL",
        report.confighash[:12]))
    return 0 if report.passed else 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {"verify": _cmd_verify, "klein": _cmd_klein,
                "cycles": _cmd_cycles, "qseries": _cmd_qseries,
                "j-relation": _cmd_j_relation, "nc": _cmd_nc,
                "report": _cmd_report}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
