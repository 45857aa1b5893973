"""Command-line front end: density/CF evaluation, moments, negativity
probabilities, sampling, the published probability table, the Stein harness,
and the deterministic self-test.

Exit codes: 0 success, 1 self-test failure, 2 flag errors (argparse) and
values outside an evaluator's domain (DomainError, UnsupportedParameterError),
3 numerical non-convergence; its message names a --max-terms that suffices
where the evaluator knows one.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import density, moments, probability, sampling, stein
from .errors import (DomainError, InversionAccuracyError, NonConvergenceError,
                     SingularPointError, UnsupportedParameterError)
from .params import ChiSqDiffParams, ProductNormalParams, to_chisq_diff
from .selftest import report_to_json, run_selftest
from .specfun import SeriesControl

_FMT = ".17g"


def _grid(spec: str) -> np.ndarray:
    try:
        lo, hi, steps = spec.split(":")
        return np.linspace(float(lo), float(hi), int(steps))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must be lo:hi:steps, got {spec!r}") from exc


def _add_param_flags(sub):
    mode = sub.add_mutually_exclusive_group(required=True)
    mode.add_argument("--product", action="store_true",
                      help="product-normal sum parameterisation")
    mode.add_argument("--diff", action="store_true",
                      help="chi-square difference parameterisation")
    sub.add_argument("--mu-x", type=float)
    sub.add_argument("--mu-y", type=float)
    sub.add_argument("--sigma-x", type=float, default=1.0)
    sub.add_argument("--sigma-y", type=float, default=1.0)
    sub.add_argument("--rho", type=float, default=0.0)
    sub.add_argument("--n", type=int, default=1)
    sub.add_argument("--r", type=float)
    sub.add_argument("--lambda1", type=float, default=0.0)
    sub.add_argument("--lambda2", type=float, default=0.0)


def _params(args, parser):
    if args.product:
        if args.mu_x is None or args.mu_y is None:
            parser.error("--product requires --mu-x and --mu-y")
        return ProductNormalParams(args.mu_x, args.mu_y, args.sigma_x,
                                   args.sigma_y, args.rho, args.n)
    if args.r is None:
        parser.error("--diff requires --r")
    return ChiSqDiffParams(args.r, args.lambda1, args.lambda2)


def _ctrl(args) -> SeriesControl:
    return SeriesControl(abs_tol=args.abs_tol, max_terms=args.max_terms)


def _emit_rows(rows, header, args):
    """Rows of scalars as CSV (fixed 17-significant-digit formatting) or JSON."""
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        if args.format == "csv":
            w = csv.writer(out)
            w.writerow(header)
            for row in rows:
                w.writerow([v if isinstance(v, str) else format(v, _FMT)
                            for v in row])
        else:
            json.dump([dict(zip(header, row)) for row in rows], out, indent=2)
            out.write("\n")
    finally:
        if args.out:
            out.close()


def _emit_obj(obj, args):
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        json.dump(obj, out, indent=2, sort_keys=True)
        out.write("\n")
    finally:
        if args.out:
            out.close()


def _cmd_pdf(args, parser):
    p = _params(args, parser)
    ctrl = _ctrl(args)
    rows = []
    for x in _grid(args.grid):
        try:
            rows.append((float(x), density.ncx2diff_pdf(float(x), p, ctrl), ""))
        except SingularPointError:
            rows.append((float(x), "", "singular"))
    _emit_rows(rows, ["x", "pdf", "flag"], args)


def _cmd_cf(args, parser):
    p = _params(args, parser)
    rows = [(float(t), (v := density.char_fn_sum(float(t), p)).real, v.imag)
            for t in _grid(args.grid)]
    _emit_rows(rows, ["t", "re", "im"], args)


def _cmd_moments(args, parser, cumulants_only=False):
    p = _params(args, parser)
    if args.order < 4 or args.order > 20:
        parser.error("--order must be in 4..20")
    ms = moments.sum_moment_set(p, args.order)
    if cumulants_only:
        _emit_obj({"cumulants": list(ms.cumulants)}, args)
    else:
        _emit_obj(ms.to_dict(), args)


def _cmd_prob_neg(args, parser):
    res = probability.prob_nonpositive_sum(_params(args, parser), _ctrl(args))
    _emit_obj(res.to_dict(), args)


def _cmd_sample(args, parser):
    p = _params(args, parser)
    if args.out is None:
        parser.error("sample requires --out (CSV path; JSON sidecar added)")
    if args.route == "definitional":
        if args.diff:
            parser.error("--route definitional needs --product")
        batch = sampling.sample_product_definitional(p, args.count, args.seed)
    else:
        batch = sampling.sample_sum_via_representation(p, args.count, args.seed)
    sampling.export_batch(batch, args.out)


def _cmd_table1(args, parser):
    ctrl = _ctrl(args)
    rows = probability.table1(ctrl)
    summary = probability.table1_summary(rows)
    if args.format == "json":
        _emit_obj({"rows": rows, "summary": summary}, args)
        return
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(["mu_x", "mu_y", "rho", "probability", "paper_value",
                    "abs_diff"])
        for r in rows:
            w.writerow([format(r["mu_x"], "g"), format(r["mu_y"], "g"),
                        format(r["rho"], "g"),
                        format(r["probability"], _FMT),
                        format(r["paper_value"], ".4f"),
                        format(r["abs_diff"], _FMT)])
    finally:
        if args.out:
            out.close()
    sink = open(args.out + ".summary.json", "w") if args.out else sys.stderr
    try:
        json.dump(summary, sink, indent=2, sort_keys=True)
        sink.write("\n")
    finally:
        if args.out:
            sink.close()


def _cmd_stein_check(args, parser):
    rep = to_chisq_diff(_params(args, parser))
    if rep.scale_plus != rep.scale_minus:
        parser.error("stein-check needs the --diff parameterisation "
                     "(equal chi-square scales)")
    q = ChiSqDiffParams(rep.r, rep.lambda_plus, rep.lambda_minus)
    rows = stein.stein_report(q, operator=args.operator, method=args.method,
                              count=args.count, seed=args.seed)
    _emit_obj(rows, args)


def _cmd_selftest(args, parser):
    report = run_selftest(seed=args.seed, fast=not args.full)
    text = report_to_json(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for c in report["criteria"]:
        status = "PASS" if c["pass"] else "FAIL"
        print(f"criterion {c['id']}: {status} - {c['name']}", file=sys.stderr)
    return 0 if report["all_pass"] else 1


def _common_flags(parser, suppress=False):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--abs-tol", type=float,
                        default=argparse.SUPPRESS if suppress else 1e-12,
                        help="series tolerance (default: 1e-12)")
    parser.add_argument("--max-terms", type=int,
                        default=argparse.SUPPRESS if suppress else 10000)
    parser.add_argument("--format", choices=["csv", "json"],
                        default=argparse.SUPPRESS if suppress else "json")
    parser.add_argument("--out", default=d,
                        help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncx2diff",
        description="Noncentral chi-square difference distribution and sums "
                    "of products of correlated normals")
    _common_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _common_flags(common, suppress=True)
    subs = parser.add_subparsers(dest="verb", required=True)

    sp = subs.add_parser("pdf", parents=[common], help="density on a grid")
    _add_param_flags(sp)
    sp.add_argument("--grid", required=True, help="lo:hi:steps")

    sp = subs.add_parser("cf", parents=[common], help="characteristic function on a t-grid")
    _add_param_flags(sp)
    sp.add_argument("--grid", required=True, help="lo:hi:steps")

    for verb in ("moments", "cumulants"):
        sp = subs.add_parser(verb, parents=[common], help=f"{verb} up to --order")
        _add_param_flags(sp)
        sp.add_argument("--order", type=int, default=4)

    sp = subs.add_parser("prob-neg", parents=[common], help="P(S_n <= 0) or P(T <= 0)")
    _add_param_flags(sp)

    sp = subs.add_parser("sample", parents=[common], help="reproducible sample batch")
    _add_param_flags(sp)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--route", choices=["definitional", "representation"],
                    default="representation")

    subs.add_parser("table1", parents=[common],
                    help="published negativity-probability grid with diff")

    sp = subs.add_parser("stein-check", parents=[common], help="Stein operator harness")
    _add_param_flags(sp)
    sp.add_argument("--operator", choices=["a1", "a2", "a3"], default="a1")
    sp.add_argument("--method", choices=["monte_carlo", "quadrature"],
                    default="monte_carlo")
    sp.add_argument("--count", type=int, default=10 ** 6)
    sp.add_argument("--seed", type=int, required=True)

    sp = subs.add_parser("selftest", parents=[common], help="acceptance-criteria battery")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--full", action="store_true",
                    help="full-strength Monte Carlo counts (slow)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # join "--grid -1:1:3" so grids starting with a minus sign parse
    joined, i = [], 0
    while i < len(argv):
        if argv[i] == "--grid" and i + 1 < len(argv):
            joined.append(f"--grid={argv[i + 1]}")
            i += 2
        else:
            joined.append(argv[i])
            i += 1
    args = parser.parse_args(joined)
    try:
        if args.verb == "pdf":
            _cmd_pdf(args, parser)
        elif args.verb == "cf":
            _cmd_cf(args, parser)
        elif args.verb == "moments":
            _cmd_moments(args, parser)
        elif args.verb == "cumulants":
            _cmd_moments(args, parser, cumulants_only=True)
        elif args.verb == "prob-neg":
            _cmd_prob_neg(args, parser)
        elif args.verb == "sample":
            _cmd_sample(args, parser)
        elif args.verb == "table1":
            _cmd_table1(args, parser)
        elif args.verb == "stein-check":
            _cmd_stein_check(args, parser)
        elif args.verb == "selftest":
            return _cmd_selftest(args, parser)
    except (argparse.ArgumentTypeError, DomainError,
            UnsupportedParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, InversionAccuracyError) as exc:
        hint = getattr(exc, "max_terms", None)
        hint = f"; --max-terms {hint} suffices" if hint else ""
        print(f"error: non-convergence: {exc}{hint}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
