"""Benchmark of ncx2diff: one workload per run, in one process on one thread.

    python3 perfbench/run.py --workload density_series --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src. The last
line of standard output is one JSON object: whether every output passed its
check, the operations attempted and failed, and the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1). Times of the program's
calls are CPU seconds of this process (see workloads.Round); spans of a traced
run are wall time. Raw per-run figures and the span trace go to
perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import inputs
import workloads
from tracing import SpanTable, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
SETUP_SLICES = 3  # calibration slices before and after each set-up child
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 60

SETUP_CHILD = """
import sys, time
t0, w0 = time.process_time(), time.perf_counter()
sys.path.insert(0, {src!r})
import ncx2diff
{extra}
print(time.process_time() - t0, time.perf_counter() - w0)
"""
STEIN_SETUP = "from ncx2diff import stein\nstein.builtin_test_functions()"


def _child(code: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)


def measure_setup(workload: str) -> tuple:
    """Medians over fresh interpreters of `import ncx2diff` plus the
    workload's one-time set-up: its CPU seconds scaled to the reference host
    speed by calibration points run just before and just after each child,
    its CPU seconds and its wall seconds."""
    extra = STEIN_SETUP if workload == "stein_sampling" else ""
    code = SETUP_CHILD.format(src=str(SRC), extra=extra)
    def slices():
        return [calibrate.measure()["whole"] for _ in range(SETUP_SLICES)]

    runs = []
    calibrate.warm_up()
    before = slices()
    for _ in range(SETUP_REPEATS):
        cpu, wall = map(float, _child(code).stdout.split()[-2:])
        after = slices()
        runs.append((calibrate.to_reference(cpu, "whole", statistics.mean(before + after)),
                     cpu, wall))
        before = after
    return tuple(statistics.median(run[i] for run in runs) for i in range(3))


def _outermost_cumulative(lines: list, match) -> float:
    """Seconds spent importing the modules whose name satisfies match,
    counting each import tree once at its outermost such module
    (-X importtime lists a module after its children, one indent deeper per
    level)."""
    total, stack = 0.0, []  # stack of (depth, inside a matching module)
    for line in reversed(lines):
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        hit = match(name)
        if hit and not inside:
            total += int(cumulative) / 1e6
        stack.append((depth, inside or hit))
    return total


def _package(prefix: str):
    return lambda name: name == prefix or name.startswith(prefix + ".")


def measure_import_layers() -> dict:
    """Import times by package from `python -X importtime`, one fresh run."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
            "import ncx2diff, ncx2diff.cli")
    err = _child(code, "-X", "importtime").stderr
    lines = [ln[len("import time:"):] for ln in err.splitlines()
             if ln.startswith("import time:") and "cumulative" not in ln]
    return {"setup.import_s": _outermost_cumulative(lines, "ncx2diff".__eq__),
            "setup.import_scipy_s": _outermost_cumulative(lines, _package("scipy")),
            "setup.import_sympy_s": _outermost_cumulative(lines, _package("sympy")),
            "cli.import_s": _outermost_cumulative(lines, "ncx2diff.cli".__eq__)}


def import_program():
    if not (SRC / "ncx2diff" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'ncx2diff'}; run from "
                 "the root of a checkout")
    sys.path.insert(0, str(SRC))
    import ncx2diff
    if Path(ncx2diff.__file__).resolve().parent != SRC / "ncx2diff":
        sys.exit(f"error: imported ncx2diff from {ncx2diff.__file__}, not {SRC}")
    return ncx2diff


def install_tracing(tracer):
    from ncx2diff import density, moments, probability, sampling, stein

    def terms(res):
        return res.terms_used

    tracer.wrap(density, "log_tricomi_u", "specfun.log_tricomi_u")
    tracer.wrap(density, "ncx2diff_pdf", "density.ncx2diff_pdf")
    tracer.wrap(stein, "ncx2diff_pdf", "density.ncx2diff_pdf")
    tracer.wrap(density, "cf_inversion_pdf", "density.cf_inversion_pdf")
    tracer.count(density, "char_fn_sum", "density.char_fn_sum")
    tracer.wrap(probability, "prob_nonpositive_sum",
                "probability.prob_nonpositive_sum", value=terms)
    tracer.wrap(probability, "prob_nonpositive_diff",
                "probability.prob_nonpositive_diff", value=terms)
    tracer.wrap(probability, "table1", "probability.table1")
    tracer.wrap(moments, "diff_moment_set", "moments.diff_moment_set")
    tracer.wrap(moments, "sum_moment_set", "moments.sum_moment_set")
    tracer.wrap(moments, "log_kummer_m", "specfun.log_kummer_m")
    for fn in workloads.SAMPLERS:
        tracer.wrap(sampling, fn, f"sampling.{fn}", value=len)
    tracer.wrap(stein, "sample_diff", "sampling.sample_diff", value=len)
    tracer.wrap(stein, "stein_report", "stein.stein_report")
    tracer.wrap(stein, "stein_expectation", "stein.stein_expectation")


def layer_metrics(t, rounds: int) -> dict:
    """Per-layer figures from a span table, totals per traced round."""

    def tot(mask):
        return float(t.dur[mask].sum())

    def q_ms(mask, q):
        return float(np.quantile(t.dur[mask], q)) * 1e3 if mask.any() else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    u = t.mask("specfun.log_tricomi_u")
    pdf = t.mask("density.ncx2diff_pdf")
    cfi = t.mask("density.cf_inversion_pdf")
    m["specfun.log_tricomi_u.calls"] = int(u.sum()) / rounds
    m["specfun.log_tricomi_u.s"] = tot(u) / rounds
    m["specfun.log_tricomi_u.us_per_call"] = ratio(tot(u), u.sum()) * 1e6
    k = t.mask("specfun.log_kummer_m")
    m["specfun.log_kummer_m.calls"] = int(k.sum()) / rounds
    m["specfun.log_kummer_m.s"] = tot(k) / rounds
    m["density.ncx2diff_pdf.calls"] = int(pdf.sum()) / rounds
    m["density.ncx2diff_pdf.s"] = tot(pdf) / rounds
    m["density.ncx2diff_pdf.self_s"] = float(t.self_time[pdf].sum()) / rounds
    m["density.ncx2diff_pdf.p50_ms"] = q_ms(pdf, 0.5)
    m["density.ncx2diff_pdf.p95_ms"] = q_ms(pdf, 0.95)
    m["density.u_calls_per_point"] = ratio(int((u & t.under("density.ncx2diff_pdf")).sum()),
                                           int(pdf.sum()))
    m["density.cf_inversion_pdf.calls"] = int(cfi.sum()) / rounds
    m["density.cf_inversion_pdf.s"] = tot(cfi) / rounds
    m["density.cf_inversion_pdf.p50_ms"] = q_ms(cfi, 0.5)
    m["density.char_fn_sum.calls_per_point"] = ratio(
        t.counts.get("density.char_fn_sum", 0), int(cfi.sum()))
    ps = t.mask("probability.prob_nonpositive_sum")
    pd = t.mask("probability.prob_nonpositive_diff")
    ok = t.value >= 0
    m["probability.prob_nonpositive_sum.calls"] = int(ps.sum()) / rounds
    m["probability.prob_nonpositive_sum.failed"] = int((ps & ~ok).sum()) / rounds
    m["probability.prob_nonpositive_sum.s"] = tot(ps) / rounds
    # latency of the workload's own evaluations, not of table1's 56 cells
    direct = ps & ok & t.under("bench.prob_sum")
    m["probability.prob_nonpositive_sum.p50_ms"] = q_ms(direct, 0.5)
    m["probability.prob_nonpositive_sum.p95_ms"] = q_ms(direct, 0.95)
    m["probability.prob_nonpositive_diff.calls"] = int(pd.sum()) / rounds
    m["probability.prob_nonpositive_diff.s"] = tot(pd) / rounds
    prob_ok = (ps | pd) & ok
    terms = float(t.value[prob_ok].sum())
    m["probability.terms_used"] = terms / rounds
    m["probability.ns_per_term"] = ratio(tot(prob_ok), terms) * 1e9
    m["probability.table1.s"] = tot(t.mask("probability.table1")) / rounds
    m["moments.diff_moment_set.s"] = tot(t.mask("moments.diff_moment_set")) / rounds
    m["moments.sum_moment_set.s"] = tot(t.mask("moments.sum_moment_set")) / rounds
    draws, sampler_s = 0.0, 0.0
    for fn in workloads.SAMPLERS:
        s = t.mask(f"sampling.{fn}")
        m[f"sampling.{fn}.s"] = tot(s) / rounds
        draws += float(t.value[s & ok].sum())
        sampler_s += tot(s)
    m["sampling.draws"] = draws / rounds
    m["sampling.draws_per_s"] = ratio(draws, sampler_s)
    rep = t.mask("stein.stein_report")
    rep_sample = tot(t.mask("sampling.sample_diff") & t.under("stein.stein_report"))
    m["stein.stein_report.s"] = tot(rep) / rounds
    m["stein.stein_report.sample_s"] = rep_sample / rounds
    m["stein.stein_report.operator_s"] = (tot(rep) - rep_sample) / rounds
    quad = t.under("bench.stein_quadrature")
    m["stein.quadrature.s"] = tot(t.mask("bench.stein_quadrature")) / rounds
    m["stein.quadrature.pdf_calls"] = int((pdf & quad).sum()) / rounds
    m["stein.quadrature.pdf_s"] = tot(pdf & quad) / rounds
    return m


def family_figures(ops: list) -> dict:
    """Count, program time, rate and latency quantiles per operation family."""
    out = {}
    for fam in sorted({f for f, _, _ in ops}):
        s = np.array([sec for f, sec, failed in ops if f == fam and not failed])
        out[fam] = {"ops": int(len(s)),
                    "failed": sum(1 for f, _, failed in ops if f == fam and failed)}
        if len(s):
            out[fam].update(seconds=float(s.sum()), per_s=len(s) / float(s.sum()),
                            p50_ms=float(np.median(s)) * 1e3,
                            p95_ms=float(np.quantile(s, 0.95)) * 1e3)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nx = import_program()
    make_round = inputs.ROUNDS[args.workload]
    run_round, check_round = workloads.RUNS[args.workload]
    traced = bool(args.trace)

    tracer = Tracer() if traced else None
    if traced:
        layers = measure_import_layers()
    else:
        setup_s, setup_cpu_s, setup_wall_s = measure_setup(args.workload)
    extra = ()
    if args.workload == "stein_sampling":
        from ncx2diff import stein
        funcs = (tracer.span("stein.builtin_test_functions",
                             stein.builtin_test_functions) if traced
                 else stein.builtin_test_functions())
        extra = (funcs,)

    rounds, cpus, walls = [], {True: [], False: []}, []
    if traced:
        # one untimed, untraced round on round 0's inputs first, so that the
        # first traced pass does not alone pay the first-round costs (scipy's
        # lazy set-up, the Laguerre-node cache)
        warm = workloads.Round()
        inp = make_round(args.seed, 0)
        run_round(nx, inp, warm, *extra)
        rounds.append((inp, warm))
    t_start = time.perf_counter()
    k = 0
    # a traced run ends on a whole untraced/traced pair
    while (k < MIN_ROUNDS or (traced and k % 2)
           or time.perf_counter() - t_start < args.seconds):
        inp = make_round(args.seed, k // 2 if traced else k)
        # traced runs alternate an untraced and a traced pass over the same
        # inputs, traced first on every other pair; the ratio of their wall
        # times is the tracing overhead
        on = traced and (k % 2 == (k // 2) % 2)
        rnd = workloads.Round(tracer if on else None, calibrated=not traced)
        if on:
            install_tracing(tracer)
        t0, w0 = time.process_time(), time.perf_counter()
        try:
            run_round(nx, inp, rnd, *extra)
        finally:
            if on:
                tracer.uninstall()
        cpus[on].append(time.process_time() - t0)
        walls.append(time.perf_counter() - w0)
        rounds.append((inp, rnd))
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    for inp, rnd in rounds:
        problems += check_round(inp, rnd.out)
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)

    errors = {}
    for _, rnd in rounds:
        for fam, msg in rnd.errors.items():
            errors.setdefault(fam, msg)
    for fam, msg in errors.items():
        print(f"{fam} failed: {msg}", file=sys.stderr)

    ops = [op for _, rnd in rounds for op in rnd.ops]
    attempted = len(ops)
    failed = sum(1 for op in ops if op[2])
    families = family_figures(ops)
    if traced:
        table = SpanTable(tracer)
        metrics = dict(layers)
        metrics["stein.builtin_test_functions.s"] = float(
            table.dur[table.mask("stein.builtin_test_functions")].sum())
        metrics.update(layer_metrics(table, len(cpus[True])))
        metrics["trace.overhead"] = sum(cpus[True]) / sum(cpus[False]) - 1.0
    else:
        metrics = {"round_ref_s": statistics.median(rnd.reference_seconds
                                                    for _, rnd in rounds),
                   "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "rounds": len(rounds), "round_cpu_seconds": [rnd.seconds for _, rnd in rounds],
           "round_wall_seconds": walls,
           "round_slice_seconds": [rnd.slices for _, rnd in rounds],
           "setup_cpu_s": None if traced else setup_cpu_s,
           "setup_wall_s": None if traced else setup_wall_s,
           "families": families, "errors": errors, "metrics": metrics,
           "problems": problems}
    (OUT / f"{stem}.json").write_text(json.dumps(raw, indent=1) + "\n")
    if traced:
        tracer.save(OUT / f"{stem}.spans.npz")
    for fam, fig in families.items():
        print(f"{fam}: {fig}", file=sys.stderr)
    print(f"rounds: {len(rounds)}; median a round: program CPU "
          f"{statistics.median(rnd.seconds for _, rnd in rounds):.4f} s, wall "
          f"{statistics.median(walls):.4f} s", file=sys.stderr)

    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
