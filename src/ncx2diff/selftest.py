"""The nine acceptance criteria, each implemented once, and the deterministic
self-test that runs them: one pass/fail verdict per criterion, emitted as a
machine-readable report that is byte-identical across runs at a fixed seed.

Every criterion checks the same grids against the same bounds at either
strength. `FAST` and `FULL` differ only in Monte Carlo counts and KS
repetitions; `ncx2diff selftest --full` runs at `FULL` strength, and the
acceptance test (tests/test_acceptance.py) calls these functions at `FULL`
strength with its own base seeds. A criterion with random draws takes a base
seed and derives the seed of each draw from it.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np
from scipy import special as sc

from . import density, moments, probability, sampling, stein
from .errors import NonConvergenceError
from .params import ChiSqDiffParams, ProductNormalParams
from .specfun import DEFAULT_CONTROL, log_bessel_k

__all__ = ["Strength", "FAST", "FULL", "run_selftest", "report_to_json",
           "finite_diff_cumulant", "criterion_table1", "criterion_prob_mc",
           "criterion_density", "criterion_normalisation", "criterion_moments",
           "criterion_ks", "criterion_stein", "criterion_singularity"]


class Strength(NamedTuple):
    """Monte Carlo counts and KS repetitions of one self-test strength."""

    mc: int          # draws per parameter set in criteria 2 and 5
    ks_reps: int     # KS comparisons per correlation in criterion 6
    ks_needed: int   # of which must pass
    stein: int       # draws per Stein null report and cross-method check
    power: int       # draws of the Stein power check


FAST = Strength(mc=10 ** 5, ks_reps=20, ks_needed=17, stein=2 * 10 ** 5,
                power=4 * 10 ** 6)
FULL = Strength(mc=10 ** 7, ks_reps=100, ks_needed=95, stein=10 ** 6,
                power=10 ** 7)


def finite_diff_cumulant(cf, k: int, h: float = 0.02) -> float:
    """kappa_k from the CF: k-th derivative of log cf at 0 over i^k, by
    Richardson-extrapolated central differences (orders 1..4)."""
    def f(t):
        return complex(np.log(cf(t)))

    def stencil(s):
        if k == 1:
            return (f(s) - f(-s)) / (2 * s)
        if k == 2:
            return (f(s) - 2 * f(0.0) + f(-s)) / s ** 2
        if k == 3:
            return (f(2 * s) - 2 * f(s) + 2 * f(-s) - f(-2 * s)) / (2 * s ** 3)
        if k == 4:
            return (f(2 * s) - 4 * f(s) + 6 * f(0.0) - 4 * f(-s) + f(-2 * s)) / s ** 4
        raise ValueError("k must be 1..4")

    d1, d2, d3 = stencil(h), stencil(h / 2), stencil(h / 4)
    r1 = (4 * d2 - d1) / 3
    r2 = (4 * d3 - d2) / 3
    val = (16 * r2 - r1) / 15
    return float((val / 1j ** k).real)


def _equal_lambda_pdf(x: float, r: float, lam: float) -> float:
    """Density of T at x != 0 when lambda1 = lambda2 = lam, by the single
    Bessel-K series

        e^{-lam} / (2^r sqrt(pi)) sum_k (lam/4)^k / (k! Gamma(r/2 + k))
            |x|^nu K_nu(|x|/2),  nu = (r - 1)/2 + k,

    an oracle independent of the Tricomi-U double series of ncx2diff_pdf. At
    lam = 0 it is the symmetric variance-gamma density. Past the peak of its
    terms, the series stops once three consecutive terms fall below 1e-12 of
    the running sum; before it, the running sum of a large lam is still far
    below the density."""
    ax = abs(x)
    log_pref = -r * math.log(2.0) - 0.5 * math.log(math.pi) - lam
    total = 0.0
    small_streak = 0
    prev = -math.inf
    for k in range(DEFAULT_CONTROL.max_terms):
        nu = (r - 1.0) / 2.0 + k
        lt = log_pref - sc.gammaln(k + 1.0) - sc.gammaln(r / 2.0 + k) \
            + nu * math.log(ax) + log_bessel_k(nu, ax / 2.0)
        if k > 0:
            lt += k * (math.log(lam) - 2.0 * math.log(2.0))
        term = math.exp(lt)
        total += term
        if lam == 0.0:
            return total
        past_peak, prev = lt < prev, lt
        if past_peak and term <= DEFAULT_CONTROL.abs_tol * max(total, DEFAULT_CONTROL.abs_tol):
            small_streak += 1
            if small_streak >= 3:
                return total
        else:
            small_streak = 0
    raise NonConvergenceError("equal-lambda Bessel-K series did not converge")


def _crit(cid, name, ok, detail):
    return {"id": cid, "name": name, "pass": bool(ok), "detail": detail}


def criterion_table1():
    rows = probability.table1()
    bad, slips = [], []
    for r in rows:
        if r["flagged"]:
            continue
        line = (f"({r['mu_x']:g},{r['mu_y']:g},rho={r['rho']:g}): printed "
                f"{r['paper_value']:.4f}, computed {r['probability']:.12f}")
        if ((r["mu_x"], r["mu_y"]), r["rho"]) in probability.TABLE1_PRINTED_SLIPS:
            slips.append(line)
        if not probability.table1_cell_ok(r):
            bad.append(line)
    flagged = [r for r in rows if r["flagged"]]
    flag_ok = (len(flagged) == 1
               and abs(flagged[0]["probability"] - 0.7699) <= 5e-5)
    detail = {"cells_out_of_bounds": bad,
              "one_flagged_cell_equals_0.7699": flag_ok,
              "flagged": [f"({r['mu_x']:g},{r['mu_y']:g},rho={r['rho']:g}) "
                          f"printed {r['paper_value']:.4f}, exact {r['probability']:.6f}"
                          for r in flagged],
              "printed_slips": slips}
    return _crit(1, "table1 reproduction within 5e-5 (one flagged cell = 0.7699, "
                 "printed slips exact within 1e-10)", not bad and flag_ok, detail)


def criterion_prob_mc(seed, count):
    grid = [ProductNormalParams(mx, my, sx, sy, rho, n)
            for (mx, my, sx, sy) in [(0, 0, 1, 1), (1, 1, 1, 1), (2, -1, 1, 2), (0.5, 0.3, 1.5, 0.8)]
            for (rho, n) in [(-0.75, 1), (0.0, 2), (0.75, 5)]]
    worst = 0.0
    for i, p in enumerate(grid):
        exact = probability.prob_nonpositive_sum(p).probability
        s = sampling.sample_product_definitional(p, count, seed + i).values
        mc = float((s <= 0).mean())
        se = math.sqrt(max(mc * (1 - mc), 1e-12) / count)
        worst = max(worst, abs(exact - mc) / se)
    return _crit(2, "negativity probability vs Monte Carlo (4 s.e.)",
                 worst <= 4.0, {"worst_se_ratio": round(worst, 3),
                                "parameter_sets": len(grid), "count": count})


def criterion_density():
    worst_cf = worst_eq = worst_vg = 0.0
    for r in [1.0, 2.0, 3.5]:
        for l1 in [0.0, 1.0, 4.0]:
            for l2 in [0.0, 1.0, 4.0]:
                q = ChiSqDiffParams(r, l1, l2)
                for x in [-3.0, -1.0, -0.25, 0.25, 1.0, 3.0]:
                    a = density.ncx2diff_pdf(x, q)
                    b = density.cf_inversion_pdf(
                        x, lambda t: density.char_fn_diff(t, q))
                    worst_cf = max(worst_cf, abs(a - b))
            for x in [-3.0, -0.25, 0.7, 3.0]:
                e3 = density.ncx2diff_pdf(x, ChiSqDiffParams(r, l1, l1))
                e4 = _equal_lambda_pdf(x, r, l1)
                worst_eq = max(worst_eq, abs(e3 - e4) / e4)
        if r > 1:
            # central case: the U-form series against the variance-gamma K form
            for x in [-2.0, 0.5, 4.0]:
                u5 = density.ncx2diff_pdf(x, ChiSqDiffParams(r, 0.0, 0.0))
                u6 = _equal_lambda_pdf(x, r, 0.0)
                worst_vg = max(worst_vg, abs(u5 - u6) / u6)
    ok = worst_cf <= 1e-6 and worst_eq <= 1e-9 and worst_vg <= 1e-10
    return _crit(3, "density vs CF inversion (1e-6) and the Bessel-K series "
                 "(1e-9 equal lambda, 1e-10 central)", ok,
                 {"worst_abs_vs_cf_inversion": float(worst_cf),
                  "worst_rel_equal_lambda": float(worst_eq),
                  "worst_rel_central_k_form": float(worst_vg)})


def criterion_normalisation():
    from scipy.integrate import quad
    worst = 0.0
    for r in [0.5, 1.0, 2.0, 3.5]:
        for (l1, l2) in [(0.0, 0.0), (1.0, 4.0), (4.0, 4.0)]:
            q = ChiSqDiffParams(r, l1, l2)
            total = (quad(lambda x: density.ncx2diff_pdf(x, q), -np.inf, 0, limit=200)[0]
                     + quad(lambda x: density.ncx2diff_pdf(x, q), 0, np.inf, limit=200)[0])
            worst = max(worst, abs(total - 1.0))
    return _crit(4, "density integrates to 1 within 1e-6 (incl. r <= 1)",
                 worst <= 1e-6, {"worst_abs_deviation": float(worst)})


def criterion_moments(seed, count):
    # dual route for the noncentral chi-square moments: Kummer-M closed form
    # vs raw moments rebuilt from the cumulants 2^{j-1}(j-1)!(r+j*lambda)
    worst_m = 0.0
    for (r, lam) in [(3.0, 1.2), (0.5, 4.0), (7.0, 0.0)]:
        mus = moments.raw_from_cumulants(
            [moments.ncx2_cumulant(j, r, lam) for j in range(1, 11)])
        for k in range(1, 11):
            worst_m = max(worst_m, abs(moments.ncx2_moment(k, r, lam) - mus[k - 1])
                          / mus[k - 1])
    # S_n: the exact trinomial expansion of the representation vs raw moments
    # rebuilt from the closed-form cumulants
    worst_s = 0.0
    for p in [ProductNormalParams(0.5, -0.3, 1.2, 0.8, 0.4, 3),
              ProductNormalParams(1.0, 1.0, 1.0, 2.0, -0.75, 2),
              ProductNormalParams(0.7, 0.2, 1.0, 1.0, 1.0, 2),
              ProductNormalParams(0.7, 0.2, 1.5, 0.5, -1.0, 1)]:
        mus = moments.raw_from_cumulants(
            [moments.sum_cumulant(j, p) for j in range(1, 5)])
        for k in range(1, 5):
            worst_s = max(worst_s, abs(moments.sum_moment(k, p) - mus[k - 1])
                          / max(abs(mus[k - 1]), 1e-12))
    q = ChiSqDiffParams(3.0, 1.2, 0.4)
    worst_cf = max(
        abs(finite_diff_cumulant(lambda t: density.char_fn_diff(t, q), k)
            - moments.diff_cumulant(k, q)) / abs(moments.diff_cumulant(k, q))
        for k in range(1, 5))
    s = sampling.sample_diff(q, count, seed).values
    se1 = s.std(ddof=1) / math.sqrt(count)
    c2 = (s - s.mean()) ** 2
    se2 = c2.std(ddof=1) / math.sqrt(count)
    emp_ok = bool(abs(s.mean() - moments.diff_cumulant(1, q)) <= 4 * se1
                  and abs(c2.mean() - moments.diff_cumulant(2, q)) <= 4 * se2)
    ok = (worst_m <= 1e-12 and worst_s <= 1e-10 and worst_cf <= 1e-5 and emp_ok)
    return _crit(5, "moments/cumulants: dual routes, CF derivatives, sampling",
                 ok, {"worst_rel_ncx2_dual_route": float(worst_m),
                      "worst_rel_cf_derivative": float(worst_cf),
                      "worst_rel_raw_vs_cumulant_route": float(worst_s),
                      "empirical_within_4se": emp_ok})


def criterion_ks(seed, reps, needed):
    results = {}
    ok = True
    for gi, rho in enumerate([-1.0, -0.75, 0.0, 0.75, 1.0]):
        p = ProductNormalParams(1.0, -1.0, rho=rho, n=2)
        passes = 0
        for rep in range(reps):
            a = sampling.sample_product_definitional(p, 20000, seed + 1000 * gi + 2 * rep)
            b = sampling.sample_sum_via_representation(p, 20000, seed + 1000 * gi + 2 * rep + 1)
            _, pv = sampling.ks_two_sample(a, b)
            passes += pv >= 0.01
        results[f"rho={rho:g}"] = f"{passes}/{reps}"
        ok = ok and passes >= needed
    return _crit(6, "definitional vs representation samplers (two-sample KS)",
                 ok, {"passes_needed": needed, "per_rho": results})


def criterion_stein(seed, count, power_count):
    funcs = stein.builtin_test_functions()
    null_sets = [("a1", ChiSqDiffParams(2.0, 1.0, 0.5)),
                 ("a1", ChiSqDiffParams(3.0, 0.0, 4.0)),
                 ("a1", ChiSqDiffParams(0.5, 1.0, 1.0)),
                 ("a1", ChiSqDiffParams(1.5, 2.0, 2.0)),
                 ("a2", ChiSqDiffParams(1.5, 2.0, 0.0)),
                 ("a3", ChiSqDiffParams(2.0, 0.0, 0.0))]
    null_ok = True
    for si, (op, q) in enumerate(null_sets):
        rows = stein.stein_report(q, op, funcs, count=count, seed=seed + si)
        null_ok = null_ok and all(r["pass"] for r in rows)
    base = ChiSqDiffParams(2.0, 1.0, 0.5)
    t = sampling.sample_diff(ChiSqDiffParams(2.0, 2.0, 0.5), power_count,
                             seed + 99).values
    best = 0.0
    for f in funcs:
        vals = stein.apply_a1(f, t, base)
        se = vals.std(ddof=1) / math.sqrt(power_count)
        best = max(best, abs(float(vals.mean())) / se)
    em, um = stein.stein_expectation("a1", funcs[7], base, count=count, seed=seed + 7)
    eq_, uq = stein.stein_expectation("a1", funcs[7], base, method="quadrature")
    agree = abs(em - eq_) <= 4 * um + uq
    ok = null_ok and best >= 6.0 and agree
    return _crit(7, "Stein null (4 s.e.) / power (6 s.e.) / cross-method", ok,
                 {"null_sets": len(null_sets),
                  "null_all_within_4se": null_ok,
                  "power_best_se_ratio": round(float(best), 2),
                  "mc_quadrature_gap": float(abs(em - eq_)),
                  "mc_quadrature_bound": float(4 * um + uq),
                  "mc_quadrature_agree": bool(agree)})


def criterion_singularity():
    detail = {}
    ok = True
    for (l1, l2) in [(0.0, 0.0), (1.0, 0.5), (2.0, 2.0)]:
        q = ChiSqDiffParams(1.0, l1, l2)
        const = density.singularity_constant(l1, l2)
        for x in (1e-5, -1e-5):
            # slope of p against -ln|x| over one decade: p(x)/(-ln x) itself
            # carries an O(1/ln x) correction that exceeds 10% at (2, 2)
            coef = (density.ncx2diff_pdf(x, q)
                    - density.ncx2diff_pdf(10 * x, q)) / math.log(10)
            dev = abs(coef / const - 1.0)
            detail[f"lambda=({l1:g},{l2:g}), x={x:g}"] = f"deviation {dev:.2e}"
            ok = ok and dev <= 0.10
    return _crit(8, "r=1 log-singularity coefficient within 10% at x=+-1e-5",
                 ok, detail)


def run_selftest(seed: int = 42, fast: bool = True) -> dict:
    """Run every acceptance criterion; returns the report dict.

    Criterion 9 (byte-identical determinism) is included by re-running the
    Monte-Carlo-bearing criterion 2 and comparing serialized output.
    """
    s = FAST if fast else FULL
    criteria = [
        criterion_table1(),
        criterion_prob_mc(seed, s.mc),
        criterion_density(),
        criterion_normalisation(),
        criterion_moments(seed, s.mc),
        criterion_ks(seed, s.ks_reps, s.ks_needed),
        criterion_stein(seed, s.stein, s.power),
        criterion_singularity(),
    ]
    probe = report_to_json({"criteria": [criterion_prob_mc(seed, 10 ** 4)]})
    again = report_to_json({"criteria": [criterion_prob_mc(seed, 10 ** 4)]})
    criteria.append(_crit(9, "deterministic byte-identical reports at fixed seed",
                          probe == again, {"rerun_identical": probe == again}))
    report = {"seed": seed, "fast": fast, "criteria": criteria,
              "all_pass": all(c["pass"] for c in criteria)}
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
