"""One round of each workload: the calls into the program, and the checks of
their outputs against the independent computations in reference.py.

Program functions are looked up through their modules at call time, so the
wrappers of a traced run see the benchmark's own calls.
"""

from __future__ import annotations

import math
import time

import calibrate
import reference as ref

# Agreement bounds. Each is well above what the program shows today and well
# below a 1e-6 relative error in a density (for the S_n density, wherever it
# exceeds 0.1) or a 1e-8 error in a probability.
DIFF_PDF_ABS = 1e-10      # measured <= 6.5e-12 over 12,288 points
PRODUCT_PDF_ABS = 1e-7    # the CF-inversion route's tol of 1e-8 holds QUADPACK's
                          # error estimate, not the error: 1 of ~60,000 points was
                          # 1.8e-8 off, the next worst 3.6e-9; its own tests hold
                          # it to 1e-7 relative
PROB_N1_ABS = 1e-11       # measured <= 5.1e-13 against the conditional-normal quadrature
PROB_REFLECT_ABS = 2e-11  # measured <= 5.7e-13 (5e-12 on other inputs)
MOMENT_REL = 1e-12        # per unit of the sum's condition number (1 for the exact
                          # difference sets); measured <= 5e-14 over 120 sum sets
SAMPLER_Z = 6.0           # a correct sampler fails with probability ~2e-9 per statistic
KS_P_MIN = 1e-9
STEIN_MC_Z = 6.0
STEIN_QUAD_ABS = 1e-8     # the identity holds exactly; measured <= 1.2e-9 over
                          # 200 calls, r in [2.2, 2.8] (QUADPACK's default tolerance)

CALIBRATE_EVERY_S = 0.2   # program CPU seconds between two calibration slices

# families whose time goes to numpy passes over long arrays, scaled by the
# `array` calibration slice alone; every other family by both slices
ARRAY_FAMILIES = {"sample_product_definitional", "sample_sum_via_representation",
                  "sample_diff", "stein_report"}


class Round:
    """Times each program call of one round and keeps its output.

    Times are the process's CPU seconds (time.process_time), not wall time:
    on a shared virtual machine the wall time of a compute-bound call also
    counts the time the host gives the virtual CPU to others, which changes
    from minute to minute, while the CPU time of the same work does not.

    With calibrated=True the calibration slices (calibrate.py) run at the
    start and then after each call that ends CALIBRATE_EVERY_S or more of
    program time after the last slices, so that they sample the host's speed
    over the round.
    """

    def __init__(self, tracer=None, calibrated=False):
        self.tracer = tracer
        self.ops: list[tuple] = []  # (family, seconds, failed)
        self.out: dict[str, list] = {}
        self.errors: dict[str, str] = {}  # family -> its first failure
        self.calibrated = calibrated
        self.slices: list[dict] = []  # CPU seconds of each calibration slice
        self._since_slice = 0.0
        if calibrated:
            self.slices.append(calibrate.measure())

    def _after(self, seconds: float):
        self._since_slice += seconds
        if self.calibrated and self._since_slice >= CALIBRATE_EVERY_S:
            self.slices.append(calibrate.measure())
            self._since_slice = 0.0

    def call(self, family: str, fn):
        t0 = time.process_time()
        try:
            if self.tracer is None:
                value = fn()
            else:
                value = self.tracer.span(f"bench.{family}", fn)
        except Exception as exc:  # recorded and reported as a failed operation
            self.ops.append((family, time.process_time() - t0, True))
            self.errors.setdefault(family, f"{type(exc).__name__}: {exc}")
            self.out.setdefault(family, []).append(exc)
            self._after(self.ops[-1][1])
            return exc
        self.ops.append((family, time.process_time() - t0, False))
        self.out.setdefault(family, []).append(value)
        self._after(self.ops[-1][1])
        return value

    @property
    def seconds(self) -> float:
        """Program CPU time of the operations that returned."""
        return sum(s for _, s, failed in self.ops if not failed)

    @property
    def reference_seconds(self) -> float:
        """`seconds` scaled to the reference host speed: each call by the
        mean over the round of the calibration slice of its kind."""
        mean = {kind: sum(s[kind] for s in self.slices) / len(self.slices)
                for kind in calibrate.REFERENCE_S}
        kinds = [("array" if fam in ARRAY_FAMILIES else "whole", sec)
                 for fam, sec, failed in self.ops if not failed]
        return sum(calibrate.to_reference(sec, kind, mean[kind]) for kind, sec in kinds)


# ---------------------------------------------------------------------------
# density_series


def density_run(nx, inp: dict, rnd: Round):
    from ncx2diff import density
    for (r, l1, l2), xs in inp["diff"]:
        q = nx.ChiSqDiffParams(r, l1, l2)
        for x in xs:
            rnd.call("diff_pdf", lambda: density.ncx2diff_pdf(x, q))
    for (mx, my, rho, n), zs in inp["product"]:
        p = nx.ProductNormalParams(mx, my, rho=rho, n=n)

        def cf(t, p=p):
            return density.char_fn_sum(t, p)

        for z in zs:
            # the `pdf --product` route of the CLI
            rnd.call("product_pdf", lambda: density.cf_inversion_pdf(z, cf))


def density_check(inp: dict, out: dict) -> list:
    bad = []
    diff = [((r, l1, l2), x) for (r, l1, l2), xs in inp["diff"] for x in xs]
    for ((r, l1, l2), x), v in zip(diff, out["diff_pdf"]):
        if isinstance(v, Exception):
            continue  # counted in `failed`
        want = ref.diff_pdf(x, r, l1, l2)
        if not abs(v - want) <= DIFF_PDF_ABS:
            bad.append(f"ncx2diff_pdf({x}, r={r}, l1={l1}, l2={l2}) = {v}, reference {want}")
    prod = [(p, z) for p, zs in inp["product"] for z in zs]
    for ((mx, my, rho, n), z), v in zip(prod, out["product_pdf"]):
        if isinstance(v, Exception):
            continue
        want = ref.product_pdf(z, mx, my, rho, n)
        if not abs(v - want) <= PRODUCT_PDF_ABS:
            bad.append(f"S_n density at {z} for {(mx, my, rho, n)} = {v}, reference {want}")
    return bad


# ---------------------------------------------------------------------------
# negativity_moments


def negativity_run(nx, inp: dict, rnd: Round):
    from ncx2diff import moments, probability
    rnd.call("table1", lambda: probability.table1())
    for mx, my, rho, n in inp["sums"]:
        p = nx.ProductNormalParams(mx, my, rho=rho, n=n)
        rnd.call("prob_sum", lambda: probability.prob_nonpositive_sum(p))
    for mx, my, rho, n in inp["degenerate"]:
        p = nx.ProductNormalParams(mx, my, rho=rho, n=n)
        rnd.call("prob_degenerate", lambda: probability.prob_nonpositive_sum(p))
    for q in inp["diffs"] + [inp["equal"]]:
        q = nx.ChiSqDiffParams(*q)
        rnd.call("prob_diff", lambda: probability.prob_nonpositive_diff(q))
    for q, kmax in inp["diff_sets"]:
        q = nx.ChiSqDiffParams(*q)
        rnd.call("diff_moments", lambda: moments.diff_moment_set(q, kmax))
    for (mx, my, rho, n), kmax in inp["sum_sets"]:
        p = nx.ProductNormalParams(mx, my, rho=rho, n=n)
        rnd.call("sum_moments", lambda: moments.sum_moment_set(p, kmax))


def _moment_errors(ms, kappa: list, cond: list) -> float:
    """Largest relative error of the raw moments and cumulants of a MomentSet,
    each raw moment's divided by the condition number of its sum."""
    raw = ref.raw_moments(kappa)
    pairs = list(zip(ms.raw, raw, cond)) + [(v, e, 1.0) for v, e in zip(ms.cumulants, kappa)]
    return max(abs(v - float(e)) / abs(float(e)) / c for v, e, c in pairs)


def _prob(res):
    """The probability of a NegativityResult; None for a failed operation,
    which is counted in `failed` and not judged."""
    return None if isinstance(res, Exception) else res.probability


def negativity_check(inp: dict, out: dict) -> list:
    bad = []
    rows = out["table1"][0]
    for row in [] if isinstance(rows, Exception) else rows:
        want = ref.prob_nonpositive_n1(row["mu_x"], row["mu_y"], row["rho"])
        if not abs(row["probability"] - want) <= PROB_N1_ABS:
            bad.append(f"table1 cell {row} against reference {want}")
    probs = [_prob(res) for res in out["prob_sum"]]
    for (mx, my, rho, n), v in zip(inp["sums"], probs):
        if n == 1 and v is not None:
            want = ref.prob_nonpositive_n1(mx, my, rho)
            if not abs(v - want) <= PROB_N1_ABS:
                bad.append(f"P(S_1 <= 0) for {(mx, my, rho)} = {v}, reference {want}")
    for i in range(0, len(probs), 2):
        if None in probs[i:i + 2]:
            continue
        if not abs(probs[i] + probs[i + 1] - 1.0) <= PROB_REFLECT_ABS:
            bad.append(f"reflection pair {inp['sums'][i]}: {probs[i]} + {probs[i + 1]} != 1")
    for (mx, my, rho, n), res in zip(inp["degenerate"], out["prob_degenerate"]):
        v = _prob(res)
        want = ref.prob_nonpositive_n1(mx, my, rho)
        if v is not None and not abs(v - want) <= PROB_N1_ABS:
            bad.append(f"P(S_1 <= 0) for {(mx, my, rho)} = {v}, reference {want}")
    dp = [_prob(res) for res in out["prob_diff"]]
    for i in range(0, len(inp["diffs"]), 2):
        if None in dp[i:i + 2]:
            continue
        if not abs(dp[i] + dp[i + 1] - 1.0) <= PROB_REFLECT_ABS:
            bad.append(f"swapped pair {inp['diffs'][i]}: {dp[i]} + {dp[i + 1]} != 1")
    if dp[-1] is not None and not abs(dp[-1] - 0.5) <= PROB_REFLECT_ABS:
        bad.append(f"P(T <= 0) = {dp[-1]} != 1/2 at equal noncentralities {inp['equal']}")
    for ((r, l1, l2), kmax), ms in zip(inp["diff_sets"], out["diff_moments"]):
        if isinstance(ms, Exception):
            continue
        # summed exactly by the program: no digits lost to cancellation
        err = _moment_errors(ms, ref.diff_cumulants(kmax, r, l1, l2), [1.0] * kmax)
        if not err <= MOMENT_REL:
            bad.append(f"diff_moment_set{(r, l1, l2, kmax)}: relative error {err:.1e}")
    for ((mx, my, rho, n), kmax), ms in zip(inp["sum_sets"], out["sum_moments"]):
        if isinstance(ms, Exception):
            continue
        err = _moment_errors(ms, ref.sum_cumulants(kmax, mx, my, rho, n),
                             ref.sum_moment_condition(kmax, mx, my, rho, n))
        if not err <= MOMENT_REL:
            bad.append(f"sum_moment_set{(mx, my, rho, n, kmax)}: relative error "
                       f"{err:.1e} times the condition number")
    return bad


# ---------------------------------------------------------------------------
# stein_sampling


SAMPLERS = ("sample_product_definitional", "sample_sum_via_representation",
            "sample_diff")
# x^2 exp(-x^2/2) of the built-in family
STEIN_QUADRATURE_FUNCTION = 2


def stein_run(nx, inp: dict, rnd: Round, funcs: tuple):
    """The three samplers, one Monte Carlo Stein report and one Stein
    quadrature. Each batch of draws is summarised as soon as it is drawn (not
    timed) and dropped, so a run holds at most two batches in memory."""
    from ncx2diff import sampling, stein
    mx, my, rho, n = inp["product"]
    p = nx.ProductNormalParams(mx, my, rho=rho, n=n)
    seeds, draws = inp["seeds"], inp["draws"]
    kp = ref.sum_cumulants(4, mx, my, rho, n)
    a = rnd.call("sample_product_definitional",
                 lambda: sampling.sample_product_definitional(p, draws, seeds["definitional"]))
    b = rnd.call("sample_sum_via_representation",
                 lambda: sampling.sample_sum_via_representation(p, draws, seeds["representation"]))
    summary = {}
    for name, batch in (("sample_product_definitional", a),
                        ("sample_sum_via_representation", b)):
        if not isinstance(batch, Exception):
            summary[name] = ref.sample_bounds(batch.values, kp, SAMPLER_Z)
    if not isinstance(a, Exception) and not isinstance(b, Exception):
        summary["ks_p"] = ref.ks_pvalue(a.values, b.values)
    q = nx.ChiSqDiffParams(*inp["diff"])
    c = rnd.call("sample_diff", lambda: sampling.sample_diff(q, draws, seeds["diff"]))
    if not isinstance(c, Exception):
        summary["sample_diff"] = ref.sample_bounds(
            c.values, ref.diff_cumulants(4, *inp["diff"]), SAMPLER_Z)
    for name in SAMPLERS:
        del rnd.out[name]
    del a, b, c
    rnd.out["samples"] = [summary]
    qs = nx.ChiSqDiffParams(*inp["stein"])
    rnd.call("stein_report", lambda: stein.stein_report(
        qs, operator="a1", funcs=funcs, count=inp["report_draws"],
        seed=seeds["report"]))
    rnd.call("stein_quadrature", lambda: stein.stein_expectation(
        "a1", funcs[STEIN_QUADRATURE_FUNCTION], qs, method="quadrature"))


def stein_check(inp: dict, out: dict) -> list:
    bad = []
    summary = out["samples"][0]
    for name in SAMPLERS:
        s = summary.get(name)
        if s is not None and not s["ok"]:
            bad.append(f"{name}: mean {s['mean_z']:.1f} and variance {s['var_z']:.1f} "
                       f"standard errors from the closed form")
    if "ks_p" in summary and not summary["ks_p"] >= KS_P_MIN:
        bad.append(f"definitional and representation draws differ: KS p = {summary['ks_p']:.1e}")
    rows = out["stein_report"][0]
    if not isinstance(rows, Exception):
        if len(rows) != 9:
            bad.append(f"stein_report returned {len(rows)} rows, expected 9")
        for row in rows:
            unc = row["uncertainty"]
            if not (0.0 < unc < math.inf and abs(row["estimate"]) <= STEIN_MC_Z * unc):
                bad.append(f"E[A1 f(T)] for {row['test_function']}: {row['estimate']} +- {unc}")
    res = out["stein_quadrature"][0]
    if not isinstance(res, Exception):
        est, _ = res
        if not abs(est) <= STEIN_QUAD_ABS:
            bad.append(f"Stein quadrature residual {est}, bound {STEIN_QUAD_ABS}")
    return bad


RUNS = {"density_series": (density_run, density_check),
        "negativity_moments": (negativity_run, negativity_check),
        "stein_sampling": (stein_run, stein_check)}
