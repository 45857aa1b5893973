"""Tests of the benchmark's own checks and input generator.

    python3 -m pytest perfbench/test_checks.py

Each check must pass the program's outputs and reject a deliberately
perturbed copy of them.
"""

from __future__ import annotations

import copy
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ncx2diff as nx  # noqa: E402
from ncx2diff import density, sampling, stein  # noqa: E402

import calibrate  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    make = inputs.ROUNDS[workload]
    assert make(7, 3) == make(7, 3)
    assert make(7, 3) != make(8, 3)
    assert make(7, 3) != make(7, 4)


def _lambda_bin(lam):
    return next(i for i, (lo, hi) in enumerate(inputs.LAMBDA_BINS) if lo <= lam <= hi)


def test_density_rounds_balance_lambda_bins():
    pairs = set()
    for k in range(2):
        bins = [(_lambda_bin(l1), _lambda_bin(l2))
                for (_, l1, l2), _ in inputs.density_round(5, k)["diff"]]
        for side in range(2):
            assert sorted(b[side] for b in bins) == [0, 0, 1, 1, 2, 2, 3, 3]
        pairs.update(bins)
    assert len(pairs) == 16


def test_reference_seconds_scale_each_family_by_its_slice():
    rnd = workloads.Round()
    rnd.ops = [("diff_pdf", 1.0, False), ("sample_diff", 0.5, False),
               ("prob_sum", 9.0, True)]
    ref_s = calibrate.REFERENCE_S
    rnd.slices = [{"whole": ref_s["whole"], "array": ref_s["array"]},
                  {"whole": 3 * ref_s["whole"], "array": 3 * ref_s["array"]}]
    # slices twice as slow as the reference halve the times; failed calls are left out
    assert rnd.seconds == pytest.approx(1.5)
    assert rnd.reference_seconds == pytest.approx(0.75)
    rnd.slices = [{"whole": ref_s["whole"], "array": 4 * ref_s["array"]}]
    assert rnd.reference_seconds == pytest.approx(1.125)


def _run(run, inp, *extra):
    rnd = workloads.Round()
    run(nx, inp, rnd, *extra)
    return rnd.out


def _scaled(values, factor):
    return [v * factor for v in values]


@pytest.fixture(scope="module")
def density_case():
    full = inputs.density_round(1, 0)
    # the first four sets, one per r class, and the first two product sets,
    # n = 1 and 2, keep the test short
    inp = {"diff": full["diff"][:4], "product": full["product"][:2]}
    return inp, _run(workloads.density_run, inp)


def test_density_check_passes_program(density_case):
    inp, out = density_case
    assert workloads.density_check(inp, out) == []


@pytest.mark.parametrize("family", ["diff_pdf", "product_pdf"])
def test_density_check_rejects_relative_1e6(density_case, family):
    inp, out = density_case
    bad = dict(out, **{family: _scaled(out[family], 1.0 + 1e-6)})
    assert workloads.density_check(inp, bad)


@pytest.mark.parametrize("x,r,l1,l2", [(1e-3, 0.5, 16.0, 16.0), (-1e-2, 1.0, 8.0, 8.0),
                                       (0.05, 0.5, 0.0, 0.0), (-0.099, 2.95, 5.0, 9.0)])
def test_difference_reference_near_zero(x, r, l1, l2):
    # the Fourier rule returned 0 for the first case, where the density is 0.037
    want = density.ncx2diff_pdf(x, nx.ChiSqDiffParams(r, l1, l2))
    assert abs(ref.diff_pdf(x, r, l1, l2) - want) <= 1e-12


@pytest.fixture(scope="module")
def negativity_case():
    full = inputs.negativity_round(1, 0)
    inp = dict(full, sums=full["sums"][:8] + full["sums"][10:14],
               diff_sets=[(q, 12) for q, _ in full["diff_sets"]],
               sum_sets=[(p, 6) for p, _ in full["sum_sets"]])
    return inp, _run(workloads.negativity_run, inp)


def test_negativity_check_passes_program(negativity_case):
    inp, out = negativity_case
    assert workloads.negativity_check(inp, out) == []
    # the two degenerate-correlation cases fail in the program today
    assert all(isinstance(e, nx.NonConvergenceError) for e in out["prob_degenerate"])


def _shift(res, by):
    return replace(res, probability=res.probability + by)


@pytest.mark.parametrize("family,index", [("prob_sum", 0), ("prob_sum", 11),
                                          ("prob_diff", 1), ("prob_diff", 4)])
def test_negativity_check_rejects_probability_off_by_1e8(negativity_case, family, index):
    inp, out = negativity_case
    bad = copy.copy(out)
    bad[family] = list(out[family])
    bad[family][index] = _shift(out[family][index], 1e-8)
    assert workloads.negativity_check(inp, bad)


def test_negativity_check_rejects_table1_cell_off_by_1e8(negativity_case):
    inp, out = negativity_case
    rows = copy.deepcopy(out["table1"][0])
    rows[17]["probability"] += 1e-8
    assert workloads.negativity_check(inp, dict(out, table1=[rows]))


@pytest.mark.parametrize("family", ["diff_moments", "sum_moments"])
def test_negativity_check_rejects_moment_off_by_1e8(negativity_case, family):
    inp, out = negativity_case
    ms = out[family][0]
    raw = list(ms.raw)
    raw[-1] *= 1.0 + 1e-8
    bad = dict(out, **{family: [replace(ms, raw=tuple(raw))] + out[family][1:]})
    assert workloads.negativity_check(inp, bad)


def test_degenerate_cases_judged_once_they_return(negativity_case):
    inp, out = negativity_case
    exact = [nx.NegativityResult(ref.prob_nonpositive_n1(mx, my, rho), 1446, 1e-13)
             for mx, my, rho, _ in inp["degenerate"]]
    assert workloads.negativity_check(inp, dict(out, prob_degenerate=exact)) == []
    exact[1] = _shift(exact[1], 1e-8)
    assert workloads.negativity_check(inp, dict(out, prob_degenerate=exact))


def test_sampler_check_rejects_shifted_draws():
    mx, my, rho, n = 0.7, -1.1, 0.4, 2
    p = nx.ProductNormalParams(mx, my, rho=rho, n=n)
    kappa = ref.sum_cumulants(4, mx, my, rho, n)
    a = sampling.sample_product_definitional(p, 10 ** 6, 11).values
    b = sampling.sample_sum_via_representation(p, 10 ** 6, 12).values
    assert ref.sample_bounds(a, kappa)["ok"] and ref.sample_bounds(b, kappa)["ok"]
    assert ref.ks_pvalue(a, b) >= workloads.KS_P_MIN
    sd = float(kappa[1]) ** 0.5
    assert not ref.sample_bounds(a + 0.01 * sd, kappa)["ok"]
    assert not ref.sample_bounds(a * 1.01, kappa)["ok"]
    assert ref.ks_pvalue(a, b + 0.01 * sd) < workloads.KS_P_MIN


@pytest.fixture(scope="module")
def stein_case():
    inp = dict(inputs.stein_round(1, 0), draws=10 ** 5)
    return inp, _run(workloads.stein_run, inp, stein.builtin_test_functions())


def test_stein_check_passes_program(stein_case):
    inp, out = stein_case
    assert workloads.stein_check(inp, out) == []


def test_stein_check_rejects_perturbed_estimates(stein_case):
    inp, out = stein_case
    rows = copy.deepcopy(out["stein_report"][0])
    rows[4]["estimate"] = 10.0 * rows[4]["uncertainty"]
    assert workloads.stein_check(inp, dict(out, stein_report=[rows]))
    est, unc = out["stein_quadrature"][0]
    assert workloads.stein_check(inp, dict(out, stein_quadrature=[(est + 1e-6, unc)]))
    # the bound does not widen with the error the program reports for itself
    assert workloads.stein_check(inp, dict(out, stein_quadrature=[(est + 2e-8, 1.0)]))
    summary = dict(out["samples"][0], sample_diff={"ok": False, "mean_z": 9.0, "var_z": 0.0})
    assert workloads.stein_check(inp, dict(out, samples=[summary]))
