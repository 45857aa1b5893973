"""Stein operator tests: exact derivatives of the test functions against
mpmath, exact reductions, null behaviour under the matching law, operator
nesting, linearity, one-draw reports, and power against perturbed laws."""

import math

import mpmath as mp
import numpy as np
import pytest

from ncx2diff.errors import DomainError, UnsupportedParameterError
from ncx2diff.moments import diff_moment
from ncx2diff.params import ChiSqDiffParams
from ncx2diff.sampling import sample_diff
from ncx2diff.stein import (TestFunction, apply_a1, apply_a2, apply_a3,
                            builtin_test_functions, stein_expectation,
                            stein_report)

Q = ChiSqDiffParams(2.0, 1.0, 0.5)
FUNCS = builtin_test_functions()
ONE = TestFunction("1", [([1.0], [0.0])])
# 2.5 x^2 e^{-x^2/2} - 1.25 sin(x) e^{-x^2/4}, one real and one complex term
COMB = TestFunction("comb", [([0.0, 0.0, 2.5], [0.0, 0.0, -0.5]),
                             ([1.25j], [0.0, 1j, -0.25])])


class TestDerivatives:
    # each function with an mpmath form written independently of its terms
    CASES = [(f, lambda x, p=p: x ** p * mp.exp(-x ** 2 / 2))
             for p, f in enumerate(FUNCS[:7])] + [
        (FUNCS[7], lambda x: mp.exp(-x ** 2)),
        (FUNCS[8], lambda x: mp.sin(x) * mp.exp(-x ** 2 / 4)),
        (COMB, lambda x: 2.5 * x ** 2 * mp.exp(-x ** 2 / 2)
         - 1.25 * mp.sin(x) * mp.exp(-x ** 2 / 4)),
        (TestFunction("low", [([1.0, -1.0, 0.0, 0.5], [0.0, 0.2, -1 / 3])], order=2),
         lambda x: (1 - x + x ** 3 / 2) * mp.exp(x / 5 - x ** 2 / 3)),
    ]
    XS = np.concatenate([np.linspace(-30.0, 30.0, 121),
                         np.random.default_rng(7).uniform(-8.0, 8.0, 40)])

    @pytest.mark.parametrize("f, expr", CASES, ids=[c[0].name for c in CASES])
    def test_against_mpmath(self, f, expr):
        with mp.workdps(30):
            for j in range(f.order + 1):
                ref = np.array([float(mp.diff(expr, mp.mpf(x), j)) for x in self.XS])
                got = f.evaluate(j, self.XS)
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), j

    @pytest.mark.parametrize("f, expr", CASES[:10], ids=[c[0].name for c in CASES[:10]])
    def test_operators_against_mpmath(self, f, expr):
        # each operator folded into one polynomial per term, against
        # sum_j c_j(x) f^(j)(x) from the mpmath derivatives
        r, l1, l2 = 2.3, 1.7, 0.6
        d = l1 - l2
        ops = [(lambda x: apply_a1(f, x, ChiSqDiffParams(r, l1, l2)),
                lambda x, D: 16 * x * D[4] + 16 * r * D[3] - (8 * x + 4 * d) * D[2]
                - 4 * (l1 + l2 + r) * D[1] + (x - d) * D[0]),
               (lambda x: apply_a2(f, x, r, l1),
                lambda x, D: 8 * x * D[3] + (8 * r - 4 * x) * D[2]
                - (2 * x + 4 * r + 2 * l1) * D[1] + (x - l1) * D[0]),
               (lambda x: apply_a3(f, x, r),
                lambda x, D: 4 * x * D[2] + 4 * r * D[1] - x * D[0])]
        with mp.workdps(30):
            derivs = [[mp.diff(expr, mp.mpf(x), j) for j in range(5)] for x in self.XS]
            for op, formula in ops:
                ref = np.array([float(formula(mp.mpf(x), D)) for x, D in zip(self.XS, derivs)])
                got = op(self.XS)
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_scalar_and_array_shapes(self):
        assert isinstance(FUNCS[8].evaluate(1, 0.5), float)
        assert FUNCS[8].evaluate(1, np.zeros((2, 3))).shape == (2, 3)
        assert ONE.evaluate(0, np.zeros(4)).tolist() == [1.0] * 4
        assert ONE.evaluate(3, 2.0) == 0.0

    def test_exponent_degree_enforced(self):
        with pytest.raises(DomainError):
            TestFunction("cubic", [([1.0], [0.0, 0.0, 0.0, -1.0])])


class TestExactReductions:
    def test_a1_constant_function(self):
        # A1 1 = x - (l1 - l2), so E[A1 1] = mu'_1 - (l1-l2) = 0 exactly
        assert apply_a1(ONE, 3.7, Q) == pytest.approx(3.7 - 0.5)
        assert diff_moment(1, Q) - (Q.lambda1 - Q.lambda2) == pytest.approx(0, abs=1e-12)

    def test_a1_identity_function(self):
        # E[A1 x] = -4(l1+l2+r) + mu'_2 - (l1-l2) mu'_1 = 0
        val = (-4 * (Q.lambda1 + Q.lambda2 + Q.r) + diff_moment(2, Q)
               - (Q.lambda1 - Q.lambda2) * diff_moment(1, Q))
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_a2_reductions(self):
        q = ChiSqDiffParams(1.5, 2.0, 0.0)
        assert diff_moment(1, q) - q.lambda1 == pytest.approx(0, abs=1e-12)
        # E[A2 x] = -(2 mu'_1 + 4r + 2 l1) + mu'_2 - l1 mu'_1
        val = (-(2 * diff_moment(1, q) + 4 * q.r + 2 * q.lambda1)
               + diff_moment(2, q) - q.lambda1 * diff_moment(1, q))
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_a3_reductions(self):
        q = ChiSqDiffParams(2.0, 0.0, 0.0)
        # E[A3 x] = 4r - mu'_2 = 4r - 4r = 0
        assert 4 * q.r - diff_moment(2, q) == pytest.approx(0.0, abs=1e-10)


class TestQuadratureNull:
    def test_a1_vanishes_under_matching_law(self):
        est, unc = stein_expectation("a1", FUNCS[7], Q, method="quadrature")
        assert abs(est) <= max(unc, 1e-9)

    def test_a3_odd_integrand_exact_zero(self):
        est, _ = stein_expectation("a3", ONE, ChiSqDiffParams(3.0, 0.0, 0.0),
                                   method="quadrature")
        assert est == pytest.approx(0.0, abs=1e-10)

    def test_quadrature_matches_monte_carlo(self):
        em, um = stein_expectation("a1", FUNCS[7], Q, count=10 ** 6, seed=2)
        eq, uq = stein_expectation("a1", FUNCS[7], Q, method="quadrature")
        assert abs(em - eq) <= 4 * um + uq


class TestMonteCarloNull:
    @pytest.mark.parametrize("idx", range(len(FUNCS)))
    def test_a1_family(self, idx):
        est, unc = stein_expectation("a1", FUNCS[idx], Q,
                                     count=200000, seed=100 + idx)
        assert abs(est) <= 4 * unc

    def test_a2_null(self):
        q = ChiSqDiffParams(1.5, 2.0, 0.0)
        est, unc = stein_expectation("a2", FUNCS[7], q, count=200000, seed=3)
        assert abs(est) <= 4 * unc

    def test_a3_null(self):
        q = ChiSqDiffParams(2.0, 0.0, 0.0)
        est, unc = stein_expectation("a3", FUNCS[8], q, count=200000, seed=4)
        assert abs(est) <= 4 * unc


class TestNesting:
    def test_a1_and_a3_both_vanish_central(self):
        # the central operator is the special case of the general one
        q = ChiSqDiffParams(2.5, 0.0, 0.0)
        for op in ("a1", "a3"):
            est, unc = stein_expectation(op, FUNCS[2], q, method="quadrature")
            assert abs(est) <= max(unc, 1e-8)


class TestLinearity:
    def test_pointwise_linear_in_f(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=30)
        direct = apply_a1(COMB, xs, Q)
        parts = 2.5 * apply_a1(FUNCS[2], xs, Q) - 1.25 * apply_a1(FUNCS[8], xs, Q)
        assert np.max(np.abs(direct - parts)) < 1e-12 * max(1, np.max(np.abs(direct)))


class TestPower:
    def test_separates_lambda_shifted_law(self):
        # A1 built for (2, 1, 0.5) against samples from (2, 2, 0.5)
        t = sample_diff(ChiSqDiffParams(2.0, 2.0, 0.5), 10 ** 7, 5).values
        best = 0.0
        for f in FUNCS:
            vals = apply_a1(f, t, Q)
            se = vals.std(ddof=1) / math.sqrt(len(t))
            best = max(best, abs(float(vals.mean())) / se)
        assert best >= 6.0


class TestValidation:
    def test_operator_compatibility(self):
        with pytest.raises(UnsupportedParameterError):
            stein_expectation("a2", FUNCS[0], Q)
        with pytest.raises(UnsupportedParameterError):
            stein_expectation("a3", FUNCS[0], Q)
        with pytest.raises(DomainError):
            stein_expectation("a9", FUNCS[0], Q)

    def test_derivative_order_enforced(self):
        low = TestFunction("low", [([1.0], [0.0, 0.0, -1.0])], order=2)
        with pytest.raises(DomainError):
            apply_a1(low, 1.0, Q)

    def test_report_rows(self):
        rows = stein_report(Q, "a1", FUNCS[:2], count=50000, seed=1)
        assert len(rows) == 2
        assert {"operator", "test_function", "params", "method",
                "estimate", "uncertainty", "pass"} <= set(rows[0])


class TestReportEquivalence:
    def test_rows_equal_per_function_expectations(self):
        # the report draws once; each row must still be exactly what a
        # separate stein_expectation call with the same seed returns
        rows = stein_report(Q, "a1", FUNCS + (COMB,), count=20000, seed=11)
        for f, row in zip(FUNCS + (COMB,), rows):
            assert (row["estimate"], row["uncertainty"]) == stein_expectation(
                "a1", f, Q, count=20000, seed=11)

    def test_report_draws_once(self, monkeypatch):
        from ncx2diff import stein
        calls = []

        def counted(*args):
            calls.append(args)
            return sample_diff(*args)

        monkeypatch.setattr(stein, "sample_diff", counted)
        stein_report(Q, "a1", FUNCS, count=1000, seed=3)
        assert len(calls) == 1
