"""Negativity-probability tests: frozen double-series oracle values, the
published table, closed-form reductions, and structural identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sc

from ncx2diff.errors import DomainError
from ncx2diff.params import ChiSqDiffParams, ProductNormalParams
from ncx2diff.probability import (TABLE1_FLAGGED, TABLE1_PAPER_VALUES,
                                  TABLE1_PRINTED_SLIPS, TABLE1_RHOS,
                                  prob_nonpositive_central,
                                  prob_nonpositive_diff, prob_nonpositive_sum,
                                  table1, table1_cell_ok, table1_summary)
from ncx2diff.specfun import SeriesControl, _poisson_cut, _poisson_pmf


class TestFrozenOracle:
    # 40-digit double-series references (scripts/generate_oracle_values.py)
    def test_diff_values(self):
        assert prob_nonpositive_diff(
            ChiSqDiffParams(3, 1.2, 0.4)).probability == pytest.approx(
                0.426876186722882076852113784656, abs=1e-11)
        assert prob_nonpositive_diff(
            ChiSqDiffParams(1, 2.0, 0.0)).probability == pytest.approx(
                0.26696752866280386649093467784, abs=1e-11)
        assert prob_nonpositive_diff(
            ChiSqDiffParams(0.5, 4.0, 1.0)).probability == pytest.approx(
                0.230926572375225291963761305027, abs=1e-11)


class TestClosedForms:
    def test_central_arcsine(self):
        # I_{(1-rho)/2}(1/2, 1/2) = (2/pi) arcsin(sqrt((1-rho)/2))
        for rho in [-0.75, -0.5, 0.0, 0.5, 0.75]:
            expect = 2 / math.pi * math.asin(math.sqrt((1 - rho) / 2))
            assert prob_nonpositive_central(1, rho) == pytest.approx(
                expect, abs=1e-13)

    def test_central_consistency_with_series(self):
        for n, rho in [(1, -0.75), (2, 0.3), (5, 0.9)]:
            p = ProductNormalParams(0.0, 0.0, rho=rho, n=n)
            assert prob_nonpositive_sum(p).probability == pytest.approx(
                prob_nonpositive_central(n, rho), abs=1e-12)

    def test_symmetry(self):
        assert prob_nonpositive_diff(
            ChiSqDiffParams(1, 2.0, 2.0)).probability == pytest.approx(0.5, abs=1e-10)
        assert prob_nonpositive_diff(
            ChiSqDiffParams(3, 0.0, 0.0)).probability == pytest.approx(0.5, abs=1e-12)

    def test_diff_equals_sum_through_bijection(self):
        # T = V1 - V2, r=1, l1=2, l2=0 corresponds to mu_x=mu_y=1, rho=0, n=1
        d = prob_nonpositive_diff(ChiSqDiffParams(1, 2.0, 0.0)).probability
        s = prob_nonpositive_sum(
            ProductNormalParams(1.0, 1.0, rho=0.0, n=1)).probability
        assert d == pytest.approx(s, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            prob_nonpositive_central(0, 0.0)
        with pytest.raises(DomainError):
            prob_nonpositive_central(1, 1.0)


class TestDegenerateRho:
    def test_rho_one_support(self):
        # rho=1, mu_x=-mu_y: S = V1 + shift with shift < 0
        p = ProductNormalParams(1.0, -1.0, rho=1.0, n=2)
        res = prob_nonpositive_sum(p)
        assert 0.0 < res.probability < 1.0

    def test_rho_one_positive_product(self):
        # rho=1, mu_x=mu_y: lambda_plus > 0, shift = 0: P = P(V1 <= 0) = 0
        p = ProductNormalParams(1.0, 1.0, rho=1.0, n=1)
        assert prob_nonpositive_sum(p).probability == pytest.approx(0.0, abs=1e-15)

    def test_rho_minus_one_mirror(self):
        p_pos = ProductNormalParams(1.0, -1.0, rho=1.0, n=2)
        p_neg = ProductNormalParams(1.0, 1.0, rho=-1.0, n=2)
        # -S law mirror: P(S<=0) of one equals 1 - P(S<0) of the other's mirror;
        # both laws are continuous except at the shift atom-free boundary
        a = prob_nonpositive_sum(p_pos).probability
        b = prob_nonpositive_sum(p_neg).probability
        assert a + b == pytest.approx(1.0, abs=1e-10)


class TestTruncationCertificate:
    def test_tail_bound_respected(self):
        ctrl = SeriesControl(abs_tol=1e-10)
        res = prob_nonpositive_diff(ChiSqDiffParams(2, 5.0, 3.0), ctrl)
        assert res.tail_bound <= 1e-10
        assert res.terms_used >= 1

    def test_tolerance_tradeoff(self):
        loose = prob_nonpositive_diff(ChiSqDiffParams(2, 5.0, 3.0),
                                      SeriesControl(abs_tol=1e-4))
        tight = prob_nonpositive_diff(ChiSqDiffParams(2, 5.0, 3.0),
                                      SeriesControl(abs_tol=1e-13))
        assert loose.terms_used < tight.terms_used
        assert loose.probability == pytest.approx(tight.probability, abs=1e-4)

    @pytest.mark.parametrize("tol", [1e-12, 2.5e-13])
    def test_poisson_cut_and_weights_match_scipy_stats(self, tol):
        # the cut and the weights are scipy.stats.poisson's own formulas,
        # without importing scipy.stats; results must not move by one bit
        from scipy.stats import poisson
        # the last eight are means at which the ceiling of the continuous
        # inverse pdtrik overshoots by one (four at each tol), so that the
        # step down decides the cut
        mus = np.concatenate([np.geomspace(1e-3, 2e4, 300),
                              np.random.default_rng(3).uniform(1e-3, 2e4, 60),
                              [0.19630729554191104, 1862.912326667865,
                               9373.416561045291, 19202.66098663789,
                               0.05389611198362863, 1417.1116371267065,
                               6290.955604954618, 19086.79595642581]])
        for mu in mus:
            J = _poisson_cut(mu, tol, 10 ** 6)
            assert J == int(poisson.ppf(1.0 - tol, mu)), mu
            assert np.array_equal(_poisson_pmf(J, mu),
                                  poisson.pmf(range(J + 1), mu)), mu


def test_poisson_cut_below_double_resolution():
    # 1 - tol rounds to 1: the cut is the smallest J whose upper tail pdtrc
    # is at most tol
    for mu in (0.5, 5.0, 60.0, 1e4):
        for tol in (1e-17, 1e-24, 1e-200):
            J = _poisson_cut(mu, tol, 10 ** 6)
            assert sc.pdtrc(J, mu) <= tol < sc.pdtrc(J - 1, mu)


@pytest.fixture(scope="module")
def rows():
    return table1()


class TestTable1:
    def test_grid_shape(self, rows):
        assert len(rows) == 56

    def test_flagged_cell_exact_value(self, rows):
        cell = next(r for r in rows if r["flagged"])
        assert (cell["mu_x"], cell["mu_y"], cell["rho"]) == (0.0, 0.0, -0.75)
        # exact: (2/pi) arcsin(sqrt(0.875)); the published 0.7499 is inconsistent
        assert cell["probability"] == pytest.approx(0.7699, abs=5e-5)

    def test_reflection_identity(self, rows):
        # S(mu_x, -mu_y, -rho) =_d -S(mu_x, mu_y, rho)
        for r in rows:
            mirror = prob_nonpositive_sum(ProductNormalParams(
                r["mu_x"], -r["mu_y"], rho=-r["rho"], n=1)).probability
            assert r["probability"] + mirror == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_rho_central_row(self, rows):
        central = [r["probability"] for r in rows
                   if (r["mu_x"], r["mu_y"]) == (0.0, 0.0)]
        assert all(a > b for a, b in zip(central, central[1:]))

    def test_summary_structure(self, rows):
        s = table1_summary(rows)
        assert s["cells"] == 56
        assert len(s["flagged"]) == len(TABLE1_FLAGGED) == 1
        assert s["max_abs_diff"] < 1e-4

    def test_against_published_values(self, rows):
        # Three printed cells are themselves off by 5.1e-5..5.5e-5 against the
        # exact series (confirmed by an independent conditional-normal
        # quadrature); everything else agrees within 5e-5.
        for r in rows:
            if r["flagged"]:
                continue
            key = ((r["mu_x"], r["mu_y"]), r["rho"])
            assert table1_cell_ok(r), key
            if key in TABLE1_PRINTED_SLIPS:
                # the slip is real: the printed digits miss the exact value
                assert r["abs_diff"] > 5e-5, key


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(r=st.floats(0.3, 6.0), l1=st.floats(0.0, 8.0), l2=st.floats(0.0, 8.0))
    def test_probability_in_unit_interval(self, r, l1, l2):
        res = prob_nonpositive_diff(ChiSqDiffParams(r, l1, l2))
        assert 0.0 <= res.probability <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(r=st.floats(0.3, 6.0), l1=st.floats(0.0, 8.0), l2=st.floats(0.0, 8.0))
    def test_swap_reflection(self, r, l1, l2):
        q = ChiSqDiffParams(r, l1, l2)
        a = prob_nonpositive_diff(q).probability
        b = prob_nonpositive_diff(q.swapped()).probability
        # P(T<=0) + P(-T<=0) = 1 + P(T=0) = 1 (continuous law)
        assert a + b == pytest.approx(1.0, abs=1e-9)
