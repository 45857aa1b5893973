"""Special-function kernel tests.

Reference values were generated with mpmath at 40 significant digits
(scripts/generate_oracle_values.py) through routes independent of this
library, then frozen here.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sc

from ncx2diff.density import ncx2diff_pdf
from ncx2diff.errors import DomainError, NonConvergenceError
from ncx2diff.params import ChiSqDiffParams
from ncx2diff.specfun import (SeriesControl, log_bessel_i, log_bessel_k,
                              log_kummer_m, log_tricomi_u)

# (a, b, x) -> U(a, b, x), frozen from the 40-digit oracle
U_REFERENCE = [
    (5.5, 11.0, 0.7, 345627.34025275745155423808019),
    (0.75, 1.5, 20.0, 0.104795174474263325970230757836),
    (18.5, 37.0, 40.0, 4.17166545024132698912859687219e-27),
    (2.3, 0.4, 1.7, 0.04687013310837607095335818597),
    (1.5, 3.0, 1e-5, 11283848088.2460088059892896956),
    (0.5, 10.999999999999993, 17.0, 0.349363877700882266497178696637),
    (1.5, 3.999999999999993, 1.0, 4.28196139467268687935083165277),
    (1.0, 1.0000000000000002, 0.5, 0.922910632483730599993694164183),
    (1.86125, 3.7225, 1e-6, 35840480575976657.8355559866686),
    (2.5, 4.0, 1e-6, 1504505932253645099.41688588495),
]


class TestTricomiU:
    @pytest.mark.parametrize("a,b,x,ref", U_REFERENCE)
    def test_frozen_oracle_values(self, a, b, x, ref):
        assert log_tricomi_u(a, b, x) == pytest.approx(math.log(ref), abs=1e-12)

    @pytest.mark.parametrize("a,b,x,ref", [row for row in U_REFERENCE if row[1] >= 1.0])
    def test_trapezoid_route(self, a, b, x, ref):
        # the quadrature with no reflection, entered through its array form,
        # held to every frozen value in its region
        got = log_tricomi_u(np.array([a]), np.array([b]), x)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(math.log(ref), abs=1e-12)

    @pytest.mark.parametrize("a,b,x,ref", [row for row in U_REFERENCE if row[1] >= 1.0])
    def test_batched_trapezoid(self, a, b, x, ref):
        # one grid for a batch whose entries need different steps and ranges,
        # against 60-digit mpmath
        A = np.array([a, a + 7.5, 0.5 * a + 0.1, a + 30.0])
        B = np.array([b, b + 7.0, b + 0.3, b + 61.0])
        got = log_tricomi_u(A, B, x)
        with mp.workdps(60):
            want = [float(mp.log(mp.hyperu(mp.mpf(ai), mp.mpf(bi), mp.mpf(x))))
                    for ai, bi in zip(A, B)]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-14 * max(1.0, abs(w))

    def test_array_form_matches_scalar_calls(self):
        # entries with small and large b, b near an integer and reflected
        # (b < 1) entries in one call
        a = np.array([1.25, 2.25, 5.5, 2.3, 36.87])
        b = np.array([2.5, 3.5, 11.0, 0.4, 9.01])
        for x in (0.41, 1.7):
            got = log_tricomi_u(a, b, x)
            assert got.shape == a.shape
            for g, ai, bi in zip(got, a, b):
                assert g == pytest.approx(log_tricomi_u(float(ai), float(bi), x), rel=1e-14)

    def test_no_call_to_scipy_hyperu(self, monkeypatch):
        # scipy's hyperu is silently wrong in much of the range the density
        # series needs; these points once went to it (40-digit mpmath values)
        def hyperu(*args):
            raise AssertionError("scipy.special.hyperu called")

        monkeypatch.setattr(sc, "hyperu", hyperu)
        assert log_tricomi_u(1.25, 2.5, 0.41) == pytest.approx(
            math.log(4.1692478409474843188803976122), abs=1e-12)
        assert log_tricomi_u(1.86125, 3.7225, 1e-6) == pytest.approx(
            math.log(35840480575976657.8355559866686), abs=1e-12)
        assert ncx2diff_pdf(0.3, ChiSqDiffParams(2.5, 1.0, 0.5)) == pytest.approx(
            0.140905997995911169374098218689, rel=1e-10)

    def test_near_integer_b(self):
        # b = 9.01 sits 0.01 from an integer; scipy's hyperu loses ln U to
        # 6e-10 there by cancellation (40-digit mpmath reference)
        assert log_tricomi_u(36.87, 9.01, 0.41) == pytest.approx(
            -81.04518463263347724305437, abs=1e-12)

    def test_reflection_consistency(self):
        # U(a,b,x) = x^{1-b} U(a-b+1, 2-b, x)
        a, b, x = 1.2, -2.5, 0.8
        lhs = log_tricomi_u(a, b, x)
        rhs = (1 - b) * math.log(x) + log_tricomi_u(a - b + 1, 2 - b, x)
        assert lhs == pytest.approx(rhs, abs=1e-10)
        assert lhs == pytest.approx(math.log(sc.hyperu(a, b, x)), abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_tricomi_u(1.0, 2.0, 0.0)
        with pytest.raises(DomainError):
            log_tricomi_u(-1.0, 2.0, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(0.25, 30.0), b=st.floats(1.0, 60.0),
           x=st.floats(1e-6, 300.0))
    # scipy's hyperu returns a negative value here (see U_REFERENCE)
    @example(a=0.5, b=10.999999999999993, x=17.0)
    def test_log_form_consistent_and_monotone(self, a, b, x):
        # U > 0 for a > 0, and the two entry points agree
        lu = log_tricomi_u(a, b, x)
        assert math.isfinite(lu)
        # U is strictly decreasing in x for a > 0
        assert log_tricomi_u(a, b, x * 1.5) < lu


class TestBessel:
    def test_log_i_matches_direct(self):
        # -1 < nu < 0 included: the orders of ncx2_pdf at r < 2
        for nu, x in [(0.0, 1.0), (2.5, 10.0), (7.0, 0.3), (-0.5, 1.0), (-0.75, 0.3)]:
            assert log_bessel_i(nu, x) == pytest.approx(
                math.log(sc.iv(nu, x)), abs=1e-12)

    def test_log_i_large_argument(self):
        # direct evaluation overflows near x ~ 714; frozen mpmath reference
        assert log_bessel_i(1.0, 800.0) == pytest.approx(
            795.7382865596716629205103, abs=1e-9)

    def test_log_i_large_order_small_argument(self):
        # ive underflows; ascending series path; frozen mpmath reference
        assert log_bessel_i(300.0, 0.5) == pytest.approx(
            -1830.793950639910543071832, abs=1e-9)

    def test_log_i_series_past_its_first_term(self):
        # ive underflows, and the series terms peak near the 3,400th, far
        # above the first; frozen mpmath reference
        assert log_bessel_i(4000.0, 1e4) == pytest.approx(
            9204.627130403740926515622, rel=1e-13)

    def test_log_i_series_budget_raises(self):
        # a peak past the fixed term budget raises rather than truncating
        with pytest.raises(NonConvergenceError):
            log_bessel_i(4e5, 1e8)

    def test_log_k_matches_direct(self):
        for nu, x in [(0.25, 2.0), (3.0, 0.5), (0.0, 15.0)]:
            assert log_bessel_k(nu, x) == pytest.approx(
                math.log(sc.kv(nu, x)), abs=1e-12)

    def test_log_k_symmetric_in_order(self):
        assert log_bessel_k(-2.5, 1.3) == log_bessel_k(2.5, 1.3)

    def test_smallest_subnormal_argument(self):
        # x/2 underflows to 0 at x = 5e-324; the small-argument forms
        # ln K = ln Gamma(nu) - ln 2 - nu ln(x/2), ln I = nu ln(x/2) - ln Gamma(nu+1)
        x, nu = 5e-324, 2.5
        half = math.log(x) - math.log(2.0)
        assert log_bessel_k(nu, x) == pytest.approx(
            sc.gammaln(nu) - math.log(2.0) - nu * half, rel=1e-14)
        assert log_bessel_i(nu, x) == pytest.approx(nu * half - sc.gammaln(nu + 1.0), rel=1e-14)

    def test_log_k_large_order(self):
        # kve overflows; descending-series path; frozen mpmath reference
        assert log_bessel_k(400.0, 1.0) == pytest.approx(
            2271.074331913628742280251, abs=1e-9)


class TestKummerM:
    def test_log_matches_direct(self):
        for a, b, x in [(1.5, 2.5, 3.0), (4.0, 0.5, 10.0), (0.3, 7.0, 0.1)]:
            assert log_kummer_m(a, b, x) == pytest.approx(
                math.log(sc.hyp1f1(a, b, x)), abs=1e-12)

    def test_log_large_argument(self):
        # direct evaluation overflows; frozen mpmath reference
        assert log_kummer_m(2.0, 3.0, 900.0) == pytest.approx(
            893.8896406883829440808767, abs=1e-9)

    def test_nonpositive_integer_b_rejected(self):
        with pytest.raises(DomainError):
            log_kummer_m(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            log_kummer_m(1.0, -3.0, 1.0)


class TestSeriesControl:
    def test_validation(self):
        with pytest.raises(DomainError):
            SeriesControl(abs_tol=0.0)
        with pytest.raises(DomainError):
            SeriesControl(max_terms=0)

    def test_abs_tol_below_one(self):
        # at abs_tol >= 8 a Poisson window would invert a tail level >= 1
        for tol in (1.0, 8.0, 10.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                SeriesControl(abs_tol=tol)
        assert SeriesControl(abs_tol=0.5).abs_tol == 0.5

    def test_frozen(self):
        ctrl = SeriesControl()
        with pytest.raises(Exception):
            ctrl.abs_tol = 1.0
