"""Density tests: series forms against the frozen high-precision convolution
oracle, each other, CF inversion, and analytic limits; the S_n density against
the scaled convolution and, at rho = +-1, the noncentral chi-square.

Oracle values were computed by direct numerical convolution of two noncentral
chi-square densities with mpmath at 40 digits (scripts/generate_oracle_values.py).
"""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special as sc
from scipy import stats
from scipy.integrate import quad

from ncx2diff.density import (_log_diagonal, cf_inversion_pdf, char_fn_diff,
                              char_fn_ncx2, char_fn_product, char_fn_sum,
                              char_fn_sum_direct, ncx2_pdf, ncx2diff_pdf,
                              singularity_constant)
from ncx2diff.errors import (InversionAccuracyError, NonConvergenceError,
                             SingularPointError)
from ncx2diff.params import ChiSqDiffParams, ProductNormalParams, to_chisq_diff
from ncx2diff.selftest import _equal_lambda_pdf
from ncx2diff.specfun import DEFAULT_CONTROL, SeriesControl, log_tricomi_u

# (x, r, lam1, lam2) -> pdf, frozen from the 40-digit convolution oracle
PDF_REFERENCE = [
    (0.7, 3.0, 1.2, 1.2, 0.10667334876988825460011284398),
    (0.7, 3.0, 1.2, 0.0, 0.126415289974947263618197366754),
    (-2.0, 4.5, 3.0, 1.0, 0.058616976703175926519738553694),
    (0.25, 0.5, 0.3, 0.7, 0.280009314133528734277887928622),
    (1.5, 1.0, 0.5, 2.0, 0.0696468197730705093729591400856),
    (1.3, 2.5, 0.0, 0.0, 0.126762370212030256433050703335),
]

# (r, lam1, lam2) -> pdf at x = 0 for 1 < r <= 2, where it is finite: the
# Laplace density's 1/4, Gamma(r-1)/(2^r Gamma(r/2)^2) for the central law,
# and 30-digit convolutions (scripts/generate_oracle_values.py)
ZERO_REFERENCE = [
    (2.0, 0.0, 0.0, 0.25),
    (1.5, 0.0, 0.0, 0.417313420837036593140591805553),
    (2.0, 1.0, 0.5, 0.177233861937242093536938066251),
    (1.5, 1.0, 0.5, 0.261971833092834654548978422634),
]


# (r, x, k) -> ln U(r/2 + k, r + k, x), k = k0 + 100, 200, 300 past the last
# seed k0 = max(1, ceil x) of the diagonal recurrence; mpmath's hyperu at 80
# to 160 digits (scripts/generate_oracle_values.py)
DIAGONAL_REFERENCE = [
    (0.7, 0.5, 101, 66.79990384299931535749213),
    (0.7, 0.5, 201, 135.6674030563315580333588),
    (0.7, 0.5, 301, 204.7196783976343169966196),
    (0.7, 10.0, 110, -255.7032549814838972900029),
    (0.7, 10.0, 210, -486.3566589786445406092477),
    (0.7, 10.0, 310, -716.8590991985259051066637),
    (0.7, 40.0, 140, -518.7108316682309815898799),
    (0.7, 40.0, 240, -887.8861900708947931642662),
    (0.7, 40.0, 340, -1256.972798152624112531887),
    (0.7, 150.0, 250, -1255.04981668030149048816),
    (0.7, 150.0, 350, -1756.258362393473471165575),
    (0.7, 150.0, 450, -2257.440405207687808244542),
    (7.3, 0.5, 101, 86.73202464111275887445041),
    (7.3, 0.5, 201, 157.8079193423974212817852),
    (7.3, 0.5, 301, 228.1713938231507555080792),
    (7.3, 10.0, 110, -255.0082209485627221389093),
    (7.3, 10.0, 210, -483.7031268645336412584496),
    (7.3, 10.0, 310, -712.9850262653926702566659),
    (7.3, 40.0, 140, -525.8592419221236945779221),
    (7.3, 40.0, 240, -893.5978879349112999641318),
    (7.3, 40.0, 340, -1261.687072171946925751915),
    (7.3, 150.0, 250, -1268.320972184064581067793),
    (7.3, 150.0, 350, -1768.798323350125207328472),
    (7.3, 150.0, 450, -2269.382229290930291670054),
]


def log_comb(n, k):
    """ln C(n, k)."""
    return float(sc.gammaln(n + 1) - sc.gammaln(k + 1) - sc.gammaln(n - k + 1))


def per_term_pdf(x, r, lam1, lam2, ctrl=DEFAULT_CONTROL):
    """The double series term by term, one log_tricomi_u call per (j, k)
    term: the reference for the b-recurrence of ncx2diff_pdf. Same weights;
    it stops once three consecutive outer terms fall below abs_tol times the
    running sum, a relative rule at every size of the density."""
    if x < 0:
        x, lam1, lam2 = -x, lam2, lam1
    log_pref = -r * math.log(2.0) - (x + lam1 + lam2) / 2.0
    llam1 = math.log(lam1) - math.log(2.0) if lam1 > 0 else -math.inf
    llam2 = math.log(lam2) - math.log(2.0) if lam2 > 0 else -math.inf
    total = 0.0
    small_streak = 0
    terms_used = 0
    k = 0
    while True:
        outer = 0.0
        for j in range(k + 1):
            if lam1 == 0.0 and j < k:
                continue
            if lam2 == 0.0 and j > 0:
                continue
            a_jk = k - j
            lcoef = log_comb(k, j) - sc.gammaln(k + 1.0) - sc.gammaln(r / 2.0 + a_jk) \
                - k * math.log(2.0)
            if k - j > 0:
                lcoef += (k - j) * llam1
            if j > 0:
                lcoef += j * llam2
            lu = log_tricomi_u(1.0 - r / 2.0 - a_jk, 2.0 - r - k, x)
            outer += math.exp(log_pref + lcoef + lu)
            terms_used += 1
        total += outer
        if terms_used > ctrl.max_terms:
            raise NonConvergenceError("per-term series: max_terms exhausted")
        if outer <= ctrl.abs_tol * total:
            small_streak += 1
            if small_streak >= 3:
                return total
        else:
            small_streak = 0
        k += 1


class TestAgainstConvolutionOracle:
    @pytest.mark.parametrize("x,r,l1,l2,ref", PDF_REFERENCE)
    def test_double_series(self, x, r, l1, l2, ref):
        assert ncx2diff_pdf(x, ChiSqDiffParams(r, l1, l2)) == pytest.approx(
            ref, rel=1e-10)

    def test_small_x_central(self):
        # its only term is U(1.86125, 3.7225, 1e-6), small x with 2 <= b < 4;
        # 40-digit convolution reference
        assert ncx2diff_pdf(-1e-6, ChiSqDiffParams(3.7225, 0.0, 0.0)) == pytest.approx(
            0.132278122100730107001604399565, rel=1e-12)

    def test_ncx2_pdf_where_ive_underflows(self):
        # I_4000(4472) by its ascending series, whose terms peak near the
        # 1,000th; 40-digit mpmath reference
        assert ncx2_pdf(1e4, 8002.0, 2000.0) == pytest.approx(
            0.002575175252873031440040618, rel=1e-10)

    @pytest.mark.parametrize("x,r,lam,ref", [(1.0, 1.0, 2.0, 0.19389),
                                             (0.5, 0.5, 0.3, 0.30128),
                                             (3.0, 1.99, 4.0, 0.10817)])
    def test_ncx2_pdf_below_two_degrees(self, x, r, lam, ref):
        # the Bessel order r/2 - 1 lies in (-1, 0)
        v = ncx2_pdf(x, r, lam)
        assert v == pytest.approx(stats.ncx2.pdf(x, r, lam), rel=1e-12)
        assert v == pytest.approx(ref, abs=5e-6)

    def test_central_bessel_form(self):
        # the Bessel-K oracle at lambda = 0: the variance-gamma density
        assert _equal_lambda_pdf(1.3, 2.5, 0.0) == pytest.approx(
            0.126762370212030256433050703335, rel=1e-12)


class TestCrossFormAgreement:
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0, 7.0])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 4.0])
    def test_equal_lambda_series(self, r, lam):
        for x in [-5.0, -0.25, 0.25, 0.7, 3.0, 10.0]:
            d = ncx2diff_pdf(x, ChiSqDiffParams(r, lam, lam))
            e = _equal_lambda_pdf(x, r, lam)
            assert d == pytest.approx(e, rel=1e-9, abs=1e-300)

    def test_equal_lambda_oracle_past_the_poisson_peak(self):
        # the Bessel-K oracle's terms rise for about lam/2 steps before they
        # fall; its stopping rule must not fire on the rise
        q = ChiSqDiffParams(3.0, 60.0, 60.0)
        ref = cf_inversion_pdf(10.0, lambda t: char_fn_diff(t, q))
        assert _equal_lambda_pdf(10.0, 3.0, 60.0) == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0, 3.5, 7.0])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 4.0])
    def test_one_sided_series(self, r, lam):
        # lambda2 = 0: the b-recurrence against the term-by-term series
        for x in [-5.0, -3.0, -0.25, 0.25, 0.7, 3.0, 10.0]:
            d = ncx2diff_pdf(x, ChiSqDiffParams(r, lam, 0.0))
            o = per_term_pdf(x, r, lam, 0.0)
            assert d == pytest.approx(o, rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0, 7.0])
    def test_central_forms(self, r):
        # the U form of the series against the variance-gamma K form
        for x in [-3.0, -0.5, 0.5, 3.0, 15.0]:
            assert ncx2diff_pdf(x, ChiSqDiffParams(r, 0.0, 0.0)) == pytest.approx(
                _equal_lambda_pdf(x, r, 0.0), rel=1e-10)

    def test_swap_symmetry(self):
        q = ChiSqDiffParams(2.5, 1.7, 0.3)
        for x in [0.4, 2.0, 6.0]:
            assert ncx2diff_pdf(-x, q) == pytest.approx(
                ncx2diff_pdf(x, q.swapped()), rel=1e-12)


class TestZeroAndSingularities:
    def test_singular_at_zero_for_small_r(self):
        for r in [0.5, 1.0]:
            with pytest.raises(SingularPointError):
                ncx2diff_pdf(0.0, ChiSqDiffParams(r, 1.0, 0.5))

    @pytest.mark.parametrize("r,l1,l2,ref", ZERO_REFERENCE)
    def test_finite_at_zero_for_r_above_one(self, r, l1, l2, ref):
        assert ncx2diff_pdf(0.0, ChiSqDiffParams(r, l1, l2)) == pytest.approx(ref, rel=1e-12)

    def test_zero_limit_continuous_for_large_r(self):
        for (r, l1, l2) in [(2.5, 0.0, 0.0), (3.0, 1.2, 0.4), (4.5, 2.0, 2.0)]:
            q = ChiSqDiffParams(r, l1, l2)
            at0 = ncx2diff_pdf(0.0, q)
            near0 = ncx2diff_pdf(1e-9, q)
            assert at0 == pytest.approx(near0, rel=1e-5)

    def test_log_singularity_rate_r1(self):
        # p(x) ~ -c ln|x| with c = e^{-(l1+l2)/2}/(2 pi); O(1/ln x) convergence
        q = ChiSqDiffParams(1.0, 0.0, 0.0)
        c = singularity_constant(0.0, 0.0)
        x = 1e-12
        assert ncx2diff_pdf(x, q) / (-math.log(x)) == pytest.approx(c, rel=0.05)

    def test_ncx2_pdf_edges(self):
        with pytest.raises(SingularPointError):
            ncx2_pdf(0.0, 1.0, 0.5)
        assert ncx2_pdf(0.0, 2.0, 1.0) == pytest.approx(math.exp(-0.5) / 2)
        assert ncx2_pdf(0.0, 3.0, 1.0) == 0.0
        # lambda x = 1e-400 underflows; at lambda = 1e-200 the law is chi^2_r
        for r in (1.0, 3.0):
            assert ncx2_pdf(1e-200, r, 1e-200) == pytest.approx(
                stats.chi2.pdf(1e-200, r), rel=1e-12)


class TestCharacteristicFunctions:
    def test_cf_at_zero_and_modulus(self):
        q = ChiSqDiffParams(2.0, 1.0, 0.5)
        assert char_fn_diff(0.0, q) == pytest.approx(1.0)
        for t in [0.3, 2.0, 17.0]:
            assert abs(char_fn_diff(t, q)) <= 1.0 + 1e-12

    def test_sum_cf_routes_agree(self):
        p = ProductNormalParams(0.8, -0.3, 1.2, 0.7, 0.4, 3)
        for t in [0.1, 1.0, 5.0]:
            assert char_fn_sum(t, p) == pytest.approx(
                char_fn_sum_direct(t, p), rel=1e-12)

    def test_product_cf_power(self):
        p1 = ProductNormalParams(0.8, -0.3, 1.2, 0.7, 0.4, 1)
        p3 = ProductNormalParams(0.8, -0.3, 1.2, 0.7, 0.4, 3)
        for t in [0.2, 1.5]:
            assert char_fn_product(t, p1) ** 3 == pytest.approx(
                char_fn_sum(t, p3), rel=1e-12)

    def test_degenerate_rho_cf_vs_shifted_ncx2(self):
        p = ProductNormalParams(1.0, -1.0, 1.0, 1.0, 1.0, 2)
        # S = V1 + shift with V1 ~ chi'^2_2(0), shift = -2
        for t in [0.3, 1.1]:
            ref = char_fn_ncx2(t, 2.0, 0.0) * np.exp(-2j * t)
            assert char_fn_sum(t, p) == pytest.approx(ref, rel=1e-12)


class TestCfInversion:
    @pytest.mark.parametrize("x,r,l1,l2,ref", PDF_REFERENCE)
    def test_inversion_matches_oracle(self, x, r, l1, l2, ref):
        q = ChiSqDiffParams(r, l1, l2)
        val = cf_inversion_pdf(x, lambda t: char_fn_diff(t, q))
        assert val == pytest.approx(ref, rel=1e-7)

    def test_sum_density_at_rho(self):
        # the unequal-scale sum density by inversion: it agrees with the
        # series and integrates to ~1 over a wide window
        p = ProductNormalParams(1.0, -1.0, 1.0, 1.0, 0.25, 2)
        pdf = lambda x: cf_inversion_pdf(x, lambda t: char_fn_sum(t, p))
        for x in (-6.0, -2.0, 0.0, 1.0, 4.0):
            assert pdf(x) == pytest.approx(ncx2diff_pdf(x, p), abs=1e-8)
        total = (quad(pdf, -40, 0, limit=200)[0] + quad(pdf, 0, 40, limit=200)[0])
        assert total == pytest.approx(1.0, abs=1e-6)


class TestNormalisation:
    @pytest.mark.parametrize("r,l1,l2", [(0.5, 0.0, 0.0), (1.0, 1.2, 0.4),
                                         (3.0, 1.2, 0.0), (7.0, 0.3, 5.0)])
    def test_integrates_to_one(self, r, l1, l2):
        q = ChiSqDiffParams(r, l1, l2)
        total = (quad(lambda x: ncx2diff_pdf(x, q), -np.inf, 0, limit=200)[0]
                 + quad(lambda x: ncx2diff_pdf(x, q), 0, np.inf, limit=200)[0])
        assert total == pytest.approx(1.0, abs=1e-6)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(r=st.floats(0.3, 8.0), l1=st.floats(0.0, 6.0), l2=st.floats(0.0, 6.0),
           x=st.floats(-8.0, 8.0))
    def test_nonnegative_and_symmetric(self, r, l1, l2, x):
        if abs(x) < 1e-3:
            x = 1e-3
        q = ChiSqDiffParams(r, l1, l2)
        v = ncx2diff_pdf(x, q)
        assert v >= 0.0
        assert ncx2diff_pdf(-x, q) == pytest.approx(
            ncx2diff_pdf(x, q.swapped()), rel=1e-10, abs=1e-280)


class TestRecurrenceAgainstPerTermSeries:
    @settings(max_examples=40, deadline=None)
    @given(r=st.one_of(st.floats(0.3, 10.0), st.just(1.0),
                       st.builds(lambda n, d: min(n + d, 10.0), st.integers(1, 10),
                                 st.floats(-0.1, 0.1))),
           l1=st.one_of(st.just(0.0), st.floats(0.0, 60.0)),
           l2=st.one_of(st.just(0.0), st.floats(0.0, 60.0)),
           u=st.floats(-1.0, 1.0))
    # x = 7.00 takes the seed U(25.21, 30.42, 7.00), where scipy's hyperu is
    # 5.8e-10 off in ln U
    @example(r=8.424776141695384, l1=25.568720111860838, l2=41.291579150817235,
             u=0.5325)
    # subnormal x: the U ratios overflow unless scaled by x
    @example(r=1.0, l1=0.0, l2=2.0, u=2.225073858507e-311)
    def test_matches_per_term_series(self, r, l1, l2, u):
        assume(l1 + l2 < 80.0)
        x = u * (80.0 - l1 - l2)  # |x| + l1 + l2 <= 80
        assume(x != 0.0)
        assert ncx2diff_pdf(x, ChiSqDiffParams(r, l1, l2)) == pytest.approx(
            per_term_pdf(x, r, l1, l2), rel=1e-11, abs=1e-300)


def mp_diff_pdf(x, r, lam1, lam2, c1=1.0, c2=1.0, shift=0.0):
    """40-digit convolution of the densities of c1 V1 and c2 V2 at x - shift,
    the law of S_n in its representation (unit scales and no shift: T). The
    breakpoints cross the bulk of c1 V1 and of z + c2 V2, so that a large
    lambda or a narrow scale is resolved, and step by factors of 4 away from
    the lower end, |z| from where the other factor is singular for r < 2."""
    with mp.workdps(40):
        z, r, lam1, lam2, c1, c2 = (mp.mpf(v) for v in (x - shift, r, lam1, lam2, c1, c2))

        def f(u, c, lam):  # density of c chi'^2_r(lam) at u
            u = u / c
            if u <= 0:
                return mp.mpf(0)
            if lam == 0:
                return u ** (r / 2 - 1) * mp.exp(-u / 2) / (2 ** (r / 2) * mp.gamma(r / 2)) / c
            return (mp.exp(-(u + lam) / 2) / 2 * (u / lam) ** (r / 4 - mp.mpf(1) / 2)
                    * mp.besseli(r / 2 - 1, mp.sqrt(lam * u))) / c

        lo = max(mp.mpf(0), z)
        mean, sd = r + lam1, mp.sqrt(2 * r + 4 * lam1)
        points = {lo, lo + 5 * c1, lo + 40 * c1} | {c1 * (mean + i * sd) for i in range(-8, 9)}
        mean, sd = r + lam2, mp.sqrt(2 * r + 4 * lam2)
        points |= {z + c2 * (mean + i * sd) for i in range(-8, 9, 2)}
        step = abs(z)
        while 0 < step < 5 * max(c1, c2):
            points.add(lo + step)
            step *= 4
        # u = lo + v^(1/e) takes away the (u - lo)^(r/2 - 1) singularity of
        # the factor that starts at lo, which quad does not resolve for small r
        e = min(mp.mpf(1), r / 2)

        def g(v):  # lo - z is 0 or -z: the factor at lo keeps every digit of w
            w = v ** (1 / e)
            return f(lo + w, c1, lam1) * f(lo - z + w, c2, lam2) * v ** (1 / e - 1) / e

        return float(mp.quad(g, sorted((u - lo) ** e for u in points if u >= lo) + [mp.inf]))


def mp_sum_pdf(x, p):
    """mp_diff_pdf at the representation of p."""
    q = to_chisq_diff(p)
    return mp_diff_pdf(x, q.r, q.lambda_plus, q.lambda_minus, q.scale_plus,
                       q.scale_minus, q.shift)


def mp_series_pdf(x, r, lam1, lam2):
    """The double series at 40 digits with mpmath's own U, term by term; the
    outer sum stops once three consecutive falling rows are below 1e-20 of
    it. An oracle for the window, recurrences and U routes of ncx2diff_pdf
    near x = 0, where neither CF inversion nor the convolution quadrature
    holds 1e-8 for r < 1."""
    if x < 0:
        x, lam1, lam2 = -x, lam2, lam1
    with mp.workdps(40):
        x, r, lam1, lam2 = (mp.mpf(v) for v in (x, r, lam1, lam2))
        h = r / 2
        total, prev, streak, k = mp.mpf(0), mp.mpf(0), 0, 0
        while streak < 3:
            row = mp.mpf(0)
            for j in range(k + 1):
                d = k - j
                if (lam1 == 0 and d) or (lam2 == 0 and j):
                    continue
                row += ((lam1 / 4) ** d * (lam2 / 4) ** j * x ** (r + k - 1)
                        * mp.hyperu(h + j, r + k, x)
                        / (mp.factorial(d) * mp.factorial(j) * mp.gamma(h + d)))
            row *= mp.exp(-(x + lam1 + lam2) / 2) / 2 ** r
            total += row
            streak = streak + 1 if row <= prev and row <= mp.mpf(10) ** -20 * total else 0
            prev, k = row, k + 1
        return float(total)


class TestCertifiedWindow:
    @settings(max_examples=25, deadline=None)
    @given(r=st.floats(0.3, 10.0), l1=st.floats(0.0, 500.0),
           l2=st.floats(0.0, 500.0), z=st.floats(-6.0, 6.0))
    # the three rows that the series stopping before the Poisson peak got
    # wrong by 20 to 70 orders of magnitude; (3, 100, 100) needs more than
    # the default max_terms
    @example(r=3.0, l1=60.0, l2=60.0, z=10.0 / (2.0 * math.sqrt(123.0)))
    @example(r=3.0, l1=100.0, l2=100.0, z=0.7 / (2.0 * math.sqrt(203.0)))
    @example(r=1.0, l1=200.0, l2=0.0, z=-50.0 / (2.0 * math.sqrt(201.0)))
    # x = 1.5e-323, where |x|/2 rounds and the Bessel-K reference is 0.2165
    @example(r=2.0, l1=0.0, l2=0.0, z=5e-324)
    # x = -0.0312, where CF inversion returns -1.4e-58 and raises nothing;
    # the density is 1.5610e-4
    @example(r=1.2234, l1=379.5, l2=240.5, z=-2.7890633092703796)
    def test_against_cf_inversion(self, r, l1, l2, z):
        # x within 6 standard deviations of the mean; the value agrees with CF
        # inversion (or, where that cannot meet its tolerance, the 40-digit
        # convolution) to 1e-8, relatively where it exceeds 1, or the budget
        # error names a max_terms at which it does. Within 0.01 of 0 CF
        # inversion is silently wrong for r <= 2 (0.19 off at r = 0.5,
        # x = 1e-6, and negative at r = 1.5): there the reference is the
        # Bessel-K series at lambda1 = lambda2 (it needs |x|/2 to be exact,
        # so not subnormal) and the 40-digit series else. The CF of T decays
        # on the scale 1/sd, sd = 2 sqrt(r + lambda1 + lambda2); where
        # |x| sqrt(r + lambda1 + lambda2) < 2 pi, QUADPACK's first Fourier
        # cycle pi/|x| spans more than r + lambda1 + lambda2 of those scales,
        # and its cycle extrapolation can return a wrong value with a small
        # error estimate: there the reference is the convolution
        x = l1 - l2 + z * 2.0 * math.sqrt(r + l1 + l2)
        assume(x != 0.0)
        q = ChiSqDiffParams(r, l1, l2)
        try:
            v = ncx2diff_pdf(x, q)
        except NonConvergenceError as exc:
            assert exc.max_terms > DEFAULT_CONTROL.max_terms
            v = ncx2diff_pdf(x, q, SeriesControl(max_terms=exc.max_terms))
        if l1 == l2 and abs(x) >= 2.0 * sys.float_info.min:
            ref = _equal_lambda_pdf(x, r, l1)
        elif abs(x) < 0.01:
            ref = mp_series_pdf(x, r, l1, l2)
        elif abs(x) * math.sqrt(r + l1 + l2) < 2.0 * math.pi:
            ref = mp_diff_pdf(x, r, l1, l2)
        else:
            try:
                ref = cf_inversion_pdf(x, lambda t: char_fn_diff(t, q))
            except InversionAccuracyError:
                ref = mp_diff_pdf(x, r, l1, l2)
        assert abs(v - ref) <= 1e-8 * max(1.0, abs(ref))

    @pytest.mark.parametrize("x,q,max_terms,most,ref", [
        (0.7, ChiSqDiffParams(3.0, 100.0, 100.0), DEFAULT_CONTROL.max_terms, 11_000,
         lambda: pytest.approx(0.0141003542, abs=1e-9)),
        # near 0 at large noncentralities: both windows start far above 0
        (1e-9, ChiSqDiffParams(0.3, 500.0, 500.0), DEFAULT_CONTROL.max_terms, 60_000,
         lambda: pytest.approx(_equal_lambda_pdf(1e-9, 0.3, 500.0), rel=1e-10)),
        # the sum comes out below the saddlepoint estimate: a budget named
        # for the estimate's rectangle alone could fall short
        (-17.7428, ChiSqDiffParams(0.8881, 1.8084, 4.8021), 300, None,
         lambda: pytest.approx(mp_diff_pdf(-17.7428, 0.8881, 1.8084, 4.8021), rel=1e-10)),
        # S_n at sigma_x sigma_y = 3: scales 1.65 and 1.35, lambdas 330 and 83
        (430.0, ProductNormalParams(16.0, 4.5, 2.0, 1.5, 0.1, 6),
         DEFAULT_CONTROL.max_terms, 17_000,
         lambda: pytest.approx(mp_sum_pdf(430.0, ProductNormalParams(
             16.0, 4.5, 2.0, 1.5, 0.1, 6)), rel=1e-10)),
    ], ids=["r3-lam100", "r0.3-lam500", "below-saddlepoint", "sum-sigma3"])
    def test_budget_error_names_a_sufficient_budget(self, x, q, max_terms, most, ref):
        with pytest.raises(NonConvergenceError) as info:
            ncx2diff_pdf(x, q, SeriesControl(max_terms=max_terms))
        named = info.value.max_terms
        assert ncx2diff_pdf(x, q, SeriesControl(max_terms=named)) == ref()
        if most is not None:  # and it is the least that suffices
            assert named <= most
            with pytest.raises(NonConvergenceError):
                ncx2diff_pdf(x, q, SeriesControl(max_terms=named - 1))

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(1, 6), rho=st.floats(-0.999, 0.999),
           log_s=st.floats(-2.0, 2.0), split=st.floats(0.0, 1.0),
           a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0),
           u=st.floats(-1.0, 1.0).filter(lambda u: u != 0.0))
    # within 3e-4 of 0 for n = 2 CF inversion raised
    @example(n=2, rho=0.311, log_s=0.0, split=0.0, a=-1.912, b=-1.088, u=0.3)
    def test_sum_density_near_zero(self, n, rho, log_s, split, a, b, u):
        # S_n within 1e-3 of 0, where CF inversion raised or was wrong,
        # against the 40-digit convolution of its representation: within
        # 1e-10, relatively where the density exceeds 1, or the budget
        # error names a max_terms at which it does. sigma_x sigma_y = e^log_s,
        # split between the two; a and b are the standardised means
        sx, sy = math.exp(split * log_s), math.exp((1.0 - split) * log_s)
        p = ProductNormalParams(a * sx, b * sy, sx, sy, rho, n)
        x = u * 1e-3
        try:
            v = ncx2diff_pdf(x, p)
        except NonConvergenceError as exc:
            assert exc.max_terms > DEFAULT_CONTROL.max_terms
            v = ncx2diff_pdf(x, p, SeriesControl(max_terms=exc.max_terms))
        ref = mp_sum_pdf(x, p)
        assert abs(v - ref) <= 1e-10 * max(1.0, abs(ref))

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    @pytest.mark.parametrize("n", [1, 3])
    def test_degenerate_rho_is_a_shifted_ncx2(self, rho, n):
        # S_n = c chi'^2_n(lambda) + shift, on one side of the shift only
        p = ProductNormalParams(0.7, -1.3, 1.5, 0.6, rho, n)
        q = to_chisq_diff(p)
        c, lam = (q.scale_plus, q.lambda_plus) if rho > 0 else (q.scale_minus, q.lambda_minus)
        for v in (0.05, 0.7, 3.0, 12.0):
            x = q.shift + rho * c * v
            ref = stats.ncx2.pdf(rho * (x - q.shift) / c, n, lam) / c
            assert ncx2diff_pdf(x, p) == pytest.approx(ref, rel=1e-12)
            assert ncx2diff_pdf(q.shift - rho * c * v, p) == 0.0

    @pytest.mark.parametrize("r,x,k,ref", DIAGONAL_REFERENCE)
    def test_diagonal_recurrence(self, r, x, k, ref):
        # seeds up to k0 = max(1, ceil x), then the Kummer-transformed
        # b-recurrence for 300 steps
        lv = _log_diagonal(x, r, max(1, math.ceil(x)) + 300)
        assert lv[k] - (r + k - 1.0) * math.log(x) == pytest.approx(ref, rel=1e-14)
