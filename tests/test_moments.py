"""Moment and cumulant tests: closed forms against dual exact routes, frozen
high-precision references, and CF log-derivatives."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncx2diff.density import char_fn_diff, char_fn_sum
from ncx2diff.errors import DomainError
from ncx2diff.moments import (_diff_moments, diff_cumulant, diff_moment,
                              diff_moment_set, ncx2_cumulant, ncx2_moment,
                              raw_from_cumulants, sum_cumulant, sum_moment,
                              sum_moment_set)
from ncx2diff.params import ChiSqDiffParams, ProductNormalParams, to_chisq_diff
from ncx2diff.selftest import finite_diff_cumulant


# The exact moments in Fraction arithmetic, the oracle of the scaled-integer
# route: both round the same rational by one int/int division, so they must
# agree to the bit.
def _ncx2_moments_fraction(kmax: int, r: float, lam: float) -> list:
    """E[V^0], ..., E[V^kmax] for V ~ chi'^2_r(lambda) as exact rationals of
    the binary floats r and lam:
    E[V^j] = 2^j sum_i C(j,i) (lam/2)^i (r/2 + i)_{j-i}, every term positive.
    """
    b, z = Fraction(r) / 2, Fraction(lam) / 2
    out = []
    for j in range(kmax + 1):
        total, rising = Fraction(0), Fraction(1)
        for i in range(j, -1, -1):  # rising = (b + i)_{j-i}
            total += math.comb(j, i) * z ** i * rising
            rising *= b + i - 1
        out.append(2 ** j * total)
    return out


def _diff_moments_fraction(kmax: int, q) -> list:
    """E[X^1], ..., E[X^kmax] for X = c1 V1 - c2 V2 + shift, the
    representation q, summed in exact rational arithmetic and rounded once."""
    m1 = _ncx2_moments_fraction(kmax, q.r, q.lambda_plus)
    m2 = _ncx2_moments_fraction(kmax, q.r, q.lambda_minus)
    m1 = [Fraction(q.scale_plus) ** j * m for j, m in enumerate(m1)]
    m2 = [Fraction(q.scale_minus) ** j * m for j, m in enumerate(m2)]
    exact = [sum(math.comb(k, j) * (-1) ** (k - j) * m1[j] * m2[k - j]
                 for j in range(k + 1))
             for k in range(kmax + 1)]
    if q.shift != 0.0:
        d = Fraction(q.shift)
        exact = [sum(math.comb(k, i) * d ** (k - i) * exact[i]
                     for i in range(k + 1))
                 for k in range(kmax + 1)]
    out = []
    for e in exact[1:]:
        try:
            out.append(float(e))
        except OverflowError:
            out.append(math.inf if e > 0 else -math.inf)
    return out


_T_PARAMS = st.builds(ChiSqDiffParams, r=st.floats(1e-3, 50.0),
                      lambda1=st.floats(0.0, 1e3), lambda2=st.floats(0.0, 1e3))
_S_PARAMS = st.builds(
    ProductNormalParams, mu_x=st.floats(-5.0, 5.0), mu_y=st.floats(-5.0, 5.0),
    sigma_x=st.floats(math.exp(-2.0), math.exp(2.0)),
    sigma_y=st.floats(math.exp(-2.0), math.exp(2.0)),
    rho=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-0.999, 0.999)),
    n=st.integers(1, 16))


class TestNcx2Moments:
    def test_frozen_oracle_values(self):
        # mpmath Kummer-form references (scripts/generate_oracle_values.py)
        assert ncx2_moment(5, 3.0, 1.2) == pytest.approx(42991.45632, rel=1e-12)
        assert ncx2_moment(10, 0.5, 4.0) == pytest.approx(
            837726115087.0986328125, rel=1e-12)

    def test_low_orders_closed_form(self):
        r, lam = 2.7, 1.9
        assert ncx2_moment(1, r, lam) == pytest.approx(r + lam, rel=1e-13)
        assert ncx2_moment(2, r, lam) == pytest.approx(
            (r + lam) ** 2 + 2 * (r + 2 * lam), rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(r=st.floats(0.2, 10.0), lam=st.floats(0.0, 15.0),
           kmax=st.integers(3, 10))
    def test_dual_route_vs_cumulant_recursion(self, r, lam, kmax):
        kappas = [ncx2_cumulant(j, r, lam) for j in range(1, kmax + 1)]
        mus = raw_from_cumulants(kappas)
        for k in range(1, kmax + 1):
            assert ncx2_moment(k, r, lam) == pytest.approx(mus[k - 1], rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            ncx2_moment(-1, 2.0, 1.0)
        with pytest.raises(DomainError):
            ncx2_moment(2, 0.0, 1.0)


class TestExactSum:
    @settings(max_examples=40, deadline=None)
    @given(params=st.one_of(_T_PARAMS, _S_PARAMS), kmax=st.integers(1, 60))
    @example(params=ChiSqDiffParams(1e-300, 1e-300, 1e-300), kmax=20)
    @example(params=ChiSqDiffParams(3.0, 500.0, 1.0), kmax=200)
    # rho = -1 and rho = 1 with sigma_x sigma_y != 1: one scale zero and a
    # nonzero shift
    @example(params=ProductNormalParams(0.7, 0.2, 1.5, 0.5, -1.0, 3), kmax=40)
    @example(params=ProductNormalParams(-1.3, 0.4, 0.3, 2.9, 1.0, 2), kmax=40)
    def test_bit_identical_to_fraction(self, params, kmax):
        q = to_chisq_diff(params)
        assert repr(_diff_moments(kmax, q)) == repr(_diff_moments_fraction(kmax, q))

    def test_subnormal_noncentrality(self):
        # lambda2 = 5e-324 = 2^-1074 puts the denominator of lambda2/2 at 2^1075
        q = to_chisq_diff(ChiSqDiffParams(3.0, 0.0, 5e-324))
        got = _diff_moments(60, q)
        assert repr(got) == repr(_diff_moments_fraction(60, q))
        assert got[0] == -5e-324

    def test_overflow_gives_signed_infinity(self):
        # E[T^k] overflows a float, with the sign of (-1)^k
        q = ChiSqDiffParams(3.0, 0.0, 1e5)
        assert sum_moment(100, q) == math.inf
        assert sum_moment(101, q) == -math.inf
        assert math.isfinite(sum_moment(60, q))


class TestOrderValidation:
    def test_integral_float_order_is_its_int(self):
        q = ChiSqDiffParams(3.0, 1.2, 0.4)
        p = ProductNormalParams(0.5, -0.3, 1.2, 0.8, 0.4, 3)
        assert sum_moment(3.0, p) == sum_moment(3, p)
        assert sum_cumulant(3.0, p) == sum_cumulant(3, p)
        assert ncx2_cumulant(3.0, 2.0, 1.0) == ncx2_cumulant(3, 2.0, 1.0)
        assert sum_moment_set(q, 20.0) == sum_moment_set(q, 20)

    @pytest.mark.parametrize("k", [4.5, -1, -2.0, math.nan, math.inf, "4"])
    def test_non_integral_order_raises(self, k):
        q = ChiSqDiffParams(3.0, 1.2, 0.4)
        with pytest.raises(DomainError):
            sum_moment(k, q)
        with pytest.raises(DomainError):
            sum_moment_set(q, k)


class TestDiffMoments:
    def test_first_moments_closed_form(self):
        q = ChiSqDiffParams(3.0, 1.2, 0.4)
        assert diff_moment(1, q) == pytest.approx(0.8, abs=1e-12)
        # kappa2 = 4(r + l1 + l2); mu'_2 = kappa2 + mu'_1^2
        assert diff_moment(2, q) == pytest.approx(4 * 4.6 + 0.64, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(r=st.floats(0.3, 8.0), l1=st.floats(0.0, 10.0),
           l2=st.floats(0.0, 10.0))
    # equal noncentralities: the odd moments vanish exactly, and a
    # floating-point alternating sum leaves ~1e-8 of roundoff
    @example(r=5.75, l1=6.75, l2=6.75)
    def test_dual_route(self, r, l1, l2):
        q = ChiSqDiffParams(r, l1, l2)
        kappas = [diff_cumulant(j, q) for j in range(1, 7)]
        mus = raw_from_cumulants(kappas)
        for k in range(1, 7):
            assert diff_moment(k, q) == pytest.approx(
                mus[k - 1], rel=1e-9, abs=1e-8)

    def test_moment_set_shape_summaries(self):
        q = ChiSqDiffParams(3.0, 1.2, 0.4)
        ms = diff_moment_set(q)
        tot = 3.0 + 1.2 + 0.4
        assert ms.variance == pytest.approx(4 * tot)
        assert ms.skewness == pytest.approx(3 * 0.8 / tot ** 1.5)
        assert ms.excess_kurtosis == pytest.approx(
            6 * (3.0 + 2 * 1.2 + 2 * 0.4) / tot ** 2)
        assert ms.central[0] == pytest.approx(0.0, abs=1e-12)
        assert ms.central[1] == pytest.approx(ms.variance)

    def test_symmetric_case_odd_moments_vanish(self):
        q = ChiSqDiffParams(2.0, 1.5, 1.5)
        assert diff_moment(1, q) == pytest.approx(0.0, abs=1e-10)
        assert diff_moment(3, q) == pytest.approx(0.0, abs=1e-8)

    def test_cf_derivative_cross_check(self):
        for q in [ChiSqDiffParams(3.0, 1.2, 0.4), ChiSqDiffParams(0.5, 4.0, 0.0)]:
            for k in range(1, 5):
                fd = finite_diff_cumulant(lambda t: char_fn_diff(t, q), k)
                assert fd == pytest.approx(diff_cumulant(k, q), rel=1e-5)


class TestSumMoments:
    def test_mean_closed_form_all_rho(self):
        for rho in [-1.0, -0.75, 0.0, 0.5, 1.0]:
            p = ProductNormalParams(0.8, -0.4, 1.3, 0.6, rho, 4)
            expect = 4 * (0.8 * -0.4 + rho * 1.3 * 0.6)
            assert sum_cumulant(1, p) == pytest.approx(expect, abs=1e-12)
            assert sum_moment(1, p) == pytest.approx(expect, abs=1e-10)

    @pytest.mark.parametrize("p", [
        ProductNormalParams(0.5, -0.3, 1.2, 0.8, 0.4, 3),
        ProductNormalParams(1.0, 1.0, 1.0, 2.0, -0.75, 2),
        ProductNormalParams(0.7, 0.2, 1.0, 1.0, 1.0, 2),
        ProductNormalParams(0.7, 0.2, 1.5, 0.5, -1.0, 1),
    ])
    def test_dual_route_including_degenerate_rho(self, p):
        kappas = [sum_cumulant(j, p) for j in range(1, 5)]
        mus = raw_from_cumulants(kappas)
        for k in range(1, 5):
            assert sum_moment(k, p) == pytest.approx(
                mus[k - 1], rel=1e-10, abs=1e-10)

    def test_cf_derivative_cross_check(self):
        for p in [ProductNormalParams(0.5, -0.3, 1.2, 0.8, 0.4, 3),
                  ProductNormalParams(1.0, 1.0, 1.0, 1.0, -0.75, 2),
                  ProductNormalParams(0.7, 0.2, 1.0, 1.0, 1.0, 2)]:
            for k in range(1, 5):
                fd = finite_diff_cumulant(lambda t: char_fn_sum(t, p), k)
                assert fd == pytest.approx(sum_cumulant(k, p),
                                           rel=1e-5, abs=1e-7)

    def test_high_order_does_not_overflow(self):
        p = ProductNormalParams(2.0, 1.0, 1.0, 1.0, 0.9, 5)
        ms = sum_moment_set(p, kmax=20)
        assert all(math.isfinite(v) for v in ms.raw)
        assert all(math.isfinite(v) for v in ms.cumulants)

    def test_symmetric_odd_moment_exactly_zero(self):
        # symmetric central case: the alternating sum of an odd raw moment
        # cancels exactly (a floating-point sum leaves 1.3e-10 at order 7)
        p = ProductNormalParams(0.0, 0.0, 1.0, 1.0, 0.0, 5)
        assert sum_moment(7, p) == 0.0
