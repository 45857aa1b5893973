"""Parameterisation bijection tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncx2diff.density import char_fn_diff, char_fn_sum, ncx2_pdf, ncx2diff_pdf
from ncx2diff.errors import DomainError, UnsupportedParameterError
from ncx2diff.moments import diff_moment, ncx2_moment, sum_moment
from ncx2diff.params import (ChiSqDiffParams, ChiSqDiffRepr, ProductNormalParams,
                             from_chisq_diff, to_chisq_diff)
from ncx2diff.probability import prob_nonpositive_diff, prob_nonpositive_sum
from ncx2diff.sampling import sample_ncx2, sample_product_definitional
from ncx2diff.specfun import SeriesControl


class TestValidation:
    def test_sigma_positive(self):
        with pytest.raises(DomainError):
            ProductNormalParams(0, 0, sigma_x=0.0)

    def test_rho_range(self):
        with pytest.raises(DomainError):
            ProductNormalParams(0, 0, rho=1.5)

    def test_n_positive_integer(self):
        with pytest.raises(DomainError):
            ProductNormalParams(0, 0, n=0)

    def test_diff_params(self):
        with pytest.raises(DomainError):
            ChiSqDiffParams(0.0)
        with pytest.raises(DomainError):
            ChiSqDiffParams(1.0, lambda1=-0.1)


NAN, INF = math.nan, math.inf


class TestNonFiniteInputs:
    @pytest.mark.parametrize("call", [
        lambda: prob_nonpositive_diff(ChiSqDiffParams(NAN, 1.0, 2.0)),
        lambda: ChiSqDiffParams(INF),
        lambda: ChiSqDiffParams(1.0, NAN),
        lambda: ChiSqDiffParams(1.0, 0.0, INF),
        lambda: ProductNormalParams(NAN, 0.0),
        lambda: ProductNormalParams(0.0, -INF),
        lambda: ProductNormalParams(0.0, 0.0, sigma_x=NAN),
        lambda: ProductNormalParams(0.0, 0.0, sigma_y=INF),
        lambda: ProductNormalParams(0.0, 0.0, n=NAN),
        lambda: ProductNormalParams(0.0, 0.0, n=INF),
        lambda: ncx2_pdf(1.0, NAN, 1.0),
        lambda: ncx2_pdf(NAN, 1.0, 1.0),
        lambda: sample_ncx2(NAN, 1.0, 5, 1),
        lambda: sample_ncx2(1.0, INF, 5, 1),
        lambda: ncx2diff_pdf(NAN, ChiSqDiffParams(2.0, 1.0, 0.5)),
        lambda: ncx2diff_pdf(INF, ChiSqDiffParams(2.0, 1.0, 0.5)),
        lambda: ncx2diff_pdf(-INF, ChiSqDiffParams(2.0, 1.0, 0.5)),
        lambda: SeriesControl(max_terms=2.5),
    ], ids=["prob-r-nan", "r-inf", "lambda1-nan", "lambda2-inf", "mu_x-nan",
            "mu_y-inf", "sigma_x-nan", "sigma_y-inf", "n-nan", "n-inf",
            "ncx2_pdf-r-nan", "ncx2_pdf-x-nan", "sample_ncx2-r-nan",
            "sample_ncx2-lambda-inf", "pdf-x-nan", "pdf-x-inf", "pdf-x-minus-inf",
            "max_terms-fraction"])
    def test_domain_error(self, call):
        with pytest.raises(DomainError):
            call()

    def test_integral_n_is_stored_as_int(self):
        p = ProductNormalParams(1.0, 1.0, n=2.0)
        assert type(p.n) is int
        assert len(sample_product_definitional(p, 3, 1).values) == 3


class TestRepresentation:
    def test_noncentralities(self):
        p = ProductNormalParams(1.0, -1.0, 2.0, 0.5, 0.25, 3)
        q = to_chisq_diff(p)
        a, b = 1.0 / 2.0, -1.0 / 0.5
        assert q.lambda_plus == pytest.approx(3 / (2 * 1.25) * (a + b) ** 2)
        assert q.lambda_minus == pytest.approx(3 / (2 * 0.75) * (a - b) ** 2)
        assert q.scale_plus == pytest.approx(1.0 * 1.25 / 2)
        assert q.scale_minus == pytest.approx(1.0 * 0.75 / 2)
        assert q.shift == 0.0
        assert q.r == 3.0

    def test_degenerate_positive(self):
        p = ProductNormalParams(1.0, -1.0, 1.0, 1.0, 1.0, 2)
        q = to_chisq_diff(p)
        assert q.scale_minus == 0.0
        assert q.lambda_plus == pytest.approx(2 * (1 - 1) ** 2 / 4)
        # shift = -(n s / 4)(a - b)^2
        assert q.shift == pytest.approx(-(2 / 4) * (1 - (-1)) ** 2)

    def test_degenerate_negative(self):
        p = ProductNormalParams(0.7, 0.2, 1.5, 0.5, -1.0, 1)
        q = to_chisq_diff(p)
        a, b = 0.7 / 1.5, 0.2 / 0.5
        assert q.scale_plus == 0.0
        assert q.lambda_minus == pytest.approx((a - b) ** 2 / 4)
        assert q.shift == pytest.approx((1.5 * 0.5 / 4) * (a + b) ** 2)

    @settings(max_examples=60, deadline=None)
    @given(sx=st.floats(math.exp(-2.0), math.exp(2.0)),
           sy=st.floats(math.exp(-2.0), math.exp(2.0)),
           rho=st.floats(-1.0, 1.0))
    def test_beta_arg_exact(self, sx, sy, rho):
        # c2/(c1 + c2) is kept as (1 - rho)/2, not taken from rounded scales;
        # at rho = +-1 that is 0 or 1
        q = to_chisq_diff(ProductNormalParams(0.3, -0.2, sx, sy, rho, 2))
        assert q.beta_arg == (1.0 - rho) / 2.0
        assert to_chisq_diff(ChiSqDiffParams(3.0, 1.0, 2.0)).beta_arg == 0.5

    def test_mean_identity(self):
        # E[S_n] = scale+ (n + lam+) - scale- (n + lam-) + shift
        # must equal n (muX muY + rho sX sY) for every rho
        for rho in [-1.0, -0.6, 0.0, 0.9, 1.0]:
            p = ProductNormalParams(0.8, -0.4, 1.3, 0.6, rho, 4)
            q = to_chisq_diff(p)
            mean = (q.scale_plus * (q.r + q.lambda_plus)
                    - q.scale_minus * (q.r + q.lambda_minus) + q.shift)
            assert mean == pytest.approx(
                4 * (0.8 * -0.4 + rho * 1.3 * 0.6), abs=1e-12)


class TestInverse:
    @settings(max_examples=60, deadline=None)
    @given(r=st.integers(1, 12), lam1=st.floats(0.0, 20.0),
           lam2=st.floats(0.0, 20.0))
    def test_round_trip(self, r, lam1, lam2):
        q = ChiSqDiffParams(float(r), lam1, lam2)
        p = from_chisq_diff(q)
        back = to_chisq_diff(p)
        # rho = 0, unit sigmas: T = 2 * (representation), so scales are 1/2
        assert back.scale_plus == pytest.approx(0.5)
        assert back.scale_minus == pytest.approx(0.5)
        assert back.r == r
        assert back.lambda_plus == pytest.approx(lam1, abs=1e-9)
        assert back.lambda_minus == pytest.approx(lam2, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(r=st.integers(1, 8), lam1=st.floats(0.0, 12.0),
           lam2=st.floats(0.0, 12.0), t=st.floats(-5.0, 5.0))
    def test_evaluators_see_t_as_twice_s(self, r, lam1, lam2, t):
        # T = 2 S_n for p = from_chisq_diff(q), evaluator by evaluator
        q = ChiSqDiffParams(float(r), lam1, lam2)
        p = from_chisq_diff(q)
        assert to_chisq_diff(q) == ChiSqDiffRepr(1.0, 1.0, q.r, lam1, lam2, 0.0)
        assert prob_nonpositive_sum(p).probability == pytest.approx(
            prob_nonpositive_diff(q).probability, abs=1e-12)
        for k in range(1, 7):
            # relative to E[(V1 + V2)^k] >= E|T^k|: odd moments may vanish
            scale = ncx2_moment(k, 2.0 * r, lam1 + lam2)
            assert abs(2 ** k * sum_moment(k, p) - diff_moment(k, q)) <= 1e-12 * scale
        assert abs(char_fn_sum(2.0 * t, p) - char_fn_diff(t, q)) <= 1e-12
        x = t / 2.0 or 0.5  # p_S(x) = 2 p_T(2x); x = 0 is singular for r = 1
        assert ncx2diff_pdf(x, p) == pytest.approx(2.0 * ncx2diff_pdf(2.0 * x, q),
                                                   rel=1e-10, abs=1e-300)

    def test_non_integer_r_rejected(self):
        with pytest.raises(UnsupportedParameterError):
            from_chisq_diff(ChiSqDiffParams(2.5, 1.0, 0.0))

    def test_dict_round_trip(self):
        p = ProductNormalParams(1.0, 2.0, 3.0, 4.0, -0.5, 7)
        assert ProductNormalParams.from_dict(p.to_dict()) == p
        q = ChiSqDiffParams(2.5, 1.0, 0.5)
        assert ChiSqDiffParams.from_dict(q.to_dict()) == q

    def test_swapped(self):
        q = ChiSqDiffParams(2.0, 1.0, 0.5)
        assert q.swapped() == ChiSqDiffParams(2.0, 0.5, 1.0)
