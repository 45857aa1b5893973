"""Negativity-probability tests: frozen double-series oracle values, the
published table, closed-form reductions, and structural identities."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special as sc

from ncx2diff.errors import DomainError, NonConvergenceError
from ncx2diff.params import ChiSqDiffParams, ProductNormalParams, to_chisq_diff
from ncx2diff.probability import (TABLE1_FLAGGED, TABLE1_PAPER_VALUES,
                                  TABLE1_PRINTED_SLIPS, TABLE1_RHOS,
                                  _beta_double_series,
                                  prob_nonpositive_central,
                                  prob_nonpositive_diff, prob_nonpositive_sum,
                                  table1, table1_cell_ok, table1_summary)
from ncx2diff.specfun import SeriesControl, _poisson_window


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

    def test_beta_argument_is_exact(self):
        # sigma_x sigma_y != 1: the rounded scales put c2/(c1 + c2) one ulp
        # off (1 - rho)/2, which moved P by 2.3e-17; the series takes the
        # exact argument
        rho = -0.9602985408397823
        p = ProductNormalParams(2.788546686753401, 0.9235352012030429,
                                1.5876434633477425, 0.25410095775976044, rho, 5)
        q = to_chisq_diff(p)
        assert q.scale_minus / (q.scale_plus + q.scale_minus) != (1.0 - rho) / 2.0
        series = _beta_double_series((1.0 - rho) / 2.0, 2.5, q.lambda_plus,
                                     q.lambda_minus, SeriesControl())
        assert prob_nonpositive_sum(p) == series

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
        # each end of the window is the minimal cut by scipy.stats.poisson's
        # own tails, and the weights are its pmf; the pmf formula
        # exp(k ln mu - ln k! - mu) is itself ~7e-11 off by mu = 2e4
        from scipy.stats import poisson
        # the last eight are means at which the ceiling of the continuous
        # inverse pdtrik overshoots by one (four at each tol); at
        # mu = 5684.02... poisson.isf(1.25e-13) is one below the cut its own
        # sf gives
        mus = np.concatenate([np.geomspace(1e-3, 2e4, 300),
                              np.random.default_rng(3).uniform(1e-3, 2e4, 60),
                              [0.19630729554191104, 1862.912326667865,
                               9373.416561045291, 19202.66098663789,
                               0.05389611198362863, 1417.1116371267065,
                               6290.955604954618, 19086.79595642581]])
        half = tol / 2
        for mu in mus:
            lo, w, _ = _poisson_window(mu, tol, 10 ** 6)
            hi = lo + w.size - 1
            assert poisson.sf(hi, mu) <= half < poisson.sf(hi - 1, mu), mu
            assert poisson.cdf(lo - 1, mu) <= half < poisson.cdf(lo, mu), mu
            assert lo == int(poisson.ppf(half, mu)), mu
            np.testing.assert_allclose(w, poisson.pmf(range(lo, hi + 1), mu),
                                       rtol=1e-10, err_msg=str(mu))


def test_poisson_cut_below_double_resolution():
    # 1 - tol/2 rounds to 1: the upper end is the smallest hi whose tail
    # pdtrc is at most tol/2
    for mu in (0.5, 5.0, 60.0, 1e4):
        for tol in (1e-17, 1e-24, 1e-200):
            lo, w, _ = _poisson_window(mu, tol, 10 ** 6)
            hi = lo + w.size - 1
            assert sc.pdtrc(hi, mu) <= tol / 2 < sc.pdtrc(hi - 1, mu)


# Poisson(mu) weights, (k, w_k) at nine indices per mean: 40-digit mpmath
# (scripts/generate_oracle_values.py)
POISSON_WEIGHTS = {
    1e-3: ((0, 0.9990004998333749916680554), (1, 0.0009990004998333749916680554),
           (2, 4.995002499166874958340277e-7), (3, 1.665000833055624986113426e-10),
           (4, 4.162502082639062465283564e-14), (5, 8.325004165278124930567128e-18),
           (6, 1.387500694213020821761188e-21), (7, 1.982143848875744031087411e-25),
           (8, 2.477679811094680038859264e-29)),
    0.5: ((0, 0.6065306597126334236037995), (1, 0.3032653298563167118018998),
          (2, 0.07581633246407917795047494), (3, 0.01263605541067986299174582),
          (4, 0.001579506926334982873968228), (5, 0.0001579506926334982873968228),
          (6, 0.0000131625577194581906164019), (7, 9.401826942470136154572785e-7),
          (8, 5.876141839043835096607991e-8)),
    60.0: ((13, 1.836610337312347490615771e-13), (29, 0.000003649039182380074122577918),
           (44, 0.005706722508683022892251778), (52, 0.0315898608981194313704631),
           (60, 0.05143174499034585612930658), (67, 0.03284852470605721536783329),
           (75, 0.008110789691214808814083288), (90, 0.00006368070024236788036713455),
           (106, 2.328480996548996577123079e-8)),
    4e4: ((38800, 2.569362942412363622439151e-11), (39200, 6.404916033739864827972631e-7),
          (39600, 0.0002695024605648900578835246), (39800, 0.001211874256377368896522173),
          (40000, 0.001994707246362738092464666), (40200, 0.001207841390617768761101419),
          (40400, 0.0002704023302954344467371236), (40800, 6.98484436358895067984642e-7),
          (41200, 3.574217774173892080108252e-11)),
    1e6: ((994000, 5.878066408311850958156708e-12), (996000, 1.326730592097310216611712e-7),
          (998000, 0.00005397295001136785260197312), (999000, 0.0002420514150506490063049031),
          (1000000, 0.000398942247156244029704544), (1001000, 0.0002418901012017414172259518),
          (1002000, 0.00005400894402150457141506936), (1004000, 1.349927826990363556793421e-7),
          (1006000, 6.279112019527819890762088e-12)),
}


class TestPoissonWindow:
    def test_window(self):
        for mu, tol in itertools.product((0.0, 1e-3, 0.5, 60.0, 4e4, 1e6),
                                         (1e-4, 2.5e-13, 1e-17, 2.2e-320)):
            lo, w, omitted = _poisson_window(mu, tol, 10 ** 6)
            hi = lo + w.size - 1
            below = sc.pdtr(lo - 1, mu) if lo else 0.0
            assert omitted <= tol and omitted == below + sc.pdtrc(hi, mu)
            assert below <= tol / 2 and sc.pdtrc(hi, mu) <= tol / 2
            # each end is minimal: one step inward leaves more than tol/2 out
            assert sc.pdtr(lo, mu) > tol / 2
            assert hi == lo or sc.pdtrc(hi - 1, mu) > tol / 2
            assert abs(math.fsum(w) - (1.0 - omitted)) <= 1e-15
            # the ratio recurrence, not exp(k ln mu - ln k! - mu), which is
            # 1.5e-10 off at mu = 4e4
            rel = 5e-13 if mu == 1e6 else 1e-13
            for k, want in POISSON_WEIGHTS.get(mu, ()):
                if lo <= k <= hi:
                    assert w[k - lo] == pytest.approx(want, rel=rel), (mu, tol, k)

    def test_budget_names_the_window(self):
        with pytest.raises(NonConvergenceError) as exc:
            _poisson_window(1e6, 2.5e-13, 10 ** 4)
        _, w, _ = _poisson_window(1e6, 2.5e-13, exc.value.max_terms)
        assert w.size == exc.value.max_terms > 10 ** 4


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


def _conditional_normal(mx, my, rho):
    """P(XY <= 0) for unit-variance normals with correlation |rho| < 1, as
    int phi(x - mx) P(sign Y != sign x | X = x) dx with
    Y | X = x ~ N(my + rho (x - mx), 1 - rho^2): a route independent of the
    Poisson series."""
    s = math.sqrt(1.0 - rho * rho)

    def f(x):
        below = sc.ndtr(-(my + rho * (x - mx)) / s)  # P(Y <= 0 | X = x)
        return math.exp(-0.5 * (x - mx) ** 2) * (below if x > 0 else 1.0 - below)

    # split at the sign change of x and where the conditional mean of Y
    # crosses 0, a step of width s
    lo, hi = mx - 14.0, mx + 14.0
    cuts = {lo, hi}
    for c in (0.0, mx - my / rho if rho != 0.0 else None):
        if c is not None and lo < c < hi:
            cuts.add(c)
    cuts = sorted(cuts)
    total = sum(integrate.quad(f, a, b, limit=400, epsabs=1e-15, epsrel=1e-13)[0]
                for a, b in zip(cuts, cuts[1:]))
    return total / math.sqrt(2.0 * math.pi)


@settings(max_examples=40, deadline=None)
@given(mx=st.floats(-3.0, 3.0), my=st.floats(-3.0, 3.0),
       rho=st.floats(-0.9999, 0.9999))
@example(mx=1.0, my=-1.0, rho=0.9999)
@example(mx=3.0, my=-1.0, rho=0.9999)
def test_against_conditional_normal(mx, my, rho):
    # near |rho| = 1 one noncentrality is large and its Poisson window starts
    # far above 0; the series sums from the window's lower end
    ctrl = SeriesControl()
    p = ProductNormalParams(mx, my, rho=rho, n=1)
    res = prob_nonpositive_sum(p, ctrl)
    assert res.probability == pytest.approx(_conditional_normal(mx, my, rho), abs=1e-11)
    q = to_chisq_diff(p)
    o1, o2 = (_poisson_window(lam / 2.0, ctrl.abs_tol / 4.0, ctrl.max_terms)[2]
              for lam in (q.lambda_plus, q.lambda_minus))
    assert res.tail_bound == 1.0 - (1.0 - o1) * (1.0 - o2)
    assert res.tail_bound <= ctrl.abs_tol / 2.0
