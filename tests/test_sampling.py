"""Sampler tests: reproducibility, distributional equality of the two routes,
moment agreement, degenerate-correlation structure, and export round-trips."""

import csv
import json
import math

import numpy as np
import pytest

from ncx2diff.errors import DomainError
from ncx2diff.moments import diff_cumulant, sum_cumulant
from ncx2diff.params import ChiSqDiffParams, ProductNormalParams
from ncx2diff.sampling import (export_batch, ks_two_sample, sample_diff,
                               sample_ncx2, sample_product_definitional,
                               sample_sum_via_representation)


class TestDeterminism:
    def test_bit_identical_across_runs(self):
        p = ProductNormalParams(1.0, -1.0, rho=0.25, n=2)
        a = sample_product_definitional(p, 10000, 42)
        b = sample_product_definitional(p, 10000, 42)
        assert np.array_equal(a.values, b.values)
        r1 = sample_sum_via_representation(p, 10000, 7)
        r2 = sample_sum_via_representation(p, 10000, 7)
        assert np.array_equal(r1.values, r2.values)

    @pytest.mark.parametrize("route,head,total", [
        ("definitional",
         [-2.6204772566491528, -3.4090455216014224, -0.00609309329170582,
          -2.283524039160789, -0.7680431457673184], -1573651.3912228097),
        ("representation",
         [-2.997925858594468, -7.592132907381659, -5.726916561479992,
          -0.4207121881170438, -0.019664743283373975], -1568671.7970509164),
        ("ncx2",
         [5.293744721584863, 6.021440845852358, 0.3790677818938533,
          7.73032406590161, 2.1256884388499024], 4400477.613802519),
        ("diff",
         [-3.4201153485663163, 3.8615129011115883, -19.61579753416424,
          4.310557169844893, -4.568019613072343], 838514.3709342649),
    ])
    def test_frozen_stream(self, route, head, total):
        # the stream is part of the contract: 2^20 + 3 draws cross a chunk
        # boundary, and the values must not move by one bit
        p = ProductNormalParams(1.0, -1.0, rho=0.25, n=2)
        count = (1 << 20) + 3
        batch = {
            "definitional": lambda: sample_product_definitional(p, count, 5),
            "representation": lambda: sample_sum_via_representation(p, count, 5),
            "ncx2": lambda: sample_ncx2(3.0, 1.2, count, 5),
            "diff": lambda: sample_diff(ChiSqDiffParams(3.0, 1.2, 0.4), count, 5),
        }[route]()
        assert batch.values[:5].tolist() == head
        assert math.fsum(batch.values.tolist()) == total

    def test_seed_changes_stream(self):
        p = ProductNormalParams(1.0, -1.0, rho=0.25, n=2)
        a = sample_product_definitional(p, 1000, 1)
        b = sample_product_definitional(p, 1000, 2)
        assert not np.array_equal(a.values, b.values)

    def test_batches_immutable(self):
        batch = sample_ncx2(3.0, 1.0, 100, 0)
        with pytest.raises(ValueError):
            batch.values[0] = 0.0

    def test_count_validation(self):
        with pytest.raises(DomainError):
            sample_ncx2(3.0, 1.0, 0, 0)


class TestNcx2Sampler:
    def test_moments(self):
        batch = sample_ncx2(3.0, 2.0, 10 ** 6, 1)
        se_mean = batch.values.std() / 1000
        assert batch.values.mean() == pytest.approx(5.0, abs=4 * se_mean)
        # var = 2(r + 2 lam) = 14
        assert batch.values.var() == pytest.approx(14.0, rel=0.02)

    def test_central_matches_sum_of_squares(self):
        rng = np.random.default_rng(0)
        ref = (rng.standard_normal((50000, 3)) ** 2).sum(axis=1)
        batch = sample_ncx2(3.0, 0.0, 50000, 5)
        from scipy.stats import ks_2samp
        assert ks_2samp(batch.values, ref).pvalue >= 0.01

    def test_nonnegative_support(self):
        assert sample_ncx2(0.5, 4.0, 10000, 3).values.min() >= 0.0


class TestRepresentationEquality:
    @pytest.mark.parametrize("p", [
        ProductNormalParams(1.0, -1.0, rho=0.25, n=2),
        ProductNormalParams(0.5, 0.3, 1.2, 0.8, -0.75, 1),
        ProductNormalParams(0.7, 0.2, rho=1.0, n=2),
        ProductNormalParams(0.7, 0.2, 1.5, 0.5, -1.0, 1),
        ProductNormalParams(0.0, 0.0, rho=0.0, n=3),
    ])
    def test_ks_not_rejected(self, p):
        a = sample_product_definitional(p, 50000, 11)
        b = sample_sum_via_representation(p, 50000, 12)
        _, pv = ks_two_sample(a, b)
        assert pv >= 0.01

    def test_identical_batches_ks(self):
        a = sample_ncx2(2.0, 1.0, 5000, 1)
        stat, pv = ks_two_sample(a, a)
        assert stat == 0.0 and pv == pytest.approx(1.0)

    def test_gross_separation_detected(self):
        a = sample_ncx2(2.0, 0.0, 10000, 1)
        b = sample_ncx2(2.0, 30.0, 10000, 2)
        _, pv = ks_two_sample(a, b)
        assert pv < 1e-10


class TestDegenerateRho:
    def test_rho_one_support_bound(self):
        # shift = -(n s / 4)(a - b)^2 = -2 here; S = V1 + shift >= shift
        p = ProductNormalParams(1.0, -1.0, rho=1.0, n=2)
        batch = sample_sum_via_representation(p, 50000, 9)
        assert batch.values.min() >= -2.0

    def test_rho_one_definitional_degeneracy(self):
        # Y - mu_y = (s_y/s_x)(X - mu_x) exactly: Z = XY is a function of X
        p = ProductNormalParams(0.3, 0.7, 2.0, 0.5, 1.0, 1)
        batch = sample_product_definitional(p, 10000, 4)
        # support bound: Z >= mu of the parabola min = -(s/4)(a-b)^2 + ...
        q_shift = -(2.0 * 0.5 / 4) * (0.3 / 2.0 - 0.7 / 0.5) ** 2
        assert batch.values.min() >= q_shift - 1e-12


class TestMomentAgreement:
    def test_empirical_cumulants_diff(self):
        q = ChiSqDiffParams(3.0, 1.2, 0.4)
        s = sample_diff(q, 10 ** 6, 21).values
        n = len(s)
        se1 = s.std(ddof=1) / math.sqrt(n)
        assert s.mean() == pytest.approx(diff_cumulant(1, q), abs=4 * se1)
        c2 = ((s - s.mean()) ** 2)
        assert c2.mean() == pytest.approx(diff_cumulant(2, q),
                                          abs=4 * c2.std() / math.sqrt(n))

    def test_empirical_mean_sum(self):
        p = ProductNormalParams(0.0, 0.0, rho=0.5, n=1)
        s = sample_product_definitional(p, 10 ** 6, 33).values
        assert s.mean() == pytest.approx(
            sum_cumulant(1, p), abs=4 * s.std() / 1000)


class TestExport:
    def test_round_trip(self, tmp_path):
        batch = sample_diff(ChiSqDiffParams(3.0, 1.2, 0.4), 500, 9)
        path = str(tmp_path / "batch.csv")
        export_batch(batch, path)
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            vals = np.array([float(row[0]) for row in reader])
        assert header == ["value"]
        assert np.array_equal(vals, batch.values)
        sidecar = json.load(open(path + ".json"))
        assert sidecar["seed"] == 9
        assert sidecar["route"] == "representation"
        assert sidecar["count"] == 500
