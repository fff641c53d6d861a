import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps

from snstat.core import DegenerateDataError
from snstat.changepoint import (
    classical_scan,
    classical_test,
    sn_scan,
    sn_test,
    sx,
    trimmed_range,
    variance_change_test,
)
from snstat.simgen import ErrorModel, SigmaProfile, SimModel, generate


def random_series(seed, n=64):
    return np.random.default_rng(seed).normal(size=n)


def step_model(seed, lam, n=120, theta=0.4, change_at=40):
    return SimModel(
        n=n,
        sigma=SigmaProfile("A1", n),
        error=ErrorModel("b1", theta=theta),
        seed=seed,
        lam=lam,
        change_at=change_at,
    )


class TestTrimmedRange:
    def test_defaults(self):
        assert trimmed_range(120, 0.1) == (12, 108)

    def test_rounding(self):
        assert trimmed_range(4, 0.4) == (2, 2)

    def test_bad_fraction(self):
        with pytest.raises(ValueError, match="trimming"):
            trimmed_range(100, 0.5)

    def test_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            trimmed_range(3, 0.45)


class TestSx:
    def test_hand_example(self):
        assert sx([1.0, 2.0, 3.0, 4.0], 2) == pytest.approx(-2.0)

    def test_constant_is_zero(self):
        x = np.full(10, 7.3)
        for j in range(1, 10):
            assert sx(x, j) == pytest.approx(0.0, abs=1e-12)

    def test_shift_invariance(self):
        assert sx(np.array([1.0, 2.0, 3.0, 4.0]) + 5.0, 2) == pytest.approx(-2.0)

    def test_exact_at_large_mean(self):
        # raw prefix sums of a series at mean 1e6 lost ~4e-8 of max |S_X|
        x = np.random.default_rng(1).normal(size=1201) + 1e6
        n = x.size
        prefix = np.cumsum([Fraction(v) for v in x]).tolist()
        exact = np.array(
            [float(prefix[j - 1] - Fraction(j, n) * prefix[-1]) for j in range(1, n)]
        )
        scale = np.abs(exact).max()
        got = np.array([sx(x, j) for j in range(1, n)])
        assert np.abs(got - exact).max() / scale < 1e-12
        scan = classical_scan(x, 0.1, 1.0, "t2")
        assert np.abs(scan.values - np.abs(exact[scan.j_range - 1])).max() / scale < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            sx([1.0, 2.0], 2)
        with pytest.raises(ValueError, match="out of range"):
            sx([1.0, 2.0], 0)


class TestClassicalScan:
    def test_hand_example_both_variants(self):
        x = [0.0, 2.0, 1.0, 3.0]
        t2 = classical_scan(x, 0.4, 1.0, "t2")
        assert t2.j_range.tolist() == [2]
        assert t2.max_value == pytest.approx(1.0)
        t1 = classical_scan(x, 0.4, 1.0, "t1")
        assert t1.max_value == pytest.approx(1.0 / math.sqrt(2 * 0.5))

    def test_constant_all_zero(self):
        scan = classical_scan(np.full(20, 2.0), 0.1, 1.0, "t2")
        np.testing.assert_allclose(scan.values, 0.0, atol=1e-12)

    def test_tau_scaling(self):
        x = random_series(0)
        a = classical_scan(x, 0.1, 1.0, "t1")
        b = classical_scan(x, 0.1, 2.0, "t1")
        np.testing.assert_allclose(b.values, a.values / 2.0, rtol=1e-12)
        assert a.j_hat == b.j_hat

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="tau_hat"):
            classical_scan(random_series(0), 0.1, 0.0, "t1")
        with pytest.raises(ValueError, match="variant"):
            classical_scan(random_series(0), 0.1, 1.0, "t3")

    def test_tie_breaks_to_smallest_j(self):
        # symmetric tent: |S_X| peaks equally left and right of center
        x = np.concatenate([np.ones(10), -np.ones(10)])
        scan = classical_scan(x, 0.1, 1.0, "t2")
        peak = np.isclose(scan.values, scan.max_value)
        assert scan.j_hat == scan.j_lo + int(np.argmax(peak))


class TestSnScan:
    def test_hand_example(self):
        scan = sn_scan([0.0, 2.0, 1.0, 3.0], c=0.4)
        assert scan.values.tolist() == pytest.approx([-1.0])
        assert scan.j_hat == 2
        assert scan.max_value == pytest.approx(1.0)

    def test_affine_equivariance(self):
        x = random_series(1, 100)
        base = sn_scan(x)
        pos = sn_scan(3.0 * x + 11.0)
        np.testing.assert_allclose(np.abs(pos.values), np.abs(base.values), rtol=1e-10)
        assert pos.j_hat == base.j_hat
        neg = sn_scan(-2.0 * x + 1.0)
        assert neg.j_hat == base.j_hat

    def test_constant_degenerate(self):
        with pytest.raises(DegenerateDataError, match="degenerate scan"):
            sn_scan(np.full(30, 1.5))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(20, 201))
            x = rng.normal(scale=rng.uniform(0.5, 5), size=n)
            scan = sn_scan(x)
            for i, j in enumerate(range(scan.j_lo, scan.j_hi + 1)):
                pre, suf = x[:j], x[j:]
                v1 = np.sum((pre - pre.mean()) ** 2)
                v2 = np.sum((suf - suf.mean()) ** 2)
                denom = math.sqrt((1 - j / n) ** 2 * v1 + (j / n) ** 2 * v2)
                assert scan.values[i] == pytest.approx(sx(x, j) / denom, rel=1e-10)


class TestSnTest:
    def test_overwhelming_step_detected(self):
        good = 0
        for seed in range(100):
            x = generate(step_model(seed, lam=10.0))
            rep = sn_test(x, k_n=10, B=199, seed=seed)
            good += rep.p_value < 0.01 and abs(rep.j_hat - 40) <= 5
        assert good >= 95

    def test_null_calibration_and_uniformity(self):
        pvals = []
        for seed in range(500):
            rep = sn_test(random_series(seed, 120), c=0.1, k_n=10, B=500, seed=seed)
            pvals.append(rep.p_value)
        pvals = np.array(pvals)
        rate = np.mean(pvals <= 0.05)
        assert 0.02 <= rate <= 0.09
        assert sps.kstest(pvals, "uniform").statistic < 0.08

    def test_p_value_bounds(self):
        rep = sn_test(random_series(7, 120), B=99, seed=3)
        assert 1.0 / 100.0 <= rep.p_value <= 1.0
        assert rep.bootstrap.values.size == 99

    def test_monotone_in_shift_size(self):
        lams = [0.0, 1.0, 2.0, 4.0]
        violations = comparisons = 0
        for seed in range(50):
            base = generate(step_model(seed, lam=0.0))
            prev = None
            for lam in lams:
                x = base.copy()
                x[40:] += lam
                p = sn_test(x, k_n=10, B=500, seed=seed).p_value
                if prev is not None:
                    comparisons += 1
                    violations += p > prev
                prev = p
        assert violations <= math.ceil(0.02 * comparisons)

    def test_deterministic(self):
        x = random_series(5, 120)
        a = sn_test(x, B=200, seed=11)
        b = sn_test(x, B=200, seed=11)
        assert a.p_value == b.p_value
        np.testing.assert_array_equal(a.bootstrap.values, b.bootstrap.values)


class TestClassicalTest:
    def test_constant_series_convention(self):
        rep = classical_test(np.full(40, 3.0), k_n=5, B=100)
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0

    def test_p_value_bounds_and_determinism(self):
        x = random_series(9, 120)
        a = classical_test(x, k_n=10, B=199, variant="t2", seed=4)
        b = classical_test(x, k_n=10, B=199, variant="t2", seed=4)
        assert 1.0 / 200.0 <= a.p_value <= 1.0
        assert a.p_value == b.p_value

    def test_variants_share_location_logic(self):
        x = generate(step_model(3, lam=8.0))
        t1 = classical_test(x, k_n=10, B=99, variant="t1", seed=0)
        t2 = classical_test(x, k_n=10, B=99, variant="t2", seed=0)
        for rep in (t1, t2):
            assert rep.p_value < 0.05
            assert abs(rep.j_hat - 40) <= 10


class TestVarianceChangeTest:
    def test_degenerate_transform(self):
        with pytest.raises(DegenerateDataError, match="degenerate transform"):
            variance_change_test([0.0, 2.0, 0.0, 2.0])

    def test_power_exceeds_null_rate(self):
        null_rej = alt_rej = 0
        n = 240
        for seed in range(200):
            e = np.random.default_rng(seed).standard_normal(n)
            null_x = 0.4 * e
            alt_x = np.where(np.arange(n) < n // 2, 0.2, 0.6) * e
            null_rej += variance_change_test(null_x, k_n=10, B=199, seed=seed).p_value <= 0.05
            alt_rej += variance_change_test(alt_x, k_n=10, B=199, seed=seed).p_value <= 0.05
        assert alt_rej > null_rej
