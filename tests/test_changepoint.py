import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from snstat import changepoint, core, inference
from snstat.core import DegenerateDataError
from snstat.changepoint import (
    _classical_stat_rows,
    _sn_stat_rows,
    classical_scan,
    classical_test,
    sn_scan,
    sn_test,
    sx,
    trimmed_range,
    variance_change_test,
)
from snstat.lrv import _tau_sq_selfnorm_rows, _tau_sq_stationary_rows
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

    @pytest.mark.parametrize("tau_hat", [math.nan, math.inf, -1.0, "1"])
    def test_tau_hat_must_be_finite_and_positive(self, tau_hat):
        # nan used to return a scan of nans
        with pytest.raises(ValueError, match="^tau_hat: expected a finite number > 0"):
            classical_scan(random_series(0), 0.1, tau_hat, "t1")

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


def reference_sn_stat_rows(xmat, c, k_n):
    """The self-normalized kernel on the whole matrix: fresh temporaries, every split scanned."""
    b, n = xmat.shape
    jf = np.arange(1, n + 1, dtype=float)
    xc = xmat - xmat.mean(axis=1, keepdims=True)
    cs = np.cumsum(xc, axis=1)
    cq = np.cumsum(xc * xc, axis=1)
    rs = cs[:, -1:] - cs
    pre_css = np.maximum(cq - cs * cs / jf, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        suf_css = np.maximum(cq[:, -1:] - cq - rs * rs / (n - jf), 0.0)
    j_lo, j_hi = trimmed_range(n, c)
    j = np.arange(j_lo, j_hi + 1)
    sel = slice(j_lo - 1, j_hi)
    denom_sq = (1.0 - j / n) ** 2 * pre_css[:, sel] + (j / n) ** 2 * suf_css[:, sel]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (cs[:, sel] - (j / n) * cs[:, -1:]) / np.sqrt(denom_sq)
    t = np.where(np.isfinite(t), t, 0.0)
    rows = np.arange(b)
    i_hat = np.argmax(np.abs(t), axis=1)
    max_t = np.abs(t[rows, i_hat])
    j_hat = j[i_hat]
    pre_mean = cs[rows, j_hat - 1] / j_hat
    suf_mean = rs[rows, j_hat - 1] / (n - j_hat)
    before = np.arange(n)[None, :] < j_hat[:, None]
    eps = xc - np.where(before, pre_mean[:, None], suf_mean[:, None])
    l_n = n // k_n
    blocks = eps[:, : l_n * k_n].reshape(b, l_n, k_n)
    bm = blocks.mean(axis=2)
    css = np.sum((blocks - bm[:, :, None]) ** 2, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = k_n * (bm - eps.mean(axis=1)[:, None]) / np.sqrt(css)
        tau_sq = np.mean(d * d, axis=1)
        stats = max_t / np.sqrt(tau_sq)
    ok = np.all(css > 0.0, axis=1) & np.all(denom_sq > 0.0, axis=1) & (tau_sq > 0.0)
    return stats, ok


class TestSnStatRows:
    @pytest.mark.parametrize("level", [0.0, 50.0])
    @pytest.mark.parametrize("c", [0.1, 0.25])
    @pytest.mark.parametrize("n", [121, 1201])
    @pytest.mark.parametrize("rows", [1, 7, 137])
    def test_slices_match_whole_matrix(self, monkeypatch, rows, n, c, level):
        rng = np.random.default_rng(rows * n)
        xmat = rng.standard_normal((rows, n)) * np.linspace(1.0, 3.0, n) + level
        xmat[rows // 2 :, n // 3 :] += 2.0  # a step in the later rows
        if rows > 1:
            xmat[1] = level + 0.1  # a constant row: not ok, statistic NaN
        expected = reference_sn_stat_rows(xmat, c, 11)
        for budget in (1, n - 1, n + 1, 2**30, core.SLICE_ELEMS):
            monkeypatch.setattr(core, "SLICE_ELEMS", budget)
            stats, ok = _sn_stat_rows(xmat, c, 11)
            np.testing.assert_array_equal(stats, expected[0], err_msg=str(budget))
            np.testing.assert_array_equal(ok, expected[1], err_msg=str(budget))

    def test_peak_memory_bounded_by_slice(self):
        # one (1000, 1200) float64 temporary alone is 9.6 MB
        xmat = np.random.default_rng(0).standard_normal((1000, 1200))
        tracemalloc.start()
        try:
            _sn_stat_rows(xmat, 0.1, 25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak


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

    def test_variant_checked_on_constant_series(self):
        with pytest.raises(ValueError, match="^variant: expected one of t1, t2, got 't3'$"):
            classical_test(np.ones(120), variant="t3")

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


def kernel_series(n, tile, log_level, rng):
    """A series at level 10**log_level: +-v tiles, or noise with a growing scale."""
    level = 10.0**log_level
    if tile:  # +-v: blocks and splits of a replicate can repeat one value
        return np.tile([level, -level], n)[:n]
    return level + rng.normal(size=n) * np.linspace(1.0, 3.0, n)


def reference_sn_rows(y, c, k_n):
    """`_sn_stat_rows` of y, each row's two largest |T(j)|, and its tau^2."""
    stats, ok = _sn_stat_rows(y, c, k_n)
    splits = changepoint._sn_splits(y.shape[1], c)
    t, _pos, xc, cs = changepoint._sn_scan_rows(y, splits)
    t = np.abs(t)
    j_hat = splits[0][np.argmax(t, axis=1)]
    tau_sq = _tau_sq_selfnorm_rows(changepoint._split_residual_rows(xc, cs, j_hat), k_n)[0]
    return stats, ok, np.sort(t, axis=1)[:, -2:], tau_sq


def assert_rows_match(stats, ok, ref, ref_ok, compare):
    """Identical ok flags, and stats within 1e-10 of max(1, |ref|) on ok rows in compare."""
    np.testing.assert_array_equal(ok[compare], ref_ok[compare])
    rows = compare & ref_ok
    assert np.array_equal(np.isfinite(stats[rows]), np.isfinite(ref[rows]))
    rows &= np.isfinite(ref)
    assert np.all(np.abs(stats[rows] - ref[rows]) <= 1e-10 * np.maximum(1.0, np.abs(ref[rows])))


def skipped_share(skipped):
    """A coarse label for the share of rows a comparison skipped."""
    share = skipped.mean()
    if share in (0.0, 1.0):
        return "none" if share == 0.0 else "all"
    return "under 1/4" if share < 0.25 else "1/4 or more"


class TestBootstrapKernels:
    """The prefix-sum bootstrap kernels against the general ones on the same draws."""

    @given(
        law=st.sampled_from(["rademacher", "gaussian"]),
        k=st.integers(min_value=2, max_value=50),
        l_n=st.integers(min_value=2, max_value=8),
        extra=st.integers(min_value=0, max_value=49),
        tile=st.booleans(),
        log_level=st.floats(min_value=0.0, max_value=8.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_sn_matches_general_kernel(self, law, k, l_n, extra, tile, log_level, seed):
        n = l_n * k + extra % k
        rng = np.random.default_rng(seed)
        x = kernel_series(n, tile, log_level, rng)
        eps = x - x.mean()
        alpha = inference._multipliers(rng, law, (64, n))
        y = eps * alpha
        ref, ref_ok, top_two, tau_sq = reference_sn_rows(y, 0.1, k)
        stats, ok = changepoint._sn_wild_rows(eps, 0.1, k, law)(alpha)
        # where the two largest scan values lie within the scan's rounding
        # bound (3 n 2^-37 relative), the kernels may pick different splits
        tied = top_two[:, 0] >= (1.0 - 3 * n * 2.0**-37) * top_two[:, 1]
        # tau^2 is 0 in exact arithmetic where every residual block sum is, as
        # with two blocks split between them: either kernel may round it to 0
        compare = ~tied & (tau_sq > 1e-12)
        assert_rows_match(stats, ok, ref, ref_ok, compare)
        event(f"sn rows skipped: {skipped_share(~compare)}")

    @given(
        variant=st.sampled_from(["t1", "t2"]),
        k=st.integers(min_value=2, max_value=50),
        l_n=st.integers(min_value=2, max_value=8),
        extra=st.integers(min_value=0, max_value=49),
        tile=st.booleans(),
        log_level=st.floats(min_value=0.0, max_value=8.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_classical_matches_general_kernel(self, variant, k, l_n, extra, tile, log_level, seed):
        n = l_n * k + extra % k
        rng = np.random.default_rng(seed)
        xc = kernel_series(n, tile, log_level, rng)
        xc = xc - xc.mean()
        idx = rng.integers(0, l_n, (64, l_n))
        series = xc[: l_n * k].reshape(l_n, k)[idx].reshape(64, -1)
        ref, ref_ok = _classical_stat_rows(series, 0.1, k, variant)
        tau_sq = _tau_sq_stationary_rows(series, k)[0]
        stats, ok = changepoint._classical_block_rows(xc, 0.1, k, variant)(idx)
        np.testing.assert_array_equal(ok, ref_ok)
        assert_rows_match(stats, ok, ref, ref_ok, tau_sq > 1e-12)
        event(f"classical rows skipped: {skipped_share(~(tau_sq > 1e-12))}")

    @pytest.mark.parametrize("variant", ["t1", "t2"])
    def test_classical_rows_do_not_depend_on_the_slicing(self, monkeypatch, variant):
        # 110 blocks of 11: a slice holds 13 replicates, so 40 rows run in 4 slices
        n, k = 1210, 11
        rng = np.random.default_rng(8)
        xc = rng.normal(size=n)
        xc -= xc.mean()
        idx = rng.integers(0, n // k, (40, n // k))
        idx[:3] = idx[:3, :1]  # one block repeated: equal block means, not ok
        stat_rows = changepoint._classical_block_rows(xc, 0.1, k, variant)
        stats, ok = stat_rows(idx)
        assert 0 < ok.sum() < 40
        one_by_one = [stat_rows(idx[i : i + 1]) for i in range(40)]
        np.testing.assert_array_equal(stats, np.concatenate([r[0] for r in one_by_one]))
        np.testing.assert_array_equal(ok, np.concatenate([r[1] for r in one_by_one]))
        monkeypatch.setattr(core, "SLICE_ELEMS", 2**30)  # the whole batch in one slice
        whole = stat_rows(idx)
        np.testing.assert_array_equal(whole[0], stats)
        np.testing.assert_array_equal(whole[1], ok)

    def test_classical_rows_peak_memory_bounded_by_slice(self):
        # at n = 10^5 a slice is one replicate: its gathered prefix sums are 0.8 MB
        n, k = 100_000, 300
        xc = np.random.default_rng(0).standard_normal(n)
        xc -= xc.mean()
        idx = np.random.default_rng(1).integers(0, n // k, (20, n // k))
        stat_rows = changepoint._classical_block_rows(xc, 0.1, k, "t1")
        tracemalloc.start()
        try:
            stat_rows(idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, peak

    def test_row_with_a_constant_prefix_runs_the_general_kernel(self, monkeypatch):
        # the first 12 splits of row 0 see one repeated value: its prefix css
        # at j = 12 is 0, under the bound, so the general kernel takes the row
        n, k = 120, 10
        eps = np.random.default_rng(3).normal(size=n)
        eps[:12] = 0.7
        alpha = inference._multipliers(np.random.default_rng(4), "rademacher", (16, n))
        alpha[0, :12] = 1
        y = eps * alpha
        ref, ref_ok = _sn_stat_rows(y, 0.1, k)
        general = []

        def counting(xmat, c, k_n):
            general.append(xmat.shape[0])
            return _sn_stat_rows(xmat, c, k_n)

        monkeypatch.setattr(changepoint, "_sn_stat_rows", counting)
        stats, ok = changepoint._sn_wild_rows(eps, 0.1, k, "rademacher")(alpha)
        assert general == [1]
        assert stats[0] == ref[0] and ok[0] == ref_ok[0]
        assert_rows_match(stats, ok, ref, ref_ok, np.ones(16, dtype=bool))

    @pytest.mark.parametrize("law", ["rademacher", "gaussian"])
    @pytest.mark.parametrize("n, k", [(10, 2), (120, 10), (1200, 25)])
    @pytest.mark.parametrize("test", [sn_test, variance_change_test])
    def test_reports_match_general_kernel(self, monkeypatch, test, n, k, law):
        x = kernel_series(n, False, 0.0, np.random.default_rng(n))
        x[n // 2 :] += 1.0
        got = test(x, 0.1, k, 200, law=law, seed=3)
        # the same draws, each replicate y = eps * alpha run by the general kernel
        monkeypatch.setattr(
            changepoint,
            "_sn_wild_rows",
            lambda eps, c, k_n, law: lambda alpha: _sn_stat_rows(eps * alpha, c, k_n),
        )
        ref = test(x, 0.1, k, 200, law=law, seed=3)
        assert (got.statistic, got.j_hat, got.p_value) == (ref.statistic, ref.j_hat, ref.p_value)
        np.testing.assert_allclose(got.bootstrap.values, ref.bootstrap.values, rtol=1e-10)
