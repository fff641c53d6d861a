import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snstat import core, inference
from snstat.changepoint import sn_test, variance_change_test
from snstat.core import DegenerateDataError, InsufficientBlocksError
from snstat.inference import (
    _multipliers,
    bb_ci,
    block_bootstrap_mean,
    combo_ci,
    normal_quantile,
    sn_ci,
    st_ci,
    wb_ci,
    wild_bootstrap_mean,
)
from snstat.lrv import _block_means, _tau_sq_selfnorm_rows, _tau_sq_stationary_rows
from snstat.regression import fit_trend, trend_ci
from snstat.rng import stream
from snstat.simgen import ErrorModel, SigmaProfile, SimModel, generate


def random_series(seed, n=64):
    return np.random.default_rng(seed).normal(size=n)


Z975 = normal_quantile(0.975)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_known_value(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_symmetry(self):
        assert normal_quantile(0.1) == pytest.approx(-normal_quantile(0.9), rel=1e-12)

    def test_matches_ndtri_in_both_tails(self):
        # scipy is a test-only reference: the package draws its quantile from the standard library
        from scipy.special import ndtri

        tail = 10.0 ** -np.arange(1, 301, 0.5)
        grid = np.concatenate([tail, np.linspace(0.01, 0.99, 197), 1 - tail[tail >= 1e-16]])
        got = np.array([normal_quantile(float(p)) for p in grid])
        np.testing.assert_allclose(got, ndtri(grid), rtol=2e-15, atol=0)

    def test_endpoints_are_infinite(self):
        assert normal_quantile(0.0) == -math.inf
        assert normal_quantile(1.0) == math.inf

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
    def test_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match="^p must be in"):
            normal_quantile(p)


class TestSnCi:
    def test_hand_example(self):
        ci = sn_ci([0.0, 2.0, 2.0, 4.0], 0.05, 2)
        # tau = sqrt(2), V_n = sqrt(8): half-width z * sqrt(16) / 4 = z
        assert ci.point == pytest.approx(2.0)
        assert ci.lower == pytest.approx(2.0 - Z975, rel=1e-12)
        assert ci.upper == pytest.approx(2.0 + Z975, rel=1e-12)
        assert ci.method == "sn"
        assert ci.tau_hat == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_alpha_one_collapses_to_point(self):
        ci = sn_ci([0.0, 2.0, 2.0, 4.0], 1.0, 2)
        assert ci.lower == ci.point == ci.upper == 2.0

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError, match="alpha"):
            sn_ci([0.0, 2.0, 2.0, 4.0], 0.0, 2)
        with pytest.raises(ValueError, match="alpha"):
            sn_ci([0.0, 2.0, 2.0, 4.0], 1.5, 2)

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateDataError):
            sn_ci(np.full(8, 1.0), 0.05, 2)

    def test_symmetric_about_point(self):
        ci = sn_ci(random_series(3), 0.10, 8)
        assert ci.upper - ci.point == pytest.approx(ci.point - ci.lower, rel=1e-12)
        assert ci.covers(ci.point)

    def test_iid_gaussian_coverage(self):
        hits = 0
        reps = 1000
        for r in range(reps):
            ci = sn_ci(random_series(r, 240), 0.05, 15)
            hits += ci.covers(0.0)
        assert 0.925 <= hits / reps <= 0.975


class TestComboCi:
    def test_single_segment_reduces_to_sn_ci(self):
        x = random_series(9, 80)
        base = sn_ci(x, 0.05, 8)
        combo = combo_ci([x], [1.0], 0.05, 8, tau_hat=base.tau_hat)
        assert combo.point == pytest.approx(base.point, rel=1e-12)
        assert combo.lower == pytest.approx(base.lower, rel=1e-12)
        assert combo.upper == pytest.approx(base.upper, rel=1e-12)

    def test_hand_difference_of_means(self):
        # Lambda^2 = 1/4 * 2 + 1/4 * 2 = 1 with fixed tau
        ci = combo_ci([[0.0, 2.0], [1.0, 3.0]], [-1.0, 1.0], 0.05, 1, tau_hat=1.0)
        assert ci.point == pytest.approx(1.0)
        assert ci.lower == pytest.approx(1.0 - Z975, rel=1e-12)
        assert ci.upper == pytest.approx(1.0 + Z975, rel=1e-12)

    def test_mismatched_weights(self):
        with pytest.raises(ValueError, match="match"):
            combo_ci([[0.0, 1.0]], [1.0, 2.0], 0.05, 1)

    def test_all_zero_weights(self):
        with pytest.raises(ValueError, match="nonzero"):
            combo_ci([[0.0, 1.0], [0.0, 1.0]], [0.0, 0.0], 0.05, 1)

    def test_short_segment_rejected(self):
        with pytest.raises(ValueError, match="insufficient blocks"):
            combo_ci([random_series(0, 10)], [1.0], 0.05, 8)

    @pytest.mark.parametrize("tau_hat", [-1.0, 0.0, math.nan, math.inf, -math.inf, True, "1"])
    def test_supplied_tau_hat_must_be_finite_and_positive(self, tau_hat):
        # -1.0 used to give lower > upper, nan nan bounds, inf (-inf, inf)
        with pytest.raises(ValueError, match="^tau_hat: expected a finite number > 0"):
            combo_ci([random_series(0, 40)], [1.0], 0.05, 5, tau_hat=tau_hat)

    def test_block_length_checked_with_tau_given(self):
        with pytest.raises(InsufficientBlocksError, match="block length must be >= 1"):
            combo_ci([random_series(0, 10)], [1.0], 0.05, 0, tau_hat=1.0)

    def test_degenerate_segment(self):
        with pytest.raises(DegenerateDataError):
            combo_ci([np.full(10, 3.0)], [1.0], 0.05, 2)

    def test_pooled_tau_estimated_when_omitted(self):
        a, b = random_series(1, 60), random_series(2, 60) + 5.0
        ci = combo_ci([a, b], [1.0, 1.0], 0.05, 6)
        assert ci.tau_hat > 0
        assert ci.point == pytest.approx(a.mean() + b.mean(), rel=1e-12)


class TestWildBootstrap:
    def test_constant_multiplier_law_rejected(self):
        # alpha_i = +1 is not mean-zero: every replicate gives the same H,
        # and wb_ci collapsed to a zero-width interval
        x = random_series(4, 40)
        with pytest.raises(ValueError, match="^law: expected one of .*, got 'constant'$"):
            wild_bootstrap_mean(x, 16, 5, law="constant", seed=1)
        with pytest.raises(ValueError, match="^law: expected one of .*, got 'Constant'$"):
            wb_ci(x, 0.05, 5, B=16, law="Constant")

    @pytest.mark.parametrize(
        "run",
        [
            lambda x, law: wild_bootstrap_mean(x, 16, 10, law=law),
            lambda x, law: wb_ci(x, 0.05, 10, B=16, law=law),
            lambda x, law: sn_test(x, 0.1, 10, B=16, law=law),
            lambda x, law: variance_change_test(x, 0.1, 10, B=16, law=law),
        ],
        ids=["wild_bootstrap_mean", "wb_ci", "sn_test", "variance_change_test"],
    )
    def test_law_checked_before_any_estimate(self, run):
        # a constant series would fail its first estimate with DegenerateDataError
        with pytest.raises(ValueError, match="^law: expected one of .*, got 'bogus'$"):
            run(np.ones(120), "bogus")

    def test_law_any_letter_case(self):
        x = random_series(12, 48)
        upper = wild_bootstrap_mean(x, 50, 6, law="GAUSSIAN", seed=4).values
        lower = wild_bootstrap_mean(x, 50, 6, law="gaussian", seed=4).values
        np.testing.assert_array_equal(upper, lower)

    def test_rademacher_sign_pattern_sums(self):
        # for eps = (-1, 1) the four patterns give sums {-2, 0, 0, 2}
        eps = np.array([-1.0, 1.0])
        alpha = _multipliers(np.random.default_rng(0), "rademacher", (4000, 2))
        sums = (eps * alpha).sum(axis=1)
        assert set(np.unique(sums)) == {-2.0, 0.0, 2.0}
        assert abs(np.mean(sums == 0.0) - 0.5) < 0.05

    def test_unknown_law_rejected(self):
        with pytest.raises(ValueError, match="^law: expected one of rademacher, gaussian, got 'cauchy'$"):
            wild_bootstrap_mean(random_series(0, 20), 5, 5, law="cauchy")

    def test_scale_shift_invariance_same_seed(self):
        x = random_series(5, 60)
        base = wild_bootstrap_mean(x, 200, 6, seed=7).values
        moved = wild_bootstrap_mean(3.5 * x - 2.0, 200, 6, seed=7).values
        np.testing.assert_allclose(moved, base, rtol=1e-10)

    def test_multiplier_sums_center_at_zero(self):
        eps = random_series(6, 50) - random_series(6, 50).mean()
        alpha = _multipliers(np.random.default_rng(3), "rademacher", (2000, 50))
        s = (eps * alpha).sum(axis=1)
        assert abs(s.mean()) < 3 * s.std() / math.sqrt(2000)

    def test_replicate_count_and_finiteness(self):
        boot = wild_bootstrap_mean(random_series(8, 48), 37, 6, seed=2)
        assert boot.values.shape == (37,)
        assert np.all(np.isfinite(boot.values))

    def test_b_must_be_positive(self):
        with pytest.raises(ValueError, match="B"):
            wild_bootstrap_mean(random_series(0), 0, 8)

    @pytest.mark.parametrize("B", [10.5, np.float64(5), True, "10"])
    def test_b_must_be_an_integer(self, B):
        # a float used to fail as a NumPy TypeError, a bool to run one replicate
        x = random_series(0, 60)
        for call in (
            lambda: wb_ci(x, 0.05, 10, B=B),
            lambda: bb_ci(x, 0.05, 10, B=B),
            lambda: bb_ci(x, 0.05, 10, B=B, studentized=True),
        ):
            with pytest.raises(ValueError, match="^B: expected an integer"):
                call()

    def test_numpy_integer_b_accepted(self):
        x = random_series(0, 60)
        assert wb_ci(x, 0.05, 10, B=np.int64(30)) == wb_ci(x, 0.05, 10, B=30)

    def test_degenerate_data_hits_redraw_cap(self):
        with pytest.raises(DegenerateDataError, match="redraw cap"):
            wild_bootstrap_mean(np.ones(12), 8, 3, seed=0)

    def test_wb_ci_constant_series_fails_before_drawing(self, monkeypatch):
        draws = []
        multipliers = inference._multipliers

        def counting(rng, law, size):
            draws.append(size)
            return multipliers(rng, law, size)

        monkeypatch.setattr(inference, "_multipliers", counting)
        with pytest.raises(DegenerateDataError):
            wb_ci(np.ones(120), 0.05, 10, B=1000)
        assert draws == []

    def test_gaussian_law_supported(self):
        boot = wild_bootstrap_mean(random_series(9, 48), 50, 6, law="gaussian", seed=4)
        assert np.all(np.isfinite(boot.values))

    def test_wb_ci_brackets_point(self):
        ci = wb_ci(random_series(10, 120), 0.05, 10, B=400, seed=1)
        assert ci.lower <= ci.point <= ci.upper
        assert ci.method == "wb"

    def test_wb_ci_deterministic(self):
        x = random_series(11, 120)
        a = wb_ci(x, 0.05, 10, B=200, seed=9)
        b = wb_ci(x, 0.05, 10, B=200, seed=9)
        assert (a.lower, a.upper) == (b.lower, b.upper)


def reference_wb_stat_rows(xi, k_n):
    """The wild-bootstrap pivot of each row of a (rows, n) replicate matrix, in two passes.

    The replicate statistic as it was computed before block sums; also
    returns each row's tau^2.
    """
    n = xi.shape[1]
    s = xi.sum(axis=1)
    css = np.sum((xi - (s / n)[:, None]) ** 2, axis=1)
    tau_sq, ok = _tau_sq_selfnorm_rows(xi, k_n)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = s / (np.sqrt(tau_sq) * np.sqrt(css))
    return h, ok, tau_sq


class TestWildBootstrapKernel:
    """`inference._wb_stat_rows` against the two-pass statistic on the same multipliers."""

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
    def test_matches_two_pass_statistic(self, law, k, l_n, extra, tile, log_level, seed):
        n = l_n * k + extra % k
        rng = np.random.default_rng(seed)
        level = 10.0**log_level
        if tile:  # +-v: every block of a Rademacher replicate can repeat one value
            x = np.tile([level, -level], n)[:n]
        else:
            x = level + rng.normal(size=n) * np.linspace(1.0, 3.0, n)
        eps = x - x.mean()
        alpha = inference._multipliers(rng, law, (64, n))
        h_ref, ok_ref, tau_sq = reference_wb_stat_rows(eps * alpha, k)
        h, ok = inference._wb_stat_rows(eps, k, law)(alpha)
        np.testing.assert_array_equal(ok, ok_ref)
        # where every block mean equals the row mean, tau^2 = 0 and h = 0/0:
        # both kernels give rounding noise, inf or nan there
        rows = ok & (tau_sq > 1e-12)
        assert np.array_equal(np.isfinite(h[rows]), np.isfinite(h_ref[rows]))
        rows &= np.isfinite(h_ref)
        assert np.all(np.abs(h[rows] - h_ref[rows]) <= 1e-10 * np.maximum(1.0, np.abs(h_ref[rows])))

    def test_blocks_of_one_sign_at_a_high_level_are_recomputed(self):
        # halves at +-1e8: a block whose signs all agree with eps's is 1e8 plus
        # noise, and BQ - bs^2 / k loses every digit of its css
        k, n = 4, 40
        rng = np.random.default_rng(5)
        x = np.repeat([1e8, -1e8], n // 2) + rng.normal(size=n)
        eps = x - x.mean()
        alpha = inference._multipliers(rng, "rademacher", (64, n))
        h_ref, ok_ref, _ = reference_wb_stat_rows(eps * alpha, k)
        h, ok = inference._wb_stat_rows(eps, k, "rademacher")(alpha)
        xi = (eps * alpha).reshape(64, n // k, k)
        one_sign = np.all(np.sign(xi) == np.sign(xi[..., :1]), axis=2)
        assert one_sign.sum() > 20
        diff_css = np.sum(xi * xi, axis=2) - xi.sum(axis=2) ** 2 / k
        exact_css = np.sum((xi - xi.mean(axis=2, keepdims=True)) ** 2, axis=2)
        assert np.max(np.abs(diff_css - exact_css)[one_sign] / exact_css[one_sign]) > 1e-3
        np.testing.assert_array_equal(ok, ok_ref)
        assert ok.all()
        # h = S / (tau V), and S cancels to 1e-17 of its terms in some rows: h is
        # held to 1e-10 of itself times the condition number of that sum
        xi = xi.reshape(64, n)
        cond = np.abs(xi).sum(axis=1) / np.abs(xi.sum(axis=1))
        assert np.all(np.abs(h - h_ref) <= 1e-10 * np.abs(h_ref) * cond)

    def test_rows_with_a_block_of_equal_values_are_not_ok(self):
        # eps = +-1e8 exactly: a block whose signs agree repeats one value
        eps = np.repeat([1e8, -1e8], 20)
        alpha = inference._multipliers(np.random.default_rng(6), "rademacher", (64, 40))
        _, ok = inference._wb_stat_rows(eps, 4, "rademacher")(alpha)
        np.testing.assert_array_equal(ok, reference_wb_stat_rows(eps * alpha, 4)[1])
        assert 0 < ok.sum() < 64

    @given(
        rows=st.integers(min_value=1, max_value=9),
        n=st.integers(min_value=1, max_value=257),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rademacher_multipliers_are_exact_integers(self, rows, n, seed):
        # one byte per sign, the stream of 0/1 bits, and the same draws after it:
        # an odd number of values leaves half a 64-bit output buffered for the
        # next 32-bit draw, so the generator states must agree in full
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        signs = _multipliers(rng, "rademacher", (rows, n))
        bits = twin.integers(0, 2, size=(rows, n))
        assert signs.dtype == np.int8
        np.testing.assert_array_equal(signs, 2 * bits - 1)
        assert rng.bit_generator.state == twin.bit_generator.state
        np.testing.assert_array_equal(rng.integers(0, 2, size=3), twin.integers(0, 2, size=3))
        assert rng.random() == twin.random()
        eps = random_series(seed, n)
        np.testing.assert_array_equal(eps * signs, eps * (2.0 * bits - 1.0))

    def test_sign_batch_holds_one_byte_per_value(self):
        # one byte per sign: a 10-row half batch at n = 10^5 holds 10^6 bytes
        tracemalloc.start()
        try:
            signs = _multipliers(np.random.default_rng(0), "rademacher", (10, 100_000))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert signs.nbytes == 10**6
        assert held <= 2**20, held


class TestBlockBootstrap:
    def test_plain_needs_two_blocks(self):
        with pytest.raises(InsufficientBlocksError):
            block_bootstrap_mean(random_series(0, 5), 20, 5, seed=3)

    def test_enumeration_frequencies(self):
        # blocks [0,2] and [2,4]: Xbar_b in {1,2,2,3}, Xi = 2(Xbar_b - 2)
        boot = block_bootstrap_mean([0.0, 2.0, 2.0, 4.0], 4000, 2, seed=5)
        vals, counts = np.unique(boot.values, return_counts=True)
        np.testing.assert_allclose(vals, [-2.0, 0.0, 2.0])
        freq = counts / 4000
        np.testing.assert_allclose(freq, [0.25, 0.5, 0.25], atol=0.05)

    def test_remainder_excluded_from_centering(self):
        x = np.array([0.0, 2.0, 2.0, 4.0, 100.0])  # index 5 is dropped
        boot = block_bootstrap_mean(x, 500, 2, seed=6)
        assert set(np.unique(boot.values)) <= {-2.0, 0.0, 2.0}

    def test_plain_values_scale_with_data(self):
        x = random_series(7, 60)
        base = block_bootstrap_mean(x, 100, 6, seed=8).values
        scaled = block_bootstrap_mean(4.0 * x + 1.0, 100, 6, seed=8).values
        np.testing.assert_allclose(scaled, 4.0 * base, rtol=1e-10, atol=1e-12)

    def test_studentized_values_scale_invariant(self):
        x = random_series(12, 60)
        base = block_bootstrap_mean(x, 100, 6, studentized=True, seed=8).values
        moved = block_bootstrap_mean(
            0.25 * x - 7.0, 100, 6, studentized=True, seed=8
        ).values
        np.testing.assert_allclose(moved, base, rtol=1e-10)

    def test_studentized_needs_two_blocks(self):
        with pytest.raises(InsufficientBlocksError):
            block_bootstrap_mean(random_series(0, 5), 10, 5, studentized=True)

    def test_block_too_long_rejected(self):
        with pytest.raises(InsufficientBlocksError):
            block_bootstrap_mean(random_series(0, 4), 10, 9)

    def test_bb_ci_brackets_point(self):
        x = random_series(13, 120)
        plain = bb_ci(x, 0.05, 10, B=400, seed=2)
        stud = bb_ci(x, 0.05, 10, B=400, studentized=True, seed=2)
        for ci in (plain, stud):
            assert ci.lower <= ci.point <= ci.upper
        assert plain.method == "bb"
        assert stud.method == "sbb"

    def test_bb_ci_single_block_fails_before_drawing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(inference, "stream", lambda *key: calls.append(key) or stream(*key))
        for studentized in (False, True):
            with pytest.raises(InsufficientBlocksError):
                bb_ci(random_series(0, 15), 0.05, 10, B=1000, studentized=studentized)
        assert calls == []

    def test_repeated_block_is_redrawn(self):
        # l_n = 4: one replicate in 64 repeats one block; its tau^2 is 0
        # exactly, although the mean of 100 values need not round to the
        # block mean.
        for seed in range(8):
            x = random_series(seed, 120) * np.linspace(1.0, 3.0, 120) + 5.0
            boot = block_bootstrap_mean(x, 1000, 25, studentized=True, seed=0)
            assert np.max(np.abs(boot.values)) < 1e3, seed


def whole_series_block_bootstrap(x, B, k_n, studentized, seed):
    """Reference: gather every resampled series, then its mean and `_tau_sq_stationary_rows`.

    A resample whose block means are all equal is redrawn, as its tau^2
    is 0 whatever the rounding of its mean.
    """
    l_n = x.size // k_n
    n_prime = l_n * k_n
    e_star = x[:n_prime].mean()

    def stat_rows(xb):
        xi = math.sqrt(n_prime) * (xb.mean(axis=1) - e_star)
        if not studentized:
            return xi, np.ones(xi.size, dtype=bool)
        tau_sq = _tau_sq_stationary_rows(xb, k_n)[0]
        bm = _block_means(xb, k_n)[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            return xi / np.sqrt(tau_sq), np.any(bm != bm[:, :1], axis=1)

    blocks = x[:n_prime].reshape(l_n, k_n)
    rng = stream(seed, "bb", studentized)

    def draw(rows):  # rows of l_n blocks of x, drawn with replacement
        return blocks[rng.integers(0, l_n, (rows, l_n))].reshape(rows, -1)

    return inference._resample(B, n_prime, draw, stat_rows)


class TestBlockMeansMatchWholeSeries:
    """The bootstrap on gathered block means equals the whole-series one.

    Only rounding differs: a row mean is now a mean of block means. The
    difference is taken relative to the largest replicate.
    """

    @pytest.mark.parametrize("chunk", [2**12, core.CHUNK_ELEMS])
    @pytest.mark.parametrize("studentized", [False, True])
    @pytest.mark.parametrize("k", [2, 10, 25])
    @pytest.mark.parametrize("n", [5, 120, 1201, 10**4])
    def test_values(self, monkeypatch, n, k, studentized, chunk):
        monkeypatch.setattr(core, "CHUNK_ELEMS", chunk)
        x = random_series(n, n) * np.linspace(1.0, 3.0, n) + 5.0
        B = 300 if n < 10**4 else 100
        if n // k < 2:
            with pytest.raises(InsufficientBlocksError):
                block_bootstrap_mean(x, B, k, studentized=studentized, seed=2)
            return
        expected = whole_series_block_bootstrap(x, B, k, studentized, 2)
        got = block_bootstrap_mean(x, B, k, studentized=studentized, seed=2).values
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-11 * scale

    @pytest.mark.parametrize(
        "x, k", [(np.tile([1.0, 2.0, 3.0, 4.0], 30), 4), (np.tile([0.1, 0.7, 0.3], 40), 3)]
    )
    def test_equal_block_means_hit_redraw_cap(self, x, k):
        with pytest.raises(DegenerateDataError, match="redraw cap"):
            whole_series_block_bootstrap(x, 50, k, True, 0)
        with pytest.raises(DegenerateDataError, match="redraw cap"):
            block_bootstrap_mean(x, 50, k, studentized=True, seed=0)


class TestStCi:
    def test_hand_example(self):
        ci = st_ci([0.0, 2.0, 2.0, 4.0], 0.05, 2)
        # block means 1 and 3 around 2: tau^2 = 2, half-width z * sqrt(2)/2
        half = Z975 * math.sqrt(2.0) / 2.0
        assert ci.point == pytest.approx(2.0)
        assert ci.upper - ci.point == pytest.approx(half, rel=1e-12)
        assert ci.method == "st"

    def test_symmetric(self):
        ci = st_ci(random_series(2), 0.05, 8)
        assert ci.upper - ci.point == pytest.approx(ci.point - ci.lower, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5, float("nan")])
@pytest.mark.parametrize(
    "interval",
    [
        wb_ci,
        bb_ci,
        lambda x, alpha, k: bb_ci(x, alpha, k, studentized=True),
        st_ci,
        lambda x, alpha, k: combo_ci([x], [1.0], alpha, k),
    ],
    ids=["wb", "bb", "sbb", "st", "combo"],
)
def test_alpha_out_of_range_rejected(interval, alpha):
    with pytest.raises(ValueError, match="alpha must be in"):
        interval(random_series(12), alpha, 8)


@pytest.mark.parametrize(
    "interval",
    [
        sn_ci,
        st_ci,
        lambda x, alpha, k: combo_ci([x], [1.0], alpha, k),
        lambda x, alpha, k: trend_ci(fit_trend(x), "beta1", alpha, k),
    ],
    ids=["sn", "st", "combo", "trend"],
)
def test_alpha_below_double_precision_gives_whole_line(interval):
    # 1 - alpha/2 rounds to 1.0, whose normal quantile is inf
    ci = interval(random_series(12), 1e-17, 8)
    assert (ci.lower, ci.upper) == (-math.inf, math.inf)


@pytest.mark.parametrize("method", [*sorted(inference._INTERVALS), "combo", "trend"])
def test_interval_bounds_are_python_floats(method):
    x = random_series(3)
    if method == "combo":  # NumPy weights and a NumPy tau_hat still give floats
        ci = combo_ci([x, x[::-1]], np.array([0.5, -0.5]), 0.05, 8, tau_hat=np.float64(1.2))
    elif method == "trend":
        ci = trend_ci(fit_trend(x), "beta1", 0.05, 8)
    else:
        ci = inference._INTERVALS[method](x, 0.05, 8, 50, 0, "rademacher")
    assert type(ci.lower) is float and type(ci.upper) is float and type(ci.point) is float


class TestIntervalBehavior:
    def test_sn_width_shrinks_with_n(self):
        widths = {}
        for n in (120, 480):
            w = []
            for seed in range(50):
                model = SimModel(
                    n=n,
                    sigma=SigmaProfile("A2", n),
                    error=ErrorModel("b1", theta=0.4),
                    seed=seed,
                )
                ci = sn_ci(generate(model), 0.05, 10)
                w.append(ci.upper - ci.lower)
            widths[n] = float(np.median(w))
        assert widths[480] < widths[120]

    def test_sn_beats_stationary_under_strong_dependence(self):
        sn_hits = st_hits = 0
        reps = 300
        for seed in range(reps):
            model = SimModel(
                n=120,
                sigma=SigmaProfile("A1", 120),
                error=ErrorModel("b1", theta=0.8),
                seed=seed,
            )
            x = generate(model)
            sn_hits += sn_ci(x, 0.05, 10).covers(0.0)
            st_hits += st_ci(x, 0.05, 10).covers(0.0)
        assert sn_hits > st_hits
