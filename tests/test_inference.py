import math

import numpy as np
import pytest

from snstat import inference
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
        with pytest.raises(ValueError, match="too short"):
            combo_ci([random_series(0, 10)], [1.0], 0.05, 8)

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
        with pytest.raises(ValueError, match="unknown multiplier law: 'constant'"):
            wild_bootstrap_mean(x, 16, 5, law="constant", seed=1)
        with pytest.raises(ValueError, match="unknown multiplier law: 'Constant'"):
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
        with pytest.raises(ValueError, match="unknown multiplier law: 'bogus'"):
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
        with pytest.raises(ValueError, match="multiplier law"):
            _multipliers(np.random.default_rng(0), "cauchy", 5)

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


class TestBlockBootstrap:
    def test_single_block_gives_zero(self):
        boot = block_bootstrap_mean(random_series(0, 5), 20, 5, seed=3)
        np.testing.assert_array_equal(boot.values, 0.0)

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
