import numpy as np
import pytest

from snstat.core import DegenerateDataError
from snstat.regression import fit_trend, regression_lrv, trend_ci
from snstat.simgen import ErrorModel, SigmaProfile, SimModel, generate


def random_series(seed, n=64):
    return np.random.default_rng(seed).normal(size=n)


SCALES = [1e-12, 1e-8, 1e-4, 1.0, 1e4, 1e8]


class TestFitTrend:
    def test_constant_series(self):
        fit = fit_trend(np.full(10, 3.7))
        assert fit.beta1_hat == pytest.approx(0.0, abs=1e-12)
        assert fit.beta0_hat == pytest.approx(3.7)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)

    def test_two_point_hand_example(self):
        fit = fit_trend([0.0, 1.0])
        assert fit.beta1_hat == pytest.approx(2.0)
        assert fit.beta0_hat == pytest.approx(-1.0)

    def test_exact_line_recovered(self):
        n = 50
        i = np.arange(1, n + 1)
        fit = fit_trend(1.0 + i / n)
        assert fit.beta0_hat == pytest.approx(1.0, abs=1e-10)
        assert fit.beta1_hat == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-10)

    def test_residual_orthogonality(self):
        for seed in range(10):
            fit = fit_trend(random_series(seed, 80))
            i = np.arange(1, 81)
            assert abs(fit.residuals.sum()) < 1e-8
            assert abs(np.sum(i * fit.residuals)) < 1e-6

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(3, 120))
            x = rng.normal(scale=rng.uniform(0.5, 5), size=n)
            fit = fit_trend(x)
            i = np.arange(1, n + 1) / n
            design = np.column_stack([np.ones(n), i])
            beta, *_ = np.linalg.lstsq(design, x, rcond=None)
            assert fit.beta0_hat == pytest.approx(beta[0], rel=1e-10, abs=1e-10)
            assert fit.beta1_hat == pytest.approx(beta[1], rel=1e-10, abs=1e-10)

    def test_affine_equivariance(self):
        x = random_series(4, 60)
        base = fit_trend(x)
        moved = fit_trend(2.5 * x - 3.0)
        assert moved.beta1_hat == pytest.approx(2.5 * base.beta1_hat, rel=1e-10)
        assert moved.beta0_hat == pytest.approx(2.5 * base.beta0_hat - 3.0, rel=1e-10)
        np.testing.assert_allclose(moved.residuals, 2.5 * base.residuals, atol=1e-10)

    def test_slope_weights_n3(self):
        # (2i - n - 1) for n=3 is (-2, 0, 2): zero-sum, so a constant
        # residual offset cannot move V_{n,1}-weighted sums
        n = 3
        i = np.arange(1, n + 1)
        np.testing.assert_array_equal(2 * i - n - 1, [-2, 0, 2])


class TestRegressionLrv:
    def _fit_with_residuals(self, r):
        r = np.asarray(r, dtype=float)
        fit = fit_trend(random_series(0, r.size))
        return type(fit)(
            beta0_hat=fit.beta0_hat,
            beta1_hat=fit.beta1_hat,
            residuals=r,
            v_n0_sq=fit.v_n0_sq,
            v_n1_sq=fit.v_n1_sq,
            x_css=fit.x_css,
        )

    def test_alternating_blocks_give_zero(self):
        fit = self._fit_with_residuals([1.0, -1.0, 1.0, -1.0])
        assert regression_lrv(fit, 2).tau_sq_hat == pytest.approx(0.0, abs=1e-15)

    def test_hand_example(self):
        fit = self._fit_with_residuals([1.0, 1.0, -1.0, -1.0])
        est = regression_lrv(fit, 2)
        np.testing.assert_allclose(est.d_values, [np.sqrt(2), -np.sqrt(2)], rtol=1e-12)
        assert est.tau_sq_hat == pytest.approx(2.0, rel=1e-12)

    def test_degenerate_block(self):
        fit = self._fit_with_residuals([0.0, 0.0, 1.0, -1.0])
        with pytest.raises(DegenerateDataError, match="degenerate block 1"):
            regression_lrv(fit, 2)

    def test_scale_invariant(self):
        fit = fit_trend(random_series(2, 80))
        base = regression_lrv(fit, 8).tau_sq_hat
        scaled = regression_lrv(self._fit_with_residuals(5.0 * fit.residuals), 8)
        assert scaled.tau_sq_hat == pytest.approx(base, rel=1e-10)

    def test_iid_gaussian_consistency(self):
        taus = []
        for seed in range(100):
            n = 5000
            i = np.arange(1, n + 1) / n
            x = 1.0 + 2.0 * i + random_series(seed, n)
            taus.append(regression_lrv(fit_trend(x), 25).tau_sq_hat)
        assert 0.9 <= np.mean(taus) <= 1.1


class TestTrendCi:
    def test_exact_fit_degenerate(self):
        n = 40
        i = np.arange(1, n + 1) / n
        with pytest.raises(DegenerateDataError, match="exact linear fit"):
            trend_ci(fit_trend(1.0 + i), "beta1", 0.05, 5)

    def test_bad_arguments(self):
        fit = fit_trend(random_series(0, 60))
        with pytest.raises(ValueError, match="which"):
            trend_ci(fit, "beta2", 0.05, 6)
        with pytest.raises(ValueError, match="alpha must be in"):
            trend_ci(fit, "beta1", 0.0, 6)

    def test_alpha_one_gives_point_interval(self):
        ci = trend_ci(fit_trend(random_series(2, 60)), "beta0", 1.0, 6)
        assert ci.lower == ci.point == ci.upper

    def test_symmetric_and_centered(self):
        fit = fit_trend(random_series(1, 120))
        for which, point in (("beta0", fit.beta0_hat), ("beta1", fit.beta1_hat)):
            ci = trend_ci(fit, which, 0.05, 10)
            assert ci.point == pytest.approx(point)
            assert ci.upper - ci.point == pytest.approx(ci.point - ci.lower, rel=1e-12)

    # noise at 1e-8 used to fail as an exact fit: the check had an absolute floor
    @pytest.mark.parametrize("scale", SCALES)
    def test_noise_at_any_scale(self, scale):
        fit = fit_trend(scale * random_series(1, 120))
        base = fit_trend(random_series(1, 120))
        for which in ("beta0", "beta1"):
            ci = trend_ci(fit, which, 0.05, 10)
            width = trend_ci(base, which, 0.05, 10)
            assert ci.upper - ci.lower == pytest.approx(
                scale * (width.upper - width.lower), rel=1e-9
            )

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("v", [0.1, 1 / 3, 123.456])
    def test_constant_raises_at_any_scale(self, scale, v):
        with pytest.raises(DegenerateDataError, match="exact linear fit"):
            trend_ci(fit_trend(np.full(120, scale * v)), "beta0", 0.05, 10)

    @pytest.mark.parametrize("scale", SCALES)
    def test_exact_line_raises_at_any_scale(self, scale):
        i = np.arange(1, 121) / 120
        for which in ("beta0", "beta1"):
            with pytest.raises(DegenerateDataError, match="exact linear fit"):
                trend_ci(fit_trend(scale * (0.3 + 1.7 * i)), which, 0.05, 10)

    def test_width_scales_with_data(self):
        x = random_series(3, 120)
        base = trend_ci(fit_trend(x), "beta1", 0.05, 10)
        scaled = trend_ci(fit_trend(4.0 * x + 2.0), "beta1", 0.05, 10)
        assert scaled.upper - scaled.lower == pytest.approx(
            4.0 * (base.upper - base.lower), rel=1e-10
        )

    def test_slope_coverage_monte_carlo(self):
        # the residual-based tau estimate deflates by O(k/n) because the
        # fitted trend soaks up two degrees of freedom, so n=240, k=15
        # sits near 90% rather than the nominal 95%
        hits = 0
        reps = 500
        n = 240
        i = np.arange(1, n + 1) / n
        for seed in range(reps):
            model = SimModel(
                n=n, sigma=SigmaProfile("A2", n), error=ErrorModel("b1", theta=0.4), seed=seed
            )
            x = 1.0 + 2.0 * i + generate(model)
            ci = trend_ci(fit_trend(x), "beta1", 0.05, 15)
            hits += ci.covers(2.0)
        assert 0.87 <= hits / reps <= 0.94

    def test_slope_coverage_improves_with_smaller_block_ratio(self):
        hits = 0
        reps = 500
        n = 960
        i = np.arange(1, n + 1) / n
        for seed in range(reps):
            x = 1.0 + 2.0 * i + np.random.default_rng(seed).standard_normal(n)
            hits += trend_ci(fit_trend(x), "beta1", 0.05, 15).covers(2.0)
        assert 0.91 <= hits / reps <= 0.98
