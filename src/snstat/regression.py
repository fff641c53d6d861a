"""Linear-trend model X_i = b0 + b1 * (i/n) + sigma_i * e_i.

Least-squares fit by closed form, self-normalized confidence intervals
for both coefficients, and residual-based blockwise long-run variance
estimation. The weight sequences (2n - 3i + 1) and (2i - n - 1) arise
from writing the estimation errors as linear combinations of the noise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import DegenerateDataError, _choice, _segment_css, as_series, partition
from .inference import ConfidenceInterval, _check_alpha, normal_quantile
from .lrv import LongRunEstimate, _tau

EXACT_FIT_REL_TOL = 1e-12


@dataclass(frozen=True)
class TrendFit:
    beta0_hat: float
    beta1_hat: float
    residuals: np.ndarray
    v_n0_sq: float
    v_n1_sq: float
    x_css: float  # centered sum of squares of the data, exactly 0 if it shows no variation

    @functools.cached_property
    def residual_css(self) -> float:
        """Sum of the squared residuals, computed once."""
        return float(np.sum(self.residuals**2))

    @property
    def n(self) -> int:
        return self.residuals.size


def fit_trend(x) -> TrendFit:
    """Closed-form least squares for intercept and slope on i/n.

    Also populates the squared weighted residual sums V_{n,0}^2 and
    V_{n,1}^2 entering the interval half-widths.
    """
    x = as_series(x)
    n = x.size
    i = np.arange(1, n + 1, dtype=float)
    si = i.sum()
    beta1 = (n * np.sum(i * x) - si * x.sum()) / (np.sum(i * i) - si * si / n)
    beta0 = x.mean() - beta1 * (n + 1) / (2.0 * n)
    resid = x - beta0 - beta1 * i / n
    w0 = 2.0 * n - 3.0 * i + 1.0
    w1 = 2.0 * i - n - 1.0
    _mean, x_css, flat = _segment_css(x[None])
    return TrendFit(
        beta0_hat=float(beta0),
        beta1_hat=float(beta1),
        residuals=resid,
        v_n0_sq=float(np.sum(w0 * w0 * resid * resid)),
        v_n1_sq=float(np.sum(w1 * w1 * resid * resid)),
        x_css=0.0 if flat[0] else float(x_css[0]),
    )


def _check_not_exact(fit: TrendFit) -> None:
    """Raise DegenerateDataError on a constant series or an exact line, at any scale.

    A series with no variation by `core._segment_css` has x_css 0. A line is decided
    relative to the data alone: its residual css measured 1e-31 to 1e-25 of
    x_css at scales 1e-12 to 1e8, noise's about 1.
    """
    if fit.x_css == 0.0 or fit.residual_css < EXACT_FIT_REL_TOL * fit.x_css:
        raise DegenerateDataError("exact linear fit: residuals carry no variation")


def regression_lrv(fit: TrendFit, k_n: int) -> LongRunEstimate:
    """Blockwise tau^2 from trend residuals.

    D_j sums the residuals in block j and divides by the raw (not
    block-centered) root sum of squares, unlike the mean-model estimator.
    """
    r = fit.residuals
    part = partition(r.size, k_n)
    blocks = part.view(r)
    num = blocks.sum(axis=1)
    den_sq = np.sum(blocks * blocks, axis=1)
    degenerate = np.flatnonzero(den_sq == 0.0)
    if degenerate.size:
        raise DegenerateDataError(
            f"degenerate block {degenerate[0] + 1}: zero residual sum of squares"
        )
    d = num / np.sqrt(den_sq)
    return LongRunEstimate(
        tau_sq_hat=float(np.mean(d * d)),
        k_n=part.k_n,
        l_n=part.l_n,
        d_values=d,
        method="selfnorm",
    )


def trend_ci(fit: TrendFit, which: str, alpha: float, k_n: int) -> ConfidenceInterval:
    """Self-normalized interval for the intercept ("beta0") or slope ("beta1"), in any letter case.

    Half-widths are z * tau_hat * 2 V_{n,0} / n^2 and
    z * tau_hat * 6 V_{n,1} / n^2 respectively.
    """
    which = _choice("which", which, ("beta0", "beta1"))
    _check_alpha(alpha)
    n = fit.n
    _check_not_exact(fit)
    tau = _tau(regression_lrv(fit, k_n))
    z = normal_quantile(1 - alpha / 2)
    if which == "beta0":
        point = fit.beta0_hat
        half = z * tau * 2.0 * math.sqrt(fit.v_n0_sq) / n**2
    else:
        point = fit.beta1_hat
        half = z * tau * 6.0 * math.sqrt(fit.v_n1_sq) / n**2
    return ConfidenceInterval(
        point - half, point + half, 1 - alpha, point, "sn", tau, k_n
    )
