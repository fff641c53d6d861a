"""Confidence intervals for the mean under time-varying variances.

Implements the self-normalized asymptotic interval, linear combinations
of means across periods, the wild bootstrap for the self-normalized
pivot, and the non-overlapping block bootstrap comparators (plain and
studentized) together with the stationarity-based asymptotic interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .core import (
    DegenerateDataError,
    InsufficientBlocksError,
    as_series,
    partition,
    row_chunks,
    segment_stats,
)
from .lrv import (
    lrv_selfnorm,
    lrv_stationary,
    _tau_sq_selfnorm_rows,
    _tau_sq_stationary_rows,
)
from .rng import stream

REDRAW_FACTOR = 10  # cap on total bootstrap draws, as a multiple of B


def _check_B(B: int) -> None:
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha <= 1:  # alpha = 1 collapses the interval to the point
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")


def _resample(B: int, n: int, draw, stat_rows) -> np.ndarray:
    """B good statistics of rows from draw(rows), a (rows, n) matrix.

    stat_rows(xmat) returns (values, ok); rows not ok or not finite are
    redrawn, up to REDRAW_FACTOR * B draws in total. Rounds run in
    `row_chunks` batches that use the generator in stream order, so memory
    does not grow with B and the values do not depend on the batch size.
    """
    _check_B(B)
    out = np.empty(B)
    filled = drawn = 0
    while filled < B:
        drawn += B - filled
        if drawn > REDRAW_FACTOR * B:
            raise DegenerateDataError(
                "bootstrap exceeded the redraw cap; data too degenerate"
            )
        for rows in row_chunks(B - filled, n):
            values, ok = stat_rows(draw(rows))
            good = values[ok & np.isfinite(values)]
            out[filled : filled + good.size] = good
            filled += good.size
    return out


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float
    point: float
    method: str  # "sn", "wb", "st", "bb", "sbb"
    tau_hat: float
    k_n: int

    def covers(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "level": self.level,
            "point": self.point,
            "lower": self.lower,
            "upper": self.upper,
            "tau_hat": self.tau_hat,
            "k_n": self.k_n,
        }


@dataclass(frozen=True)
class BootstrapDistribution:
    """Replicate statistics from one bootstrap run."""

    values: np.ndarray
    B: int
    seed: int


def normal_quantile(p: float) -> float:
    """Standard normal quantile (scipy's inverse CDF)."""
    return float(ndtri(p))


# law -> draw(rng, size): i.i.d. mean-zero, unit-variance wild-bootstrap multipliers
_LAWS = {
    "rademacher": lambda rng, size: rng.integers(0, 2, size=size) * 2.0 - 1.0,
    "gaussian": lambda rng, size: rng.standard_normal(size),
}


def _check_law(law: str):
    """The draw function of a multiplier law, in any letter case; ValueError if unknown."""
    if law.lower() not in _LAWS:
        raise ValueError(f"unknown multiplier law: {law!r}")
    return _LAWS[law.lower()]


def _multipliers(rng: np.random.Generator, law: str, size) -> np.ndarray:
    return _check_law(law)(rng, size)


def _wild_draw(rng: np.random.Generator, law: str, eps: np.ndarray):
    """draw(rows) for `_resample`: eps times i.i.d. multipliers, row-wise."""
    return lambda rows: eps * _multipliers(rng, law, (rows, eps.size))


def _block_draw(rng: np.random.Generator, x: np.ndarray, k_n: int):
    """draw(rows) for `_resample`: rows of n // k_n blocks of x, with replacement."""
    l_n = x.size // k_n
    blocks = x[: l_n * k_n].reshape(l_n, k_n)
    return lambda rows: blocks[rng.integers(0, l_n, (rows, l_n))].reshape(rows, -1)


def _tau_vn(x: np.ndarray, k_n: int) -> tuple[float, float]:
    """Self-normalized tau_hat and V_n = sqrt(centered sum of squares) of x."""
    tau = math.sqrt(lrv_selfnorm(x, k_n).tau_sq_hat)
    vn_sq = segment_stats(x, 1, x.size).css
    if vn_sq == 0.0:
        raise DegenerateDataError("degenerate series: zero sample variance")
    return tau, math.sqrt(vn_sq)


def sn_ci(x, alpha: float, k_n: int) -> ConfidenceInterval:
    """Self-normalized asymptotic interval Xbar +/- z * tau_hat * V_n / n."""
    x = as_series(x)
    _check_alpha(alpha)
    n = x.size
    tau, vn = _tau_vn(x, k_n)
    half = normal_quantile(1 - alpha / 2) * tau * vn / n
    xbar = float(x.mean())
    return ConfidenceInterval(xbar - half, xbar + half, 1 - alpha, xbar, "sn", tau, k_n)


def combo_ci(
    segments,
    weights,
    alpha: float,
    k_n: int,
    tau_hat: float | None = None,
) -> ConfidenceInterval:
    """Interval for a weighted combination of per-period means.

    Lambda^2 pools the per-segment sample variances scaled by the weights;
    tau_hat (unless supplied) comes from the self-normalized block
    estimator applied to the concatenation of per-segment centered series,
    assuming a common error process across periods.
    """
    _check_alpha(alpha)
    weights = np.asarray(weights, dtype=float)
    segs = [as_series(s) for s in segments]
    if len(segs) != weights.size:
        raise ValueError("number of segments and weights must match")
    if not np.any(weights != 0):
        raise ValueError("at least one weight must be nonzero")
    lam_sq = 0.0
    point = 0.0
    centered = []
    for s, w in zip(segs, weights):
        if s.size < 2 * k_n:
            raise ValueError(
                f"segment of length {s.size} too short for block length {k_n}"
            )
        st = segment_stats(s, 1, s.size)
        if st.css == 0.0:
            raise DegenerateDataError("degenerate segment: zero sample variance")
        point += w * st.mean
        lam_sq += (w * w) / (s.size**2) * st.css
        centered.append(s - st.mean)
    if tau_hat is None:
        tau_hat = math.sqrt(lrv_selfnorm(np.concatenate(centered), k_n).tau_sq_hat)
    half = normal_quantile(1 - alpha / 2) * tau_hat * math.sqrt(lam_sq)
    return ConfidenceInterval(
        point - half, point + half, 1 - alpha, point, "sn", tau_hat, k_n
    )


def wild_bootstrap_mean(
    x, B: int, k_n: int, law: str = "rademacher", seed: int = 0
) -> BootstrapDistribution:
    """Wild-bootstrap replicates of the scaled self-normalized pivot.

    Each replicate multiplies the centered data by i.i.d. mean-zero,
    unit-variance signs/weights and recomputes the self-normalized
    statistic, including its own block tau estimate. Degenerate
    replicates are redrawn, up to REDRAW_FACTOR * B total draws. Rows are
    evaluated in batches of at most max(core.CHUNK_ELEMS, n) values, so
    memory does not grow with B; the values do not depend on batch size.
    """
    x = as_series(x)
    _check_law(law)
    n = partition(x.size, k_n).n  # validates feasibility up front
    eps = x - x.mean()

    def stat_rows(xi):
        s = xi.sum(axis=1)
        css = np.sum((xi - (s / n)[:, None]) ** 2, axis=1)
        tau_sq, ok = _tau_sq_selfnorm_rows(xi, k_n)
        with np.errstate(divide="ignore", invalid="ignore"):
            h = s / (np.sqrt(tau_sq) * np.sqrt(css))
        return h, ok & (css > 0.0)

    out = _resample(B, n, _wild_draw(stream(seed, "wb"), law, eps), stat_rows)
    return BootstrapDistribution(values=out, B=B, seed=seed)


def wb_ci(
    x,
    alpha: float,
    k_n: int,
    B: int = 1000,
    law: str = "rademacher",
    seed: int = 0,
) -> ConfidenceInterval:
    """Equal-tailed quantile inversion of the wild-bootstrap pivot.

    The bootstrap distribution approximates n(Xbar - mu)/(tau * V_n), so
    mu = Xbar - h * tau_hat * V_n / n at the empirical quantiles h, with
    tau_hat estimated from the original series. tau_hat and V_n are
    checked before the bootstrap, so degenerate data fails without drawing.
    """
    x = as_series(x)
    _check_alpha(alpha)
    _check_law(law)
    n = x.size
    tau, vn = _tau_vn(x, k_n)
    boot = wild_bootstrap_mean(x, B, k_n, law=law, seed=seed)
    q_lo, q_hi = np.quantile(boot.values, [alpha / 2, 1 - alpha / 2])
    xbar = float(x.mean())
    scale = tau * vn / n
    return ConfidenceInterval(
        xbar - q_hi * scale, xbar - q_lo * scale, 1 - alpha, xbar, "wb", tau, k_n
    )


def block_bootstrap_mean(
    x, B: int, k_n: int, studentized: bool = False, seed: int = 0
) -> BootstrapDistribution:
    """Non-overlapping block bootstrap of sqrt(n')(Xbar_b - E*(Xbar_b)).

    Samples l_n blocks with replacement and pools them to n' = k_n * l_n
    values. The studentized variant divides by the stationary block tau
    estimate of the resampled series; its degenerate replicates are
    redrawn under the same cap as the wild bootstrap. Rows are evaluated
    in batches of at most max(core.CHUNK_ELEMS, n') values, so memory does
    not grow with B; the values do not depend on batch size.
    """
    x = as_series(x)
    if studentized:
        l_n = partition(x.size, k_n).l_n  # tau estimation needs >= 2 blocks
    else:
        l_n = x.size // k_n  # a single block is fine: every resample is x itself
        if l_n < 1:
            raise InsufficientBlocksError(
                f"insufficient blocks: n={x.size}, k_n={k_n}"
            )
    n_prime = l_n * k_n
    e_star = x[:n_prime].mean()

    def stat_rows(xb):
        xi = math.sqrt(n_prime) * (xb.mean(axis=1) - e_star)
        if not studentized:
            return xi, np.ones(xi.size, dtype=bool)
        tau_sq = _tau_sq_stationary_rows(xb, k_n)
        with np.errstate(divide="ignore", invalid="ignore"):
            return xi / np.sqrt(tau_sq), tau_sq > 0.0

    draw = _block_draw(stream(seed, "bb", studentized), x, k_n)
    out = _resample(B, n_prime, draw, stat_rows)
    return BootstrapDistribution(values=out, B=B, seed=seed)


def bb_ci(
    x,
    alpha: float,
    k_n: int,
    B: int = 1000,
    studentized: bool = False,
    seed: int = 0,
) -> ConfidenceInterval:
    """Block-bootstrap interval via quantile inversion of sqrt(n)(Xbar - mu).

    The studentized variant inverts the tau-scaled pivot, re-scaling by
    the stationary block tau of the original series.
    """
    x = as_series(x)
    _check_alpha(alpha)
    n = x.size
    boot = block_bootstrap_mean(x, B, k_n, studentized=studentized, seed=seed)
    tau = math.sqrt(lrv_stationary(x, k_n).tau_sq_hat)
    q_lo, q_hi = np.quantile(boot.values, [alpha / 2, 1 - alpha / 2])
    xbar = float(x.mean())
    scale = (tau if studentized else 1.0) / math.sqrt(n)
    method = "sbb" if studentized else "bb"
    return ConfidenceInterval(
        xbar - q_hi * scale, xbar - q_lo * scale, 1 - alpha, xbar, method, tau, k_n
    )


def st_ci(x, alpha: float, k_n: int) -> ConfidenceInterval:
    """Stationarity-based asymptotic interval Xbar +/- z * tau_hat / sqrt(n).

    Pretends the modulated series is stationary; kept as the comparator.
    """
    x = as_series(x)
    _check_alpha(alpha)
    n = x.size
    tau = math.sqrt(lrv_stationary(x, k_n).tau_sq_hat)
    half = normal_quantile(1 - alpha / 2) * tau / math.sqrt(n)
    xbar = float(x.mean())
    return ConfidenceInterval(xbar - half, xbar + half, 1 - alpha, xbar, "st", tau, k_n)


# method -> interval(x, alpha, k_n, B, seed, law); sn and st draw nothing
_INTERVALS = {
    "sn": lambda x, alpha, k_n, B, seed, law: sn_ci(x, alpha, k_n),
    "wb": lambda x, alpha, k_n, B, seed, law: wb_ci(x, alpha, k_n, B, law, seed),
    "st": lambda x, alpha, k_n, B, seed, law: st_ci(x, alpha, k_n),
    "bb": lambda x, alpha, k_n, B, seed, law: bb_ci(x, alpha, k_n, B, False, seed),
    "sbb": lambda x, alpha, k_n, B, seed, law: bb_ci(x, alpha, k_n, B, True, seed),
}
