"""Confidence intervals for the mean under time-varying variances.

Implements the self-normalized asymptotic interval, linear combinations
of means across periods, the wild bootstrap for the self-normalized
pivot, and the non-overlapping block bootstrap comparators (plain and
studentized) together with the stationarity-based asymptotic interval.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import core
from .core import (
    DegenerateDataError,
    _all_equal,
    _check_int,
    _choice,
    _is_real,
    _segment_css,
    as_series,
    partition,
    row_chunks,
    segment_stats,
)
from .lrv import (
    lrv_selfnorm,
    lrv_stationary,
    _block_css,
    _d_stationary,
    _mean_sq,
    _tau,
)
from .rng import stream

REDRAW_FACTOR = 10  # cap on total bootstrap draws, as a multiple of B
_STANDARD_NORMAL = NormalDist()


def _check_alpha(alpha: float) -> None:
    if not (_is_real(alpha) and 0 < alpha <= 1):  # alpha = 1 collapses the interval to the point
        raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")


def _check_tau_hat(tau_hat: float) -> None:
    """A supplied tau_hat must be a finite number > 0: it scales every bound."""
    if not (_is_real(tau_hat) and tau_hat > 0):
        raise ValueError(f"tau_hat: expected a finite number > 0, got {tau_hat!r}")


def _resample(B: int, n: int, draw, stat_rows) -> np.ndarray:
    """B good statistics of rows from draw(rows), a (rows, n) matrix.

    stat_rows(xmat) returns (values, ok); rows not ok or not finite are
    redrawn, up to REDRAW_FACTOR * B draws in total. Rounds run in
    `row_chunks` batches that use the generator in stream order, so memory
    does not grow with B and the values do not depend on the batch size.

    A round of more than one core.CHUNK_ELEMS batch runs in batches of at
    most CHUNK_ELEMS // 2 values, when that half budget holds a row. One
    helper thread draws the next half batch while this thread evaluates the
    current one, so at most two half batches, one batch's budget, are alive.
    During such a round only the helper draws, in stream order, and
    stat_rows never draws, so the values are the same as on one thread. The
    helper is created at the first such round and shut down before return,
    also on error. A round of one batch is drawn and evaluated on this
    thread: split in two, its draw competes with the kernel for the
    interpreter lock, and `sn_test` at n = 1 200, B = 1 000 ran slower.
    """
    _check_int("B", B, 1)
    out = np.empty(B)
    filled = drawn = 0
    pool = None

    def keep(batch):
        nonlocal filled
        values, ok = stat_rows(batch)
        good = values[ok & np.isfinite(values)]
        out[filled : filled + good.size] = good
        filled += good.size

    try:
        while filled < B:
            rows = B - filled
            drawn += rows
            if drawn > REDRAW_FACTOR * B:
                raise DegenerateDataError(
                    "bootstrap exceeded the redraw cap; data too degenerate"
                )
            half = core.CHUNK_ELEMS // 2
            if n <= half and rows > core.CHUNK_ELEMS // n:  # two or more batches
                if pool is None:
                    pool = ThreadPoolExecutor(1)
                sizes = list(row_chunks(rows, n, half))
                ahead = pool.submit(draw, sizes[0])
                for size in sizes[1:]:
                    batch = ahead.result()
                    ahead = pool.submit(draw, size)
                    keep(batch)
                    del batch  # before the next draw starts: two half batches at most
                keep(ahead.result())
            else:
                for size in row_chunks(rows, n):
                    keep(draw(size))
    finally:
        if pool is not None:
            pool.shutdown()
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
    """Standard normal quantile for p in [0, 1]: -inf at 0 and inf at 1, as SciPy's ndtri.

    Within 2e-15 relative of ndtri on (0, 1); any other p, NaN included, raises a ValueError.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"p must be in [0, 1], got {p!r}")
    return float(_STANDARD_NORMAL.inv_cdf(p)) if 0 < p < 1 else math.copysign(math.inf, p - 0.5)


def _rademacher(rng: np.random.Generator, size) -> np.ndarray:
    """i.i.d. +-1 signs as int8, one byte each: the top bit b of a uint32 word mapped to 2b - 1.

    rng.integers(0, 2) draws its bit as the top bit of one 32-bit word, so
    these signs, and every draw after them, are those of 2 * integers(0, 2)
    - 1. An int8 sign times a float64 value is cast exactly, so eps * signs
    equals the product with float signs, and a batch holds n bytes per row.
    """
    words = rng.integers(0, 2**32, size=size, dtype=np.uint32)
    words >>= 31
    signs = words.astype(np.int8)
    signs *= 2
    signs -= 1
    return signs


# law -> (draw(rng, size), unit): i.i.d. mean-zero, unit-variance multipliers; unit: alpha^2 = 1
_LAWS = {
    "rademacher": (_rademacher, True),
    "gaussian": (lambda rng, size: rng.standard_normal(size), False),
}


def _check_law(law: str) -> str:
    """The key of a multiplier law named in any letter case; the public entries resolve it once."""
    return _choice("law", law, _LAWS)


def _multipliers(rng: np.random.Generator, law: str, size) -> np.ndarray:
    """Multipliers of the law keyed law (see `_check_law`), shaped size."""
    return _LAWS[law][0](rng, size)


def _wb_stat_rows(eps: np.ndarray, k_n: int, law: str):
    """stat_rows(alpha) for `_resample`: the pivot h of each row of eps * alpha.

    h = S / (tau * V) for the replicate xi = eps * alpha of a (rows, n)
    multiplier batch, with S its sum, V^2 its centered sum of squares and
    tau^2 its self-normalized block estimate, as `lrv_selfnorm` defines it.
    The replicate enters only through its block sums bs = sum(alpha * eps),
    one einsum over the batch, and its block sums of squares BQ: for a law
    with alpha^2 = 1 those are eps's own, computed once per call. No
    (rows, n) float product is built.

    Each block's css comes from bs and BQ by `lrv._block_css`: a block under
    its rounding bound is recomputed from its values in two passes and
    judged by `core._segment_css`, the rule `lrv_selfnorm` raises on.
    V^2 is the sum of the block css, the between-block term and the
    remainder's squared deviations, so it loses no digits to cancellation.
    """
    n = eps.size
    part = partition(n, k_n)
    e_blocks = part.view(eps)
    e_sq = e_blocks * e_blocks
    e_rem = eps[part.covered :]
    unit = _LAWS[law][1]
    bq_unit = e_sq.sum(axis=1)

    def stat_rows(alpha):
        a_blocks = part.view(alpha)
        bs = np.einsum("rlk,lk->rl", a_blocks, e_blocks)
        bq = bq_unit if unit else np.einsum("rlk,rlk,lk->rl", a_blocks, a_blocks, e_sq)
        rem = alpha[:, part.covered :] * e_rem
        s = bs.sum(axis=1) + rem.sum(axis=1)
        mean = s / n
        css, degenerate = _block_css(bs, bq, k_n, lambda r, j: a_blocks[r, j] * e_blocks[j])
        dev = bs - k_n * mean[:, None]  # k_n (block mean - mean)
        rem -= mean[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            tau_sq = _mean_sq(dev / np.sqrt(css))
            vn_sq = css.sum(axis=1) + np.sum(dev * dev, axis=1) / k_n + np.sum(rem * rem, axis=1)
            h = s / (np.sqrt(tau_sq) * np.sqrt(vn_sq))
        return h, ~degenerate.any(axis=1)

    return stat_rows


def _tau_vn(x: np.ndarray, k_n: int) -> tuple[float, float]:
    """Self-normalized tau_hat and V_n = sqrt(centered sum of squares) of x."""
    return _tau(lrv_selfnorm(x, k_n)), math.sqrt(segment_stats(x, 1, x.size).css)


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
    if tau_hat is not None:
        _check_tau_hat(tau_hat)
    weights = list(weights)
    for w in weights:
        if not _is_real(w):
            raise ValueError(f"weights: expected finite numbers, got {w!r}")
    segs = [as_series(s) for s in segments]
    if len(segs) != len(weights):
        raise ValueError("number of segments and weights must match")
    if not any(weights):
        raise ValueError("at least one weight must be nonzero")
    lam_sq = 0.0
    point = 0.0
    centered = []
    for s, w in zip(segs, map(float, weights)):
        partition(s.size, k_n)  # two blocks per segment, also when tau_hat is given
        mean, css, flat = _segment_css(s[None])
        if flat[0]:
            raise DegenerateDataError("degenerate segment: zero sample variance")
        mean, css = float(mean[0]), float(css[0])
        point += w * mean
        lam_sq += (w * w) / (s.size**2) * css
        centered.append(s - mean)
    if tau_hat is None:
        tau_hat = _tau(lrv_selfnorm(np.concatenate(centered), k_n))
    half = normal_quantile(1 - alpha / 2) * float(tau_hat) * math.sqrt(lam_sq)
    return ConfidenceInterval(
        point - half, point + half, 1 - alpha, point, "sn", tau_hat, k_n
    )


def wild_bootstrap_mean(
    x, B: int, k_n: int, law: str = "rademacher", seed: int = 0
) -> BootstrapDistribution:
    """Wild-bootstrap replicates of the scaled self-normalized pivot.

    Each replicate multiplies the centered data by i.i.d. mean-zero,
    unit-variance signs/weights and recomputes the self-normalized
    statistic, including its own block tau estimate, from its block sums
    (`_wb_stat_rows`). Degenerate replicates are redrawn, up to
    REDRAW_FACTOR * B total draws. Multipliers are drawn in batches of at
    most max(core.CHUNK_ELEMS, n) values, so memory does not grow with B;
    the values do not depend on batch size.
    """
    x = as_series(x)
    law = _check_law(law)
    rng = stream(seed, "wb")
    stat_rows = _wb_stat_rows(x - x.mean(), k_n, law)  # an infeasible k_n fails here
    out = _resample(B, x.size, lambda rows: _multipliers(rng, law, (rows, x.size)), stat_rows)
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
    law = _check_law(law)
    n = x.size
    tau, vn = _tau_vn(x, k_n)
    boot = wild_bootstrap_mean(x, B, k_n, law=law, seed=seed)
    q_lo, q_hi = np.quantile(boot.values, [alpha / 2, 1 - alpha / 2]).tolist()
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
    values. A resample is made of whole blocks, so each replicate only
    gathers the means of its l_n chosen blocks: its mean is their mean,
    and no resampled series is built. The studentized variant divides by
    the stationary block tau estimate of the resample, taken from the
    same block means. A replicate whose block means are all equal has
    tau = 0 and is redrawn, under the same cap as the wild bootstrap.
    Both variants need at least two blocks.
    Rows of l_n block means are evaluated in batches of at most
    max(core.CHUNK_ELEMS, l_n) values, so memory does not grow with B;
    the values do not depend on batch size.
    """
    x = as_series(x)
    part = partition(x.size, k_n)
    l_n = part.l_n
    e_star = x[: part.covered].mean()
    block_means = part.view(x).mean(axis=1)
    if not isinstance(studentized, (bool, np.bool_)):
        raise ValueError(f"studentized: expected a bool, got {studentized!r}")
    rng = stream(seed, "bb", studentized)

    def draw(rows):
        return block_means[rng.integers(0, l_n, (rows, l_n))]

    def stat_rows(bm):
        means = bm.mean(axis=1)
        xi = math.sqrt(part.covered) * (means - e_star)
        if not studentized:
            return xi, np.ones(xi.size, dtype=bool)
        tau_sq = _mean_sq(_d_stationary(bm, means, k_n))
        with np.errstate(divide="ignore", invalid="ignore"):
            # equal block means make tau^2 = 0, however the row mean rounds
            return xi / np.sqrt(tau_sq), ~_all_equal(bm)

    out = _resample(B, l_n, draw, stat_rows)
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
    the stationary block tau of the original series. That tau needs two
    blocks and must not be 0 (`lrv._tau`); it is estimated first, so an
    infeasible k_n or a zero tau fails without drawing, in both variants.
    """
    x = as_series(x)
    _check_alpha(alpha)
    n = x.size
    tau = _tau(lrv_stationary(x, k_n))
    boot = block_bootstrap_mean(x, B, k_n, studentized=studentized, seed=seed)
    q_lo, q_hi = np.quantile(boot.values, [alpha / 2, 1 - alpha / 2]).tolist()
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
    tau = _tau(lrv_stationary(x, k_n))
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
