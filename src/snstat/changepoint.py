"""CUSUM change-point tests for the mean and variance.

Provides the classical CUSUM scans (studentized and plain), the
self-normalized scan whose denominator pools prefix/suffix variation at
each split, wild-bootstrap calibration for the self-normalized test,
block-bootstrap calibration for the classical tests, and the squared
transform that converts a variance change into a mean change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DegenerateDataError, as_series, prefix_suffix_scan, segment_stats
from .inference import BootstrapDistribution, _block_draw, _check_B, _resample, _wild_draw
from .lrv import lrv_selfnorm, lrv_stationary, _tau_sq_selfnorm_rows, _tau_sq_stationary_rows
from .rng import stream


@dataclass(frozen=True)
class CusumScan:
    """Per-split statistic values over the trimmed range [j_lo, j_hi].

    values[i] is the statistic at split j = j_lo + i. j_hat is the
    argmax of |values| (ties to the smallest j) and max_value the
    corresponding absolute value.
    """

    c: float
    j_lo: int
    j_hi: int
    values: np.ndarray
    max_value: float
    j_hat: int
    kind: str  # "sn", "t1", "t2"

    @property
    def j_range(self) -> np.ndarray:
        return np.arange(self.j_lo, self.j_hi + 1)


@dataclass(frozen=True)
class ChangePointReport:
    statistic: float
    j_hat: int
    p_value: float
    bootstrap: BootstrapDistribution
    tau_hat: float
    k_n: int
    test: str
    scan: CusumScan

    def to_dict(self) -> dict:
        return {
            "test": self.test,
            "statistic": self.statistic,
            "j_hat": self.j_hat,
            "p_value": self.p_value,
            "tau_hat": self.tau_hat,
            "k_n": self.k_n,
        }


def trimmed_range(n: int, c: float) -> tuple[int, int]:
    """Split indices [ceil(c*n), floor((1-c)*n)], clamped inside 1..n-1."""
    if not 0 < c < 0.5:
        raise ValueError(f"trimming fraction must be in (0, 1/2), got c={c}")
    j_lo = max(1, math.ceil(c * n))
    j_hi = min(n - 1, math.floor((1 - c) * n))
    if j_lo > j_hi:
        raise ValueError(f"n={n} too small for trimming c={c}")
    return j_lo, j_hi


def sx(x, j: int) -> float:
    """Weighted CUSUM contrast (1 - j/n) * sum_{i<=j} X_i - (j/n) * sum_{i>j} X_i."""
    x = as_series(x)
    n = x.size
    if not 1 <= j <= n - 1:
        raise ValueError(f"split j={j} out of range 1..{n - 1}")
    s = np.cumsum(x)
    return float(s[j - 1] - (j / n) * s[-1])


def _sx_all(x: np.ndarray) -> np.ndarray:
    """S_X(j) for every j = 1..n-1 via one prefix-sum pass."""
    s = np.cumsum(x)
    j = np.arange(1, x.size)
    return s[:-1] - (j / x.size) * s[-1]


def sn_scan(x, c: float = 0.1) -> CusumScan:
    """Self-normalized CUSUM scan in O(n).

    T(j) divides S_X(j) by the pooled prefix/suffix standard deviation
    sqrt((1-j/n)^2 V_under_j^2 + (j/n)^2 V_over_j^2), removing
    time-varying scales split by split.
    """
    x = as_series(x)
    n = x.size
    j_lo, j_hi = trimmed_range(n, c)
    scan = prefix_suffix_scan(x)
    j = np.arange(j_lo, j_hi + 1)
    w_pre = 1.0 - j / n
    w_suf = j / n
    denom_sq = w_pre**2 * scan.prefix_css[j - 1] + w_suf**2 * scan.suffix_css[j - 1]
    if np.any(denom_sq <= 0.0):
        bad = int(j[np.argmax(denom_sq <= 0.0)])
        raise DegenerateDataError(f"degenerate scan at j={bad}: zero denominator")
    values = _sx_all(x)[j - 1] / np.sqrt(denom_sq)
    i_hat = int(np.argmax(np.abs(values)))
    return CusumScan(
        c=c,
        j_lo=j_lo,
        j_hi=j_hi,
        values=values,
        max_value=float(abs(values[i_hat])),
        j_hat=j_lo + i_hat,
        kind="sn",
    )


def classical_scan(x, c: float, tau_hat: float, variant: str) -> CusumScan:
    """Classical CUSUM scan: |S_X(j)| scaled by 1/tau_hat.

    Variant "t1" additionally studentizes by sqrt(j(1 - j/n)); "t2" is
    the unweighted maximum.
    """
    x = as_series(x)
    if tau_hat <= 0:
        raise ValueError(f"tau_hat must be positive, got {tau_hat}")
    if variant not in ("t1", "t2"):
        raise ValueError(f"variant must be 't1' or 't2', got {variant!r}")
    n = x.size
    j_lo, j_hi = trimmed_range(n, c)
    j = np.arange(j_lo, j_hi + 1)
    values = np.abs(_sx_all(x)[j - 1]) / tau_hat
    if variant == "t1":
        values = values / np.sqrt(j * (1.0 - j / n))
    i_hat = int(np.argmax(values))
    return CusumScan(
        c=c,
        j_lo=j_lo,
        j_hi=j_hi,
        values=values,
        max_value=float(values[i_hat]),
        j_hat=j_lo + i_hat,
        kind=variant,
    )


def _finite_p_value(boot: np.ndarray, observed: float) -> float:
    return (1.0 + float(np.sum(boot >= observed))) / (boot.size + 1.0)


def _sn_stat_rows(xmat: np.ndarray, c: float, k_n: int):
    """Full self-normalized test pipeline applied row-wise.

    For each row: scan, locate the argmax split, center the two segments
    by their own means, estimate tau on the pooled residuals, and scale
    the max scan value. Returns (stats, ok) with ok flagging rows free of
    degeneracies.
    """
    b, n = xmat.shape
    j_lo, j_hi = trimmed_range(n, c)
    j = np.arange(j_lo, j_hi + 1, dtype=float)

    row_mean = xmat.mean(axis=1, keepdims=True)
    xc = xmat - row_mean  # css terms are shift invariant
    cs = np.cumsum(xc, axis=1)
    cq = np.cumsum(xc * xc, axis=1)
    jj = np.arange(1, n + 1, dtype=float)
    pre_css = np.maximum(cq - cs * cs / jj, 0.0)
    m = n - jj
    rs = cs[:, -1:] - cs
    rq = cq[:, -1:] - cq
    with np.errstate(divide="ignore", invalid="ignore"):
        suf_css = np.maximum(rq - rs * rs / m, 0.0)

    sel = slice(j_lo - 1, j_hi)
    w_pre = 1.0 - j / n
    w_suf = j / n
    denom_sq = w_pre**2 * pre_css[:, sel] + w_suf**2 * suf_css[:, sel]
    ok = np.all(denom_sq > 0.0, axis=1)
    sxv = cs[:, sel] - (j / n) * cs[:, -1:]  # S_X is shift covariant; shift cancels
    with np.errstate(divide="ignore", invalid="ignore"):
        t = sxv / np.sqrt(denom_sq)
    t = np.where(np.isfinite(t), t, 0.0)
    i_hat = np.argmax(np.abs(t), axis=1)
    max_t = np.abs(t[np.arange(b), i_hat])
    j_hat = j_lo + i_hat

    rows = np.arange(b)
    pre_mean = cs[rows, j_hat - 1] / j_hat
    suf_mean = (cs[rows, -1] - cs[rows, j_hat - 1]) / (n - j_hat)
    idx = np.arange(n)[None, :] < j_hat[:, None]
    eps = xc - np.where(idx, pre_mean[:, None], suf_mean[:, None])

    tau_sq, tau_ok = _tau_sq_selfnorm_rows(eps, k_n)
    ok &= tau_ok & (tau_sq > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        stats = max_t / np.sqrt(tau_sq)
    return stats, ok


def sn_statistic(x, c: float = 0.1, k_n: int = 10):
    """Observed self-normalized test statistic and its ingredients.

    Runs steps shared by the test and the power harness: scan, split at
    the argmax, center each side by its own mean, estimate tau on the
    pooled residuals, scale the max scan value. Returns
    (statistic, scan, residuals, tau_hat).
    """
    x = as_series(x)
    n = x.size
    scan = sn_scan(x, c)
    j_hat = scan.j_hat
    pre = segment_stats(x, 1, j_hat)
    suf = segment_stats(x, j_hat + 1, n)
    eps = np.concatenate([x[:j_hat] - pre.mean, x[j_hat:] - suf.mean])
    tau = math.sqrt(lrv_selfnorm(eps, k_n).tau_sq_hat)
    if tau == 0.0:
        raise DegenerateDataError("degenerate residuals: zero tau estimate")
    return scan.max_value / tau, scan, eps, tau


def classical_statistic(x, c: float, k_n: int, variant: str) -> float:
    """Classical CUSUM statistic with the stationary block tau estimate."""
    x = as_series(x)
    tau = math.sqrt(lrv_stationary(x - x.mean(), k_n).tau_sq_hat)
    if tau == 0.0:
        raise DegenerateDataError("degenerate series: zero stationary tau estimate")
    return classical_scan(x, c, tau, variant).max_value


def sn_test(
    x,
    c: float = 0.1,
    k_n: int = 10,
    B: int = 1000,
    law: str = "rademacher",
    seed: int = 0,
) -> ChangePointReport:
    """Self-normalized CUSUM test with wild-bootstrap calibration.

    The observed statistic scales the max scan value by 1/tau_hat, where
    tau_hat comes from residuals centered separately on each side of the
    estimated split. Each bootstrap replicate multiplies those residuals
    by i.i.d. signs/weights and re-runs the whole pipeline, including its
    own split estimate and tau.
    """
    statistic, scan, eps, tau = sn_statistic(x, c, k_n)
    draw = _wild_draw(stream(seed, "sn-test"), law, eps)
    out = _resample(B, eps.size, draw, lambda xi: _sn_stat_rows(xi, c, k_n))

    return ChangePointReport(
        statistic=statistic,
        j_hat=scan.j_hat,
        p_value=_finite_p_value(out, statistic),
        bootstrap=BootstrapDistribution(values=out, B=B, seed=seed),
        tau_hat=tau,
        k_n=k_n,
        test="sn",
        scan=scan,
    )


def _classical_stat_rows(xmat: np.ndarray, c: float, k_n: int, variant: str):
    """Classical CUSUM statistic row-wise, each row with its own tau."""
    b, n = xmat.shape
    j_lo, j_hi = trimmed_range(n, c)
    j = np.arange(j_lo, j_hi + 1, dtype=float)
    cs = np.cumsum(xmat, axis=1)
    sxv = np.abs(cs[:, j_lo - 1 : j_hi] - (j / n) * cs[:, -1:])
    if variant == "t1":
        sxv = sxv / np.sqrt(j * (1.0 - j / n))
    max_s = sxv.max(axis=1)
    tau_sq = _tau_sq_stationary_rows(xmat, k_n)
    ok = tau_sq > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        stats = max_s / np.sqrt(tau_sq)
    return stats, ok


def classical_test(
    x,
    c: float = 0.1,
    k_n: int = 10,
    B: int = 1000,
    variant: str = "t1",
    seed: int = 0,
) -> ChangePointReport:
    """Classical CUSUM test calibrated by the non-overlapping block bootstrap.

    The series is centered at its global mean (null-imposed centering),
    block-resampled, and the statistic recomputed with each replicate's
    own stationary tau estimate. A constant series reports statistic 0
    and p-value 1 by convention.
    """
    x = as_series(x)
    _check_B(B)
    n = x.size
    if segment_stats(x, 1, n).css == 0.0:
        j_lo, j_hi = trimmed_range(n, c)
        scan = CusumScan(c, j_lo, j_hi, np.zeros(j_hi - j_lo + 1), 0.0, j_lo, variant)
        return ChangePointReport(
            statistic=0.0,
            j_hat=j_lo,
            p_value=1.0,
            bootstrap=BootstrapDistribution(values=np.zeros(0), B=B, seed=seed),
            tau_hat=0.0,
            k_n=k_n,
            test=variant,
            scan=scan,
        )
    xc = x - x.mean()
    tau = math.sqrt(lrv_stationary(xc, k_n).tau_sq_hat)
    if tau == 0.0:
        raise DegenerateDataError("degenerate series: zero stationary tau estimate")
    scan = classical_scan(x, c, tau, variant)

    draw = _block_draw(stream(seed, "classical-test", variant), xc, k_n)
    out = _resample(
        B, n // k_n * k_n, draw, lambda xb: _classical_stat_rows(xb, c, k_n, variant)
    )

    return ChangePointReport(
        statistic=scan.max_value,
        j_hat=scan.j_hat,
        p_value=_finite_p_value(out, scan.max_value),
        bootstrap=BootstrapDistribution(values=out, B=B, seed=seed),
        tau_hat=tau,
        k_n=k_n,
        test=variant,
        scan=scan,
    )


def variance_change_test(
    x,
    c: float = 0.1,
    k_n: int = 10,
    B: int = 1000,
    law: str = "rademacher",
    seed: int = 0,
) -> ChangePointReport:
    """Test for a change point in the variances.

    A variance change in X is a mean change in (X_i - Xbar)^2, so the
    transformed series is handed to the self-normalized mean test.
    """
    x = as_series(x)
    xt = (x - x.mean()) ** 2
    if segment_stats(xt, 1, xt.size).css == 0.0:
        raise DegenerateDataError("degenerate transform: squared series is constant")
    return sn_test(xt, c=c, k_n=k_n, B=B, law=law, seed=seed)
