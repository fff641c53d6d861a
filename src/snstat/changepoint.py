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

from .core import (
    DegenerateDataError, _centered_sums, _scan_rows, as_series, partition, segment_stats
)
from .inference import (
    BootstrapDistribution, _block_draw, _check_B, _check_law, _resample, _wild_draw
)
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


def _sx_rows(cs: np.ndarray, j: np.ndarray) -> np.ndarray:
    """S_X at the consecutive splits j of each row, from the centered prefix sums cs."""
    out = (j / cs.shape[1]) * cs[:, -1:]  # in place: a bootstrap batch is up to 16 MB
    return np.subtract(cs[:, j[0] - 1 : j[-1]], out, out=out)


def sx(x, j: int) -> float:
    """Weighted CUSUM contrast (1 - j/n) * sum_{i<=j} X_i - (j/n) * sum_{i>j} X_i.

    The B = 1 row of `_sx_rows` at the single split j.
    """
    x = as_series(x)
    n = x.size
    if not 1 <= j <= n - 1:
        raise ValueError(f"split j={j} out of range 1..{n - 1}")
    return float(_sx_rows(_centered_sums(x[None])[2], np.array([j]))[0, 0])


def _splits(n: int, c: float) -> np.ndarray:
    j_lo, j_hi = trimmed_range(n, c)
    return np.arange(j_lo, j_hi + 1)


def _scan(c: float, j: np.ndarray, values: np.ndarray, kind: str) -> CusumScan:
    """The CusumScan of one row of scan values at the splits j."""
    i_hat = int(np.argmax(np.abs(values)))
    return CusumScan(
        c=c,
        j_lo=int(j[0]),
        j_hi=int(j[-1]),
        values=values,
        max_value=float(abs(values[i_hat])),
        j_hat=int(j[i_hat]),
        kind=kind,
    )


def _sn_scan_rows(xmat: np.ndarray, c: float):
    """Self-normalized scan T(j) at the trimmed splits j of each row of a (B, n) matrix.

    T(j) divides S_X(j) by the pooled prefix/suffix standard deviation
    sqrt((1-j/n)^2 V_under_j^2 + (j/n)^2 V_over_j^2). Returns
    (t, pos, xc, cs, rs): pos flags splits with a positive denominator
    (t is 0 where it is not finite), and xc, cs, rs are the centered rows
    and their prefix and suffix sums from `core._scan_rows`.
    """
    n = xmat.shape[1]
    j = _splits(n, c)
    _mean, xc, cs, rs, pre_css, suf_css = _scan_rows(xmat)
    sel = slice(j[0] - 1, j[-1])
    denom_sq = (1.0 - j / n) ** 2 * pre_css[:, sel] + (j / n) ** 2 * suf_css[:, sel]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _sx_rows(cs, j) / np.sqrt(denom_sq)  # S_X is shift invariant
    return np.where(np.isfinite(t), t, 0.0), denom_sq > 0.0, xc, cs, rs


def _sn_scan_row(x, c: float):
    """The B = 1 row of `_sn_scan_rows` as a CusumScan, with its xc, cs and rs."""
    x = as_series(x)
    t, pos, xc, cs, rs = _sn_scan_rows(x[None], c)
    j = _splits(x.size, c)
    if not pos.all():
        bad = int(j[np.argmin(pos[0])])
        raise DegenerateDataError(f"degenerate scan at j={bad}: zero denominator")
    return _scan(c, j, t[0], "sn"), xc, cs, rs


def sn_scan(x, c: float = 0.1) -> CusumScan:
    """Self-normalized CUSUM scan in O(n), the B = 1 row of `_sn_scan_rows`.

    T(j) divides S_X(j) by the pooled prefix/suffix standard deviation
    sqrt((1-j/n)^2 V_under_j^2 + (j/n)^2 V_over_j^2), removing
    time-varying scales split by split.
    """
    return _sn_scan_row(x, c)[0]


def _cusum_rows(xmat: np.ndarray, c: float, variant: str) -> np.ndarray:
    """|S_X(j)| at the trimmed splits of each row, over sqrt(j(1 - j/n)) for "t1"."""
    n = xmat.shape[1]
    j = _splits(n, c)
    values = _sx_rows(_centered_sums(xmat)[2], j)
    np.abs(values, out=values)
    if variant == "t1":
        values /= np.sqrt(j * (1.0 - j / n))
    return values


def _check_variant(variant: str) -> None:
    if variant not in ("t1", "t2"):
        raise ValueError(f"variant must be 't1' or 't2', got {variant!r}")


def classical_scan(x, c: float, tau_hat: float, variant: str) -> CusumScan:
    """Classical CUSUM scan: |S_X(j)| scaled by 1/tau_hat.

    Variant "t1" additionally studentizes by sqrt(j(1 - j/n)); "t2" is
    the unweighted maximum. The scan is the B = 1 row of `_cusum_rows`,
    which `_classical_stat_rows` also runs.
    """
    x = as_series(x)
    if tau_hat <= 0:
        raise ValueError(f"tau_hat must be positive, got {tau_hat}")
    _check_variant(variant)
    values = _cusum_rows(x[None], c, variant)[0] / tau_hat
    return _scan(c, _splits(x.size, c), values, variant)


def _finite_p_value(boot: np.ndarray, observed: float) -> float:
    return (1.0 + float(np.sum(boot >= observed))) / (boot.size + 1.0)


def _split_residual_rows(xc, cs, rs, j_hat: np.ndarray) -> np.ndarray:
    """Each centered row minus its own mean before, and after, its split j_hat."""
    b, n = xc.shape
    rows = np.arange(b)
    pre_mean = cs[rows, j_hat - 1] / j_hat
    suf_mean = rs[rows, j_hat - 1] / (n - j_hat)
    before = np.arange(n)[None, :] < j_hat[:, None]
    return xc - np.where(before, pre_mean[:, None], suf_mean[:, None])


def _sn_stat_rows(xmat: np.ndarray, c: float, k_n: int):
    """Full self-normalized test pipeline applied row-wise.

    For each row: scan, locate the argmax split, center the two segments
    by their own means, estimate tau on the pooled residuals, and scale
    the max scan value. Returns (stats, ok) with ok flagging rows free of
    degeneracies.
    """
    t, pos, xc, cs, rs = _sn_scan_rows(xmat, c)
    i_hat = np.argmax(np.abs(t), axis=1)
    max_t = np.abs(t[np.arange(t.shape[0]), i_hat])
    eps = _split_residual_rows(xc, cs, rs, _splits(xmat.shape[1], c)[i_hat])
    tau_sq, ok = _tau_sq_selfnorm_rows(eps, k_n)
    ok &= np.all(pos, axis=1) & (tau_sq > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return max_t / np.sqrt(tau_sq), ok


def sn_statistic(x, c: float = 0.1, k_n: int = 10):
    """Observed self-normalized test statistic and its ingredients.

    The B = 1 row of `_sn_stat_rows`, run step by step so that each
    degeneracy raises: scan, split at the argmax, center each side by its
    own mean, estimate tau on the pooled residuals, scale the max scan
    value. Returns (statistic, scan, residuals, tau_hat).
    """
    scan, xc, cs, rs = _sn_scan_row(x, c)
    eps = _split_residual_rows(xc, cs, rs, np.array([scan.j_hat]))[0]
    tau = math.sqrt(lrv_selfnorm(eps, k_n).tau_sq_hat)
    if tau == 0.0:
        raise DegenerateDataError("degenerate residuals: zero tau estimate")
    return scan.max_value / tau, scan, eps, tau


def classical_statistic(x, c: float, k_n: int, variant: str) -> float:
    """Classical CUSUM statistic with the stationary block tau estimate.

    The B = 1 row of `_classical_stat_rows`.
    """
    x = as_series(x)
    _check_variant(variant)
    partition(x.size, k_n)
    stats, ok = _classical_stat_rows(x[None], c, k_n, variant)
    if not ok[0]:
        raise DegenerateDataError("degenerate series: zero stationary tau estimate")
    return float(stats[0])


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
    _check_law(law)
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
    tau_sq = _tau_sq_stationary_rows(xmat, k_n)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _cusum_rows(xmat, c, variant).max(axis=1) / np.sqrt(tau_sq), tau_sq > 0.0


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
        j = _splits(n, c)
        scan = _scan(c, j, np.zeros(j.size), variant)
        return ChangePointReport(
            statistic=0.0,
            j_hat=scan.j_hat,
            p_value=1.0,
            bootstrap=BootstrapDistribution(values=np.zeros(0), B=B, seed=seed),
            tau_hat=0.0,
            k_n=k_n,
            test=variant,
            scan=scan,
        )
    tau = math.sqrt(lrv_stationary(x, k_n).tau_sq_hat)
    if tau == 0.0:
        raise DegenerateDataError("degenerate series: zero stationary tau estimate")
    scan = classical_scan(x, c, tau, variant)

    draw = _block_draw(stream(seed, "classical-test", variant), x - x.mean(), k_n)
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
    _check_law(law)
    xt = (x - x.mean()) ** 2
    if segment_stats(xt, 1, xt.size).css == 0.0:
        raise DegenerateDataError("degenerate transform: squared series is constant")
    return sn_test(xt, c=c, k_n=k_n, B=B, law=law, seed=seed)


# method -> (test(x, c, k_n, B, seed), statistic(x, c, k_n))
_TESTS = {
    "sn": (
        lambda x, c, k_n, B, seed: sn_test(x, c, k_n, B, seed=seed),
        lambda x, c, k_n: sn_statistic(x, c, k_n)[0],
    ),
    "t1": (
        lambda x, c, k_n, B, seed: classical_test(x, c, k_n, B, "t1", seed),
        lambda x, c, k_n: classical_statistic(x, c, k_n, "t1"),
    ),
    "t2": (
        lambda x, c, k_n, B, seed: classical_test(x, c, k_n, B, "t2", seed),
        lambda x, c, k_n: classical_statistic(x, c, k_n, "t2"),
    ),
}
