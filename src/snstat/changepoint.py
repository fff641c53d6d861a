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

from . import core
from .core import (
    DegenerateDataError, _all_equal, _centered_sums, _check_int, _choice, _is_real, _scan_rows,
    as_series, partition, row_chunks,
)
from .inference import (
    _LAWS, BootstrapDistribution, _check_law, _check_tau_hat, _multipliers, _resample,
)
from .lrv import (
    lrv_selfnorm, lrv_stationary, _block_css, _d_stationary, _mean_sq, _tau, _tau_sq_selfnorm_rows,
    _tau_sq_stationary_rows,
)
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
    if not (_is_real(c) and 0 < c < 0.5):
        raise ValueError(f"trimming fraction must be in (0, 1/2), got c={c!r}")
    j_lo = max(1, math.ceil(c * n))
    j_hi = min(n - 1, math.floor((1 - c) * n))
    if j_lo > j_hi:
        raise ValueError(f"n={n} too small for trimming c={c}")
    return j_lo, j_hi


def _sx_rows(cs: np.ndarray, j: np.ndarray, jn: np.ndarray) -> np.ndarray:
    """S_X at the consecutive splits j (jn = j/n) of each row, from its prefix sums cs."""
    out = jn * cs[:, -1:]  # in place: a bootstrap batch is up to 16 MB
    return np.subtract(cs[:, j[0] - 1 : j[-1]], out, out=out)


def sx(x, j: int) -> float:
    """Weighted CUSUM contrast (1 - j/n) * sum_{i<=j} X_i - (j/n) * sum_{i>j} X_i.

    The B = 1 row of `_sx_rows` at the single split j.
    """
    x = as_series(x)
    n = x.size
    j = _check_int("j", j)
    if not 1 <= j <= n - 1:
        raise ValueError(f"split j={j} out of range 1..{n - 1}")
    return float(_sx_rows(_centered_sums(x[None])[2], np.array([j]), np.array([j]) / n)[0, 0])


def _splits(n: int, c: float) -> np.ndarray:
    j_lo, j_hi = trimmed_range(n, c)
    return np.arange(j_lo, j_hi + 1)


def _sn_splits(n: int, c: float):
    """The trimmed splits j of the SN scan, their weights (1-j/n)^2 and (j/n)^2, and j/n."""
    j = _splits(n, c)
    return j, (1.0 - j / n) ** 2, (j / n) ** 2, j / n


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


def _sn_scan_rows(xmat: np.ndarray, splits):
    """Self-normalized scan T(j) at the trimmed splits of each row of a (B, n) matrix.

    T(j) divides S_X(j) by the pooled prefix/suffix standard deviation
    sqrt((1-j/n)^2 V_under_j^2 + (j/n)^2 V_over_j^2). Only the trimmed
    splits are scanned, and the arithmetic runs in the buffers
    `core._scan_rows` returns. splits is `_sn_splits(n, c)`, computed once
    per call. Returns (t, pos, xc, cs): pos flags splits with a positive
    denominator (t is 0 where it is not finite), and xc and cs are the
    centered rows and their prefix sums.
    """
    j, w_pre, w_suf, jn = splits
    _mean, xc, cs, pre_css, suf_css = _scan_rows(xmat, j)
    pre_css *= w_pre
    suf_css *= w_suf
    denom_sq = np.add(pre_css, suf_css, out=pre_css)
    pos = denom_sq > 0.0
    t = _sx_rows(cs, j, jn)  # S_X is shift invariant
    with np.errstate(divide="ignore", invalid="ignore"):
        t /= np.sqrt(denom_sq, out=denom_sq)
    t[~np.isfinite(t)] = 0.0
    return t, pos, xc, cs


def _sn_scan_row(x, c: float):
    """The B = 1 row of `_sn_scan_rows` as a CusumScan, with its xc and cs."""
    x = as_series(x)
    splits = _sn_splits(x.size, c)
    t, pos, xc, cs = _sn_scan_rows(x[None], splits)
    j = splits[0]
    if not pos.all():
        bad = int(j[np.argmin(pos[0])])
        raise DegenerateDataError(f"degenerate scan at j={bad}: zero denominator")
    return _scan(c, j, t[0], "sn"), xc, cs


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
    values = _sx_rows(_centered_sums(xmat)[2], j, j / n)
    np.abs(values, out=values)
    if variant == "t1":
        values /= np.sqrt(j * (1.0 - j / n))
    return values


def classical_scan(x, c: float, tau_hat: float, variant: str) -> CusumScan:
    """Classical CUSUM scan: |S_X(j)| scaled by 1/tau_hat.

    Variant "t1" additionally studentizes by sqrt(j(1 - j/n)); "t2" is
    the unweighted maximum. The scan is the B = 1 row of `_cusum_rows`,
    which `_classical_stat_rows` also runs.
    """
    x = as_series(x)
    _check_tau_hat(tau_hat)
    variant = _choice("variant", variant, ("t1", "t2"))
    values = _cusum_rows(x[None], c, variant)[0] / tau_hat
    return _scan(c, _splits(x.size, c), values, variant)


def _finite_p_value(boot: np.ndarray, observed: float) -> float:
    return (1.0 + float(np.sum(boot >= observed))) / (boot.size + 1.0)


def _report(test, statistic, scan, tau, k_n, out, B, seed) -> ChangePointReport:
    """The report of one test: its observed statistic against the bootstrap values out."""
    return ChangePointReport(
        statistic=statistic,
        j_hat=scan.j_hat,
        p_value=_finite_p_value(out, statistic),
        bootstrap=BootstrapDistribution(values=out, B=B, seed=seed),
        tau_hat=tau,
        k_n=k_n,
        test=test,
        scan=scan,
    )


def _split_residual_rows(xc, cs, j_hat: np.ndarray) -> np.ndarray:
    """Each centered row minus its own mean before, and after, its split j_hat."""
    b, n = xc.shape
    rows = np.arange(b)
    pre_sum = cs[rows, j_hat - 1]
    pre_mean = pre_sum / j_hat
    suf_mean = (cs[rows, -1] - pre_sum) / (n - j_hat)
    before = np.arange(n)[None, :] < j_hat[:, None]
    eps = np.where(before, pre_mean[:, None], suf_mean[:, None])
    return np.subtract(xc, eps, out=eps)


def _in_slices(xmat: np.ndarray, stat_slice, n: int | None = None):
    """The per-row arrays of stat_slice, run on row slices of at most `core.SLICE_ELEMS` values.

    Row i of xmat stands for n values: n defaults to the row length of a
    (rows, n) matrix, and is given when a stage touches something else per
    row, such as the l_n block indices of a block resample or the l_n block
    sums of a replicate. A slice is one row if a row stands for more, so
    the temporaries stay bounded and in cache whatever B is. stat_slice
    returns a tuple of arrays whose first axis runs over the slice's rows;
    they are copied in row order into fresh arrays of the whole batch.

    A bootstrap kernel runs two stages under the one budget: its block
    stage calls this with n = l_n, and each block-stage slice calls this
    again for its scan stage, which touches all n values of a row. So the
    scan's temporaries stay within one slice of n-value rows, the per-row
    results it keeps for the block stage within one slice of l_n-value
    rows, and the block stage runs once for many scan slices.
    """
    b = xmat.shape[0]
    out, start = None, 0
    # an empty batch runs one empty slice, so it still returns empty arrays
    for rows in list(row_chunks(b, xmat.shape[1] if n is None else n, core.SLICE_ELEMS)) or [0]:
        got = stat_slice(xmat[start : start + rows])
        if out is None:
            out = tuple(np.empty((b,) + g.shape[1:], g.dtype) for g in got)
        for whole, part in zip(out, got):
            whole[start : start + rows] = part
        del got, part  # they may be views of the slice's temporaries: let them go before the next
        start += rows
    return out


def _sn_stat_slice(xmat: np.ndarray, splits, k_n: int):
    """`_sn_stat_rows` on one row slice, whose temporaries stay in cache."""
    t, pos, xc, cs = _sn_scan_rows(xmat, splits)
    np.abs(t, out=t)
    i_hat = np.argmax(t, axis=1)
    max_t = t[np.arange(t.shape[0]), i_hat]
    eps = _split_residual_rows(xc, cs, splits[0][i_hat])
    tau_sq, ok = _tau_sq_selfnorm_rows(eps, k_n)
    ok &= np.all(pos, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return max_t / np.sqrt(tau_sq), ok


def _sn_stat_rows(xmat: np.ndarray, c: float, k_n: int):
    """Full self-normalized test pipeline applied row-wise.

    For each row: scan, locate the argmax split, center the two segments
    by their own means, estimate tau on the pooled residuals, and scale
    the max scan value. Returns (stats, ok) with ok flagging rows free of
    degeneracies. The rows run in `_in_slices`, and the splits and their
    weights are computed once per call; each row's values do not depend on
    the slicing.
    """
    splits = _sn_splits(xmat.shape[1], c)
    return _in_slices(xmat, lambda part: _sn_stat_slice(part, splits, k_n))


def _sn_wild_rows(eps: np.ndarray, c: float, k_n: int, law: str):
    """stat_rows(alpha) for `_resample`: `_sn_stat_rows` of each replicate y = eps * alpha.

    alpha is a (rows, n) multiplier batch, run in two stages under the one
    `core.SLICE_ELEMS` budget (see `_in_slices`). The scan stage touches n
    values per row: on slices of SLICE_ELEMS // n rows it forms y, its
    prefix sum S, the bound checks, the ratio and its argmax, and keeps only
    per-row results: max |T|, j_hat, S at j_hat, at n and at the block ends,
    and for Gaussian weights BQ. The block stage touches l_n values per row:
    on slices of SLICE_ELEMS // l_n rows, each holding its scan slices, it
    forms the split means, the block sums, their css, tau^2 and the ok
    flags, so its NumPy calls run once for many scan slices. Where it needs
    y again, for a straddling block or a fallback row, it forms the same
    product eps * alpha of those values, so no (rows, n) product is built
    and no value depends on the slicing.

    With Q the prefix sums of y^2, the prefix and suffix css at a split j
    are Q_j - S_j^2 / j and (Q_n - Q_j) - (S_n - S_j)^2 / (n - j), so the
    pooled denominator is A - a S_j^2 - b (S_n - S_j)^2, with
    A = (1-j/n)^2 Q_j + (j/n)^2 (Q_n - Q_j), a = (1-j/n)^2 / j and
    b = (j/n)^2 / (n-j). For a law with alpha^2 = 1, Q and the block sums
    BQ of y^2 are eps^2's own, so A and the bound limits below are computed
    once per call; Gaussian weights compute them per row. S_X(j) is
    S_j - (j/n) S_n, and j_hat is the argmax of S_X^2 over the denominator.
    The split means come from S, each residual block sum is y's block sum
    (a difference of S at block ends) minus the segment means, and each
    residual block css is y's, BQ - bs^2 / k_n, by `lrv._block_css`; the
    block that straddles j_hat is recomputed from its residuals there. No
    residual matrix and no second centered cumsum is built.

    A row is evaluated by `_sn_stat_rows` instead when any split css is at
    or below 2^-16 of its Q, or NaN. The checks are S_j^2 < (1 - 2^-16) j Q_j
    and (S_n - S_j)^2 < (1 - 2^-16) (n - j) (Q_n - Q_j), scaled by a and b:
    two compares of the terms the denominator subtracts with limits that
    are (1 - 2^-16) times the two parts of A. Above that bound both css
    exceed 2^-16 of their Q, so the denominator exceeds 2^-16 A, and the
    roundings that combine it, each within u A (u = 2^-53), add up to about
    2^-36 of it. The cumsums S and Q add at most about 3 count u Q per css
    (it grows like sqrt(count) in practice), as in the general kernel,
    which runs the same formula on centered rows.
    """
    n = eps.size
    j, w_pre, w_suf, jn = _sn_splits(n, c)
    sel = slice(j[0] - 1, j[-1])
    a, b = w_pre / j, w_suf / (n - j)
    keep = 1.0 - 2.0**-16
    part = partition(n, k_n)
    starts = k_n * np.arange(part.l_n)  # each block's first column
    ends = slice(k_n - 1, part.covered, k_n)  # each block's last column

    def split_constants(y):
        """BQ of each row of y, and at the splits A and the limits of a S_j^2, b (S_n - S_j)^2."""
        q = y * y
        bq = part.view(q).sum(axis=-1)
        np.cumsum(q, axis=-1, out=q)
        q_j = q[:, sel]
        lim_pre = w_pre * q_j
        lim_suf = np.subtract(q[:, -1:], q_j)
        lim_suf *= w_suf
        big_a = lim_pre + lim_suf
        lim_pre *= keep
        lim_suf *= keep
        return bq, big_a, lim_pre, lim_suf

    unit = split_constants(eps[None]) if _LAWS[law][1] else None

    def scan_slice(alpha):
        """The scan stage of a slice of replicates: what the block stage needs of each row."""
        y = eps * alpha
        bq, big_a, lim_pre, lim_suf = unit if unit is not None else split_constants(y)
        s = np.cumsum(y, axis=1)
        s_j = s[:, sel]
        pre = np.multiply(s_j, s_j)
        pre *= a
        suf = np.subtract(s[:, -1:], s_j)
        suf *= suf
        suf *= b
        bad = ~np.all((pre < lim_pre) & (suf < lim_suf), axis=1)
        denom = np.subtract(big_a, pre, out=pre)
        denom -= suf
        ratio = _sx_rows(s, j, jn)
        ratio *= ratio
        ratio /= denom
        rows = np.arange(y.shape[0])
        i_hat = np.argmax(ratio, axis=1)
        j_hat = j[i_hat]
        kept = (np.sqrt(ratio[rows, i_hat]), j_hat, s[rows, j_hat - 1], s[:, -1], s[:, ends], bad)
        return kept if unit is not None else kept + (bq,)

    def block_slice(alpha):
        """The block stage of a slice of replicates, on the scan stage's per-row results."""
        max_t, j_hat, s_hat, s_n, s_ends, bad, *row_bq = _in_slices(alpha, scan_slice)
        bq = row_bq[0] if row_bq else unit[0]
        m_pre = (s_hat / j_hat)[:, None]
        m_suf = ((s_n - s_hat) / (n - j_hat))[:, None]
        before = np.minimum(np.maximum(j_hat[:, None] - starts, 0), k_n)  # values up to j_hat

        def residuals(r, blk):
            cols = starts[blk][:, None] + np.arange(k_n)
            y = eps[cols] * alpha[r[:, None], cols]
            return y - np.where(cols < j_hat[r, None], m_pre[r], m_suf[r])

        bs = s_ends  # S at the block ends, differenced in place into the block sums
        bs[:, 1:] -= bs[:, :-1]
        straddle = (before > 0) & (before < k_n)
        css, degenerate = _block_css(bs, bq, k_n, residuals, straddle)
        # in place where the values allow: each (rows, l_n) array here fills a slice
        mean_sums = before * m_pre  # each block's values times their segment's mean
        mean_sums += np.subtract(k_n, before, out=before) * m_suf
        bs -= mean_sums
        tau_sq = np.einsum("rl,rl->r", bs, np.divide(bs, css, out=css)) / part.l_n
        stats = max_t / np.sqrt(tau_sq)
        ok = ~degenerate.any(axis=1) & (tau_sq > 0.0)
        if bad.any():  # the general kernel on y = eps * alpha, re-formed a scan slice at a time
            rows = np.flatnonzero(bad)[:, None]
            general = _in_slices(rows, lambda r: _sn_stat_rows(eps * alpha[r[:, 0]], c, k_n), n)
            stats[bad], ok[bad] = general
        return stats, ok

    def stat_rows(alpha):
        with np.errstate(divide="ignore", invalid="ignore"):  # only in rows that are not ok
            return _in_slices(alpha, block_slice, part.l_n)

    return stat_rows


def sn_statistic(x, c: float = 0.1, k_n: int = 10):
    """Observed self-normalized test statistic and its ingredients.

    The B = 1 row of `_sn_stat_rows`, run step by step so that each
    degeneracy raises: scan, split at the argmax, center each side by its
    own mean, estimate tau on the pooled residuals, scale the max scan
    value. Returns (statistic, scan, residuals, tau_hat).
    """
    scan, xc, cs = _sn_scan_row(x, c)
    eps = _split_residual_rows(xc, cs, np.array([scan.j_hat]))[0]
    tau = _tau(lrv_selfnorm(eps, k_n))
    return scan.max_value / tau, scan, eps, tau


def classical_statistic(x, c: float, k_n: int, variant: str) -> float:
    """Classical CUSUM statistic with the stationary block tau estimate.

    The B = 1 row of `_classical_stat_rows`.
    """
    x = as_series(x)
    variant = _choice("variant", variant, ("t1", "t2"))
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
    own split estimate and tau. The multipliers are drawn in batches, as in
    `wild_bootstrap_mean`, and handed to `_sn_wild_rows`, which evaluates
    each replicate from one prefix sum of its values and per-call constants
    of the residuals' sums of squares; a row near a rounding bound runs the
    general kernel `_sn_stat_rows`. Its scan stage forms the replicates one
    cache-sized slice of n-value rows at a time; its block stage, which
    forms each replicate's residual blocks and tau, runs on slices of
    l_n-value rows, once for many scan slices.
    """
    law = _check_law(law)
    statistic, scan, eps, tau = sn_statistic(x, c, k_n)
    rng, n = stream(seed, "sn-test"), eps.size
    stat_rows = _sn_wild_rows(eps, c, k_n, law)
    out = _resample(B, n, lambda rows: _multipliers(rng, law, (rows, n)), stat_rows)
    return _report("sn", statistic, scan, tau, k_n, out, B, seed)


def _classical_stat_rows(xmat: np.ndarray, c: float, k_n: int, variant: str):
    """Classical CUSUM statistic row-wise, each row with its own tau and its ok flag."""
    tau_sq, ok = _tau_sq_stationary_rows(xmat, k_n)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _cusum_rows(xmat, c, variant).max(axis=1) / np.sqrt(tau_sq), ok


def _classical_block_rows(xc: np.ndarray, c: float, k_n: int, variant: str):
    """stat_rows(idx) for `_resample`: `_classical_stat_rows` of each block resample of xc.

    Row i of idx names the l_n blocks of xc that make replicate i. Per call:
    an (l_n, k_n) table of within-block prefix sums, the block totals and
    the block means. A replicate's prefix sums are its blocks' rows of that
    table plus the running total of the blocks before them, and its tau^2
    comes from its blocks' means, so no resampled series is gathered and
    none is summed. ok flags rows with tau^2 > 0, as in
    `_tau_sq_stationary_rows`. The index rows run in two stages under the
    one `core.SLICE_ELEMS` budget (see `_in_slices`): the scan stage, on
    slices sized by the n' = k_n * l_n values each replicate stands for,
    keeps each row's largest scan value, so the gathered prefix sums and the
    scan stay within one slice whatever B is; the tau stage, on slices of
    SLICE_ELEMS // l_n rows that hold the scan slices, gathers the drawn
    blocks' means and forms tau^2 once for many scan slices.
    """
    part = partition(xc.size, k_n)
    blocks = part.view(xc)
    within = np.cumsum(blocks, axis=1)
    totals = within[:, -1]
    means = blocks.mean(axis=1)
    n = part.covered
    j = _splits(n, c)
    jn = j / n
    scale = np.sqrt(j * (1.0 - jn))  # t1 studentizes, t2 does not

    def scan_slice(idx):
        """The scan stage of a slice of replicates: each row's largest scan value."""
        rows = idx.shape[0]
        s = within[idx]
        s[:, 1:] += np.cumsum(totals[idx[:, :-1]], axis=1)[:, :, None]
        values = _sx_rows(s.reshape(rows, n), j, jn)
        np.abs(values, out=values)
        if variant == "t1":
            values /= scale
        return (values.max(axis=1),)

    def tau_slice(idx):
        """The tau stage of a slice of replicates, on the scan stage's largest values."""
        (top,) = _in_slices(idx, scan_slice, n)
        bm = means[idx]
        tau_sq = _mean_sq(_d_stationary(bm, bm.mean(axis=1), k_n))
        with np.errstate(divide="ignore", invalid="ignore"):
            return top / np.sqrt(tau_sq), tau_sq > 0.0

    return lambda idx: _in_slices(idx, tau_slice)


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
    own stationary tau estimate. A replicate is built from the drawn block
    indices alone: its prefix sums from per-call within-block prefix sums,
    its tau from the drawn blocks' means (`_classical_block_rows`), with no
    resampled series gathered. A constant series, whatever its value,
    reports statistic 0 and p-value 1 by convention. A zero tau_hat raises (`lrv._tau`).
    """
    x = as_series(x)
    _check_int("B", B, 1)
    variant = _choice("variant", variant, ("t1", "t2"))
    n = x.size
    covered = partition(n, k_n).covered  # k_n must fit, also on a constant series
    if _all_equal(x):  # a zero scan, tau 0 and no bootstrap values: p = 1
        j = _splits(n, c)
        scan, tau, out = _scan(c, j, np.zeros(j.size), variant), 0.0, np.zeros(0)
    else:
        tau = _tau(lrv_stationary(x, k_n))
        scan = classical_scan(x, c, tau, variant)
        rng, l_n = stream(seed, "classical-test", variant), covered // k_n
        stat_rows = _classical_block_rows(x - x.mean(), c, k_n, variant)
        out = _resample(B, covered, lambda rows: rng.integers(0, l_n, (rows, l_n)), stat_rows)
    return _report(variant, scan.max_value, scan, tau, k_n, out, B, seed)


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
    law = _check_law(law)
    xt = (x - x.mean()) ** 2
    if _all_equal(xt):
        raise DegenerateDataError("degenerate transform: squared series is constant")
    return sn_test(xt, c=c, k_n=k_n, B=B, law=law, seed=seed)


# method -> (test(x, c, k_n, B, seed), statistic rows(xmat, c, k_n) -> (stats, ok));
# the row kernels are named at call time, so a wrapper installed on the module is seen
_TESTS = {
    "sn": (
        lambda x, c, k_n, B, seed: sn_test(x, c, k_n, B, seed=seed),
        lambda xmat, c, k_n: _sn_stat_rows(xmat, c, k_n),
    ),
    "t1": (
        lambda x, c, k_n, B, seed: classical_test(x, c, k_n, B, "t1", seed),
        lambda xmat, c, k_n: _classical_stat_rows(xmat, c, k_n, "t1"),
    ),
    "t2": (
        lambda x, c, k_n, B, seed: classical_test(x, c, k_n, B, "t2", seed),
        lambda xmat, c, k_n: _classical_stat_rows(xmat, c, k_n, "t2"),
    ),
}
