"""Blockwise long-run variance estimation.

The self-normalized estimator divides each block-mean deviation by the
within-block standard deviation, cancelling time-varying scales; the
stationary (non-normalized) variant is the classical comparator. A
simulation-based selector picks the block length by minimizing the
empirical MSE of tau_hat on i.i.d. Gaussian data.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    DegenerateDataError, InsufficientBlocksError, _all_equal, _check_int, _css, _segment_css,
    as_series, partition, row_chunks,
)
from .rng import stream

SELECT_BATCH_ELEMS = 2**16  # values per batch the block-length selector draws: 512 KB


@dataclass(frozen=True)
class LongRunEstimate:
    """tau^2 estimate with the per-block statistics that produced it."""

    tau_sq_hat: float
    k_n: int
    l_n: int
    d_values: np.ndarray
    method: str  # "selfnorm" or "stationary"


def _d_selfnorm_rows(xmat: np.ndarray, k_n: int):
    """Self-normalized D_j of each row of a (B, n) matrix, and its (B, l_n) degenerate blocks.

    A block is degenerate when `core._segment_css` finds no variation in it.
    """
    bm, css, degenerate = _segment_css(partition(xmat.shape[1], k_n).view(xmat))
    with np.errstate(divide="ignore", invalid="ignore"):
        return k_n * (bm - xmat.mean(axis=1)[:, None]) / np.sqrt(css), degenerate


def _block_css(bs: np.ndarray, bq: np.ndarray, k_n: int, values, redo=None):
    """Centered sums of squares of blocks from their sums bs and sums of squares bq, and flags.

    Block j's css is bq_j - bs_j^2 / k_n, by `core._css`. Its rounding error
    is at most about 3 k_n u bq_j (u = 2^-53), so above 2^-16 k_n bq_j it is
    good to 3 * 2^-37 (2e-11) of itself. A block at or below that bound, NaN,
    or flagged in redo is recomputed from values(r, j), the (m, k_n) values
    of the blocks at rows r and columns j, in two passes and judged by
    `core._segment_css`. Returns (css, degenerate), both shaped as bs.
    """
    css = _css(bq, bs, k_n)
    degenerate = np.zeros(css.shape, dtype=bool)
    bad = ~(css > (k_n * 2.0**-16) * bq)
    redo = bad if redo is None else bad | redo
    if redo.any():
        r, j = np.nonzero(redo)
        css[r, j], degenerate[r, j] = _segment_css(values(r, j))[1:]
    return css, degenerate


def _d_stationary(bm: np.ndarray, means: np.ndarray, k_n: int, xmat=None) -> np.ndarray:
    """Stationary D_j from (B, l_n) block means, the (B,) row means and the (B, n) rows.

    A row has no variation when its block means are equal and its remainder equals them or
    all its values are equal: its D_j, so its tau^2, are exact 0 however its means round.
    """
    d = np.sqrt(k_n) * (bm - means[:, None])
    flat = _all_equal(bm)
    if xmat is not None and flat.any():
        x = xmat[flat]
        flat[flat] = np.all(x[:, k_n * bm.shape[1] :] == bm[flat, :1], axis=1) | _all_equal(x)
    d[flat] = 0.0
    return d


def _d_stationary_rows(xmat: np.ndarray, part) -> np.ndarray:
    """`_d_stationary` of each row of a (B, n) matrix cut by the partition part."""
    return _d_stationary(part.view(xmat).mean(axis=2), xmat.mean(axis=1), part.k_n, xmat)


def _mean_sq(d: np.ndarray) -> np.ndarray:
    """tau^2 of each row: the mean of its D_j^2."""
    return np.mean(d * d, axis=1)


def _tau(est: LongRunEstimate) -> float:
    """tau_hat of an estimate, the one way a statistic takes it; DegenerateDataError unless > 0.

    tau^2 > 0 is also the ok predicate of every tau^2 row kernel. Rounding noise passes.
    """
    if not est.tau_sq_hat > 0.0:
        raise DegenerateDataError(f"degenerate data: zero {est.method} tau estimate")
    return math.sqrt(est.tau_sq_hat)


def _estimate(part, d_rows: np.ndarray, method: str) -> LongRunEstimate:
    """The estimate whose D_j are the single row of d_rows."""
    return LongRunEstimate(float(_mean_sq(d_rows)[0]), part.k_n, part.l_n, d_rows[0], method)


def lrv_selfnorm(x, k_n: int) -> LongRunEstimate:
    """Self-normalized blockwise estimate of the long-run variance.

    D_j = k_n * (block mean - overall mean) / within-block sd, and
    tau^2_hat is the average of D_j^2. The overall mean includes any
    remainder indices beyond the last full block. In value this is the
    B = 1 row of `_tau_sq_selfnorm_rows`, and a degenerate block (see
    `_d_selfnorm_rows`) raises DegenerateDataError.

    The estimator is biased at any fixed block length: on i.i.d.
    Gaussian data E[D_j^2] = k_n (1 - k_n/n) / (k_n - 3) exactly (1.131
    at k_n = 25, n = 5000), because the block-mean deviation is
    independent of the within-block chi-square_{k_n - 1}. Consistency
    therefore needs k_n -> infinity; `select_block_length` trades this
    bias against the variance of fewer, longer blocks.
    """
    x = as_series(x)
    part = partition(x.size, k_n)
    d, degenerate = _d_selfnorm_rows(x[None], k_n)
    if degenerate.any():
        raise DegenerateDataError(
            f"degenerate block {np.argmax(degenerate[0]) + 1}: zero within-block variance"
        )
    return _estimate(part, d, "selfnorm")


def lrv_stationary(x, k_n: int) -> LongRunEstimate:
    """Non-normalized blockwise estimate D_j = sqrt(k_n)(block mean - mean).

    Valid only under stationarity; kept as the comparator. Degenerate blocks
    are allowed: no block is normalized. The B = 1 row of `_tau_sq_stationary_rows`.
    """
    x = as_series(x)
    part = partition(x.size, k_n)
    return _estimate(part, _d_stationary_rows(x[None], part), "stationary")


def _tau_sq_selfnorm_rows(xmat: np.ndarray, k_n: int):
    """Row-wise self-normalized tau^2 for a (B, n) matrix.

    Returns (tau_sq, ok): ok flags rows with tau^2 > 0 and no degenerate block, the
    rules `_tau` and `lrv_selfnorm` raise on. `inference._resample` runs it on resamples.
    """
    d, degenerate = _d_selfnorm_rows(xmat, k_n)
    tau_sq = _mean_sq(d)
    return tau_sq, ~degenerate.any(axis=1) & (tau_sq > 0.0)


def _tau_sq_stationary_rows(xmat: np.ndarray, k_n: int):
    """Row-wise stationary tau^2 for a (B, n) matrix.

    Returns (tau_sq, ok): ok where tau^2 > 0. Block bootstraps call `_d_stationary` directly.
    """
    tau_sq = _mean_sq(_d_stationary_rows(xmat, partition(xmat.shape[1], k_n)))
    return tau_sq, tau_sq > 0.0


def default_k_grid(n: int) -> list[int]:
    """Block lengths 4..floor(n/4), each of which leaves at least four blocks."""
    return list(range(4, n // 4 + 1))


def select_block_length(
    n: int,
    k_grid=None,
    reps: int = 2000,
    seed: int = 0,
) -> tuple[int, dict[int, float]]:
    """Pick the block length minimizing empirical MSE of tau_hat.

    For each candidate k: simulate `reps` series of n i.i.d. standard
    normals, estimate tau by the self-normalized block method, and
    average (tau_hat - 1)^2. Ties break toward the smaller k. Infeasible
    candidates (fewer than two blocks) are skipped with a warning.

    Each feasible k draws from its own stream, in batches of at most
    SELECT_BATCH_ELEMS = 2**16 values (512 KB), on one thread per usable
    CPU. The draws run in parallel, but only one batch at a time runs the
    tau^2 kernel, so memory stays within threads x one batch plus one
    kernel's temporaries, whatever reps is. Every k's batches are drawn
    in stream order and k* is picked in sorted-k order, so the results
    are the same for any CPU count.
    """
    _check_int("n", n)
    _check_int("reps", reps, 1)
    if not (k_grid is None or np.iterable(k_grid)):
        raise ValueError(f"k_grid: expected a sequence of integers, got {k_grid!r}")
    k_grid = default_k_grid(n) if k_grid is None else list(k_grid)
    if not k_grid:
        raise ValueError("empty block-length grid")
    k_grid = [_check_int("k_grid", k) for k in k_grid]  # one spelling: k* and the keys are int

    streams = {}
    for k in sorted(k_grid):
        try:
            streams[k] = stream(seed, "select-k", n, partition(n, k).k_n)
        except InsufficientBlocksError:
            warnings.warn(f"skipping infeasible block length k={k} for n={n}")
    if not streams:
        raise ValueError(f"no feasible block length in grid for n={n}")
    batches = list(row_chunks(reps, n, SELECT_BATCH_ELEMS))
    # One kernel at a time: it bounds the temporaries, and snstat's calls stay on
    # one thread at a time, as perfbench/tracer.py's single span stack needs.
    kernel_lock = threading.Lock()

    def mse_at(k):
        rng = streams[k]
        kept = []
        for rows in batches:
            z = rng.standard_normal((rows, n))
            with kernel_lock:
                tau_sq, ok = _tau_sq_selfnorm_rows(z, k)
            kept.append(tau_sq[ok])
        tau = np.sqrt(np.concatenate(kept))
        return float(np.mean((tau - 1.0) ** 2))

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=min(cpus, len(streams))) as pool:
        feasible = dict(zip(streams, pool.map(mse_at, streams)))

    mse_table: dict[int, float] = {}
    best_k, best_mse = None, np.inf
    for k in sorted(k_grid):
        mse_table[k] = mse = feasible.get(k, float("nan"))
        if mse < best_mse:
            best_k, best_mse = k, mse
    return best_k, mse_table
