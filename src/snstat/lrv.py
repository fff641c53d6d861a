"""Blockwise long-run variance estimation.

The self-normalized estimator divides each block-mean deviation by the
within-block standard deviation, cancelling time-varying scales; the
stationary (non-normalized) variant is the classical comparator. A
simulation-based selector picks the block length by minimizing the
empirical MSE of tau_hat on i.i.d. Gaussian data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import DegenerateDataError, as_series, partition, row_chunks
from .rng import stream


@dataclass(frozen=True)
class LongRunEstimate:
    """tau^2 estimate with the per-block statistics that produced it."""

    tau_sq_hat: float
    k_n: int
    l_n: int
    d_values: np.ndarray
    method: str  # "selfnorm" or "stationary"


def _block_stats(x: np.ndarray, k_n: int):
    x = as_series(x)
    part = partition(x.size, k_n)
    blocks = part.view(x)
    bm = blocks.mean(axis=1)
    css = np.sum((blocks - bm[:, None]) ** 2, axis=1)
    return part, bm, css, x.mean()


def lrv_selfnorm(x, k_n: int) -> LongRunEstimate:
    """Self-normalized blockwise estimate of the long-run variance.

    D_j = k_n * (block mean - overall mean) / within-block sd, and
    tau^2_hat is the average of D_j^2. The overall mean includes any
    remainder indices beyond the last full block.

    The estimator is biased at any fixed block length: on i.i.d.
    Gaussian data E[D_j^2] = k_n (1 - k_n/n) / (k_n - 3) exactly (1.131
    at k_n = 25, n = 5000), because the block-mean deviation is
    independent of the within-block chi-square_{k_n - 1}. Consistency
    therefore needs k_n -> infinity; `select_block_length` trades this
    bias against the variance of fewer, longer blocks.
    """
    part, bm, css, xbar = _block_stats(x, k_n)
    degenerate = np.flatnonzero(css == 0.0)
    if degenerate.size:
        raise DegenerateDataError(
            f"degenerate block {degenerate[0] + 1}: zero within-block variance"
        )
    d = k_n * (bm - xbar) / np.sqrt(css)
    return LongRunEstimate(
        tau_sq_hat=float(np.mean(d * d)),
        k_n=part.k_n,
        l_n=part.l_n,
        d_values=d,
        method="selfnorm",
    )


def lrv_stationary(x, k_n: int) -> LongRunEstimate:
    """Non-normalized blockwise estimate D_j = sqrt(k_n)(block mean - mean).

    Valid only under stationarity; kept as the comparator. Degenerate
    blocks are allowed since no per-block normalization occurs.
    """
    part, bm, _css, xbar = _block_stats(x, k_n)
    d = np.sqrt(k_n) * (bm - xbar)
    return LongRunEstimate(
        tau_sq_hat=float(np.mean(d * d)),
        k_n=part.k_n,
        l_n=part.l_n,
        d_values=d,
        method="stationary",
    )


def _tau_sq_selfnorm_rows(xmat: np.ndarray, k_n: int):
    """Row-wise self-normalized tau^2 for a (B, n) matrix.

    Returns (tau_sq, ok) where ok flags rows without degenerate blocks.
    Used by the resampling driver, which evaluates thousands of
    resampled series per call.
    """
    b, n = xmat.shape
    l_n = n // k_n
    blocks = xmat[:, : l_n * k_n].reshape(b, l_n, k_n)
    bm = blocks.mean(axis=2)
    css = np.sum((blocks - bm[:, :, None]) ** 2, axis=2)
    ok = np.all(css > 0.0, axis=1)
    xbar = xmat.mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = k_n * (bm - xbar[:, None]) / np.sqrt(css)
        tau_sq = np.mean(d * d, axis=1)
    return tau_sq, ok


def _tau_sq_stationary_rows(xmat: np.ndarray, k_n: int) -> np.ndarray:
    """Row-wise stationary tau^2 for a (B, n) matrix."""
    b, n = xmat.shape
    l_n = n // k_n
    bm = xmat[:, : l_n * k_n].reshape(b, l_n, k_n).mean(axis=2)
    d = np.sqrt(k_n) * (bm - xmat.mean(axis=1)[:, None])
    return np.mean(d * d, axis=1)


def default_k_grid(n: int) -> list[int]:
    """Block lengths 4..floor(n/4) that leave at least four blocks."""
    return [k for k in range(4, n // 4 + 1) if n // k >= 4]


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
    candidates (fewer than two blocks) are skipped with a warning. Series
    are drawn in `row_chunks` batches, so memory does not grow with reps.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if k_grid is None:
        k_grid = default_k_grid(n)
    k_grid = list(k_grid)
    if not k_grid:
        raise ValueError("empty block-length grid")

    mse_table: dict[int, float] = {}
    best_k, best_mse = None, np.inf
    for k in sorted(k_grid):
        if k < 1 or n // k < 2:
            warnings.warn(f"skipping infeasible block length k={k} for n={n}")
            mse_table[k] = float("nan")
            continue
        rng = stream(seed, "select-k", n, k)
        kept = []
        for rows in row_chunks(reps, n):
            # z stays bound until the next draw: freeing it first ran 5-10% slower
            z = rng.standard_normal((rows, n))
            tau_sq, ok = _tau_sq_selfnorm_rows(z, k)
            kept.append(tau_sq[ok])
        tau = np.sqrt(np.concatenate(kept))
        mse = float(np.mean((tau - 1.0) ** 2))
        mse_table[k] = mse
        if mse < best_mse:
            best_k, best_mse = k, mse
    if best_k is None:
        raise ValueError(f"no feasible block length in grid for n={n}")
    return best_k, mse_table
