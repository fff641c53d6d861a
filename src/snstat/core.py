"""Foundational data types and running statistics.

Everything downstream (long-run variance estimation, bootstrap, CUSUM
scans) is built on block partitions, segment means/centered sums of
squares and O(n) prefix/suffix scans defined here.

Index convention: 1-based inclusive ranges throughout, so block and
segment indices line up with CSV row numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InsufficientBlocksError(ValueError):
    """Raised when a block partition would have fewer than two blocks."""


class DegenerateDataError(ValueError):
    """Raised when data has no variation where the method requires some."""


def as_series(x) -> np.ndarray:
    """Validate and convert input to a float64 observation vector.

    Requires a 1-D array of at least two finite values.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D series, got shape {arr.shape}")
    if arr.size < 2:
        raise ValueError(f"series too short: n={arr.size}, need n >= 2")
    if not np.all(np.isfinite(arr)):
        raise ValueError("series contains NaN or infinite values")
    return arr


@dataclass(frozen=True)
class BlockPartition:
    """Non-overlapping partition of 1..n into l_n blocks of length k_n.

    Trailing remainder indices beyond l_n * k_n are discarded from all
    block computations.
    """

    n: int
    k_n: int
    l_n: int

    @property
    def covered(self) -> int:
        """Number of indices covered by the blocks (l_n * k_n)."""
        return self.l_n * self.k_n

    @property
    def blocks(self) -> list[tuple[int, int]]:
        """1-based inclusive (start, stop) ranges of each block."""
        k = self.k_n
        return [((j - 1) * k + 1, j * k) for j in range(1, self.l_n + 1)]

    def view(self, x: np.ndarray) -> np.ndarray:
        """Reshape the block-covered prefix of x into an (l_n, k_n) matrix."""
        return x[: self.covered].reshape(self.l_n, self.k_n)


@dataclass(frozen=True)
class SegmentStats:
    """Count, mean and centered sum of squares of a contiguous segment."""

    count: int
    mean: float
    css: float


def partition(n: int, k_n: int) -> BlockPartition:
    """Divide 1..n into floor(n/k_n) disjoint blocks of exact length k_n.

    The boundary remainder is ignored. Raises InsufficientBlocksError when
    fewer than two blocks fit.
    """
    if k_n < 1:
        raise InsufficientBlocksError(f"block length must be >= 1, got k_n={k_n}")
    l_n = n // k_n
    if l_n < 2:
        raise InsufficientBlocksError(
            f"insufficient blocks: n={n}, k_n={k_n} gives only {l_n} block(s), need >= 2"
        )
    return BlockPartition(n=n, k_n=k_n, l_n=l_n)


def segment_stats(x: np.ndarray, start: int, stop: int) -> SegmentStats:
    """Mean and centered sum of squares over the 1-based inclusive range.

    Two-pass computation: exact to numerical precision.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if not (1 <= start <= stop <= n):
        raise ValueError(f"invalid segment range [{start}, {stop}] for n={n}")
    seg = x[start - 1 : stop]
    m = seg.mean()
    css = float(np.sum((seg - m) ** 2))
    return SegmentStats(count=seg.size, mean=float(m), css=css)


@dataclass(frozen=True)
class ScanStats:
    """Prefix and suffix segment statistics at every split point j = 1..n.

    Entry j-1 of each array refers to the prefix 1..j and the suffix
    j+1..n. Suffix entries at j = n are NaN (empty segment).
    """

    prefix_mean: np.ndarray
    prefix_css: np.ndarray
    suffix_mean: np.ndarray
    suffix_css: np.ndarray


def prefix_suffix_scan(x: np.ndarray) -> ScanStats:
    """Compute all prefix/suffix means and centered sums of squares in O(n).

    Data is centered by the global mean before accumulating, so the
    cumulative-moment formula css_j = Q_j - S_j^2 / j stays well
    conditioned (css is shift invariant).
    """
    x = as_series(x)
    n = x.size
    gm = x.mean()
    xc = x - gm
    cs = np.cumsum(xc)
    cq = np.cumsum(xc * xc)
    j = np.arange(1, n + 1, dtype=float)

    prefix_mean = gm + cs / j
    prefix_css = np.maximum(cq - cs * cs / j, 0.0)

    m = n - j  # suffix counts
    rs = cs[-1] - cs
    rq = cq[-1] - cq
    with np.errstate(divide="ignore", invalid="ignore"):
        suffix_mean = gm + rs / m
        suffix_css = np.maximum(rq - rs * rs / m, 0.0)
    suffix_mean[-1] = np.nan
    suffix_css[-1] = np.nan

    return ScanStats(prefix_mean, prefix_css, suffix_mean, suffix_css)


CHUNK_ELEMS = 2**21  # elements per (rows, n) float64 batch: 16 MB


def row_chunks(rows: int, n: int):
    """Yield row counts of in-order batches of at most max(CHUNK_ELEMS, n) values."""
    step = max(1, CHUNK_ELEMS // n)
    for start in range(0, rows, step):
        yield min(step, rows - start)
