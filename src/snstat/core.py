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


def _css(q, s, count):
    """Centered sum of squares Q - S^2 / count from a segment's sums, floored at 0."""
    return np.maximum(q - s * s / count, 0.0)


def _centered_sums(xmat: np.ndarray):
    """(B, 1) row means of a (B, n) matrix, its rows centered by them, and their prefix sums."""
    mean = xmat.mean(axis=1, keepdims=True)
    xc = xmat - mean
    return mean, xc, np.cumsum(xc, axis=1)


def _scan_rows(xmat: np.ndarray):
    """Prefix/suffix sums and centered sums of squares for each row of a (B, n) matrix.

    Rows are centered by `_centered_sums` first, so neither S_X nor the
    formula css = Q - S^2 / count loses digits to the row level (both are
    shift invariant). Returns (mean, xc, cs, rs, prefix_css, suffix_css):
    the (B, 1) row means, the centered rows, and at column j - 1 the
    centered sums of the prefix 1..j (cs) and the suffix j+1..n (rs) and
    their css. Suffix css at j = n is NaN (empty segment).
    """
    n = xmat.shape[1]
    mean, xc, cs = _centered_sums(xmat)
    cq = np.cumsum(xc * xc, axis=1)
    j = np.arange(1, n + 1, dtype=float)
    rs = cs[:, -1:] - cs
    with np.errstate(divide="ignore", invalid="ignore"):  # the suffix at j = n is empty
        suffix_css = _css(cq[:, -1:] - cq, rs, n - j)
    return mean, xc, cs, rs, _css(cq, cs, j), suffix_css


def prefix_suffix_scan(x: np.ndarray) -> ScanStats:
    """Compute all prefix/suffix means and centered sums of squares in O(n).

    The B = 1 row of `_scan_rows`, which the self-normalized CUSUM scan
    also runs.
    """
    x = as_series(x)
    mean, _xc, cs, rs, prefix_css, suffix_css = _scan_rows(x[None])
    j = np.arange(1, x.size + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        suffix_mean = mean[0] + rs[0] / (x.size - j)
    return ScanStats(mean[0] + cs[0] / j, prefix_css[0], suffix_mean, suffix_css[0])


CHUNK_ELEMS = 2**21  # elements per (rows, n) float64 batch: 16 MB


def row_chunks(rows: int, n: int, elems: int | None = None):
    """Yield row counts of in-order batches of at most max(elems, n) values.

    elems defaults to CHUNK_ELEMS, read at call time.
    """
    step = max(1, (CHUNK_ELEMS if elems is None else elems) // n)
    for start in range(0, rows, step):
        yield min(step, rows - start)
