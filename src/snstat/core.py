"""Foundational data types and running statistics.

Everything downstream (long-run variance estimation, bootstrap, CUSUM
scans) is built on block partitions, segment means/centered sums of
squares and O(n) prefix/suffix scans defined here.

Index convention: 1-based inclusive ranges throughout, so block and
segment indices line up with CSV row numbers.
"""

from __future__ import annotations

import math
import numbers
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


def _check_int(name: str, value, low: int | None = None) -> int:
    """value as an int; ValueError naming the argument unless an integer (not a bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def _is_real(value) -> bool:
    """Whether value is a finite real number: an int, a float or a NumPy number, not a bool."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)


def _choice(name: str, value, names) -> str:
    """The key of names that value spells in any letter case; else a ValueError naming name."""
    if isinstance(value, str):
        spelled = value.lower()
        for key in names:
            if key.lower() == spelled:
                return key
    raise ValueError(f"{name}: expected one of {', '.join(names)}, got {value!r}")


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
        """The blocks of x's last axis, (..., n) to (..., l_n, k_n); the remainder is dropped."""
        return x[..., : self.covered].reshape(*x.shape[:-1], self.l_n, self.k_n)


@dataclass(frozen=True)
class SegmentStats:
    """Count, mean and centered sum of squares of a contiguous segment."""

    count: int
    mean: float
    css: float


def partition(n: int, k_n: int) -> BlockPartition:
    """Divide 1..n into floor(n/k_n) disjoint blocks of exact length k_n.

    The one place blocks are cut (`view`) and counted; the remainder is ignored.
    Raises ValueError when k_n is not an integer (a bool is not), and
    InsufficientBlocksError when fewer than two blocks fit.
    """
    _check_int("k_n", k_n)
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

    Two-pass computation by `_segment_css`: exact to numerical precision.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if not (1 <= start <= stop <= n):
        raise ValueError(f"invalid segment range [{start}, {stop}] for n={n}")
    seg = x[start - 1 : stop]
    mean, css, _flat = _segment_css(seg[None])
    return SegmentStats(count=seg.size, mean=float(mean[0]), css=float(css[0]))


def _all_equal(a: np.ndarray) -> np.ndarray:
    """True where every value along the last axis equals the first, compared with ==."""
    return np.all(a == a[..., :1], axis=-1)


def _segment_css(a: np.ndarray):
    """Mean, two-pass centered sum of squares (css) and no-variation flag of each segment.

    The segments run along a's last axis; a has at least two axes, so a 1-D
    series is passed as its (1, n) row. This is the one rule for a segment
    with no variation: its values are all equal or its css underflows to 0.
    An equal segment of k values has its css round below k^3 u^2 mean^2
    (u = 2^-53), so only segments under 8 times that bound, or with a NaN
    css, get the exact test.
    """
    k = a.shape[-1]
    mean = a.mean(axis=-1)
    css = np.sum((a - mean[..., None]) ** 2, axis=-1)
    # scaled before it is squared, the bound overflows only past |mean| ~ 1e160
    flat = ~(css > np.square(mean * ((8.0 * float(k) ** 3) ** 0.5 * 2.0**-53)))
    if flat.any():
        near = np.nonzero(flat)
        flat[near] = (css[near] == 0.0) | _all_equal(a[near])
    return mean, css, flat


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


def _css(q, s, count, out=None):
    """Centered sum of squares Q - S^2 / count from a segment's sums, floored at 0.

    Computed in one buffer: out, or a new array. out may be s itself (s
    is read once, before out is written), never q.
    """
    out = np.multiply(s, s, out=out)
    out /= count
    np.subtract(q, out, out=out)
    return np.maximum(out, 0.0, out=out)


def _centered_sums(xmat: np.ndarray):
    """(B, 1) row means of a (B, n) matrix, its rows centered by them, and their prefix sums."""
    mean = xmat.mean(axis=1, keepdims=True)
    xc = xmat - mean
    return mean, xc, np.cumsum(xc, axis=1)


def _scan_rows(xmat: np.ndarray, j: np.ndarray):
    """Prefix and suffix centered sums of squares of each row of a (B, n) matrix at the splits j.

    j holds consecutive splits in 1..n; only their columns are computed.
    Rows are centered by `_centered_sums` first, so neither S_X nor the
    formula css = Q - S^2 / count loses digits to the row level (both are
    shift invariant). Returns (mean, xc, cs, prefix_css, suffix_css): the
    (B, 1) row means, the centered rows and their prefix sums at every
    column, and at column i the css of the prefix 1..j[i] and of the
    suffix j[i]+1..n. Suffix css at j = n is NaN (empty segment).
    """
    n = xmat.shape[1]
    mean, xc, cs = _centered_sums(xmat)
    cq = np.multiply(xc, xc)
    np.cumsum(cq, axis=1, out=cq)
    sel = slice(j[0] - 1, j[-1])
    prefix_css = _css(cq[:, sel], cs[:, sel], j)
    suffix = np.subtract(cs[:, -1:], cs[:, sel])  # the suffix sums, then their css
    q = np.subtract(cq[:, -1:], cq[:, sel], out=cq[:, sel])
    with np.errstate(divide="ignore", invalid="ignore"):  # the suffix at j = n is empty
        suffix_css = _css(q, suffix, n - j, suffix)
    return mean, xc, cs, prefix_css, suffix_css


def prefix_suffix_scan(x: np.ndarray) -> ScanStats:
    """Compute all prefix/suffix means and centered sums of squares in O(n).

    The B = 1 row of `_scan_rows` at every split 1..n; the
    self-normalized CUSUM scan runs it at the trimmed splits.
    """
    x = as_series(x)
    j = np.arange(1, x.size + 1)
    mean, _xc, cs, prefix_css, suffix_css = _scan_rows(x[None], j)
    with np.errstate(divide="ignore", invalid="ignore"):
        suffix_mean = mean[0] + (cs[0, -1] - cs[0]) / (x.size - j)
    return ScanStats(mean[0] + cs[0] / j, prefix_css[0], suffix_mean, suffix_css[0])


CHUNK_ELEMS = 2**21  # elements per (rows, n) float64 batch: 16 MB
SLICE_ELEMS = 2**14  # elements per cache-resident slice of a batch: 128 KB of float64


def row_chunks(rows: int, n: int, elems: int | None = None):
    """Yield row counts of in-order batches of at most max(elems, n) values.

    elems defaults to CHUNK_ELEMS, read at call time.
    """
    step = max(1, (CHUNK_ELEMS if elems is None else elems) // n)
    for start in range(0, rows, step):
        yield min(step, rows - start)
