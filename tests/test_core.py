import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from snstat import core
from snstat.core import (
    InsufficientBlocksError,
    as_series,
    partition,
    prefix_suffix_scan,
    segment_stats,
)

finite_series = arrays(
    np.float64,
    st.integers(min_value=2, max_value=60),
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
)


class TestAsSeries:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            as_series([1.0, np.nan])

    def test_rejects_short(self):
        with pytest.raises(ValueError, match="too short"):
            as_series([1.0])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            as_series([[1.0, 2.0]])


class TestPartition:
    def test_remainder_discarded(self):
        part = partition(10, 3)
        assert part.blocks == [(1, 3), (4, 6), (7, 9)]
        assert part.covered == 9  # index 10 dropped

    def test_exact_division(self):
        part = partition(6, 3)
        assert part.blocks == [(1, 3), (4, 6)]
        assert part.l_n == 2

    def test_insufficient_blocks(self):
        with pytest.raises(InsufficientBlocksError, match="n=5.*k_n=6"):
            partition(5, 6)

    def test_bad_block_length(self):
        with pytest.raises(InsufficientBlocksError):
            partition(10, 0)

    @pytest.mark.parametrize("n", [12, 14])  # no remainder, a remainder of 2
    def test_view_of_rows_stacks_the_row_views(self, n):
        part = partition(n, 4)
        xmat = np.arange(3.0 * n).reshape(3, n)
        assert part.view(xmat[0]).shape == (3, 4)
        np.testing.assert_array_equal(
            part.view(xmat), np.stack([part.view(row) for row in xmat])
        )

    @pytest.mark.parametrize("k", [10.0, 2.5, True, "10", None])
    def test_block_length_must_be_an_integer(self, k):
        # 10.0 used to pass here and fail later as a slice index
        with pytest.raises(ValueError, match="^k_n: expected an integer"):
            partition(120, k)

    def test_numpy_integer_block_length_accepted(self):
        assert partition(120, np.int64(10)).l_n == 12

    def test_blocks_disjoint_contiguous(self):
        part = partition(47, 5)
        flat = [i for lo, hi in part.blocks for i in range(lo, hi + 1)]
        assert flat == list(range(1, part.covered + 1))
        assert all(hi - lo + 1 == 5 for lo, hi in part.blocks)


class TestSegmentStats:
    def test_hand_two_points(self):
        s = segment_stats(np.array([0.0, 2.0]), 1, 2)
        assert s.mean == pytest.approx(1.0)
        assert s.css == pytest.approx(2.0)  # (0-1)^2 + (2-1)^2

    def test_constant(self):
        s = segment_stats(np.array([5.0, 5.0, 5.0]), 1, 3)
        assert s.mean == 5.0
        assert s.css == 0.0

    def test_hand_three_points(self):
        s = segment_stats(np.array([1.0, 2.0, 3.0]), 1, 3)
        assert s.mean == pytest.approx(2.0)
        assert s.css == pytest.approx(2.0)

    def test_out_of_bounds(self):
        with pytest.raises(ValueError):
            segment_stats(np.array([1.0, 2.0]), 0, 1)
        with pytest.raises(ValueError):
            segment_stats(np.array([1.0, 2.0]), 2, 1)


class TestSegmentCss:
    """core._segment_css flags exactly the segments that are all equal or whose css is 0.

    Its cheap bound only decides which segments get the exact test, so no
    segment the exact rule flags may pass it; this is what lets every
    caller share the rule.
    """

    @given(
        k=st.integers(min_value=2, max_value=5000),
        mantissa=st.floats(min_value=1.0, max_value=10.0, exclude_max=True),
        exponent=st.integers(min_value=-150, max_value=150),
        sign=st.sampled_from([1.0, -1.0]),
        bits=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_flag_is_the_exact_rule(self, k, mantissa, exponent, sign, bits, seed):
        rng = np.random.default_rng(seed)
        v = sign * mantissa * 10.0**exponent
        equal = np.full(k, v)
        ulp = equal.copy()  # one value one ulp away
        ulp[rng.integers(k)] = np.nextafter(v, rng.choice([-np.inf, np.inf]))
        near = v * (1.0 + rng.normal(size=k) * 2.0**-bits)  # a few ulps apart at 50+ bits
        noise = v + abs(v) * rng.normal(size=k)
        underflow = rng.normal(size=k) * 1e-170  # no deviation squares to a nonzero double
        a = np.array([equal, ulp, near, noise, underflow])
        mean, css, flat = core._segment_css(a)
        np.testing.assert_array_equal(mean, a.mean(axis=-1))
        np.testing.assert_array_equal(css, np.sum((a - a.mean(axis=-1)[:, None]) ** 2, axis=-1))
        np.testing.assert_array_equal(flat, core._all_equal(a) | (css == 0.0))
        assert flat[0] and flat[4]


class TestPrefixSuffixScan:
    def test_hand_example(self):
        scan = prefix_suffix_scan([0.0, 2.0, 1.0, 3.0])
        # j = 2: prefix [0, 2], suffix [1, 3]
        assert scan.prefix_mean[1] == pytest.approx(1.0)
        assert scan.prefix_css[1] == pytest.approx(2.0)
        assert scan.suffix_mean[1] == pytest.approx(2.0)
        assert scan.suffix_css[1] == pytest.approx(2.0)

    def test_constant_series(self):
        scan = prefix_suffix_scan(np.full(10, 3.5))
        assert np.all(scan.prefix_css == 0.0)
        assert np.all(scan.suffix_css[:-1] == 0.0)

    def test_singleton_segments(self):
        scan = prefix_suffix_scan([0.0, 2.0])
        assert scan.prefix_css[0] == 0.0
        assert scan.suffix_css[0] == 0.0
        assert scan.prefix_mean[0] == 0.0
        assert scan.suffix_mean[0] == 2.0

    def test_suffix_at_n_flagged_empty(self):
        scan = prefix_suffix_scan([1.0, 2.0, 3.0])
        assert np.isnan(scan.suffix_mean[-1])
        assert np.isnan(scan.suffix_css[-1])

    def test_agrees_with_segment_stats(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = rng.integers(2, 40)
            x = rng.normal(scale=rng.uniform(0.1, 10), size=n)
            j = int(rng.integers(1, n))
            scan = prefix_suffix_scan(x)
            pre = segment_stats(x, 1, j)
            assert scan.prefix_mean[j - 1] == pytest.approx(pre.mean, rel=1e-12, abs=1e-12)
            assert scan.prefix_css[j - 1] == pytest.approx(pre.css, rel=1e-12, abs=1e-9)
            if j < n:
                suf = segment_stats(x, j + 1, n)
                assert scan.suffix_mean[j - 1] == pytest.approx(suf.mean, rel=1e-12, abs=1e-12)
                assert scan.suffix_css[j - 1] == pytest.approx(suf.css, rel=1e-12, abs=1e-9)

    def test_pooling_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 50))
            x = rng.normal(size=n)
            scan = prefix_suffix_scan(x)
            total = segment_stats(x, 1, n).css
            for j in range(1, n):
                pooled = (
                    scan.prefix_css[j - 1]
                    + scan.suffix_css[j - 1]
                    + j * (n - j) / n * (scan.prefix_mean[j - 1] - scan.suffix_mean[j - 1]) ** 2
                )
                assert pooled == pytest.approx(total, rel=1e-10, abs=1e-10)

    @given(finite_series, st.floats(min_value=-50, max_value=50, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_css_shift_invariant(self, x, d):
        base = prefix_suffix_scan(x)
        shifted = prefix_suffix_scan(x + d)
        np.testing.assert_allclose(shifted.prefix_css, base.prefix_css, rtol=1e-8, atol=1e-7)

    @given(finite_series, st.floats(min_value=0.1, max_value=10, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_css_scale_quadratic(self, x, c):
        base = prefix_suffix_scan(x)
        scaled = prefix_suffix_scan(c * x)
        np.testing.assert_allclose(
            scaled.prefix_css, c * c * base.prefix_css, rtol=1e-9, atol=1e-9
        )
