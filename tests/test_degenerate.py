"""Constant data gets one outcome per entry point, whatever value it repeats.

The mean of k copies of v need not round to v, so a rounded sum of
squares is 0 for some values and about 1e-32 for others; the exact
all-equal test does not depend on v.
"""

import numpy as np
import pytest

from snstat import core
from snstat.changepoint import (
    classical_test, sn_scan, sn_statistic, sn_test, variance_change_test
)
from snstat.core import DegenerateDataError
from snstat.inference import bb_ci, combo_ci, sn_ci, st_ci, wb_ci
from snstat.lrv import _d_selfnorm_rows, _tau_sq_selfnorm_rows, lrv_selfnorm, lrv_stationary

VALUES = [0.1, 0.3, 1 / 3, 2 / 3, 0.01, 123.456, 0.5, 3.0]

RAISING = {
    "lrv_selfnorm": (lambda x: lrv_selfnorm(x, 10), "degenerate block 1"),
    "sn_ci": (lambda x: sn_ci(x, 0.05, 10), "degenerate block 1"),
    "wb_ci": (lambda x: wb_ci(x, 0.05, 10, B=50), "degenerate block 1"),
    "combo_ci": (
        lambda x: combo_ci([x[:60], x[60:]], [1.0, -1.0], 0.05, 10),
        "degenerate segment",
    ),
    "variance_change_test": (
        lambda x: variance_change_test(x, 0.1, 10, B=50),
        "degenerate transform",
    ),
    "sn_scan": (lambda x: sn_scan(x, 0.1), "degenerate scan at j=12"),
    "sn_statistic": (lambda x: sn_statistic(x, 0.1, 10), "degenerate scan at j=12"),
    "sn_test": (lambda x: sn_test(x, 0.1, 10, B=50), "degenerate scan at j=12"),
}


@pytest.mark.parametrize("v", VALUES)
@pytest.mark.parametrize("entry", sorted(RAISING))
def test_constant_series_raises(entry, v):
    call, message = RAISING[entry]
    with pytest.raises(DegenerateDataError, match=message):
        call(np.full(120, v))


@pytest.mark.parametrize("v", VALUES)
@pytest.mark.parametrize("variant", ["t1", "t2"])
def test_classical_test_constant_convention(variant, v):
    rep = classical_test(np.full(120, v), 0.1, 10, B=50, variant=variant)
    assert (rep.statistic, rep.p_value, rep.test) == (0.0, 1.0, variant)


@pytest.mark.parametrize(
    "k, error",
    [(200, core.InsufficientBlocksError), (0, core.InsufficientBlocksError), (2.5, ValueError)],
)
def test_classical_test_checks_block_length_on_constant_series(k, error):
    # the constant branch used to return p-value 1 for any k_n
    with pytest.raises(error):
        classical_test(np.full(120, 0.3), 0.1, k, B=50)


def test_one_constant_block_raises():
    x = np.random.default_rng(0).normal(size=30)
    x[3:6] = 0.1  # block 2 at k = 3; its rounded css is not 0
    with pytest.raises(DegenerateDataError, match="degenerate block 2"):
        lrv_selfnorm(x, 3)


# Each k = 3 block of a wild-bootstrap row is (0.1, -0.1, 0.1) or its negative
# times signs, so a quarter of the blocks repeat one value; those blocks'
# rounded css is about 1e-34, not 0.
TILE = np.tile([0.1, -0.1], 30)


def test_wild_bootstrap_redraws_blocks_of_equal_values():
    # nearly every Rademacher row has such a block; they used to be kept with
    # tau^2 near 1e30 and gave an interval 7e-18 wide
    with pytest.raises(DegenerateDataError, match="redraw cap"):
        wb_ci(TILE, 0.05, 3, B=200)


def test_gaussian_multipliers_unaffected():
    ci = wb_ci(TILE, 0.05, 3, B=200, law="gaussian")
    assert (ci.lower, ci.upper) == (-0.006965946446045866, 0.006950747477734402)


def test_row_kernel_flags_a_block_of_equal_values():
    tau_sq, ok = _tau_sq_selfnorm_rows(np.array([[0.1, 0.1, 0.1, 0.2, -0.3, 0.5]]), 3)
    assert not ok[0]
    with pytest.raises(DegenerateDataError, match="degenerate block 1"):
        lrv_selfnorm([0.1, 0.1, 0.1, 0.2, -0.3, 0.5], 3)


@pytest.mark.parametrize("k", [2, 3, 7, 25, 300])
def test_screened_flags_match_the_exact_rule(k):
    # rows of noise whose first block repeats v, whose second block is v with
    # one value a step away, and whose scale makes every css underflow
    rng = np.random.default_rng(k)
    scales = [0.1, 1 / 3, -7.3e-5, 123.456, np.pi, 1e-150, 1e-300, 5e-324, 1e150, 1e300]
    rows = []
    for v in scales:
        row = rng.normal(size=4 * k) * abs(v)
        row[:k] = v
        row[k : 2 * k] = v
        row[k] = np.nextafter(v, np.inf)
        rows.append(row)
    rows.append(rng.normal(size=4 * k) * 1e-170)
    xmat = np.array(rows)
    blocks = xmat.reshape(len(rows), 4, k)
    with np.errstate(over="ignore", invalid="ignore"):
        css = np.sum((blocks - blocks.mean(axis=2)[:, :, None]) ** 2, axis=2)
        flags = _d_selfnorm_rows(xmat, k)[1]
    np.testing.assert_array_equal(flags, core._all_equal(blocks) | (css == 0.0))
    assert flags[: len(scales), 0].all()


def test_underflowing_css_raises():
    # the values vary, but no deviation squares to a nonzero double
    x = np.random.default_rng(0).normal(size=40) * 1e-170
    with pytest.raises(DegenerateDataError, match="degenerate block 1"):
        lrv_selfnorm(x, 10)
    with pytest.raises(DegenerateDataError, match="degenerate segment"):
        combo_ci([x], [1.0], 0.05, 10, tau_hat=1.0)


def modulated(seed, n=120):
    return np.random.default_rng(seed).normal(size=n) * np.linspace(1.0, 3.0, n) + 5.0


@pytest.mark.parametrize("seed", range(6))
def test_classical_bootstrap_redraws_repeated_blocks(seed):
    # l_n = 4: about one resample in 64 repeats one block, so tau^2 = 0
    rep = classical_test(modulated(seed), 0.1, 25, B=1000)
    assert np.max(rep.bootstrap.values) < 1e6


@pytest.mark.parametrize("variant", ["t1", "t2"])
def test_classical_test_chunk_invariant(monkeypatch, variant):
    x = modulated(0)
    default = classical_test(x, 0.1, 25, B=1000, variant=variant)
    monkeypatch.setattr(core, "CHUNK_ELEMS", 2**12)
    small = classical_test(x, 0.1, 25, B=1000, variant=variant)
    np.testing.assert_array_equal(small.bootstrap.values, default.bootstrap.values)
    assert small.p_value == default.p_value


# Every block holds whole (v, -v) pairs, so every block mean equals the
# overall mean and both estimates are exactly 0.
ZERO_TAU = {
    "tile12": (np.tile([0.1, -0.1, 0.3, -0.3], 3), 6),
    "tile120": (np.tile([0.1, -0.1, 0.3, -0.3], 30), 6),
    "pm1": (np.tile([1.0, -1.0], 60), 2),
}

ZERO_TAU_CALLS = {
    "sn_ci": (lambda x, k: sn_ci(x, 0.05, k), "selfnorm"),
    "wb_ci": (lambda x, k: wb_ci(x, 0.05, k, B=50), "selfnorm"),
    "st_ci": (lambda x, k: st_ci(x, 0.05, k), "stationary"),
    "bb_ci": (lambda x, k: bb_ci(x, 0.05, k, B=50), "stationary"),
    "sbb_ci": (lambda x, k: bb_ci(x, 0.05, k, B=50, studentized=True), "stationary"),
    "combo_ci": (lambda x, k: combo_ci([x], [1.0], 0.05, k), "selfnorm"),
    "t1": (lambda x, k: classical_test(x, 0.1, k, B=50, variant="t1"), "stationary"),
    "t2": (lambda x, k: classical_test(x, 0.1, k, B=50, variant="t2"), "stationary"),
}


@pytest.mark.parametrize("case", sorted(ZERO_TAU))
@pytest.mark.parametrize("entry", sorted(ZERO_TAU_CALLS))
def test_zero_tau_raises(entry, case):
    # each used to give the interval [0.0, 0.0], hit the redraw cap, or (t1,
    # t2) raise from a check of its own
    call, estimator = ZERO_TAU_CALLS[entry]
    x, k = ZERO_TAU[case]
    with pytest.raises(DegenerateDataError, match=f"zero {estimator} tau estimate"):
        call(x, k)


@pytest.mark.parametrize("case", sorted(ZERO_TAU))
def test_estimators_return_the_exact_zero(case):
    x, k = ZERO_TAU[case]
    assert lrv_selfnorm(x, k).tau_sq_hat == 0.0
    assert lrv_stationary(x, k).tau_sq_hat == 0.0
