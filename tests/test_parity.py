"""Each observed statistic is the B = 1 row of the kernel its bootstrap runs.

The scalar raises DegenerateDataError exactly where the row's ok flag is
False, and where both succeed the two values are equal to the last bit.
"""

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from snstat.changepoint import (
    _classical_stat_rows,
    _sn_stat_rows,
    classical_statistic,
    classical_test,
    sn_statistic,
)
from snstat.core import DegenerateDataError
from snstat.inference import bb_ci, st_ci
from snstat.lrv import (
    _tau,
    _tau_sq_selfnorm_rows,
    _tau_sq_stationary_rows,
    lrv_selfnorm,
    lrv_stationary,
)
from snstat.simgen import ErrorModel, SigmaProfile, SimModel, generate

C = 0.1


def through_tau(estimator):
    """tau^2 of estimator(x, k), taken through `_tau`, which raises unless it is > 0."""

    def scalar(x, k):
        est = estimator(x, k)
        _tau(est)
        return est.tau_sq_hat

    return scalar


# (scalar(x, k) -> value, or DegenerateDataError; rows(xmat, k) -> (values, ok))
PAIRS = {
    "selfnorm": (through_tau(lrv_selfnorm), _tau_sq_selfnorm_rows),
    "stationary": (through_tau(lrv_stationary), _tau_sq_stationary_rows),
    "sn": (lambda x, k: sn_statistic(x, C, k)[0], lambda xmat, k: _sn_stat_rows(xmat, C, k)),
    "t1": (
        lambda x, k: classical_statistic(x, C, k, "t1"),
        lambda xmat, k: _classical_stat_rows(xmat, C, k, "t1"),
    ),
    "t2": (
        lambda x, k: classical_statistic(x, C, k, "t2"),
        lambda xmat, k: _classical_stat_rows(xmat, C, k, "t2"),
    ),
}

# three inputs on which an equal-block-means row rule and a tau^2 == 0 scalar rule disagree
TILE = np.tile([0.1, 0.7, 0.3], 40)  # equal block means; the mean rounds off them
REMAINDER = np.array([1.0] * 12 + [5.0])  # equal blocks; the remainder moves the mean
TINY = np.random.default_rng(0).normal(size=40) * 1e-170  # every D_j^2 underflows
CONSTANT = np.full(7, 0.1)  # its k = 3 block means and its mean round off 0.1, apart


def assert_scalar_is_row(x, k):
    """Check every pair on the series x at block length k; return the names that raised."""
    raised = []
    for name, (scalar, rows) in PAIRS.items():
        values, ok = rows(x[None], k)
        try:
            value = scalar(x, k)
        except DegenerateDataError:
            assert not ok[0], name
            raised.append(name)
        else:
            assert ok[0] and value == values[0], name
    return raised


@st.composite
def series(draw):
    """(x, k): a series from one family, with l_n >= 2 blocks of k and a remainder below k."""
    k = draw(st.integers(2, 8))
    l_n = draw(st.integers(2, 12))
    r = draw(st.integers(0, k - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(
        st.sampled_from(["random", "pm_tile", "equal_means", "constant_blocks", "constant"])
    )
    if family == "random":
        x = rng.normal(size=l_n * k + r)
    elif family == "pm_tile":  # +-v pairs: blocks of even length have mean 0
        x = np.resize([1.0, -1.0], l_n * k + r) * rng.uniform(0.01, 10.0)
    elif family == "equal_means":  # one block repeated, its first values as the remainder
        x = np.resize(rng.uniform(-1.0, 1.0, k).round(draw(st.integers(1, 3))), l_n * k + r)
    elif family == "constant":  # one value throughout; its block means may round off it
        x = np.full(l_n * k + r, round(rng.uniform(-1.0, 1.0), draw(st.integers(1, 3))))
    else:  # each block one value, drawn from a few
        x = np.repeat(rng.choice([0.1, 0.3, 2 / 3], l_n), k)
        x = np.concatenate((x, rng.normal(size=r)))
    if r and draw(st.booleans()):  # a remainder that differs from the blocks
        x[l_n * k :] = draw(st.sampled_from([5.0, -1.0]))
    event(family)
    return x * draw(st.sampled_from([1.0, 1e-170])), k


@example(case=(TILE, 3))
@example(case=(REMAINDER, 3))
@example(case=(TINY, 10))
@example(case=(CONSTANT, 3))
@example(case=(np.full(13, 0.1), 3))  # its block means and its mean round alike
@given(case=series())
@settings(max_examples=300, deadline=None)
def test_scalar_raises_where_its_row_is_not_ok(case):
    raised = assert_scalar_is_row(*case)
    x = case[0]
    if np.all(x == x[0]):  # no variation, whatever value it repeats: every pair raises
        assert raised == list(PAIRS)
        event("constant")
    for name in raised:
        event(f"{name}: degenerate")


def test_the_three_inputs():
    for x in (TILE, CONSTANT):
        for call in (
            lambda: st_ci(x, 0.05, 3),
            lambda: bb_ci(x, 0.05, 3, B=50),
            lambda: bb_ci(x, 0.05, 3, B=50, studentized=True),
        ):
            with pytest.raises(DegenerateDataError, match="zero stationary tau estimate"):
                call()
    for variant in ("t1", "t2"):
        with pytest.raises(DegenerateDataError, match="zero stationary tau estimate"):
            classical_test(TILE, C, 3, B=50, variant=variant)
    assert lrv_stationary(CONSTANT, 3).tau_sq_hat == 0.0
    assert lrv_stationary(REMAINDER, 3).tau_sq_hat == 0.2840236686390532
    assert _tau_sq_stationary_rows(REMAINDER[None], 3)[0][0] == 0.2840236686390532
    with pytest.raises(DegenerateDataError, match="zero stationary tau estimate"):
        st_ci(TINY, 0.05, 10)
    for variant in ("t1", "t2"):
        with pytest.raises(DegenerateDataError, match="zero stationary tau estimate"):
            classical_statistic(TINY, C, 10, variant)


def simulated(n, seed):
    model = SimModel(
        n=n, sigma=SigmaProfile("A1", n), error=ErrorModel("b1", theta=0.0), seed=seed
    )
    return generate(model)


@pytest.mark.parametrize("n, k", [(120, 10), (1201, 25)])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_statistic_equals_its_kernel_row(n, k, seed):
    x = simulated(n, seed)
    for name, (scalar, rows) in PAIRS.items():
        values, ok = rows(x[None], k)
        assert ok[0] and scalar(x, k) == values[0], name
