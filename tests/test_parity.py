"""Each observed statistic is the B = 1 row of the kernel its bootstrap runs."""

import numpy as np
import pytest

from snstat.changepoint import (
    _classical_stat_rows,
    _sn_stat_rows,
    classical_statistic,
    sn_statistic,
)
from snstat.lrv import (
    _tau_sq_selfnorm_rows,
    _tau_sq_stationary_rows,
    lrv_selfnorm,
    lrv_stationary,
)
from snstat.simgen import ErrorModel, SigmaProfile, SimModel, generate

C = 0.1


def series(n, seed):
    model = SimModel(
        n=n, sigma=SigmaProfile("A1", n), error=ErrorModel("b1", theta=0.0), seed=seed
    )
    return generate(model)


@pytest.mark.parametrize("n, k", [(120, 10), (1201, 25)])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_statistic_equals_its_kernel_row(n, k, seed):
    x = series(n, seed)
    row = x[None]

    stats, ok = _sn_stat_rows(row, C, k)
    assert ok[0] and sn_statistic(x, C, k)[0] == stats[0]
    for variant in ("t1", "t2"):
        stats, ok = _classical_stat_rows(row, C, k, variant)
        assert ok[0] and classical_statistic(x, C, k, variant) == stats[0]

    tau_sq, ok = _tau_sq_selfnorm_rows(row, k)
    assert ok[0] and lrv_selfnorm(x, k).tau_sq_hat == tau_sq[0]
    assert lrv_stationary(x, k).tau_sq_hat == _tau_sq_stationary_rows(row, k)[0]
