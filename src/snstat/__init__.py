"""Self-normalized inference for time series with time-varying variances.

Confidence intervals, CUSUM change-point tests (mean and variance),
blockwise long-run variance estimation, wild/block bootstrap, a
linear-trend extension, and a Monte Carlo harness.
"""

__version__ = "0.1.0"

from .core import (
    BlockPartition,
    DegenerateDataError,
    InsufficientBlocksError,
    SegmentStats,
    as_series,
    partition,
    prefix_suffix_scan,
    segment_stats,
)
from .lrv import LongRunEstimate, lrv_selfnorm, lrv_stationary, select_block_length
from .inference import (
    BootstrapDistribution,
    ConfidenceInterval,
    bb_ci,
    block_bootstrap_mean,
    combo_ci,
    sn_ci,
    st_ci,
    wb_ci,
    wild_bootstrap_mean,
)
from .changepoint import (
    ChangePointReport,
    CusumScan,
    classical_scan,
    classical_test,
    sn_scan,
    sn_test,
    sx,
    variance_change_test,
)
from .regression import TrendFit, fit_trend, regression_lrv, trend_ci
from .simgen import ErrorModel, SigmaProfile, SimModel, gen_b1, gen_b2, generate, sigma_values
from .harness import ExperimentResult, ExperimentSpec, run_experiment
